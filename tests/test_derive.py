"""Recovering the graph-probability representations and their counts."""
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

import qoverlap.derive as derive
from qoverlap import cli
from qoverlap.core import PAULI2, ModeLayout, random_state, to_correlation, trace_tensor
from qoverlap.derive import (
    EXACT,
    EXACT_CHECK_PAIRS,
    FIT_TOL,
    ResidualError,
    _certified,
    _design_context,
    _exact_fit,
    _kernel_form,
    _matching_gram,
    _matching_kernel,
    _prune,
    _rat_correlation,
    _rational_state,
    _symbolic_support,
    build_basis,
    derive_targets,
    fit_coefficients,
    verify_table_claims,
)
from qoverlap.graphs import (
    MeasurementGraph,
    connected_components,
    enumerate_matchings,
    exact_numerators,
    exact_probabilities,
    matching_orbits,
    matching_table,
    probability_exact,
)
from qoverlap.overlaps import TARGETS


def fresh_ensemble(n, seed):
    rng = np.random.default_rng(seed)
    pairs = [(random_state(4, seed=rng), random_state(4, seed=rng)) for _ in range(n)]
    R1s = np.stack([to_correlation(a) for a, _ in pairs])
    R2s = np.stack([to_correlation(b) for _, b in pairs])
    return pairs, R1s, R2s


def loop_ginibre(rng):
    """One Ginibre state drawn as random_state drew it before the batch sampler."""
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = G @ G.conj().T
    return rho / rho.trace().real


def distinct_classes(fit):
    return {fit.basis.graphs[i].key() for i in fit.support_graphs()}


class TestBasis:
    def test_sizes_frozen(self):
        b2 = build_basis(2)
        b4 = build_basis(4)
        assert (len(b2.graphs), b2.n_monomials) == (18, 247)
        assert (len(b4.graphs), b4.n_monomials) == (237, 554)

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            build_basis(3)

    def test_monomial_copies_bounded(self):
        b4 = build_basis(4)
        assert max(b4.monomial_copies(k) for k in range(b4.n_monomials)) <= 4

    def test_monomial_strings_name_graphs(self):
        b2 = build_basis(2)
        assert b2.monomial_string(0) == "1"
        s = b2.monomial_string(1)
        assert "g[" in s


class TestTargets:
    def test_constant_target(self):
        a, b = random_state(4, seed=1), random_state(4, seed=2)
        assert TARGETS["one"](a, b) == pytest.approx(1.0)

    def test_quadratic_targets_match_traces(self):
        rng = np.random.default_rng(3)
        a, b = random_state(4, seed=rng), random_state(4, seed=rng)
        lam = a - b
        assert TARGETS["o11"](a, b) == pytest.approx(float(np.trace(a @ a).real), abs=1e-12)
        assert TARGETS["o12"](a, b) == pytest.approx(float(np.trace(a @ b).real), abs=1e-12)
        assert TARGETS["pi2"](a, b) == pytest.approx(
            float(np.trace(lam @ lam).real), abs=1e-12
        )
        assert TARGETS["pi4"](a, b) == pytest.approx(
            float(np.trace(np.linalg.matrix_power(lam, 4)).real), abs=1e-12
        )
        assert TARGETS["o2"](a, b) == pytest.approx(
            float(np.trace(np.linalg.matrix_power(a @ b, 2)).real), abs=1e-12
        )

    @pytest.mark.parametrize(
        "measure, rank", [("ginibre", None), ("pure", None), ("rank-constrained", 2)]
    )
    def test_stacked_values_match_pair_calls(self, measure, rank):
        rng = np.random.default_rng(9)
        rhos1, rhos2 = (
            np.array([random_state(4, measure, rng, rank=rank) for _ in range(40)])
            for _ in range(2)
        )
        for name, target in TARGETS.items():
            stacked = target(rhos1, rhos2)
            assert np.shape(stacked) == (() if name == "one" else (40,)), name
            want = np.array([target(a, b) for a, b in zip(rhos1, rhos2)])
            assert np.array_equal(np.full(40, stacked), want), name

    def test_pair_call_returns_a_python_float(self):
        a, b = random_state(4, seed=1), random_state(4, seed=2)
        for name, target in TARGETS.items():
            assert type(target(a, b)) is float, name


class TestStandaloneFits:
    """Cheap fits on the two-copy basis, independent of the session battery."""

    def test_pi2_nine_graphs_integer_coefficients(self):
        fit = fit_coefficients("pi2", build_basis(2), samples=600, seed=5)
        assert len(fit.entries) == 9
        assert len(distinct_classes(fit)) == 9
        assert fit.all_rational and fit.exact_certified
        assert not fit.non_unique
        values = sorted(fit.entries.values())
        assert values == [Fraction(v) for v in (-8, -2, -2, -2, -2, 4, 4, 4, 4)]

    def test_constant_fit(self):
        fit = fit_coefficients("one", build_basis(2), samples=600, seed=6)
        _, R1s, R2s = fresh_ensemble(40, 7)
        pred = fit.evaluate_batch(R1s, R2s)
        assert np.abs(pred - 1.0).max() < 1e-10

    def test_purity_fit_predicts(self):
        fit = fit_coefficients("o11", build_basis(2), samples=600, seed=8)
        pairs, R1s, R2s = fresh_ensemble(50, 9)
        pred = fit.evaluate_batch(R1s, R2s)
        truth = np.array([TARGETS["o11"](a, b) for a, b in pairs])
        assert np.abs(pred - truth).max() < 1e-10

    def test_deterministic_under_seed(self):
        b2 = build_basis(2)
        f1 = fit_coefficients("o12", b2, samples=600, seed=10)
        f2 = fit_coefficients("o12", b2, samples=600, seed=10)
        assert f1.entries == f2.entries

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown target"):
            fit_coefficients("pi9", build_basis(2), samples=600)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            fit_coefficients("pi2", build_basis(2), samples=100)

    def test_target_without_seeded_support_raises(self):
        """A four-factor word has no exact seed on the two-copy basis."""
        with pytest.raises(ResidualError, match="no candidate support found for 'o2'"):
            fit_coefficients("o2", build_basis(2), samples=600)

    def test_constant_seed_is_the_constant_monomial(self):
        for basis in (build_basis(2), build_basis(4)):
            assert [basis.monomials[k] for k in _symbolic_support("one", basis)] == [()]

    def test_a_coefficient_that_snaps_to_zero_leaves_the_fit(self, monkeypatch):
        """A pruned coefficient of 3e-9 is noise around 0: no entry, no table line, no class."""
        basis = build_basis(2)
        want = fit_coefficients("pi2", basis, samples=600, seed=5)
        extra = next(
            k for k in range(basis.n_monomials)
            if basis.monomials[k] and not basis.classes([k]) & set(want.support_graphs())
        )

        def padded_prune(A, y, support):
            kept, coef, seed_res = _prune(A, y, support)
            return kept + [extra], np.append(coef, 3e-9), seed_res

        monkeypatch.setattr(derive, "_prune", padded_prune)
        fit = fit_coefficients("pi2", basis, samples=600, seed=5)
        assert extra not in fit.entries
        assert fit.entries == want.entries
        assert fit.as_table() == want.as_table()
        assert basis.monomial_string(extra) not in fit.as_table()
        assert not basis.classes([extra]) & set(fit.support_graphs())
        assert fit.exact_certified

    def test_failed_certification_keeps_the_float_fit(self, exact_traces_off):
        fit = fit_coefficients("pi2", build_basis(2), samples=600)
        assert not fit.exact_certified and not fit.all_rational
        assert len(fit.entries) == 9
        assert all(type(c) is float for c in fit.entries.values())
        assert fit.residual < derive.HOLDOUT_TOL  # the float fit passed held-out validation


def reference_prune(A, y, support, factored=False):
    """The restart scan: one removal per round, every candidate retried.

    Each trial is a least-squares solve on all rows of A or, with
    ``factored``, on the R factor of ``[A[:, support] y]``, which has the
    same least-squares and minimum-norm solutions on far fewer rows and
    is re-triangularized after each removal.
    """
    support = list(support)
    R = np.linalg.qr(np.column_stack([A[:, support], y]), mode="r") if factored else None

    def solve(keep):
        cols = [support[p] for p in keep]
        if factored:
            rcond = np.finfo(float).eps * max(A.shape)
            coef, *_ = np.linalg.lstsq(R[:, keep], R[:, -1], rcond=rcond)
        else:
            coef, *_ = np.linalg.lstsq(A[:, cols], y, rcond=None)
        return coef, float(np.abs(A[:, cols] @ coef - y).max())

    changed = True
    while changed:
        changed = False
        everything = list(range(len(support)))
        weight = np.abs(solve(everything)[0])
        order = sorted(everything, key=lambda p: (weight[p], p))
        for pos in order:
            keep = everything[:pos] + everything[pos + 1 :]
            if keep and solve(keep)[1] < FIT_TOL:
                support = [support[p] for p in keep]
                if factored:
                    R = np.linalg.qr(R[:, keep + [-1]], mode="r")
                changed = True
                break
    return support


def gaussian_columns(n, rows=50, seed=0):
    return np.random.default_rng(seed).standard_normal((n, rows))


def union_find_gram(matchings, n):
    """<D_a, D_b> = 4 ** (components of a + b whose slots both cover), by union-find."""
    G = np.empty((len(matchings), len(matchings)))
    for a, Ma in enumerate(matchings):
        for b, Mb in enumerate(matchings):
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for u, v in Ma + Mb:
                parent[find(u)] = find(v)
            both = {s for e in Ma for s in e} & {s for e in Mb for s in e}
            pinned = {find(s) for s in range(n) if s not in both}
            G[a, b] = 4.0 ** len({find(s) for s in range(n)} - pinned)
    return G


def fraction_correlation(rho):
    """Tr[rho sigma_m x sigma_n] summed term by term in fractions."""
    re = [[Fraction(int(v), rho.den) for v in row] for row in rho.re]
    im = [[Fraction(int(v), rho.den) for v in row] for row in rho.im]
    P_re, P_im = np.round(PAULI2.real).astype(int), np.round(PAULI2.imag).astype(int)
    return [
        [
            sum(re[i][j] * int(P_re[m, n, j, i]) - im[i][j] * int(P_im[m, n, j, i])
                for i in range(4) for j in range(4))
            for n in range(4)
        ]
        for m in range(4)
    ]


def fraction_probability(graph, R1, R2):
    """4**-|E| sum over edge indices of prod ETA * prod copy entries, in fractions."""
    total = Fraction(0)
    for idx in product(range(4), repeat=graph.n_edges):
        term = Fraction((-1) ** sum(i > 0 for i in idx))
        for c in range(graph.n_copies):
            row = col = 0
            for k, edge in enumerate(graph.edges):
                row = idx[k] if 2 * c in edge else row
                col = idx[k] if 2 * c + 1 in edge else col
            term *= (R1 if graph.layout.copies[c] == 1 else R2)[row][col]
        total += term
    return total / 4**graph.n_edges


@lru_cache(maxsize=None)
def design(copies):
    """A basis and its design matrix on the fit ensemble at seed 42."""
    basis = build_basis(copies)
    A, rhos1, rhos2, *_ = _design_context(basis, {2: 600, 4: 1400}[copies], 42)
    return basis, A, rhos1, rhos2


class TestCompressedSolves:
    """The fast derivation paths against plain references written here."""

    @pytest.mark.parametrize(
        "copies, target, extra",
        [
            # Explicit ids keep each case's name in recorded test results unchanged.
            pytest.param(2, "pi2", range(60), id="2-pi2-extra0-None"),
            pytest.param(4, "w1112", (), id="4-w1112-extra1-None"),
            pytest.param(4, "w2222", (), id="4-w2222-extra2-None"),
        ],
    )
    def test_prune_matches_full_system_prune(self, copies, target, extra):
        basis, A, rhos1, rhos2 = design(copies)
        y = np.array([TARGETS[target](a, b) for a, b in zip(rhos1, rhos2)])
        support = sorted(set(_symbolic_support(target, basis)) | set(extra))
        got, _, seed_res = _prune(A, y, support)
        assert got == reference_prune(A, y, support)
        assert got == reference_prune(A, y, support, factored=True)
        assert len(got) < len(support)
        assert seed_res < FIT_TOL

    @pytest.mark.parametrize("seed", [3, 21])
    def test_every_prune_keeps_the_restart_scans_support(self, monkeypatch, seed):
        """Each prune of a derivation returns the restart scan's list, in order."""
        calls = []

        def checked(A, y, support):
            got = _prune(A, y, support)
            ref = reference_prune(A, y, support, factored=True)
            calls.append((len(support), got[0], ref))
            return got

        _design_context.cache_clear()
        monkeypatch.setattr(derive, "_prune", checked)
        derive_targets([t for t in TARGETS if t != "pi4"], seed=seed)
        assert len(calls) == 12  # one seed per target
        assert [got for _, got, _ in calls] == [ref for _, _, ref in calls]
        assert sum(len(got) for _, got, _ in calls) < sum(n for n, _, _ in calls)

    def test_needed_tiny_weights_are_kept_and_the_duplicate_dropped(self):
        """a2 and a3 carry weights far below a1's but are needed.

        No free direction moves them, so they are not tried; a1 goes,
        since its multiple 2 a1 replaces it.
        """
        a1, a2, a3 = gaussian_columns(3)
        A, y = np.column_stack([a1, a2, a3, 2 * a1]), 1e4 * a1 + 1e-6 * (a2 + a3)
        assert reference_prune(A, y, range(4), factored=True) == [1, 2, 3]
        assert _prune(A, y, list(range(4)))[0] == [1, 2, 3]

    def test_column_no_free_direction_moves_is_kept(self):
        """a1 fails in round one; in round two no free direction is left to move it."""
        a1, a2 = gaussian_columns(2)
        A, y = np.column_stack([a1, a2, 2 * a2]), a1 + 10 * a2
        assert _prune(A, y, [0, 1, 2])[0] == reference_prune(A, y, [0, 1, 2], factored=True) == [0, 2]

    @pytest.mark.parametrize("copies, target", [(2, "pi2"), (4, "w1122")])
    def test_kept_coefficients_are_the_least_squares_fit(self, copies, target):
        basis, A, rhos1, rhos2 = design(copies)
        y = np.array([TARGETS[target](a, b) for a, b in zip(rhos1, rhos2)])
        got, coef, _ = _prune(A, y, _symbolic_support(target, basis))
        want, *_ = np.linalg.lstsq(A[:, got], y, rcond=None)
        assert np.abs(coef - want).max() < 1e-10

    def test_inexact_seed_drops_nothing_and_fails_the_fit(self, monkeypatch):
        """A seed missing one needed column has no exact fit: it is kept whole and reported."""
        basis, A, rhos1, rhos2 = design(2)
        y = np.array([TARGETS["pi2"](a, b) for a, b in zip(rhos1, rhos2)])
        seed = _symbolic_support("pi2", basis)[1:]
        got, coef, seed_res = _prune(A, y, seed)
        assert got == seed and len(coef) == len(seed)
        assert seed_res >= FIT_TOL
        monkeypatch.setattr(derive, "_symbolic_support", lambda target, basis: list(seed))
        with pytest.raises(ResidualError, match=f"'pi2'.*seeded residual {seed_res:.3e}"):
            fit_coefficients("pi2", basis, samples=600, seed=42)

    def test_quartic_moment_prunes_only_its_class_avoiding_seed(self, monkeypatch):
        """pi2, pi3 and pi4 make one prune each; pi4 seeds from _avoid_classes alone."""
        prunes, expanded = [], []

        def counted_prune(A, y, support):
            prunes.append(len(support))
            return _prune(A, y, support)

        def counted_support(target, basis):
            expanded.append(target)
            return _symbolic_support(target, basis)

        monkeypatch.setattr(derive, "_prune", counted_prune)
        monkeypatch.setattr(derive, "_symbolic_support", counted_support)
        derive_targets(["pi4"], seed=42)
        assert len(prunes) == 3
        assert expanded == ["pi2", "pi3"]

    def test_largest_prune_keeps_the_restart_scans_support(self):
        """The largest prune of a derivation: 196 columns down to the restart scan's 64."""
        basis, A, rhos1, rhos2 = design(4)
        y = np.array([TARGETS["w1122"](a, b) for a, b in zip(rhos1, rhos2)])
        support = _symbolic_support("w1122", basis)
        got = _prune(A, y, support)[0]
        assert (len(support), len(got)) == (196, 64)
        assert got == reference_prune(A, y, support, factored=True)

    @pytest.mark.parametrize("seed", [7, 42])
    def test_exact_fit_matches_least_squares(self, seed):
        """Fits on kept subsets of w1122's seed support, against lstsq on those columns.

        Half the subsets hold the pruned support, so they fit exactly; the
        others drop a few columns at random.  The free directions are an
        orthonormal basis of the kernel of the kept columns.
        """
        basis = build_basis(4)
        A, rhos1, rhos2, *_ = _design_context(basis, 1400, seed)
        y = np.array([TARGETS["w1122"](a, b) for a, b in zip(rhos1, rhos2)])
        support = _symbolic_support("w1122", basis)
        S = A[:, support]
        c0, N = _kernel_form(S, y)
        pruned = np.isin(support, _prune(A, y, support)[0])
        rng = np.random.default_rng(seed)
        exact, dims = 0, set()
        for trial in range(10):
            if trial % 2 == 0:
                keep = pruned | (rng.random(len(support)) < 0.8)
            else:
                keep = rng.random(len(support)) < 0.98
            coef, free, res = _exact_fit(S, y, c0, N, keep)
            want, *_ = np.linalg.lstsq(S[:, keep], y, rcond=None)
            want_res = float(np.abs(S[:, keep] @ want - y).max())
            assert (res < FIT_TOL) == (want_res < FIT_TOL)
            if res < FIT_TOL:
                exact += 1
                assert np.abs(coef[keep] - want).max() < 1e-10
                assert not coef[~keep].any()
            dims.add(free.shape[1])
            assert free.shape[1] == keep.sum() - np.linalg.matrix_rank(S[:, keep], tol=1e-8)
            assert np.abs(free.T @ free - np.eye(free.shape[1])).max(initial=0.0) < 1e-10
            assert np.abs(free[~keep]).max(initial=0.0) < FIT_TOL
            assert np.abs(S[:, keep] @ free[keep]).max(initial=0.0) < 1e-10
        assert exact >= 5 and max(dims) > 0

    def test_gram_matrix_matches_union_find(self):
        matchings, _ = _matching_kernel(3)
        assert len(matchings) == 76
        G = _matching_gram(matchings, 6)
        assert np.array_equal(G, union_find_gram(matchings, 6))
        assert np.array_equal(_matching_gram(matchings, 6, [5, 0, 5]), G[[5, 0, 5]])

    def test_sample_ensemble_matches_the_per_state_loop(self):
        """Fit then held-out ensembles, each all first states then all second states."""
        rng = np.random.default_rng(31)
        want = [[loop_ginibre(rng) for _ in range(n)] for n in (30, 30, 10, 10)]
        rng = np.random.default_rng(31)
        got = [derive._sample_ensemble(rng, n) for n in (30, 10)]
        for (R1s, R2s, rhos1, rhos2), loop1, loop2 in zip(got, want[::2], want[1::2]):
            assert np.array_equal(rhos1, np.array(loop1))
            assert np.array_equal(rhos2, np.array(loop2))
            assert np.array_equal(R1s, np.array([to_correlation(r) for r in loop1]))
            assert np.array_equal(R2s, np.array([to_correlation(r) for r in loop2]))

    def test_design_cache_gains_no_entry_on_repeated_derivations(self):
        _design_context.cache_clear()
        sizes = []
        for _ in range(3):
            derive_targets(["o12", "pi2"], seed=3)
            sizes.append(_design_context.cache_info().currsize)
        assert sizes == [1, 1, 1]
        assert build_basis(4) is build_basis(4)

    def test_integer_probabilities_match_fraction_reference(self):
        """Every class on three rational pairs, as one batch and one graph and pair at a time."""
        basis = design(4)[0]
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(3):
            q1, q2 = _rational_state(rng), _rational_state(rng)
            R1, R2 = _rat_correlation(q1), _rat_correlation(q2)
            assert R1 == fraction_correlation(q1) and R2 == fraction_correlation(q2)
            pairs.append((R1, R2))
        numerators = [(exact_numerators(R1), exact_numerators(R2)) for R1, R2 in pairs]
        assert len(basis.graphs) == 237
        batch = exact_probabilities(basis.graphs, numerators)
        for g, row in zip(basis.graphs, batch):
            for (R1, R2), (N1, N2), got in zip(pairs, numerators, row):
                want = fraction_probability(g, R1, R2)
                assert got == want, str(g)
                assert probability_exact(g, R1, R2) == want, str(g)
                assert probability_exact(g, N1, N2) == want, str(g)

    def test_large_numerators_stay_exact(self):
        """Past the int64 bound the contraction runs in Python integers."""
        basis = design(4)[0]
        rng = np.random.default_rng(13)
        q1, q2 = _rational_state(rng), _rational_state(rng)
        tiny = Fraction(1, 10**15 + 37)
        R1 = [[v + tiny for v in row] for row in _rat_correlation(q1)]
        R2 = [[v - tiny for v in row] for row in _rat_correlation(q2)]
        four_edges = [g for g in basis.graphs if g.n_edges == 4][:12]
        assert four_edges
        for g in four_edges:
            assert probability_exact(g, R1, R2) == fraction_probability(g, R1, R2), str(g)

    def test_exact_targets_match_floats(self):
        rng = np.random.default_rng(12)
        for _ in range(3):
            q1, q2 = _rational_state(rng), _rational_state(rng)
            rho1, rho2 = ((q.re + 1j * q.im).astype(complex) / q.den for q in (q1, q2))
            for name, target in TARGETS.items():
                exact = target(q1, q2, EXACT)
                assert isinstance(exact, Fraction), name
                assert float(exact) == pytest.approx(target(rho1, rho2), abs=1e-12), name


def matching_indices(M, n):
    """Index grid of the entries where D_M is 1: matched slots equal, the rest 0."""
    values = np.indices((4,) * len(M)).reshape(len(M), 4 ** len(M))
    idx = np.zeros((n, values.shape[1]), dtype=int)
    for (u, v), val in zip(M, values):
        idx[u] = idx[v] = val
    return tuple(idx)


@lru_cache(maxsize=None)
def reference_kernel(k):
    """The trace-kernel expansion by one minimum-norm solve on the full Gram system."""
    n = 2 * k
    t = trace_tensor(k)
    kern = np.multiply.outer(t, t).real
    matchings = enumerate_matchings(list(range(n)))
    rhs = np.array([kern[matching_indices(M, n)].sum() for M in matchings])
    c, *_ = np.linalg.lstsq(_matching_gram(matchings, n), rhs, rcond=None)
    return matchings, c


def loop_word_monomials(word):
    """The word expansion as a loop over the kernel's matchings and their edge subsets.

    Every matching with a coefficient of at least 1e-9 lifts to edges on
    the word's copies; each of its edge subsets adds its
    inclusion-exclusion term to the monomial of its canonical components.
    """
    k = len(word)
    matchings, c = _matching_kernel(k)
    layout = ModeLayout(tuple(word))

    def monomial(subset):
        parts = (
            frozenset(e for e in subset if e[0] // 2 in comp)
            for comp in connected_components(layout, subset)
        )
        return tuple(sorted(MeasurementGraph(layout, part).canonical().key() for part in parts))

    acc = {}
    for a, M in enumerate(matchings):
        if abs(c[a]) < 1e-9:
            continue
        edges = []
        for u, v in M:
            mu = 2 * u if u < k else 2 * (u - k) + 1
            mv = 2 * v if v < k else 2 * (v - k) + 1
            edges.append((mu, mv))
        n_edges = len(edges)
        prefactor = c[a] * 4.0 ** (n_edges - k)
        for r in range(n_edges + 1):
            for chosen in combinations(edges, r):
                mono = monomial(frozenset(chosen))
                acc[mono] = acc.get(mono, 0.0) + prefactor * (-1.0) ** r * 2.0 ** (r - n_edges)
    return acc


def loop_submatchings(k):
    """``derive._submatchings`` as a loop over the matchings' edge subsets, components as edge tuples."""
    mode = [2 * u for u in range(k)] + [2 * u + 1 for u in range(k)]
    index, matching, sub, factor = {}, [], [], []
    for a, M in enumerate(enumerate_matchings(list(range(2 * k)))):
        edges = [tuple(sorted((mode[u], mode[v]))) for u, v in M]
        n = len(edges)
        for r in range(n + 1):
            for chosen in combinations(edges, r):
                matching.append(a)
                sub.append(index.setdefault(tuple(sorted(chosen)), len(index)))
                factor.append(4.0 ** (n - k) * (-1.0) ** r * 2.0 ** (r - n))
    layout = ModeLayout((1,) * k)
    parts = [
        {tuple(e for e in s if e[0] // 2 in comp) for comp in connected_components(layout, s)} for s in index
    ]
    return parts, matching, sub, factor


class TestTraceKernel:
    """The orbit solve of the trace kernel against the full solve."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sub_matchings_match_the_subset_loop(self, k):
        """The array build of the sub-matchings gives the loop's terms, numbering and components."""
        matchings = _matching_kernel(k)[0]
        assert matchings is matching_table(2 * k).matchings
        parts, matching, sub, factor = derive._submatchings(k)
        want_parts, want_matching, want_sub, want_factor = loop_submatchings(k)
        assert matching.tolist() == want_matching and sub.tolist() == want_sub
        assert np.array_equal(factor, np.array(want_factor))
        assert parts.shape == (len(matchings), k, 2 * k)
        for rows, want in zip(parts.tolist(), want_parts):
            got = {tuple((u, v) for u, v in enumerate(row) if u < v) for row in rows}
            assert got - {()} == want

    @pytest.mark.parametrize("k, distinct", [(2, 8), (3, 36), (4, 64)])
    def test_symmetries_fix_the_kernel(self, k, distinct):
        t = trace_tensor(k)
        kern = np.multiply.outer(t, t).real
        perms = {tuple(p) for p in derive._slot_symmetries(k)}
        assert len(perms) == distinct
        assert {tuple(np.array(p)[list(q)]) for p in perms for q in perms} == perms
        for perm in perms:
            assert np.array_equal(kern.transpose(perm), kern), perm

    @pytest.mark.parametrize("k, orbits", [(2, 5), (3, 10), (4, 42)])
    def test_coefficients_are_constant_on_orbits(self, k, orbits):
        matchings, c = _matching_kernel(k)
        assert len(set(matching_orbits(matchings, derive._slot_symmetries(k))[0])) == orbits
        index = {M: a for a, M in enumerate(matchings)}
        for perm in derive._slot_symmetries(k).tolist():
            for a, M in enumerate(matchings):
                image = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in M))
                assert c[index[image]] == c[a]
        assert np.abs(c - reference_kernel(k)[1]).max() < 1e-9

    def test_supports_match_the_full_solve(self, monkeypatch):
        bases = (build_basis(2), build_basis(4))
        got = {(b.max_copies, t): _symbolic_support(t, b) for b in bases for t in TARGETS}
        derive._word_monomials.cache_clear()
        try:
            monkeypatch.setattr(derive, "_matching_kernel", reference_kernel)
            want = {(b.max_copies, t): _symbolic_support(t, b) for b in bases for t in TARGETS}
        finally:
            derive._word_monomials.cache_clear()
        assert got == want

    def test_word_expansion_matches_the_matching_loop(self):
        """Per-length sub-matchings give the loop's monomials and sums: the terms add in the same order."""
        words = sorted({w for target in TARGETS.values() for _, w in target.words})
        assert len(words) == 13
        for word in words:
            got, want = derive._word_monomials(word), loop_word_monomials(word)
            assert got.keys() == want.keys(), word
            assert got == want, word
        for k, reached in ((2, 4), (3, 49), (4, 764)):
            parts, matching, sub, _ = derive._submatchings(k)
            assert len(parts) == len(_matching_kernel(k)[0])
            assert len(set(sub[np.abs(_matching_kernel(k)[1][matching]) >= 1e-9].tolist())) == reached

    def test_support_totals_stand_clear_of_noise(self):
        """The 1e-9 cut between kept and dropped monomials falls in a wide gap."""
        for name, target in TARGETS.items():
            total = {}
            for weight, word in target.words:
                for mono, v in derive._word_monomials(word).items():
                    total[mono] = total.get(mono, 0.0) + weight * v
            v = np.abs(np.array(list(total.values())))
            assert v[v >= 1e-9].min(initial=1.0) >= 1e-2, name
            assert v[v < 1e-9].max(initial=0.0) <= 1e-12, name


class TestBattery:
    """Properties of the full production battery (session fixture)."""

    def test_all_targets_present(self, fits):
        assert set(fits) == set(TARGETS)

    def test_residuals_within_bound(self, fits):
        for name, fit in fits.items():
            assert fit.residual < 1e-8, name

    def test_all_rational_and_certified(self, fits):
        for name, fit in fits.items():
            if not fit.entries:
                continue
            assert fit.all_rational, name
            assert fit.exact_certified, name
            assert fit.denominators_divide_3, name

    @pytest.mark.parametrize("target, layout", [("o11", "2x0"), ("o22", "0x2"), ("o12", "1x1")])
    def test_overlaps_are_the_pair_identity(self, fits, target, layout):
        """Tr(rho_s rho_t) = 1 - 2 p_a - 2 p_b + 4 p_ab (Ekert et al., PRL 88, 217901)."""
        fit = fits[target]
        got = {fit.basis.monomial_string(k): c for k, c in fit.entries.items()}
        assert got == {
            "1": 1,
            f"g[{layout}:(0-2)]": -2,
            f"g[{layout}:(1-3)]": -2,
            f"g[{layout}:(0-2)(1-3)]": 4,
        }

    def test_four_copy_fits_flag_non_uniqueness(self, fits):
        assert fits["o2"].non_unique
        assert fits["pi4"].non_unique
        assert not fits["pi2"].non_unique

    def test_support_class_counts(self, fits):
        assert len(distinct_classes(fits["pi2"])) == 9
        assert len(distinct_classes(fits["o2"])) == 41
        assert len(distinct_classes(fits["pi3"])) == 29

    def test_moment_workflow_union(self, fits):
        union = (
            distinct_classes(fits["pi2"])
            | distinct_classes(fits["pi3"])
            | distinct_classes(fits["pi4"])
        )
        assert len(union) == 51

    def test_role_swap_symmetry_of_word_supports(self, fits):
        """Exchanging the states maps the 1112 fit onto the 1222 fit."""
        assert len(fits["w1112"].entries) == len(fits["w1222"].entries)
        assert len(distinct_classes(fits["w1112"])) == len(distinct_classes(fits["w1222"]))

    def test_predictions_on_fresh_ensemble(self, fits):
        pairs, R1s, R2s = fresh_ensemble(100, 20)
        for name, fit in fits.items():
            truth = np.array([TARGETS[name](a, b) for a, b in pairs])
            pred = fit.evaluate_batch(R1s, R2s)
            assert np.abs(pred - truth).max() < 1e-8, name

    def test_tables_render(self, fits):
        table = fits["pi2"].as_table()
        assert table.startswith("# target: pi2")
        assert len(table.strip().splitlines()) == 10  # header plus nine rows


class TestCertification:
    """Every fit is checked exactly on the certification pairs its seed shares."""

    @pytest.mark.parametrize("target", ["pi2", "o2"])
    def test_a_coefficient_moved_by_a_third_is_rejected(self, fits, target):
        fit, oracle = fits[target], TARGETS[target]
        assert _certified(oracle, fit.basis, fit.entries, 42)
        for k in fit.entries:
            moved = dict(fit.entries)
            moved[k] += Fraction(1, 3)
            assert not _certified(oracle, fit.basis, moved, 42), fit.basis.monomial_string(k)

    def test_one_derivation_evaluates_each_class_once_per_pair(self, monkeypatch):
        """Each class is evaluated at most once, on every certification pair in one batch."""
        calls = []
        exact = derive.exact_probabilities

        def counted(graphs, pairs):
            calls.append((tuple(graphs), len(pairs)))
            return exact(graphs, pairs)

        monkeypatch.setattr(derive, "exact_probabilities", counted)
        derive._certification_pairs.cache_clear()
        derive._exact_probabilities.cache_clear()
        fits = derive_targets(seed=42)
        classes = {fit.basis.graphs[i].key() for fit in fits.values() for i in fit.support_graphs()}
        assert all(fit.exact_certified for fit in fits.values() if fit.entries)
        evaluated = Counter(g.key() for graphs, _ in calls for g in graphs)
        assert classes <= set(evaluated)
        assert max(evaluated.values()) == 1
        assert {n for _, n in calls} == {EXACT_CHECK_PAIRS}


def test_moment_tables_at_a_held_out_seed():
    """At seed 7 the fits behind the quartic moment print the golden tables."""
    golden = "\n" + (Path(__file__).resolve().parent.parent / "perfbench" / "golden_tables.txt").read_text()
    fits = derive_targets(["pi2", "pi3", "pi4"], seed=7)
    for name, fit in fits.items():
        assert "\n" + fit.as_table() + "\n" in golden, name


def test_every_table_and_the_claim_report_at_a_held_out_seed(tmp_path):
    """At seed 11 ``derive --target all``, pi4 fitted for real, prints the golden tables and claim report.

    Only the header line, which names the seed, and the ``# residual``
    lines, whose last digits follow the ensemble, are left out.
    """
    golden = (Path(__file__).resolve().parent.parent / "perfbench" / "golden_tables.txt").read_text()
    out = tmp_path / "derive.txt"
    assert cli.main(["derive", "--target", "all", "--seed", "11", "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    assert lines[0].endswith("seed 11") and not lines[1]
    assert "\n".join(line for line in lines[2:] if not line.startswith("# residual ")) == golden


class TestClaims:
    def test_report_shape(self, fits):
        report = verify_table_claims(fits)
        assert len(report.claims) == 8
        assert not report.all_match  # two stated pair counts are not reproducible

    def test_matching_claims(self, fits):
        report = verify_table_claims(fits)
        got = {(c.workflow, c.quantity): c for c in report.claims}
        assert got[("hilbert-schmidt", "prime statistics")].achieved == 9
        assert got[("hilbert-schmidt", "projective measurements")].achieved == 10
        assert got[("hilbert-schmidt", "photon pairs")].achieved == 6
        assert got[("subfidelity", "projections")].achieved == 41
        assert got[("subfidelity", "configurations")].achieved == 10
        assert got[("trace-distance", "projections")].achieved == 51
        for key in [
            ("hilbert-schmidt", "prime statistics"),
            ("hilbert-schmidt", "projective measurements"),
            ("hilbert-schmidt", "photon pairs"),
            ("subfidelity", "projections"),
            ("subfidelity", "configurations"),
            ("trace-distance", "projections"),
        ]:
            assert got[key].match, key

    def test_mismatches_are_emitted_not_hidden(self, fits):
        report = verify_table_claims(fits)
        got = {(c.workflow, c.quantity): c for c in report.claims}
        pair_claims = [got[("subfidelity", "photon pairs")], got[("trace-distance", "photon pairs")]]
        assert [c.stated for c in pair_claims] == [20, 104]
        assert not any(c.match for c in pair_claims)
        text = report.as_text()
        assert text.count("MISMATCH") == 2

    def test_requires_moment_fits(self, fits):
        with pytest.raises(ValueError, match="pi4"):
            verify_table_claims({"pi2": fits["pi2"], "pi3": fits["pi3"], "o2": fits["o2"]})
