import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qoverlap import interferometer
from qoverlap.core import ModeLayout, random_state, to_correlation
from qoverlap.derive import _symbolic_support, build_basis
from qoverlap.graphs import (
    ETA,
    MeasurementGraph,
    connected_components,
    enumerate_classes,
)
from qoverlap.interferometer import (
    PATTERN_TOL,
    STAT_NAMES,
    PlanError,
    _canonical_key,
    _chain_patterns,
    _form_arrays,
    _graph_estimates,
    _plan_program,
    _sample_plan,
    _stat_values,
    _superset_sums,
    estimate_distances,
    find_embedding,
    graph_probability,
    pattern_distribution,
    plan_configurations,
)
from qoverlap.overlaps import characteristic_roots, moments

from einsum_reference import copy_operands, einsum_probability, einsum_recipe


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(0)
    return random_state(4, seed=rng), random_state(4, seed=rng)


def pattern_contraction(graph):
    """Subscripts and copy plan of a graph's pattern as one einsum, the reference the ring sums are checked against.

    :func:`einsum_recipe`'s subscripts with an outcome axis added to
    every edge factor; the outputs list edge E-1 first, so the flattened
    result is indexed by edge bitmask.
    """
    spec, copy_plan = einsum_recipe(graph)
    subs = spec.split("->")[0].split(",")
    outcomes = "ABCDEFGH"[: graph.n_edges]
    terms = [o + e for o, e in zip(outcomes, subs[: graph.n_edges])] + subs[graph.n_edges :]
    return ",".join(terms) + "->s" + outcomes[::-1], copy_plan


def pi2_graphs():
    basis = build_basis(2)
    classes = basis.classes(_symbolic_support("pi2", basis))
    return sorted((basis.graphs[i] for i in classes), key=lambda g: g.key())


class TestGraphProbability:
    def test_methods_agree(self, pair):
        rho1, rho2 = pair
        g = MeasurementGraph(ModeLayout((1, 2)), [(0, 2), (1, 3)])
        assert graph_probability(g, rho1, rho2, "bloch") == pytest.approx(
            graph_probability(g, rho1, rho2, "dense"), abs=1e-11
        )

    def test_unknown_method(self, pair):
        g = MeasurementGraph(ModeLayout((1, 2)), [(0, 2)])
        with pytest.raises(ValueError):
            graph_probability(g, *pair, method="magic")


def reference_pattern(graph, R1, R2):
    """Every edge subset contracted on its own, then inclusion-exclusion."""
    E = graph.n_edges
    subset = np.array([
        einsum_probability(
            MeasurementGraph(graph.layout, [graph.edges[k] for k in range(E) if m >> k & 1]),
            R1[None],
            R2[None],
        )[0]
        for m in range(2**E)
    ])
    pattern = np.array([
        sum((-1) ** bin(extra).count("1") * subset[m | extra] for extra in range(2**E) if not extra & m)
        for m in range(2**E)
    ])
    return subset, pattern


def reference_graph_estimates(plan, counts, shots):
    """Frequencies and within-member covariances by rescanning the counts."""
    keys = [g.key() for g in plan.graphs]
    hosts = {}
    for key in keys:
        ci, mi, emb = plan.hosts[key]
        hosts[key] = ((ci, mi), sum(1 << k for k in emb))

    def freq(member, mask):
        c = counts[member]
        return sum(c[pat] for pat in range(c.size) if pat & mask == mask) / shots

    phat = {key: freq(*hosts[key]) for key in keys}
    cov = np.zeros((len(keys), len(keys)))
    for a, ka in enumerate(keys):
        for b, kb in enumerate(keys):
            (ma, mka), (mb, mkb) = hosts[ka], hosts[kb]
            if ma == mb:
                cov[a, b] = (freq(ma, mka | mkb) - phat[ka] * phat[kb]) / shots
    return keys, phat, cov


class TestPatternDistribution:
    @pytest.mark.parametrize("ensemble", ["ginibre", "pure", "equal"])
    def test_every_plan_member_matches_subset_reference(self, plan, ensemble):
        rng = np.random.default_rng(21)
        if ensemble == "equal":
            rho1 = rho2 = random_state(4, seed=rng)
        else:
            rho1, rho2 = random_state(4, ensemble, rng), random_state(4, ensemble, rng)
        R1, R2 = to_correlation(rho1), to_correlation(rho2)
        for conf in plan.configurations:
            for member in conf.members:
                pattern = pattern_distribution(member, R1, R2)
                subset = _superset_sums(pattern)
                ref_subset, ref_pattern = reference_pattern(member, R1, R2)
                assert np.abs(pattern - ref_pattern).max() < 1e-12, str(member)
                assert np.abs(subset - ref_subset).max() < 1e-12, str(member)

    def test_patterns_sum_to_one(self, pair):
        R1, R2 = map(to_correlation, pair)
        g = MeasurementGraph(ModeLayout((1, 1, 2, 2)), [(0, 4), (1, 5), (2, 6)])
        pattern = pattern_distribution(g, R1, R2)
        assert pattern.sum() == pytest.approx(1.0, abs=1e-10)
        assert pattern.min() > -1e-12

    def test_subset_probs_are_pattern_marginals(self, pair):
        R1, R2 = map(to_correlation, pair)
        g = MeasurementGraph(ModeLayout((1, 2, 1, 2)), [(0, 2), (1, 3), (4, 6)])
        pattern = pattern_distribution(g, R1, R2)
        subset = _superset_sums(pattern)
        E = g.n_edges
        for mask in range(2**E):
            total = sum(
                pattern[m] for m in range(2**E) if (m & mask) == mask
            )
            assert subset[mask] == pytest.approx(total, abs=1e-10)

    def test_full_mask_is_graph_probability(self, pair):
        R1, R2 = map(to_correlation, pair)
        g = MeasurementGraph(ModeLayout((1, 2)), [(0, 2), (1, 3)])
        subset = _superset_sums(pattern_distribution(g, R1, R2))
        assert subset[-1] == pytest.approx(graph_probability(g, *pair), abs=1e-11)


def wide_graph(copies, edges):
    """A graph on more copies than :class:`ModeLayout` admits, built past its check for the pattern kernels alone."""
    layout = object.__new__(ModeLayout)
    object.__setattr__(layout, "copies", copies)
    return MeasurementGraph._unchecked(layout, tuple(sorted(edges)))


def chain_graphs():
    """Every connected class on at most four copies, a disconnected graph, a six-copy ring and a five-copy path."""
    return [
        *enumerate_classes(4),
        MeasurementGraph(ModeLayout((1, 2, 1, 2)), [(0, 2), (1, 3), (4, 6)]),
        wide_graph((1, 2, 1, 2, 1, 2), [(0, 2), (1, 11), (3, 5), (4, 6), (7, 9), (8, 10)]),
        wide_graph((1, 1, 2, 2, 2), [(1, 2), (3, 5), (4, 6), (7, 8)]),
    ]


class TestRingChain:
    def test_the_graphs_cover_every_component_shape(self):
        """Paths and rings (a within-copy loop is a ring of one) of every length up to six, and two components."""
        shapes, components = set(), set()
        for g in chain_graphs():
            comps = connected_components(g.layout, g.edges)
            components.add(len(comps))
            for comp in comps:
                n_edges = sum(i // 2 in comp for i, _ in g.edges)
                shapes.add(("ring" if n_edges == len(comp) else "path", len(comp)))
        assert {("ring", n) for n in (1, 2, 3, 4, 6)} | {("path", n) for n in (2, 3, 4, 5)} <= shapes
        assert components == {1, 2}

    @pytest.mark.parametrize("family", ["ginibre", "pure", "rank-2", "equal", "basis", "bell"])
    def test_every_graph_equals_its_einsum_reference(self, family):
        """To 1e-15 with the same zeros, each graph contracted on its own by ``np.einsum``."""
        for rho1, rho2 in family_pairs(family):
            R1, R2 = to_correlation(rho1), to_correlation(rho2)
            for g in chain_graphs():
                want = einsum_pattern(g, R1, R2)
                got = pattern_distribution(g, R1, R2)
                assert got.shape == want.shape, (family, str(g))
                assert np.abs(got - want).max() <= 1e-15, (family, str(g))
                assert np.array_equal(got == 0.0, want == 0.0), (family, str(g))


def basis_state(k):
    rho = np.zeros((4, 4), dtype=complex)
    rho[k, k] = 1.0
    return rho


def bell_state(k):
    """Phi+, Phi-, Psi+, Psi- for k = 0..3."""
    v = np.zeros(4, dtype=complex)
    a, b = ((0, 3), (0, 3), (1, 2), (1, 2))[k]
    v[a], v[b] = 1.0, (1.0, -1.0, 1.0, -1.0)[k]
    return np.outer(v, v.conj()) / 2.0


class TestCompiledEstimator:
    @staticmethod
    def fresh_plan(forms):
        return plan_configurations([g for form in forms.values() for _, gs in form for g in gs])

    def test_one_compile_per_plan_and_forms(self, forms, bell, mixed, monkeypatch):
        built = []
        for name in ("_plan_program", "_form_arrays"):
            fn = getattr(interferometer, name)
            monkeypatch.setattr(
                interferometer, name, lambda *a, fn=fn, name=name: built.append(name) or fn(*a)
            )
        plan = self.fresh_plan(forms)
        copy = {name: list(form) for name, form in forms.items()}
        reports = [
            estimate_distances(bell, mixed, f, shots=1000, seed=seed, plan=plan)
            for f, seed in ((forms, 1), (forms, 2), (copy, 3))
        ]
        once = ["_plan_program", "_form_arrays"]
        assert built == once
        assert reports[0].seed == 1 and reports[2].seed == 3
        coeff, graphs = copy["o12"][0]
        copy["o12"][0] = (coeff * 1.5, graphs)
        estimate_distances(bell, mixed, copy, shots=1000, seed=4, plan=plan)
        assert built == once + ["_form_arrays"]
        estimate_distances(bell, mixed, forms, shots=1000, seed=1, plan=self.fresh_plan(forms))
        assert built == once + ["_form_arrays"] + once

    def test_planning_builds_no_arrays(self, forms):
        """The program and the form arrays wait for the plan's first estimate."""
        assert self.fresh_plan(forms)._arrays == {}

    def test_forms_edited_in_place_give_a_fresh_report(self, forms, bell, mixed):
        edited = {name: list(form) for name, form in forms.items()}
        plan = self.fresh_plan(edited)
        before = estimate_distances(bell, mixed, edited, shots=1000, seed=5, plan=plan)
        coeff, graphs = edited["o12"][0]
        edited["o12"][0] = (coeff * 1.5, graphs)
        after = estimate_distances(bell, mixed, edited, shots=1000, seed=5, plan=plan)
        fresh = estimate_distances(bell, mixed, edited, shots=1000, seed=5, plan=self.fresh_plan(edited))
        assert after == fresh
        assert after != before

    def test_threads_sharing_a_plan_never_mix_forms(self, forms, bell, mixed):
        """Estimates with two different forms race on one plan's compiled arrays."""
        edited = {name: list(form) for name, form in forms.items()}
        coeff, graphs = edited["o12"][0]
        edited["o12"][0] = (coeff * 1.5, graphs)
        plan = self.fresh_plan(forms)
        want = {
            id(f): estimate_distances(bell, mixed, f, shots=1000, seed=7, plan=self.fresh_plan(f))
            for f in (forms, edited)
        }
        jobs = [forms, edited] * 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as ex:
                futures = [
                    (f, ex.submit(estimate_distances, bell, mixed, f, shots=1000, seed=7, plan=plan))
                    for f in jobs
                ]
                got = [(f, fut.result(timeout=60)) for f, fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(rep == want[id(f)] for f, rep in got)

    def test_plan_error_names_the_statistic_on_every_call(self, forms, bell, mixed):
        others = [g for n, form in forms.items() if n != "pi4" for _, gs in form for g in gs]
        partial = plan_configurations(others)
        for _ in range(2):
            with pytest.raises(PlanError, match="'pi4'"):
                estimate_distances(bell, mixed, forms, shots=100, plan=partial)


def plan_members(plan):
    """Every prepared member in configuration order: the rows of the pattern and count stacks."""
    return [m for conf in plan.configurations for m in conf.members]


def padded_counts(plan, counts):
    """Counts keyed by (configuration, member) index as the zero-padded stack :func:`_sample_plan` returns.

    Rows run in configuration order, then member order within a configuration.
    """
    keys = [(ci, mi) for ci, conf in enumerate(plan.configurations) for mi in range(len(conf.members))]
    stack = np.zeros((len(keys), max(c.size for c in counts.values())), dtype=np.int64)
    for row, key in enumerate(keys):
        stack[row, : counts[key].size] = counts[key]
    return stack


class TestGraphEstimates:
    def test_superset_sums_equal_rescan_exactly(self, plan):
        rng = np.random.default_rng(22)
        shots = 5000
        counts = {
            (ci, mi): rng.multinomial(shots, np.full(2**m.n_edges, 0.5**m.n_edges))
            for ci, conf in enumerate(plan.configurations)
            for mi, m in enumerate(conf.members)
        }
        assert len({c.size for c in counts.values()}) > 1  # rows of several lengths, padded
        program = _plan_program(plan)
        phat, cov = _graph_estimates(program, padded_counts(plan, counts), shots)
        ref_keys, ref_phat, ref_cov = reference_graph_estimates(plan, counts, shots)
        assert program.keys == ref_keys
        assert phat.tolist() == [ref_phat[key] for key in ref_keys]
        assert np.array_equal(cov, ref_cov)


#: Edge factor per outcome, 4 (1 - P^-) then 4 P^-, built here from ETA alone.
OUTCOME_ETA = np.stack([4.0 * (np.arange(4) == 0) - ETA, ETA])


def einsum_pattern(member, R1, R2):
    """One member's pattern, planned by ``np.einsum`` on its own, then checked, floored and normalized."""
    spec, copy_plan = pattern_contraction(member)
    operands = [OUTCOME_ETA] * member.n_edges + copy_operands(copy_plan, R1[None], R2[None])
    pattern = np.einsum(spec, *operands, optimize="greedy").reshape(-1) / 4.0**member.n_edges
    if pattern.min() < -PATTERN_TOL or abs(pattern.sum() - 1.0) > PATTERN_TOL:
        raise ValueError(
            f"joint pattern distribution invalid: min {pattern.min():.3e}, sum {pattern.sum():.12f}"
        )
    pattern[pattern <= PATTERN_TOL] = 0.0
    pattern /= pattern.sum()
    return pattern


def pattern_error(member, R1, R2):
    """The message :func:`einsum_pattern` raises for the member, or None."""
    try:
        einsum_pattern(member, R1, R2)
    except ValueError as exc:
        return str(exc)
    return None


def reference_sample_plan(plan, R1, R2, shots, rng):
    """One contraction and one multinomial per member in plan order, each over its zero-padded row, from one generator.

    The rows must be padded: over an unpadded row numpy's last entry takes
    the remainder without a draw, so the generator's sequence would differ.
    """
    members = plan_members(plan)
    counts = np.zeros((len(members), max(2**m.n_edges for m in members)), dtype=np.int64)
    for row, member in enumerate(members):
        pattern = np.zeros(counts.shape[1])
        pattern[: 2**member.n_edges] = einsum_pattern(member, R1, R2)
        counts[row] = rng.multinomial(shots, pattern)
    return counts


def family_pairs(family):
    rng = np.random.default_rng(24)
    if family == "basis":
        return [(basis_state(a), basis_state(b)) for a in range(4) for b in range(4)]
    if family == "bell":
        return [(bell_state(a), bell_state(b)) for a in range(4) for b in range(4)]
    if family == "equal":
        rho = random_state(4, seed=rng)
        return [(rho, rho)]
    if family == "rank-2":
        return [tuple(random_state(4, "rank-constrained", rng, rank=2) for _ in range(2)) for _ in range(3)]
    return [tuple(random_state(4, family, rng) for _ in range(2)) for _ in range(3)]


class TestStackedProgram:
    @pytest.mark.parametrize("family", ["ginibre", "pure", "rank-2", "equal", "basis", "bell"])
    def test_every_row_equals_its_members_own_contraction(self, plan, family):
        """To 1e-15 with the same zeros, the one-edge within-copy members included.

        The ring sums add in another order than a member's own einsum,
        so rows may differ in their last bits; the floor leaves them the
        same zero entries.  A member's one-member stack
        (:func:`pattern_distribution`) gives its row of the plan's stack
        bit for bit: each ring sum is taken on its own, and the
        normalizing sum adds the padded zeros exactly.
        """
        program = _plan_program(plan)
        members = plan_members(plan)
        within = [m for m in members if m.n_edges == 1 and m.edges[0][0] // 2 == m.edges[0][1] // 2]
        assert len(within) == 2
        for rho1, rho2 in family_pairs(family):
            R1, R2 = to_correlation(rho1), to_correlation(rho2)
            patterns = _chain_patterns(program.members, R1, R2)
            for row, member in enumerate(members):
                width = 2**member.n_edges
                want = einsum_pattern(member, R1, R2)
                got = patterns[row, :width]
                assert np.abs(got - want).max() <= 1e-15, (family, str(member))
                assert np.array_equal(got == 0.0, want == 0.0), (family, str(member))
                assert np.array_equal(pattern_distribution(member, R1, R2), got), (family, str(member))
                assert not patterns[row, width:].any()

    @pytest.mark.parametrize("ensemble", ["ginibre", "pure", "equal", "rank-2", "basis", "bell"])
    def test_reports_equal_a_per_member_sampler(self, forms, ensemble, monkeypatch):
        plan = TestCompiledEstimator.fresh_plan(forms)
        rng = np.random.default_rng(25)
        cases = []
        for seed in (3, 40, 977):
            if ensemble in ("ginibre", "pure", "equal"):
                rho1 = random_state(4, "pure" if ensemble == "pure" else "ginibre", rng)
                pairs = [(rho1, rho1 if ensemble == "equal" else random_state(4, ensemble, rng))]
            else:
                pairs = family_pairs(ensemble)
            cases += [(rho1, rho2, shots, seed) for rho1, rho2 in pairs for shots in (10_000, 1_000_000)]
        got = [estimate_distances(a, b, forms, shots=n, seed=s, plan=plan) for a, b, n, s in cases]
        monkeypatch.setattr(
            interferometer, "_sample_plan", lambda program, *args: reference_sample_plan(plan, *args)
        )
        want = [estimate_distances(a, b, forms, shots=n, seed=s, plan=plan) for a, b, n, s in cases]
        assert [repr(r) for r in got] == [repr(r) for r in want]

    @pytest.mark.parametrize("tiny", [1e-17, PATTERN_TOL / 2])
    def test_entry_within_the_tolerance_gets_no_counts_and_no_draw(self, plan, tiny, monkeypatch):
        """An entry in (0, PATTERN_TOL] reads exactly 0, so the generator's stream is that of a true 0.

        numpy's multinomial draws a random number for every entry above 0
        ahead of the last one it needs, and none for an entry of 0.
        """
        program = _plan_program(plan)
        R1, R2 = to_correlation(basis_state(0)), to_correlation(bell_state(2))
        exact = _chain_patterns(program.members, R1, R2)
        counts = _sample_plan(program, R1, R2, 1000, np.random.default_rng(5))
        assert not any(counts[row, 2**m.n_edges :].any() for row, m in enumerate(plan_members(plan)))
        lifted = []
        pattern_rows = interferometer.pattern_rows

        def lift(*args):
            """The unchecked pattern rows, each member's first zero ahead of its last nonzero entry lifted to ``tiny``."""
            rows = pattern_rows(*args)
            for row in rows:
                zeros = np.flatnonzero(row[: np.flatnonzero(row)[-1]] == 0.0)
                if zeros.size:
                    lifted.append((row.copy(), zeros[0]))
                    row[zeros[0]] = tiny
            return rows

        monkeypatch.setattr(interferometer, "pattern_rows", lift)
        assert np.array_equal(_chain_patterns(program.members, R1, R2), exact)
        assert np.array_equal(_sample_plan(program, R1, R2, 1000, np.random.default_rng(5)), counts)
        assert len(lifted) > 1
        pattern, k = lifted[0]
        draws = []
        for entry in (0.0, tiny):
            rng = np.random.default_rng(5)
            rng.multinomial(1000, np.where(np.arange(pattern.size) == k, entry, pattern))
            draws.append(rng.random())
        assert draws[0] != draws[1]

    def test_non_physical_state_raises_from_a_stack(self, plan, forms):
        """A stack reports its first invalid row in member order, wherever that row stands."""
        members = plan_members(plan)
        rho1, rho2 = np.diag([1.5, -0.5, 0.0, 0.0]), np.eye(4) / 4.0
        R1, R2 = to_correlation(rho1), to_correlation(rho2)
        error = {member.key(): pattern_error(member, R1, R2) for member in members}
        assert error[members[0].key()] is None  # the plan's first invalid row stands behind a valid row
        for stack, order in ((_plan_program(plan).members, members), (tuple(members[::-1]), members[::-1])):
            with pytest.raises(ValueError) as err:
                _chain_patterns(stack, R1, R2)
            assert str(err.value) == next(error[m.key()] for m in order if error[m.key()] is not None)
        for member in members:
            if error[member.key()] is not None:
                with pytest.raises(ValueError) as err:
                    pattern_distribution(member, R1, R2)
                assert str(err.value) == error[member.key()]
        with pytest.raises(ValueError, match="joint pattern distribution invalid"):
            estimate_distances(rho1, rho2, forms, shots=100, plan=plan)


def reference_stat_values(forms, keys, phat, cov):
    """Per-monomial loop: one product, and one product per left-out factor."""
    index = {key: i for i, key in enumerate(keys)}
    names = [n for n in STAT_NAMES if n in forms]
    values = np.zeros(len(names))
    J = np.zeros((len(names), len(keys)))
    for si, name in enumerate(names):
        for coeff, graphs in forms[name]:
            gkeys = [_canonical_key(g) for g in graphs]
            if not gkeys:
                values[si] += coeff
                continue
            vals = np.array([phat[key] for key in gkeys])
            values[si] += coeff * float(np.prod(vals))
            for pos, key in enumerate(gkeys):
                rest = float(np.prod(np.delete(vals, pos))) if len(vals) > 1 else 1.0
                J[si, index[key]] += coeff * rest
    return names, values, J @ cov @ J.T


def random_estimates(keys, rng):
    phat = dict(zip(keys, rng.uniform(0.0, 1.0, len(keys))))
    A = rng.normal(size=(len(keys), len(keys)))
    return phat, A @ A.T / 1e4


def compiled_stat_values(forms, keys, phat, cov):
    """:func:`_stat_values` through freshly built form arrays, estimates in key order."""
    arrays = _form_arrays(forms, keys)
    return (arrays.names, *_stat_values(arrays, np.array([phat[key] for key in keys]), cov))


class TestStatValues:
    def test_session_forms_equal_reference_loop(self, forms, plan):
        keys = [g.key() for g in plan.graphs]
        for seed in range(3):
            phat, cov = random_estimates(keys, np.random.default_rng(seed))
            names, values, C = compiled_stat_values(forms, keys, phat, cov)
            ref_names, ref_values, ref_C = reference_stat_values(forms, keys, phat, cov)
            assert names == ref_names
            assert np.array_equal(values, ref_values)
            assert np.array_equal(C, ref_C)

    def test_constant_single_and_repeated_factors(self):
        lay = ModeLayout((1, 2))
        g1 = MeasurementGraph(lay, [(0, 2)])
        g2 = MeasurementGraph(lay, [(0, 2), (1, 3)])
        forms = {
            "o11": [(0.25, ()), (2.0, (g1,)), (-1.5, (g1, g1, g2))],
            "pi3": [(1.0 / 3.0, (g2, g1)), (-0.75, ()), (0.5, (g2, g2, g2, g1))],
        }
        keys = [g1.canonical().key(), g2.canonical().key()]
        phat, cov = random_estimates(keys, np.random.default_rng(4))
        names, values, C = compiled_stat_values(forms, keys, phat, cov)
        ref_names, ref_values, ref_C = reference_stat_values(forms, keys, phat, cov)
        assert names == ref_names == ["o11", "pi3"]
        assert np.array_equal(values, ref_values)
        assert np.array_equal(C, ref_C)

    def test_plan_without_a_form_graph_names_the_statistic(self, forms, bell, mixed):
        others = [g for n, form in forms.items() if n != "pi4" for _, gs in form for g in gs]
        partial = plan_configurations(others)
        with pytest.raises(PlanError, match="'pi4'"):
            estimate_distances(bell, mixed, forms, shots=100, plan=partial)


#: |T - T(np.roots)| allowed on every bootstrap corpus row: about ten ulps of
#: the unit scale.  The closed form and np.roots' companion eigensolve round
#: differently, but on rows away from a double root both keep T to rounding.
ROOTS_T_TOL = 2e-15


def per_row_t(rows):
    """T from np.roots of every row's quartic, one scalar solve each."""
    return np.array([
        0.5 * np.abs(np.roots([1.0, 0.0, -0.5 * a, -b / 3.0, 0.25 * (0.5 * a * a - c)]).real).sum()
        for a, b, c in rows
    ])


def assert_t_matches_per_row(rows):
    """T from the batched closed form against np.roots, row by row, within ROOTS_T_TOL."""
    got = characteristic_roots(*rows.T)
    assert got.shape == (len(rows), 4)
    t = 0.5 * np.abs(got.real).sum(axis=-1)
    for row, value, want in zip(rows, t, per_row_t(rows)):
        assert abs(value - want) <= ROOTS_T_TOL, row


def moment_draws(mean, cov, seed, n=200):
    return np.random.default_rng(seed).multivariate_normal(mean, cov, size=n, method="eigh")


@pytest.fixture()
def solved_rows(monkeypatch):
    """Every moment array the estimator hands to ``characteristic_roots``, as (rows, 3) arrays."""
    seen = []

    def recorded(pi2, pi3, pi4):
        seen.append(np.stack(np.broadcast_arrays(pi2, pi3, pi4), axis=-1))
        return characteristic_roots(pi2, pi3, pi4)

    monkeypatch.setattr(interferometer, "characteristic_roots", recorded)
    return seen


class TestBootstrap:
    """One batched quartic solve for every trace distance, against np.roots row by row."""

    def test_ginibre_pair_equals_per_draw_loop(self):
        rng = np.random.default_rng(30)
        m = moments(random_state(4, seed=rng), random_state(4, seed=rng))
        A = rng.normal(size=(3, 3)) * 1e-3
        assert_t_matches_per_row(moment_draws([m.pi2, m.pi3, m.pi4], A @ A.T, 31))

    def test_equal_pair_clips_negative_pi2(self):
        """Draws as the estimator solves them, pi2 clipped at 0."""
        rho = random_state(4, seed=32)
        m = moments(rho, rho)
        draws = moment_draws([m.pi2, m.pi3, m.pi4], np.diag([1e-6, 1e-9, 1e-10]), 33)
        assert (draws[:, 0] < 0).sum() > 50
        draws[:, 0] = np.where(draws[:, 0] < 0.0, 0.0, draws[:, 0])
        assert_t_matches_per_row(draws)

    def test_rank_deficient_covariance(self):
        rng = np.random.default_rng(34)
        m = moments(random_state(4, seed=rng), random_state(4, seed=rng))
        v = np.array([1.0, -0.5, 0.25]) * 1e-3
        assert_t_matches_per_row(moment_draws([m.pi2, m.pi3, m.pi4], np.outer(v, v), 35))

    def test_zero_constant_coefficient_keeps_scalar_roots(self):
        """Where det == 0 np.roots deflates a zero root; T keeps the scalar solve's value."""
        rows = np.array([[0.0, 0.0, 0.0], [2.0, 0.3, 2.0], [0.5, -0.1, 0.125], [2.0, 0.0, 2.0]])
        assert_t_matches_per_row(rows)
        t = 0.5 * np.abs(characteristic_roots(*rows.T).real).sum(axis=-1)
        assert t[0] == 0.0
        assert t[3] == pytest.approx(1.0, abs=1e-15)  # eigenvalues 1, -1, 0, 0

    def test_equal_pair_draws_at_a_million_shots(self, forms, plan, solved_rows):
        """The rows an equal pair's estimate solves at 1e6 shots, pi2 clipped, against np.roots."""
        rho = random_state(4, seed=37)
        for seed in (38, 39):
            estimate_distances(rho, rho, forms, shots=1_000_000, seed=seed, plan=plan)
        rows = np.concatenate(solved_rows)
        assert len(rows) == 2 * (interferometer.BOOTSTRAP_DRAWS + 2)
        assert (rows[:, 0] == 0.0).sum() > 20
        assert_t_matches_per_row(rows)

    def test_one_root_solve_whatever_the_draw_count(self, forms, plan, bell, mixed, monkeypatch, solved_rows):
        """The point estimate, all ``BOOTSTRAP_DRAWS`` draws and the formula share one
        ``characteristic_roots`` call, which makes no eigensolve and calls no ``np.roots``."""
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np, "roots", counted(np.roots))
        monkeypatch.setattr(np.linalg, "eigvals", counted(np.linalg.eigvals))
        for seed in (36, 37):
            estimate_distances(bell, mixed, forms, shots=1000, seed=seed, plan=plan)
        assert calls == []
        assert [len(rows) for rows in solved_rows] == [interferometer.BOOTSTRAP_DRAWS + 2] * 2


def reference_plan(graphs):
    """``plan_configurations`` with an embedding search for every pair of required graphs."""
    required = {}
    for g in graphs:
        required.setdefault(g.canonical().key(), g.canonical())
    req = sorted(required.values(), key=lambda g: (g.n_copies, g.counts(), g.n_edges, g.edges))
    maximal = [g for g in req if all(h.key() == g.key() or find_embedding(h, g) is None for h in req)]
    bins = []
    for g in sorted(maximal, key=lambda g: (-g.n_copies, g.counts(), g.edges)):
        for b in bins:
            if sum(m.n_copies for m in b) + g.n_copies <= interferometer.CONFIGURATION_COPIES:
                b.append(g)
                break
        else:
            bins.append([g])
    configurations = tuple(interferometer.Configuration(tuple(b)) for b in bins)
    hosts = {}
    for g in req:
        hosts[g.key()] = next(
            (ci, mi, emb)
            for ci, conf in enumerate(configurations)
            for mi, member in enumerate(conf.members)
            if (emb := find_embedding(member, g)) is not None
        )
    return interferometer.ConfigurationPlan(
        graphs=tuple(req),
        maximal=tuple(maximal),
        free=tuple(g for g in req if g not in maximal),
        configurations=configurations,
        hosts=hosts,
    )


class TestPlanning:
    def test_copy_count_check_keeps_every_plan(self, fits):
        """Skipping hosts with too few copies of a state changes no claim-report or estimator plan."""
        workflows = [("pi2",), ("o2",), ("pi2", "pi3", "pi4"), STAT_NAMES]
        for names in workflows:
            graphs = [fits[t].basis.graphs[i] for t in names for i in fits[t].support_graphs()]
            assert plan_configurations(graphs) == reference_plan(graphs), names

    def test_pi2_plan_shape(self):
        """Nine quadratic graphs pack into one six-pair configuration."""
        plan = plan_configurations(pi2_graphs())
        assert len(plan.graphs) == 9
        assert len(plan.maximal) == 3
        assert len(plan.free) == 6
        assert len(plan.configurations) == 1
        assert plan.photon_pairs == 6

    def test_every_graph_is_hosted(self):
        plan = plan_configurations(pi2_graphs())
        for g in plan.graphs:
            assert g.key() in plan.hosts

    def test_host_marginals_reproduce_free_graphs(self, pair):
        """A subsumed graph's probability is a marginal of its host's patterns."""
        R1, R2 = map(to_correlation, pair)
        plan = plan_configurations(pi2_graphs())
        for g in plan.free:
            ci, mi, edge_idx = plan.hosts[g.key()]
            host = plan.configurations[ci].members[mi]
            subset = _superset_sums(pattern_distribution(host, R1, R2))
            mask = sum(1 << k for k in edge_idx)
            assert subset[mask] == pytest.approx(graph_probability(g, *pair), abs=1e-10)

    def test_embedding_found_for_subgraph(self):
        lay = ModeLayout((1, 2))
        big = MeasurementGraph(lay, [(0, 2), (1, 3)])
        small = MeasurementGraph(lay, [(1, 3)])
        idx = find_embedding(big, small)
        assert idx is not None and len(idx) == 1

    def test_configurations_respect_cap(self, plan):
        for config in plan.configurations:
            assert sum(m.n_copies for m in config.members) <= 6


class TestEstimation:
    def test_worked_pair_within_five_sigma(self, forms, plan, bell, mixed):
        rep = estimate_distances(bell, mixed, forms, shots=40000, seed=11, plan=plan)
        assert rep.audit_ok
        for row in rep.measures:
            tol = max(5 * row.std_err, 1e-6)
            assert abs(row.estimate - row.oracle) < tol, row.name

    def test_formula_column_matches_oracle(self, forms, plan, bell, mixed):
        rep = estimate_distances(bell, mixed, forms, shots=1000, seed=12, plan=plan)
        for row in rep.measures:
            assert row.formula == pytest.approx(row.oracle, abs=1e-9), row.name

    def test_report_metadata(self, forms, plan, bell, mixed):
        rep = estimate_distances(bell, mixed, forms, shots=500, seed=14, plan=plan)
        assert rep.seed == 14
        assert rep.shots == 500
        assert rep.photon_pairs == plan.photon_pairs
        assert rep.n_configurations == len(plan.configurations)
        names = [r.name for r in rep.statistics]
        assert names[-1] == "pi2"
        assert set(names) >= {"o11", "o22", "o12", "o2", "pi3", "pi4"}

    def test_identical_states_survive_degenerate_radicands(self, forms, plan):
        rho = random_state(4, seed=15)
        rep = estimate_distances(rho, rho, forms, shots=4000, seed=16, plan=plan)
        by_name = {r.name: r for r in rep.measures}
        assert abs(by_name["hilbert-schmidt"].estimate) < 0.2
        # the quartic route is honestly biased at T = 0 (root magnitudes
        # scale as noise^(1/4)); the unclipped pi2 statistic is the
        # unbiased zero-distance diagnostic, so that is what must vanish
        pi2_row = rep.statistics[-1]
        assert pi2_row.name == "pi2"
        assert abs(pi2_row.estimate - pi2_row.oracle) < 5 * pi2_row.std_err
        assert by_name["trace-distance"].std_err > 0.01
        assert rep.audit_ok

    def test_pure_pair_error_bars_carry_o12(self, forms, plan):
        """A pure pair puts both radicands in the degenerate branch, where G equals o12."""
        rng = np.random.default_rng(17)
        z = []
        for k in range(24):
            rho1, rho2 = random_state(4, "pure", rng), random_state(4, "pure", rng)
            rep = estimate_distances(rho1, rho2, forms, shots=10_000, seed=k, plan=plan)
            o12 = next(r for r in rep.statistics if r.name == "o12")
            sub, sup = rep.measures[:2]
            assert sub.std_err >= o12.std_err and sup.std_err >= o12.std_err, k
            z.append((sup.estimate - sup.oracle) / sup.std_err)
        assert np.sqrt(np.mean(np.square(z))) < 1.3

    @pytest.mark.parametrize(
        "kwargs",
        [{"shots": 0}, {"threads": 0}, {"threads": 2}],
    )
    def test_bad_shots_or_threads_rejected(self, forms, plan, bell, mixed, kwargs):
        args = {"shots": 100, **kwargs}
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            estimate_distances(bell, mixed, forms, plan=plan, **args)

    def test_missing_form_rejected(self, forms, bell, mixed):
        partial = {k: v for k, v in forms.items() if k != "pi4"}
        with pytest.raises(ValueError, match="pi4"):
            estimate_distances(bell, mixed, partial, shots=100)
