"""The correlation-matrix route must reproduce the dense-matrix oracle."""
from itertools import product

import numpy as np
import pytest

from qoverlap.core import from_correlation, mode_swap_unitary, random_state, random_unitary, to_correlation
from qoverlap.oracle import trace_distance
from qoverlap.overlaps import (
    ROOT_IMAG_TOL,
    MomentSet,
    characteristic_roots,
    distances_from_overlaps,
    moments,
    moments_from_overlaps,
    overlap_first,
    overlap_operator_residual,
    overlap_second,
    overlap_set,
    product_rule_residual,
    shift_operator,
    shift_operator_check,
    swap_expansion_error,
    trace_distance_via_moments,
    word_overlap_bloch,
    word_overlap_matrix,
)


# Every word overlap_set evaluates.
OVERLAP_SET_WORDS = [
    "11", "22", "12", "111", "222", "112", "122", "1111", "2222", "1112", "1222", "1122", "1212"
]


def pairs(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield random_state(4, seed=rng), random_state(4, seed=rng)


class TestFirstOverlap:
    def test_matches_trace(self):
        for a, b in pairs(100, 0):
            R1, R2 = to_correlation(a), to_correlation(b)
            direct = float(np.trace(a @ b).real)
            assert overlap_first(R1, R2) == pytest.approx(direct, abs=1e-12)

    def test_purity_special_case(self):
        rho = random_state(4, seed=1)
        R = to_correlation(rho)
        assert overlap_first(R, R) == pytest.approx(float(np.trace(rho @ rho).real), abs=1e-12)


class TestSecondOverlap:
    def test_matches_trace_of_squared_product(self):
        for a, b in pairs(100, 2):
            direct = float(np.trace(np.linalg.matrix_power(a @ b, 2)).real)
            assert overlap_second(a, b) == pytest.approx(direct, abs=1e-12)

    def test_symmetric_in_arguments(self):
        a, b = next(pairs(1, 3))
        assert overlap_second(a, b) == pytest.approx(overlap_second(b, a), abs=1e-12)

    def test_one_value_on_every_route(self):
        """overlap_second, the overlap set and the word 1212 are one float."""
        for a, b in pairs(300, 17):
            R1, R2 = to_correlation(a), to_correlation(b)
            o = overlap_set(a, b)
            assert {"11", "22", "12", *o.mixed} == set(OVERLAP_SET_WORDS)
            assert overlap_second(R1, R2) == o.O2_12 == o.mixed["1212"]
            assert word_overlap_bloch("1212", R1, R2) == o.O2_12


class TestWordOverlaps:
    @pytest.mark.parametrize("word", OVERLAP_SET_WORDS)
    def test_bloch_equals_matrix(self, word):
        rng = np.random.default_rng(4)
        for measure, rank in (("ginibre", None), ("pure", None), ("rank-constrained", 2)):
            a, b = (random_state(4, measure, seed=rng, rank=rank) for _ in range(2))
            R1, R2 = to_correlation(a), to_correlation(b)
            assert word_overlap_bloch(word, R1, R2) == pytest.approx(
                word_overlap_matrix(word, a, b), abs=1e-11
            )

    def test_rejects_bad_word(self):
        a, b = next(pairs(1, 5))
        R1, R2 = to_correlation(a), to_correlation(b)
        with pytest.raises(ValueError):
            word_overlap_bloch("103", R1, R2)


def engine_pairs(family):
    """Correlation-matrix pairs of one family: random ones, or every ordered basis or Bell pair."""
    if family in ("basis", "bell"):
        kets = np.eye(4) if family == "basis" else np.array(
            [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]
        ) / np.sqrt(2.0)
        states = [to_correlation(np.outer(k, k).astype(complex)) for k in kets]
        return [(a, b) for a in states for b in states]
    rng = np.random.default_rng(24)
    measure, rank = ("rank-constrained", 2) if family == "rank-2" else (family, None)
    return [
        tuple(to_correlation(random_state(4, measure, seed=rng, rank=rank)) for _ in range(2))
        for _ in range(8)
    ]


class TestWordEngine:
    """Every overlap word from the star products, against direct matrix products."""

    @pytest.mark.parametrize("family", ["ginibre", "pure", "rank-2", "basis", "bell"])
    def test_every_short_word_on_one_engine(self, family):
        """All 28 words of length 2-4 match the matrix route; the set's 13 are one float per word."""
        words = ["".join(w) for n in (2, 3, 4) for w in product("12", repeat=n)]
        assert len(words) == 28
        for R1, R2 in engine_pairs(family):
            rho1, rho2 = from_correlation(R1), from_correlation(R2)
            o = overlap_set(R1, R2)
            in_set = {"11": o.O11, "22": o.O22, "12": o.O12, **o.mixed}
            for word in words:
                value = word_overlap_bloch(word, R1, R2)
                assert abs(value - word_overlap_matrix(word, rho1, rho2)) <= 1e-12, (family, word)
                assert word not in in_set or value == in_set[word], (family, word)

    def test_two_letter_words_stay_on_c_einsum(self):
        """A planned path makes them one matmul, which sums in another order."""
        rng = np.random.default_rng(25)
        moved = 0
        for _ in range(50):
            R1 = to_correlation(random_state(4, seed=rng))
            R2 = to_correlation(random_state(4, "pure", rng))
            o = overlap_set(R1, R2)
            for value, (x, y) in ((o.O11, (R1, R1)), (o.O22, (R2, R2)), (o.O12, (R1, R2))):
                assert value == float(np.einsum("mn,mn->", x, y) / 4.0)
            moved += np.einsum("mn,mn->", R1, R2, optimize="greedy") != np.einsum("mn,mn->", R1, R2)
        assert moved > 0


class TestShiftOperator:
    def test_composition_of_swaps(self):
        """The four-factor product collapses to the pair swap S_13 S_24."""
        S = shift_operator()
        assert S.shape == (16, 16)
        pair_swap = mode_swap_unitary(4, 0, 2) @ mode_swap_unitary(4, 1, 3)
        assert np.abs(S - pair_swap).max() < 1e-12
        # involution: a permutation of order two
        assert np.abs(S @ S - np.eye(16)).max() < 1e-12

    @pytest.mark.parametrize("construction", ["embedded", "cycle"])
    def test_reproduces_second_overlap(self, construction):
        for a, b in pairs(20, 6):
            direct = float(np.trace(np.linalg.matrix_power(a @ b, 2)).real)
            assert shift_operator_check(a, b, construction) == pytest.approx(direct, abs=1e-10)

    def test_swap_expansion_identity(self):
        assert swap_expansion_error() < 1e-12

    def test_overlap_operator_residual(self):
        a, b = next(pairs(1, 7))
        assert overlap_operator_residual(a, b) < 1e-10


class TestProductRule:
    def test_traceless_product_rule(self):
        for a, b in pairs(25, 8):
            assert product_rule_residual(a, b) < 1e-10

    def test_general_product_rule(self):
        for a, b in pairs(25, 9):
            assert product_rule_residual(a, b, traceless=False) < 1e-10


class TestMoments:
    def test_cross_check_passes_on_random_pairs(self):
        for a, b in pairs(50, 10):
            m = moments(a, b)
            lam = a - b
            assert m.pi2 == pytest.approx(float(np.trace(lam @ lam).real), abs=1e-11)

    def test_identical_states_give_exact_zeros(self):
        """Bitwise-identical inputs must cancel exactly, not to 1e-16."""
        rho = random_state(4, seed=11)
        m = moments(rho, rho)
        assert m.pi2 == 0.0
        assert m.pi3 == 0.0
        assert m.pi4 == 0.0

    def test_basis_state_is_read_as_a_density_matrix(self):
        """|00><00| is real with a unit corner entry, the shape of a correlation matrix, and is still a state.

        The difference from the maximally mixed state has eigenvalues 3/4 and -1/4 (three times).
        """
        m = moments(np.diag([1.0, 0.0, 0.0, 0.0]), np.eye(4) / 4.0)
        assert (m.pi2, m.pi3, m.pi4) == pytest.approx((0.75, 0.375, 0.328125), abs=1e-15)

    def test_correlation_matrices_rejected(self):
        a, b = next(pairs(1, 1))
        with pytest.raises(ValueError, match="rho1 is not Hermitian"):
            moments(to_correlation(a), to_correlation(b))

    def test_moment_signs_detect_ordering(self):
        # swapping the states flips pi3 and preserves pi2, pi4
        a, b = next(pairs(1, 12))
        m_ab, m_ba = moments(a, b), moments(b, a)
        assert m_ab.pi3 == pytest.approx(-m_ba.pi3, abs=1e-11)
        assert m_ab.pi2 == pytest.approx(m_ba.pi2, abs=1e-11)
        assert m_ab.pi4 == pytest.approx(m_ba.pi4, abs=1e-11)


class TestTraceDistanceViaMoments:
    def test_all_zero_moments(self):
        assert trace_distance_via_moments(MomentSet(0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_orthogonal_pure_spectrum(self):
        # eigenvalues {1, -1, 0, 0}: Pi2 = 2, Pi3 = 0, Pi4 = 2
        assert trace_distance_via_moments(MomentSet(0.0, 2.0, 0.0, 2.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_oracle_on_random_pairs(self):
        for a, b in pairs(200, 13):
            t = trace_distance_via_moments(moments(a, b))
            assert t == pytest.approx(trace_distance(a, b), abs=1e-9)

    def test_matches_oracle_on_degenerate_spectra(self):
        """Repeated eigenvalues of the difference must not break the roots."""
        rng = np.random.default_rng(14)
        specs = [
            (0.3, 0.3, -0.3, -0.3),
            (0.5, -0.5, 0.0, 0.0),
            (0.6, -0.2, -0.2, -0.2),
            (0.4, 0.4, -0.5, -0.3),
        ]
        done = 0
        while done < 100:
            d = 0.4 * np.array(specs[rng.integers(len(specs))])
            U = random_unitary(4, rng)
            lam = (U * d) @ U.conj().T
            base = 0.7 * np.eye(4) / 4 + 0.3 * random_state(4, seed=rng)
            rho1 = base + lam
            if np.linalg.eigvalsh(rho1).min() < 1e-12:
                continue
            done += 1
            t = trace_distance_via_moments(moments(rho1, base))
            assert t == pytest.approx(trace_distance(rho1, base), abs=1e-7)

    def test_rejects_unphysical_moments(self):
        # no Hermitian difference yields these: forces truly complex roots
        with pytest.raises(ValueError, match="ill-conditioned"):
            trace_distance_via_moments(MomentSet(0.0, -2.0, 0.0, 2.0))


def basis_states():
    """|00>, |01>, |10>, |11> as density matrices."""
    return [np.diag(np.eye(4)[k]).astype(complex) for k in range(4)]


def bell_states():
    """Phi+, Phi-, Psi+, Psi- as density matrices."""
    kets = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2.0)
    return [np.outer(v, v).astype(complex) for v in kets]


def quartic_t(pi2, pi3, pi4):
    """T and the worst imaginary residue of the roots, from moments alone."""
    roots = characteristic_roots(pi2, pi3, pi4)
    return 0.5 * np.abs(roots.real).sum(axis=-1), np.abs(roots.imag).max(axis=-1)


class TestClosedFormQuartic:
    """The closed-form roots where closed forms are weak, against ``eigvalsh`` of the difference.

    ``TOL`` is criterion 5's 1e-7.  At a double eigenvalue the moments fix T
    only to about ``sqrt(eps)`` of the scale, for this solver as for an
    eigensolve of the companion matrix; everywhere else they agree to rounding.
    """

    TOL = 1e-7

    def assert_pairs(self, pairs):
        for rho1, rho2 in pairs:
            m = moments(rho1, rho2)
            t, imag = quartic_t(m.pi2, m.pi3, m.pi4)
            assert t == pytest.approx(trace_distance(rho1, rho2), abs=self.TOL)
            assert imag <= ROOT_IMAG_TOL

    def test_computational_basis_pairs(self):
        self.assert_pairs(product(basis_states(), repeat=2))

    def test_bell_pairs(self):
        self.assert_pairs(product(bell_states(), repeat=2))

    def test_pure_pairs(self):
        """Differences with eigenvalues (x, -x, 0, 0): the resolvent has a double largest root."""
        rng = np.random.default_rng(15)
        self.assert_pairs((random_state(4, "pure", seed=rng), random_state(4, "pure", seed=rng)) for _ in range(300))

    @pytest.mark.parametrize(
        "spectrum",
        [(0.3, 0.3, -0.3, -0.3), (0.5, -0.5, 0.0, 0.0), (0.6, -0.2, -0.2, -0.2), (0.4, 0.4, -0.5, -0.3)],
    )
    def test_degenerate_spectra_rotated(self, spectrum):
        """Each spectrum as ``U diag(lam) U^dag`` for random unitaries; the third has a
        triple eigenvalue and a triple resolvent root."""
        rng = np.random.default_rng(16)
        diffs = np.array([(u * spectrum) @ u.conj().T for u in (random_unitary(4, rng) for _ in range(300))])
        d2 = diffs @ diffs
        pi2, pi3, pi4 = (np.trace(m, axis1=-2, axis2=-1).real for m in (d2, d2 @ diffs, d2 @ d2))
        t, imag = quartic_t(pi2, pi3, pi4)
        assert np.abs(t - 0.5 * np.abs(spectrum).sum()).max() <= self.TOL
        assert imag.max() <= ROOT_IMAG_TOL


class TestDistancesFromOverlaps:
    def test_matches_oracle(self):
        from qoverlap.oracle import distance_set

        for a, b in pairs(50, 15):
            od = distances_from_overlaps(overlap_set(a, b))
            ds = distance_set(a, b)
            assert od.subfidelity == pytest.approx(ds.subfidelity, abs=1e-9)
            assert od.superfidelity == pytest.approx(ds.superfidelity, abs=1e-9)
            assert od.hilbert_schmidt == pytest.approx(ds.hilbert_schmidt, abs=1e-9)
            assert od.trace_distance == pytest.approx(ds.trace_distance, abs=1e-8)

    def test_moments_reusable(self):
        a, b = next(pairs(1, 16))
        o = overlap_set(a, b)
        m = moments_from_overlaps(o)
        od = distances_from_overlaps(o, m)
        assert od.hilbert_schmidt == pytest.approx(np.sqrt(max(m.pi2, 0.0)), abs=1e-12)
