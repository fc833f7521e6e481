import math
from fractions import Fraction

import numpy as np
import pytest

from qoverlap.core import (
    ModeLayout,
    assemble,
    bloch_vector,
    from_correlation,
    ginibre_states,
    mode_swap_unitary,
    partial_trace,
    purity,
    random_state,
    random_unitary,
    swap_modes,
    to_correlation,
    validate_density,
)
from qoverlap.oracle import sub_super_fidelity
from qoverlap.overlaps import distances_from_overlaps, overlap_set


def loop_ginibre(rng, dim, r):
    """One Ginibre state drawn as random_state drew it before the batch sampler."""
    G = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    rho = G @ G.conj().T
    return rho / rho.trace().real


class TestValidation:
    def test_accepts_maximally_mixed(self):
        out = validate_density(np.eye(4) / 4)
        assert out.dtype == complex

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            validate_density(np.ones((4, 3)))

    def test_rejects_non_hermitian(self):
        rho = np.eye(4) / 4
        rho = rho.astype(complex)
        rho[0, 1] = 0.2j
        with pytest.raises(ValueError, match="[Hh]ermitian"):
            validate_density(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density(np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([0.7, 0.5, -0.1, -0.1])
        with pytest.raises(ValueError):
            validate_density(rho)

    def test_rejects_nan(self):
        rho = np.eye(4) / 4
        rho[2, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            validate_density(rho)


def nearly_pure(v, delta):
    """``(1 - delta) |v><v| / |v|^2 + delta I/4`` for a real vector ``v``, in exact fractions."""
    norm = sum(x * x for x in v)
    return [
        [(1 - delta) * Fraction(a * b, norm) + (delta / 4 if i == j else 0) for j, b in enumerate(v)]
        for i, a in enumerate(v)
    ]


def exact_trace_of_product(*factors):
    product = factors[0]
    for f in factors[1:]:
        product = [[sum(product[i][k] * f[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
    return sum(product[i][i] for i in range(4))


class TestGuardedSqrt:
    def test_noise_floor_keeps_a_small_true_radicand(self):
        """A nearly pure pair's subfidelity radicand, 2.4e-14 against a scale of 5.7e-4, is signal:
        ``guarded_sqrt`` must keep it on both routes.  Its root, 1.5e-7, is what a floor
        raised to 1e6 eps would drop."""
        delta = Fraction(3, 10**7)
        r1, r2 = nearly_pure((1, 2, 0, 1), delta), nearly_pure((2, -1, 1, 1), delta)
        o12, o2 = exact_trace_of_product(r1, r2), exact_trace_of_product(r1, r2, r1, r2)
        want = float(o12) + math.sqrt(2 * (o12 * o12 - o2))
        rho1, rho2 = (np.array(r, dtype=float).astype(complex) for r in (r1, r2))
        oracle = sub_super_fidelity(rho1, rho2)[0]
        overlap_route = distances_from_overlaps(overlap_set(to_correlation(rho1), to_correlation(rho2))).subfidelity
        assert abs(oracle - want) <= 1e-9
        assert abs(overlap_route - want) <= 1e-9


class TestCorrelation:
    """Round trips between density and Pauli correlation matrices."""

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rho = random_state(4, seed=rng)
            back = from_correlation(to_correlation(rho))
            assert np.abs(back - rho).max() < 1e-12

    def test_identity_component_is_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            R = to_correlation(random_state(4, seed=rng))
            assert R[0, 0] == pytest.approx(1.0, abs=1e-12)
            assert np.abs(R).max() <= 1.0 + 1e-12

    def test_correlation_is_real(self):
        R = to_correlation(random_state(4, seed=3))
        assert R.dtype == float

    def test_from_correlation_rejects_nonphysical(self):
        R = np.zeros((4, 4))
        R[0, 0] = 1.0
        R[1, 1] = R[2, 2] = R[3, 3] = 1.0  # would need a singlet-like state beyond PSD
        with pytest.raises(ValueError):
            from_correlation(R)

    def test_stack_matches_per_state_matrices(self):
        rhos = ginibre_states(np.random.default_rng(4), (3, 5))
        R = to_correlation(rhos)
        assert R.shape == (3, 5, 4, 4) and R.dtype == float
        for i, j in np.ndindex(3, 5):
            assert np.array_equal(R[i, j], to_correlation(rhos[i, j]))

    def test_bell_correlation_diagonal(self, bell):
        # Phi+ has R = diag(1, 1, -1, 1)
        R = to_correlation(bell)
        assert np.allclose(R, np.diag([1.0, 1.0, -1.0, 1.0]), atol=1e-12)


class TestRandomStates:
    def test_ginibre_is_valid_full_rank(self):
        rho = random_state(4, seed=7)
        validate_density(rho)
        assert np.linalg.matrix_rank(rho, tol=1e-10) == 4

    def test_pure_has_unit_purity(self):
        rho = random_state(4, "pure", seed=7)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_rank_constrained(self):
        rho = random_state(4, "rank-constrained", seed=7, rank=2)
        evals = np.linalg.eigvalsh(rho)
        assert (evals > 1e-10).sum() == 2

    def test_reproducible(self):
        a = random_state(4, seed=123)
        b = random_state(4, seed=123)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim, rank", [(4, None), (4, 2), (2, None), (2, 1)])
    def test_ginibre_matches_the_per_state_loop(self, dim, rank):
        """random_state and a batch hold bitwise the states of the per-state draw."""
        measure = "ginibre" if rank is None else "rank-constrained"
        rng = np.random.default_rng(17)
        want = [loop_ginibre(rng, dim, rank or dim) for _ in range(12)]
        rng = np.random.default_rng(17)
        got = [random_state(dim, measure, rng, rank=rank) for _ in range(6)]
        got.extend(ginibre_states(rng, (2, 3), dim, rank).reshape(6, dim, dim))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_unitary_is_unitary(self):
        U = random_unitary(4, np.random.default_rng(5))
        assert np.abs(U @ U.conj().T - np.eye(4)).max() < 1e-12


class TestLayout:
    def test_modes_of(self):
        lay = ModeLayout.standard(2, 2)
        assert lay.n_modes == 8
        assert lay.modes_of(0) == (0, 1)
        assert lay.modes_of(3) == (6, 7)
        assert lay.counts() == (2, 2)

    def test_copy_of_mode_inverts_modes_of(self):
        lay = ModeLayout((1, 2, 1))
        for c in range(lay.n_copies):
            a, b = lay.modes_of(c)
            assert lay.copy_of_mode(a) == c
            assert lay.copy_of_mode(b) == c

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            ModeLayout((1, 3))

    def test_rejects_too_many_copies(self):
        with pytest.raises(ValueError):
            ModeLayout((1,) * 5)


class TestAssembleAndPartialTrace:
    def test_assemble_product(self):
        rng = np.random.default_rng(11)
        r1 = random_state(4, seed=rng)
        r2 = random_state(4, seed=rng)
        lay = ModeLayout((1, 2))
        joint = assemble({1: r1, 2: r2}, lay)
        assert joint.shape == (16, 16)
        assert np.trace(joint) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(joint - np.kron(r1, r2)).max() < 1e-14

    def test_partial_trace_of_product(self):
        rng = np.random.default_rng(12)
        a = random_state(2, seed=rng)
        b = random_state(2, seed=rng)
        joint = np.kron(a, b)
        assert np.abs(partial_trace(joint, "first") - a).max() < 1e-12
        assert np.abs(partial_trace(joint, "second") - b).max() < 1e-12

    def test_swap_modes_involution(self):
        rho = random_state(4, seed=13)
        joint = np.kron(rho, rho)
        once = swap_modes(joint, 0, 2)
        assert np.abs(swap_modes(once, 0, 2) - joint).max() < 1e-14

    def test_mode_swap_unitary_permutes_kron(self):
        rng = np.random.default_rng(14)
        a = random_state(2, seed=rng)
        b = random_state(2, seed=rng)
        S = mode_swap_unitary(2, 0, 1)
        assert np.abs(S @ np.kron(a, b) @ S.conj().T - np.kron(b, a)).max() < 1e-13

    def test_bloch_vector_single_qubit(self):
        rho = random_state(2, seed=15)
        v = bloch_vector(rho)
        assert v.shape == (3,)
        assert np.linalg.norm(v) <= 1.0 + 1e-12
        # reconstruct: rho = (I + v . sigma) / 2
        paulis = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        back = 0.5 * (np.eye(2) + sum(c * p for c, p in zip(v, paulis)))
        assert np.abs(back - rho).max() < 1e-12
