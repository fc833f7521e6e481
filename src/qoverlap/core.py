"""Dense two-qubit state algebra.

Pauli basis, Bloch (correlation-matrix) representation, partial traces,
multi-copy tensor assembly, mode swaps, and random state generation.
Everything downstream (spectral distances, overlap contractions, the
simulated interferometer) consumes these primitives.

Conventions
-----------
* Qubit modes are big-endian tensor factors: mode 0 is the leftmost
  factor of a Kronecker product.
* A two-qubit copy occupies two adjacent modes, ``a`` then ``b``.
* Multi-copy layouts list every copy of state 1 before any copy of
  state 2, so a layout is fully described by the pair ``(n1, n2)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PAULI",
    "PAULI2",
    "trace_tensor",
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "pauli",
    "validate_density",
    "n_qubits",
    "purity",
    "guarded_sqrt",
    "to_correlation",
    "from_correlation",
    "partial_trace",
    "bloch_vector",
    "ModeLayout",
    "assemble",
    "swap_modes",
    "mode_swap_unitary",
    "random_state",
    "ginibre_states",
    "random_unitary",
    "__version__",
]

__version__ = "0.1.0"

# Validation tolerances for physical states.  The PSD floor is looser than
# the Hermiticity/trace floors because eigensolvers routinely report
# eigenvalues like -3e-12 for exactly rank-deficient (pure) states.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10

MAX_COPIES = 4  # 8 modes, 256-dimensional joint space

_P0 = np.eye(2, dtype=complex)
_P1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_P2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_P3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: The four Pauli matrices, ``PAULI[0]`` being the identity and
#: ``PAULI[3]`` diagonal ``(+1, -1)``.
PAULI = np.stack([_P0, _P1, _P2, _P3])
PAULI.setflags(write=False)

#: All sixteen two-qubit products ``PAULI2[m, n] = kron(sigma_m, sigma_n)``.
PAULI2 = np.einsum("mij,nkl->mnikjl", PAULI, PAULI).reshape(4, 4, 4, 4)
PAULI2.setflags(write=False)


def trace_tensor(k: int) -> np.ndarray:
    """``t[a1, ..., ak] = Tr[sigma_a1 ... sigma_ak]`` over all length-k Pauli words, k = 1..4."""
    up = "abcd"[:k]
    lo = "wxyz"[:k]
    spec = ",".join(f"{up[i]}{lo[i]}{lo[(i + 1) % k]}" for i in range(k))
    return np.einsum(f"{spec}->{up}", *([PAULI] * k))


def pauli(m: int) -> np.ndarray:
    """Return a writable copy of the 2x2 Pauli matrix ``sigma_m``.

    ``m`` must lie in ``0..3``; ``sigma_0`` is the identity.
    """
    if not isinstance(m, (int, np.integer)) or not 0 <= m <= 3:
        raise ValueError(f"Pauli index must be an integer in 0..3, got {m!r}")
    return PAULI[m].copy()


def n_qubits(dim: int) -> int:
    """Number of qubit modes for a Hilbert-space dimension (power of 2)."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


def validate_density(rho: np.ndarray, *, name: str = "rho") -> np.ndarray:
    """Check density-matrix invariants and return the array as complex.

    Raises ``ValueError`` naming the violated invariant: square power-of-2
    shape, finite entries, Hermiticity within 1e-12, unit trace within
    1e-12, and smallest eigenvalue >= -1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {rho.shape}")
    n_qubits(rho.shape[0])
    if not np.all(np.isfinite(rho.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian: max|rho - rho^dag| = {herm:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} does not have unit trace: Tr = {tr:.15g}")
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < PSD_TOL:
        raise ValueError(f"{name} is not positive semidefinite: min eigenvalue = {lo:.3e}")
    return rho


def purity(rho: np.ndarray) -> float:
    """``Tr(rho^2)`` as a real number."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.einsum("ij,ji->", rho, rho).real)


def guarded_sqrt(radicand: float, what: str, scale: float, tol: float) -> float:
    """Square root of a theoretically nonnegative radicand.

    Values below the negative threshold ``tol`` mean the inputs were not
    states and raise.  Values inside the floating-point noise band of
    ``scale`` are zeroed: the fidelity-bound radicands vanish identically
    at their equality cases (pure inputs), and the square root would
    otherwise amplify an O(eps) residue to O(sqrt(eps)) -- enough to
    overshoot the fidelity.
    """
    if radicand < tol:
        raise ValueError(f"negative radicand {radicand:.3e} in {what}; inputs are not physical states")
    eps = float(np.finfo(float).eps)
    if radicand < 256.0 * eps * max(scale, eps):
        return 0.0
    return float(np.sqrt(radicand))


def to_correlation(rho: np.ndarray) -> np.ndarray:
    """Correlation matrix ``R[m, n] = Tr(rho . sigma_m x sigma_n)`` of a two-qubit state.

    A stack of states, shape ``(..., 4, 4)``, gives the stack of their
    matrices, each bitwise the one its state gives alone.  The result is
    real for Hermitian input; an imaginary residue above 1e-9 signals an
    invalid matrix and raises ``ValueError``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    R = np.einsum("mnij,...ji->...mn", PAULI2, rho)
    resid = np.abs(R.imag).max()
    if resid > 1e-9:
        raise ValueError(f"correlation matrix has non-negligible imaginary part {resid:.3e}")
    return R.real.copy()


def from_correlation(R: np.ndarray) -> np.ndarray:
    """Reconstruct ``rho = (1/4) sum_mn R[m,n] sigma_m x sigma_n`` and validate it.

    ``R[0, 0]`` must equal 1 (trace normalization).  A reconstruction that
    fails positivity is rejected with the offending minimum eigenvalue.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (4, 4):
        raise ValueError(f"correlation matrix must be 4x4, got shape {R.shape}")
    if abs(R[0, 0] - 1.0) > TRACE_TOL:
        raise ValueError(f"R[0,0] must be 1 (trace normalization), got {R[0, 0]!r}")
    rho = np.einsum("mn,mnij->ij", R, PAULI2) / 4.0
    return validate_density(rho, name="from_correlation(R)")


def partial_trace(rho: np.ndarray, keep: str = "first") -> np.ndarray:
    """Reduce a two-qubit state to one qubit.

    ``keep='first'`` traces out the second qubit and vice versa.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    t = rho.reshape(2, 2, 2, 2)
    if keep == "first":
        return np.einsum("ikjk->ij", t).copy()
    if keep == "second":
        return np.einsum("kikj->ij", t).copy()
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch vector ``(Tr(rho sigma_1), Tr(rho sigma_2), Tr(rho sigma_3))`` of a qubit."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    return np.array([np.trace(rho @ PAULI[k]).real for k in (1, 2, 3)])


@dataclass(frozen=True)
class ModeLayout:
    """Ordered copies of the two states and their mode bookkeeping.

    ``copies`` holds state ids (1 or 2), e.g. ``(1, 1, 2, 2)``; copy ``i``
    occupies modes ``2i`` (its ``a`` mode) and ``2i + 1`` (its ``b`` mode).
    At most four copies (eight modes, 256-dimensional joint space).
    """

    copies: tuple[int, ...]

    def __post_init__(self) -> None:
        copies = tuple(int(c) for c in self.copies)
        object.__setattr__(self, "copies", copies)
        if not 1 <= len(copies) <= MAX_COPIES:
            raise ValueError(f"layout must hold 1..{MAX_COPIES} copies, got {len(copies)}")
        if any(c not in (1, 2) for c in copies):
            raise ValueError(f"state ids must be 1 or 2, got {copies}")

    @classmethod
    def standard(cls, n1: int, n2: int) -> "ModeLayout":
        """Layout with ``n1`` copies of state 1 followed by ``n2`` of state 2."""
        return cls((1,) * n1 + (2,) * n2)

    @property
    def n_copies(self) -> int:
        return len(self.copies)

    @property
    def n_modes(self) -> int:
        return 2 * len(self.copies)

    @property
    def dim(self) -> int:
        return 4 ** len(self.copies)

    def modes_of(self, copy_index: int) -> tuple[int, int]:
        """The ``(a, b)`` mode indices occupied by one copy."""
        if not 0 <= copy_index < self.n_copies:
            raise ValueError(f"copy index {copy_index} out of range")
        return 2 * copy_index, 2 * copy_index + 1

    def copy_of_mode(self, mode: int) -> int:
        if not 0 <= mode < self.n_modes:
            raise ValueError(f"mode index {mode} out of range for {self.n_modes} modes")
        return mode // 2

    def counts(self) -> tuple[int, int]:
        """``(n1, n2)`` copy multiplicities."""
        return self.copies.count(1), self.copies.count(2)


def assemble(states: dict[int, np.ndarray], layout: ModeLayout) -> np.ndarray:
    """Tensor product of state copies in canonical layout order.

    ``states`` maps state id (1 or 2) to its 4x4 density matrix.  The
    result has dimension ``4**n_copies`` (at most 256).
    """
    out = np.eye(1, dtype=complex)
    for sid in layout.copies:
        if sid not in states:
            raise ValueError(f"layout references state {sid} but it was not provided")
        rho = np.asarray(states[sid], dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"state {sid} must be 4x4, got shape {rho.shape}")
        out = np.kron(out, rho)
    return out


def swap_modes(rho: np.ndarray, i: int, j: int) -> np.ndarray:
    """Conjugate ``rho`` by the permutation exchanging qubit modes ``i`` and ``j``."""
    rho = np.asarray(rho, dtype=complex)
    n = n_qubits(rho.shape[0])
    if i == j:
        raise ValueError("mode indices must differ")
    for k in (i, j):
        if not 0 <= k < n:
            raise ValueError(f"mode index {k} out of range for {n} modes")
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    t = rho.reshape((2,) * (2 * n))
    t = t.transpose(perm + [n + p for p in perm])
    return t.reshape(rho.shape).copy()


def mode_swap_unitary(n_modes: int, i: int, j: int) -> np.ndarray:
    """Explicit ``2**n_modes`` permutation matrix exchanging modes ``i`` and ``j``.

    Bit ``k`` of a basis index is mode ``k`` counted from the left
    (big-endian), matching the Kronecker order used everywhere else.
    """
    if i == j:
        raise ValueError("mode indices must differ")
    for k in (i, j):
        if not 0 <= k < n_modes:
            raise ValueError(f"mode index {k} out of range for {n_modes} modes")
    dim = 2**n_modes
    bi, bj = n_modes - 1 - i, n_modes - 1 - j
    src = np.arange(dim)
    ai = (src >> bi) & 1
    aj = (src >> bj) & 1
    dst = src & ~(1 << bi) & ~(1 << bj) | (aj << bi) | (ai << bj)
    U = np.zeros((dim, dim))
    U[dst, src] = 1.0
    return U


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(G)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_state(
    dim: int,
    measure: str = "ginibre",
    seed: int | np.random.Generator | None = None,
    rank: int | None = None,
) -> np.ndarray:
    """Random density matrix of dimension 2 or 4.

    ``measure`` selects the ensemble: ``ginibre`` (Hilbert-Schmidt, full
    rank), ``pure`` (Haar vector projector), or ``rank-constrained``
    (Ginibre with ``rank`` columns).  Reproducible under a fixed seed.
    """
    if dim not in (2, 4):
        raise ValueError(f"unsupported dimension {dim}; expected 2 or 4")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if measure == "pure":
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    if measure == "ginibre":
        r = dim
    elif measure == "rank-constrained":
        if rank is None or not 1 <= rank <= dim:
            raise ValueError(f"rank-constrained ensemble needs rank in 1..{dim}, got {rank}")
        r = rank
    else:
        raise ValueError(f"unknown measure {measure!r}")
    return ginibre_states(rng, dim=dim, rank=r)


def ginibre_states(
    rng: np.random.Generator, shape: tuple[int, ...] = (), dim: int = 4, rank: int | None = None
) -> np.ndarray:
    """Hilbert-Schmidt random density matrices, an array of ``shape + (dim, dim)``.

    Each is ``G G^dag`` over its trace for a complex Ginibre ``G`` with
    ``rank`` columns (default ``dim``).  The states draw their ``G``'s
    real part, then its imaginary part, one after another in C order over
    ``shape``, so a batch holds bitwise the states that as many
    :func:`random_state` calls on ``rng`` return, in that order.
    """
    X = rng.normal(size=(*shape, 2, dim, dim if rank is None else rank))
    G = X[..., 0, :, :] + 1j * X[..., 1, :, :]
    rho = G @ np.swapaxes(G.conj(), -1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
