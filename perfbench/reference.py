"""Benchmark inputs and their reference values, in plain numpy.

Nothing here calls ``qoverlap``: the states are drawn with numpy's generator
and every reference value comes from ``eigh``/``eigvalsh`` and direct traces,
so a wrong route in the program cannot also make its own reference wrong.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

#: Agreement tolerances, as in the test suite: 1e-9, and 1e-7 for the trace
#: distance, whose quartic-root route loses digits at degenerate spectra.
TOLERANCE = dict.fromkeys(
    ("overlap", "subfidelity", "fidelity", "superfidelity", "hilbert_schmidt",
     "pi2", "pi3", "pi4", "o11", "o22", "o12", "o2"),
    1e-9,
) | {"trace_distance": 1e-7}

_SIGMA = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
#: ``PAULI2[m, n] = kron(sigma_m, sigma_n)``
PAULI2 = np.array([[np.kron(a, b) for b in _SIGMA] for a in _SIGMA])


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def _hermitize(rho: np.ndarray) -> np.ndarray:
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def ginibre(rng: np.random.Generator, rank: int = 4) -> np.ndarray:
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    return _hermitize(g @ g.conj().T)


def pure(rng: np.random.Generator) -> np.ndarray:
    return ginibre(rng, rank=1)


def unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 4x4 unitary (QR of a complex Gaussian, phases fixed)."""
    z = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


_DEGENERATE_SPECTRA = (
    (0.3, 0.3, -0.3, -0.3),
    (0.5, -0.5, 0.0, 0.0),
    (0.6, -0.2, -0.2, -0.2),
    (0.4, 0.4, -0.5, -0.3),
)


def degenerate_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A pair whose difference has an engineered repeated eigenvalue."""
    while True:
        d = 0.4 * np.array(_DEGENERATE_SPECTRA[rng.integers(len(_DEGENERATE_SPECTRA))])
        u = unitary(rng)
        base = 0.7 * np.eye(4) / 4 + 0.3 * ginibre(rng)
        rho1 = base + (u * d) @ u.conj().T
        if np.linalg.eigvalsh(rho1).min() >= 1e-12:
            return 0.5 * (rho1 + rho1.conj().T), base


def computational_basis() -> list[np.ndarray]:
    """|00>, |01>, |10>, |11> as density matrices."""
    return [np.diag(np.eye(4)[k]).astype(complex) for k in range(4)]


def bell_states() -> list[np.ndarray]:
    s = 1.0 / np.sqrt(2.0)
    kets = (
        np.array([s, 0, 0, s]),
        np.array([s, 0, 0, -s]),
        np.array([0, s, s, 0]),
        np.array([0, s, -s, 0]),
    )
    return [np.outer(k, k).astype(complex) for k in kets]


def correlation(rho: np.ndarray) -> np.ndarray:
    """``R[m, n] = Tr(rho sigma_m x sigma_n)``."""
    return np.einsum("mnij,ji->mn", PAULI2, rho).real


def from_correlation(R: np.ndarray) -> np.ndarray:
    return np.einsum("mn,mnij->ij", R, PAULI2) / 4.0


# ---------------------------------------------------------------------------
# Reference values
# ---------------------------------------------------------------------------


def _spectrum(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a positive-semidefinite matrix, noise floor set to zero."""
    w = np.linalg.eigvalsh(h)
    w[w < 16.0 * np.finfo(float).eps * max(float(w[-1]), 0.0)] = 0.0
    return np.clip(w, 0.0, None)


def _pair_sum(w: np.ndarray) -> float:
    """``sum_{i<j} w_i w_j``, which is exactly zero for a rank-one spectrum."""
    return float(sum(a * b for a, b in combinations(w, 2)))


def reference(rho1: np.ndarray, rho2: np.ndarray) -> dict[str, float]:
    """Every value the program reports for a pair, computed independently.

    With ``lam`` the spectrum of ``sqrt(rho1) rho2 sqrt(rho1)``:
    ``F = (sum sqrt(lam))^2`` and ``E = sum lam + 2 sqrt(sum_{i<j} lam_i lam_j)``,
    the eigenvalue form of ``O + sqrt(2 [O^2 - Tr (rho1 rho2)^2])``.  The
    linear entropies in ``G`` are ``2 sum_{i<j} p_i p_j`` over each state's
    spectrum.
    """
    w, v = np.linalg.eigh(rho1)
    root1 = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = _spectrum(root1 @ rho2 @ root1)
    overlap = float(np.trace(rho1 @ rho2).real)
    entropy1 = 2.0 * _pair_sum(_spectrum(rho1))
    entropy2 = 2.0 * _pair_sum(_spectrum(rho2))
    diff = rho1 - rho2
    prod = rho1 @ rho2
    return {
        "overlap": overlap,
        "fidelity": float(np.sqrt(lam).sum() ** 2),
        "subfidelity": float(lam.sum() + 2.0 * np.sqrt(_pair_sum(lam))),
        "superfidelity": overlap + float(np.sqrt(entropy1 * entropy2)),
        "hilbert_schmidt": float(np.sqrt(np.trace(diff @ diff).real)),
        "trace_distance": float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()),
        "pi2": float(np.trace(diff @ diff).real),
        "pi3": float(np.trace(diff @ diff @ diff).real),
        "pi4": float(np.trace(diff @ diff @ diff @ diff).real),
        "o11": float(np.trace(rho1 @ rho1).real),
        "o22": float(np.trace(rho2 @ rho2).real),
        "o12": overlap,
        "o2": float(np.trace(prod @ prod).real),
    }


def agrees(name: str, value: float, ref: dict[str, float]) -> bool:
    """Finite and within the suite's tolerance of the reference."""
    return bool(np.isfinite(value)) and abs(value - ref[name]) <= TOLERANCE[name]
