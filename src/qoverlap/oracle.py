"""Spectral ground truth for every distance measure.

All quantities here are computed directly from density matrices by
Hermitian eigendecomposition — no correlation-matrix algebra, no
sampling.  The overlap and interferometer routes are validated against
these functions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import guarded_sqrt

__all__ = [
    "fidelity",
    "sqrt_fidelity",
    "bures_sq",
    "trace_distance",
    "hilbert_schmidt",
    "overlap",
    "linear_entropy",
    "sub_super_fidelity",
    "DistanceSet",
    "distance_set",
]

# Radicands in the fidelity bounds are nonnegative in exact arithmetic;
# anything below this floor signals broken inputs rather than roundoff.
RADICAND_TOL = -1e-12


def _check_pair(rho1: np.ndarray, rho2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValueError(f"dimension mismatch: {rho1.shape} vs {rho2.shape}")
    return rho1, rho2


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    """Hermitian square root with the spectral noise floor zeroed.

    Eigenvalues below ``16 eps`` of the largest are indistinguishable
    from zero for a positive-semidefinite input; without the floor the
    square root amplifies that O(eps) noise to O(sqrt(eps)), which is
    what limits fidelity accuracy on rank-deficient states.
    """
    w, v = np.linalg.eigh(rho)
    w[w < 16.0 * np.finfo(float).eps * max(float(w[-1]), 0.0)] = 0.0
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w) @ v.conj().T


def fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Uhlmann-Jozsa fidelity ``[Tr sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2``.

    This is the squared (transition-probability) convention; see
    :func:`sqrt_fidelity` for the square-root convention.  Clipped into
    ``[0, 1]``.
    """
    rho1, rho2 = _check_pair(rho1, rho2)
    s1 = _sqrtm_psd(rho1)
    inner = _sqrtm_psd(s1 @ rho2 @ s1)
    f = float(inner.trace().real) ** 2
    return float(np.clip(f, 0.0, 1.0))


def sqrt_fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """``sqrt(F)``, the alternative fidelity convention."""
    return float(np.sqrt(fidelity(rho1, rho2)))


def bures_sq(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Squared Bures distance ``2 (1 - sqrt(F))``."""
    return 2.0 * (1.0 - sqrt_fidelity(rho1, rho2))


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """``(1/2) sum_i |lambda_i|`` over the spectrum of ``rho1 - rho2``."""
    rho1, rho2 = _check_pair(rho1, rho2)
    lam = np.linalg.eigvalsh(rho1 - rho2)
    return float(0.5 * np.abs(lam).sum())


def hilbert_schmidt(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Frobenius distance ``sqrt(Tr[(rho1 - rho2)^2])``."""
    rho1, rho2 = _check_pair(rho1, rho2)
    return float(np.linalg.norm(rho1 - rho2, "fro"))


def overlap(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """First-order overlap ``Tr(rho1 rho2)``; purity when the states coincide."""
    rho1, rho2 = _check_pair(rho1, rho2)
    return float(np.einsum("ij,ji->", rho1, rho2).real)


def linear_entropy(rho: np.ndarray) -> float:
    """``1 - Tr(rho^2)``, clipped at zero for pure states."""
    rho = np.asarray(rho, dtype=complex)
    return float(max(1.0 - np.einsum("ij,ji->", rho, rho).real, 0.0))


def sub_super_fidelity(rho1: np.ndarray, rho2: np.ndarray) -> tuple[float, float]:
    """The measurable fidelity bounds ``(E, G)`` with ``E <= F <= G``.

    ``E = O + sqrt(2 [O^2 - Tr((rho1 rho2)^2)])`` and
    ``G = O + sqrt(S_L(rho1) S_L(rho2))``.  Both radicands are
    nonnegative up to roundoff; values below -1e-12 raise.
    """
    rho1, rho2 = _check_pair(rho1, rho2)
    o = overlap(rho1, rho2)
    prod = rho1 @ rho2
    o2 = float(np.einsum("ij,ji->", prod, prod).real)
    e = o + guarded_sqrt(2.0 * (o * o - o2), "subfidelity", max(o * o, abs(o2)), RADICAND_TOL)
    s1, s2 = linear_entropy(rho1), linear_entropy(rho2)
    g = o + guarded_sqrt(s1 * s2, "superfidelity", max(s1, s2), RADICAND_TOL)
    return e, g


@dataclass(frozen=True)
class DistanceSet:
    """Every distance measure for one state pair, spectral route."""

    fidelity: float
    sqrt_fidelity: float
    bures_sq: float
    trace_distance: float
    hilbert_schmidt: float
    subfidelity: float
    superfidelity: float
    linear_entropy_1: float
    linear_entropy_2: float

    def chain_audit(self, slack: float = 1e-9) -> list[tuple[str, bool]]:
        """Every chain inequality with whether it holds within ``slack``.

        Checks ``E <= F <= G``, ``1 - f <= T <= sqrt(1 - f^2)`` with
        ``f = sqrt(F)``, and ``0 <= H <= 2T``, in that order.
        """
        f, t, h = self.sqrt_fidelity, self.trace_distance, self.hilbert_schmidt
        checks = [
            ("E <= F", self.subfidelity <= self.fidelity + slack),
            ("F <= G", self.fidelity <= self.superfidelity + slack),
            ("1 - sqrtF <= T", 1.0 - f <= t + slack),
            ("T <= sqrt(1 - F)", t <= np.sqrt(max(1.0 - f * f, 0.0)) + slack),
            ("H >= 0", h >= -slack),
            ("H <= 2T", h <= 2.0 * t + slack),
        ]
        return [(name, bool(ok)) for name, ok in checks]

    def chain_violations(self, slack: float = 1e-9) -> list[str]:
        """Chain inequalities violated beyond ``slack`` (empty when all hold)."""
        return [name for name, ok in self.chain_audit(slack) if not ok]


def distance_set(rho1: np.ndarray, rho2: np.ndarray) -> DistanceSet:
    """Compute the full :class:`DistanceSet` for a pair of states."""
    f = fidelity(rho1, rho2)
    e, g = sub_super_fidelity(rho1, rho2)
    sf = float(np.sqrt(f))
    return DistanceSet(
        fidelity=f,
        sqrt_fidelity=sf,
        bures_sq=2.0 * (1.0 - sf),
        trace_distance=trace_distance(rho1, rho2),
        hilbert_schmidt=hilbert_schmidt(rho1, rho2),
        subfidelity=e,
        superfidelity=g,
        linear_entropy_1=linear_entropy(rho1),
        linear_entropy_2=linear_entropy(rho2),
    )
