"""Correlation-matrix overlap algebra and the target table.

:data:`TARGETS` is the one table of the words, moments and constant that
every route evaluates: the derivation fits them, the estimator takes its
oracle values from them, and the overlap route below evaluates their words.

Everything a singlet-projection experiment can reach lives here:
first/second-order and mixed-word overlaps, all from star products of
correlation matrices (the correlation matrix of a product ``rho_a rho_b``
by the Pauli product rule) in one batched product per pair, moments of
the difference matrix, and the trace distance recovered from those
moments via the quartic characteristic polynomial.  The module also carries the
permutation-operator identities (shift operator, swap expansion,
overlap operator, singlet product rule) as executable checks; each of
them was used to pin down sign and normalization conventions against
the spectral oracle.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .core import PAULI, guarded_sqrt, mode_swap_unitary, to_correlation, trace_tensor, validate_density

__all__ = [
    "Arithmetic",
    "FLOAT",
    "Target",
    "TARGETS",
    "P_MINUS",
    "factor_tensor",
    "overlap_first",
    "overlap_second",
    "word_overlap_matrix",
    "word_overlap_bloch",
    "OverlapSet",
    "overlap_set",
    "MomentSet",
    "moments",
    "characteristic_roots",
    "trace_distance_via_moments",
    "OverlapDistances",
    "distances_from_overlaps",
    "shift_operator",
    "shift_operator_check",
    "swap_expansion_error",
    "overlap_operator",
    "overlap_operator_residual",
    "product_rule_residual",
]


class Arithmetic(NamedTuple):
    """The matrix operations of one number system, for :class:`Target`."""

    one: object
    identity: object
    mul: Callable
    sub: Callable
    trace: Callable


def _real_trace(x: np.ndarray):
    """Real part of the trace over the last two axes; a Python float for one matrix."""
    t = np.trace(x, axis1=-2, axis2=-1).real
    return float(t) if t.ndim == 0 else t


FLOAT = Arithmetic(
    one=1.0,
    identity=np.eye(4, dtype=complex),
    mul=np.matmul,
    sub=np.subtract,
    trace=_real_trace,
)


@dataclass(frozen=True)
class Target:
    """One functional of a state pair that the derivation can fit.

    A ``word`` (s1..sk) is Tr[rho_s1 ... rho_sk], a ``moment`` n is
    Tr[(rho1 - rho2)^n], and a target with neither is the constant 1.
    ``prefer`` names targets fitted earlier whose graph classes this fit
    reuses wherever its representation allows.
    """

    name: str
    word: tuple[int, ...] = ()
    moment: int = 0
    prefer: tuple[str, ...] = ()

    @property
    def words(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Signed word expansion; a moment's words are merged up to cyclic rotation."""
        if not self.moment:
            return ((1, self.word),) if self.word else ()
        n, acc = self.moment, Counter()
        for word in product((1, 2), repeat=n):
            acc[min(word[i:] + word[:i] for i in range(n))] += (-1) ** word.count(2)
        return tuple((c, w) for w, c in sorted(acc.items()))

    @property
    def copies(self) -> int:
        """Copies per monomial of the basis the fit needs: 2 unless a word is longer."""
        return 2 if max((len(w) for _, w in self.words), default=0) <= 2 else 4

    def __call__(self, rho1, rho2, arith: Arithmetic = FLOAT):
        """Value on a pair, in floats or, with ``arith=EXACT``, exact rationals.

        In floats, one pair of 4x4 matrices gives a Python float, and two
        ``(S, 4, 4)`` stacks give the array of the S pairs' values, each
        bitwise the value of its pair alone: ``matmul`` and the trace work
        matrix by matrix in the same order.  The constant target is the
        scalar 1 either way.  A moment is computed from its power, never
        from its word expansion (the fits are what check that expansion),
        with ``np.linalg.matrix_power``'s product order: a square, then
        one more factor or a second square.
        """
        if self.moment:
            lam = arith.sub(rho1, rho2)
            power = arith.mul(lam, lam)
            if self.moment > 2:
                power = arith.mul(power, lam if self.moment == 3 else power)
            return arith.trace(power)
        if not self.word:
            return arith.one
        factors = (rho1 if s == 1 else rho2 for s in self.word)
        return arith.trace(reduce(arith.mul, factors, arith.identity))


#: Every fittable target in fit and output order; ``prefer`` targets come first.
TARGETS: dict[str, Target] = {
    t.name: t
    for t in (
        Target("one"),
        Target("o11", word=(1, 1)),
        Target("o22", word=(2, 2)),
        Target("o12", word=(1, 2)),
        Target("pi2", moment=2),
        Target("w1111", word=(1, 1, 1, 1)),
        Target("w1112", word=(1, 1, 1, 2)),
        Target("w1122", word=(1, 1, 2, 2)),
        Target("o2", word=(1, 2, 1, 2)),
        Target("w1222", word=(1, 2, 2, 2)),
        Target("w2222", word=(2, 2, 2, 2)),
        Target("pi3", moment=3),
        Target("pi4", moment=4, prefer=("pi2", "pi3")),
    )
}



#: Singlet projector |Psi-><Psi-| = (1/4)(I - sum_{i>=1} sigma_i x sigma_i).
P_MINUS = (np.eye(4, dtype=complex) - sum(np.kron(PAULI[i], PAULI[i]) for i in (1, 2, 3))) / 4.0
P_MINUS.setflags(write=False)

# The quartic root-finder tolerates this much imaginary residue before
# declaring the moment set ill-conditioned.  Rounding the moments of a real
# spectrum with an m-fold eigenvalue splits that eigenvalue by O(eps^(1/m))
# of the scale, possibly into a complex pair.  On 3,000 random rotations
# each, the closed-form roots leave residues up to 7.5e-9 at the double
# eigenvalues of (0.5, -0.5, 0, 0) and (0.3, 0.3, -0.3, -0.3), and 2.7e-6 at
# the triple one of (0.6, -0.2, -0.2, -0.2) (4.4e-6 for (1, -1/3, -1/3, -1/3));
# a traceless 4x4 difference has no quadruple eigenvalue but 0, whose roots
# come out exact.  Residues below this ceiling are rounding of a legitimate
# degenerate spectrum, not bad input.
ROOT_IMAG_TOL = 1e-3

# Radicands below this mean the overlaps did not come from states.
RADICAND_TOL = -1e-9

# Guarded Newton steps on the resolvent cubic after its closed-form root.
NEWTON_STEPS = 2


def factor_tensor() -> np.ndarray:
    """Triple-product tensor ``f[u, a, b] = Tr(sigma_u sigma_a sigma_b) / 2``.

    Expanding any Pauli product in the Pauli basis uses these factors:
    ``sigma_a sigma_b = sum_u f[u, a, b] sigma_u``.  Entrywise,
    ``f = d3(u,a) d(b,0) + d3(u,b) d(a,0) + d3(a,b) d(u,0)
    + d(u,0) d(a,0) d(b,0) + i eps(a, b, u)`` where ``d3`` is the
    Kronecker delta restricted to indices 1..3.
    """
    return trace_tensor(3) / 2.0


# Star products: by the product rule ``sigma_a sigma_b = sum_u f[u, a, b] sigma_u``
# the correlation matrix of rho_a rho_b is Q_ab = (1/4) F (R_a x R_b) F^T with
# F = f.reshape(4, 16), and Tr(rho_X rho_Y) = (1/4) sum Q_X o Q_Y for any two such
# matrices.  Q_ab is taken as (1/4) [F (R_a x 1)] [(1 x R_b) F^T], the factors being
# R_a and R_b times f rearranged: [(u, c), a] -> f[u, a, c] and [d, (b, v)] -> f[v, b, d].
_F_LEFT = factor_tensor().transpose(0, 2, 1).reshape(16, 4)
_F_RIGHT = factor_tensor().transpose(2, 1, 0).reshape(4, 16)
_F_LEFT.setflags(write=False)
_F_RIGHT.setflags(write=False)

# The halves a word splits into: a one-letter half is its R, a two-letter half its Q.
_HALVES = ("1", "2", "11", "12", "21", "22")


@lru_cache(maxsize=None)
def _word_halves(words: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Indices into ``_HALVES`` of each word's first ``len // 2`` letters and of the rest."""
    halves = []
    for word in words:
        _check_word(word)
        cut = len(word) // 2
        halves.append((_HALVES.index(word[:cut]), _HALVES.index(word[cut:])))
    return tuple(np.array(half) for half in zip(*halves))


def _word_values(words: tuple[str, ...], rho1: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """``Tr(rho_w1 rho_w2 ...)`` of each word from the correlation matrices of the states.

    One stacked star product gives Q11, Q12, Q21 and Q22, and one real einsum sums
    each word's gathered halves: a two-letter word is bitwise the ``"mn,mn->"``
    einsum of its matrices.  An imaginary residue above 1e-9 raises.
    """
    i, j = _word_halves(words)
    R = np.stack([_as_correlation(rho1), _as_correlation(rho2)])
    # Each factor has one nonzero term per entry, so it is exact.  Their product sums in
    # long double: on nearly orthogonal pure pairs the E radicand is that rounding alone.
    left = (_F_LEFT @ R).reshape(2, 1, 4, 16).astype(np.clongdouble)
    Q = (left @ (R @ _F_RIGHT).reshape(1, 2, 16, 4)).reshape(4, 4, 4) / 4.0
    halves = np.zeros((6, 2, 4, 4))  # R1, R2, Q11, Q12, Q21, Q22; real and imaginary parts
    halves[:2, 0], halves[2:, 0], halves[2:, 1] = R, Q.real, Q.imag
    p = np.einsum("wamn,wbmn->wab", halves[i], halves[j])
    imag = (p[:, 0, 1] + p[:, 1, 0]) / 4.0
    worst = int(np.abs(imag).argmax())
    if abs(imag[worst]) > 1e-9:
        raise ValueError(f"word {words[worst]} overlap has imaginary residue {imag[worst]:.3e}")
    return (p[:, 0, 0] - p[:, 1, 1]) / 4.0


def _as_correlation(state: np.ndarray) -> np.ndarray:
    """Accept either a 4x4 density matrix or a ready correlation matrix.

    A real-valued matrix whose (0,0) entry is 1 is taken to be a
    correlation matrix (its defining normalization); everything else is
    treated as a density matrix and converted.
    """
    state = np.asarray(state)
    if state.shape != (4, 4):
        raise ValueError(f"expected a 4x4 array, got shape {state.shape}")
    is_real = not np.iscomplexobj(state) or np.abs(state.imag).max() <= 1e-12
    if is_real and abs(state[0, 0].real - 1.0) <= 1e-9 and np.abs(state).max() <= 1.0 + 1e-9:
        return np.asarray(state.real, dtype=float)
    return to_correlation(state)


def overlap_first(R1: np.ndarray, R2: np.ndarray) -> float:
    """``Tr(rho1 rho2) = (1/4) sum_mn R1[m,n] R2[m,n]``.

    Accepts correlation matrices or density matrices.
    """
    return word_overlap_bloch("12", R1, R2)


def overlap_second(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Second-order overlap ``Tr[(rho1 rho2)^2]`` from correlation matrices alone.

    The word ``1212``: ``(1/4) sum Q12 o Q12`` with the star product
    ``Q12`` of the two correlation matrices.
    """
    return word_overlap_bloch("1212", rho1, rho2)


def word_overlap_matrix(word: str, rho1: np.ndarray, rho2: np.ndarray) -> float:
    """``Tr(rho_w1 rho_w2 ...)`` by direct matrix products; ``word`` is e.g. ``"1122"``."""
    _check_word(word)
    return Target(word, word=tuple(map(int, word)))(rho1, rho2)


def word_overlap_bloch(word: str, R1: np.ndarray, R2: np.ndarray) -> float:
    """The same word overlap from correlation matrices via star products.

    Degree 2 is ``(1/4) sum R o R``, degree 3 ``(1/4) sum R o Q`` and degree 4
    ``(1/4) sum Q o Q``, bitwise the value :func:`overlap_set` gives the word.
    """
    return float(_word_values((word,), R1, R2)[0])


def _check_word(word: str) -> None:
    if not 2 <= len(word) <= 4 or any(ch not in "12" for ch in word):
        raise ValueError(f"word must be 2..4 characters over {{1,2}}, got {word!r}")


@dataclass(frozen=True)
class OverlapSet:
    """Every overlap the distance formulas consume.

    ``mixed`` maps exponent words (``"112"`` for ``Tr(rho1^2 rho2)`` and
    so on, in product order) to their values.
    """

    O11: float
    O22: float
    O12: float
    O2_12: float
    mixed: dict[str, float] = field(default_factory=dict)


#: Every word of the targets' expansions, as ``"1122"``-style strings in table order.
_WORDS = tuple(dict.fromkeys("".join(map(str, w)) for t in TARGETS.values() for _, w in t.words))


def overlap_set(rho1: np.ndarray, rho2: np.ndarray) -> OverlapSet:
    """Assemble all overlaps of a pair from the star products of its correlation matrices."""
    w = dict(zip(_WORDS, _word_values(_WORDS, rho1, rho2).tolist()))
    return OverlapSet(O11=w.pop("11"), O22=w.pop("22"), O12=w.pop("12"), O2_12=w["1212"], mixed=w)


@dataclass(frozen=True)
class MomentSet:
    """Moments ``Pi_n = Tr[(rho1 - rho2)^n]`` for n = 1..4."""

    pi1: float
    pi2: float
    pi3: float
    pi4: float


def moments_from_overlaps(o: OverlapSet) -> MomentSet:
    """Expand the difference-matrix moments in overlaps.

    ``Pi2 = chi1 + chi2 - 2 O12``;
    ``Pi3 = Tr(rho1^3) - Tr(rho2^3) + 3 [Tr(rho2^2 rho1) - Tr(rho1^2 rho2)]``;
    ``Pi4 = Tr(rho1^4) + Tr(rho2^4) + 2 Tr[(rho1 rho2)^2]
    + 4 Tr(rho1^2 rho2^2) - 4 Tr(rho1^3 rho2) - 4 Tr(rho1 rho2^3)``.
    (The binomial expansion fixes the signs of the ``2 Tr[(rho1 rho2)^2]``
    and the two degree-(3,1) terms; transcribing them with opposite signs
    fails the oracle check by O(1).)

    Every term is one word contraction of correlation matrices, so for
    bitwise-identical inputs the expansions cancel exactly and the
    moments of a zero difference are exact zeros.
    """
    w = o.mixed
    pi2 = o.O11 + o.O22 - 2.0 * o.O12
    pi3 = w["111"] - w["222"] + 3.0 * (w["122"] - w["112"])
    pi4 = (
        w["1111"]
        + w["2222"]
        + 2.0 * w["1212"]
        + 4.0 * w["1122"]
        - 4.0 * w["1112"]
        - 4.0 * w["1222"]
    )
    return MomentSet(pi1=0.0, pi2=pi2, pi3=pi3, pi4=pi4)


def moments(rho1: np.ndarray, rho2: np.ndarray) -> MomentSet:
    """Moments of ``rho1 - rho2`` from the overlap expansion of two density matrices.

    Both must pass :func:`~qoverlap.core.validate_density`.  Every moment is
    recomputed by direct matrix products (its entry in :data:`TARGETS`) and
    the two routes must agree to 1e-10.
    """
    rho1, rho2 = validate_density(rho1, name="rho1"), validate_density(rho2, name="rho2")
    m = moments_from_overlaps(overlap_set(to_correlation(rho1), to_correlation(rho2)))
    direct = (TARGETS[name](rho1, rho2) for name in ("pi2", "pi3", "pi4"))
    worst = max(abs(v - d) for v, d in zip((m.pi2, m.pi3, m.pi4), direct))
    if worst > 1e-10:
        raise ValueError(f"overlap and matrix moment routes disagree by {worst:.3e}")
    return m


def _where(cond, x, y):
    """``np.where`` that keeps a scalar row scalar: a 0-d ``where`` costs more than the row."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _resolvent_root(pi2, e, b2):
    """Largest real root ``u`` of ``g(u) = u^3 - Pi2 u^2 + e u - b^2``, clipped at 0.

    Trigonometric form where the cubic has three real roots, Cardano with
    ``cbrt`` where it has one, then ``NEWTON_STEPS`` Newton steps, each
    taken only where it lowers ``|g|``.  They sharpen a tiny root, which
    the closed form gets only to the rounding of the scale; the guard
    drops the wild steps that rounding makes at a double or triple root.
    A step that lands on a lower root is harmless: every root ``u >= 0``
    factors the quartic, and :func:`characteristic_roots` takes ``q - p``
    without dividing by a small ``s``.
    """
    p = e - pi2 * pi2 / 3.0  # depressed cubic t^3 + p t + q, u = t + Pi2/3
    q = pi2 * e / 3.0 - 2.0 * pi2 * pi2 * pi2 / 27.0 - b2
    disc = 0.25 * q * q + p * p * p / 27.0
    root_disc = np.sqrt(abs(disc))
    cube = -np.cbrt(0.5 * q + np.copysign(root_disc, q))
    trig = 2.0 * np.sqrt(abs(p) / 3.0) * np.cos(np.arctan2(root_disc, -0.5 * q) / 3.0)
    u = _where(disc > 0.0, cube - p / (3.0 * cube), trig) + pi2 / 3.0
    g = ((u - pi2) * u + e) * u - b2
    for _ in range(NEWTON_STEPS):
        new = u - g / ((3.0 * u - 2.0 * pi2) * u + e)
        g_new = ((new - pi2) * new + e) * new - b2
        take = abs(g_new) < abs(g)
        u, g = _where(take, new, u), _where(take, g_new, g)
    return _where(u > 0.0, u, 0.0)


def characteristic_roots(pi2, pi3, pi4) -> np.ndarray:
    """Roots of ``y^4 - (Pi2/2) y^2 - (Pi3/3) y + det``, ``det = (Pi2^2/2 - Pi4)/4``.

    Elementwise on arrays of moments, in closed form, giving ``(..., 4)``
    complex roots.  The depressed quartic factors as
    ``(y^2 + s y + p)(y^2 - s y + q)`` with ``s^2 = u``, the largest real
    root of the resolvent cubic ``u^3 - Pi2 u^2 + (Pi4 - Pi2^2/4) u - (Pi3/3)^2``
    (:func:`_resolvent_root`), which is never negative because the cubic is
    ``-(Pi3/3)^2 <= 0`` at 0.  The two real quadratics give the roots, so
    there is no eigensolve and no complex cube root.  ``q - p`` is
    ``-Pi3 / (3 s)`` where ``u > |Pi2|/4``, which holds for every real
    spectrum (the three resolvent roots are the squared pair sums of the
    eigenvalues and add up to ``Pi2``, so the largest is at least ``Pi2/3``);
    below it ``s`` may be tiny, and ``q - p`` is
    ``sqrt(u^2 - Pi2 u + Pi4 - Pi2^2/4)`` with the sign of ``-Pi3``.  For
    the moments of a traceless Hermitian 4x4 difference the roots are its
    eigenvalues up to rounding, which grows to ``eps^(1/m)`` of the scale
    at an ``m``-fold eigenvalue, as for any solver of the quartic.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        pi2, pi3, pi4 = (np.asarray(x, dtype=float)[()] for x in (pi2, pi3, pi4))
        e = pi4 - 0.25 * pi2 * pi2  # a^2 - 4 det for the quartic's a = -Pi2/2
        b = -pi3 / 3.0
        u = _resolvent_root(pi2, e, b * b)
        s = np.sqrt(u)
        w2 = (u - pi2) * u + e  # (q - p)^2 where u is a root
        w = _where(u > 0.25 * abs(pi2), b / s, np.copysign(np.sqrt(_where(w2 > 0.0, w2, 0.0)), b))
    roots = np.empty(s.shape + (4,), dtype=complex)
    for k, (sign, d) in enumerate(((-0.5, pi2 - u + 2.0 * w), (0.5, pi2 - u - 2.0 * w))):
        # The quadratic y^2 -+ s y + . has discriminant d: roots sign * (s +- sqrt d).
        root_d = np.sqrt(abs(d))
        real, imag = root_d * (d >= 0.0), 0.5j * root_d * (d < 0.0)
        roots[..., 2 * k] = sign * (s + real) + imag
        roots[..., 2 * k + 1] = sign * (s - real) - imag
    return roots


def trace_distance_via_moments(m: MomentSet) -> float:
    """Trace distance from moments alone.

    Returns half the absolute sum of the cleaned-up
    :func:`characteristic_roots`.  Cleanup: the true spectrum is real
    (moments of a Hermitian difference), so spurious conjugate pairs,
    which rounding makes of a degenerate eigenvalue, collapse onto their
    shared real part.  A pair's real parts sum to its quadratic's exact
    ``-+s`` even where the individual roots wobble, so the result keeps
    machine accuracy at the spectra (0.3, 0.3, -0.3, -0.3) and
    (0.6, -0.2, -0.2, -0.2); a double zero, as in (x, -x, 0, 0), costs
    ``sqrt(eps)`` of the scale, for this solver as for any.  Residues beyond
    ``ROOT_IMAG_TOL`` cannot come from a Hermitian difference; those
    raise instead of being silently flattened.
    """
    roots = characteristic_roots(m.pi2, m.pi3, m.pi4)
    worst_imag = float(np.abs(roots.imag).max())
    if worst_imag > ROOT_IMAG_TOL:
        raise ValueError(f"ill-conditioned moments: complex eigenvalue residue {worst_imag:.3e}")
    lam = roots.real
    if abs(lam.sum()) > 1e-8:
        raise ValueError(f"ill-conditioned moments: eigenvalue sum {lam.sum():.3e}")
    return float(0.5 * np.abs(lam).sum())


@dataclass(frozen=True)
class OverlapDistances:
    """Distances reachable from overlaps alone.

    The fidelity itself is not: only its bracket ``[E, G]`` is
    measurable, which is the point of the bounds.
    """

    subfidelity: float
    superfidelity: float
    hilbert_schmidt: float
    trace_distance: float


def distances_from_overlaps(o: OverlapSet, m: MomentSet | None = None) -> OverlapDistances:
    """``E, G, H, T`` from an :class:`OverlapSet` (and optionally its moments)."""
    if m is None:
        m = moments_from_overlaps(o)
    e_rad, e_scale = 2.0 * (o.O12 * o.O12 - o.O2_12), max(o.O12 * o.O12, abs(o.O2_12))
    g_rad, g_scale = (1.0 - o.O11) * (1.0 - o.O22), max(1.0 - o.O11, 1.0 - o.O22)
    return OverlapDistances(
        subfidelity=o.O12 + guarded_sqrt(e_rad, "subfidelity from overlaps", e_scale, RADICAND_TOL),
        superfidelity=o.O12 + guarded_sqrt(g_rad, "superfidelity from overlaps", g_scale, RADICAND_TOL),
        hilbert_schmidt=float(np.sqrt(max(m.pi2, 0.0))),
        trace_distance=trace_distance_via_moments(m),
    )


# ---------------------------------------------------------------------------
# Permutation-operator identities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _swap(n_modes: int, i: int, j: int) -> np.ndarray:
    return mode_swap_unitary(n_modes, i, j)


@lru_cache(maxsize=1)
def shift_operator() -> np.ndarray:
    """The 4-slot cyclic shift ``S = S_23 S_34 S_12 S_23`` (16x16).

    Slot labels are 1-based; the product reads right to left, and the
    result is the pair swap ``S_13 S_24``: under ``Tr[S (X x X)]`` it
    stitches two copies of ``X = rho1 rho2`` into ``Tr[X^2]``.
    """
    return _swap(4, 1, 2) @ _swap(4, 2, 3) @ _swap(4, 0, 1) @ _swap(4, 1, 2)


@lru_cache(maxsize=2)
def _shift_256(construction: str) -> np.ndarray:
    if construction == "embedded":
        return np.kron(shift_operator(), np.eye(16))
    if construction == "cycle":
        # Copy-slot 4-cycle on four two-qubit copies (8 modes): each factor
        # swaps whole copies, i.e. both of their modes.
        def copy_swap(i: int, j: int) -> np.ndarray:
            return _swap(8, 2 * i, 2 * j) @ _swap(8, 2 * i + 1, 2 * j + 1)

        return copy_swap(0, 1) @ copy_swap(1, 2) @ copy_swap(2, 3)
    raise ValueError(f"unknown construction {construction!r}")


def shift_operator_check(rho1: np.ndarray, rho2: np.ndarray, construction: str = "embedded") -> float:
    """Evaluate ``Tr[S (rho1 rho2) x (rho1 rho2)]`` as a 256x256 contraction.

    ``construction='embedded'`` pads the 4-slot shift and its operand
    with normalized identities up to 256x256; ``'cycle'`` instead uses
    the copy-slot 4-cycle acting on ``rho1 x rho2 x rho1 x rho2`` —
    both reproduce ``Tr[(rho1 rho2)^2]``.  The operand is non-Hermitian,
    so only the real part is a physical overlap; an imaginary part above
    1e-10 raises.
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if construction == "embedded":
        x = np.kron(rho1 @ rho2, rho1 @ rho2)
        operand = np.kron(x, np.eye(16) / 16.0)
    elif construction == "cycle":
        operand = np.kron(np.kron(rho1, rho2), np.kron(rho1, rho2))
    else:
        raise ValueError(f"unknown construction {construction!r}")
    s = _shift_256(construction)
    val = complex(np.einsum("ij,ji->", s, operand))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"shift-operator trace has imaginary residue {val.imag:.3e}")
    return val.real


def swap_expansion_error() -> float:
    """Entrywise error of the Pauli expansion of the double swap, at 256x256.

    ``S_34 S_12 = (1/4) sum_{i,j=0..3} sigma_i^(1) sigma_i^(2)
    sigma_j^(3) sigma_j^(4)`` — all four terms of the partial sums enter
    with plus signs once the i, j ranges include 0.  Both sides are
    embedded on the first four of eight modes.
    """
    lhs16 = _swap(4, 2, 3) @ _swap(4, 0, 1)
    rhs16 = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        for j in range(4):
            rhs16 += np.kron(np.kron(PAULI[i], PAULI[i]), np.kron(PAULI[j], PAULI[j]))
    rhs16 /= 4.0
    lhs = np.kron(lhs16, np.eye(16))
    rhs = np.kron(rhs16, np.eye(16))
    return float(np.abs(lhs - rhs).max())


@lru_cache(maxsize=1)
def overlap_operator() -> np.ndarray:
    """Hermitian operator measuring the first-order overlap on ``rho1 x rho2``.

    With modes ordered ``a1 b1 a2 b2``: conjugate ``V x V`` on the
    adjacent pairs by the middle swap ``S_{b1 a2}``, where
    ``V = sum_i sigma_i x sigma_i = 2I - 4 P^-``.  Its expectation is
    ``4 O(rho1, rho2)``: one factor of 4 against the 1/4 of the
    correlation expansion.
    """
    v = sum(np.kron(PAULI[i], PAULI[i]) for i in range(4))
    s_mid = _swap(4, 1, 2)
    return s_mid @ np.kron(v, v) @ s_mid


def overlap_operator_residual(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """``|Tr[O (rho1 x rho2)] - 4 Tr(rho1 rho2)|`` for the overlap operator."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    val = np.einsum("ij,ji->", overlap_operator(), np.kron(rho1, rho2))
    direct = np.einsum("ij,ji->", rho1, rho2)
    return float(abs(val - 4.0 * direct))


def product_rule_residual(rho1: np.ndarray, rho2: np.ndarray, traceless: bool = True) -> float:
    """Worst-case error of the singlet product rule over all 16 index pairs.

    The contraction ``sum_n R1[m,n] R2[n,k]`` over n = 1..3 equals
    ``Tr[(rho1 x rho2) sigma_m^(a1) x (1 - 4 P^-)_(b1 a2) x sigma_k^(b2)]``;
    extending the sum to n = 0 replaces the middle factor by
    ``(2 - 4 P^-)``.  ``traceless`` selects which variant to test.
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    R1, R2 = to_correlation(rho1), to_correlation(rho2)
    w = np.kron(rho1, rho2)
    lo = 1 if traceless else 0
    mid = (1.0 if traceless else 2.0) * np.eye(4) - 4.0 * P_MINUS
    worst = 0.0
    for m in range(4):
        for k in range(4):
            lhs = float(R1[m, lo:] @ R2[lo:, k])
            op = np.kron(np.kron(PAULI[m], mid), PAULI[k])
            rhs = complex(np.einsum("ij,ji->", op, w))
            worst = max(worst, abs(lhs - rhs))
    return worst
