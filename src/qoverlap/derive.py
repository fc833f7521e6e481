"""Rederivation of distance functionals as graph-probability polynomials.

Every quantity the interferometer estimates — purities, overlaps, the
difference-moments Pi_n, the fourth-order cross overlaps — is a linear
combination of products of measurement-graph probabilities.  This module
recovers those combinations numerically: it builds the monomial basis,
seeds each target's support from its symbolic word expansion, fits the
coefficients on random state ensembles from thin SVDs of the design
matrix's columns (a minimum-norm fit plus the kernel's free directions),
snaps them onto the thirds grid they empirically live on, certifies the
result with exact rational arithmetic, and compares the resulting
measurement counts against the reference workflow counts.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm, prod
from types import MappingProxyType
from typing import Iterable, NamedTuple

import numpy as np

from .core import PAULI2, ginibre_states, to_correlation, trace_tensor
from .graphs import (
    MeasurementGraph,
    Numerators,
    class_indices,
    component_labels,
    enumerate_classes,
    exact_numerators,
    exact_probabilities,
    matching_partners,
    matching_table,
    orbit_codes,
    probability_matrix,
)
from . import interferometer
from .overlaps import TARGETS, Arithmetic, Target

__all__ = [
    "MonomialBasis",
    "CoefficientVector",
    "ResidualError",
    "build_basis",
    "fit_coefficients",
    "derive_targets",
    "measurement_forms",
    "Claim",
    "ClaimReport",
    "verify_table_claims",
]

SNAP_TOL = 1e-7          # distance to the nearest k/3 at which we snap
FIT_TOL = 1e-9           # max residual for a support to count as exact
HOLDOUT_TOL = 1e-8       # contract: held-out residual bound
HOLDOUT_PAIRS = 500
EXACT_CHECK_PAIRS = 24   # rational state pairs used for certification


class ResidualError(RuntimeError):
    """No representation found: held-out residual exceeded the bound."""


# ---------------------------------------------------------------------------
# Basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonomialBasis:
    """Graph classes plus the monomials (index multisets) built on them.

    ``monomials[k]`` is a sorted tuple of indices into ``graphs``; the
    empty tuple is the constant 1.  Each monomial's total copy count is
    capped at four — the largest simultaneous experiment considered.
    """

    graphs: tuple[MeasurementGraph, ...]
    monomials: tuple[tuple[int, ...], ...]
    max_copies: int

    @property
    def n_monomials(self) -> int:
        return len(self.monomials)

    def monomial_copies(self, k: int) -> int:
        return sum(self.graphs[i].n_copies for i in self.monomials[k])

    def graph_matrix(self, R1s: np.ndarray, R2s: np.ndarray) -> np.ndarray:
        """(n_graphs, S) matrix of every class probability on the batch, the classes sharing their ring halves."""
        return probability_matrix(self.graphs, R1s, R2s)

    def design_matrix(self, P: np.ndarray) -> np.ndarray:
        """(S, n_monomials) matrix of monomial values from the (n_graphs, S) class probabilities.

        Filled one monomial row at a time and returned transposed, so the
        columns are contiguous.
        """
        A = np.empty((self.n_monomials, P.shape[1]))
        for k in range(self.n_monomials):
            A[k] = self.column(k, P)
        return A.T

    def column(self, k: int, P: np.ndarray) -> np.ndarray:
        """Values of monomial ``k`` from the (n_graphs, S) class probabilities."""
        col = np.ones(P.shape[1])
        for i in self.monomials[k]:
            col = col * P[i]
        return col

    def classes(self, support) -> set[int]:
        """Indices of the graph classes the monomials in ``support`` use."""
        return {i for k in support for i in self.monomials[k]}

    def monomial_string(self, k: int) -> str:
        mono = self.monomials[k]
        if not mono:
            return "1"
        parts = []
        for i in sorted(set(mono)):
            power = mono.count(i)
            s = f"g[{self.graphs[i]!s}]"
            parts.append(s if power == 1 else s + f"^{power}")
        return "*".join(parts)

    def index_of_graph(self, graph: MeasurementGraph) -> int:
        key = graph.canonical().key()
        for i, g in enumerate(self.graphs):
            if g.key() == key:
                return i
        raise KeyError(f"graph {graph!s} not in basis")


@lru_cache(maxsize=None)
def build_basis(max_copies: int) -> MonomialBasis:
    """Monomial basis over the connected graph classes.

    ``max_copies`` is 2 (enough for purities, first-order overlaps and
    Pi_2) or 4 (fourth-order overlaps and the higher moments).  Monomials
    are all multisets of classes whose copy counts sum to at most four.
    The basis is built once per ``max_copies`` and process; later calls
    return the same object, so the fits share one design-matrix cache
    entry per ensemble.
    """
    if max_copies not in (2, 4):
        raise ValueError("max_copies must be 2 or 4")
    graphs = tuple(g for g in enumerate_classes(4) if g.n_copies <= max_copies)
    copies = [g.n_copies for g in graphs]
    monomials: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], start: int, budget: int) -> None:
        monomials.append(prefix)
        for i in range(start, len(graphs)):
            if copies[i] <= budget:
                extend(prefix + (i,), i, budget - copies[i])

    extend((), 0, 4)
    monomials.sort(key=lambda m: (sum(copies[i] for i in m), len(m), m))
    return MonomialBasis(graphs, tuple(monomials), max_copies)


# ---------------------------------------------------------------------------
# Systematic supports: Pauli trace kernels expanded over slot matchings
# ---------------------------------------------------------------------------
#
# Any word Tr[rho_{s1} ... rho_{sk}] is a Bloch sum
#     4^-k sum_{m,n} prod_j R_{s_j}[m_j, n_j] * Re(t_k[m] t_k[n])
# where t_k[a1..ak] = Tr[sigma_a1 ... sigma_ak].  The kernel Re(t x t)
# lies in the span of "matching tensors": pick a perfect or partial
# matching of the 2k index slots, require matched slots equal and
# unmatched slots zero.  Expanding each matched pair through the edge
# identity sum_m eta_m R1[m,u] R2[m,v] = 2 - 4 p_edge turns every
# matching into an inclusion-exclusion over measurement graphs, which is
# how the candidate supports below are produced.


def _matching_gram(
    matchings: list[tuple[tuple[int, int], ...]], n: int, rows: Iterable[int] | None = None
) -> np.ndarray:
    """Inner products of the matching tensors D_M on ``n`` slots of 4 values.

    <D_a, D_b> is 4 to the number of components of the union of the two
    matchings in which every slot is covered by both (the free index
    groups); any other component is pinned to 0.  Built one row a at a
    time, for the matchings ``rows`` (default all), against every b: a
    slot starts with its own number, or -1 when it is pinned, and each
    slot takes the least value of its neighbours along a's edges and then
    along b's.  A component is a path or cycle of at most n slots whose
    edges alternate between the two matchings, so n // 2 such rounds give
    every slot the least value of its component, and a free component is
    one whose smallest slot still holds itself.
    """
    m = len(matchings)
    rows = range(m) if rows is None else list(rows)
    slots = np.arange(n)
    partner = matching_partners(matchings, n)
    covered = partner != slots
    flat_partner = (partner + n * np.arange(m)[:, None]).ravel()
    G = np.empty((len(rows), m))
    for r, a in enumerate(rows):
        label = np.where(covered[a] & covered, slots, -1)
        for _ in range(n // 2):
            label = np.minimum(label, label[:, partner[a]])
            label = np.minimum(label, label.take(flat_partner).reshape(m, n))
        G[r] = 4.0 ** (label == slots).sum(axis=1)
    return G


def _slot_symmetries(k: int) -> np.ndarray:
    """Slot permutations fixing Re(t_k x t_k), one row ``perm`` (slot s -> perm[s]) each.

    t_k is invariant under rotating its word and becomes its complex
    conjugate when the word is reversed (the Paulis are Hermitian), so
    Re(t[m] t[n]) is fixed by rotating either word, by reversing both
    and by swapping the two: 4 k^2 rows, 64 distinct for k = 4.
    """
    word, n = np.arange(k), 2 * k
    perms = []
    for r1, r2, reverse, swap in product(range(k), range(k), (False, True), (False, True)):
        perm = np.concatenate([(word + r1) % k, (word + r2) % k + k])
        if reverse:
            perm = np.where(perm < k, k - 1 - perm, 3 * k - 1 - perm)
        if swap:
            perm = (perm + k) % n
        perms.append(perm)
    return np.array(perms)


@lru_cache(maxsize=None)
def _matching_kernel(k: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], np.ndarray]:
    """Coefficients c with Re(t_k x t_k) = sum_M c[M] * D_M.

    Slots 0..k-1 are the row word, k..2k-1 the column word.  D_M is 1
    where all matched slot pairs agree and every unmatched slot is 0.
    For k = 4 the matching tensors are linearly dependent and c is the
    minimum-norm solution of the Gram system G c = <D, kern>.  The
    kernel and G are invariant under the slot symmetries, so that
    solution is constant on the orbits of the matchings (42 of 764 for
    k = 4, :func:`~qoverlap.graphs.matching_orbits`): with x[O] its value
    on orbit O, the rows of one member per orbit, their Gram entries
    (:func:`_matching_gram`) summed over each orbit, give B x = rhs, and
    since ||c||^2 = sum_O |O| x[O]^2, c comes from the minimum-norm
    z = sqrt(|O|) x of B[P, O] / sqrt(|O|) z = rhs.  The expansion is
    verified pointwise: the flat indices of the entries where each D_M
    is 1 are, per edge count e, the 4**e digit rows times the matching's
    edge strides, and the coefficients add up on them by ``bincount``.
    """
    t = trace_tensor(k)
    kern = np.multiply.outer(t, t).real.ravel()
    n = 2 * k
    matchings, partner = matching_table(n)
    _, members, orbit = np.unique(orbit_codes(partner, _slot_symmetries(k)), return_index=True, return_inverse=True)
    slots = np.arange(n)
    lead = partner > slots  # each edge at its smaller slot, in the matching's edge order
    stride = 4 ** slots[::-1] + 4 ** (n - 1 - partner)
    edges = lead.sum(axis=1)
    owner, flat = [], []
    for e in range(k + 1):
        rows = np.flatnonzero(edges == e)
        owner.append(np.repeat(rows, 4**e))
        flat.append((stride[rows][lead[rows]].reshape(len(rows), e) @ np.indices((4,) * e).reshape(e, 4**e)).ravel())
    owner, flat = np.concatenate(owner), np.concatenate(flat)

    w = np.sqrt(np.bincount(orbit))
    rhs = np.bincount(owner, weights=kern[flat], minlength=len(partner))[members]
    B = _matching_gram(matchings, n, members) @ (orbit[:, None] == np.arange(len(members)))
    z, *_ = np.linalg.lstsq(B / w, rhs, rcond=None)
    c = (z / w)[orbit]

    weights = np.where(np.abs(c) >= 1e-12, c, 0.0)[owner]
    err = float(np.abs(np.bincount(flat, weights=weights, minlength=len(kern)) - kern).max())
    if err > 1e-9:
        raise RuntimeError(f"trace kernel expansion failed for k={k}: error {err:.3e}")
    return matchings, c


@lru_cache(maxsize=None)
def _submatchings(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The edge subsets of every trace-kernel matching of a length-``k`` word, found once per length.

    Kernel slot j lifts to the a mode of copy j (j < k) or the b mode of
    copy j-k (j >= k); each matching of :func:`_matching_kernel` then is
    an edge set on the word's k copies.  The per-edge identity converts
    the matching's unweighted Bloch sum into graph probabilities by
    inclusion-exclusion over its edge subsets: r of its n edges weigh
    4^(n-k) (-1)^r 2^(r-n) times the matching's coefficient.  The terms
    run in matching order, each matching's subsets as ``combinations``
    of its edges for r = 0..n, and each is a partner row on the copies'
    modes.  Returns the distinct subsets (sub-matchings) in order of
    first appearance, each as its components' partner rows (``(subset,
    k, 2k)``: row j holds the component whose least copy is j, found by
    :func:`~qoverlap.graphs.component_labels`, or no edge), and per term
    its matching, its sub-matching and its factor.  None of this depends
    on the word's letters or the kernel's coefficients.
    """
    n = 2 * k
    partner = matching_table(n).partner
    slots = np.arange(n)
    lift = np.concatenate([2 * slots[:k], 2 * slots[:k] + 1])  # the mode of each kernel slot
    leads = partner > slots  # each edge at its smaller slot, in the matching's edge order
    lead_mode = lift[np.argsort(~leads, axis=1, kind="stable")[:, :k]]  # edge i's mode at its smaller slot
    mode_partner = np.empty_like(partner)
    mode_partner[:, lift] = lift[partner]
    edges = leads.sum(axis=1)
    choose = np.zeros((k + 1, 2**k, k), dtype=bool)  # per edge count, its subsets in ``combinations`` order
    for e in range(k + 1):
        subsets = [c for r in range(e + 1) for c in combinations(range(e), r)]
        for i, chosen in enumerate(subsets):
            choose[e, i, list(chosen)] = True
    size = 2**edges
    matching = np.repeat(np.arange(len(partner)), size)
    chosen = choose[edges[matching], np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)]
    terms = np.tile(slots, (len(matching), 1))
    for i in range(k):
        rows = np.flatnonzero(chosen[:, i])
        u = lead_mode[matching[rows], i]
        v = mode_partner[matching[rows], u]
        terms[rows, u], terms[rows, v] = v, u
    r, m = chosen.sum(axis=1), edges[matching]
    factor = 4.0 ** (m - k) * (-1.0) ** r * 2.0 ** (r - m)
    _, first, inverse = np.unique(terms @ n ** slots, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    distinct = terms[np.sort(first)]
    label = component_labels(distinct)
    parts = np.where(label[:, None, :] == np.arange(k)[:, None], distinct[:, None, :], slots)
    return parts, matching, rank[inverse], factor


@lru_cache(maxsize=None)
def _word_monomials(word: tuple[int, ...]) -> dict[tuple[tuple, ...], float]:
    """Graph-probability monomials spanning Tr[rho_{s1} ... rho_{sk}].

    The inclusion-exclusion terms of the trace kernel's matchings
    (:func:`_submatchings`) are shared by every word of length k; the
    word only names the state of each copy.  The sub-matchings reached
    by a matching with a coefficient of at least 1e-9 have their
    components' classes looked up in one
    :func:`~qoverlap.graphs.class_indices` call; a monomial is a sorted
    row of class indices, found by ``np.unique``, and is keyed by the
    sorted tuple of its classes' keys (empty tuple = the constant term).
    The terms add up per monomial by ``bincount`` in matching order,
    rounding noise included; :func:`_symbolic_support` keeps the
    monomials whose total over a target's words is not noise.
    """
    k = len(word)
    c = _matching_kernel(k)[1]
    parts, matching, sub, factor = _submatchings(k)
    kept = np.abs(c[matching]) >= 1e-9
    reached = np.flatnonzero(np.bincount(sub[kept], minlength=len(parts)))
    components = parts[reached]
    edged = (components != np.arange(2 * k)).any(axis=2)
    classes = np.full(edged.shape, -1)
    classes[edged] = class_indices(components[edged], word)
    keys = [g.key() for g in enumerate_classes(4)]
    rows = np.sort(classes, axis=1)
    _, first, inverse = np.unique((rows + 1) @ (len(keys) + 1) ** np.arange(k), return_index=True, return_inverse=True)
    mono_of_sub = np.zeros(len(parts), dtype=int)
    mono_of_sub[reached] = inverse
    totals = np.bincount(mono_of_sub[sub[kept]], weights=c[matching[kept]] * factor[kept]).tolist()
    # in order of first appearance, as the sub-matchings reach them
    return {
        tuple(sorted(keys[i] for i in rows[first[m]] if i >= 0)): totals[m] for m in np.argsort(first).tolist()
    }


def _symbolic_support(target: str, basis: MonomialBasis) -> list[int] | None:
    """Candidate monomial support of ``target``, from its word expansion.

    The monomials whose total over the target's signed words is not
    rounding noise; an empty expansion (the constant target) is the
    constant monomial.  None when a word is longer than the basis has
    copies, since its monomials are then not in the basis.
    """
    words = TARGETS[target].words
    if not words:
        return [basis.monomials.index(())]
    if max(len(w) for _, w in words) > basis.max_copies:
        return None
    total: dict[tuple[tuple, ...], float] = {}
    for weight, word in words:
        for mono, v in _word_monomials(word).items():
            total[mono] = total.get(mono, 0.0) + weight * v
    key_to_idx = {g.key(): i for i, g in enumerate(basis.graphs)}
    position = {mono: pos for pos, mono in enumerate(basis.monomials)}
    support = set()
    for mono, v in total.items():
        if abs(v) < 1e-9:
            continue
        idx = tuple(sorted(key_to_idx[key] for key in mono))
        support.add(position[idx])
    return sorted(support)


# ---------------------------------------------------------------------------
# Exact rational arithmetic (certification of snapped coefficients)
# ---------------------------------------------------------------------------

_P2_RE = np.round(PAULI2.real).astype(int)
_P2_IM = np.round(PAULI2.imag).astype(int)


class _Rational(NamedTuple):
    """Exact complex matrix (re + i im) / den, entries Python integers."""

    re: np.ndarray
    im: np.ndarray
    den: int


def _rational_state(rng: np.random.Generator) -> _Rational:
    """Random density matrix with exactly rational entries, over its trace."""
    while True:
        a = rng.integers(-2, 3, (4, 4))
        b = rng.integers(-2, 3, (4, 4))
        re = a @ a.T + b @ b.T
        im = b @ a.T - a @ b.T
        t = int(np.trace(re))
        if t > 0:
            break
    return _Rational(re.astype(object), im.astype(object), t)


#: Exact arithmetic on the integer matrices of :func:`_rational_state`.
EXACT = Arithmetic(
    one=Fraction(1),
    identity=_Rational(np.eye(4, dtype=int).astype(object), np.zeros((4, 4), dtype=object), 1),
    mul=lambda x, y: _Rational(
        x.re.dot(y.re) - x.im.dot(y.im), x.re.dot(y.im) + x.im.dot(y.re), x.den * y.den
    ),
    sub=lambda x, y: _Rational(
        x.re * y.den - y.re * x.den, x.im * y.den - y.im * x.den, x.den * y.den
    ),
    trace=lambda x: Fraction(int(np.trace(x.re)), x.den),
)


def _rat_correlation(rho: _Rational) -> list[list[Fraction]]:
    """Exact correlation matrix R[m, n] = Tr[rho sigma_m x sigma_n].

    Its numerators over the trace are bounded by the trace, at most 128
    for :func:`_rational_state`, so the integer contraction is exact in
    int64.
    """
    re, im = rho.re.astype(np.int64), rho.im.astype(np.int64)
    N = np.einsum("ij,mnji->mn", re, _P2_RE) - np.einsum("ij,mnji->mn", im, _P2_IM)
    return [[Fraction(int(v), rho.den) for v in row] for row in N]


@lru_cache(maxsize=None)
def _certification_pairs(seed: int) -> tuple[tuple[_Rational, _Rational, Numerators, Numerators], ...]:
    """The ``EXACT_CHECK_PAIRS`` rational state pairs every fit at ``seed`` is certified on.

    Drawn from ``default_rng(seed + 1)``, first state then second, with
    the integer numerators of their correlation matrices; once per seed
    and process.
    """
    crng = np.random.default_rng(seed + 1)
    pairs = []
    for _ in range(EXACT_CHECK_PAIRS):
        q1, q2 = _rational_state(crng), _rational_state(crng)
        pairs.append((q1, q2, *(exact_numerators(_rat_correlation(q)) for q in (q1, q2))))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _exact_probabilities(seed: int) -> MappingProxyType:
    """Exact probabilities of every class on the certification pairs of ``seed``, by class.

    Every class of :func:`enumerate_classes` is evaluated once per seed,
    all on all pairs as one batch of shared ring halves
    (:func:`exact_probabilities`); the mapping is read-only.
    """
    classes = enumerate_classes(4)
    pairs = [(N1, N2) for _, _, N1, N2 in _certification_pairs(seed)]
    return MappingProxyType(dict(zip(classes, exact_probabilities(classes, pairs))))


def _certified(oracle: Target, basis: MonomialBasis, entries: dict[int, Fraction], seed: int) -> bool:
    """Whether the rational combination ``entries`` equals ``oracle`` on each certification pair of ``seed``.

    The sums are integer work.  On each pair the shared class
    probabilities (:func:`_exact_probabilities`) are numerators over one
    common denominator ``D``, so a monomial of degree ``k`` is a product of
    numerators over ``D^k``; scaled to ``D^K`` (``K`` the highest degree)
    and weighted by the coefficients times their common denominator ``L``,
    the monomials sum to one integer, which equals ``L D^K`` times the
    target's exact value on the pair when the fit holds.  That is checked
    by cross-multiplication, and the first mismatch decides.
    """
    classes = basis.classes(entries)
    table = _exact_probabilities(seed)
    probs = {i: table[basis.graphs[i]] for i in classes}
    scale = lcm(*(c.denominator for c in entries.values()))
    terms = [(int(c * scale), basis.monomials[k]) for k, c in entries.items()]
    top = max(len(monomial) for _, monomial in terms)
    for p, (q1, q2, _, _) in enumerate(_certification_pairs(seed)):
        den = lcm(*(probs[i][p].denominator for i in classes))
        num = {i: probs[i][p].numerator * (den // probs[i][p].denominator) for i in classes}
        total = sum(c * prod(num[i] for i in monomial) * den ** (top - len(monomial)) for c, monomial in terms)
        want = oracle(q1, q2, EXACT)
        if total * want.denominator != scale * den**top * want.numerator:
            return False
    return True


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientVector:
    """Sparse decomposition of a target functional over basis monomials."""

    target: str
    basis: MonomialBasis
    entries: dict[int, Fraction | float]
    residual: float
    non_unique: bool
    all_rational: bool
    exact_certified: bool

    @property
    def denominators_divide_3(self) -> bool:
        return all(
            isinstance(c, Fraction) and c.denominator in (1, 3) for c in self.entries.values()
        )

    def support_graphs(self) -> tuple[int, ...]:
        return tuple(sorted(self.basis.classes(self.entries)))

    def as_form(self) -> list[tuple[float, tuple[MeasurementGraph, ...]]]:
        return [
            (float(c), tuple(self.basis.graphs[i] for i in self.basis.monomials[k]))
            for k, c in sorted(self.entries.items())
        ]

    def evaluate_batch(self, R1s: np.ndarray, R2s: np.ndarray) -> np.ndarray:
        return _predict(self.basis, self.entries, self.basis.graph_matrix(R1s, R2s))

    def as_table(self) -> str:
        """One line per monomial: coefficient as p/q, then the monomial."""
        lines = [f"# target: {self.target}"]
        for k in sorted(self.entries):
            c = self.entries[k]
            if isinstance(c, Fraction):
                cs = f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)
            else:
                cs = repr(c)
            lines.append(f"{cs}\t{self.basis.monomial_string(k)}")
        return "\n".join(lines) + "\n"


def _predict(basis: MonomialBasis, entries: dict, P: np.ndarray) -> np.ndarray:
    """Values of the combination ``entries`` from the (n_graphs, S) class probabilities."""
    out = np.zeros(P.shape[1])
    for k, c in entries.items():
        out += float(c) * basis.column(k, P)
    return out


def _sample_ensemble(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``n`` Ginibre pairs: all first states, then all second states.

    Returns the two (n, 4, 4) stacks of correlation matrices and the two
    (n, 4, 4) stacks of density matrices.
    """
    rhos1 = ginibre_states(rng, (n,))
    rhos2 = ginibre_states(rng, (n,))
    return to_correlation(rhos1), to_correlation(rhos2), rhos1, rhos2


@lru_cache(maxsize=None)
def _design_context(basis: MonomialBasis, samples: int, seed: int):
    """Fit and held-out ensembles, the design matrix and its rank, once per argument set.

    ``default_rng(seed)`` draws the ``samples`` fit pairs, then the
    ``HOLDOUT_PAIRS`` held-out pairs.  Both are evaluated as one batch,
    every class from the batch's shared ring halves; the design matrix is
    built from the fit pairs' class probabilities, and the held-out
    block is copied out, so the joint matrix is freed.
    :func:`build_basis` returns one basis per copy count and process, so
    the fits on one basis share an entry and skip redrawing the ensembles
    and rebuilding the design matrix.
    """
    rng = np.random.default_rng(seed)
    R1s, R2s, rhos1, rhos2 = _sample_ensemble(rng, samples)
    H1s, H2s, h1, h2 = _sample_ensemble(rng, HOLDOUT_PAIRS)
    P = basis.graph_matrix(np.concatenate([R1s, H1s]), np.concatenate([R2s, H2s]))
    A, P_hold = basis.design_matrix(P[:, :samples]), P[:, samples:].copy()
    del P
    rank = int(np.linalg.matrix_rank(A, tol=1e-8))
    return A, rhos1, rhos2, rank, P_hold, h1, h2


def _kernel_form(A: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm fit ``c0`` of y on A's columns and an orthonormal basis ``N`` of A's kernel.

    One thin SVD of A, with the rank cut of :func:`_design_context`.
    Every fit with A's residual is then ``c0 + N @ z``.
    """
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    r = int((s > 1e-8).sum())
    return Vt[:r].T @ (U[:, :r].T @ y / s[:r]), Vt[r:].T


def _exact_fit(
    A: np.ndarray, y: np.ndarray, c0: np.ndarray, N: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimum-norm fit of y on the columns of A in the mask ``keep``, from A's kernel form.

    The z that makes ``c0 + N @ z`` vanish off ``keep`` solves
    ``N[~keep] z = -c0[~keep]``: a row per dropped column and one unknown
    per kernel direction.  It is solved in least squares with singular
    values up to ``FIT_TOL`` cut; since c0 is orthogonal to the kernel,
    the minimum-norm z gives the minimum-norm coefficients.  Returns them
    (0 off ``keep``), the free directions left (an orthonormal basis of
    the kernel of ``A[:, keep]``, one column each) and the max residual
    over every row of A, which is below ``FIT_TOL`` only for an exact fit.
    """
    drop, k = ~keep, N.shape[1]
    # k zero rows make the system at least k tall, so Vt spans all of z's space.
    U, s, Vt = np.linalg.svd(np.vstack([N[drop], np.zeros((k, k))]), full_matrices=False)
    r = int((s > FIT_TOL).sum())
    z = -Vt[:r].T @ (U[: drop.sum(), :r].T @ c0[drop] / s[:r])
    coef = np.where(keep, c0 + N @ z, 0.0)
    return coef, N @ Vt[r:].T, float(np.abs(A @ coef - y).max())


def _prune(
    A: np.ndarray, y: np.ndarray, support: list[int]
) -> tuple[list[int], np.ndarray, float]:
    """Drop columns whose removal keeps the fit exact, until stable.

    The seed's own fit is the minimum-norm fit on every column of
    ``support``; when its max residual over every row of A is not below
    ``FIT_TOL``, nothing is dropped.  Otherwise each round takes the
    minimum-norm coefficients on the columns left and tries the columns
    by coefficient magnitude, then by position.  The first column whose
    removal leaves the max residual below ``FIT_TOL`` is dropped, and the
    round restarts.  Every fit is an :func:`_exact_fit` in the kernel of
    ``A[:, support]``.  A column that no free direction moves keeps its
    coefficient in every exact fit on fewer columns, so unless that is 0
    it is not tried.  Returns the kept columns, their minimum-norm
    coefficients and the seed fit's max residual.
    """
    support = list(support)
    S = A[:, support]
    c0, N = _kernel_form(S, y)
    seed_res = float(np.abs(S @ c0 - y).max())
    keep, coef, free = np.ones(len(support), dtype=bool), c0, N
    while seed_res < FIT_TOL and keep.sum() > 1:
        weight = np.abs(coef)
        stuck = (np.linalg.norm(free, axis=1) < FIT_TOL) & (weight >= FIT_TOL)
        order = sorted(np.flatnonzero(keep & ~stuck), key=lambda p: (weight[p], p))
        for p in order:
            trial = keep.copy()
            trial[p] = False
            fit = _exact_fit(S, y, c0, N, trial)
            if fit[2] < FIT_TOL:
                keep, (coef, free, _) = trial, fit
                break
        else:
            break
    return [col for col, kept in zip(support, keep) if kept], coef[keep], seed_res


def _avoid_classes(
    A: np.ndarray, y: np.ndarray, basis: MonomialBasis, keep: frozenset[int]
) -> list[int]:
    """Columns left after greedily banning graph classes outside ``keep``.

    A class is banned when the target still has an exact representation
    on the monomials that never mention it (:func:`_exact_fit` in the
    kernel of all of A).  Feasibility is algebraic (the residual either
    stays at solver noise or jumps by orders of magnitude), so the
    rarest-class-first scan is stable across sample ensembles.
    """
    usage = Counter(i for mono in basis.monomials for i in set(mono))
    outside = sorted(set(usage) - keep, key=lambda i: (usage[i], i))
    c0, N = _kernel_form(A, y)
    columns = np.ones(basis.n_monomials, dtype=bool)
    for cls in outside:
        trial = columns & np.array([cls not in mono for mono in basis.monomials])
        if _exact_fit(A, y, c0, N, trial)[2] < FIT_TOL:
            columns = trial
    return np.flatnonzero(columns).tolist()


def fit_coefficients(
    target: str,
    basis: MonomialBasis,
    samples: int,
    seed: int = 42,
    prefer_classes: frozenset[int] | None = None,
) -> CoefficientVector:
    """Fit ``target`` as a sparse rational combination of basis monomials.

    Random Ginibre state pairs give an overdetermined linear system for
    the monomial coefficients.  The seed support comes from the
    Pauli-trace-kernel word expansion (:func:`_symbolic_support`) or,
    with ``prefer_classes``, from banning classes outside that set
    whenever a representation survives without them
    (:func:`_avoid_classes`, used to keep the moment workflows on a
    shared class set).  A seed that fits exactly is pruned to a locally
    minimal support, whose minimum-norm coefficients are the fit; any
    other seed, or none, raises :class:`ResidualError`.  The monomials
    are linearly dependent on the four-copy basis, so solutions are
    non-unique and flagged as such.
    Coefficients within 1e-7 of a third are snapped, and the snapped
    identity is checked with exact rational arithmetic on the
    ``EXACT_CHECK_PAIRS`` random rational state pairs of ``seed``
    (:func:`_certified`); the pairs and each class's exact probabilities
    on them are computed once per seed and shared by every fit, while
    the target's exact values are taken per fit.  On a mismatch the fit
    keeps its float minimum-norm coefficients and is flagged neither
    rational nor certified.  Either way the fit must reproduce the
    target on 500 held-out pairs to 1e-8, else :class:`ResidualError`.
    The design matrix, its rank and the held-out class probabilities
    come from :func:`_design_context`, shared by every fit on one basis,
    sample count and seed.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; known: {sorted(TARGETS)}")
    if samples < 2 * basis.n_monomials:
        raise ValueError(
            f"need at least {2 * basis.n_monomials} samples for {basis.n_monomials} monomials"
        )
    oracle = TARGETS[target]
    A, rhos1, rhos2, rank, P_hold, h1, h2 = _design_context(basis, samples, seed)
    y = np.full(len(rhos1), oracle(rhos1, rhos2))
    non_unique = rank < basis.n_monomials

    if prefer_classes is None:
        seeded = _symbolic_support(target, basis)
    else:
        seeded = _avoid_classes(A, y, basis, prefer_classes)
    if seeded is None:
        raise ResidualError(
            f"no candidate support found for {target!r} on this basis (no seed applies)"
        )
    support, coef, seed_res = _prune(A, y, seeded)
    if seed_res >= FIT_TOL:
        raise ResidualError(
            f"no candidate support found for {target!r} on this basis "
            f"(seeded residual {seed_res:.3e} exceeds {FIT_TOL})"
        )

    # Snap to the thirds grid.
    entries: dict[int, Fraction | float] = {}
    all_rational = True
    for k, c in zip(support, coef):
        snapped = Fraction(round(3 * c), 3)
        if abs(c - float(snapped)) >= SNAP_TOL:
            entries[k] = float(c)
            all_rational = False
        elif snapped:  # a coefficient that snaps to 0 leaves the fit
            entries[k] = snapped

    # Certify exactly on rational states; a mismatch keeps the float fit.
    exact_certified = False
    if all_rational and entries:
        exact_certified = all_rational = _certified(oracle, basis, entries, seed)
        if not exact_certified:
            entries = {k: float(c) for k, c in zip(support, coef) if abs(c) > 1e-10}

    # Held-out validation on fresh pairs (graph probabilities reused
    # across monomials through the precomputed class matrix).
    y_h = np.full(len(h1), oracle(h1, h2))
    pred = _predict(basis, entries, P_hold)
    residual = float(np.abs(pred - y_h).max()) if entries else float(np.abs(y_h).max())
    if residual >= HOLDOUT_TOL:
        raise ResidualError(
            f"representation of {target!r} failed held-out validation: "
            f"max residual {residual:.3e} >= {HOLDOUT_TOL}"
        )
    return CoefficientVector(
        target=target,
        basis=basis,
        entries=entries,
        residual=residual,
        non_unique=non_unique,
        all_rational=all_rational,
        exact_certified=exact_certified,
    )


#: Ensemble pairs per basis copy count: above twice the basis's monomials (247 and 554) plus 100.
_SAMPLES = {2: 600, 4: 1400}


def derive_targets(targets: Iterable[str] | None = None, seed: int = 42) -> dict[str, CoefficientVector]:
    """Fit ``targets`` (default: every target) and return the fits in table order.

    Each target is fitted on the basis its words need.  A target with
    ``prefer`` (the quartic moment) is steered onto the classes those fits
    require, keeping the trace-distance workflow on as few distinct
    projective measurements as its representation allows; they are fitted
    first even when not requested, and only requested fits are returned.
    """
    wanted = list(TARGETS) if targets is None else list(targets)
    unknown = sorted(set(wanted) - set(TARGETS))
    if unknown:
        raise ValueError(f"unknown targets {unknown}; known: {sorted(TARGETS)}")
    needed = set(wanted) | {p for t in wanted for p in TARGETS[t].prefer}
    bases = {c: build_basis(c) for c in sorted({TARGETS[t].copies for t in needed})}
    fits: dict[str, CoefficientVector] = {}
    for name, target in TARGETS.items():
        if name not in needed:
            continue
        basis = bases[target.copies]
        prefer = frozenset(
            basis.index_of_graph(fits[t].basis.graphs[i])
            for t in target.prefer
            for i in fits[t].support_graphs()
        ) if target.prefer else None
        fits[name] = fit_coefficients(
            name, basis, samples=_SAMPLES[target.copies], seed=seed, prefer_classes=prefer
        )
    return {t: fit for t, fit in fits.items() if t in wanted}


def measurement_forms() -> dict[str, list[tuple[float, tuple[MeasurementGraph, ...]]]]:
    """Graph decompositions of the six estimator statistics, fitted at seed 42.

    The ``target -> [(coefficient, graphs)]`` shape that
    :func:`qoverlap.interferometer.estimate_distances` expects.
    """
    fits = derive_targets(interferometer.STAT_NAMES)
    return {t: fit.as_form() for t, fit in fits.items()}


# ---------------------------------------------------------------------------
# Workflow claim verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    workflow: str
    quantity: str
    stated: int
    achieved: int
    note: str = ""

    @property
    def match(self) -> bool:
        return self.stated == self.achieved

    def line(self) -> str:
        status = "match" if self.match else "MISMATCH"
        extra = f"  ({self.note})" if self.note else ""
        return (
            f"{self.workflow:>14s} | {self.quantity:<24s} | stated {self.stated:>3d} "
            f"| achieved {self.achieved:>3d} | {status}{extra}"
        )


@dataclass(frozen=True)
class ClaimReport:
    claims: tuple[Claim, ...]

    @property
    def all_match(self) -> bool:
        return all(c.match for c in self.claims)

    def as_text(self) -> str:
        return "\n".join(c.line() for c in self.claims) + "\n"


def verify_table_claims(fits: dict[str, CoefficientVector]) -> ClaimReport:
    """Compare measurement counts of the fitted workflows to the stated ones.

    Counting conventions (emitted, never silently assumed): a
    "projection" is one distinct graph class appearing in a workflow's
    decompositions; the Hilbert-Schmidt workflow additionally counts the
    one reference intensity measurement every coincidence rate is
    normalized against, reconciling its 9 prime statistics with the
    stated 10; photon pairs are copies summed over the maximal graphs
    the planner actually configures.  That "achieved" photon-pair count
    is the planner's total, an upper bound on the least any plan needs,
    not a proven minimum.  Mismatches are reported with the achieved
    number, never suppressed.
    """
    missing = [t for t in ("pi2", "pi3", "pi4", "o2") if t not in fits]
    if missing:
        raise ValueError(f"claim verification needs fits for {missing}")

    def class_map(names: tuple[str, ...]) -> list[MeasurementGraph]:
        out: dict[tuple, MeasurementGraph] = {}
        for name in names:
            fit = fits[name]
            for i in fit.support_graphs():
                g = fit.basis.graphs[i]
                out[g.key()] = g
        return [out[k] for k in sorted(out)]

    claims: list[Claim] = []

    h_graphs = class_map(("pi2",))
    plan_h = interferometer.plan_configurations(h_graphs)
    claims.append(Claim("hilbert-schmidt", "prime statistics", 9, len(h_graphs)))
    claims.append(
        Claim(
            "hilbert-schmidt",
            "projective measurements",
            10,
            len(h_graphs) + 1,
            note="graph statistics plus the reference intensity measurement",
        )
    )
    claims.append(Claim("hilbert-schmidt", "photon pairs", 6, plan_h.photon_pairs))

    o2_graphs = class_map(("o2",))
    plan_o2 = interferometer.plan_configurations(o2_graphs)
    claims.append(Claim("subfidelity", "projections", 41, len(o2_graphs)))
    claims.append(Claim("subfidelity", "configurations", 10, len(plan_o2.configurations)))
    claims.append(
        Claim(
            "subfidelity",
            "photon pairs",
            20,
            plan_o2.photon_pairs,
            note="copies summed over maximal graphs",
        )
    )

    t_graphs = class_map(("pi2", "pi3", "pi4"))
    plan_t = interferometer.plan_configurations(t_graphs)
    claims.append(Claim("trace-distance", "projections", 51, len(t_graphs)))
    claims.append(
        Claim(
            "trace-distance",
            "photon pairs",
            104,
            plan_t.photon_pairs,
            note="copies summed over maximal graphs",
        )
    )

    return ClaimReport(tuple(claims))
