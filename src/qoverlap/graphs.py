"""Singlet-projection measurement graphs.

A graph is a matching (set of disjoint edges) on the modes of a
multi-copy layout; each edge is one two-mode singlet projection and the
graph's statistic is the probability that every edge fires at once.
This module enumerates graphs, reduces them to canonical classes under
copy exchange, and evaluates their probabilities, in floats and exactly,
plus the combinatorial counts behind the class bookkeeping.  A connected
graph is a ring or a path over its copies, so its probability is the
trace of a product of their correlation matrices (Ekert et al., PRL 88,
217901, 2002).  :func:`_ring_chain` compiles those rings once per graph
for the interferometer's joint patterns and for every probability here.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .core import ModeLayout

__all__ = [
    "ETA",
    "MeasurementGraph",
    "enumerate_matchings",
    "matching_partners",
    "matching_orbits",
    "count_matchings",
    "is_connected_spanning",
    "enumerate_classes",
    "probability_matrix",
    "probability_batch",
    "exact_probabilities",
    "probability_exact",
    "Numerators",
    "exact_numerators",
    "connected_components",
    "dedup_report",
]

#: Signature of the singlet projector in the Pauli basis:
#: ``P^- = (1/4) sum_i ETA[i] sigma_i x sigma_i``.
ETA = np.array([1.0, -1.0, -1.0, -1.0])


def _normalize_edges(edges) -> tuple[tuple[int, int], ...]:
    out = tuple(sorted(tuple(sorted(map(int, e))) for e in edges))
    return out


@lru_cache(maxsize=None)
def _copy_exchanges(n1: int, n2: int) -> tuple[tuple[int, ...], ...]:
    """Mode maps of every same-state copy exchange on the standard ``(n1, n2)`` layout.

    Entry ``r[m]`` is where mode ``m`` goes: copies of state 1 are
    permuted among themselves, copies of state 2 likewise, and each
    copy's ``a``/``b`` modes follow it.
    """
    maps = []
    for p1 in permutations(range(n1)):
        for p2 in permutations(range(n1, n1 + n2)):
            copy = p1 + p2
            maps.append(tuple(2 * copy[m // 2] + m % 2 for m in range(2 * (n1 + n2))))
    return tuple(maps)


@lru_cache(maxsize=None)
def _exchange_minimum(
    counts: tuple[int, int], edges: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """Least edge tuple among the images of ``edges`` under every mode map of :func:`_copy_exchanges`."""
    return min(
        tuple(sorted((r[i], r[j]) if r[i] < r[j] else (r[j], r[i]) for i, j in edges))
        for r in _copy_exchanges(*counts)
    )


@dataclass(frozen=True)
class MeasurementGraph:
    """A matching of singlet projections over a multi-copy layout."""

    layout: ModeLayout
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        edges = _normalize_edges(self.edges)
        object.__setattr__(self, "edges", edges)
        seen: set[int] = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"edge ({i},{j}) is a loop")
            for k in (i, j):
                if not 0 <= k < self.layout.n_modes:
                    raise ValueError(f"edge endpoint {k} outside layout with {self.layout.n_modes} modes")
                if k in seen:
                    raise ValueError(f"mode {k} appears in two edges; edges must be disjoint")
                seen.add(k)

    def __str__(self) -> str:
        """Printable form ``AxB:(i-j)...``, as the coefficient tables show it."""
        n1, n2 = self.counts()
        return f"{n1}x{n2}:" + "".join(f"({i}-{j})" for i, j in self.edges)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_copies(self) -> int:
        return self.layout.n_copies

    def counts(self) -> tuple[int, int]:
        return self.layout.counts()

    def touched_copies(self) -> tuple[int, ...]:
        touched = {m // 2 for e in self.edges for m in e}
        return tuple(sorted(touched))

    def key(self) -> tuple:
        """Hashable identity: state ids plus the edge tuple."""
        return (self.layout.copies, self.edges)

    def relabel(self, perm: dict[int, int], new_layout: ModeLayout) -> "MeasurementGraph":
        """Move copy ``c`` to position ``perm[c]`` (modes follow their copy)."""
        edges = [
            tuple(2 * perm[m // 2] + (m % 2) for m in e)
            for e in self.edges
        ]
        return MeasurementGraph(new_layout, edges)

    @classmethod
    def _unchecked(cls, layout: ModeLayout, edges: tuple[tuple[int, int], ...]) -> "MeasurementGraph":
        """A graph from edges already normalized and valid on ``layout``."""
        g = object.__new__(cls)
        object.__setattr__(g, "layout", layout)
        object.__setattr__(g, "edges", edges)
        return g

    def _minimal_copies(self) -> tuple[dict[int, int], ModeLayout]:
        """Copy map and layout of :meth:`minimal`: touched copies, state 1 first."""
        touched = self.touched_copies()
        if not touched:
            raise ValueError("the empty graph has no minimal layout")
        order = sorted(touched, key=lambda c: (self.layout.copies[c], c))
        perm = {old: new for new, old in enumerate(order)}
        return perm, ModeLayout(tuple(self.layout.copies[c] for c in order))

    def minimal(self) -> "MeasurementGraph":
        """Drop untouched copies and re-sort into standard layout order."""
        perm, layout = self._minimal_copies()
        return self if layout == self.layout else self.relabel(perm, layout)

    def canonical(self) -> "MeasurementGraph":
        """Lexicographically smallest relabeling under same-state copy exchange.

        The graph moves to its minimal layout, where :func:`_exchange_minimum`
        gives the least edge tuple, once per minimal layout and edges.
        """
        perm, layout = self._minimal_copies()
        edges = _normalize_edges(
            (2 * perm[i // 2] + i % 2, 2 * perm[j // 2] + j % 2) for i, j in self.edges
        )
        return MeasurementGraph._unchecked(layout, _exchange_minimum(layout.counts(), edges))

    def role_swapped(self) -> "MeasurementGraph":
        """The same graph with the two states' roles exchanged."""
        g = self.minimal()
        n1, n2 = g.counts()
        # State-2 copies become state-1 copies and move to the front.
        perm = {i: n2 + i for i in range(n1)}
        perm.update({n1 + i: i for i in range(n2)})
        return g.relabel(perm, ModeLayout.standard(n2, n1))


def enumerate_matchings(modes: list[int]) -> list[tuple[tuple[int, int], ...]]:
    """All matchings (including the empty one) on the given mode list."""
    modes = list(modes)
    if not modes:
        return [()]
    first, rest = modes[0], modes[1:]
    out = list(enumerate_matchings(rest))  # first left unmatched
    for j, partner in enumerate(rest):
        sub = rest[:j] + rest[j + 1 :]
        edge = (first, partner) if first < partner else (partner, first)
        out.extend(_normalize_edges(m + (edge,)) for m in enumerate_matchings(sub))
    return out


def matching_partners(matchings: list[tuple[tuple[int, int], ...]], n: int) -> np.ndarray:
    """Slot partners, one row per matching: v at u for an edge (u, v), else u itself."""
    partner = np.tile(np.arange(n), (len(matchings), 1))
    for b, M in enumerate(matchings):
        for u, v in M:
            partner[b, u], partner[b, v] = v, u
    return partner


def matching_orbits(
    matchings: list[tuple[tuple[int, int], ...]], perms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Orbit number of each matching under a group of slot permutations, and one member per orbit.

    ``perms`` lists the group, one row ``perm`` (slot s -> perm[s]) per
    element.  A permutation maps a matching's partner row p to p' with
    p'[perm[s]] = perm[p[s]]; an orbit is named by its least image read
    as a base-n number, which int64 holds for n <= 15 slots.
    """
    n = perms.shape[1]
    partner = matching_partners(matchings, n)
    images = np.empty((len(perms),) + partner.shape, dtype=np.int64)
    for g, perm in enumerate(perms):
        images[g][:, perm] = perm[partner]
    codes = (images @ n ** np.arange(n, dtype=np.int64)).min(axis=0)
    _, first, orbit = np.unique(codes, return_index=True, return_inverse=True)
    return orbit, first


def count_matchings(n_modes: int) -> int:
    """Closed-form matching count: ``sum_k C(n, 2k) (2k-1)!!`` including empty."""
    total = 0
    for k in range(n_modes // 2 + 1):
        dfact = 1
        for t in range(2 * k - 1, 0, -2):
            dfact *= t
        total += math.comb(n_modes, 2 * k) * dfact
    return total


def connected_components(layout: ModeLayout, edges) -> list[tuple[int, ...]]:
    """Partition the touched copies into connected components of the copy graph."""
    edges = _normalize_edges(edges)
    adj: dict[int, set[int]] = {}
    for i, j in edges:
        ci, cj = i // 2, j // 2
        adj.setdefault(ci, set()).add(cj)
        adj.setdefault(cj, set()).add(ci)
    comps = []
    todo = set(adj)
    while todo:
        seed = min(todo)
        comp, stack = {seed}, [seed]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        todo -= comp
        comps.append(tuple(sorted(comp)))
    return comps


def is_connected_spanning(layout: ModeLayout, edges) -> bool:
    """True when the edges touch every copy and form one connected component."""
    comps = connected_components(layout, edges)
    return len(comps) == 1 and len(comps[0]) == layout.n_copies


def _connected_spanning(partner: np.ndarray) -> np.ndarray:
    """Which matchings, one partner row each (:func:`matching_partners`), are connected and spanning.

    Every mode starts with its copy number and takes the least label of
    its partner and of its copy's other mode; after as many rounds as
    there are copies, a matching is connected and spanning exactly when
    it has an edge and every mode holds copy 0.
    """
    label = np.arange(partner.shape[1]) // 2 + np.zeros_like(partner)
    for _ in range(partner.shape[1] // 2):
        label = np.minimum(label, np.take_along_axis(label, partner, axis=1))
        label = np.repeat(label.reshape(len(label), -1, 2).min(axis=2), 2, axis=1)
    return (label == 0).all(axis=1) & (partner != np.arange(partner.shape[1])).any(axis=1)


@lru_cache(maxsize=None)
def enumerate_classes(max_copies: int = 4) -> tuple[MeasurementGraph, ...]:
    """Connected graph classes on every layout with at most ``max_copies`` copies.

    On each standard layout the matchings fall into orbits under the
    copy exchanges (:func:`matching_orbits` with the mode maps of
    :func:`_copy_exchanges`); a class is one orbit, so one member per
    orbit that is connected and spanning (:func:`_connected_spanning`)
    is taken to its canonical form.  No two of the resulting classes
    share a probability functional (the tests check this on random
    pairs).  Connected classes generate everything else: a disconnected
    graph's probability is the product over its components, and
    untouched copies are dropped.  Deterministic ordering.  The
    enumeration runs once per ``max_copies`` and process; later calls
    return the same tuple.
    """
    classes = []
    for n in range(1, max_copies + 1):
        matchings = enumerate_matchings(list(range(2 * n)))
        connected = _connected_spanning(matching_partners(matchings, 2 * n))
        for n1 in range(n + 1):
            layout = ModeLayout.standard(n1, n - n1)
            _, members = matching_orbits(matchings, np.array(_copy_exchanges(n1, n - n1)))
            for a in members[connected[members]]:
                classes.append(MeasurementGraph(layout, matchings[a]).canonical())
    return tuple(sorted(classes, key=lambda g: (g.n_copies, g.counts(), g.n_edges, g.edges)))


# ---------------------------------------------------------------------------
# Probability evaluation
# ---------------------------------------------------------------------------


#: Edge factor per outcome, row 0 "not antibunched", row 1 "antibunched":
#: ``1 - P^- = (1/4) sum_i (4 delta_i0 - ETA[i]) sigma_i x sigma_i``.
_OUTCOME_ETA = np.stack([4.0 * (np.arange(4) == 0) - ETA, ETA])

#: Link weights per outcome, ``diag(w[outcome]) @ M`` in a ring product: an
#: edge's ``_OUTCOME_ETA / 4``, a path's closing link through index 0, and a
#: padding slot that reads 1 for outcome 0 and 0 for outcome 1.  A ring slot
#: is ``5 * link + matrix``, its matrix one of ``[R1, R1.T, R2, R2.T, I]``.
_LINK_WEIGHTS = np.stack([_OUTCOME_ETA / 4.0, [[1.0, 0, 0, 0], [0, 0, 0, 0]], [[1.0] * 4, [0] * 4]])
_EDGE, _VIRTUAL, _PAD = 0, 5, 10
_IDENTITY = 4

#: Integer weights of an edge (times 4) and of a closing link when every edge antibunches.
_ANTIBUNCHED = np.stack([4 * _LINK_WEIGHTS[0, 1], _LINK_WEIGHTS[1, 0]]).astype(int)


class _Chain(NamedTuple):
    """A graph's components as ring products (see :func:`_ring_chain`)."""

    rings: tuple        # per component, its slots' codes in walk order
    local: np.ndarray   # (component, 2**edges) ring-outcome index of each edge bitmask


@lru_cache(maxsize=None)
def _ring_chain(graph: MeasurementGraph) -> _Chain:
    """The graph's components as rings of (link, copy) slots, compiled once per graph.

    Every mode lies on at most one edge, so a component is a ring or a
    path over its copies.  Its pattern entry for edge outcomes A is
    Tr(D_{A_1} M_1 D_{A_2} M_2 ...): a walk enters each copy through one
    mode and leaves through the other, ``M`` is the copy's R entered at
    its ``a`` mode and R.T entered at ``b``, and ``D`` weighs the link it
    entered by (:data:`_LINK_WEIGHTS`).  A path starts at a free mode and
    closes through a virtual link fixed at index 0; a within-copy edge is
    a ring of one.  Slot k's outcome is bit k of the ring's output index,
    which ``local`` reads for every edge bitmask.
    """
    partner, edge = {}, {}
    for k, (i, j) in enumerate(graph.edges):
        partner[i], partner[j], edge[i], edge[j] = j, i, k, k
    copies = sorted({m // 2 for m in partner})
    # paths start at a free mode, so every path is walked whole before the rings
    starts = [2 * c + (2 * c in partner) for c in copies if 2 * c not in partner or 2 * c + 1 not in partner]
    rings, links, seen = [], [], set()
    for start in starts + [2 * c for c in copies]:
        if start // 2 in seen:
            continue
        slots, ring_links = [], []
        mode, link = start, edge.get(start, -1)
        while True:
            seen.add(mode // 2)
            slots.append((_EDGE if link >= 0 else _VIRTUAL) + 2 * graph.layout.copies[mode // 2] - 2 + mode % 2)
            ring_links.append(link)
            out = mode ^ 1
            if out not in partner or partner[out] == start:
                break
            mode, link = partner[out], edge[out]
        rings.append(tuple(slots))
        links.append(ring_links)
    masks = np.arange(2**graph.n_edges)
    local = np.array([sum(((masks >> k) & 1) << s for s, k in enumerate(ks) if k >= 0) for ks in links])
    return _Chain(tuple(rings), local)


@lru_cache(maxsize=None)
def _ring_halves(graphs: tuple[MeasurementGraph, ...]) -> tuple[tuple, tuple]:
    """The graphs' rings (:func:`_ring_chain`) cut after their first ``ceil(L / 2)`` slots.

    Returns the distinct halves, each ``(slots, side)`` with side 1 for a
    right half, and per graph one ``(left, right)`` pair of half indices
    per ring.  A ring of one has the empty half, the identity, on its right.
    """
    index: dict[tuple, int] = {}
    rings = []
    for g in graphs:
        pairs = []
        for ring in _ring_chain(g).rings:
            cut = (len(ring) + 1) // 2
            pairs.append(tuple(index.setdefault(half, len(index)) for half in ((ring[:cut], 0), (ring[cut:], 1))))
        rings.append(tuple(pairs))
    return tuple(index), tuple(rings)


def _ring_sums(graphs: tuple[MeasurementGraph, ...], R1s: np.ndarray, R2s: np.ndarray) -> np.ndarray:
    """``4**edges`` times every graph's probability on the batch: ``(graphs, S)``, in the operands' dtype.

    With every edge antibunched, a ring's pattern entry (:func:`_ring_chain`)
    is Tr(W_1 ... W_L) / 4 per edge, W = diag(w) M with the integer weights
    :data:`_ANTIBUNCHED`, and a graph's probability is the product over its
    rings.  Each distinct half (:func:`_ring_halves`) is one batched
    ``matmul``, shared by all the graphs, and a ring is one product-sum of
    its left half and its transposed right half.  Integer operands give
    exact integers; on floats, dividing by the power of two 4**edges
    afterwards changes no bit.
    """
    halves, rings = _ring_halves(graphs)
    mats = (R1s, R1s.swapaxes(1, 2), R2s, R2s.swapaxes(1, 2))
    weights = _ANTIBUNCHED.astype(R1s.dtype)[:, :, None]
    slots = {}
    products = []
    for half, side in halves:
        for code in half:
            if code not in slots:
                link, matrix = divmod(code, 5)
                slots[code] = weights[link] * mats[matrix]
        product = slots[half[0]] if half else np.broadcast_to(np.eye(4, dtype=R1s.dtype), R1s.shape)
        for code in half[1:]:
            product = product @ slots[code]
        products.append(np.ascontiguousarray(product.swapaxes(1, 2)) if side else product)
    out = np.ones((len(graphs), len(R1s)), dtype=R1s.dtype)
    for row, pairs in zip(out, rings):
        for left, right in pairs:
            row *= np.einsum("sij,sij->s", products[left], products[right])
    return out


def probability_matrix(graphs, R1s: np.ndarray, R2s: np.ndarray) -> np.ndarray:
    """Every graph's probability on a batch of (S, 4, 4) correlation-matrix pairs: ``(graphs, S)``, from shared ring halves."""
    graphs = tuple(graphs)
    R1s = np.asarray(R1s, dtype=float)
    R2s = np.asarray(R2s, dtype=float)
    edges = np.array([g.n_edges for g in graphs])
    return _ring_sums(graphs, R1s, R2s) / 4.0 ** edges[:, None]


def probability_batch(graph: MeasurementGraph, R1s: np.ndarray, R2s: np.ndarray) -> np.ndarray:
    """One graph's probabilities, shape (S,), on a batch of (S, 4, 4) correlation-matrix pairs: :func:`probability_matrix`'s row."""
    return probability_matrix((graph,), R1s, R2s)[0]


class Numerators(NamedTuple):
    """A rational 4x4 matrix as integer numerators over one common denominator."""

    N: np.ndarray
    den: int


def exact_numerators(R) -> Numerators:
    """Integer numerators of a rational 4x4 matrix over its least common denominator."""
    den = math.lcm(*(v.denominator for row in R for v in row))
    return Numerators(np.array([[v.numerator * (den // v.denominator) for v in row] for row in R]), den)


def exact_probabilities(graphs, pairs) -> tuple[tuple[Fraction, ...], ...]:
    """Exact probabilities of every graph on rational correlation-matrix pairs, one tuple per graph.

    ``pairs`` holds one ``(R1, R2)`` :class:`Numerators` pair per state
    pair.  :func:`_ring_sums` runs on the integer numerators of all pairs
    as one batch: in int64 while no partial sum can reach 2**63, in
    Python integers otherwise.  Each probability is one fraction over
    ``4**edges`` times each touched copy's denominator.
    """
    graphs = tuple(graphs)
    N = np.array([[R.N for R in pair] for pair in pairs])
    top = max((len(g.touched_copies()) for g in graphs), default=0)
    dtype = np.int64 if (4 * max(int(np.abs(N).max()), 1)) ** top < 2**63 else object
    sums = _ring_sums(graphs, N[:, 0].astype(dtype), N[:, 1].astype(dtype))
    out = []
    for g, row in zip(graphs, sums):
        states = [g.layout.copies[c] for c in g.touched_copies()]
        out.append(tuple(
            Fraction(int(v), 4**g.n_edges * R1.den ** states.count(1) * R2.den ** states.count(2))
            for v, (R1, R2) in zip(row, pairs)
        ))
    return tuple(out)


def probability_exact(graph: MeasurementGraph, R1, R2) -> Fraction:
    """Exact rational graph probability from rational correlation matrices.

    ``R1``/``R2`` are 4x4 nested sequences of :class:`fractions.Fraction`,
    or the :class:`Numerators` of one from :func:`exact_numerators`: the
    one-graph, one-pair case of :func:`exact_probabilities`.
    """
    pair = tuple(R if isinstance(R, Numerators) else exact_numerators(R) for R in (R1, R2))
    return exact_probabilities((graph,), [pair])[0][0]


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def _orbit_count(classes: Iterable[MeasurementGraph], role_swap: bool) -> int:
    keys = set()
    for g in classes:
        k = g.canonical().key()
        if role_swap:
            k = min(k, g.role_swapped().canonical().key())
        keys.add(k)
    return len(keys)


def dedup_report(reference: int = 63) -> dict:
    """Class counts under each symmetry convention, compared to ``reference``.

    Reported universes: connected classes over layouts with at most two
    copies of each state, and over all layouts with at most four copies
    in total; each counted with copy exchange alone and with an
    additional simultaneous role swap of the two states.  Also includes
    the raw 8-mode matching count (brute force and closed form).
    """
    all_classes = enumerate_classes(4)
    upto22 = [g for g in all_classes if g.counts()[0] <= 2 and g.counts()[1] <= 2]
    brute = len(enumerate_matchings(list(range(8))))
    counts = {
        "raw_matchings_8_modes": brute,
        "raw_matchings_formula": count_matchings(8),
        "classes_two_copies_each": _orbit_count(upto22, role_swap=False),
        "classes_two_copies_each_role_swapped": _orbit_count(upto22, role_swap=True),
        "classes_four_copies_total": _orbit_count(all_classes, role_swap=False),
        "classes_four_copies_total_role_swapped": _orbit_count(all_classes, role_swap=True),
        "per_layout": {},
    }
    for g in all_classes:
        key = g.counts()
        counts["per_layout"][key] = counts["per_layout"].get(key, 0) + 1
    counts["reference_class_count"] = reference
    counts["matches_reference"] = {
        name: counts[name] == reference
        for name in (
            "classes_two_copies_each",
            "classes_two_copies_each_role_swapped",
            "classes_four_copies_total",
            "classes_four_copies_total_role_swapped",
        )
    }
    return counts
