"""Singlet-projection measurement graphs.

A graph is a matching (set of disjoint edges) on the modes of a
multi-copy layout; each edge is one two-mode singlet projection and the
graph's statistic is the probability that every edge fires at once.
This module enumerates graphs, reduces them to canonical classes under
copy exchange (and looks the classes of many graphs up at once by orbit
code), and evaluates their probabilities, in floats and exactly,
plus the combinatorial counts behind the class bookkeeping.  A connected
graph is a ring or a path over its copies, so each edge outcome's
probability is the trace of a product of their correlation matrices and
outcome weights (Ekert et al., PRL 88, 217901, 2002).  :func:`_ring_sums`
evaluates them all: the joint patterns and every probability here.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, permutations, product
from typing import NamedTuple

import numpy as np

from .core import ModeLayout

__all__ = [
    "ETA",
    "MeasurementGraph",
    "enumerate_matchings",
    "matching_partners",
    "matching_table",
    "orbit_codes",
    "matching_orbits",
    "count_matchings",
    "component_labels",
    "class_indices",
    "is_connected_spanning",
    "enumerate_classes",
    "probability_matrix",
    "probability_batch",
    "pattern_rows",
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

    def __hash__(self) -> int:
        """The hash of ``(layout, edges)``, computed at first use and kept on the graph."""
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.layout, self.edges)))
            return self._hash

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
    """All matchings (including the empty one) on the given mode list, each normalized (sorted edges)."""
    modes = [int(m) for m in modes]
    if not modes:
        return [()]
    first, rest = modes[0], modes[1:]
    out = list(enumerate_matchings(rest))  # first left unmatched
    for j, partner in enumerate(rest):
        sub = rest[:j] + rest[j + 1 :]
        edge = (first, partner) if first < partner else (partner, first)
        out.extend(tuple(sorted(m + (edge,))) for m in enumerate_matchings(sub))
    return out


def matching_partners(matchings: list[tuple[tuple[int, int], ...]], n: int) -> np.ndarray:
    """Slot partners, one row per matching: v at u for an edge (u, v), else u itself."""
    partner = np.tile(np.arange(n), (len(matchings), 1))
    edges = np.array([e for M in matchings for e in M], dtype=int).reshape(-1, 2)
    rows = np.repeat(np.arange(len(matchings)), [len(M) for M in matchings])
    partner[rows, edges[:, 0]], partner[rows, edges[:, 1]] = edges[:, 1], edges[:, 0]
    return partner


class MatchingTable(NamedTuple):
    """Every matching on ``n`` slots, in :func:`enumerate_matchings` order, and its partner row."""

    matchings: tuple[tuple[tuple[int, int], ...], ...]
    partner: np.ndarray  # (matching, n), read-only


@lru_cache(maxsize=None)
def matching_table(n: int) -> MatchingTable:
    """The matchings on slots ``0..n-1`` and their partner rows (:func:`matching_partners`), built once per slot count."""
    matchings = tuple(enumerate_matchings(range(n)))
    partner = matching_partners(matchings, n)
    partner.flags.writeable = False
    return MatchingTable(matchings, partner)


def orbit_codes(partner: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Each partner row's least image under a group of slot permutations, read as a base-n number.

    ``perms`` lists the group, one row ``perm`` (slot s -> perm[s]) per
    element.  A permutation maps a partner row p to p' with p'[perm[s]]
    = perm[p[s]]; two rows share a code exactly when they lie in one
    orbit, and int64 holds the code for n <= 15 slots.
    """
    n = perms.shape[1]
    images = np.empty((len(perms),) + partner.shape, dtype=np.int64)
    for g, perm in enumerate(perms):
        images[g][:, perm] = perm[partner]
    return (images @ n ** np.arange(n, dtype=np.int64)).min(axis=0)


def matching_orbits(
    matchings: list[tuple[tuple[int, int], ...]], perms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Orbit number of each matching under a group of slot permutations, and one member per orbit.

    Orbits are numbered in the order of their least codes
    (:func:`orbit_codes`); the member is each orbit's first matching.
    """
    codes = orbit_codes(matching_partners(matchings, perms.shape[1]), perms)
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


def component_labels(partner: np.ndarray) -> np.ndarray:
    """Each mode's component, one partner row per matching (:func:`matching_partners`) over whole copies.

    Every mode starts with its copy number and takes the least label of
    its partner and of its copy's other mode; after as many rounds as
    there are copies, every mode holds the least copy of its component
    (an untouched copy is a component of its own).
    """
    label = np.arange(partner.shape[1]) // 2 + np.zeros_like(partner)
    for _ in range(partner.shape[1] // 2):
        label = np.minimum(label, np.take_along_axis(label, partner, axis=1))
        label = np.repeat(label.reshape(len(label), -1, 2).min(axis=2), 2, axis=1)
    return label


def _connected_spanning(partner: np.ndarray) -> np.ndarray:
    """Which matchings, one partner row each, are connected and spanning: an edge, and every mode in copy 0's component."""
    return (component_labels(partner) == 0).all(axis=1) & (partner != np.arange(partner.shape[1])).any(axis=1)


@lru_cache(maxsize=None)
def enumerate_classes(max_copies: int = 4) -> tuple[MeasurementGraph, ...]:
    """Connected graph classes on every layout with at most ``max_copies`` copies.

    On each standard layout the connected and spanning matchings
    (:func:`_connected_spanning` on the slot count's matching table) fall
    into orbits under the copy exchanges (:func:`orbit_codes` with the
    mode maps of :func:`_copy_exchanges`); a class is one orbit, so one
    member per orbit is taken to its canonical form.  No two of the
    resulting classes share a probability functional (the tests check
    this on random pairs).  Connected classes generate everything else:
    a disconnected graph's probability is the product over its
    components, and untouched copies are dropped.  Deterministic
    ordering.  The enumeration runs once per ``max_copies`` and process;
    later calls return the same tuple.
    """
    classes = []
    for n in range(1, max_copies + 1):
        matchings, partner = matching_table(2 * n)
        connected = np.flatnonzero(_connected_spanning(partner))
        for n1 in range(n + 1):
            layout = ModeLayout.standard(n1, n - n1)
            codes = orbit_codes(partner[connected], np.array(_copy_exchanges(n1, n - n1)))
            for a in connected[np.unique(codes, return_index=True)[1]]:
                classes.append(MeasurementGraph(layout, matchings[a]).canonical())
    return tuple(sorted(classes, key=lambda g: (g.n_copies, g.counts(), g.n_edges, g.edges)))


def _orbit_keys(partner: np.ndarray, copies: tuple[int, ...]) -> np.ndarray:
    """Each graph's orbit under copy exchange as one integer, one partner row each on the layout ``copies``.

    A graph moves to its standard layout: its touched copies, state 1
    first and each state in copy order (one ``argsort`` per row), then
    its untouched copies, which stay fixed.  On the standard ``(n1,
    n2)`` layout its key is ``25 * code + 5 * n1 + n2`` with ``code`` its
    :func:`orbit_codes` under :func:`_copy_exchanges`.
    """
    n = len(copies)
    modes = np.arange(2 * n)
    touched = (partner != modes).reshape(len(partner), n, 2).any(axis=2)
    state = np.array(copies)
    order = np.argsort(np.where(touched, state * n, 3 * n) + np.arange(n), axis=1)
    place = 2 * np.repeat(np.argsort(order, axis=1), 2, axis=1) + modes % 2  # where each mode moves
    moved = np.empty_like(partner)
    np.put_along_axis(moved, place, np.take_along_axis(place, partner, axis=1), axis=1)
    n1 = (touched & (state == 1)).sum(axis=1)
    n2 = touched.sum(axis=1) - n1
    keys = np.empty(len(partner), dtype=np.int64)
    for a, b in set(zip(n1.tolist(), n2.tolist())):
        rows = (n1 == a) & (n2 == b)
        keys[rows] = 25 * orbit_codes(moved[rows, : 2 * (a + b)], np.array(_copy_exchanges(a, b))) + 5 * a + b
    return keys


@lru_cache(maxsize=None)
def _class_codes() -> tuple[np.ndarray, np.ndarray]:
    """The orbit keys (:func:`_orbit_keys`) of the classes of ``enumerate_classes(4)``, sorted, and each key's class index."""
    classes = enumerate_classes(4)
    keys = np.concatenate([
        _orbit_keys(matching_partners([g.edges for g in group], layout.n_modes), layout.copies)
        for layout, group in groupby(classes, key=lambda g: g.layout)
    ])
    order = np.argsort(keys)
    keys = keys[order]
    keys.flags.writeable = order.flags.writeable = False
    return keys, order


def class_indices(partner: np.ndarray, copies: tuple[int, ...]) -> np.ndarray:
    """Index in ``enumerate_classes(4)`` of each connected graph, one partner row each on the layout ``copies``.

    The bulk form of ``enumerate_classes(4).index(graph.canonical())``:
    each graph's orbit key (:func:`_orbit_keys`) is looked up among the
    classes' keys.  Raises ValueError on a graph that is not connected.
    """
    keys, index = _class_codes()
    want = _orbit_keys(np.asarray(partner), tuple(copies))
    at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    if not np.array_equal(keys[at], want):
        raise ValueError("class_indices takes connected graphs on at most four copies")
    return index[at]


# ---------------------------------------------------------------------------
# Probability evaluation
# ---------------------------------------------------------------------------


#: Integer link weights, one row per outcome: an edge's ``4 (1 - P^-)`` and
#: ``4 P^-``, ``P^- = (1/4) sum_i ETA[i] sigma_i x sigma_i``, and a path's
#: closing link's single e_0.  A ring slot is ``4 * link + matrix``, its
#: matrix one of ``[R1, R1.T, R2, R2.T]``.
_WEIGHTS = (np.stack([4 * (np.arange(4) == 0) - ETA, ETA]).astype(int), np.eye(1, 4, dtype=int))
_EDGE, _VIRTUAL = 0, 4

#: Entries of one gathered operand of :func:`_ring_sums`' product-sum, the bound on its chunks of pairs.
_CHUNK = 2**17


@lru_cache(maxsize=None)
def _ring_chain(graph: MeasurementGraph) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The graph's components as rings of (link, copy) slots, compiled once per graph.

    Every mode lies on at most one edge, so a component is a ring or a
    path over its copies.  Its pattern entry for edge outcomes A is
    Tr(D_{A_1} M_1 D_{A_2} M_2 ...) / 4**edges: a walk enters each copy
    through one mode and leaves through the other, ``M`` is the copy's R
    entered at its ``a`` mode and R.T entered at ``b``, and ``D`` is the
    diagonal of the link's weights (:data:`_WEIGHTS`).  A path starts at
    a free mode and closes through a link of one outcome; a within-copy
    edge is a ring of one.  Each component is its slots' codes and the
    edges its edge slots are entered through, both in walk order.
    """
    partner, edge = {}, {}
    for k, (i, j) in enumerate(graph.edges):
        partner[i], partner[j], edge[i], edge[j] = j, i, k, k
    copies = sorted({m // 2 for m in partner})
    # paths start at a free mode, so every path is walked whole before the rings
    starts = [2 * c + (2 * c in partner) for c in copies if 2 * c not in partner or 2 * c + 1 not in partner]
    rings, seen = [], set()
    for start in starts + [2 * c for c in copies]:
        if start // 2 in seen:
            continue
        slots, ring_links = [], []
        mode, link = start, edge.get(start, -1)
        while True:
            seen.add(mode // 2)
            slots.append((_EDGE if link >= 0 else _VIRTUAL) + 2 * graph.layout.copies[mode // 2] - 2 + mode % 2)
            ring_links += [link] if link >= 0 else []
            out = mode ^ 1
            if out not in partner or partner[out] == start:
                break
            mode, link = partner[out], edge[out]
        rings.append((tuple(slots), tuple(ring_links)))
    return tuple(rings)


class _RingPlan(NamedTuple):
    """How :func:`_ring_sums` evaluates a tuple of graphs (see :func:`_ring_plan`)."""

    weights: np.ndarray   # (table row, 4) link weights
    matrices: np.ndarray  # (table row,) index into [R1, R1.T, R2, R2.T]
    products: tuple       # per half length above 1, (length, half) table rows
    left: np.ndarray      # per ring sum, its left half in the stacked halves
    right: np.ndarray     # and its right half, read transposed
    gather: np.ndarray    # (graph, component, width) ring sum index, then one for 1 and one for 0
    scale: np.ndarray     # (graph, 1) 4.0**edges


@lru_cache(maxsize=None)
def _ring_plan(graphs: tuple[MeasurementGraph, ...], every: bool) -> _RingPlan:
    """The graphs' rings (:func:`_ring_chain`) cut into shared halves, for every outcome or the antibunched one.

    The slot table has one row per slot code and outcome: both of an
    edge's with ``every``, else its last alone.  A ring is cut after
    ``ceil(L / 2)`` slots, and each distinct half is stacked once per
    outcome assignment of its slots, the first edge slot's outcome the
    lowest bit: after the table rows (one slot) and the identity (none)
    come the products.  A ring's sums run over its right halves, then
    its left ones, so a sum's offset within the ring holds the ring's
    edge outcomes in walk order.  ``gather`` reads each graph at every
    edge bitmask below ``width`` (``2**max_edges`` with ``every``, else
    the all-antibunched entry alone): per component, a ring sum, 1 for a
    component the graph lacks and 0 beyond its ``2**edges`` entries.
    """
    table, rows = [], {}
    for code in range(8):
        link = _WEIGHTS[code // 4] if every else _WEIGHTS[code // 4][-1:]
        rows[code] = range(len(table), len(table) + len(link))
        table += [(w, code % 4) for w in link]

    def variants(half):
        return [v[::-1] for v in product(*(rows[code] for code in half[::-1]))]

    chains = [_ring_chain(g) for g in graphs]
    rings = dict.fromkeys(ring for chain in chains for ring, _ in chain)
    for ring in rings:
        cut = (len(ring) + 1) // 2
        rings[ring] = variants(ring[:cut]), variants(ring[cut:])
    products = sorted(dict.fromkeys(v for pair in rings.values() for side in pair for v in side if len(v) > 1), key=len)
    index = {v: i for i, v in enumerate([(r,) for r in range(len(table))] + [()] + products)}
    left, right, first = [], [], {}
    for ring, (lefts, rights) in rings.items():
        first[ring] = len(left)
        for r, l in product(rights, lefts):
            left.append(index[l])
            right.append(index[r])
    width = 2 ** max((g.n_edges for g in graphs), default=0) if every else 1
    gather = np.full((len(graphs), max(map(len, chains), default=0), width), len(left))
    masks = np.arange(width)
    for row, (g, chain) in enumerate(zip(graphs, chains)):
        for c, (ring, edges) in enumerate(chain):
            gather[row, c] = first[ring] + sum(((masks >> k) & 1) << p for p, k in enumerate(edges))
        gather[row, :, 2**g.n_edges :] = len(left) + 1
    return _RingPlan(
        np.array([w for w, _ in table]),
        np.array([m for _, m in table]),
        tuple(np.array([v for v in products if len(v) == n]).T for n in sorted({len(v) for v in products})),
        np.array(left),
        np.array(right),
        gather,
        4.0 ** np.array([[g.n_edges] for g in graphs]),
    )


def _ring_sums(plan: _RingPlan, R1s: np.ndarray, R2s: np.ndarray) -> np.ndarray:
    """``4**edges`` times the entries of the graphs of ``plan`` on the batch: ``(graphs, width, S)``, in the operands' dtype.

    The package's one ring product-sum: a ring's entry is Tr(W_1 ...
    W_L) with W = diag(w) M (:func:`_ring_chain`), a graph's the product
    over its rings.  Per chunk of pairs, the slot table is one broadcast
    product, each half length one batched ``matmul`` per further slot,
    every ring sum one product-sum of a left and a transposed right
    half, and the entries one gather and product.  Integer operands give
    exact integers; on floats, dividing by the power of two 4**edges
    changes no bit.  In int64 no partial sum may reach 2**63: with every
    edge antibunched (weights of magnitude 1) ``(4 max|N|)**copies <
    2**63`` suffices, but the not-antibunched weight 3 needs ``(12
    max|N|)**copies < 2**63``.
    """
    weights = plan.weights.astype(R1s.dtype)[:, None, :, None]
    out = np.empty(plan.gather.shape[::2] + (len(R1s),), dtype=R1s.dtype)
    step = max(1, _CHUNK // (16 * max(len(plan.left), 1)))
    # built once, not per chunk: the empty half and the buffers the gathered operands are
    # taken into ("clip" mode: the indices are in range, and "raise" would buffer the copy)
    eye = np.eye(4, dtype=R1s.dtype) * np.ones((1, min(step, len(R1s)), 1, 1), dtype=R1s.dtype)
    left, right = np.empty((2, len(plan.left), min(step, len(R1s)), 16), dtype=R1s.dtype)
    for lo in range(0, len(R1s), step):
        R1, R2 = R1s[lo : lo + step], R2s[lo : lo + step]
        table = weights * np.concatenate((R1, R1.swapaxes(1, 2), R2, R2.swapaxes(1, 2))).reshape(4, len(R1), 4, 4)[plan.matrices]
        halves = [table, eye[:, : len(R1)]]
        for rows in plan.products:
            half = table[rows[0]]
            for r in rows[1:]:
                half = half @ table[r]
            halves.append(half)
        halves = np.concatenate(halves)
        flipped = halves.swapaxes(2, 3).reshape(len(halves), len(R1), 16)
        sums = np.zeros((len(plan.left) + 2, len(R1)), dtype=R1s.dtype)
        sums[-2] = 1
        halves.reshape(flipped.shape).take(plan.left, axis=0, out=left[:, : len(R1)], mode="clip")
        flipped.take(plan.right, axis=0, out=right[:, : len(R1)], mode="clip")
        np.einsum("csk,csk->cs", left[:, : len(R1)], right[:, : len(R1)], out=sums[:-2])
        out[:, :, lo : lo + step] = sums[plan.gather].prod(axis=1)
    return out


def probability_matrix(graphs, R1s: np.ndarray, R2s: np.ndarray) -> np.ndarray:
    """Every graph's probability on a batch of (S, 4, 4) correlation-matrix pairs: ``(graphs, S)``, from shared ring halves."""
    plan = _ring_plan(tuple(graphs), False)
    R1s, R2s = (np.asarray(R, dtype=float) for R in (R1s, R2s))
    return _ring_sums(plan, R1s, R2s)[:, 0] / plan.scale


def pattern_rows(graphs, R1: np.ndarray, R2: np.ndarray) -> np.ndarray:
    """Every graph's joint edge-outcome distribution on one correlation-matrix pair, unchecked: ``(graphs, 2**max_edges)``.

    Entry ``m`` of a graph's row is the probability that exactly the
    edges in bitmask ``m`` antibunch, as :func:`_ring_sums` computes it;
    entries beyond the graph's ``2**edges`` are 0.
    """
    plan = _ring_plan(tuple(graphs), True)
    R1, R2 = (np.asarray(R, dtype=float)[None] for R in (R1, R2))
    return _ring_sums(plan, R1, R2)[:, :, 0] / plan.scale


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
    sums = _ring_sums(_ring_plan(graphs, False), N[:, 0].astype(dtype), N[:, 1].astype(dtype))[:, 0]
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
    brute = len(matching_table(8).matchings)
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
