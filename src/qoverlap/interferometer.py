"""Simulated multi-copy singlet-projection interferometry.

A measurement graph is realized by preparing its copies and jointly
measuring the two-outcome observable {P-, 1-P-} on every edge; the
all-singlet coincidence frequency estimates the graph probability.  One
prepared configuration member yields the joint outcome pattern of all its
edges, so every sub-graph statistic comes out of the same counts.  Every
member's pattern row comes from :func:`graphs.pattern_rows`, the package's
one ring evaluator; this module checks the rows, and sets entries at or
below ``PATTERN_TOL`` to exactly 0, so rounding noise around a true 0,
which differs with the summation order, never reaches the sampler.  It
draws every member's counts in one multinomial call over the zero-padded
pattern stack, reads every sub-graph frequency and covariance off one
superset sum of the counts, and propagates shot noise through the
distance formulas.

A "photon pair" is one two-qubit copy; hardware-level boson statistics
are out of scope (the antibunching event is abstracted to the singlet
outcome).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .core import __version__, assemble, swap_modes, to_correlation
from .graphs import MeasurementGraph, pattern_rows, probability_batch
from .oracle import distance_set
from .overlaps import P_MINUS, TARGETS, characteristic_roots

__all__ = [
    "Configuration",
    "ConfigurationPlan",
    "EstimationReport",
    "PlanError",
    "graph_probability",
    "pattern_distribution",
    "find_embedding",
    "plan_configurations",
    "estimate_distances",
    "STAT_NAMES",
]

PATTERN_TOL = 1e-9       # tolerated leakage of a joint distribution; entries at or below it read 0
DEGENERATE_SIGMA = 4.0   # radicand within this many sigma of 0 -> guarded error bar
BOOTSTRAP_DRAWS = 200    # parametric bootstrap draws behind the trace-distance error
CONFIGURATION_COPIES = 6  # copies one configuration may prepare at once


class PlanError(ValueError):
    """A required graph cannot be measured with the given plan."""


# ---------------------------------------------------------------------------
# Single-graph probabilities, dense cross-check, joint patterns
# ---------------------------------------------------------------------------


def graph_probability(
    graph: MeasurementGraph,
    rho1: np.ndarray,
    rho2: np.ndarray,
    method: str = "bloch",
) -> float:
    """Probability that every edge of the graph antibunches at once.

    ``method="bloch"`` contracts correlation matrices; ``method="dense"``
    assembles the full multi-copy state and multiplies embedded singlet
    projectors — the slow route kept as an independent cross-check.
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if method == "bloch":
        R1, R2 = to_correlation(rho1), to_correlation(rho2)
        return float(probability_batch(graph, R1[None], R2[None])[0])
    if method != "dense":
        raise ValueError(f"unknown method {method!r}")
    layout = graph.layout
    W = assemble({1: rho1, 2: rho2}, layout)
    M = np.eye(2**layout.n_modes, dtype=complex)
    for i, j in graph.edges:
        # P- on modes (0, 1), carried to (0, j) and then to (i, j); edges have i < j
        P = np.kron(P_MINUS, np.eye(2 ** (layout.n_modes - 2)))
        if j != 1:
            P = swap_modes(P, 1, j)
        if i != 0:
            P = swap_modes(P, 0, i)
        M = M @ P
    val = complex(np.sum(W * M.T))  # Tr(W M)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"graph probability has imaginary residue {val.imag:.3e}")
    return float(val.real)


def _superset_sums(v: np.ndarray) -> np.ndarray:
    """``out[..., m] = sum of v[..., p] over every bitmask p containing m`` (zeta transform, last axis)."""
    out = np.array(v)
    half = 1
    while half < out.shape[-1]:
        pairs = out.reshape(*out.shape[:-1], -1, 2, half)
        pairs[..., 0, :] += pairs[..., 1, :]
        half *= 2
    return out


def _chain_patterns(graphs: tuple, R1, R2) -> np.ndarray:
    """Every graph's pattern distribution, one zero-padded row each (:func:`graphs.pattern_rows`), checked.

    The first row in graph order more negative than ``PATTERN_TOL`` or
    off unit sum by more than it raises :class:`ValueError`.  Entries at
    or below ``PATTERN_TOL`` are then set to exactly 0 and rows
    normalized, so an entry that is 0 in exact arithmetic reads 0
    whatever the summation order left of it: the multinomial draws no
    random number for it.
    """
    patterns = pattern_rows(graphs, R1, R2)
    low, total = patterns.min(axis=1), patterns.sum(axis=1)
    bad = np.flatnonzero((low < -PATTERN_TOL) | (np.abs(total - 1.0) > PATTERN_TOL))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"joint pattern distribution invalid: min {patterns[k, : 2 ** graphs[k].n_edges].min():.3e}, "
            f"sum {total[k]:.12f}"
        )
    patterns[patterns <= PATTERN_TOL] = 0.0
    # summed by halving, so a row's zero padding adds exact zeros: it normalizes as it would alone
    total = patterns
    while total.shape[1] > 1:
        half = total.shape[1] // 2
        total = total[:, :half] + total[:, half:]
    patterns /= total
    return patterns


def pattern_distribution(graph: MeasurementGraph, R1: np.ndarray, R2: np.ndarray) -> np.ndarray:
    """Joint outcome distribution of the V observables on every edge.

    Returns the pattern probabilities indexed by edge bitmask:
    ``pattern[m]`` is the probability that exactly the edges in ``m``
    antibunch, the graph's row checked and floored as a stack of one
    (:func:`_chain_patterns`).  The probability that at least
    they do is its superset sum, :func:`_superset_sums`.
    """
    return _chain_patterns((graph,), R1, R2)[0]


# ---------------------------------------------------------------------------
# Configuration planning
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def find_embedding(
    host: MeasurementGraph, small: MeasurementGraph
) -> tuple[int, ...] | None:
    """Edge indices of ``host`` realizing ``small``, or None.

    Copies of ``small`` are mapped injectively onto same-state copies of
    ``host`` so that every edge of ``small`` lands on an edge of
    ``host``; the first mapping in deterministic order is returned as
    the tuple of host edge indices (one per edge of ``small``).  Each
    pair is searched once per process.
    """
    sg, hg = small.minimal(), host.minimal()
    s1, s2 = sg.counts()
    h1, h2 = hg.counts()
    if s1 > h1 or s2 > h2:
        return None
    edge_index = {e: k for k, e in enumerate(hg.edges)}
    for p1 in permutations(range(h1), s1):
        for p2 in permutations(range(h2), s2):
            perm = {c: p1[c] for c in range(s1)}
            perm.update({s1 + c: h1 + p2[c] for c in range(s2)})
            mapped = []
            for e in sg.edges:
                m = tuple(sorted(2 * perm[x // 2] + (x % 2) for x in e))
                k = edge_index.get(m)
                if k is None:
                    break
                mapped.append(k)
            else:
                return tuple(mapped)
    return None


@dataclass(frozen=True)
class Configuration:
    """Maximal graphs prepared and measured simultaneously.

    Members occupy disjoint copies, so their outcome patterns are
    independent; correlations exist only within a member.
    """

    members: tuple[MeasurementGraph, ...]

    @property
    def photon_pairs(self) -> int:
        return sum(m.n_copies for m in self.members)


@dataclass(frozen=True)
class ConfigurationPlan:
    graphs: tuple[MeasurementGraph, ...]
    maximal: tuple[MeasurementGraph, ...]
    free: tuple[MeasurementGraph, ...]
    configurations: tuple[Configuration, ...]
    hosts: dict  # canonical key -> (config index, member index, edge-index tuple)
    #: Estimator program and form arrays built from this plan at its first estimate (see :func:`_compiled`).
    _arrays: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def photon_pairs(self) -> int:
        return sum(c.photon_pairs for c in self.configurations)


def plan_configurations(graphs) -> ConfigurationPlan:
    """Choose what to actually measure for a set of required graphs.

    Graphs subsumed by another required graph come free from the host's
    joint V statistics, so only maximal graphs (under the embedding
    order) are prepared.  Maximal graphs are packed first-fit-decreasing
    into configurations of at most ``CONFIGURATION_COPIES`` copies; the
    reported photon-pair total is the sum over maximal graphs of their
    copy counts.
    """
    required: dict[tuple, MeasurementGraph] = {}
    for g in graphs:
        c = g.canonical()
        required.setdefault(c.key(), c)
    req = sorted(required.values(), key=lambda g: (g.n_copies, g.counts(), g.n_edges, g.edges))
    if not req:
        raise ValueError("no graphs to plan for")

    def hosts_copies(h: MeasurementGraph, g: MeasurementGraph) -> bool:
        # Canonical graphs sit on their minimal layouts, so these are the counts find_embedding compares.
        (h1, h2), (g1, g2) = h.counts(), g.counts()
        return h1 >= g1 and h2 >= g2

    maximal, free = [], []
    for g in req:
        if any(
            h.key() != g.key() and hosts_copies(h, g) and find_embedding(h, g) is not None for h in req
        ):
            free.append(g)
        else:
            maximal.append(g)

    # First-fit decreasing bin packing by copy count.
    bins: list[list[MeasurementGraph]] = []
    for g in sorted(maximal, key=lambda g: (-g.n_copies, g.counts(), g.edges)):
        for b in bins:
            if sum(m.n_copies for m in b) + g.n_copies <= CONFIGURATION_COPIES:
                b.append(g)
                break
        else:
            bins.append([g])
    configurations = tuple(Configuration(tuple(b)) for b in bins)

    hosts: dict = {}
    for g in req:
        placed = False
        for ci, conf in enumerate(configurations):
            for mi, member in enumerate(conf.members):
                emb = find_embedding(member, g) if hosts_copies(member, g) else None
                if emb is not None:
                    hosts[g.key()] = (ci, mi, emb)
                    placed = True
                    break
            if placed:
                break
        if not placed:  # cannot happen: every graph embeds in its maximal host
            raise PlanError(f"no configuration hosts graph {g!s}")
    return ConfigurationPlan(
        graphs=tuple(req),
        maximal=tuple(maximal),
        free=tuple(free),
        configurations=configurations,
        hosts=hosts,
    )


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatRow:
    name: str
    oracle: float
    estimate: float
    std_err: float


@dataclass(frozen=True)
class MeasureRow:
    name: str
    oracle: float
    formula: float
    estimate: float
    std_err: float


@dataclass(frozen=True)
class EstimationReport:
    seed: int
    shots: int
    version: str
    photon_pairs: int
    n_configurations: int
    statistics: tuple[StatRow, ...]
    measures: tuple[MeasureRow, ...]
    audit: tuple[tuple[str, bool], ...]

    @property
    def audit_ok(self) -> bool:
        return all(ok for _, ok in self.audit)


STAT_NAMES = ("o11", "o22", "o12", "o2", "pi3", "pi4")


class _PlanProgram(NamedTuple):
    """How one estimate samples a plan's members and reads its graphs (see :func:`_plan_program`)."""

    members: tuple         # every member, one zero-padded pattern row each
    keys: list             # the plan's graph keys, in ``plan.graphs`` order
    at: np.ndarray         # graph -> flat (member row, edge bitmask) index
    pairs: tuple           # (first, second) graph of every pair on one member, self-pairs included
    union_at: np.ndarray   # each pair's flat (member row, union bitmask) index


def _plan_program(plan: ConfigurationPlan) -> _PlanProgram:
    """The plan's members, one pattern row each, and where its graphs are read.

    Rows run in configuration order: a member's row is its
    configuration's offset in the cumulative member counts plus its index
    within the configuration.  The flat indices address rows of
    ``2**max_edges`` entries, so a row's index bits never meet an edge
    bitmask.
    """
    members = tuple(m for conf in plan.configurations for m in conf.members)
    offsets = np.cumsum([0] + [len(conf.members) for conf in plan.configurations])
    keys = [g.key() for g in plan.graphs]
    hosts = [plan.hosts[key] for key in keys]
    rows = np.array([offsets[ci] + mi for ci, mi, _ in hosts])
    masks = np.array([sum(1 << k for k in emb) for _, _, emb in hosts])
    at = rows * 2 ** max(m.n_edges for m in members) + masks
    first, second = np.nonzero(rows[:, None] == rows[None, :])
    return _PlanProgram(members, keys, at, (first, second), at[first] | masks[second])


def _sample_plan(program: _PlanProgram, R1, R2, shots, rng) -> np.ndarray:
    """Multinomial pattern counts of every member, one zero-padded row each, from one ``rng.multinomial`` call."""
    return rng.multinomial(shots, _chain_patterns(program.members, R1, R2))


def _graph_estimates(program: _PlanProgram, counts: np.ndarray, shots):
    """Estimates, in ``plan.graphs`` order, and covariance of every planned graph probability.

    ``counts`` is the padded count stack of :func:`_sample_plan`; one
    superset sum serves every member.  Within one member, Cov(p_X, p_Y)
    = (p_{X union Y} - p_X p_Y)/N with the union read off the same
    counts; across members everything is independent by construction.
    """
    at_least = _superset_sums(counts).reshape(-1)
    phat = at_least[program.at] / shots
    first, second = program.pairs
    cov = np.zeros((len(phat), len(phat)))
    cov[first, second] = (at_least[program.union_at] / shots - phat[first] * phat[second]) / shots
    return phat, cov


@lru_cache(maxsize=None)
def _canonical_key(graph: MeasurementGraph) -> tuple:
    return graph.canonical().key()


class _FormArrays(NamedTuple):
    """The forms as index arrays over the plan's graph estimates (see :func:`_form_arrays`)."""

    names: list[str]
    factors: np.ndarray      # (monomial, slot) -> estimate index, ``len(keys)`` reads 1.0
    rows: np.ndarray         # monomial -> statistic
    coeffs: np.ndarray
    own_slot: np.ndarray     # (slot, slot) identity mask
    factor_at: tuple         # (monomial, slot) of every real factor
    jacobian_at: np.ndarray  # its flat (statistic, estimate) Jacobian index
    jacobian_coeffs: np.ndarray


def _form_arrays(forms, keys) -> _FormArrays:
    """Index arrays of the forms' monomials over the graph keys, checked against them.

    Each monomial is one row of a factor-index matrix padded with an
    index that reads 1.0.  A graph missing from ``keys`` raises
    :class:`PlanError` naming the statistic whose form needs it.
    """
    index = {key: i for i, key in enumerate(keys)}
    names = [n for n in STAT_NAMES if n in forms]
    rows, coeffs, factors = [], [], []
    for si, name in enumerate(names):
        for coeff, graphs in forms[name]:
            gkeys = [_canonical_key(g) for g in graphs]
            for key in gkeys:
                if key not in index:
                    raise PlanError(
                        f"form {name!r} needs graph not in the measurement plan: "
                        f"{key}"
                    )
            rows.append(si)
            coeffs.append(coeff)
            factors.append([index[key] for key in gkeys])
    one, width = len(keys), max(map(len, factors))
    F = np.array([f + [one] * (width - len(f)) for f in factors], dtype=int)
    rows, coeffs = np.array(rows), np.array(coeffs)
    m, k = np.nonzero(F < one)
    return _FormArrays(
        names, F, rows, coeffs, np.eye(width, dtype=bool), (m, k), rows[m] * one + F[m, k], coeffs[m]
    )


def _compiled(plan: ConfigurationPlan, forms) -> tuple[_PlanProgram, _FormArrays]:
    """The plan's :func:`_plan_program` and the forms' :func:`_form_arrays`.

    Both are built at the plan's first estimate and kept on the plan.
    The form arrays are rebuilt whenever the forms differ by value from
    the ones they were built from, so an edited form never meets stale
    arrays.  Each entry is stored whole, together with the forms it was
    built from, so estimates racing on one plan at worst build twice.
    """
    cache = plan._arrays
    program = cache.get("program")
    if program is None:
        program = cache["program"] = _plan_program(plan)
    snapshot = tuple(
        (n, tuple((c, tuple(gs)) for c, gs in forms[n])) for n in STAT_NAMES if n in forms
    )
    built = cache.get("forms")
    if built is None or built[0] != snapshot:
        built = cache["forms"] = (snapshot, _form_arrays(forms, program.keys))
    return program, built[1]


def _stat_values(arrays: _FormArrays, phat, cov):
    """Delta-method values and covariance of the statistics vector.

    Values and Jacobian entries are row products of the estimates read
    through ``arrays``' factor indices, accumulated in monomial order.
    Monomial products of graph estimates are used directly; their O(1/N)
    multiplicative bias is accepted and documented.
    """
    n_stats, n = len(arrays.names), len(phat)
    vals = np.append(phat, 1.0)[arrays.factors]
    values = np.bincount(arrays.rows, weights=arrays.coeffs * vals.prod(axis=1), minlength=n_stats)
    # product of the other factors: 1.0 in the factor's own slot
    rest = np.where(arrays.own_slot, 1.0, vals[:, None, :]).prod(axis=2)
    J = np.bincount(
        arrays.jacobian_at,
        weights=arrays.jacobian_coeffs * rest[arrays.factor_at],
        minlength=n_stats * n,
    ).reshape(n_stats, n)
    C = J @ cov @ J.T
    return values, C


def _linear_stat(names, values, C, weights: dict[str, float]) -> tuple[float, float, np.ndarray]:
    w = np.array([weights.get(n, 0.0) for n in names])
    return float(w @ values), float(w @ C @ w), w


def _guarded_sqrt_err(u: float, var_u: float) -> tuple[float, float]:
    """Value and std err of sqrt(max(u, 0)) near a degenerate radicand.

    When u is within a few sigma of zero the linearization breaks down;
    the error bar falls back to the scale sqrt(sigma_u), which bounds the
    spread of sqrt(max(u,0)) for u ~ N(0, sigma_u^2).
    """
    su = np.sqrt(max(var_u, 0.0))
    if u <= DEGENERATE_SIGMA * su:
        return float(np.sqrt(max(u, 0.0))), float(np.sqrt(su))
    root = float(np.sqrt(u))
    return root, float(su / (2.0 * root))


def _o12_plus_root(C, i: int, o12, radicand, grad: np.ndarray) -> tuple[float, float]:
    """Value and std err of ``o12 + sqrt(max(radicand, 0))``, the shape of subfidelity and superfidelity.

    ``i`` indexes o12 in the statistics' covariance ``C`` and ``grad`` is
    the radicand's gradient over them.  Away from a degenerate radicand
    the delta method runs on the whole sum.  In a degenerate branch the
    root's error scale stands alone and can fall below the error of o12,
    which the sum carries in full; the two are added in quadrature.
    """
    var = float(grad @ C @ grad)
    root, err = _guarded_sqrt_err(radicand, var)
    if radicand > DEGENERATE_SIGMA * np.sqrt(max(var, 0.0)):
        g = grad / (2.0 * root)
        g[i] += 1.0
        err = float(np.sqrt(max(g @ C @ g, 0.0)))
    else:
        err = float(np.sqrt(err**2 + max(C[i, i], 0.0)))
    return o12 + root, err


def estimate_distances(
    rho1: np.ndarray,
    rho2: np.ndarray,
    forms: dict,
    shots: int,
    seed: int = 42,
    threads: int = 1,
    plan: ConfigurationPlan | None = None,
) -> EstimationReport:
    """Simulate the full interferometric workflow and report estimates.

    ``forms`` maps statistic names (o11, o22, o12, o2, pi3, pi4) to
    decompositions: lists of (coefficient, graph tuple) pairs.  All six
    are needed for the complete measure set.  Every graph appearing in a
    form is measured through the configuration plan (built here unless
    one is supplied); statistic errors come from the delta method on the
    joint multinomial counts, and the trace-distance error from a
    parametric bootstrap over the moment estimates: ``BOOTSTRAP_DRAWS``
    normal draws.  Their quartics, the point estimate's and the
    formula's are one :func:`characteristic_roots` call.  One
    ``np.random.default_rng(seed)`` draws the counts, then the bootstrap.
    The chain-inequality audit runs on the oracle values, where a
    violation indicates a bug rather than shot noise.  Sampling runs on
    the calling thread; ``threads`` is kept for callers that pass
    ``threads=1`` and any other value raises :class:`ValueError`.

    What depends only on the plan and the forms is compiled once: the
    plan's program (:func:`_plan_program`) at its first estimate, and the
    forms' monomial index arrays per plan, where a graph the plan lacks raises :class:`PlanError`.
    Later calls with the same plan reuse them while the forms are equal
    by value; forms that differ rebuild the form arrays.  A call without
    a plan plans and compiles afresh.
    """
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    missing = [n for n in STAT_NAMES if n not in forms]
    if missing:
        raise ValueError(f"forms missing statistics {missing}")
    if plan is None:
        plan = plan_configurations([g for form in forms.values() for _, graphs in form for g in graphs])
    program, arrays = _compiled(plan, forms)
    R1, R2 = to_correlation(rho1), to_correlation(rho2)

    rng = np.random.default_rng(seed)
    counts = _sample_plan(program, R1, R2, shots, rng)
    phat, cov = _graph_estimates(program, counts, shots)
    values, C = _stat_values(arrays, phat, cov)
    names = arrays.names
    stat = dict(zip(names, values))

    stat_oracle = {n: TARGETS[n](rho1, rho2) for n in STAT_NAMES}
    statistics = tuple(
        StatRow(n, stat_oracle[n], float(v), float(np.sqrt(max(C[i, i], 0.0))))
        for i, (n, v) in enumerate(zip(names, values))
    )

    # pi2 is a linear combination of the measured overlaps.  Report it as
    # its own statistic: unlike the clipped square root feeding H, its
    # estimate is unbiased around zero for identical states.
    pi2, var_pi2, w_pi2 = _linear_stat(names, values, C, {"o11": 1.0, "o22": 1.0, "o12": -2.0})
    pi2_oracle = stat_oracle["o11"] + stat_oracle["o22"] - 2.0 * stat_oracle["o12"]
    statistics = statistics + (
        StatRow("pi2", pi2_oracle, float(pi2), float(np.sqrt(max(var_pi2, 0.0)))),
    )

    idx = {n: i for i, n in enumerate(names)}

    o12, i12 = stat["o12"], idx["o12"]

    # Subfidelity E = o12 + sqrt(2(o12^2 - o2))
    gu = np.zeros(len(names))
    gu[i12] = 4.0 * o12
    gu[idx["o2"]] = -2.0
    e_est, e_err = _o12_plus_root(C, i12, o12, 2.0 * (o12**2 - stat["o2"]), gu)

    # Superfidelity G = o12 + sqrt((1-o11)(1-o22))
    gv = np.zeros(len(names))
    gv[idx["o11"]] = -(1.0 - stat["o22"])
    gv[idx["o22"]] = -(1.0 - stat["o11"])
    g_est, g_err = _o12_plus_root(C, i12, o12, (1.0 - stat["o11"]) * (1.0 - stat["o22"]), gv)

    # Hilbert-Schmidt H = sqrt(pi2)
    h_est, h_err = _guarded_sqrt_err(pi2, var_pi2)

    # Trace distance by quartic roots; errors by parametric bootstrap.  The
    # point estimate, every draw (both with pi2 clipped at 0) and the
    # formula's exact moments are solved together.
    pi3, pi4 = stat["pi3"], stat["pi4"]
    moment_w = np.vstack([w_pi2, np.eye(len(names))[idx["pi3"]], np.eye(len(names))[idx["pi4"]]])
    Cm = moment_w @ C @ moment_w.T
    Cm = 0.5 * (Cm + Cm.T)
    evals, evecs = np.linalg.eigh(Cm)
    Cm = (evecs * np.clip(evals, 0.0, None)) @ evecs.T
    draws = rng.multivariate_normal([pi2, pi3, pi4], Cm, size=BOOTSTRAP_DRAWS, method="eigh")
    formula_moments = [pi2_oracle, stat_oracle["pi3"], stat_oracle["pi4"]]
    moment_rows = np.vstack([[pi2, pi3, pi4], draws, formula_moments])
    moment_rows[:-1, 0] = np.where(moment_rows[:-1, 0] < 0.0, 0.0, moment_rows[:-1, 0])
    t = 0.5 * np.abs(characteristic_roots(*moment_rows.T).real).sum(axis=-1)
    t_err = float(np.std(t[1:-1], ddof=1))

    ds = distance_set(rho1, rho2)
    measures = (
        MeasureRow("subfidelity", ds.subfidelity, ds.subfidelity, float(e_est), e_err),
        MeasureRow("superfidelity", ds.superfidelity, ds.superfidelity, float(g_est), g_err),
        MeasureRow(
            "hilbert-schmidt",
            ds.hilbert_schmidt,
            float(np.sqrt(max(pi2_oracle, 0.0))),
            float(h_est),
            h_err,
        ),
        MeasureRow("trace-distance", ds.trace_distance, float(t[-1]), float(t[0]), t_err),
    )
    return EstimationReport(
        seed=seed,
        shots=shots,
        version=__version__,
        photon_pairs=plan.photon_pairs,
        n_configurations=len(plan.configurations),
        statistics=statistics,
        measures=measures,
        audit=tuple(ds.chain_audit()),
    )
