"""Graph probabilities as one ``np.einsum`` per graph: the reference the ring products are checked against.

A graph's probability is ``4**-|E| sum_idx (prod_e ETA[i_e]) (prod_c
R^(state_c)[row_c, col_c])``, with each touched copy's row and column
indices read off the edges on its ``a`` and ``b`` modes.  Nothing here
uses the package's ring compiler.
"""
from functools import lru_cache

import numpy as np

from qoverlap.graphs import ETA, MeasurementGraph


def copy_factors(graph: MeasurementGraph) -> list[tuple[int, int | None, int | None]]:
    """Per touched copy: (copy index, a-mode edge index, b-mode edge index)."""
    a_edge: dict[int, int] = {}
    b_edge: dict[int, int] = {}
    for k, (i, j) in enumerate(graph.edges):
        for m in (i, j):
            (a_edge if m % 2 == 0 else b_edge)[m // 2] = k
    return [(c, a_edge.get(c), b_edge.get(c)) for c in sorted(set(a_edge) | set(b_edge))]


@lru_cache(maxsize=None)
def einsum_recipe(graph: MeasurementGraph) -> tuple[str, tuple[tuple[int, str], ...]]:
    """Subscripts and copy plan of the probability contraction.

    The subscripts list one ETA operand per edge, then one operand per
    touched copy with a batch axis ``s``.  The plan gives each copy's
    state id and slice: ``"ab"`` (full matrix), ``"a"`` (first column),
    ``"b"`` (first row) or ``"d"`` (diagonal, within-copy edge).
    """
    letters = "ijklmnop"
    subs = [letters[k] for k in range(graph.n_edges)]
    copy_plan: list[tuple[int, str]] = []
    copy_subs: list[str] = []
    for c, ea, eb in copy_factors(graph):
        sid = graph.layout.copies[c]
        if ea is not None and eb is not None:
            kind, sub = ("d", subs[ea]) if ea == eb else ("ab", subs[ea] + subs[eb])
        elif ea is not None:
            kind, sub = "a", subs[ea]
        else:
            kind, sub = "b", subs[eb]
        copy_plan.append((sid, kind))
        copy_subs.append("s" + sub)
    return ",".join(subs + copy_subs) + "->s", tuple(copy_plan)


def copy_operands(copy_plan: tuple[tuple[int, str], ...], *Rs: np.ndarray) -> list[np.ndarray]:
    """Per touched copy ``(sid, kind)``, the batch of matrices ``Rs[sid - 1]`` sliced as ``kind`` says."""
    operands = []
    for sid, kind in copy_plan:
        R = Rs[sid - 1]
        if kind == "a":
            R = R[:, :, 0]
        elif kind == "b":
            R = R[:, 0, :]
        elif kind == "d":
            R = np.einsum("sii->si", R)
        operands.append(R)
    return operands


def einsum_probability(graph: MeasurementGraph, R1s: np.ndarray, R2s: np.ndarray) -> np.ndarray:
    """The graph's probabilities on a batch of correlation-matrix pairs, (S, 4, 4) each, by one greedy einsum."""
    if not graph.edges:
        return np.ones(len(R1s))
    spec, copy_plan = einsum_recipe(graph)
    operands = [ETA] * graph.n_edges + copy_operands(copy_plan, R1s, R2s)
    return np.einsum(spec, *operands, optimize="greedy") / 4.0**graph.n_edges
