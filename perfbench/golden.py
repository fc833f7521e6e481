"""Golden derivation tables and the forms built from them.

``golden_tables.txt`` is the output of ``qoverlap derive --target all --seed
42`` without its header line (which names the seed) and without the
``# residual`` lines (whose last digits change with the seed).  What is left,
the thirteen coefficient tables and the claim report, is the same at every
seed, so any derivation can be checked against it.

The ``simulate`` workload builds its estimator forms from these tables with
the public ``MeasurementGraph`` and ``ModeLayout`` only, so it never pays for
a derivation.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_tables.txt")

#: The statistics ``estimate_distances`` consumes, as ``measurement_forms`` returns them.
STAT_NAMES = ("o11", "o22", "o12", "o2", "pi3", "pi4")

_TARGET_PREFIX = "# target: "
_FACTOR = re.compile(r"g\[(\d+)x(\d+):((?:\(\d+-\d+\))+)\](?:\^(\d+))?")
_EDGE = re.compile(r"\((\d+)-(\d+)\)")


@dataclass(frozen=True)
class GoldenTables:
    """Coefficient lines per target, in file order, plus the claim report lines."""

    tables: dict[str, tuple[tuple[str, str], ...]]
    report: tuple[str, ...]

    def format(self) -> str:
        blocks = [
            "\n".join([_TARGET_PREFIX + target] + [f"{c}\t{m}" for c, m in lines])
            for target, lines in self.tables.items()
        ]
        blocks.append("\n".join(self.report))
        return "\n\n".join(blocks) + "\n"


def parse(text: str) -> GoldenTables:
    """Parse text in golden form (see :func:`strip_run_specific`)."""
    if not text.endswith("\n"):
        raise ValueError("golden text must end with a newline")
    *table_blocks, report_block = text[:-1].split("\n\n")
    tables: dict[str, tuple[tuple[str, str], ...]] = {}
    for block in table_blocks:
        head, *lines = block.split("\n")
        if not head.startswith(_TARGET_PREFIX):
            raise ValueError(f"expected a '{_TARGET_PREFIX}' line, got {head!r}")
        rows = []
        for line in lines:
            coefficient, sep, monomial = line.partition("\t")
            if not sep:
                raise ValueError(f"coefficient line without a tab: {line!r}")
            rows.append((coefficient, monomial))
        tables[head[len(_TARGET_PREFIX):]] = tuple(rows)
    return GoldenTables(tables, tuple(report_block.split("\n")))


def load() -> GoldenTables:
    return parse(GOLDEN_PATH.read_text())


def strip_run_specific(derive_output: str) -> str:
    """``qoverlap derive`` text output reduced to golden form."""
    lines = derive_output.split("\n")
    if len(lines) < 2 or not lines[0].startswith("qoverlap ") or lines[1]:
        raise ValueError("not the text output of 'qoverlap derive'")
    return "\n".join(line for line in lines[2:] if not line.startswith("# residual "))


def parse_monomial(text: str) -> tuple:
    """Graphs of one monomial string such as ``g[1x1:(0-2)]^2*g[2x0:(1-3)]``."""
    from qoverlap.core import ModeLayout
    from qoverlap.graphs import MeasurementGraph

    if text == "1":
        return ()
    graphs = []
    for factor in text.split("*"):
        match = _FACTOR.fullmatch(factor)
        if match is None:
            raise ValueError(f"cannot parse monomial factor {factor!r}")
        n1, n2, edges, power = match.groups()
        layout = ModeLayout.standard(int(n1), int(n2))
        edge_list = [(int(i), int(j)) for i, j in _EDGE.findall(edges)]
        graphs.extend([MeasurementGraph(layout, edge_list)] * int(power or 1))
    return tuple(graphs)


def forms(golden: GoldenTables) -> dict[str, list[tuple[float, tuple]]]:
    """The six estimator forms, in ``CoefficientVector.as_form()`` term order."""
    return {
        name: [(float(Fraction(c)), parse_monomial(m)) for c, m in golden.tables[name]]
        for name in STAT_NAMES
    }


def coefficient_vector(golden: GoldenTables, target: str, basis):
    """The golden table of ``target`` as a ``CoefficientVector`` on ``basis``."""
    from qoverlap.derive import CoefficientVector

    index = {basis.monomial_string(k): k for k in range(basis.n_monomials)}
    entries = {index[m]: Fraction(c) for c, m in golden.tables[target]}
    return CoefficientVector(
        target=target,
        basis=basis,
        entries=entries,
        residual=float("nan"),
        non_unique=True,
        all_rational=True,
        exact_certified=True,
    )
