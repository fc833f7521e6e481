"""The benchmark's three closed-loop workloads, each driven by one client.

``derive``
    Cold ``qoverlap derive --target all`` runs through ``cli.main``, each in
    a fresh spawned process, checked against the golden tables.  A fresh
    process per derivation matters: the module caches would make a second
    derivation in one process nearly free, which a CLI user never gets.  It
    loads the design-matrix, support-search, lstsq and exact-certification
    layers.  The quartic-moment fit (``pi4``) is served from its golden
    table instead of being fitted: that one fit takes about nine tenths of a
    two-minute derivation, more than one run may last.  Its table still
    feeds the claim report, so the report and its configuration planning run
    as in the real verb.
``simulate``
    ``estimate_distances`` over generated pairs from the ``ginibre``,
    ``pure`` and ``equal`` ensembles at 10^4, 10^5 and 10^6 shots, with
    forms parsed from the golden tables and one configuration plan built in
    set-up, as ``sweep`` does.  It loads pattern distributions, multinomial
    sampling, the delta method and the bootstrap; derivation costs nothing.
    The ``equal`` ensemble drives the degenerate-radicand branches.
``compare``
    The ``distance`` verb in process, on generated state files in matrix and
    correlation form: Ginibre, pure, rank-2, identical and
    degenerate-difference pairs, all 16 computational-basis product pairs
    and all 16 ordered pairs of Bell states.  It loads ``statefile``,
    ``oracle``, ``overlaps`` and ``cli``; the edge families turn route
    disagreements into counted failures.

Every operation's output is checked after the timed loop against the plain
numpy reference in :mod:`reference` (or, for ``derive``, the golden tables).
A failed operation is an exception, a nonzero exit, a failed audit, a
non-finite value or a reported value off the reference.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from qoverlap import cli, derive, graphs, interferometer, oracle, overlaps, statefile

import golden
import hostspeed
import reference
from spans import Tracer, lstsq_flops

ENSEMBLES = ("ginibre", "pure", "equal")
SHOTS = (10_000, 100_000, 1_000_000)
SIM_PASS = 36          # estimates per pass: each (ensemble, shots) cell four times
PAIRS_PER_FAMILY = 8   # compare: random pairs per family in one pass
COVERAGE_SIGMA = 4.0

#: Fitted targets of ``derive --target all``, in fit order; pi4 comes from its golden table.
FIT_TARGETS = (
    "one", "o11", "o22", "o12", "pi2",
    "w1111", "w1112", "w1122", "o2", "w1222", "w2222", "pi3",
)

#: Traced span -> the per-layer fields reported for it.
LAYERS = {
    "derive.build_basis": ("s",),
    "derive.design_matrix": ("s",),
    "derive.fit_coefficients": ("calls", "s", "self_s"),
    "derive.verify_table_claims": ("s",),
    "derive.lstsq": ("calls", "s"),
    "graphs.probability_exact": ("calls", "s"),
    "graphs.probability_batch": ("calls", "s"),
    "interferometer.pattern_distribution": ("calls", "s"),
    "interferometer.estimate_distances": ("s", "self_s"),
    "interferometer.plan_configurations": ("calls", "s"),
    "overlaps.overlap_set": ("calls", "s"),
    "overlaps.distances_from_overlaps": ("s",),
    "oracle.distance_set": ("calls", "s"),
    "statefile.load_state": ("calls", "s"),
    "cli.main": ("self_s",),
}


def install_tracer(tracer: Tracer) -> None:
    """Wrap every public function the per-layer metrics name, plus lstsq."""
    tracer.patch_everywhere(derive.build_basis, "derive.build_basis")
    tracer.patch(derive.MonomialBasis, "design_matrix", "derive.design_matrix")
    tracer.patch_everywhere(
        derive.fit_coefficients, "derive.fit_coefficients", lambda target, *a, **k: target
    )
    tracer.patch_everywhere(derive.verify_table_claims, "derive.verify_table_claims")
    tracer.patch(np.linalg, "lstsq", "derive.lstsq", lstsq_flops)
    for module, name in (
        (graphs, "probability_exact"),
        (graphs, "probability_batch"),
        (interferometer, "pattern_distribution"),
        (interferometer, "estimate_distances"),
        (interferometer, "plan_configurations"),
        (overlaps, "overlap_set"),
        (overlaps, "distances_from_overlaps"),
        (oracle, "distance_set"),
        (statefile, "load_state"),
        (cli, "main"),
    ):
        tracer.patch_everywhere(getattr(module, name), f"{module.__name__.split('.')[-1]}.{name}")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    calls, total, own = tracer.totals()
    out: dict[str, tuple[float, str]] = {}
    for span, fields in LAYERS.items():
        for field in fields:
            if field == "calls":
                out[f"{span}.calls"] = (calls[span], "count")
            else:
                out[f"{span}.{field}"] = ((total if field == "s" else own)[span], "s")
    by_target = tracer.seconds_by_tag("derive.fit_coefficients")
    for target in FIT_TARGETS:
        out[f"derive.fit.{target}.s"] = (by_target.get(target, 0.0), "s")
    out["derive.lstsq.flop_computed"] = (tracer.tag_sum("derive.lstsq"), "flop")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def _cli_operation(argv: list[str], out: Path):
    """One timed ``cli.main`` call returning ``(seconds, (exit code, report text))``.

    The report file is removed first, so a call that writes nothing leaves
    an empty text rather than the previous report.
    """

    def op():
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # counted as a failed operation
            return time.perf_counter() - t0, exc
        seconds = time.perf_counter() - t0
        return seconds, (rc, out.read_text() if out.exists() else "")

    return op


class Check:
    """Tally of one run's checked operations and values.

    ``unexpected`` counts the failed operations outside the inputs of a known,
    documented defect; those inside it still count in ``failed``.
    """

    def __init__(self) -> None:
        self.attempted = self.failed = self.unexpected = self.agreed = self.values = 0

    def operation(self, ok: bool, known_defect: bool = False) -> None:
        self.attempted += 1
        self.failed += not ok
        self.unexpected += not ok and not known_defect


def pure_pair_subfidelity_defect(ref: dict, off: set[str], failed_audits: set[str]) -> bool:
    """Whether a failure is the known subfidelity defect on a pure pair.

    ``oracle.sub_super_fidelity`` and ``overlaps.distances_from_overlaps``
    zero the subfidelity radicand only below ``256 eps Tr(rho1 rho2)^2``.  On
    a pure pair with a small overlap the radicand is rounding noise above
    that floor, so E comes out about 1e-9 too high and can break the
    ``E <= F`` audit, which makes ``distance`` exit 1.
    """
    pure = min(ref["o11"], ref["o22"]) > 1.0 - 1e-12
    return pure and off <= {"subfidelity"} and failed_audits <= {"E <= F"}


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


_CHILD = (
    "import json, sys, workloads; "
    "print(json.dumps(workloads.cold_derivation(int(sys.argv[1]), sys.argv[2], sys.argv[3] == '1')))"
)
CHILD_TIMEOUT_S = 120


def cold_derivation(seed: int, out: str, traced: bool):
    """One ``derive --target all`` in this (fresh) process, pi4 served from golden.

    Returns ``(seconds, (exit code, report text), spans)``; the spans are
    empty unless ``traced``.
    """
    tracer = Tracer() if traced else None
    if tracer is not None:
        install_tracer(tracer)
    table = golden.load()
    fit = derive.fit_coefficients

    def fit_or_golden(target, basis, *args, **kwargs):
        if target == "pi4":
            return golden.coefficient_vector(table, target, basis)
        return fit(target, basis, *args, **kwargs)

    derive.fit_coefficients = fit_or_golden
    argv = ["derive", "--target", "all", "--seed", str(seed), "--out", out]
    seconds, output = _cli_operation(argv, Path(out))()
    if isinstance(output, Exception):
        raise output
    return seconds, output, tracer.spans if tracer is not None else []


class Derive:
    """Each operation is one cold derivation in a fresh child process.

    The parent only starts the process, so it hands tracing to the child
    and takes the child's spans into its own tracer.
    """

    name = "derive"
    min_ops = 2
    tail = 100  # of two derivations, the slower

    def __init__(self, seed: int, workdir: Path, tracer: Tracer | None) -> None:
        self.seed = seed
        self.out = workdir / "derive.txt"
        self.tracer = tracer
        self.expected = golden.load().format().split("\n")

    def setup(self) -> None:
        """The derive verb needs nothing beyond the import."""

    def operations(self):
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(here.parent / "src"), str(here)])
        argv = [sys.executable, "-c", _CHILD, str(self.seed), str(self.out),
                "1" if self.tracer is not None else "0"]

        def op():
            t0 = time.perf_counter()
            try:
                done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path), check=True,
                                      capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            except subprocess.SubprocessError as exc:  # counted as a failed operation
                return time.perf_counter() - t0, exc
            seconds, output, spans = json.loads(done.stdout.splitlines()[-1])
            if self.tracer is not None:
                self.tracer.absorb(spans)
            return seconds, output

        return [op]

    def check(self, index: int, output, tally: Check) -> None:
        if isinstance(output, Exception):
            output = (None, "")
        rc, text = output
        try:
            got = golden.strip_run_specific(text).split("\n")
        except ValueError:
            got = []
        tally.values += sum(1 for line in self.expected if line)
        tally.agreed += sum(a == b for a, b in zip(got, self.expected) if b)
        tally.operation(rc == 0 and got == self.expected)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIM_ROWS = 11  # seven statistics (pi2 included) and four measures per report
_MEASURE_KEYS = {
    "subfidelity": "subfidelity",
    "superfidelity": "superfidelity",
    "hilbert-schmidt": "hilbert_schmidt",
    "trace-distance": "trace_distance",
}


class Simulate:
    name = "simulate"
    min_ops = 100   # p90 then has at least ten samples beyond it
    tail = 90

    def __init__(self, seed: int, workdir: Path, tracer: Tracer | None) -> None:
        self.cases = []
        for i in range(SIM_PASS):
            ensemble = ENSEMBLES[i % 3]
            shots = SHOTS[(i // 3) % 3]
            rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
            if ensemble == "pure":
                pair = reference.pure(rng), reference.pure(rng)
            elif ensemble == "equal":
                rho = reference.ginibre(rng)
                pair = rho, rho
            else:
                pair = reference.ginibre(rng), reference.ginibre(rng)
            run_seed = int(np.random.SeedSequence([seed, i, shots]).generate_state(1)[0])
            self.cases.append((pair, shots, run_seed))
        self.refs = [reference.reference(*pair) for pair, _, _ in self.cases]

    def setup(self) -> None:
        """Forms from the golden tables and the shared configuration plan."""
        self.forms = golden.forms(golden.load())
        needed = [g for form in self.forms.values() for _, gs in form for g in gs]
        self.plan = interferometer.plan_configurations(needed)

    def operations(self):
        def make(pair, shots, run_seed):
            def op():
                t0 = time.perf_counter()
                try:
                    rep = interferometer.estimate_distances(
                        pair[0], pair[1], self.forms, shots=shots, seed=run_seed,
                        threads=1, plan=self.plan,
                    )
                except Exception as exc:  # counted as a failed operation
                    rep = exc
                return time.perf_counter() - t0, rep

            return op

        return [make(*case) for case in self.cases]

    def check(self, index: int, rep, tally: Check) -> None:
        ref = self.refs[index]
        try:
            rows = [(r.name, r, (r.oracle,)) for r in rep.statistics]
            rows += [(_MEASURE_KEYS[r.name], r, (r.oracle, r.formula)) for r in rep.measures]
            failed_audits = {name for name, ok in rep.audit if not ok}
        except (AttributeError, KeyError):  # an exception instead of a report, or a changed one
            tally.values += SIM_ROWS
            tally.operation(False)
            return
        finite = len(rows) == SIM_ROWS
        off = set()
        for key, row, routes in rows:
            if not all(reference.agrees(key, v, ref) for v in routes):
                off.add(key)
            finite &= bool(np.isfinite(row.estimate) and np.isfinite(row.std_err))
            tally.values += 1
            tally.agreed += abs(row.estimate - ref[key]) <= COVERAGE_SIGMA * row.std_err
        known = finite and pure_pair_subfidelity_defect(ref, off, failed_audits)
        tally.operation(finite and not off and not failed_audits, known)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

_ROUTE_KEYS = {
    "oracle": ("overlap", "subfidelity", "fidelity", "superfidelity", "hilbert_schmidt",
               "trace_distance"),
    "overlap_route": ("overlap", "subfidelity", "superfidelity", "hilbert_schmidt",
                      "trace_distance"),
}
COMPARE_VALUES = sum(map(len, _ROUTE_KEYS.values())) + 3  # plus the three moments


class Compare:
    name = "compare"
    min_ops = 1000  # p99 then has at least ten samples beyond it
    tail = 99

    def __init__(self, seed: int, workdir: Path, tracer: Tracer | None) -> None:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
        self.workdir = workdir
        self.out = workdir / "distance.json"
        pairs: list[tuple[np.ndarray, np.ndarray]] = []
        draws = (
            lambda: (reference.ginibre(rng), reference.ginibre(rng)),
            lambda: (reference.pure(rng), reference.pure(rng)),
            lambda: (reference.ginibre(rng, rank=2), reference.ginibre(rng, rank=2)),
            lambda: reference.degenerate_pair(rng),
        )
        for draw in draws:
            pairs += [draw() for _ in range(PAIRS_PER_FAMILY)]
        identical = (reference.ginibre, reference.pure, lambda r: reference.ginibre(r, rank=2))
        for k in range(PAIRS_PER_FAMILY):
            rho = identical[k % 3](rng)
            pairs.append((rho, rho))  # one file, given twice
        for family in (reference.computational_basis(), reference.bell_states()):
            pairs += [(a, b) for a in family for b in family]

        ket00 = reference.computational_basis()[0]
        self.cases = []  # (paths, reference values, holds |00><00|)
        for a, b in pairs:
            path_a, rho_a = self._write(a, rng, len(self.cases), "a")
            path_b, rho_b = (path_a, rho_a) if b is a else self._write(b, rng, len(self.cases), "b")
            holds_ket00 = np.array_equal(a, ket00) or np.array_equal(b, ket00)
            self.cases.append(((path_a, path_b), reference.reference(rho_a, rho_b), holds_ket00))

    def _write(self, rho, rng, index: int, side: str) -> tuple[str, np.ndarray]:
        """Write a state file in a random representation; return it and the state it encodes."""
        path = self.workdir / f"pair{index}{side}.json"
        if rng.integers(2):
            R = reference.correlation(rho)
            doc = {"label": path.stem, "correlation": R.tolist()}
            rho = reference.from_correlation(R)
        else:
            doc = {"label": path.stem, "matrix": {"re": rho.real.tolist(), "im": rho.imag.tolist()}}
        path.write_text(json.dumps(doc))
        return str(path), rho

    def setup(self) -> None:
        """The distance verb needs nothing beyond the import."""

    def operations(self):
        return [
            _cli_operation(["distance", *paths, "--format", "json", "--out", str(self.out)], self.out)
            for paths, _, _ in self.cases
        ]

    def check(self, index: int, output, tally: Check) -> None:
        _, ref, holds_ket00 = self.cases[index]
        try:
            rc, text = output
            doc = json.loads(text)
            failed_audits = {a["inequality"] for a in doc["audit"] if not a["ok"]}
            values = [(k, doc[route][k]) for route, keys in _ROUTE_KEYS.items() for k in keys]
            values += [(k, doc["overlap_route"]["moments"][k]) for k in ("pi2", "pi3", "pi4")]
        except (TypeError, ValueError, KeyError):  # an exception, no report, or a changed one
            tally.values += COMPARE_VALUES
            tally.operation(False, holds_ket00)
            return
        off = set()
        for key, value in values:
            good = reference.agrees(key, value, ref)
            tally.values += 1
            tally.agreed += good
            if not good:
                off.add(key)
        # The exit code is 1 exactly when an audit fails.
        exit_ok = rc == (1 if failed_audits else 0)
        # overlaps._as_correlation reads |00><00| (real, [0, 0] == 1) as a
        # correlation matrix, so every pair holding it comes out wrong.
        known = holds_ket00 or (exit_ok and pure_pair_subfidelity_defect(ref, off, failed_audits))
        tally.operation(exit_ok and not failed_audits and not off, known)


WORKLOADS = {w.name: w for w in (Derive, Simulate, Compare)}


def measure(workload, seconds: float) -> tuple[list[list[float]], list[float], Check]:
    """Run whole passes over the inputs while another pass fits in ``seconds``.

    At least ``min_ops`` operations run, however long they take.  Returns
    each input's latencies, in the order of ``operations()``, the host-speed
    kernel's times, taken before the first pass and after every pass, and
    the tally.  Latency covers the program call only.  Each output is
    checked right after its call and then dropped, so the run's memory does
    not grow with the number of operations.
    """
    ops = workload.operations()
    latencies: list[list[float]] = [[] for _ in ops]
    kernel = [hostspeed.kernel_seconds() for _ in range(hostspeed.REPS_PER_PASS)]
    tally = Check()
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        for index, op in enumerate(ops):
            seconds_taken, output = op()
            latencies[index].append(seconds_taken)
            workload.check(index, output, tally)
        kernel += [hostspeed.kernel_seconds() for _ in range(hostspeed.REPS_PER_PASS)]
        now = time.perf_counter()
        elapsed, last_pass = now - began, now - start
        if tally.attempted >= workload.min_ops and elapsed + last_pass > seconds:
            return latencies, kernel, tally
