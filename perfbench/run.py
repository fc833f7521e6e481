"""qoverlap benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload {derive,simulate,compare} --seed N \\
        --seconds S --trace {0,1}

The seed fixes every input.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
same workload runs with the span tracer on and the line holds the per-layer
metrics, the tracing overhead against an untraced run of the same seed, and
the spans are written to ``.bench_out/``.  Lines before it give the
environment record and figures over every sample of the run.

End-to-end metrics, the same six on every workload (see ``workloads`` for
what one operation is).  The shared host this was tuned on changes speed by
up to 1.9x for tens of seconds to minutes at a time, so latency is taken per
input as its best of the run's repeats and scaled to a reference host speed
by the ``hostspeed`` kernel's best time in the run:

``setup_s``
    Median over ``SETUP_REPEATS`` of a cold import of ``qoverlap.cli`` in a
    fresh interpreter plus the workload's in-process set-up (for
    ``simulate``: forms from the golden tables and ``plan_configurations``).
``peak_rss_mb``
    Peak resident memory of the run, or of its largest child process.
``best_ops_per_s``
    Distinct inputs per second of their summed best latencies.
``best_ms_p50``, ``best_ms_tail``
    Median and tail over the distinct inputs of each input's best latency,
    at the reference host speed.
    The tail is the highest percentile with ten inputs beyond it (p72 of
    36 on ``simulate``, p86 of 72 on ``compare``), or with fewer than
    eleven inputs the slowest: ``derive`` has one input, so its tail is its
    median.
``agree_share``
    Share of checked values that agree with the reference: golden-table
    lines on ``derive``, reported values within tolerance on ``compare``,
    intervals holding the reference within 4 sigma on ``simulate``.

The lines before the result give figures over every sample of the run under
the names used per workload (``derive_s``, ``estimates_per_s``,
``estimate_ms_p90``, ``pair_ms_p99`` ...): throughput, median and the highest
percentile with ten samples beyond it (p90 of at least 100 estimates, p99 of
at least 1000 pairs, the slowest of two or three derivations), and the
kernel's best time.  They are not scaled and not bounded.

``failed`` / ``attempted`` in the result line count failed operations;
``correct`` is false when one fails outside the inputs of a known defect.

The program is imported from ``src/`` of the checkout; without it the run
exits with status 2.  BLAS runs one thread (two threads were slower on the
2-core machine this was tuned on) and sampling uses ``threads=1``.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 150

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qoverlap.cli; "
    "print(time.perf_counter() - t)"
)

#: Per-workload figures over every sample of the run: name -> (figure, unit).
SAMPLE_FIGURES = {
    "derive": {"derive_s": ("p50_s", "s")},
    "simulate": {
        "estimates_per_s": ("per_s", "1/s"),
        "estimate_ms_p50": ("p50_ms", "ms"),
        "estimate_ms_p90": ("tail_ms", "ms"),
        "sim_coverage_4sigma": ("agree_share", "share"),
    },
    "compare": {
        "pairs_per_s": ("per_s", "1/s"),
        "pair_ms_p50": ("p50_ms", "ms"),
        "pair_ms_p99": ("tail_ms", "ms"),
    },
}


def _git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment(args) -> dict:
    import numpy as np

    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_seconds() -> float:
    """Cold import of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


def untraced_run(args) -> dict:
    """The same workload and seed with tracing off, in a fresh process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])


def peak_rss_kb() -> int:
    """Peak resident set of this process or of the largest child it waited for.

    The derive workload runs the program in child processes.
    """
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run(args, workdir: Path) -> tuple[dict, dict]:
    """Set up, measure and check one workload; return (result, summary)."""
    import numpy as np
    import hostspeed
    import workloads
    from spans import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        workloads.install_tracer(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(imported + time.perf_counter() - t0)

    per_input, kernel, tally = workloads.measure(workload, args.seconds)
    if tracer is not None:
        tracer.restore()
    kernel_ms = min(kernel) * 1e3
    best = np.array([min(times) for times in per_input]) * hostspeed.REFERENCE_MS / kernel_ms * 1e3
    beyond = 100.0 * (1.0 - 10.0 / len(best)) if len(best) > 10 else 100.0
    end_to_end = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(peak_rss_kb() / 1024, "MB"),
        "best_ops_per_s": _metric(len(best) / best.sum() * 1e3, "1/s"),
        "best_ms_p50": _metric(np.percentile(best, 50), "ms"),
        "best_ms_tail": _metric(np.percentile(best, beyond), "ms"),
        "agree_share": _metric(tally.agreed / tally.values, "share"),
    }
    ms = np.concatenate(per_input) * 1e3
    figures = {
        "per_s": len(ms) / ms.sum() * 1e3,
        "p50_ms": np.percentile(ms, 50),
        "p50_s": np.percentile(ms, 50) * 1e-3,
        "tail_ms": np.percentile(ms, workload.tail),
        "agree_share": end_to_end["agree_share"]["value"],
    }
    summary = {
        name: (figures[figure], unit)
        for name, (figure, unit) in SAMPLE_FIGURES[args.workload].items()
    }
    summary["failed_share"] = (tally.failed / tally.attempted, "share")
    summary["operations"] = (len(ms), "count")
    summary["host_kernel_ms"] = (kernel_ms, "ms")

    metrics = end_to_end
    if tracer is not None:
        metrics = {name: _metric(v, unit) for name, (v, unit) in workloads.layer_metrics(tracer).items()}
        untraced = untraced_run(args)["metrics"]["best_ms_p50"]["value"]
        traced = end_to_end["best_ms_p50"]["value"]
        metrics["trace.overhead_ms_p50"] = _metric(traced - untraced, "ms")
        metrics["trace.overhead_share"] = _metric(traced / untraced - 1.0, "share")
        OUT.mkdir(exist_ok=True)
        tracer.write(
            OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
            {"environment": environment(args), "metrics": metrics},
        )
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("derive", "simulate", "compare"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qoverlap" / "__init__.py").is_file():
        print(f"error: no qoverlap sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qoverlap

    if SRC not in Path(qoverlap.__file__).resolve().parents:
        print(f"error: qoverlap imported from {qoverlap.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result, summary = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("environment " + json.dumps(environment(args)))
    for name, (value, unit) in summary.items():
        print(f"{args.workload} {name} {value} {unit}".rstrip())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
