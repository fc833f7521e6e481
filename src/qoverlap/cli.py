"""Command-line front end.

Three verbs:

``distance STATE1 STATE2``
    Distances between two state files, computed from the spectral oracle
    and from the correlation-matrix overlap route, with an optional
    interferometric estimation run (``--simulate SHOTS``).

``derive``
    Rederive the graph-probability representation of one target (or the
    whole battery) and print coefficient tables plus the structural
    claim report.

``sweep``
    Monte Carlo convergence study over an ensemble of random pairs;
    emits a CSV of bias/RMSE/reported-error per shot count and measure.

Exit codes: 0 success; 1 validation or physics failure (bad state file,
nonphysical state, violated chain inequality); 2 usage error; 3 no exact
representation found (derivation residual above bound, or a printed fit
not certified exactly).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import __version__, random_state
from .derive import ResidualError, derive_targets, measurement_forms, verify_table_claims
from .interferometer import estimate_distances, plan_configurations
from .oracle import distance_set, overlap
from .overlaps import TARGETS, distances_from_overlaps, moments_from_overlaps, overlap_set
from .statefile import load_state

__all__ = ["main", "build_parser"]

_SWEEP_MEASURES = (
    "subfidelity",
    "superfidelity",
    "hilbert-schmidt",
    "trace-distance",
    "hs-squared",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qoverlap",
        description="Two-qubit state distances three ways: spectral oracle, "
        "overlap algebra, simulated singlet-projection interferometry.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser(
        "distance", help="distances between two state files, three routes"
    )
    d.add_argument("state1", help="path to the first state file")
    d.add_argument("state2", help="path to the second state file")
    d.add_argument(
        "--simulate",
        type=int,
        metavar="SHOTS",
        default=None,
        help="also run the interferometric estimator with this many shots "
        "per configuration",
    )
    d.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
    d.add_argument("--out", default=None, help="write the report here instead of stdout")
    d.add_argument("--format", choices=("text", "json"), default="text")

    v = sub.add_parser(
        "derive", help="rederive graph-probability coefficient tables"
    )
    v.add_argument(
        "--target",
        action="append",
        choices=sorted(TARGETS) + ["all"],
        default=None,
        help="target functional to fit (repeatable; default: all)",
    )
    v.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
    v.add_argument("--out", default=None, help="write the tables here instead of stdout")
    v.add_argument("--format", choices=("text", "json"), default="text")

    s = sub.add_parser(
        "sweep", help="Monte Carlo convergence study (CSV output)"
    )
    s.add_argument(
        "--shots",
        default="10000,100000,1000000",
        help="comma-separated shot counts (default 10000,100000,1000000)",
    )
    s.add_argument(
        "--pairs", type=int, default=20, help="random pairs per shot count (default 20)"
    )
    s.add_argument(
        "--ensemble",
        choices=("ginibre", "pure", "equal"),
        default="ginibre",
        help="pair ensemble; 'equal' draws one state and compares it to itself",
    )
    s.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
    s.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def _distance_payload(args) -> tuple[dict, int]:
    label1, rho1 = load_state(args.state1)
    label2, rho2 = load_state(args.state2)
    ds = distance_set(rho1, rho2)
    o = overlap_set(rho1, rho2)
    m = moments_from_overlaps(o)
    od = distances_from_overlaps(o, m)
    audit = ds.chain_audit()

    payload: dict = {
        "version": __version__,
        "seed": args.seed,
        "states": [
            {"label": label1, "path": args.state1},
            {"label": label2, "path": args.state2},
        ],
        "oracle": {
            "overlap": overlap(rho1, rho2),
            "subfidelity": ds.subfidelity,
            "fidelity": ds.fidelity,
            "superfidelity": ds.superfidelity,
            "hilbert_schmidt": ds.hilbert_schmidt,
            "trace_distance": ds.trace_distance,
            "bures_sq": ds.bures_sq,
        },
        "overlap_route": {
            "overlap": o.O12,
            "subfidelity": od.subfidelity,
            "superfidelity": od.superfidelity,
            "hilbert_schmidt": od.hilbert_schmidt,
            "trace_distance": od.trace_distance,
            "moments": {"pi2": m.pi2, "pi3": m.pi3, "pi4": m.pi4},
        },
        "audit": [{"inequality": name, "ok": ok} for name, ok in audit],
    }

    code = 0 if all(ok for _, ok in audit) else 1
    if args.simulate is not None:
        if args.simulate <= 0:
            raise ValueError(f"--simulate needs a positive shot count, got {args.simulate}")
        forms = measurement_forms()
        rep = estimate_distances(
            rho1,
            rho2,
            forms,
            shots=args.simulate,
            seed=args.seed,
        )
        payload["simulation"] = {
            "shots": rep.shots,
            "seed": rep.seed,
            "photon_pairs": rep.photon_pairs,
            "configurations": rep.n_configurations,
            "statistics": [asdict(r) for r in rep.statistics],
            "measures": [asdict(r) for r in rep.measures],
            "audit": [{"inequality": n, "ok": ok} for n, ok in rep.audit],
        }
        if not rep.audit_ok:
            code = 1
    return payload, code


def _render_distance_text(p: dict) -> str:
    lines = [f"qoverlap {p['version']}  seed {p['seed']}"]
    for i, st in enumerate(p["states"], start=1):
        lines.append(f"state {i}: {st['label']} ({st['path']})")
    lines.append("")
    rows = [
        ("overlap Tr(rho1 rho2)", "overlap", "overlap"),
        ("subfidelity E", "subfidelity", "subfidelity"),
        ("fidelity F", "fidelity", None),
        ("superfidelity G", "superfidelity", "superfidelity"),
        ("hilbert-schmidt H", "hilbert_schmidt", "hilbert_schmidt"),
        ("trace distance T", "trace_distance", "trace_distance"),
        ("bures^2", "bures_sq", None),
    ]
    lines.append(f"{'measure':<24s} {'oracle':>14s} {'overlap route':>14s}")
    for title, okey, rkey in rows:
        right = f"{p['overlap_route'][rkey]:14.10f}" if rkey else f"{'-':>14s}"
        lines.append(f"{title:<24s} {p['oracle'][okey]:14.10f} {right}")
    mom = p["overlap_route"]["moments"]
    lines.append(
        f"{'moments pi2/pi3/pi4':<24s} "
        f"{mom['pi2']:.10f} / {mom['pi3']:.10f} / {mom['pi4']:.10f}"
    )
    lines.append("")
    bad = [a["inequality"] for a in p["audit"] if not a["ok"]]
    if bad:
        lines.append("audit: VIOLATED: " + "; ".join(bad))
    else:
        lines.append("audit: all chain inequalities hold")

    sim = p.get("simulation")
    if sim:
        lines.append("")
        lines.append(
            f"simulation  shots {sim['shots']}  seed {sim['seed']}  "
            f"photon pairs {sim['photon_pairs']}  configurations {sim['configurations']}"
        )
        lines.append(f"{'statistic':<16s} {'oracle':>14s} {'estimate':>14s} {'std err':>12s}")
        for r in sim["statistics"]:
            lines.append(
                f"{r['name']:<16s} {r['oracle']:14.10f} {r['estimate']:14.10f} "
                f"{r['std_err']:12.3e}"
            )
        lines.append("")
        lines.append(
            f"{'measure':<16s} {'oracle':>14s} {'formula':>14s} "
            f"{'estimate':>14s} {'std err':>12s}"
        )
        for r in sim["measures"]:
            lines.append(
                f"{r['name']:<16s} {r['oracle']:14.10f} {r['formula']:14.10f} "
                f"{r['estimate']:14.10f} {r['std_err']:12.3e}"
            )
        bad = [a["inequality"] for a in sim["audit"] if not a["ok"]]
        lines.append(
            "simulation audit: " + ("VIOLATED: " + "; ".join(bad) if bad else "ok")
        )
    return "\n".join(lines) + "\n"


def cmd_distance(args) -> int:
    payload, code = _distance_payload(args)
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _render_distance_text(payload)
    _emit(text, args.out)
    return code


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


def _fit_summary(fit) -> dict:
    classes = {fit.basis.graphs[i].key() for i in fit.support_graphs()}
    return {
        "residual": fit.residual,
        "monomials": len(fit.entries),
        "graph_classes": len(classes),
        "rational": fit.all_rational,
        "certified": fit.exact_certified,
        "unique": not fit.non_unique,
    }


def cmd_derive(args) -> int:
    everything = args.target is None or "all" in args.target
    seed = args.seed
    fits = derive_targets(None if everything else args.target, seed=seed)
    report = verify_table_claims(fits) if everything else None

    if args.format == "json":
        payload = {
            "version": __version__,
            "seed": seed,
            "fits": {
                t: {
                    **_fit_summary(fit),
                    "coefficients": [
                        [str(c), fit.basis.monomial_string(k)]
                        for k, c in sorted(fit.entries.items())
                    ],
                }
                for t, fit in fits.items()
            },
        }
        if report is not None:
            payload["claims"] = [
                {
                    "workflow": c.workflow,
                    "quantity": c.quantity,
                    "stated": c.stated,
                    "achieved": c.achieved,
                    "match": c.match,
                    "note": c.note,
                }
                for c in report.claims
            ]
            payload["all_match"] = report.all_match
        text = json.dumps(payload, indent=2) + "\n"
    else:
        blocks = [f"qoverlap {__version__}  seed {seed}", ""]
        for t, fit in fits.items():
            s = _fit_summary(fit)
            blocks.append(fit.as_table().rstrip("\n"))
            blocks.append(
                f"# residual {s['residual']:.3e}  monomials {s['monomials']}  "
                f"graph classes {s['graph_classes']}  rational {s['rational']}  "
                f"certified {s['certified']}  unique {s['unique']}"
            )
            blocks.append("")
        if report is not None:
            blocks.append(report.as_text().rstrip("\n"))
            blocks.append(
                "all stated counts reproduced"
                if report.all_match
                else "MISMATCHES PRESENT (see lines above)"
            )
            blocks.append("")
        text = "\n".join(blocks)
    _emit(text, args.out)
    uncertified = [t for t, fit in fits.items() if not fit.exact_certified]
    if uncertified:
        print(f"error: fits not certified exactly: {', '.join(uncertified)}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _draw_pair(ensemble: str, seed: int, index: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7, index]))
    if ensemble == "pure":
        return random_state(4, "pure", rng), random_state(4, "pure", rng)
    rho1 = random_state(4, seed=rng)
    if ensemble == "equal":
        return rho1, rho1
    return rho1, random_state(4, seed=rng)


def _run_seed(seed: int, index: int, shots: int) -> int:
    return int(np.random.SeedSequence([seed, index, shots]).generate_state(1)[0])


def cmd_sweep(args) -> int:
    try:
        shot_counts = [int(s) for s in args.shots.split(",") if s.strip()]
    except ValueError as exc:
        raise ValueError(f"--shots must be comma-separated integers: {exc}") from exc
    if not shot_counts or any(n <= 0 for n in shot_counts):
        raise ValueError(f"--shots needs positive integers, got {args.shots!r}")
    if args.pairs <= 0:
        raise ValueError(f"--pairs must be positive, got {args.pairs}")

    forms = measurement_forms()
    needed = [g for form in forms.values() for _, graphs in form for g in graphs]
    plan = plan_configurations(needed)

    lines = ["N,measure,bias,rmse,mean std-err"]
    for shots in shot_counts:
        errors = {m: [] for m in _SWEEP_MEASURES}
        sigmas = {m: [] for m in _SWEEP_MEASURES}
        for i in range(args.pairs):
            rho1, rho2 = _draw_pair(args.ensemble, args.seed, i)
            rep = estimate_distances(
                rho1,
                rho2,
                forms,
                shots=shots,
                seed=_run_seed(args.seed, i, shots),
                plan=plan,
            )
            for row in rep.measures:
                errors[row.name].append(row.estimate - row.oracle)
                sigmas[row.name].append(row.std_err)
            pi2 = next(r for r in rep.statistics if r.name == "pi2")
            errors["hs-squared"].append(pi2.estimate - pi2.oracle)
            sigmas["hs-squared"].append(pi2.std_err)
        for m in _SWEEP_MEASURES:
            err = np.asarray(errors[m])
            lines.append(
                f"{shots},{m},{err.mean():.10e},"
                f"{np.sqrt(np.mean(err**2)):.10e},{np.mean(sigmas[m]):.10e}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built at the first :func:`main` call and reused by later ones."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"distance": cmd_distance, "derive": cmd_derive, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except ResidualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
