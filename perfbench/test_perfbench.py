"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""
import argparse
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import golden
import reference
import run
import workloads
from qoverlap.derive import build_basis, fit_coefficients

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_reference_worked_pair():
    bell = reference.bell_states()[0]
    ref = reference.reference(bell, np.eye(4, dtype=complex) / 4.0)
    for name in ("fidelity", "subfidelity", "superfidelity"):
        assert ref[name] == pytest.approx(0.25, abs=1e-12), name
    assert ref["hilbert_schmidt"] == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)
    assert ref["trace_distance"] == pytest.approx(0.75, abs=1e-12)


def test_golden_parser_round_trips():
    text = golden.GOLDEN_PATH.read_text()
    assert golden.parse(text).format() == text


def test_golden_forms_match_fitted_forms():
    forms = golden.forms(golden.load())
    basis = build_basis(2)
    for name in ("o11", "o22", "o12"):
        fitted = fit_coefficients(name, basis, samples=600, seed=42).as_form()
        assert [(c, tuple(g.key() for g in gs)) for c, gs in forms[name]] == [
            (c, tuple(g.key() for g in gs)) for c, gs in fitted
        ]


def test_golden_pi4_table_maps_onto_the_basis():
    table = golden.load()
    vector = golden.coefficient_vector(table, "pi4", build_basis(4))
    lines = vector.as_table().rstrip("\n").split("\n")
    assert lines[0] == "# target: pi4"
    assert [tuple(line.split("\t")) for line in lines[1:]] == list(table.tables["pi4"])


@pytest.fixture()
def small_runs(monkeypatch, tmp_path):
    """Workloads cut to one short pass, and the untraced comparison run faked."""
    monkeypatch.setattr(workloads, "SIM_PASS", 3)
    monkeypatch.setattr(workloads, "PAIRS_PER_FAMILY", 1)
    for cls in (workloads.Simulate, workloads.Compare):
        monkeypatch.setattr(cls, "min_ops", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(
        run, "untraced_run", lambda args: {"metrics": {"best_ms_p50": {"value": 1.0}}}
    )

    def go(workload, trace):
        args = argparse.Namespace(workload=workload, seed=3, seconds=0.0, trace=trace)
        workdir = tmp_path / f"{workload}-{trace}"
        workdir.mkdir()
        return run.run(args, workdir)

    return go


@pytest.mark.parametrize("workload", ["compare", "simulate"])
def test_smoke_emits_every_metric(small_runs, workload):
    result, summary = small_runs(workload, 0)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["unit"] == units[k] and v["value"] > 0 for k, v in result["metrics"].items())
    assert result["attempted"] >= 1 and result["correct"]
    assert set(run.SAMPLE_FIGURES[workload]) <= set(summary)

    traced, _ = small_runs(workload, 1)
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_compare_counts_the_ket00_defect(small_runs):
    result, summary = small_runs("compare", 0)
    assert result["failed"] > 0 and result["correct"]
    assert summary["failed_share"][0] == result["failed"] / result["attempted"]


def test_pure_pair_subfidelity_defect_is_narrow():
    pure = reference.reference(reference.bell_states()[0], reference.computational_basis()[1])
    mixed = reference.reference(reference.bell_states()[0], np.eye(4, dtype=complex) / 4.0)
    assert workloads.pure_pair_subfidelity_defect(pure, {"subfidelity"}, {"E <= F"})
    assert not workloads.pure_pair_subfidelity_defect(pure, {"fidelity"}, set())
    assert not workloads.pure_pair_subfidelity_defect(pure, set(), {"F <= G"})
    assert not workloads.pure_pair_subfidelity_defect(mixed, {"subfidelity"}, set())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and not done.stdout
