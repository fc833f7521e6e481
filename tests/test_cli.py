"""End-to-end command tests, run in-process through ``main(argv)``.

The simulate/sweep paths re-derive the measurement decompositions on
every invocation; tests patch that step with the session battery so the
command logic stays fast to exercise.
"""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qoverlap.cli as cli
import qoverlap.derive as derive
from qoverlap.derive import ResidualError

ROOT = Path(__file__).resolve().parent.parent
STATES = ROOT / "states"
BELL = str(STATES / "bell.json")
MIXED = str(STATES / "mixed.json")
KET00 = {
    "label": "ket00",
    "matrix": {"re": np.diag([1, 0, 0, 0]).tolist(), "im": np.zeros((4, 4)).tolist()},
}


class TestDistance:
    def test_worked_pair_text(self, capsys):
        assert cli.main(["distance", BELL, MIXED]) == 0
        out = capsys.readouterr().out
        assert "bell-phi-plus" in out and "maximally-mixed" in out
        assert "0.7500000000" in out  # trace distance, both routes
        assert "0.8660254038" in out  # hilbert-schmidt
        assert "audit: all chain inequalities hold" in out

    def test_worked_pair_json(self, capsys):
        assert cli.main(["distance", BELL, MIXED, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle"]["fidelity"] == pytest.approx(0.25, abs=1e-10)
        assert doc["oracle"]["trace_distance"] == pytest.approx(0.75, abs=1e-10)
        assert doc["overlap_route"]["trace_distance"] == pytest.approx(0.75, abs=1e-8)
        assert all(entry["ok"] for entry in doc["audit"])
        assert doc["seed"] == 42
        assert doc["version"]

    def test_identical_states_zero_distances(self, capsys):
        assert cli.main(["distance", BELL, BELL, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle"]["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert doc["oracle"]["trace_distance"] == pytest.approx(0.0, abs=1e-9)
        assert doc["overlap_route"]["hilbert_schmidt"] == pytest.approx(0.0, abs=1e-9)

    def test_oracle_overlap_is_the_spectral_overlap(self, tmp_state, capsys):
        ket00 = tmp_state(KET00)
        cli.main(["distance", ket00, ket00, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle"]["overlap"] == pytest.approx(1.0, abs=1e-12)
        assert doc["oracle"]["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["distance", BELL, MIXED, "--format", "json", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["oracle"]["fidelity"] == pytest.approx(0.25)

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"label": "x", "matrix": {"re": [[1]], "im": [[0]]}}')
        assert cli.main(["distance", str(bad), BELL]) == 1
        assert "bad.json" in capsys.readouterr().err

    def test_nonphysical_state_exits_one(self, tmp_path, capsys):
        doc = {"correlation": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
        bad = tmp_path / "neg.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["distance", str(bad), BELL]) == 1
        assert "eigenvalue" in capsys.readouterr().err

    def test_failed_oracle_audit_exits_one(self, monkeypatch, capsys):
        """A chain violation in the oracle's distances is printed and fails the command."""
        spectral = cli.distance_set
        monkeypatch.setattr(cli, "distance_set", lambda *a: dataclasses.replace(spectral(*a), subfidelity=2.0))
        assert cli.main(["distance", BELL, MIXED]) == 1
        assert "\naudit: VIOLATED: E <= F\n" in capsys.readouterr().out

    def test_missing_argument_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["distance", BELL])
        assert err.value.code == 2

    def test_unknown_verb_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["teleport"])
        assert err.value.code == 2

    def test_simulate_reports_estimates(self, forms, monkeypatch, capsys):
        monkeypatch.setattr(cli, "measurement_forms", lambda **kw: forms)
        code = cli.main(
            ["distance", BELL, MIXED, "--simulate", "20000", "--seed", "9", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        sim = doc["simulation"]
        assert sim["shots"] == 20000 and sim["seed"] == 9
        assert sim["photon_pairs"] > 0 and sim["configurations"] > 0
        measures = {r["name"]: r for r in sim["measures"]}
        for name, row in measures.items():
            tol = max(5 * row["std_err"], 1e-6)
            assert abs(row["estimate"] - row["oracle"]) < tol, name

    def test_simulate_rejects_nonpositive_shots(self, forms, monkeypatch, capsys):
        monkeypatch.setattr(cli, "measurement_forms", lambda **kw: forms)
        assert cli.main(["distance", BELL, MIXED, "--simulate", "0"]) == 1
        assert "positive shot count" in capsys.readouterr().err

    def test_simulate_text_renders_the_report(self, forms, monkeypatch, capsys):
        monkeypatch.setattr(cli, "measurement_forms", lambda **kw: forms)
        assert cli.main(["distance", BELL, MIXED, "--simulate", "5000", "--seed", "9", "--format", "json"]) == 0
        sim = json.loads(capsys.readouterr().out)["simulation"]
        assert cli.main(["distance", BELL, MIXED, "--simulate", "5000", "--seed", "9"]) == 0
        text = capsys.readouterr().out.split("\n\nsimulation  ")[1]
        lines = text.splitlines()
        assert lines[0] == (
            f"shots 5000  seed 9  photon pairs {sim['photon_pairs']}  configurations {sim['configurations']}"
        )
        body = [line.split() for line in lines[2:-1] if line and not line.startswith("measure ")]
        rows = {row[0]: row[1:] for row in body}
        assert list(rows) == [r["name"] for r in sim["statistics"] + sim["measures"]]
        for r in sim["statistics"] + sim["measures"]:
            got = rows[r["name"]]
            assert float(got[0]) == pytest.approx(r["oracle"], abs=1e-10), r["name"]
            assert float(got[-2]) == pytest.approx(r["estimate"], abs=1e-10), r["name"]
            assert float(got[-1]) == pytest.approx(r["std_err"], rel=1e-3), r["name"]
        assert lines[-1] == "simulation audit: ok"

    def test_failed_simulation_audit_exits_one(self, forms, monkeypatch, capsys):
        """A chain violation in the estimator's report fails the command, also when the oracle's audit holds."""
        estimate = cli.estimate_distances

        def violated(*args, **kwargs):
            rep = estimate(*args, **kwargs)
            return dataclasses.replace(rep, audit=(("E <= F", False),) + rep.audit[1:])

        monkeypatch.setattr(cli, "measurement_forms", lambda **kw: forms)
        monkeypatch.setattr(cli, "estimate_distances", violated)
        assert cli.main(["distance", BELL, MIXED, "--simulate", "1000"]) == 1
        out = capsys.readouterr().out
        assert "audit: all chain inequalities hold" in out
        assert out.endswith("simulation audit: VIOLATED: E <= F\n")


class TestDerive:
    def test_single_target_table(self, capsys):
        assert cli.main(["derive", "--target", "pi2"]) == 0
        out = capsys.readouterr().out
        assert "# target: pi2" in out
        assert "graph classes 9" in out
        assert "certified True" in out

    def test_single_target_json(self, capsys):
        assert cli.main(["derive", "--target", "o12", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        fit = doc["fits"]["o12"]
        assert fit["rational"] and fit["certified"]
        assert fit["residual"] < 1e-8
        assert all(len(row) == 2 for row in fit["coefficients"])
        assert "claims" not in doc  # partial battery: no claim report

    def test_unknown_target_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["derive", "--target", "pi9"])
        assert err.value.code == 2

    def test_residual_failure_exits_three(self, monkeypatch, capsys):
        def boom(target, basis, samples, seed=42, prefer_classes=None):
            raise ResidualError(f"no representation of {target!r} on this basis")

        monkeypatch.setattr(derive, "fit_coefficients", boom)
        assert cli.main(["derive", "--target", "pi2"]) == 3
        assert "pi2" in capsys.readouterr().err

    def test_uncertified_fit_exits_three_after_the_tables(self, fits, monkeypatch, capsys):
        def one_uncertified(target, *a, **k):
            fit = fits[target]
            return dataclasses.replace(fit, exact_certified=False) if target == "pi3" else fit

        monkeypatch.setattr(derive, "fit_coefficients", one_uncertified)
        assert cli.main(["derive", "--target", "all"]) == 3
        out, err = capsys.readouterr()
        assert out.count("# target: ") == len(fits) and "| stated " in out  # tables and report
        assert out.count("certified False") == 1
        assert "not certified" in err and "pi3" in err

    def test_failed_certification_exits_three_after_the_table(self, exact_traces_off, capsys):
        assert cli.main(["derive", "--target", "pi2"]) == 3
        out, err = capsys.readouterr()
        assert "# target: pi2" in out and "certified False" in out
        assert "not certified" in err and "pi2" in err

    def test_all_targets_print_the_golden_tables(self, fits, monkeypatch, capsys):
        """The battery's tables and claim report, minus the run-specific lines."""
        monkeypatch.setattr(derive, "fit_coefficients", lambda target, *a, **k: fits[target])
        assert cli.main(["derive", "--target", "all"]) == 0
        header, blank, *lines = capsys.readouterr().out.split("\n")
        assert header.startswith("qoverlap ") and blank == ""
        got = "\n".join(line for line in lines if not line.startswith("# residual "))
        assert got == (ROOT / "perfbench" / "golden_tables.txt").read_text()

    def test_quartic_moment_is_steered_by_pi2_and_pi3(self, fits, monkeypatch, capsys):
        calls = []

        def record(target, basis, samples, seed=42, prefer_classes=None):
            calls.append((target, basis, prefer_classes))
            return fits[target]

        monkeypatch.setattr(derive, "fit_coefficients", record)
        assert cli.main(["derive", "--target", "pi4"]) == 0
        assert [t for t, _, _ in calls] == ["pi2", "pi3", "pi4"]
        assert calls[0][2] is None and calls[1][2] is None
        _, basis4, prefer_classes = calls[2]
        prefer = {basis4.graphs[i].key() for i in prefer_classes}
        assert prefer == {
            fits[t].basis.graphs[i].key() for t in ("pi2", "pi3") for i in fits[t].support_graphs()
        }
        out = capsys.readouterr().out
        assert "# target: pi4" in out and "# target: pi2" not in out

    def test_all_targets_json_carries_the_claim_report(self, fits, monkeypatch, capsys):
        monkeypatch.setattr(derive, "fit_coefficients", lambda target, *a, **k: fits[target])
        assert cli.main(["derive", "--target", "all", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["fits"]) == list(fits)
        report = derive.verify_table_claims(fits)
        assert doc["claims"] == [
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
        assert doc["all_match"] is report.all_match is all(c["match"] for c in doc["claims"])

    def test_samples_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["derive", "--target", "pi2", "--samples", "800"])
        assert err.value.code == 2
        assert "--samples" in capsys.readouterr().err


class TestParserReuse:
    """``main`` builds its parser once per process; one call leaves nothing in the next."""

    def test_parser_built_once_and_build_parser_stays_fresh(self, capsys):
        cli.main(["distance", BELL, MIXED])
        cli.main(["distance", BELL, BELL])
        capsys.readouterr()
        assert cli._parser.cache_info().currsize == 1
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_json_format_does_not_carry_into_the_next_call(self, capsys):
        assert cli.main(["distance", BELL, MIXED, "--format", "json"]) == 0
        json.loads(capsys.readouterr().out)
        assert cli.main(["distance", BELL, MIXED]) == 0
        out = capsys.readouterr().out
        assert "audit: all chain inequalities hold" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_appended_targets_do_not_carry_into_the_next_call(self, fits, monkeypatch, capsys):
        monkeypatch.setattr(derive, "fit_coefficients", lambda target, *a, **k: fits[target])
        assert cli.main(["derive", "--target", "pi2"]) == 0
        assert capsys.readouterr().out.count("# target: ") == 1
        assert cli.main(["derive"]) == 0
        assert capsys.readouterr().out.count("# target: ") == len(fits)
        assert cli.main(["derive", "--target", "o11"]) == 0
        out = capsys.readouterr().out
        assert out.count("# target: ") == 1 and "# target: o11" in out


class TestSweep:
    def test_csv_shape_and_determinism(self, forms, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "measurement_forms", lambda **kw: forms)
        argv = ["sweep", "--pairs", "2", "--shots", "500,2000", "--seed", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "N,measure,bias,rmse,mean std-err"
        assert len(lines) == 1 + 2 * 5  # two shot counts, five measures
        assert {row.split(",")[1] for row in lines[1:]} == {
            "subfidelity",
            "superfidelity",
            "hilbert-schmidt",
            "trace-distance",
            "hs-squared",
        }

    def test_zero_distance_ensemble_unbiased_hs_squared(self, forms, monkeypatch, capsys):
        monkeypatch.setattr(cli, "measurement_forms", lambda **kw: forms)
        assert (
            cli.main(
                ["sweep", "--pairs", "4", "--shots", "4000", "--ensemble", "equal", "--seed", "5"]
            )
            == 0
        )
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        hs2 = next(r for r in rows if r.split(",")[1] == "hs-squared")
        _, _, bias, rmse, mean_err = hs2.split(",")
        # bias consistent with zero at a few reported standard errors
        assert abs(float(bias)) < 4 * float(mean_err)

    def test_pure_ensemble_draws_pure_pairs(self, forms, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "measurement_forms", lambda **kw: forms)
        drawn = []
        draw = cli._draw_pair
        monkeypatch.setattr(cli, "_draw_pair", lambda *a: drawn.append(draw(*a)) or drawn[-1])
        out = tmp_path / "pure.csv"
        argv = ["sweep", "--pairs", "2", "--shots", "1000", "--ensemble", "pure", "--seed", "6"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 5 and all(line.startswith("1000,") for line in lines[1:])
        assert len(drawn) == 2
        for pair in drawn:
            assert [np.linalg.matrix_rank(rho, tol=1e-9) for rho in pair] == [1, 1]

    def test_bad_shots_validation(self, forms, monkeypatch, capsys):
        monkeypatch.setattr(cli, "measurement_forms", lambda **kw: forms)
        assert cli.main(["sweep", "--shots", "10,-4"]) == 1
        assert "positive" in capsys.readouterr().err

    def test_non_integer_shots_rejected(self, forms, monkeypatch, capsys):
        monkeypatch.setattr(cli, "measurement_forms", lambda **kw: forms)
        assert cli.main(["sweep", "--shots", "10,x"]) == 1
        assert "--shots must be comma-separated integers" in capsys.readouterr().err

    def test_bad_pairs_validation(self, forms, monkeypatch):
        monkeypatch.setattr(cli, "measurement_forms", lambda **kw: forms)
        assert cli.main(["sweep", "--pairs", "0", "--shots", "100"]) == 1


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--version"])
        assert err.value.code == 0
        assert "qoverlap" in capsys.readouterr().out

    def test_module_entry_point(self):
        """``python -m qoverlap`` runs the same parser from a checkout."""
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "qoverlap", "--help"],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: qoverlap")
