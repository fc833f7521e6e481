from pathlib import Path

import numpy as np
import pytest

import qoverlap.core
import qoverlap.statefile
from qoverlap.core import random_state, validate_density
from qoverlap.statefile import load_state, save_state

STATES_DIR = Path(__file__).resolve().parent.parent / "states"


class TestShippedStates:
    def test_bell_file(self):
        label, rho = load_state(STATES_DIR / "bell.json")
        assert label == "bell-phi-plus"
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        assert np.abs(rho - expected).max() < 1e-12

    def test_mixed_file(self):
        label, rho = load_state(STATES_DIR / "mixed.json")
        assert label == "maximally-mixed"
        assert np.abs(rho - np.eye(4) / 4).max() < 1e-12


class TestRoundTrips:
    @pytest.mark.parametrize("representation", ["matrix", "correlation"])
    def test_random_state_round_trip(self, tmp_path, representation):
        rho = random_state(4, seed=3)
        p = tmp_path / "s.json"
        save_state(p, rho, "roundtrip", representation=representation)
        label, back = load_state(p)
        assert label == "roundtrip"
        assert np.abs(back - rho).max() < 1e-10

    @pytest.mark.parametrize("representation", ["matrix", "correlation"])
    def test_one_validation_per_load(self, tmp_path, monkeypatch, representation):
        """``from_correlation`` validates what it builds, so a correlation file is not validated again."""
        p = tmp_path / "s.json"
        save_state(p, random_state(4, seed=3), "once", representation=representation)
        names = []

        def counted(rho, *, name="rho"):
            names.append(name)
            return validate_density(rho, name=name)

        monkeypatch.setattr(qoverlap.core, "validate_density", counted)
        monkeypatch.setattr(qoverlap.statefile, "validate_density", counted)
        load_state(p)
        assert names == ["once" if representation == "matrix" else "from_correlation(R)"]

    def test_label_defaults_to_stem(self, tmp_state):
        path = tmp_state(
            {"correlation": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]},
            "anon.json",
        )
        label, _ = load_state(path)
        assert label == "anon"

    def test_save_rejects_unknown_representation(self, tmp_path):
        with pytest.raises(ValueError, match="representation"):
            save_state(tmp_path / "x.json", np.eye(4) / 4, "x", representation="pickle")


class TestDiagnostics:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_state(tmp_path / "nope.json")

    def test_invalid_json_names_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"label": "x",\n  "matrix": }')
        with pytest.raises(ValueError, match="line 2"):
            load_state(p)

    def test_both_representations_rejected(self, tmp_state):
        doc = {
            "label": "x",
            "matrix": {"re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()},
            "correlation": np.eye(4).tolist(),
        }
        with pytest.raises(ValueError, match="exactly one"):
            load_state(tmp_state(doc))

    def test_neither_representation_rejected(self, tmp_state):
        with pytest.raises(ValueError, match="exactly one"):
            load_state(tmp_state({"label": "x"}))

    def test_wrong_shape_named(self, tmp_state):
        doc = {"matrix": {"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}}
        with pytest.raises(ValueError, match="matrix.re"):
            load_state(tmp_state(doc))

    def test_missing_im_field(self, tmp_state):
        doc = {"matrix": {"re": np.eye(4).tolist()}}
        with pytest.raises(ValueError, match="'re' and 'im'"):
            load_state(tmp_state(doc))

    def test_nonphysical_state_reports_eigenvalue(self, tmp_state):
        R = np.zeros((4, 4))
        R[0, 0] = 1.0
        R[1, 1] = R[2, 2] = R[3, 3] = 1.0
        with pytest.raises(ValueError, match="eigenvalue"):
            load_state(tmp_state({"correlation": R.tolist()}))

    def test_wrong_trace_named(self, tmp_state):
        doc = {"matrix": {"re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()}}
        with pytest.raises(ValueError, match="trace"):
            load_state(tmp_state(doc))

    def test_non_string_label(self, tmp_state):
        doc = {
            "label": 7,
            "matrix": {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()},
        }
        with pytest.raises(ValueError, match="label"):
            load_state(tmp_state(doc))
