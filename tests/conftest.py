"""Shared fixtures.

The derivation battery (about 1.5 s on a 2-core host with one BLAS
thread) is computed once per session and shared between the unit tests
and the acceptance gate.
"""
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qoverlap.derive as derive
from qoverlap import derive_targets, plan_configurations
from qoverlap.interferometer import STAT_NAMES

STATES_DIR = Path(__file__).resolve().parent.parent / "states"


@pytest.fixture(scope="session")
def fits():
    """The full coefficient battery at the production seed."""
    return derive_targets(seed=42)


@pytest.fixture(scope="session")
def forms(fits):
    """Graph decompositions of the six estimator statistics."""
    return {name: fits[name].as_form() for name in STAT_NAMES}


@pytest.fixture(scope="session")
def plan(forms):
    """Configuration plan covering every graph any statistic needs."""
    needed = [g for form in forms.values() for _, graphs in form for g in graphs]
    return plan_configurations(needed)


@pytest.fixture()
def exact_traces_off(monkeypatch):
    """Every exact trace shifted by 1e-9, so no snapped fit of a trace certifies."""
    exact = derive.EXACT
    shifted = exact._replace(trace=lambda x: exact.trace(x) + Fraction(1, 10**9))
    monkeypatch.setattr(derive, "EXACT", shifted)


@pytest.fixture(scope="session")
def bell():
    rho = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            rho[i, j] = 0.5
    return rho


@pytest.fixture(scope="session")
def mixed():
    return np.eye(4, dtype=complex) / 4.0


@pytest.fixture()
def tmp_state(tmp_path):
    """Factory writing an ad-hoc state file and returning its path."""

    def write(doc, name="state.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return write
