"""Reading and writing two-qubit states as human-auditable JSON.

A state file is a JSON object with a ``label`` and exactly one of two
representations:

* ``matrix``: the dense density matrix, split into real and imaginary
  parts because JSON has no complex numbers::

      {"label": "bell-phi-plus",
       "matrix": {"re": [[...4 rows of 4...]], "im": [[...]]}}

* ``correlation``: the real 4x4 Pauli correlation matrix
  ``R[m, n] = Tr(rho sigma_m x sigma_n)``::

      {"label": "maximally-mixed",
       "correlation": [[1, 0, 0, 0], [0, 0, 0, 0], ...]}

Either way the parsed state must pass density-matrix validation
(Hermitian, unit trace, positive semidefinite); a correlation matrix
that encodes a nonphysical state is rejected on load.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .core import from_correlation, to_correlation, validate_density

__all__ = ["load_state", "save_state"]


def _matrix_field(doc: dict, path: str, label: str) -> np.ndarray:
    block = doc["matrix"]
    if not isinstance(block, dict) or set(block) != {"re", "im"}:
        raise ValueError(f"{path}: field 'matrix' must be an object with 're' and 'im'")
    try:
        re = np.array(block["re"], dtype=float)
        im = np.array(block["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: matrix entries must be numbers ({exc})") from exc
    for name, part in (("re", re), ("im", im)):
        if part.shape != (4, 4):
            raise ValueError(
                f"{path}: field 'matrix.{name}' must be 4x4 row-major, got shape {part.shape}"
            )
    try:
        return validate_density(re + 1j * im, name=label or "state")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _correlation_field(doc: dict, path: str) -> np.ndarray:
    try:
        R = np.array(doc["correlation"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: correlation entries must be real numbers ({exc})") from exc
    if R.shape != (4, 4):
        raise ValueError(f"{path}: field 'correlation' must be 4x4, got shape {R.shape}")
    try:
        return from_correlation(R)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_state(path: str | os.PathLike) -> tuple[str, np.ndarray]:
    """Load ``(label, rho)`` from a state file, validating physicality.

    Raises ``ValueError`` with the offending file and field named, so the
    message can go straight to a command-line user.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read state file ({exc})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    has_matrix = "matrix" in doc
    has_correlation = "correlation" in doc
    if has_matrix == has_correlation:
        raise ValueError(
            f"{path}: exactly one of 'matrix' or 'correlation' must be present"
        )
    label = doc.get("label", path.stem)
    if not isinstance(label, str):
        raise ValueError(f"{path}: field 'label' must be a string")
    # Each field reader validates the state it builds, so it is validated once.
    rho = _matrix_field(doc, str(path), label) if has_matrix else _correlation_field(doc, str(path))
    return label, rho


def save_state(
    path: str | os.PathLike,
    rho: np.ndarray,
    label: str,
    representation: str = "matrix",
) -> None:
    """Write a state file; ``representation`` picks 'matrix' or 'correlation'."""
    rho = validate_density(rho, name=label or "state")
    doc: dict = {"label": label}
    if representation == "matrix":
        doc["matrix"] = {
            "re": np.round(rho.real, 15).tolist(),
            "im": np.round(rho.imag, 15).tolist(),
        }
    elif representation == "correlation":
        doc["correlation"] = np.round(to_correlation(rho), 15).tolist()
    else:
        raise ValueError(f"unknown representation {representation!r}")
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
