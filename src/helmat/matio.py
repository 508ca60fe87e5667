"""JSON matrix files for the command-line interface.

A matrix file is a single JSON object with a ``dim`` field, a ``dim x dim``
``real`` array, and an optional ``imag`` array (defaulting to zeros).  A file
without a nonzero ``imag`` entry reads as a float64 array, and the library
then computes in real arithmetic; any nonzero ``imag`` entry makes it
complex128.  Numbers are written with Python's shortest round-trip decimal
form (at most 17 significant digits), so a write/read cycle reproduces the
entries bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import HelmatError
from .linalg import as_array


class MatrixFileError(HelmatError, ValueError):
    """A matrix or weights file failed to parse or violated an invariant."""


def _as_grid(name: str, payload, dim: int, path: str) -> np.ndarray:
    try:
        arr = np.asarray(payload, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MatrixFileError(f"{path}: field {name!r} is not a numeric array") from exc
    if arr.shape != (dim, dim):
        raise MatrixFileError(
            f"{path}: field {name!r} must be a {dim}x{dim} array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise MatrixFileError(f"{path}: field {name!r} contains non-finite entries")
    return arr


def matrix_from_payload(payload: dict, path: str = "<memory>") -> np.ndarray:
    """Decode a matrix-file JSON object into a square array: float64 when
    ``imag`` is absent or all zero, complex128 otherwise."""
    if not isinstance(payload, dict):
        raise MatrixFileError(f"{path}: expected a JSON object at the top level")
    dim = payload.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise MatrixFileError(f"{path}: 'dim' must be a positive integer, got {dim!r}")
    if "real" not in payload:
        raise MatrixFileError(f"{path}: missing required field 'real'")
    real = _as_grid("real", payload["real"], dim, path)
    if payload.get("imag") is None:
        return real
    imag = _as_grid("imag", payload["imag"], dim, path)
    return real + 1j * imag if np.any(imag != 0.0) else real


def matrix_to_payload(matrix: np.ndarray) -> dict:
    """Encode a real or complex square array as a matrix-file JSON object;
    ``imag`` is written only when some entry of it is nonzero."""
    arr = as_array(matrix)
    payload = {"dim": int(arr.shape[0]), "real": arr.real.tolist()}
    if np.any(arr.imag != 0.0):
        payload["imag"] = arr.imag.tolist()
    return payload


def read_matrix_file(path: str | Path) -> np.ndarray:
    """Read a matrix file; parse failures name the file and the problem."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise MatrixFileError(f"{path}: cannot read file: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path}: invalid JSON: {exc}") from exc
    return matrix_from_payload(payload, str(path))


def write_matrix_file(path: str | Path, matrix: np.ndarray) -> None:
    Path(path).write_text(json.dumps(matrix_to_payload(matrix)) + "\n")


def read_weights_file(path: str | Path) -> list[float]:
    """Read a weights file: a JSON array of positive numbers."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise MatrixFileError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, list) or not payload:
        raise MatrixFileError(f"{path}: weights must be a non-empty JSON array")
    try:
        weights = [float(v) for v in payload]
    except (TypeError, ValueError) as exc:
        raise MatrixFileError(f"{path}: weights must be numbers") from exc
    if any(not np.isfinite(v) or v <= 0.0 for v in weights):
        raise MatrixFileError(f"{path}: weights must be finite and strictly positive")
    return weights
