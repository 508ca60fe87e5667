"""JSON input files for the command-line interface.

A matrix file is a single JSON object with a ``dim`` field, a ``dim x dim``
``real`` array, and an optional ``imag`` array (defaulting to zeros).  A file
without a nonzero ``imag`` entry reads as a float64 array, and the library
then computes in real arithmetic; any nonzero ``imag`` entry makes it
complex128.  JSON text holds numbers in Python's shortest round-trip decimal
form (at most 17 significant digits), so :func:`matrix_from_payload` of the
JSON text of :func:`matrix_to_payload` gives back the entries bit-exactly.

The file format covers structure, shape and numbers: a top-level object, a
positive integer ``dim``, and ``dim x dim`` arrays of JSON numbers.  Whether
the entries are finite (``NaN``, or a number like ``1e400`` that overflows
to infinity) belongs to the value, so the ``SpdMatrix`` built from the
array rejects them, as it rejects input from any other source.

:func:`read_json_file` is the one reader of input files: it reads a file's
bytes once, decodes them, and builds a validated value from the JSON, so a
report digest taken of the bytes it returns covers exactly what was parsed.
Every failure on the way names the file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import HelmatError
from .linalg import _number_array, as_array


class MatrixFileError(HelmatError, ValueError):
    """An input file or inline JSON value failed to parse or violated an
    invariant; the message starts with the file's path, or with the label
    of the inline value."""


def decode_json(label: str, data: str | bytes, build: Callable):
    """``build`` of the JSON value in ``data``; a decoding error, or an error
    ``build`` raises on invalid input, becomes a :class:`MatrixFileError`
    that starts with ``label``."""
    # ValueError also covers bytes that are not UTF-8; RecursionError, arrays
    # nested too deeply to decode.
    try:
        payload = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise MatrixFileError(f"{label}: invalid JSON: {exc}") from exc
    try:
        return build(payload)
    except (HelmatError, ValueError, TypeError) as exc:
        raise MatrixFileError(f"{label}: {exc}") from exc


def read_json_file(path: str | Path, build: Callable) -> tuple:
    """Read ``path`` once; return :func:`decode_json` of its bytes, labelled
    with the path, together with those bytes."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise MatrixFileError(f"{path}: cannot read file: {exc}") from exc
    return decode_json(str(path), data, build), data


def _as_grid(name: str, payload, dim: int) -> np.ndarray:
    arr = _number_array(payload)
    if arr is None:
        raise MatrixFileError(f"field {name!r} is not a numeric array")
    if arr.shape != (dim, dim):
        raise MatrixFileError(
            f"field {name!r} must be a {dim}x{dim} array, got shape {arr.shape}"
        )
    return arr


def matrix_from_payload(payload: dict) -> np.ndarray:
    """Decode a matrix-file JSON object into a square array: float64 when
    ``imag`` is absent or all zero, complex128 otherwise."""
    if not isinstance(payload, dict):
        raise MatrixFileError("expected a JSON object at the top level")
    dim = payload.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise MatrixFileError(f"'dim' must be a positive integer, got {dim!r}")
    if "real" not in payload:
        raise MatrixFileError("missing required field 'real'")
    real = _as_grid("real", payload["real"], dim)
    if payload.get("imag") is None:
        return real
    imag = _as_grid("imag", payload["imag"], dim)
    return real + 1j * imag if np.any(imag != 0.0) else real


def matrix_to_payload(matrix: np.ndarray) -> dict:
    """Encode a real or complex square array as a matrix-file JSON object;
    ``imag`` is written only when some entry of it is nonzero."""
    arr = as_array(matrix)
    payload = {"dim": int(arr.shape[0]), "real": arr.real.tolist()}
    if np.any(arr.imag != 0.0):
        payload["imag"] = arr.imag.tolist()
    return payload

