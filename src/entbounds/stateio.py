"""State-file reading and writing.

A state file is a JSON document with fields dim_a, dim_b and entries,
where entries is a list of rows and each complex number is a two-element
[re, im] pair.  Readers reject files violating the density-matrix
invariants unless force=True, which loads diagnostically (structural
problems, such as a bool, NaN or infinite number, are always rejected).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import SizeCapError, StateFileError
from .linalg import DEFAULT_SIZE_CAP, DensityMatrix


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dumps_state(rho: DensityMatrix) -> str:
    entries = [
        [[float(z.real), float(z.imag)] for z in row] for row in rho.entries
    ]
    doc = {"dim_a": rho.dim_a, "dim_b": rho.dim_b, "entries": entries}
    return json.dumps(doc, indent=1)


def save_state(path: str, rho: DensityMatrix) -> None:
    atomic_write_text(path, dumps_state(rho) + "\n")


def loads_state(text: str, force: bool = False, cap: int = DEFAULT_SIZE_CAP) -> DensityMatrix:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError("top-level document must be an object")
    for field in ("dim_a", "dim_b", "entries"):
        if field not in doc:
            raise StateFileError(f"missing field {field!r}")
    dim_a, dim_b = doc["dim_a"], doc["dim_b"]
    if not isinstance(dim_a, int) or not isinstance(dim_b, int):
        raise StateFileError("dim_a and dim_b must be integers")
    if dim_a < 1 or dim_b < 1:
        raise StateFileError("dim_a and dim_b must be positive")
    side = dim_a * dim_b
    if side > cap:
        raise SizeCapError(side, cap)
    rows = doc["entries"]
    if not isinstance(rows, list) or len(rows) != side:
        raise StateFileError(f"entries must be a list of {side} rows")
    entries = np.empty((side, side), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != side:
            raise StateFileError(f"row {i} must be a list of {side} [re, im] pairs")
        for j, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(type(x) in (int, float) for x in pair)
            ):
                raise StateFileError(f"entry ({i},{j}) must be a [re, im] pair")
            try:
                entries[i, j] = complex(pair[0], pair[1])
            except OverflowError:  # an integer beyond the float range
                entries[i, j] = np.inf
            if not np.isfinite(entries[i, j]):
                raise StateFileError(f"entry ({i},{j}) must be finite")
    return DensityMatrix(dim_a, dim_b, entries, check=not force)


def load_state(path: str, force: bool = False, cap: int = DEFAULT_SIZE_CAP) -> DensityMatrix:
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    return loads_state(text, force=force, cap=cap)
