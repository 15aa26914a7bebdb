"""State-file reading and writing.

A state file is a JSON document with fields dim_a, dim_b and entries,
where entries is a list of rows and each complex number is a two-element
[re, im] pair.  Readers reject structural problems, such as a bool, NaN
or infinite number, and every file that violates the density-matrix
invariants.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import SizeCapError, StateFileError
from .linalg import DEFAULT_SIZE_CAP, DensityMatrix


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and rename.

    The file gets the mode open(path, "w") gives a new file, 0o666 less
    the umask, in place of the temp file's 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # the umask can only be read by setting it
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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


def loads_state(text: str, cap: int = DEFAULT_SIZE_CAP) -> DensityMatrix:
    try:
        doc = json.loads(text)
    # ValueError: malformed JSON, or an integer past Python's digit limit
    # for int(); RecursionError: arrays or objects nested too deeply
    except (ValueError, RecursionError) as exc:
        raise StateFileError(f"cannot parse JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError("top-level document must be an object")
    for field in ("dim_a", "dim_b", "entries"):
        if field not in doc:
            raise StateFileError(f"missing field {field!r}")
    dim_a, dim_b = doc["dim_a"], doc["dim_b"]
    if type(dim_a) is not int or type(dim_b) is not int:
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
    return DensityMatrix(dim_a, dim_b, entries)


def load_state(path: str, cap: int = DEFAULT_SIZE_CAP) -> DensityMatrix:
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    return loads_state(text, cap=cap)
