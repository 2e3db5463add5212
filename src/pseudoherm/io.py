"""JSON serialization for matrices, coefficient families and metrics.

The shared matrix format is ``{"n": int, "data": [[re, im], ...]}`` with
n*n row-major entries written at full double precision.  Readers reject
wrong-length data arrays, a non-integer n and non-numeric data; writers
refuse n = 0 and NaN and Inf, which JSON cannot hold, and write compact text
with shortest round-trip floats.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np

from .antilinear import CoefficientFamily
from .errors import DimensionMismatchError, NonFiniteError
from .metric import MetricOperator


# What stands for a table in the text json writes: the string "\x00table",
# written ``"\u0000table"``.
_TABLE = "\x00table"
_TABLE_TOKEN = encode_basestring_ascii(_TABLE)


def _json_text(value) -> str:
    """``json.dumps(value, indent=2, default=float)``, byte for byte, with each
    table written by one ``%``-template built for it.

    A table is a list of at least two rows of one shape: lists of cells of one
    length, or dicts with the same str keys in the same order whose values are
    cells or cell lists of one length per key.  A cell is a finite float or a
    non-bool int (its exact type), so ``%r`` writes it as json does, with
    ``float.__repr__`` or ``int.__repr__``.  json writes everything else, with
    a placeholder for each table, and each table is written at the indentation
    of its placeholder."""
    tables: list = []
    text = json.dumps(_skeleton(value, tables), indent=2, default=float)
    if not tables:
        return text
    parts = text.split(_TABLE_TOKEN)
    if len(parts) != len(tables) + 1:  # a string of value reads as the placeholder
        return json.dumps(value, indent=2, default=float)
    out = [parts[0]]
    for (shape, n_rows, cells), part in zip(tables, parts[1:]):
        line = out[-1][out[-1].rfind("\n") + 1 :]
        out.append(_table_template(shape, n_rows, len(line) - len(line.lstrip(" "))) % cells)
        out.append(part)
    return "".join(out)


def _skeleton(value, tables: list):
    """value with each table replaced by ``_TABLE``; the ``(shape, rows, cells)``
    of each table are appended to tables in the order json writes them."""
    if isinstance(value, dict):
        return {k: _skeleton(v, tables) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        table = _table(value)
        if table is None:
            return [_skeleton(v, tables) for v in value]
        tables.append(table)
        return _TABLE
    return value


def _width(rows) -> int | None:
    """The common length of a list of lists; None when one is not a list, is
    empty or differs in length."""
    if set(map(type, rows)) != {list}:
        return None
    widths = set(map(len, rows))
    return widths.pop() if len(widths) == 1 and 0 not in widths else None


def _table(rows) -> tuple | None:
    """``(shape, row count, cells)`` of a table, its cells in the order written;
    None if rows is not one.  shape is the width of list rows, or
    ``((key, width), ...)`` for dict rows, width None for a cell."""
    if len(rows) < 2:
        return None
    shape = _width(rows)
    if shape is not None:
        cells = tuple(chain.from_iterable(rows))
    elif set(map(type, rows)) == {dict} and len(keys := set(map(tuple, rows))) == 1:
        shape, columns = [], []
        for key in keys.pop():
            column = list(map(itemgetter(key), rows))
            nested = type(column[0]) is list
            width = _width(column) if nested else None
            if type(key) is not str or (nested and width is None):
                return None
            shape.append((key, width))
            columns.extend(zip(*column) if nested else [column])
        if not shape:
            return None
        shape, cells = tuple(shape), tuple(chain.from_iterable(zip(*columns)))
    else:
        return None
    if not set(map(type, cells)) <= {float, int}:
        return None
    try:  # json writes NaN and inf as NaN and Infinity, %r as nan and inf
        finite = math.isfinite(sum(cells))
    except OverflowError:  # an int beyond the float range
        return None
    return (shape, len(rows), cells) if finite else None


def _table_template(shape, n_rows: int, indent: int) -> str:
    """The %-template of a table whose first line is indented by indent spaces."""
    pad = [" " * (indent + 2 * level) for level in range(4)]

    def cell_list(width: int, level: int) -> str:
        return "[\n" + ",\n".join([pad[level + 1] + "%r"] * width) + "\n" + pad[level] + "]"

    if type(shape) is int:
        row = pad[1] + cell_list(shape, 1)
    else:
        entries = [
            f"{pad[2]}{encode_basestring_ascii(key).replace('%', '%%')}: "
            + ("%r" if width is None else cell_list(width, 2))
            for key, width in shape
        ]
        row = pad[1] + "{\n" + ",\n".join(entries) + "\n" + pad[1] + "}"
    return "[\n" + ",\n".join([row] * n_rows) + "\n" + pad[0] + "]"


def _square(m) -> np.ndarray:
    """m as a C-contiguous complex128 matrix the shared format holds: square, n >= 1."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise DimensionMismatchError("matrix dimension must be at least 1")
    return np.ascontiguousarray(m)


def matrix_to_dict(m) -> dict:
    m = _square(m)
    return {"n": m.shape[0], "data": m.view(np.float64).reshape(-1, 2).tolist()}


def matrix_from_dict(payload: dict) -> np.ndarray:
    """The matrix of the shared format: payload must be an object, ``n`` an
    integer, and data holding strings, nulls or booleans is refused.  Integers
    beyond int64 load as floats."""
    return _matrix_from(payload, True)


def _matrix_from(payload, may_hold_booleans: bool) -> np.ndarray:
    """``matrix_from_dict``, looking for booleans among the numbers only when
    may_hold_booleans: text with no u and no f holds no true or false."""
    if not isinstance(payload, dict):
        raise ValueError(f"a matrix must be a JSON object, got {type(payload).__name__}")
    n = payload["n"]
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        # a list or dict is named by its type: the repr of deep nesting recurses without bound
        got = type(n).__name__ if isinstance(n, (list, dict)) else repr(n)
        raise DimensionMismatchError(f"matrix dimension must be an integer, got {got}")
    if n < 1:
        raise DimensionMismatchError("matrix dimension must be at least 1")
    data = payload["data"]
    values = np.array(data)
    if values.dtype == object and set(map(type, values.flat)) <= {int, float, bool}:
        try:  # numpy keeps JSON integers beyond int64 as Python ints
            values = np.array(values.tolist(), dtype=np.float64)
        except OverflowError:
            raise NonFiniteError("matrix data holds an integer beyond the float range") from None
    if values.dtype.kind not in "iuf":  # strings, nulls and all-boolean data
        raise ValueError(f"matrix data must be numbers, got array of dtype {values.dtype}")
    values = values.astype(np.float64, copy=False)
    if values.shape != (n * n, 2):
        raise DimensionMismatchError(f"data has shape {values.shape}, expected ({n * n}, 2)")
    if may_hold_booleans:
        _refuse_booleans(values, data)
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("matrix data contains NaN or Inf")
    return values.view(np.complex128).reshape(n, n)


def _refuse_booleans(values: np.ndarray, data) -> None:
    """Refuse a true or false among the numbers of data, which numpy read as
    1 or 0 into values: only the entries equal to 0 or 1 are looked at."""
    zero_one = np.flatnonzero((values == 0.0) | (values == 1.0)).tolist()
    if zero_one:
        entries = list(chain.from_iterable(data))
        if bool in set(map(type, map(entries.__getitem__, zero_one))):
            raise ValueError("matrix data must be numbers, got booleans mixed with numbers")


def _read_json(path) -> tuple[object, bool]:
    """The JSON value of the file at path, parsed by orjson: the value, floats
    bit for bit, that ``json.loads`` gives, save that an integer beyond the
    64-bit range reads as its float and nesting beyond json's recursion limit
    is read, not refused with ``RecursionError``.  A file orjson refuses (NaN
    or Infinity tokens, a number beyond the float range, a BOM, bytes that are
    not UTF-8, malformed text) is read again by json, so it is accepted or
    refused with the same error as json alone.  Returned with whether the
    text may hold a boolean: holds a u or an f, searched for as single bytes
    (a memchr pass, far cheaper than a search for ``true`` or ``false``)."""
    import orjson  # imported here: importing the package or running pt-model loads numpy only

    raw = Path(path).read_bytes()
    try:
        value = orjson.loads(raw)
    except orjson.JSONDecodeError:
        text = Path(path).read_text()
        return json.loads(text), "u" in text or "f" in text
    return value, b"u" in raw or b"f" in raw


def _save(path, blocks, listed: bool) -> None:
    """Write blocks in the shared format, as a JSON list if listed, else the
    one block alone, refusing a block the readers refuse (n = 0, NaN or Inf)
    before any file is written.  orjson writes each data array from its
    buffer with shortest round-trip floats, which json reads back bit for bit."""
    import orjson  # imported here, as in _read_json

    payload = []
    for m in blocks:
        m = _square(m)
        if not np.isfinite(m).all():
            raise NonFiniteError("matrix data contains NaN or Inf")
        payload.append({"n": m.shape[0], "data": m.view(np.float64).reshape(-1, 2)})
    value = payload if listed else payload[0]
    Path(path).write_bytes(orjson.dumps(value, option=orjson.OPT_SERIALIZE_NUMPY))


def save_matrix(path, m) -> None:
    """Write m in the shared format; an n = 0 or non-finite m is refused and no file written."""
    _save(path, [m], listed=False)


def load_matrix(path) -> np.ndarray:
    return _matrix_from(*_read_json(path))


def coefficients_to_list(coeffs: CoefficientFamily) -> list[dict]:
    """Serialize as a JSON list of blocks in the shared matrix format,
    indexed by level order."""
    return [matrix_to_dict(b) for b in coeffs.blocks]


def coefficients_from_list(payload: list) -> CoefficientFamily:
    return _coefficients_from(payload, True)


def _coefficients_from(payload, may_hold_booleans: bool) -> CoefficientFamily:
    if not isinstance(payload, list):
        raise ValueError(f"a coefficient family must be a JSON list, got {type(payload).__name__}")
    return CoefficientFamily(tuple(_matrix_from(item, may_hold_booleans) for item in payload))


def save_coefficients(path, coeffs: CoefficientFamily) -> None:
    _save(path, coeffs.blocks, listed=True)


def load_coefficients(path) -> CoefficientFamily:
    return _coefficients_from(*_read_json(path))


def metric_to_dict(metric: MetricOperator) -> dict:
    return {
        "eta": matrix_to_dict(metric.matrix),
        "positive_definite": bool(metric.positive_definite),
        "factor": None if metric.factor is None else matrix_to_dict(metric.factor),
    }


def metric_from_dict(payload: dict) -> MetricOperator:
    factor = payload.get("factor")
    return MetricOperator(
        matrix=matrix_from_dict(payload["eta"]),
        positive_definite=bool(payload["positive_definite"]),
        factor=None if factor is None else matrix_from_dict(factor),
    )
