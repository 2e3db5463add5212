"""JSON serialization for matrices, coefficient families and metrics.

The shared matrix format is ``{"n": int, "data": [[re, im], ...]}`` with
n*n row-major entries written at full double precision.  Readers reject
wrong-length data arrays, a non-integer n and non-numeric data.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .antilinear import CoefficientFamily
from .errors import DimensionMismatchError, NonFiniteError
from .metric import MetricOperator


def matrix_to_dict(m) -> dict:
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return {"n": int(m.shape[0]), "data": m.view(np.float64).reshape(-1, 2).tolist()}


def matrix_from_dict(payload: dict) -> np.ndarray:
    """The matrix of the shared format: payload must be an object, ``n`` an
    integer, and data holding strings, nulls or only booleans is refused."""
    if not isinstance(payload, dict):
        raise ValueError(f"a matrix must be a JSON object, got {type(payload).__name__}")
    n = payload["n"]
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DimensionMismatchError(f"matrix dimension must be an integer, got {n!r}")
    if n < 1:
        raise DimensionMismatchError("matrix dimension must be at least 1")
    values = np.array(payload["data"])
    if values.dtype.kind not in "iuf":  # strings, nulls and all-boolean data
        raise ValueError(f"matrix data must be numbers, got array of dtype {values.dtype}")
    values = values.astype(np.float64, copy=False)
    if values.shape != (n * n, 2):
        raise DimensionMismatchError(f"data has shape {values.shape}, expected ({n * n}, 2)")
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("matrix data contains NaN or Inf")
    return values.view(np.complex128).reshape(n, n)


def save_matrix(path, m) -> None:
    Path(path).write_text(json.dumps(matrix_to_dict(m)))


def load_matrix(path) -> np.ndarray:
    return matrix_from_dict(json.loads(Path(path).read_text()))


def coefficients_to_list(coeffs: CoefficientFamily) -> list[dict]:
    """Serialize as a JSON list of blocks in the shared matrix format,
    indexed by level order."""
    return [matrix_to_dict(b) for b in coeffs.blocks]


def coefficients_from_list(payload: list) -> CoefficientFamily:
    if not isinstance(payload, list):
        raise ValueError(f"a coefficient family must be a JSON list, got {type(payload).__name__}")
    return CoefficientFamily(tuple(matrix_from_dict(item) for item in payload))


def save_coefficients(path, coeffs: CoefficientFamily) -> None:
    Path(path).write_text(json.dumps(coefficients_to_list(coeffs)))


def load_coefficients(path) -> CoefficientFamily:
    return coefficients_from_list(json.loads(Path(path).read_text()))


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
