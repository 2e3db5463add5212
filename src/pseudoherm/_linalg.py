"""Small shared linear-algebra helpers: norms, validation, check results."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError

DEFAULT_COND_CEILING = 1e8


def max_abs(a) -> float:
    """Largest absolute entry (the max-norm used for every residual)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def scale_of(a) -> float:
    """max_abs(a) floored at 1e-300: the denominator of a normalized residual."""
    return max(max_abs(a), 1e-300)


def hermitian_defect(a) -> float:
    """max-norm of a - a^dagger."""
    a = np.asarray(a)
    return max_abs(a - a.conj().T)


def symmetric_defect(a) -> float:
    """max-norm of a - a^T."""
    a = np.asarray(a)
    return max_abs(a - a.T)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a residual-based verification.

    `residual` is normalized by the operator scales of the identity being
    checked, so `ok == (residual <= tol)` for the tolerance the check ran at.
    """

    ok: bool
    residual: float

    def __bool__(self) -> bool:
        return self.ok


def make_check(raw_residual: float, scale: float, tol: float) -> CheckResult:
    """Build a CheckResult from a raw max-norm residual and its scale."""
    if scale > 0.0:
        return CheckResult(raw_residual <= tol * scale, raw_residual / scale)
    return CheckResult(raw_residual == 0.0, raw_residual)


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite square complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatchError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return m


def as_vector(a, dim: int, name: str = "vector") -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.shape != (dim,):
        raise DimensionMismatchError(f"{name} must have shape ({dim},), got {m.shape}")
    return m


def require_same_dim(a: np.ndarray, b: np.ndarray, what: str = "operands") -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"{what} have different shapes: {a.shape} vs {b.shape}")


def condition_number(a: np.ndarray) -> float:
    """2-norm condition number; inf for singular input."""
    s = np.linalg.svd(np.asarray(a), compute_uv=False)
    if s[-1] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])


def solve(a: np.ndarray, b: np.ndarray, error_cls, what: str):
    """np.linalg.solve wrapping singularity in a package error."""
    if condition_number(a) > DEFAULT_COND_CEILING:
        raise error_cls(f"{what} is singular or too ill-conditioned to invert")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:  # exact singularity
        raise error_cls(f"{what} is singular") from exc


def takagi_factor(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factor of a complex symmetric c: ``c = v v^T``, v = u diag(sqrt(s)).

    u is unitary and s >= 0 holds the Takagi values (the singular values of
    c) in ascending order (Horn & Johnson, Matrix Analysis, 4.4).  The n
    largest eigenpairs (s, [x; y]) of the real symmetric embedding
    ``[[Re c, -Im c], [-Im c, -Re c]]`` give ``u = x - i y`` with
    ``c conj(u) = u diag(s)``; any orthonormal basis of a repeated Takagi
    value will do, so clustered values need no grouping rule.  A singular c
    may come out with tiny negative values in s; callers refuse it.
    """
    n = c.shape[0]
    if n == 1:
        return np.sqrt(c), np.abs(c[0])
    w, x = np.linalg.eigh(np.block([[c.real, -c.imag], [-c.imag, -c.real]]))
    s = w[n:]
    return (x[:n, n:] - 1j * x[n:, n:]) * np.sqrt(np.maximum(s, 0.0)), s
