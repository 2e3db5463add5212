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


def sqrt_unitary_symmetric(g: np.ndarray, degeneracy_tol: float = 1e-8) -> np.ndarray:
    """Symmetric unitary square root q of a unitary symmetric matrix g.

    Writes g = R diag(phases) R^T with R real orthogonal (the real and
    imaginary parts of g commute, so they are simultaneously diagonalizable)
    and halves the phases.  The result satisfies q^2 = g, q = q^T and
    conj(q) = q^{-1}, with the branch sqrt(e^{i th}) = e^{i th/2}, th in
    (-pi, pi].
    """
    g = np.asarray(g, dtype=np.complex128)
    d = g.shape[0]
    if d == 1:
        z = g[0, 0]
        return np.array([[np.sqrt(z)]])
    wx, r = np.linalg.eigh(g.real)
    r = r.copy()
    # eigh fixes X = Re(g); rediagonalize Y = Im(g) inside degenerate X blocks
    i = 0
    while i < d:
        j = i + 1
        while j < d and wx[j] - wx[i] <= degeneracy_tol:
            j += 1
        if j - i > 1:
            block = r[:, i:j]
            yb = block.T @ g.imag @ block
            _, ry = np.linalg.eigh((yb + yb.T) / 2.0)
            r[:, i:j] = block @ ry
        i = j
    phases = np.diag(r.T @ g @ r)
    return r @ np.diag(np.sqrt(phases)) @ r.T
