"""Symmetric factorization c = v v^T and the basis-change algebra that
canonicalizes an automorphism.

Any invertible complex symmetric c factors as ``v v^T`` with invertible v
(Takagi/Autonne factorization).  Re-gauging the eigenbasis level by level
with blocks ``u_n`` transforms the coefficient family by the congruence
``c -> u^dagger c conj(u)``; choosing ``u = (v^dagger)^{-1}`` with
``c = v v^T`` turns every block into the identity while leaving the
automorphism itself untouched.
"""

from __future__ import annotations

import numpy as np

from ._linalg import (
    as_square_matrix,
    cond_of,
    condition_number,
    max_abs,
    scale_of,
    symmetric_defect,
    takagi_factor,
)
from .antilinear import AntilinearOperator, CoefficientFamily, build_tau
from .eigensystem import DEFAULT_COND_CEILING, DEFAULT_TOL, BiorthonormalSystem, EigenLevel
from .errors import (
    DimensionMismatchError,
    NotSymmetricError,
    PseudoHermError,
    SingularBlockError,
    SingularInputError,
)


def symmetric_factor(c, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Factor an invertible complex symmetric matrix as ``c = v v^T``.

    v is the Takagi factor ``u diag(sqrt(s))`` with u unitary and s the
    singular values of c, read off one ``eigh`` of a real symmetric
    embedding of c (see ``_linalg.takagi_factor``).  Repeated or clustered
    singular values need no special treatment, and the result is
    deterministic for a given input.

    Returns v with ``max|v v^T - c| <= tol * max|c|``; v is invertible
    because c is.  Raises ``SingularInputError`` when the condition number of
    c, read off s, exceeds ``DEFAULT_COND_CEILING``, as ``validate_against`` does.
    """
    c = as_square_matrix(c, "c")
    if symmetric_defect(c) > tol * scale_of(c):
        raise NotSymmetricError("input is not complex symmetric")

    v, s = takagi_factor(c)
    if cond_of(s) > DEFAULT_COND_CEILING:
        raise SingularInputError("input is singular or too ill-conditioned; no invertible factor")
    return _check_factor(v, c, tol)


def _check_factor(v: np.ndarray, c: np.ndarray, tol: float) -> np.ndarray:
    """v, once ``max|v v^T - c| <= tol * max|c|``."""
    residual = max_abs(v @ v.T - c)
    if residual > tol * scale_of(c):
        raise PseudoHermError(f"factorization residual {residual:.3e} exceeds tolerance")
    return v


def _check_blocks(blocks, shapes, what: str) -> list[np.ndarray]:
    """The blocks as complex arrays, one per expected shape, each invertible."""
    if len(blocks) != len(shapes):
        raise DimensionMismatchError(f"{len(blocks)} {what} blocks, expected {len(shapes)}")
    out = []
    for k, (block, shape) in enumerate(zip(blocks, shapes)):
        b = np.asarray(block, dtype=np.complex128)
        if b.shape != shape:
            raise DimensionMismatchError(f"{what} block {k} has shape {b.shape}, expected {shape}")
        if condition_number(b) > DEFAULT_COND_CEILING:
            raise SingularBlockError(f"{what} block {k} is singular or ill-conditioned")
        out.append(b)
    return out


def basis_change(sys: BiorthonormalSystem, u_blocks) -> BiorthonormalSystem:
    """Re-gauge each level: ``psi -> psi u`` and ``phi -> phi (u^{-1})^dagger``.

    Biorthonormality and completeness are preserved exactly; residuals grow
    at most by the block condition numbers.
    """
    shapes = [(lv.multiplicity, lv.multiplicity) for lv in sys.levels]
    blocks = _check_blocks(u_blocks, shapes, "basis-change")
    levels = []
    for lv, b in zip(sys.levels, blocks):
        levels.append(EigenLevel(lv.energy, lv.psi @ b, lv.phi @ np.linalg.inv(b).conj().T))
    return BiorthonormalSystem(dim=sys.dim, levels=tuple(levels), tol=sys.tol)


def coefficient_transform(coeffs: CoefficientFamily, u_blocks) -> CoefficientFamily:
    """Congruence of each coefficient block: ``c -> u^dagger c conj(u)``.

    This is how the family must transform so that the automorphism built
    from the re-gauged basis is the same operator; symmetry of the blocks
    is preserved.
    """
    cs = [np.asarray(c, dtype=np.complex128) for c in coeffs.blocks]
    blocks = _check_blocks(u_blocks, [c.shape for c in cs], "transform")
    return CoefficientFamily(tuple(u.conj().T @ c @ np.conj(u) for c, u in zip(cs, blocks)))


def canonicalize_tau(
    sys: BiorthonormalSystem, coeffs: CoefficientFamily, tol: float = DEFAULT_TOL
) -> tuple[BiorthonormalSystem, AntilinearOperator]:
    """Re-gauge the basis so the coefficient family becomes the identity.

    Checks each block's Takagi factor ``c = v v^T`` from ``validate_against``
    as ``symmetric_factor`` does and applies the basis change with
    ``u = (v^dagger)^{-1}``.  The returned automorphism is built with
    identity coefficients on the new basis and equals the original operator
    built from (sys, coeffs) up to rounding: the automorphism is unique up
    to the choice of eigenbasis.
    """
    factors = coeffs.validate_against(sys)
    levels = []
    for lv, c, v in zip(sys.levels, coeffs.blocks, factors):
        _check_factor(v, np.asarray(c, dtype=np.complex128), tol)
        # u = (v^dagger)^{-1}, so the phi gauge (u^{-1})^dagger is v itself
        levels.append(EigenLevel(lv.energy, lv.psi @ np.linalg.inv(v.conj().T), lv.phi @ v))
    new_sys = BiorthonormalSystem(dim=sys.dim, levels=tuple(levels), tol=sys.tol)
    return new_sys, build_tau(new_sys, None)
