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
    condition_number,
    max_abs,
    scale_of,
    sqrt_unitary_symmetric,
    symmetric_defect,
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

_SV_GROUP_RTOL = 1e-8
_PHASE_FLOOR = 1e-12


def symmetric_factor(c, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Factor an invertible complex symmetric matrix as ``c = v v^T``.

    The factor is computed by unitary congruence: an SVD ``c = u s w^dagger``
    is canonicalized (each u column rephased so its first non-negligible
    entry is positive real), singular values are grouped within a relative
    gap of 1e-8, and the unitary symmetric coupling block of each group is
    given a symmetric square root.  The construction is deterministic for a
    given input, with descending singular values as the tie-break order.

    Returns v with ``max|v v^T - c| <= tol * max|c|``; v is invertible
    because c is.
    """
    c = as_square_matrix(c, "c")
    n = c.shape[0]
    scale = scale_of(c)
    if symmetric_defect(c) > tol * scale:
        raise NotSymmetricError("input is not complex symmetric")

    u, s, vh = np.linalg.svd(c)
    if s[-1] <= 1e-12 * scale_of(s):
        raise SingularInputError("input is numerically singular; no invertible factor exists")

    for i in range(n):
        k = int(np.argmax(np.abs(u[:, i]) > _PHASE_FLOOR))
        phase = u[k, i] / abs(u[k, i])
        u[:, i] = u[:, i] / phase
        vh[i, :] = vh[i, :] * phase
    w = vh.conj().T

    q = np.zeros((n, n), dtype=np.complex128)
    start = 0
    for i in range(1, n + 1):
        if i == n or s[start] - s[i] > _SV_GROUP_RTOL * s[0]:
            g = slice(start, i)
            z = u[:, g].T @ w[:, g]
            q[g, g] = sqrt_unitary_symmetric((z + z.T) / 2.0)
            start = i

    v = (u @ np.conj(q)) * np.sqrt(s)
    residual = max_abs(v @ v.T - c)
    if residual > tol * scale:
        raise PseudoHermError(
            f"factorization residual {residual:.3e} exceeds tolerance; "
            "singular values may be too clustered for the grouping rule"
        )
    return v


def _check_blocks(sys: BiorthonormalSystem, u_blocks, cond_ceiling: float) -> list[np.ndarray]:
    if len(u_blocks) != len(sys.levels):
        raise DimensionMismatchError(
            f"{len(u_blocks)} basis-change blocks for {len(sys.levels)} levels"
        )
    out = []
    for k, (block, lv) in enumerate(zip(u_blocks, sys.levels)):
        b = np.asarray(block, dtype=np.complex128)
        if b.shape != (lv.multiplicity, lv.multiplicity):
            raise DimensionMismatchError(
                f"block {k} has shape {b.shape}, level multiplicity is {lv.multiplicity}"
            )
        if condition_number(b) > cond_ceiling:
            raise SingularBlockError(f"basis-change block {k} is singular or ill-conditioned")
        out.append(b)
    return out


def basis_change(
    sys: BiorthonormalSystem, u_blocks, cond_ceiling: float = DEFAULT_COND_CEILING
) -> BiorthonormalSystem:
    """Re-gauge each level: ``psi -> psi u`` and ``phi -> phi (u^{-1})^dagger``.

    Biorthonormality and completeness are preserved exactly; residuals grow
    at most by the block condition numbers.
    """
    blocks = _check_blocks(sys, u_blocks, cond_ceiling)
    levels = []
    for lv, b in zip(sys.levels, blocks):
        b_inv_adj = np.linalg.inv(b).conj().T
        levels.append(EigenLevel(lv.energy, lv.psi @ b, lv.phi @ b_inv_adj))
    return BiorthonormalSystem(dim=sys.dim, levels=tuple(levels), tol=sys.tol)


def coefficient_transform(
    coeffs: CoefficientFamily, u_blocks, cond_ceiling: float = DEFAULT_COND_CEILING
) -> CoefficientFamily:
    """Congruence of each coefficient block: ``c -> u^dagger c conj(u)``.

    This is how the family must transform so that the automorphism built
    from the re-gauged basis is the same operator; symmetry of the blocks
    is preserved.
    """
    if len(u_blocks) != len(coeffs.blocks):
        raise DimensionMismatchError(
            f"{len(u_blocks)} blocks for {len(coeffs.blocks)} coefficient blocks"
        )
    out = []
    for k, (c, u) in enumerate(zip(coeffs.blocks, u_blocks)):
        u = np.asarray(u, dtype=np.complex128)
        c = np.asarray(c, dtype=np.complex128)
        if u.shape != c.shape:
            raise DimensionMismatchError(f"block {k}: shapes {u.shape} vs {c.shape}")
        if condition_number(u) > cond_ceiling:
            raise SingularBlockError(f"transform block {k} is singular or ill-conditioned")
        out.append(u.conj().T @ c @ np.conj(u))
    return CoefficientFamily(tuple(out))


def canonicalize_tau(
    sys: BiorthonormalSystem, coeffs: CoefficientFamily, tol: float = DEFAULT_TOL
) -> tuple[BiorthonormalSystem, AntilinearOperator]:
    """Re-gauge the basis so the coefficient family becomes the identity.

    Factors each block as ``c = v v^T`` and applies the basis change with
    ``u = (v^dagger)^{-1}``.  The returned automorphism is built with
    identity coefficients on the new basis and equals the original operator
    built from (sys, coeffs) up to rounding: the automorphism is unique up
    to the choice of eigenbasis.
    """
    coeffs.validate_against(sys)
    u_blocks = []
    for c in coeffs.blocks:
        v = symmetric_factor(np.asarray(c, dtype=np.complex128), tol)
        u_blocks.append(np.linalg.inv(v.conj().T))
    new_sys = basis_change(sys, u_blocks)
    return new_sys, build_tau(new_sys, None)
