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
    SCALE_FLOOR,
    as_square_matrix,
    block_groups,
    block_max_abs,
    block_shape,
    checked_stacks,
    cond_of,
    max_abs,
    require_conditioned,
    require_within,
    scale_of,
    symmetric_defect,
    takagi_factor,
    times_block_diag,
    unstack,
)
from .antilinear import AntilinearOperator, CoefficientFamily, build_tau
from .eigensystem import DEFAULT_TOL, BiorthonormalSystem, _regauged
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

    Returns v, ok iff its residual ``max|v v^T - c| / max|c|`` <= tol (else
    ``PseudoHermError``); v is invertible because c is.  Raises
    ``SingularInputError`` when the condition number of c, read off s,
    exceeds ``DEFAULT_COND_CEILING``, as ``validate_against`` does.
    """
    v, residual = _symmetric_factor(c, tol)
    require_within(residual, tol, PseudoHermError, _MISSED)
    return v


def _symmetric_factor(c, tol: float) -> tuple[np.ndarray, float]:
    """(v, max|v v^T - c| / max|c|): symmetric_factor's v and its unchecked residual."""
    c = as_square_matrix(c, "c")
    require_within(symmetric_defect(c), tol, NotSymmetricError, "input is not complex symmetric")
    v, s = takagi_factor(c)
    singular = "input is singular or too ill-conditioned; no invertible factor"
    require_conditioned(cond_of(s), SingularInputError, singular)
    return v, max_abs(v @ v.T - c) / scale_of(c)


_MISSED = "factorization residual {measured:.3e} exceeds tolerance"


def _invertible_stacks(blocks, sizes, groups, what: str) -> list[np.ndarray]:
    """The blocks, one per level of the given sizes, as complex stacks, one per
    group of ``block_groups(sizes)``: one SVD per stack tests that each block is
    invertible, and ``checked_stacks`` names the first faulty block in level order."""
    if len(blocks) != len(sizes):
        raise DimensionMismatchError(f"{len(blocks)} {what} blocks, expected {len(sizes)}")

    def invertible(u: np.ndarray, idx: np.ndarray) -> np.ndarray:
        kappa = cond_of(np.linalg.svd(u, compute_uv=False))
        message = "{what} block {k} is singular or ill-conditioned"
        require_conditioned(kappa, SingularBlockError, message, levels=idx, what=what)
        return u

    misfit = what + " block {k} has shape {shape}, expected ({d}, {d})"
    return checked_stacks(blocks, sizes, groups, invertible, what + " block", misfit)


def _inv_adjoint(v: np.ndarray) -> np.ndarray:
    """(v^dagger)^{-1} of each block of a stack (k, d, d): one stacked inverse,
    or the reciprocals when d = 1, for a stack (k, 1, 1) or the vector (k,)."""
    if v.ndim == 1 or v.shape[-1] == 1:
        return 1.0 / np.conj(v)
    return np.linalg.inv(v.conj().swapaxes(-1, -2))


# Largest Takagi condition number s_max / s_min for which the psi gauge is read
# off the factor.  u from the embedding's eigh is unitary only to about
# eps * kappa(c), so past some kappa(c) the re-gauged basis is less
# biorthonormal and complete than with an inverse (at kappa(c) = 9e7,
# 1.4e-10 against 1.6e-11); up to this bound both stay within a few eps.
_READOFF_COND = 1e2


def _takagi_inv_adjoint(v: np.ndarray, s) -> np.ndarray:
    """(v^dagger)^{-1} of each Takagi factor ``v = u diag(sqrt(s))`` of a
    validated group, s its Takagi values in ascending order: the reciprocals
    for the vector (k,) of a group of 1 x 1 blocks, else, for a stack (k, d, d),
    ``v diag(1/s)`` (u unitary), with one stacked inverse for the blocks whose
    s_max / s_min exceeds ``_READOFF_COND``."""
    if v.ndim == 1:
        return _inv_adjoint(v)
    # real and imaginary parts divided by the real s: a complex divisor below
    # 1 / (largest float) would overflow
    g = (v.view(np.float64) / np.repeat(s, 2, axis=-1)[:, None, :]).view(np.complex128)
    far = s[:, -1] > _READOFF_COND * s[:, 0]
    if far.any():
        g[far] = _inv_adjoint(v[far])
    return g


def _factor_residual(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``max|v v^T - c| / max|c|`` of each block of a validated group, as
    ``symmetric_factor`` forms it; a group of 1 x 1 blocks comes as the vectors
    (k,) of c and v, and its v v^T is the same 1 x 1 matrix product."""
    if v.ndim == 1:
        v = v[:, None, None]
        return np.abs((v @ v)[:, 0, 0] - c) / np.maximum(np.abs(c), SCALE_FLOOR)
    return block_max_abs(v @ v.swapaxes(-1, -2) - c) / np.maximum(block_max_abs(c), SCALE_FLOOR)


def _regauge(sys: BiorthonormalSystem, g: list, h: list) -> BiorthonormalSystem:
    """sys re-gauged level by level, ``psi -> psi g`` and ``phi -> phi h`` with
    ``h = (g^{-1})^dagger``; g and h hold one stack per group of ``sys._groups``
    (a vector for the 1 x 1 blocks, or a stack of them).  Psi' and Phi' are two
    new stored arrays, formed by ``times_block_diag`` in one walk of the groups."""
    return _regauged(sys, *times_block_diag(sys._groups, (sys.psi_matrix, g), (sys.phi_matrix, h)))


def basis_change(sys: BiorthonormalSystem, u_blocks) -> BiorthonormalSystem:
    """Re-gauge each level: ``psi -> psi u`` and ``phi -> phi (u^{-1})^dagger``.

    Biorthonormality and completeness are preserved exactly; residuals grow
    at most by the block condition numbers.
    """
    stacks = _invertible_stacks(u_blocks, sys._sizes, sys._groups, "basis-change")
    return _regauge(sys, stacks, [_inv_adjoint(u) for u in stacks])


def coefficient_transform(coeffs: CoefficientFamily, u_blocks) -> CoefficientFamily:
    """Congruence of each coefficient block: ``c -> u^dagger c conj(u)``.

    This is how the family must transform so that the automorphism built
    from the re-gauged basis is the same operator; symmetry of the blocks
    is preserved.
    """
    sizes = [(block_shape(c) or (0,))[0] for c in coeffs.blocks]
    groups = block_groups(sizes)
    square = "coefficient block {k} is not square"
    cs = checked_stacks(coeffs.blocks, sizes, groups, lambda c, _: c, "coefficient block", square)
    us = _invertible_stacks(u_blocks, sizes, groups, "transform")
    out = [u.conj().swapaxes(-1, -2) @ c @ np.conj(u) for c, u in zip(cs, us)]
    return CoefficientFamily(tuple(unstack(groups, out, len(sizes))))


def canonicalize_tau(
    sys: BiorthonormalSystem, coeffs: CoefficientFamily, tol: float = DEFAULT_TOL
) -> tuple[BiorthonormalSystem, AntilinearOperator]:
    """Re-gauge the basis so the coefficient family becomes the identity.

    Checks each block's Takagi factor ``c = v v^T`` from ``validate_against``
    as ``symmetric_factor`` does and applies the basis change with
    ``u = (v^dagger)^{-1}``, so the phi gauge ``(u^{-1})^dagger`` is v
    itself.  With ``v = u_T diag(sqrt(s))``, u_T unitary and s the Takagi
    values, the psi gauge is read off the factor as ``v diag(1/s)``; only a
    block whose s_max / s_min exceeds ``_READOFF_COND`` takes an inverse,
    which keeps the new basis as biorthonormal as an inverse makes it.  One
    walk of the multiplicity groups forms each group's residuals
    ``max|v v^T - c| / max|c|`` and both gauges, the simple levels as
    vectors (k,): 1/conj(v) and v; when a residual exceeds tol, the lowest
    such level is refused.  The returned automorphism is
    ``Phi' Phi'^T``, identity coefficients on the new basis, and equals the
    operator built from (sys, coeffs) up to rounding: the automorphism is
    unique up to the choice of eigenbasis.
    """
    residuals, psi_gauge, phi_gauge = [], [], []
    for c, v, s in coeffs._factored(sys):
        residuals.append(_factor_residual(c, v))
        psi_gauge.append(_takagi_inv_adjoint(v, s))
        phi_gauge.append(v)
    if not all((r <= tol).all() for r in residuals):  # name the lowest faulty level
        in_order = np.array(unstack(sys._groups, residuals, len(coeffs.blocks)))
        require_within(in_order, tol, PseudoHermError, _MISSED, np.arange(len(in_order)))
    new_sys = _regauge(sys, psi_gauge, phi_gauge)
    return new_sys, build_tau(new_sys, None)
