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
    block_groups,
    block_max_abs,
    cond_of,
    first_faults,
    raise_first,
    scale_of,
    stack_blocks,
    symmetric_defect,
    takagi_factor,
    unstack,
)
from .antilinear import AntilinearOperator, CoefficientFamily, build_tau
from .eigensystem import (
    DEFAULT_COND_CEILING,
    DEFAULT_TOL,
    BiorthonormalSystem,
    _on_stored,
    _read_only,
)
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
    raise_first(_factor_faults([0], c[None], v[None], tol))
    return v


def _factor_faults(idx, c: np.ndarray, v: np.ndarray, tol: float) -> list:
    """The first block of the stack c (k, d, d), numbered by idx, whose factor
    misses ``c = v v^T`` by more than ``tol * max|c|``, as a ``raise_first`` fault."""
    residual = block_max_abs(v @ v.swapaxes(-1, -2) - c)
    bad = residual > tol * np.maximum(block_max_abs(c), 1e-300)
    return first_faults(idx, bad, 0, lambda j: PseudoHermError(
        f"factorization residual {residual[j]:.3e} exceeds tolerance"
    ))


def _check_blocks(blocks, groups, what: str) -> list[np.ndarray]:
    """The blocks as complex stacks, one per group of ``block_groups``, each
    block of the expected shape and invertible (one SVD per stack)."""
    count = sum(len(idx) for idx, _ in groups)
    if len(blocks) != count:
        raise DimensionMismatchError(f"{len(blocks)} {what} blocks, expected {count}")
    stacks, misfit = stack_blocks(blocks, groups)
    faults = []
    if misfit is not None:
        k, shape = misfit
        faults.append((k, 0, DimensionMismatchError(
            f"{what} block {k} has shape {np.shape(blocks[k])}, expected {shape}"
        )))
    for (idx, _), b in zip(groups, stacks):
        singular = cond_of(np.linalg.svd(b, compute_uv=False)) > DEFAULT_COND_CEILING
        faults += first_faults(idx, singular, 1, lambda j: SingularBlockError(
            f"{what} block {idx[j]} is singular or ill-conditioned"
        ))
    raise_first(faults)
    return stacks


def _inv_adjoint(v: np.ndarray) -> np.ndarray:
    """(v^dagger)^{-1} of each block of a stack (k, d, d): one stacked inverse,
    or the reciprocals when d = 1."""
    if v.shape[-1] == 1:
        return 1.0 / np.conj(v)
    return np.linalg.inv(v.conj().swapaxes(-1, -2))


def _regauge(sys: BiorthonormalSystem, gauges) -> BiorthonormalSystem:
    """sys re-gauged level by level, ``psi -> psi g`` and ``phi -> phi h`` with
    ``h = (g^{-1})^dagger``; gauges holds one pair of stacks (g, h) per group
    of ``sys._groups``.  Psi' and Phi' are written into two new stored arrays:
    one column scaling for every d = 1 level, then one stacked product per
    multiplicity d >= 2."""
    psi, phi = sys.psi_matrix, sys.phi_matrix
    psi_scale = np.ones(sys.dim, dtype=np.complex128)
    phi_scale = np.ones(sys.dim, dtype=np.complex128)
    blocks = []
    for (_, cols), (g, h) in zip(sys._groups, gauges):
        if cols.shape[1] == 1:
            psi_scale[cols[:, 0]] = g[:, 0, 0]
            phi_scale[cols[:, 0]] = h[:, 0, 0]
        else:
            blocks.append((cols, g, h))
    new_psi, new_phi = psi * psi_scale, phi * phi_scale
    for cols, g, h in blocks:
        new_psi[:, cols] = (psi[:, cols].transpose(1, 0, 2) @ g).transpose(1, 0, 2)
        new_phi[:, cols] = (phi[:, cols].transpose(1, 0, 2) @ h).transpose(1, 0, 2)
    return _on_stored(
        _read_only(new_psi), _read_only(new_phi), sys._level_energies,
        sys._offsets, sys.tol, energies=sys.energies, _groups=sys._groups,
    )


def basis_change(sys: BiorthonormalSystem, u_blocks) -> BiorthonormalSystem:
    """Re-gauge each level: ``psi -> psi u`` and ``phi -> phi (u^{-1})^dagger``.

    Biorthonormality and completeness are preserved exactly; residuals grow
    at most by the block condition numbers.
    """
    stacks = _check_blocks(u_blocks, sys._groups, "basis-change")
    return _regauge(sys, [(u, _inv_adjoint(u)) for u in stacks])


def coefficient_transform(coeffs: CoefficientFamily, u_blocks) -> CoefficientFamily:
    """Congruence of each coefficient block: ``c -> u^dagger c conj(u)``.

    This is how the family must transform so that the automorphism built
    from the re-gauged basis is the same operator; symmetry of the blocks
    is preserved.
    """
    groups = block_groups([len(c) for c in coeffs.blocks])
    cs, misfit = stack_blocks(coeffs.blocks, groups)
    if misfit is not None:
        raise DimensionMismatchError(f"coefficient block {misfit[0]} is not square")
    us = _check_blocks(u_blocks, groups, "transform")
    out = [u.conj().swapaxes(-1, -2) @ c @ np.conj(u) for c, u in zip(cs, us)]
    return CoefficientFamily(tuple(unstack(groups, out, len(coeffs.blocks))))


def canonicalize_tau(
    sys: BiorthonormalSystem, coeffs: CoefficientFamily, tol: float = DEFAULT_TOL
) -> tuple[BiorthonormalSystem, AntilinearOperator]:
    """Re-gauge the basis so the coefficient family becomes the identity.

    Checks each block's Takagi factor ``c = v v^T`` from ``validate_against``
    as ``symmetric_factor`` does and applies the basis change with
    ``u = (v^dagger)^{-1}``, so the phi gauge ``(u^{-1})^dagger`` is v
    itself; both run once per multiplicity.  The returned automorphism is
    ``Phi' Phi'^T``, identity coefficients on the new basis, and equals the
    operator built from (sys, coeffs) up to rounding: the automorphism is
    unique up to the choice of eigenbasis.
    """
    factored = coeffs._factored(sys)
    faults = []
    for (idx, _), (c, v) in zip(sys._groups, factored):
        faults += _factor_faults(idx, c, v, tol)
    raise_first(faults)
    new_sys = _regauge(sys, [(_inv_adjoint(v), v) for _, v in factored])
    return new_sys, build_tau(new_sys, None)
