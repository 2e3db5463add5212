"""Antilinear operators and the anti-Hermitian automorphisms attached to an
eigensystem.

An antilinear operator is represented by a plain matrix ``m`` acting as
``zeta -> m conj(zeta)``; the conjugation is structural, never a runtime
flag.  In this representation an operator is anti-Hermitian exactly when
``m = m^T``, and every identity used here becomes a checkable matrix
equation.  For a biorthonormal system with levels ``n`` and symmetric
invertible coefficient blocks ``c``, the attached automorphisms are

    tau      :  m  = sum_n  phi_n  c_n        phi_n^T
    tau^{-1} :  m' = sum_n  psi_n  conj(c_n^{-1}) psi_n^T

and the anti-pseudo-Hermiticity of H with respect to tau reads
``H^dagger m = m conj(H)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    CheckResult,
    as_square_matrix,
    block_diag,
    cond_of,
    make_check,
    max_abs,
    require_same_dim,
    scale_of,
    symmetric_defect,
    takagi_factor,
)
from .eigensystem import DEFAULT_COND_CEILING, DEFAULT_TOL, BiorthonormalSystem
from .errors import (
    AsymmetricCoefficientsError,
    DimensionMismatchError,
    SingularCoefficientsError,
)


@dataclass(frozen=True)
class AntilinearOperator:
    """The antilinear map ``zeta -> matrix @ conj(zeta)``."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, zeta) -> np.ndarray:
        """Apply to a vector; antilinear in the argument."""
        zeta = np.asarray(zeta, dtype=np.complex128)
        if zeta.shape != (self.dim,):
            raise DimensionMismatchError(
                f"vector has shape {zeta.shape}, operator dimension is {self.dim}"
            )
        return self.matrix @ np.conj(zeta)

    def is_anti_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        """Matrix-transpose symmetry, the representation of anti-Hermiticity."""
        return symmetric_defect(self.matrix) <= tol * scale_of(self.matrix)

    @property
    def adjoint(self) -> "AntilinearOperator":
        """Adjoint in the antilinear convention <zeta|A^dag xi> = <xi|A zeta>;
        its matrix is the plain transpose.  A = A.adjoint iff anti-Hermitian."""
        return AntilinearOperator(self.matrix.T)


@dataclass(frozen=True)
class CoefficientFamily:
    """Per-level symmetric invertible blocks defining an automorphism tau."""

    blocks: tuple[np.ndarray, ...]

    @classmethod
    def identity_for(cls, sys: BiorthonormalSystem) -> "CoefficientFamily":
        return cls(tuple(np.eye(lv.multiplicity, dtype=np.complex128) for lv in sys.levels))

    def validate_against(self, sys: BiorthonormalSystem) -> list[np.ndarray]:
        """Check the blocks against sys and return their Takagi factors v (c = v v^T):
        each must be symmetric within ``1e-10 * max(max|c|, 1)`` and have a condition
        number, read off its Takagi values, at most ``DEFAULT_COND_CEILING``."""
        if len(self.blocks) != len(sys.levels):
            raise DimensionMismatchError(
                f"{len(self.blocks)} coefficient blocks for {len(sys.levels)} levels"
            )
        factors = []
        for k, (block, lv) in enumerate(zip(self.blocks, sys.levels)):
            b = np.asarray(block, dtype=np.complex128)
            if b.shape != (lv.multiplicity, lv.multiplicity):
                raise DimensionMismatchError(
                    f"block {k} has shape {b.shape}, level multiplicity is {lv.multiplicity}"
                )
            if symmetric_defect(b) > 1e-10 * max(max_abs(b), 1.0):
                raise AsymmetricCoefficientsError(f"coefficient block {k} is not symmetric")
            v, s = takagi_factor(b)  # s: the singular values of b
            if cond_of(s) > DEFAULT_COND_CEILING:
                raise SingularCoefficientsError(
                    f"coefficient block {k} is singular or too ill-conditioned"
                )
            factors.append(v)
        return factors


def compose_antilinear(s: AntilinearOperator, t: AntilinearOperator) -> np.ndarray:
    """Matrix of the linear operator s o t (the two conjugations cancel)."""
    require_same_dim(s.matrix, t.matrix, "antilinear operators")
    return s.matrix @ np.conj(t.matrix)


def build_tau(
    sys: BiorthonormalSystem, coeffs: CoefficientFamily | None = None
) -> AntilinearOperator:
    """Anti-Hermitian automorphism tau attached to (sys, coeffs).

    The matrix is ``Phi blockdiag(c) Phi^T``; unspecified coefficients give
    the canonical choice ``Phi Phi^T``, which needs no validation.  The
    result satisfies m = m^T up to accumulation error and intertwines
    H^dagger with conj(H).
    """
    phi = sys.phi_matrix
    if coeffs is None:
        return AntilinearOperator(phi @ phi.T)
    coeffs.validate_against(sys)
    return AntilinearOperator(phi @ block_diag(*coeffs.blocks) @ phi.T)


def canonical_tau(sys: BiorthonormalSystem) -> AntilinearOperator:
    """build_tau with identity coefficients; every diagonalizable operator is
    anti-pseudo-Hermitian with respect to this automorphism."""
    return build_tau(sys, None)


def invert_tau(
    sys: BiorthonormalSystem, coeffs: CoefficientFamily | None = None
) -> AntilinearOperator:
    """Inverse automorphism ``tau^{-1} = Psi blockdiag(conj(c^{-1})) Psi^T``."""
    psi = sys.psi_matrix
    if coeffs is None:
        return AntilinearOperator(psi @ psi.T)
    coeffs.validate_against(sys)
    c_inv = block_diag(*[np.conj(np.linalg.inv(b)) for b in coeffs.blocks])
    return AntilinearOperator(psi @ c_inv @ psi.T)


def is_anti_pseudo_hermitian(
    H, tau: AntilinearOperator, tol: float = DEFAULT_TOL
) -> CheckResult:
    """Check ``H^dagger tau = tau H`` in matrix form.

    Returns ok iff ``max|H^dagger m - m conj(H)| <= tol * max|H| * max|m|``;
    the normalized residual is always reported.
    """
    H = as_square_matrix(H, "H")
    m = tau.matrix
    require_same_dim(H, m, "H and tau")
    raw = max_abs(H.conj().T @ m - m @ np.conj(H))
    return make_check(raw, max_abs(H) * max_abs(m), tol)


def recover_coefficients(sys: BiorthonormalSystem, tau: AntilinearOperator) -> CoefficientFamily:
    """Read the coefficient blocks back off an automorphism.

    Uses the overlap identity ``psi_b^dagger m conj(psi_a) = c_ba`` level by
    level; for a tau built from (sys, c) this reproduces c up to rounding.
    """
    if tau.dim != sys.dim:
        raise DimensionMismatchError("tau dimension does not match the system")
    blocks = []
    for lv in sys.levels:
        rec = lv.psi.conj().T @ tau.matrix @ np.conj(lv.psi)
        blocks.append(rec)
    return CoefficientFamily(tuple(blocks))
