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
    block_max_abs,
    checked_stacks,
    cond_of,
    intertwining,
    max_abs,
    require_conditioned,
    require_same_dim,
    require_within,
    scale_of,
    symmetric_defect,
    takagi_factor,
    times_block_diag,
    unstack,
)
from .eigensystem import DEFAULT_TOL, BiorthonormalSystem
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
        return symmetric_defect(self.matrix) / scale_of(self.matrix) <= tol

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
        return cls(tuple(np.eye(d, dtype=np.complex128) for d in sys._sizes.tolist()))

    def validate_against(self, sys: BiorthonormalSystem) -> list[np.ndarray]:
        """Check the blocks against sys and return their Takagi factors v (c = v v^T):
        each must be finite (else ``NonFiniteError``), symmetric relative to its
        size, ``max|c - c^T| / max|c| <= 1e-10`` (else
        ``AsymmetricCoefficientsError``), and have a condition number, read off
        its Takagi values, at most ``DEFAULT_COND_CEILING`` (else
        ``SingularCoefficientsError``); a 1 x 1 block is refused only when it is
        0.  The rule is scale-invariant: c and 10^k c get the same verdict."""
        return unstack(sys._groups, [v for _, v, _ in self._factored(sys)], len(self.blocks))

    def _factored(self, sys: BiorthonormalSystem) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """validate_against per distinct multiplicity, in the order of ``sys._groups``:
        ``_symmetric_invertible`` of the blocks as one complex stack, with one
        finiteness test, one symmetry test, one stacked factorization and one
        condition test per multiplicity; ``checked_stacks`` names the first faulty
        block in level order."""
        if len(self.blocks) != len(sys._level_energies):
            raise DimensionMismatchError(
                f"{len(self.blocks)} coefficient blocks for {len(sys._level_energies)} levels"
            )
        return checked_stacks(
            self.blocks, sys._sizes, sys._groups, _symmetric_invertible, "coefficient block",
            "block {k} has shape {shape}, level multiplicity is {d}",
        )


def _symmetric_invertible(c: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, v, s) for a stack c of finite coefficient blocks numbered by idx, their
    Takagi factors ``v = u diag(sqrt(s))`` and their Takagi values s, ascending;
    refuses a block that is not symmetric, ``max|c - c^T| / max|c| <= 1e-10``,
    or else singular.  A 1 x 1 block is symmetric, s = |c| and its condition
    number is 1, so it is refused only when it is 0 (condition number inf)."""
    v, s = takagi_factor(c)
    if c.shape[-1] == 1:
        kappa = np.where(s[:, 0] > 0.0, 1.0, np.inf)
    else:
        # the size floored at the least float above 0 (5e-324), which a nonzero block
        # is not below, so c and 10^k c get one verdict and a zero block reads 0
        asymmetry = block_max_abs(c - c.swapaxes(-1, -2)) / np.maximum(block_max_abs(c), 5e-324)
        message = "coefficient block {k} is not symmetric"
        require_within(asymmetry, 1e-10, AsymmetricCoefficientsError, message, idx)
        kappa = cond_of(s)
    message = "coefficient block {k} is singular or too ill-conditioned"
    require_conditioned(kappa, SingularCoefficientsError, message, levels=idx)
    return c, v, s


def compose_antilinear(s: AntilinearOperator, t: AntilinearOperator) -> np.ndarray:
    """Matrix of the linear operator s o t (the two conjugations cancel)."""
    require_same_dim(s.matrix, t.matrix, "antilinear operators")
    return s.matrix @ np.conj(t.matrix)


def build_tau(
    sys: BiorthonormalSystem, coeffs: CoefficientFamily | None = None
) -> AntilinearOperator:
    """Anti-Hermitian automorphism tau attached to (sys, coeffs).

    The matrix is ``Phi blockdiag(c) Phi^T``: ``Phi blockdiag(c)`` is one
    column scaling for the simple levels and one stacked product per
    multiplicity d >= 2, then one n x n product with ``Phi^T``; unspecified
    coefficients give the canonical choice ``Phi Phi^T``, which needs no
    validation.  The result satisfies m = m^T up to accumulation error and
    intertwines H^dagger with conj(H).
    """
    phi = sys.phi_matrix
    if coeffs is None:
        return AntilinearOperator(phi @ phi.T)
    c = [c for c, _, _ in coeffs._factored(sys)]
    return AntilinearOperator(times_block_diag(sys._groups, (phi, c))[0] @ phi.T)


def canonical_tau(sys: BiorthonormalSystem) -> AntilinearOperator:
    """build_tau with identity coefficients; every diagonalizable operator is
    anti-pseudo-Hermitian with respect to this automorphism."""
    return build_tau(sys, None)


def invert_tau(
    sys: BiorthonormalSystem, coeffs: CoefficientFamily | None = None
) -> AntilinearOperator:
    """Inverse automorphism ``tau^{-1} = Psi blockdiag(conj(c^{-1})) Psi^T``,
    formed as build_tau forms tau.  After ``validate_against``, a block whose
    inverse is not finite (a nonzero 1 x 1 block below about 1e-308, say) is
    refused as ``SingularCoefficientsError``, the lowest such level named."""
    psi = sys.psi_matrix
    if coeffs is None:
        return AntilinearOperator(psi @ psi.T)
    c_inv = [np.conj(np.linalg.inv(c)) for c, _, _ in coeffs._factored(sys)]
    size = np.array(unstack(sys._groups, [block_max_abs(m) for m in c_inv], len(coeffs.blocks)))
    levels, message = np.arange(len(size)), "coefficient block {k} is too small to invert"
    require_within(size, np.finfo(float).max, SingularCoefficientsError, message, levels)
    return AntilinearOperator(times_block_diag(sys._groups, (psi, c_inv))[0] @ psi.T)


def is_anti_pseudo_hermitian(
    H, tau: AntilinearOperator, tol: float = DEFAULT_TOL
) -> CheckResult:
    """Check ``H^dagger tau = tau H`` in matrix form.

    ok iff the residual ``max|H^dagger m - m conj(H)| / (max|H| max|m|)`` <= tol;
    the residual is always reported.
    """
    H = as_square_matrix(H, "H")
    m = tau.matrix
    require_same_dim(H, m, "H and tau")
    return intertwining(H.conj().T, m, H.conj(), max_abs(H), tol)


def recover_coefficients(sys: BiorthonormalSystem, tau: AntilinearOperator) -> CoefficientFamily:
    """Read the coefficient blocks back off an automorphism.

    Uses the overlap identity ``psi_b^dagger m conj(psi_a) = c_ba``: the
    level-block diagonal of ``Psi^dagger Y``, Y = m conj(Psi), one stacked
    product per multiplicity.  For a tau built from (sys, c) this reproduces
    c up to rounding.
    """
    if tau.dim != sys.dim:
        raise DimensionMismatchError("tau dimension does not match the system")
    psi = sys.psi_matrix
    y = tau.matrix @ np.conj(psi)
    blocks = [
        psi[:, cols].transpose(1, 2, 0).conj() @ y[:, cols].transpose(1, 0, 2)
        for _, cols in sys._groups
    ]
    return CoefficientFamily(tuple(unstack(sys._groups, blocks, len(sys._level_energies))))
