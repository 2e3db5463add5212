"""Antilinear symmetries generated by a metric and an anti-Hermitian
automorphism.

If ``eta H eta^{-1} = H^dagger = tau H tau^{-1}`` then ``X = eta^{-1} tau``
is an antilinear operator commuting with H.  Commutation of an antilinear X
with matrix x reads ``H x = x conj(H)``.  A commuting X is *exact* when it
maps every eigen-level's right eigenvector space into itself rather than
swapping conjugate-partner levels; exactness forces a real spectrum.
"""

from __future__ import annotations

import numpy as np

from ._linalg import (
    CheckResult,
    as_square_matrix,
    make_check,
    max_abs,
    require_same_dim,
    scale_of,
    solve,
)
from .antilinear import AntilinearOperator
from .eigensystem import DEFAULT_TOL, BiorthonormalSystem, SpectrumClass, reconstruct
from .metric import _eta_matrix, _partner_columns
from .errors import (
    DimensionMismatchError,
    NotASymmetryError,
    SingularEtaError,
    SingularTauError,
)


def antilinear_symmetry(eta, tau: AntilinearOperator) -> AntilinearOperator:
    """The commuting antilinear operator ``X = eta^{-1} tau``."""
    m = _eta_matrix(eta)
    require_same_dim(m, tau.matrix, "eta and tau")
    return AntilinearOperator(solve(m, tau.matrix, SingularEtaError, "eta"))


def _canonical_symmetry(sys: BiorthonormalSystem, cls: SpectrumClass) -> AntilinearOperator:
    """X = eta^{-1} tau for the unit-weight metric and the canonical tau,
    read off the system as ``Psi[:, pi] Phi^T``: eta^{-1} = Psi[:, pi] Psi^dagger
    with pi the partner-column permutation, and tau = Phi Phi^T."""
    return AntilinearOperator(sys.psi_matrix[:, _partner_columns(sys, cls)] @ sys.phi_matrix.T)


def commutes_with(H, x: AntilinearOperator, tol: float = DEFAULT_TOL) -> CheckResult:
    """Check ``[H, X] = 0`` for antilinear X: ``H x = x conj(H)``.

    ok iff ``max|H x - x conj(H)| <= tol * max|H| * max|x|``.
    """
    H = as_square_matrix(H, "H")
    xm = x.matrix
    require_same_dim(H, xm, "H and X")
    raw = max_abs(H @ xm - xm @ np.conj(H))
    return make_check(raw, max_abs(H) * max_abs(xm), tol)


def induced_symmetries(
    x: AntilinearOperator, eta, tau: AntilinearOperator
) -> tuple[AntilinearOperator, AntilinearOperator]:
    """Sandwiched symmetries ``eta^{-1} X^dag eta`` and ``tau^{-1} X^dag tau``.

    Adjointing the symmetry equation [H, X] = 0 gives [H^dag, X^dag] = 0,
    and conjugating that with either intertwiner of H and H^dag produces a
    new antilinear symmetry of H.  The adjoint (matrix transpose) in the
    sandwich is essential: with the bare X the sandwich commutes with H
    only when X is anti-Hermitian.  For the canonical X = eta^{-1} tau both
    induced operators reduce to X itself.

    The antilinear compositions are pre-multiplied into single matrices:
    ``eta^{-1} x^T conj(eta)`` and ``conj(m)^{-1} conj(x^T) m``.
    """
    em = _eta_matrix(eta)
    tm = tau.matrix
    require_same_dim(em, x.matrix, "eta and X")
    require_same_dim(tm, x.matrix, "tau and X")
    xt = x.matrix.T
    by_eta = solve(em, xt @ np.conj(em), SingularEtaError, "eta")
    by_tau = solve(np.conj(tm), np.conj(xt) @ tm, SingularTauError, "tau")
    return AntilinearOperator(by_eta), AntilinearOperator(by_tau)


def level_invariance_residuals(sys: BiorthonormalSystem, x: AntilinearOperator) -> np.ndarray:
    """Per-level residual of X mapping the level's psi space into itself.

    For level n with orthonormal block psi_n the residual is
    ``max|(1 - psi_n psi_n^dagger) x conj(psi_n)| / max|x|``.
    """
    if x.dim != sys.dim:
        raise DimensionMismatchError(
            f"X has dimension {x.dim}, the system has dimension {sys.dim}"
        )
    scale = scale_of(x.matrix)
    out = []
    for lv in sys.levels:
        image = x.matrix @ np.conj(lv.psi)
        out.append(max_abs(image - lv.psi @ (lv.psi.conj().T @ image)) / scale)
    return np.array(out)


def is_exact_symmetry(
    sys: BiorthonormalSystem, x: AntilinearOperator, tol: float = DEFAULT_TOL
) -> bool:
    """True when X preserves every eigen-level (no conjugate-level swaps).

    Raises
    ------
    NotASymmetryError
        If X does not commute with the reconstructed H in the first place.
    """
    check = commutes_with(reconstruct(sys), x, tol)
    if not check.ok:
        raise NotASymmetryError(
            f"X does not commute with H (residual {check.residual:.3e})"
        )
    return bool(np.all(level_invariance_residuals(sys, x) <= tol))
