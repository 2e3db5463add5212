"""Hermitian metric operators and the intertwining checks built on them.

A metric is an invertible Hermitian matrix ``eta``; the operator H is
pseudo-Hermitian with respect to it when ``H^dagger eta = eta H``.  For a
spectrum that is real or conjugate-paired, a metric is assembled from the
left eigenvector blocks: real levels contribute ``phi_n phi_n^dagger`` and
conjugate pairs contribute the cross terms
``phi_n phi_nbar^dagger + phi_nbar phi_n^dagger``, in all one product
``Phi W Phi[:, pi]^dagger`` with pi swapping partner columns.  With an all-real
spectrum this is ``Phi Phi^dagger``, positive-definite with natural factor
``Phi``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    CheckResult,
    as_square_matrix,
    as_vector,
    cond_of,
    condition_number,
    hermitian_defect,
    intertwining,
    make_check,
    max_abs,
    require_conditioned,
    require_same_dim,
    require_within,
    scale_of,
    solve,
)
from .eigensystem import (
    DEFAULT_TOL,
    BiorthonormalSystem,
    SpectrumClass,
    SpectrumTag,
    _partner_columns,
    reconstruct,
)
from .errors import (
    DimensionMismatchError,
    NonHermitianEtaError,
    NotPseudoHermitianError,
    PseudoHermError,
    SingularEtaError,
    UnpairedSpectrumError,
)


@dataclass(frozen=True)
class MetricOperator:
    """Invertible Hermitian metric, optionally in factored form.

    When ``positive_definite`` is set, ``factor`` holds a matrix O with
    ``eta = O O^dagger``.
    """

    matrix: np.ndarray
    positive_definite: bool
    factor: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _eta_matrix(eta) -> np.ndarray:
    if isinstance(eta, MetricOperator):
        return eta.matrix
    return as_square_matrix(eta, "eta")


def metric_from_matrix(eta, tol: float = DEFAULT_TOL) -> MetricOperator:
    """Wrap and validate an externally supplied metric matrix.

    Checks Hermiticity, then reads the condition number (at most
    ``DEFAULT_COND_CEILING``) and positive-definiteness off the eigenvalues;
    when positive, attaches a Cholesky factor.
    """
    m = as_square_matrix(eta, "eta")
    _hermiticity(m, tol, "candidate metric")
    m = (m + m.conj().T) / 2.0
    eigenvalues = np.linalg.eigvalsh(m)
    message = "candidate metric is singular or too ill-conditioned"
    require_conditioned(cond_of(eigenvalues), SingularEtaError, message)
    positive = bool(eigenvalues[0] > 0.0)
    factor = np.linalg.cholesky(m) if positive else None
    return MetricOperator(matrix=m, positive_definite=positive, factor=factor)


def _hermiticity(m: np.ndarray, tol: float, name: str = "eta") -> float:
    """The normalized Hermiticity defect ``max|m - m^dagger| / max|m|`` of
    the metric m; one above tol refuses m as ``NonHermitianEtaError``."""
    defect, message = hermitian_defect(m) / scale_of(m), "{name} is not Hermitian within tolerance"
    return require_within(defect, tol, NonHermitianEtaError, message, name=name)


def is_pseudo_hermitian(H, eta, tol: float = DEFAULT_TOL) -> CheckResult:
    """Check the intertwining identity ``H^dagger eta = eta H``.

    ok iff the residual ``max|H^dagger eta - eta H| / (max|H| max|eta|)`` <= tol.
    """
    H = as_square_matrix(H, "H")
    m = _eta_matrix(eta)
    require_same_dim(H, m, "H and eta")
    _hermiticity(m, tol)
    return intertwining(H.conj().T, m, H, max_abs(H), tol)


def _metric(sys: BiorthonormalSystem, cls: SpectrumClass, weights=None) -> MetricOperator:
    """build_metric without its self-check: callers that hold H check
    ``H^dagger eta = eta H`` against it once themselves."""
    if cls.tag is SpectrumTag.UNPAIRED:
        raise UnpairedSpectrumError(
            "spectrum has an unpaired complex eigenvalue; no Hermitian metric exists"
        )
    k = len(sys._level_energies)
    if len(cls.pairing) != k:
        raise DimensionMismatchError("spectrum class does not match the system")
    phi = sys.phi_matrix
    if weights is None:
        col_w, left = None, phi
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (k,):
            raise DimensionMismatchError(f"need {k} weights, got shape {w.shape}")
        if np.any(w <= 0.0):
            raise ValueError("metric weights must be strictly positive")
        col_w = np.repeat(w[np.minimum(np.arange(k), cls.pairing)], sys._sizes)
        left = phi * col_w

    eta = left @ phi[:, _partner_columns(sys._offsets, cls.pairing)].conj().T
    real = cls.tag is SpectrumTag.ALL_REAL
    # with unit weights eta = Phi Pi Phi^dagger, Pi a permutation, so kappa(eta) <= kappa(Psi)^2
    # <= B^2 (B the bound of _assemble); all-real, Pi = 1 and kappa(eta) = kappa(Psi)^2
    unit = weights is None
    kappa = (lambda: sys.cond * sys.cond) if real and unit else (lambda: condition_number(eta))
    bound = sys._cond_bound * sys._cond_bound if unit else np.inf
    require_conditioned(kappa, SingularEtaError, "constructed metric is too ill-conditioned", bound)
    factor = None
    if real:
        factor = phi.copy() if col_w is None else phi * np.sqrt(col_w)
    return MetricOperator(matrix=eta, positive_definite=real, factor=factor)


def build_metric(sys: BiorthonormalSystem, cls: SpectrumClass, weights=None) -> MetricOperator:
    """Metric assembled from the left eigenvector blocks of the system.

    Parameters
    ----------
    sys, cls : the eigensystem and its spectrum classification.
    weights : sequence of float, optional
        Strictly positive per-level weights; members of a conjugate pair
        share the weight of the lower-indexed level.  Different weights give
        different admissible metrics (the metric is never unique), all
        satisfying the same intertwining identity.  Default: all ones.

    Raises
    ------
    UnpairedSpectrumError
        If the classification is unpaired: no invertible Hermitian metric
        intertwines H and H^dagger in that case.
    SingularEtaError, PseudoHermError
        If the metric's condition number (``sys.cond ** 2`` for an all-real
        spectrum with unit weights) exceeds ``DEFAULT_COND_CEILING``, or it
        fails the intertwining identity with the operator ``reconstruct(sys)``.

    With unit weights kappa(eta) <= kappa(Psi)^2 <= B^2 for the eigensystem's
    bound B = ``||Psi||_F ||Phi||_F``, which decides the ceiling without an SVD
    when B^2 is at most half of it; otherwise, and with weights, kappa(eta) is measured.
    """
    metric = _metric(sys, cls, weights)
    require_within(
        is_pseudo_hermitian(reconstruct(sys), metric, sys.tol).residual, sys.tol, PseudoHermError,
        "constructed metric fails the intertwining identity (residual {measured:.3e}); "
        "the system is inconsistent",
    )
    return metric


def pseudo_adjoint(H, eta) -> np.ndarray:
    """The metric-twisted adjoint ``eta^{-1} H^dagger eta``.

    H is pseudo-Hermitian with respect to eta exactly when the result
    equals H.
    """
    H = as_square_matrix(H, "H")
    m = _eta_matrix(eta)
    require_same_dim(H, m, "H and eta")
    return solve(m, H.conj().T @ m, SingularEtaError, "eta")


def indefinite_inner_product(eta, xi, zeta) -> complex:
    """The (generally indefinite) inner product ``xi^dagger eta zeta``."""
    m = _eta_matrix(eta)
    xi = as_vector(xi, m.shape[0], "xi")
    zeta = as_vector(zeta, m.shape[0], "zeta")
    return complex(xi.conj() @ m @ zeta)


def propagator(H, t: float) -> np.ndarray:
    """Evolution operator ``exp(-i H t)`` (scaling-and-squaring Pade).

    Raises ``PseudoHermError`` when t H or exp(-i H t) is not finite.
    """
    from scipy.linalg import expm  # imported here: only evolution needs scipy

    H = as_square_matrix(H, "H")
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = -1j * t * H
        u = expm(exponent) if np.isfinite(exponent).all() else exponent
        top = max_abs(u)
    _require_finite(top, "exp(-iHt)", t, H)
    return u


def _require_finite(top: float, what: str, t: float, H: np.ndarray) -> None:
    """Refuse max|.| = top of an evolution product above the largest float (or NaN)."""
    message, hmax = "{what} overflows at t = {t:.3e} (max|H| = {hmax:.3e})", max_abs(H)
    require_within(top, np.finfo(float).max, PseudoHermError, message, what=what, t=t, hmax=hmax)


def evolution_invariance_check(
    H,
    eta,
    t: float,
    tol: float = DEFAULT_TOL,
    strict: bool = False,
) -> CheckResult:
    """Check that the metric inner product is conserved by ``exp(-i H t)``.

    ok iff the residual ``max|U^dagger eta U - eta| / max|eta|`` <= tol, with
    ``U = exp(-i H t)``.  Invariance holds for all t exactly when H is
    pseudo-Hermitian with respect to eta; only with ``strict=True`` is that
    precondition evaluated, first, and its failure raises
    ``NotPseudoHermitianError`` instead of reporting the (expected)
    invariance failure.  A non-Hermitian eta raises in both modes, and so
    does a U or a ``U^dagger eta U`` that overflows (``PseudoHermError``).
    """
    H = as_square_matrix(H, "H")
    m = _eta_matrix(eta)
    require_same_dim(H, m, "H and eta")
    _hermiticity(m, tol)
    if strict:  # is_pseudo_hermitian on the arrays validated above
        residual = intertwining(H.conj().T, m, H, max_abs(H), tol).residual
        require_within(
            residual, tol, NotPseudoHermitianError,
            "H is not pseudo-Hermitian w.r.t. eta (residual {measured:.3e}); "
            "invariance is not expected",
        )
    u = propagator(H, t)
    with np.errstate(over="ignore", invalid="ignore"):
        raw = max_abs(u.conj().T @ m @ u - m)
    _require_finite(raw, "U^dagger eta U", t, H)
    return make_check(raw, max_abs(m), tol)
