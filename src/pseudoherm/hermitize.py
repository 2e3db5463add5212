"""Hermitization of matrices with a real spectrum.

A diagonalizable H with an all-real spectrum admits a positive-definite
metric ``eta = O O^dagger`` (O = the stacked left eigenvector matrix), and
the similarity ``A = O^dagger`` maps H to a Hermitian matrix
``A H A^{-1}``.  Conversely, any invertible A hermitizing H certifies that
H is pseudo-Hermitian with respect to the positive metric ``A^dagger A``.
The report runner chains every stage of the toolkit and emits the
per-stage residuals as machine-readable evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    as_square_matrix,
    condition_number,
    diagonal_defect,
    hermitian_defect,
    intertwining,
    require_conditioned,
    require_same_dim,
    scale_of,
    solve,
)
from .antilinear import canonical_tau
from .eigensystem import (
    DEFAULT_TOL,
    BiorthonormalSystem,
    SpectrumClass,
    SpectrumTag,
    _cluster_gap,
    _solve,
    classify_spectrum,
)
from .errors import (
    PseudoHermError,
    SingularEtaError,
    SingularTransformError,
    SpectrumNotRealError,
    UnpairedSpectrumError,
)
from .io import matrix_to_dict
from .metric import MetricOperator, _hermiticity, _metric
from .symmetry import _canonical_symmetry, _is_exact


@dataclass(frozen=True)
class PseudoCanonicalTransform:
    """Invertible change of frame acting on operators as ``B -> a B a^{-1}``."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class ReportStageError(PseudoHermError):
    """Failure inside the report runner, labelled by stage, with its cause's numbers."""

    def __init__(self, stage: str, cause: PseudoHermError):
        super().__init__(f"stage '{stage}': {cause}", cause.measured, cause.limit)
        self.stage = stage


def hermitizing_transform(sys: BiorthonormalSystem, cls: SpectrumClass) -> PseudoCanonicalTransform:
    """Transform A with ``A H A^{-1}`` Hermitian, for an all-real spectrum.

    A is the adjoint of the positive metric's natural factor, i.e.
    ``Phi^dagger``; the transformed matrix ``Phi^dagger H Psi`` is diagonal
    with the level energies up to rounding.

    Raises
    ------
    SpectrumNotRealError
        If the classification is not all-real; no hermitizing similarity
        exists then.
    SingularEtaError
        If the condition number ``sys.cond ** 2`` of the positive metric
        ``A^dagger A`` exceeds ``DEFAULT_COND_CEILING`` (kappa(A) is below it then).

    The eigensystem's bound B = ``||Psi||_F ||Phi||_F`` decides it without an
    SVD when B^2 is at most half the ceiling; otherwise ``sys.cond`` is read.
    """
    if cls.tag is not SpectrumTag.ALL_REAL:
        raise SpectrumNotRealError(
            f"spectrum classified as {cls.tag.value}; hermitization needs an all-real spectrum"
        )
    # kappa(eta) = kappa(A)^2 = kappa(Psi)^2 for the positive metric eta = A^dagger A
    message, bound = "the positive metric A^dagger A is too ill-conditioned", sys._cond_bound
    require_conditioned(lambda: sys.cond * sys.cond, SingularEtaError, message, bound * bound)
    return PseudoCanonicalTransform(matrix=sys.phi_matrix.conj().T)


def apply_transform(transform: PseudoCanonicalTransform, H) -> np.ndarray:
    """Similarity ``a H a^{-1}``; the spectrum is preserved."""
    H = as_square_matrix(H, "H")
    a = transform.matrix
    require_same_dim(a, H, "transform and H")
    x = a @ H
    return solve(a.T, x.T, SingularTransformError, "transform").T


def _hermitized(transform: PseudoCanonicalTransform, hpsi: np.ndarray) -> tuple:
    """(A H A^{-1}, its normalized Hermiticity defect), formed as A (H Psi) from
    the product hpsi = H Psi, as A^{-1} = Psi; it is diag(E) by construction."""
    h_t = transform.matrix @ hpsi
    return h_t, hermitian_defect(h_t) / scale_of(h_t)


def metric_from_transform(transform: PseudoCanonicalTransform) -> MetricOperator:
    """Positive metric ``a^dagger a`` certified by a hermitizing transform."""
    a = transform.matrix
    message = "transform is singular or too ill-conditioned"
    require_conditioned(condition_number(a), SingularTransformError, message)
    eta = a.conj().T @ a
    eta = (eta + eta.conj().T) / 2.0
    return MetricOperator(matrix=eta, positive_definite=True, factor=a.conj().T)


def real_spectrum_equivalence_report(
    H, tol: float = DEFAULT_TOL, *, cluster_gap: float | None = None, seed: int | None = 0
) -> dict:
    """Run the full chain on one matrix and emit a verification report.

    Stages: eigensystem, spectrum classification (levels real or paired
    within ``tolerances.realness_tol`` = 1e-8 max|H|), automorphism tau,
    metric, symmetry X = eta^{-1} tau, and (for a real spectrum)
    hermitization plus the positive-inner-product Hermiticity spot check on
    eight random vector pairs drawn from ``seed`` (None: fresh OS entropy).
    Each identity is checked once, against H, and reported as a normalized
    residual; a failed one is a residual above ``tol``.  X is exact
    (``exact_symmetry``) when it commutes with H and maps every level into
    itself.  Stage refusals mandated by the theory (unpaired spectrum: no
    metric; non-real spectrum: no hermitization) are recorded in the report;
    a failed construction (eigensystem, classification, a condition ceiling
    of the metric or of A, a non-Hermitian eta) is re-raised as
    :class:`ReportStageError` labelled with its stage.

    tau, eta and X are each checked as two products, ``H^dagger tau = tau
    conj(H)``, ``H^dagger eta = eta H`` and ``H X = X conj(H)`` at the scale
    max|H| max|.|, by the check the public ``is_anti_pseudo_hermitian``,
    ``is_pseudo_hermitian`` and ``commutes_with`` run, so both give the same
    residual bit for bit.  A H A^{-1} is formed as ``A (H Psi)`` from the
    product H Psi that verified the eigensystem.

    The returned dict is JSON-serializable:
    ``{"input": ..., "spectrum_class": ..., "residuals": {...},
    "certificates": {"eta": ..., "A": ..., "X": ...}, ...}``.
    """
    report = _report(H, tol, cluster_gap, seed)[0]
    for key, m in report["certificates"].items():
        report["certificates"][key] = m if m is None else matrix_to_dict(m)
    return {**report, "input": matrix_to_dict(report["input"])}


def _report(H, tol, cluster_gap, seed) -> tuple:
    """(report, eigensystem, spectrum class) of one chain run; matrices stay arrays."""
    H = as_square_matrix(H, "H")
    residuals: dict[str, float] = {}
    refusals: dict[str, str] = {}
    certificates: dict[str, np.ndarray | None] = {"eta": None, "A": None, "X": None}

    def run(stage, fn):
        try:
            return fn()
        except (UnpairedSpectrumError, SpectrumNotRealError) as exc:
            refusals[stage] = f"{type(exc).__name__}: {exc}"
            return None
        except PseudoHermError as exc:
            raise ReportStageError(stage, exc) from exc

    sys, hpsi = run("eigensystem", lambda: _solve(H, tol, cluster_gap))
    residuals["biorthonormality"], residuals["completeness"] = sys._biorthonormality

    cls = run("classification", lambda: classify_spectrum(sys))
    hmax, gap = sys._hmax, _cluster_gap(cluster_gap, sys._hmax)
    hscale = max(hmax, 1e-300)
    report = {
        "input": H,
        "spectrum_class": cls.tag.value,
        "tolerances": {"tol": tol, "realness_tol": cls.realness_tol, "cluster_gap": gap},
        "residuals": residuals,
        "refusals": refusals,
        "certificates": certificates,
        "exact_symmetry": None,
        "positive_definite_metric": None,
    }

    h_conj = H.conj()  # conj(H); H^dagger is its transpose
    tau = canonical_tau(sys).matrix
    residuals["tau_intertwining"] = intertwining(h_conj.T, tau, h_conj, hmax, tol).residual

    metric = run("metric", lambda: _metric(sys, cls))
    if metric is not None:
        eta = metric.matrix
        report["positive_definite_metric"] = metric.positive_definite
        residuals["metric_hermiticity"] = run("metric", lambda: _hermiticity(eta, tol))
        residuals["metric_intertwining"] = intertwining(h_conj.T, eta, H, hmax, tol).residual
        certificates["eta"] = eta

        x = _canonical_symmetry(sys, cls)
        xm = x.matrix
        commutation = intertwining(H, xm, h_conj, hmax, tol)
        residuals["symmetry_commutation"] = commutation.residual
        report["exact_symmetry"] = _is_exact(commutation, sys, x, tol)
        certificates["X"] = xm

    transform = run("hermitization", lambda: hermitizing_transform(sys, cls))
    if transform is not None:
        h_t, residuals["hermitized_hermiticity"] = _hermitized(transform, hpsi)
        match = diagonal_defect(h_t.copy(), sys.energies)
        residuals["hermitized_eigenvalue_match"] = match / hscale
        certificates["A"] = transform.matrix

        # eight pairs (xi, zeta) drawn as (Re xi, Im xi, Re zeta, Im zeta), as
        # the rows xi_0, zeta_0, xi_1, ... of z; the chain's eta is the positive
        # metric A^dagger A = Phi Phi^dagger
        v = np.random.default_rng(seed).standard_normal((8, 4, sys.dim))
        z = (v[:, 0::2] + 1j * v[:, 1::2]).reshape(16, sys.dim)
        z_eta, hz = z.conj() @ eta, z @ H.T
        lhs = (z_eta[0::2] * hz[1::2]).sum(axis=1)
        rhs = (z_eta[1::2] * hz[0::2]).sum(axis=1).conj()
        # operator scales, as for every residual: |lhs| and |rhs| can cancel to near 0
        norms = np.linalg.norm(z, axis=1)
        scale = norms[0::2] * norms[1::2] * scale_of(eta) * hscale
        residuals["inner_product_hermiticity"] = float((np.abs(lhs - rhs) / scale).max())

    return report, sys, cls
