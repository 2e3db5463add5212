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
    DEFAULT_COND_CEILING,
    as_square_matrix,
    condition_number,
    hermitian_defect,
    max_abs,
    require_same_dim,
    scale_of,
    solve,
)
from .antilinear import canonical_tau, is_anti_pseudo_hermitian
from .eigensystem import (
    CLUSTER_GAP_FACTOR,
    DEFAULT_REALNESS_TOL,
    DEFAULT_TOL,
    BiorthonormalSystem,
    SpectrumClass,
    SpectrumTag,
    biorthonormality_residuals,
    biorthonormal_eigensystem,
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
from .metric import MetricOperator, _metric, is_pseudo_hermitian
from .symmetry import _canonical_symmetry, _symmetry_check


@dataclass(frozen=True)
class PseudoCanonicalTransform:
    """Invertible change of frame acting on operators as ``B -> a B a^{-1}``."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class ReportStageError(PseudoHermError):
    """Unexpected failure inside the report runner, labelled by stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
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
    """
    if cls.tag is not SpectrumTag.ALL_REAL:
        raise SpectrumNotRealError(
            f"spectrum classified as {cls.tag.value}; hermitization needs an all-real spectrum"
        )
    # kappa(eta) = kappa(A)^2 = kappa(Psi)^2 for the positive metric eta = A^dagger A
    if sys.cond * sys.cond > DEFAULT_COND_CEILING:
        raise SingularEtaError("the positive metric A^dagger A is too ill-conditioned")
    return PseudoCanonicalTransform(matrix=sys.phi_matrix.conj().T)


def apply_transform(transform: PseudoCanonicalTransform, H) -> np.ndarray:
    """Similarity ``a H a^{-1}``; the spectrum is preserved."""
    H = as_square_matrix(H, "H")
    a = transform.matrix
    require_same_dim(a, H, "transform and H")
    x = a @ H
    return solve(a.T, x.T, SingularTransformError, "transform").T


def _hermitized(H, sys: BiorthonormalSystem, transform: PseudoCanonicalTransform) -> tuple:
    """(A H A^{-1}, its normalized Hermiticity defect) with A^{-1} = Psi; the
    product is diag(E) by construction."""
    h_t = transform.matrix @ H @ sys.psi_matrix
    return h_t, hermitian_defect(h_t) / scale_of(h_t)


def metric_from_transform(transform: PseudoCanonicalTransform) -> MetricOperator:
    """Positive metric ``a^dagger a`` certified by a hermitizing transform."""
    a = transform.matrix
    if condition_number(a) > DEFAULT_COND_CEILING:
        raise SingularTransformError("transform is singular or too ill-conditioned")
    eta = a.conj().T @ a
    eta = (eta + eta.conj().T) / 2.0
    return MetricOperator(matrix=eta, positive_definite=True, factor=a.conj().T)


def real_spectrum_equivalence_report(
    H,
    tol: float = DEFAULT_TOL,
    realness_tol: float = DEFAULT_REALNESS_TOL,
    cluster_gap: float | None = None,
    seed: int | None = 0,
) -> dict:
    """Run the full chain on one matrix and emit a verification report.

    Stages: eigensystem, spectrum classification, automorphism tau, metric,
    symmetry X = eta^{-1} tau, and (for a real spectrum) hermitization plus
    the positive-inner-product Hermiticity spot check on eight random vector
    pairs drawn from ``seed`` (None: fresh OS entropy).  Each identity is
    checked once, against H, and reported as a normalized residual; a failed
    one is a residual above ``tol``.  X is exact (``exact_symmetry``) when it
    commutes with H and maps every level into itself.  Stage refusals
    mandated by the theory (unpaired spectrum: no metric; non-real spectrum:
    no hermitization) are recorded in the report; a failed construction
    (eigensystem, classification, a condition ceiling of the metric or of A)
    is re-raised as :class:`ReportStageError` labelled with its stage.

    The returned dict is JSON-serializable:
    ``{"input": ..., "spectrum_class": ..., "residuals": {...},
    "certificates": {"eta": ..., "A": ..., "X": ...}, ...}``.
    """
    report = _report(H, tol, realness_tol, cluster_gap, seed)[0]
    for key, m in report["certificates"].items():
        report["certificates"][key] = m if m is None else matrix_to_dict(m)
    return {**report, "input": matrix_to_dict(report["input"])}


def _report(H, tol, realness_tol, cluster_gap, seed) -> tuple:
    """(report, eigensystem, spectrum class) of one chain run; matrices stay arrays."""
    H = as_square_matrix(H, "H")
    residuals: dict[str, float] = {}
    refusals: dict[str, str] = {}
    certificates: dict[str, np.ndarray | None] = {"eta": None, "A": None, "X": None}
    report = {
        "input": H,
        "spectrum_class": None,
        "tolerances": {
            "tol": tol,
            "realness_tol": realness_tol,
            "cluster_gap": cluster_gap if cluster_gap is not None else CLUSTER_GAP_FACTOR * max_abs(H),
        },
        "residuals": residuals,
        "refusals": refusals,
        "certificates": certificates,
        "exact_symmetry": None,
        "positive_definite_metric": None,
    }

    def run(stage, fn):
        try:
            return fn()
        except (UnpairedSpectrumError, SpectrumNotRealError) as exc:
            refusals[stage] = f"{type(exc).__name__}: {exc}"
            return None
        except PseudoHermError as exc:
            raise ReportStageError(stage, exc) from exc

    sys = run("eigensystem", lambda: biorthonormal_eigensystem(H, tol, cluster_gap))
    r_bi, r_comp = biorthonormality_residuals(sys)
    residuals["biorthonormality"] = r_bi
    residuals["completeness"] = r_comp

    cls = run("classification", lambda: classify_spectrum(sys, realness_tol))
    report["spectrum_class"] = cls.tag.value

    tau = canonical_tau(sys)
    residuals["tau_intertwining"] = is_anti_pseudo_hermitian(H, tau, tol).residual

    metric = run("metric", lambda: _metric(sys, cls))
    if metric is not None:
        report["positive_definite_metric"] = metric.positive_definite
        eta_scale = scale_of(metric.matrix)
        residuals["metric_hermiticity"] = hermitian_defect(metric.matrix) / eta_scale
        intertwining = run("metric", lambda: is_pseudo_hermitian(H, metric, tol))
        residuals["metric_intertwining"] = intertwining.residual
        certificates["eta"] = metric.matrix

        x = _canonical_symmetry(sys, cls)
        commutation, report["exact_symmetry"] = _symmetry_check(H, sys, x, tol)
        residuals["symmetry_commutation"] = commutation.residual
        certificates["X"] = x.matrix

    transform = run("hermitization", lambda: hermitizing_transform(sys, cls))
    if transform is not None:
        h_t, residuals["hermitized_hermiticity"] = _hermitized(H, sys, transform)
        h_scale = scale_of(H)
        residuals["hermitized_eigenvalue_match"] = max_abs(h_t - np.diag(sys.energies)) / h_scale
        certificates["A"] = transform.matrix

        # eight pairs (xi, zeta) drawn as (Re xi, Im xi, Re zeta, Im zeta);
        # the chain's eta is the positive metric A^dagger A = Phi Phi^dagger
        v = np.random.default_rng(seed).standard_normal((8, 4, sys.dim))
        xi, zeta = v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3]
        lhs = np.sum((xi.conj() @ metric.matrix) * (zeta @ H.T), axis=1)
        rhs = np.sum((zeta.conj() @ metric.matrix) * (xi @ H.T), axis=1).conj()
        # operator scales, as for every residual: |lhs| and |rhs| can cancel to near 0
        scale = np.linalg.norm(xi, axis=1) * np.linalg.norm(zeta, axis=1) * eta_scale * h_scale
        residuals["inner_product_hermiticity"] = float(np.max(np.abs(lhs - rhs) / scale))

    return report, sys, cls
