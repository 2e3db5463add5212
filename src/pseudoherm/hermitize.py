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
from .metric import (
    MetricOperator,
    build_metric,
    indefinite_inner_product,
    is_pseudo_hermitian,
)
from .symmetry import _canonical_symmetry, commutes_with, is_exact_symmetry


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


def hermitizing_transform(
    sys: BiorthonormalSystem,
    cls: SpectrumClass,
    cond_ceiling: float = DEFAULT_COND_CEILING,
) -> PseudoCanonicalTransform:
    """Transform A with ``A H A^{-1}`` Hermitian, for an all-real spectrum.

    A is the adjoint of the positive metric's natural factor, i.e.
    ``Phi^dagger``; the transformed matrix ``Phi^dagger H Psi`` is diagonal
    with the level energies up to rounding.

    Raises
    ------
    SpectrumNotRealError
        If the classification is not all-real; no hermitizing similarity
        exists then.
    SingularEtaError, SingularTransformError
        If the metric ``A^dagger A`` or A itself is too ill-conditioned.
    """
    if cls.tag is not SpectrumTag.ALL_REAL:
        raise SpectrumNotRealError(
            f"spectrum classified as {cls.tag.value}; hermitization needs an all-real spectrum"
        )
    a = sys.phi_matrix.conj().T
    # kappa(eta) = kappa(A)^2 for the positive metric eta = A^dagger A
    kappa = condition_number(a)
    if kappa * kappa > DEFAULT_COND_CEILING:
        raise SingularEtaError("the positive metric A^dagger A is too ill-conditioned")
    if kappa > cond_ceiling:
        raise SingularTransformError("hermitizing transform is too ill-conditioned")
    return PseudoCanonicalTransform(matrix=a)


def apply_transform(transform: PseudoCanonicalTransform, H) -> np.ndarray:
    """Similarity ``a H a^{-1}``; the spectrum is preserved."""
    H = as_square_matrix(H, "H")
    a = transform.matrix
    require_same_dim(a, H, "transform and H")
    x = a @ H
    return solve(a.T, x.T, SingularTransformError, "transform").T


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
    seed: int | None = None,
) -> dict:
    """Run the full chain on one matrix and emit a verification report.

    Stages: eigensystem, spectrum classification, metric, automorphism tau,
    symmetry X = eta^{-1} tau, exactness, and (for a real spectrum)
    hermitization plus the positive-inner-product Hermiticity spot check on
    random vector pairs.  Stage refusals mandated by the theory
    (unpaired spectrum: no metric; non-real spectrum: no hermitization) are
    recorded in the report; any other failure is re-raised as
    :class:`ReportStageError` labelled with its stage.

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
    rng = np.random.default_rng(seed)
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

    tau = run("tau", lambda: canonical_tau(sys))
    residuals["tau_intertwining"] = is_anti_pseudo_hermitian(H, tau, tol).residual

    metric = run("metric", lambda: build_metric(sys, cls))
    if metric is not None:
        report["positive_definite_metric"] = metric.positive_definite
        residuals["metric_hermiticity"] = hermitian_defect(metric.matrix) / scale_of(metric.matrix)
        residuals["metric_intertwining"] = is_pseudo_hermitian(H, metric, tol).residual
        certificates["eta"] = metric.matrix

        x = _canonical_symmetry(sys, cls)
        residuals["symmetry_commutation"] = commutes_with(H, x, tol).residual
        certificates["X"] = x.matrix
        report["exact_symmetry"] = run("exactness", lambda: is_exact_symmetry(sys, x, tol))

    transform = run("hermitization", lambda: hermitizing_transform(sys, cls))
    if transform is not None:
        # A H A^{-1} with A^{-1} = Psi; it is diag(E) by construction
        h_t = transform.matrix @ H @ sys.psi_matrix
        residuals["hermitized_hermiticity"] = hermitian_defect(h_t) / scale_of(h_t)
        match = max_abs(h_t - np.diag(sys.energies)) / scale_of(H)
        residuals["hermitized_eigenvalue_match"] = match
        certificates["A"] = transform.matrix

        # the chain's eta is the positive metric A^dagger A = Phi Phi^dagger
        worst = 0.0
        for _ in range(8):
            xi = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
            zeta = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
            lhs = indefinite_inner_product(metric, xi, H @ zeta)
            rhs = np.conj(indefinite_inner_product(metric, zeta, H @ xi))
            worst = max(worst, abs(lhs - rhs) / scale_of([lhs, rhs]))
        residuals["inner_product_hermiticity"] = worst

    return report, sys, cls
