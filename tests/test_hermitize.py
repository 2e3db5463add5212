"""Hermitizing transforms, their metrics, and the equivalence report."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoherm import (
    AntilinearOperator,
    PseudoCanonicalTransform,
    SingularEtaError,
    SingularTransformError,
    antilinear_symmetry,
    build_metric,
    metric_from_matrix,
    SpectrumNotRealError,
    apply_transform,
    biorthonormal_eigensystem,
    classify_spectrum,
    hermitizing_transform,
    indefinite_inner_product,
    is_pseudo_hermitian,
    metric_from_transform,
    real_spectrum_equivalence_report,
)
from pseudoherm.ensembles import planted_matrix, random_hermitian, random_invertible


def analyzed(h):
    sys_ = biorthonormal_eigensystem(h)
    return sys_, classify_spectrum(sys_)


def herm_defect(m):
    return np.max(np.abs(m - m.conj().T)) / max(np.max(np.abs(m)), 1e-300)


def test_hermitian_input_stays_hermitian(rng):
    h = random_hermitian(rng, 4)
    transform = hermitizing_transform(*analyzed(h))
    np.testing.assert_allclose(
        transform.matrix @ transform.matrix.conj().T,
        np.eye(4),
        atol=1e-10,
    )  # A unitary up to gauge for a Hermitian input
    assert herm_defect(apply_transform(transform, h)) <= 1e-12


def test_upper_triangular_two_by_two():
    h = np.array([[1.0, 1.0], [0.0, 2.0]])
    transform = hermitizing_transform(*analyzed(h))
    h_t = apply_transform(transform, h)
    assert herm_defect(h_t) <= 1e-12
    np.testing.assert_allclose(np.sort(np.linalg.eigvals(h_t).real), [1.0, 2.0], atol=1e-10)


def test_planted_real_roundtrip(rng):
    pm = planted_matrix(rng, 4, "real")
    h = pm.matrix
    transform = hermitizing_transform(*analyzed(h))
    h_t = apply_transform(transform, h)
    assert herm_defect(h_t) <= 1e-10
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvals(h_t).real),
        np.sort(pm.eigenvalues.real),
        atol=1e-9,
    )
    # round trip back to H
    a = transform.matrix
    np.testing.assert_allclose(np.linalg.solve(a, h_t @ a), h, atol=1e-9)


def test_refuses_paired_spectrum(planted_paired):
    with pytest.raises(SpectrumNotRealError):
        hermitizing_transform(*analyzed(planted_paired.matrix))


def test_apply_transform_identity():
    h = np.array([[1.0, 2.0], [3.0, 4.0]])
    t = PseudoCanonicalTransform(np.eye(2, dtype=complex))
    np.testing.assert_allclose(apply_transform(t, h), h)


def test_apply_transform_hand_example():
    t = PseudoCanonicalTransform(np.diag([2.0, 1.0]).astype(complex))
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(apply_transform(t, h), [[0.0, 2.0], [0.0, 0.0]])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_apply_transform_preserves_spectrum(seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = random_invertible(rng, 4)
    h_t = apply_transform(PseudoCanonicalTransform(a), h)
    np.testing.assert_allclose(
        np.sort_complex(np.linalg.eigvals(h_t)),
        np.sort_complex(np.linalg.eigvals(h)),
        atol=1e-8,
    )


def test_metric_from_transform_identity():
    metric = metric_from_transform(PseudoCanonicalTransform(np.eye(2, dtype=complex)))
    np.testing.assert_allclose(metric.matrix, np.eye(2))
    assert metric.positive_definite


def test_metric_from_transform_diagonal():
    metric = metric_from_transform(PseudoCanonicalTransform(np.diag([2.0, 1.0]).astype(complex)))
    np.testing.assert_allclose(metric.matrix, np.diag([4.0, 1.0]))


def test_transform_and_metric_dims_are_their_matrix_sizes():
    transform = PseudoCanonicalTransform(np.diag([2.0, 1.0, 3.0]).astype(complex))
    assert transform.dim == 3 and metric_from_transform(transform).dim == 3


def test_transform_condition_ceiling_is_1e8():
    """kappa = 1e10 is refused by both consumers of a transform."""
    transform = PseudoCanonicalTransform(np.diag([1.0, 1e-10]).astype(complex))
    with pytest.raises(SingularTransformError):
        apply_transform(transform, np.eye(2))
    with pytest.raises(SingularTransformError):
        metric_from_transform(transform)


def test_transform_refusals_carry_their_numbers():
    """kappa(transform) = 1e10 against the ceiling 1e8, on both consumers."""
    transform = PseudoCanonicalTransform(np.diag([1.0, 1e-10]).astype(complex))
    refusals = (lambda: apply_transform(transform, np.eye(2)), lambda: metric_from_transform(transform))
    for refuse in refusals:
        with pytest.raises(SingularTransformError) as err:
            refuse()
        assert err.value.measured == pytest.approx(1e10, rel=1e-12)
        assert err.value.limit == 1e8
    assert str(err.value) == "transform is singular or too ill-conditioned"


def test_positive_metric_ceiling_carries_kappa_of_eta():
    """kappa(Psi) = 2e5 passes the eigensystem; kappa(eta) = kappa(Psi)^2 =
    4e10 is refused by hermitization and by the metric, with that number."""
    sys_, cls = analyzed(np.array([[1.0, 1.0], [0.0, 1.0 + 1e-5]]))
    for refuse in (lambda: hermitizing_transform(sys_, cls), lambda: build_metric(sys_, cls)):
        with pytest.raises(SingularEtaError) as err:
            refuse()
        assert err.value.measured == sys_.cond * sys_.cond == pytest.approx(4e10, rel=1e-6)
        assert err.value.limit == 1e8
    assert str(err.value) == "constructed metric is too ill-conditioned"


def test_metric_refusals_carry_their_numbers():
    with pytest.raises(SingularEtaError) as err:
        metric_from_matrix(np.diag([1.0, -1e-9]))
    assert (err.value.measured, err.value.limit) == (pytest.approx(1e9, rel=1e-12), 1e8)
    assert str(err.value) == "candidate metric is singular or too ill-conditioned"
    with pytest.raises(SingularEtaError) as err:
        antilinear_symmetry(np.diag([1.0, 1e-10]), AntilinearOperator(np.eye(2, dtype=complex)))
    assert (err.value.measured, err.value.limit) == (pytest.approx(1e10, rel=1e-12), 1e8)
    assert str(err.value) == "eta is singular or too ill-conditioned to invert"


def test_metric_from_transform_certifies(planted_real):
    h = planted_real.matrix
    transform = hermitizing_transform(*analyzed(h))
    metric = metric_from_transform(transform)
    assert metric.positive_definite
    assert is_pseudo_hermitian(h, metric, 1e-9).ok


def test_converse_direction(rng):
    """Any invertible A applied to a Hermitian matrix certifies the metric A^dag A."""
    h_t = random_hermitian(rng, 4)
    a = random_invertible(rng, 4)
    h = np.linalg.solve(a, h_t @ a)
    metric = metric_from_transform(PseudoCanonicalTransform(a))
    assert is_pseudo_hermitian(h, metric, 1e-9).ok
    assert np.max(np.abs(np.linalg.eigvals(h).imag)) <= 1e-8


def test_positive_inner_product_hermiticity(rng):
    pm = planted_matrix(rng, 5, "real")
    h = pm.matrix
    transform = hermitizing_transform(*analyzed(h))
    metric = metric_from_transform(transform)
    for _ in range(5):
        xi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        zeta = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        lhs = indefinite_inner_product(metric, xi, h @ zeta)
        rhs = np.conj(indefinite_inner_product(metric, zeta, h @ xi))
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_report_hermitian_input(rng):
    h = random_hermitian(rng, 3)
    report = real_spectrum_equivalence_report(h, seed=1)
    assert report["spectrum_class"] == "all_real"
    assert report["positive_definite_metric"] is True
    assert report["exact_symmetry"] is True
    assert report["refusals"] == {}
    assert report["certificates"]["A"] is not None
    assert max(report["residuals"].values()) <= 1e-9
    json.dumps(report)  # must be serializable as-is


def test_report_planted_real(planted_real):
    report = real_spectrum_equivalence_report(planted_real.matrix, seed=2)
    assert report["spectrum_class"] == "all_real"
    assert report["exact_symmetry"] is True
    assert report["residuals"]["hermitized_hermiticity"] <= 1e-9
    assert report["residuals"]["inner_product_hermiticity"] <= 1e-9


def test_report_paired_refuses_hermitization(planted_paired):
    report = real_spectrum_equivalence_report(planted_paired.matrix, seed=3)
    assert report["spectrum_class"] == "conjugate_paired"
    assert report["positive_definite_metric"] is False
    assert report["exact_symmetry"] is False
    assert report["residuals"]["metric_intertwining"] <= 1e-9
    assert report["residuals"]["symmetry_commutation"] <= 1e-9
    assert "hermitization" in report["refusals"]
    assert "SpectrumNotReal" in report["refusals"]["hermitization"]
    assert report["certificates"]["A"] is None
    assert report["certificates"]["eta"] is not None


def test_report_unpaired_refuses_metric(planted_unpaired):
    report = real_spectrum_equivalence_report(planted_unpaired.matrix, seed=4)
    assert report["spectrum_class"] == "unpaired"
    assert "metric" in report["refusals"]
    assert "UnpairedSpectrum" in report["refusals"]["metric"]
    assert report["certificates"]["eta"] is None
    # tau always exists (every diagonalizable matrix is anti-pseudo-Hermitian)
    assert report["residuals"]["tau_intertwining"] <= 1e-9
