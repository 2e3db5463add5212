"""Metric construction, intertwining checks, evolution invariance."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudoherm.metric
from pseudoherm import (
    NonHermitianEtaError,
    NotPseudoHermitianError,
    PseudoHermError,
    SingularEtaError,
    UnpairedSpectrumError,
    biorthonormal_eigensystem,
    build_metric,
    classify_spectrum,
    evolution_invariance_check,
    indefinite_inner_product,
    is_pseudo_hermitian,
    metric_from_matrix,
    propagator,
    pseudo_adjoint,
)
from pseudoherm.ensembles import random_hermitian

from conftest import planted_3x3_conjugate


def analyzed(h):
    sys_ = biorthonormal_eigensystem(h)
    return sys_, classify_spectrum(sys_)


def test_hermitian_with_identity_metric(rng):
    h = random_hermitian(rng, 4)
    assert is_pseudo_hermitian(h, np.eye(4)).ok


def test_rotation_generator_with_signature_metric():
    h = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
    eta = np.diag([1.0, -1.0])
    # hand arithmetic: H^dag eta = [[0,1],[1,0]] = eta H
    np.testing.assert_allclose(h.conj().T @ eta, np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(eta @ h, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert is_pseudo_hermitian(h, eta).ok


def test_non_hermitian_eta_rejected():
    with pytest.raises(NonHermitianEtaError):
        is_pseudo_hermitian(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_build_metric_diagonal_real():
    sys_, cls = analyzed(np.diag([1.0, 2.0]))
    metric = build_metric(sys_, cls)
    np.testing.assert_allclose(metric.matrix, np.eye(2), atol=1e-12)
    assert metric.positive_definite
    np.testing.assert_allclose(metric.factor @ metric.factor.conj().T, np.eye(2), atol=1e-12)


def test_build_metric_conjugate_pair_is_swap():
    h = np.diag([1 + 1j, 1 - 1j])
    sys_, cls = analyzed(h)
    metric = build_metric(sys_, cls)
    np.testing.assert_allclose(np.abs(metric.matrix), np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)
    assert not metric.positive_definite
    # hand check of the intertwining identity for the swap metric
    eta = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(h.conj().T @ eta, eta @ h)
    assert is_pseudo_hermitian(h, metric).ok


def test_build_metric_planted_real_positive(planted_real):
    sys_, cls = analyzed(planted_real.matrix)
    metric = build_metric(sys_, cls)
    assert metric.positive_definite
    assert np.linalg.eigvalsh(metric.matrix)[0] > 0
    assert is_pseudo_hermitian(planted_real.matrix, metric, 1e-9).ok
    np.testing.assert_allclose(
        metric.factor @ metric.factor.conj().T, metric.matrix, atol=1e-10
    )


def test_build_metric_refuses_unpaired(planted_unpaired):
    sys_, cls = analyzed(planted_unpaired.matrix)
    with pytest.raises(UnpairedSpectrumError):
        build_metric(sys_, cls)


def test_build_metric_weights_give_independent_metrics(planted_paired):
    h = planted_paired.matrix
    sys_, cls = analyzed(h)
    eta1 = build_metric(sys_, cls)
    w = 1.0 + np.arange(len(sys_.levels), dtype=float)
    eta2 = build_metric(sys_, cls, weights=w)
    assert is_pseudo_hermitian(h, eta1, 1e-9).ok
    assert is_pseudo_hermitian(h, eta2, 1e-9).ok
    assert np.max(np.abs(eta1.matrix - eta2.matrix)) > 1e-3
    # eta1^{-1} eta2 generates a symmetry of H
    gen = np.linalg.solve(eta1.matrix, eta2.matrix)
    comm = h @ gen - gen @ h
    scale = np.max(np.abs(h)) * np.max(np.abs(gen))
    assert np.max(np.abs(comm)) <= 1e-9 * scale


def test_pseudo_adjoint_identity_metric(rng):
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(pseudo_adjoint(h, np.eye(3)), h.conj().T, atol=1e-12)


def test_pseudo_adjoint_commuting_metric(rng):
    h = random_hermitian(rng, 3)
    eta = np.eye(3) * 2.0
    np.testing.assert_allclose(pseudo_adjoint(h, eta), h, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pseudo_adjoint_is_involution(seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    eta = (a + a.conj().T) / 2 + 3.0 * np.eye(3)  # Hermitian, safely invertible
    np.testing.assert_allclose(pseudo_adjoint(pseudo_adjoint(h, eta), eta), h, atol=1e-10)


def test_inner_product_ordinary_for_identity():
    assert indefinite_inner_product(np.eye(2), [1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)


def test_inner_product_signature():
    eta = np.diag([1.0, -1.0])
    assert indefinite_inner_product(eta, [0.0, 1.0], [0.0, 1.0]) == pytest.approx(-1.0)


def test_inner_product_hermitian_symmetry(rng):
    eta = random_hermitian(rng, 4)
    xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    zeta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lhs = indefinite_inner_product(eta, xi, zeta)
    rhs = np.conj(indefinite_inner_product(eta, zeta, xi))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_evolution_invariance_hermitian(rng):
    h = random_hermitian(rng, 4)
    for t in (0.1, 0.7, 2.0):
        assert evolution_invariance_check(h, np.eye(4), t, 1e-10).ok


def test_evolution_invariance_closed_form_oracle():
    h = np.diag([1 + 1j, 1 - 1j])
    eta = np.array([[0.0, 1.0], [1.0, 0.0]])
    t = 0.7
    # closed-form diagonal propagator
    u_expected = np.diag(np.exp([-1j * t * (1 + 1j), -1j * t * (1 - 1j)]))
    np.testing.assert_allclose(propagator(h, t), u_expected, atol=1e-12)
    np.testing.assert_allclose(u_expected.conj().T @ eta @ u_expected, eta, atol=1e-12)
    assert evolution_invariance_check(h, eta, t).ok


def test_evolution_not_invariant_for_wrong_metric():
    h = np.diag([1 + 1j, 1 - 1j])
    check = evolution_invariance_check(h, np.eye(2), 0.7)
    assert not check.ok
    assert check.residual > 1e-2


def test_evolution_strict_raises():
    h = np.diag([1 + 1j, 1 - 1j])
    with pytest.raises(NotPseudoHermitianError):
        evolution_invariance_check(h, np.eye(2), 0.7, strict=True)


def test_strict_refusal_carries_its_residual():
    """.measured is the intertwining residual of the precondition, .limit
    the tol it exceeded; the message prints the same number."""
    h = np.diag([1 + 1j, 1 - 1j])
    with pytest.raises(NotPseudoHermitianError) as refused:
        evolution_invariance_check(h, np.eye(2), 0.7, tol=1e-9, strict=True)
    assert refused.value.measured == is_pseudo_hermitian(h, np.eye(2), 1e-9).residual
    assert refused.value.limit == 1e-9 < refused.value.measured
    assert f"(residual {refused.value.measured:.3e})" in str(refused.value)


@pytest.mark.parametrize("strict, calls", [(False, 0), (True, 1)])
def test_evolution_precondition_only_when_strict(monkeypatch, strict, calls):
    """The precondition is one intertwining check, and eta's Hermiticity is
    checked once in either mode."""
    seen = {"intertwining": 0, "_hermiticity": 0}

    def counting(name):
        fn = getattr(pseudoherm.metric, name)

        def counted(*args):
            seen[name] += 1
            return fn(*args)

        monkeypatch.setattr(pseudoherm.metric, name, counted)

    counting("intertwining")
    counting("_hermiticity")
    h = np.diag([1 + 1j, 1 - 1j])
    assert evolution_invariance_check(h, np.array([[0.0, 1.0], [1.0, 0.0]]), 0.7, strict=strict)
    assert seen == {"intertwining": calls, "_hermiticity": 1}


ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])  # E = +-i, H^dagger eta = eta H for eta below


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "h, eta, t, what",
    [
        (np.diag([1.0, 2.0]), np.eye(2), 1e308, "exp(-iHt)"),  # t H is inf
        (ROTATION, np.diag([1.0, -1.0]), 800.0, "exp(-iHt)"),  # U ~ e^800
        (ROTATION, np.diag([1.0, -1.0]), 360.0, "U^dagger eta U"),  # U ~ 1e156
    ],
)
def test_evolution_refuses_an_overflow(h, eta, t, what, strict):
    """No NaN or inf residual: an overflowing t H, U or U^dagger eta U is
    refused with t and max|H|, and no RuntimeWarning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PseudoHermError) as exc:
            evolution_invariance_check(h, eta, t, strict=strict)
    assert str(exc.value) == f"{what} overflows at t = {t:.3e} (max|H| = {np.abs(h).max():.3e})"


@pytest.mark.parametrize("strict", [False, True])
def test_evolution_refuses_nonhermitian_eta(strict):
    with pytest.raises(NonHermitianEtaError):
        evolution_invariance_check(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]), 0.7, strict=strict)


def test_metric_from_matrix_condition_ceiling():
    with pytest.raises(SingularEtaError):
        metric_from_matrix(np.diag([1.0, -1e-9]))
    with pytest.raises(SingularEtaError):
        metric_from_matrix(np.zeros((2, 2)))
    assert not metric_from_matrix(np.diag([1.0, -1e-7])).positive_definite


def test_metric_from_matrix_positive_definite():
    eta = np.array([[2.0, 0.5], [0.5, 1.0]])
    metric = metric_from_matrix(eta)
    assert metric.positive_definite
    np.testing.assert_allclose(metric.factor @ metric.factor.conj().T, eta, atol=1e-12)


def test_metric_from_matrix_indefinite_has_no_factor():
    metric = metric_from_matrix(np.diag([1.0, -1.0]))
    assert not metric.positive_definite
    assert metric.factor is None


def test_metric_from_matrix_rejects_nonhermitian():
    with pytest.raises(NonHermitianEtaError):
        metric_from_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "check, subject",
    [
        (lambda eta, tol: metric_from_matrix(eta, tol), "candidate metric"),
        (lambda eta, tol: is_pseudo_hermitian(np.eye(2), eta, tol), "eta"),
        (lambda eta, tol: evolution_invariance_check(np.eye(2), eta, 0.7, tol), "eta"),
    ],
    ids=["metric_from_matrix", "is_pseudo_hermitian", "evolution_invariance_check"],
)
def test_non_hermitian_eta_carries_its_defect(check, subject):
    """The refusal's .measured is max|eta - eta^dagger| / max|eta| and its
    .limit the tol it exceeded; the message names the caller's subject."""
    eta = np.array([[2.0, 1.0], [0.5, 1.0]])  # defect 0.5 at scale 2
    with pytest.raises(NonHermitianEtaError) as refused:
        check(eta, 1e-3)
    assert (refused.value.measured, refused.value.limit) == (0.25, 1e-3)
    assert str(refused.value) == f"{subject} is not Hermitian within tolerance"


def test_planted_paired_metric_intertwines():
    h, _ = planted_3x3_conjugate()
    sys_, cls = analyzed(h)
    metric = build_metric(sys_, cls)
    assert is_pseudo_hermitian(h, metric, 1e-9).ok
    assert np.max(np.abs(metric.matrix - metric.matrix.conj().T)) <= 1e-10


def test_pseudo_adjoint_fixed_point_on_planted_metric():
    # the twisted adjoint returns H itself exactly when eta certifies H
    h, _ = planted_3x3_conjugate()
    sys_, cls = analyzed(h)
    metric = build_metric(sys_, cls)
    np.testing.assert_allclose(pseudo_adjoint(h, metric), h, atol=1e-10)
