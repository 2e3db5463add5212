"""Antilinear operators, automorphism construction, coefficient recovery."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoherm import (
    AntilinearOperator,
    AsymmetricCoefficientsError,
    CoefficientFamily,
    DimensionMismatchError,
    SingularCoefficientsError,
    biorthonormal_eigensystem,
    build_tau,
    canonical_tau,
    compose_antilinear,
    invert_tau,
    is_anti_pseudo_hermitian,
    recover_coefficients,
)
from pseudoherm.ensembles import planted_matrix, random_coefficients

from conftest import mixed_multiplicity_matrix, planted_3x3_conjugate


def test_apply_is_conjugation_for_identity():
    op = AntilinearOperator(np.eye(2, dtype=complex))
    np.testing.assert_allclose(op.apply([1j, 0.0]), [-1j, 0.0])


def test_adjoint_is_defined_by_the_antilinear_inner_product():
    """<zeta, A^dag xi> = <xi, A zeta> for every pair, and A equals its
    adjoint exactly when A is anti-Hermitian."""
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    op = AntilinearOperator(m)
    xi, zeta = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    assert np.vdot(zeta, op.adjoint.apply(xi)) == pytest.approx(np.vdot(xi, op.apply(zeta)), rel=1e-14)
    assert op.adjoint.dim == 4 and not op.is_anti_hermitian()
    assert not np.array_equal(op.adjoint.matrix, op.matrix)
    sym = AntilinearOperator(m + m.T)
    assert sym.is_anti_hermitian() and np.array_equal(sym.adjoint.matrix, sym.matrix)


def test_apply_conjugates_scalars():
    op = AntilinearOperator(np.eye(2, dtype=complex))
    xi = np.array([1.0, 0.0], dtype=complex)
    np.testing.assert_allclose(op.apply(1j * xi), np.conj(1j) * op.apply(xi))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_apply_antilinearity_property(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    op = AntilinearOperator(m)
    a = complex(rng.standard_normal(), rng.standard_normal())
    xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    zeta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lhs = op.apply(a * xi + zeta)
    rhs = np.conj(a) * op.apply(xi) + op.apply(zeta)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_dimension_mismatch():
    op = AntilinearOperator(np.eye(2, dtype=complex))
    with pytest.raises(DimensionMismatchError):
        op.apply([1.0, 2.0, 3.0])


def test_compose_identity_pair():
    op = AntilinearOperator(np.eye(3, dtype=complex))
    np.testing.assert_allclose(compose_antilinear(op, op), np.eye(3))


def test_compose_diagonal():
    s = AntilinearOperator(np.diag([1j, 1j]))
    t = AntilinearOperator(np.eye(2, dtype=complex))
    np.testing.assert_allclose(compose_antilinear(s, t), np.diag([1j, 1j]))


def test_compose_matches_pointwise(rng):
    s = AntilinearOperator(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    t = AntilinearOperator(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    lin = compose_antilinear(s, t)
    for _ in range(5):
        zeta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        np.testing.assert_allclose(lin @ zeta, s.apply(t.apply(zeta)), atol=1e-12)


def test_build_tau_diagonal_system_is_conjugation():
    sys_ = biorthonormal_eigensystem(np.diag([1.0, 2.0]))
    tau = build_tau(sys_)
    np.testing.assert_allclose(tau.matrix, np.eye(2), atol=1e-14)


def test_build_tau_planted_intertwines():
    h, _ = planted_3x3_conjugate()
    sys_ = biorthonormal_eigensystem(h)
    tau = canonical_tau(sys_)
    phi = sys_.phi_matrix
    np.testing.assert_allclose(tau.matrix, phi @ phi.T, atol=1e-12)
    assert np.max(np.abs(tau.matrix - tau.matrix.T)) <= 1e-12
    # direct evaluation of both matrix products
    lhs = h.conj().T @ tau.matrix
    rhs = tau.matrix @ np.conj(h)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)
    assert is_anti_pseudo_hermitian(h, tau).ok


def test_build_tau_degenerate_block_coefficients(rng):
    pm = planted_matrix(rng, 5, "real")
    while not any(d == 2 for _, d in pm.levels):
        pm = planted_matrix(rng, 5, "real")
    sys_ = biorthonormal_eigensystem(pm.matrix)
    blocks = []
    for lv in sys_.levels:
        if lv.multiplicity == 2:
            blocks.append(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        else:
            blocks.append(np.eye(lv.multiplicity, dtype=complex))
    coeffs = CoefficientFamily(tuple(blocks))
    tau = build_tau(sys_, coeffs)
    # overlap recovery reproduces the blocks
    recovered = recover_coefficients(sys_, tau)
    for got, want in zip(recovered.blocks, blocks):
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_canonical_tau_hermitian_input_is_unitary_congruence(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (a + a.conj().T) / 2
    tau = canonical_tau(biorthonormal_eigensystem(h))
    # orthonormal eigenbasis makes m = Phi Phi^T unitary as well as symmetric
    np.testing.assert_allclose(tau.matrix @ tau.matrix.conj().T, np.eye(4), atol=1e-10)
    assert tau.is_anti_hermitian()
    assert is_anti_pseudo_hermitian(h, tau).ok


def test_canonical_tau_diag_pm_i():
    sys_ = biorthonormal_eigensystem(np.diag([1j, -1j]))
    tau = canonical_tau(sys_)
    np.testing.assert_allclose(np.abs(tau.matrix), np.eye(2), atol=1e-13)
    assert is_anti_pseudo_hermitian(np.diag([1j, -1j]), tau).ok


def test_canonical_tau_certifies_any_diagonalizable(rng):
    for kind in ("real", "paired", "unpaired"):
        pm = planted_matrix(rng, 6, kind)
        sys_ = biorthonormal_eigensystem(pm.matrix)
        tau = canonical_tau(sys_)
        assert tau.is_anti_hermitian(1e-10)
        check = is_anti_pseudo_hermitian(pm.matrix, tau, 1e-9)
        assert check.ok, f"{kind}: residual {check.residual}"


def test_canonical_tau_degenerate_four(rng):
    pm = planted_matrix(rng, 4, "real")
    while not any(d == 2 for _, d in pm.levels):
        pm = planted_matrix(rng, 4, "real")
    sys_ = biorthonormal_eigensystem(pm.matrix)
    assert is_anti_pseudo_hermitian(pm.matrix, canonical_tau(sys_)).ok


def test_invert_tau_identity_case():
    sys_ = biorthonormal_eigensystem(np.diag([1.0, 2.0]))
    np.testing.assert_allclose(invert_tau(sys_).matrix, np.eye(2), atol=1e-14)


def test_invert_tau_composes_to_identity():
    h, _ = planted_3x3_conjugate()
    sys_ = biorthonormal_eigensystem(h)
    tau = canonical_tau(sys_)
    tau_inv = invert_tau(sys_)
    np.testing.assert_allclose(compose_antilinear(tau, tau_inv), np.eye(3), atol=1e-11)
    np.testing.assert_allclose(compose_antilinear(tau_inv, tau), np.eye(3), atol=1e-11)


def test_invert_tau_degenerate_scaled_block(rng):
    pm = planted_matrix(rng, 5, "real")
    while not any(d == 2 for _, d in pm.levels):
        pm = planted_matrix(rng, 5, "real")
    sys_ = biorthonormal_eigensystem(pm.matrix)
    blocks = tuple(
        np.diag([2.0, 1.0]).astype(complex) if lv.multiplicity == 2 else np.eye(lv.multiplicity, dtype=complex)
        for lv in sys_.levels
    )
    coeffs = CoefficientFamily(blocks)
    tau = build_tau(sys_, coeffs)
    tau_inv = invert_tau(sys_, coeffs)
    np.testing.assert_allclose(compose_antilinear(tau, tau_inv), np.eye(5), atol=1e-10)


def test_random_coefficient_families_roundtrip(rng):
    pm = planted_matrix(rng, 6, "paired")
    sys_ = biorthonormal_eigensystem(pm.matrix)
    coeffs = random_coefficients(rng, sys_)
    tau = build_tau(sys_, coeffs)
    tau_inv = invert_tau(sys_, coeffs)
    np.testing.assert_allclose(compose_antilinear(tau, tau_inv), np.eye(6), atol=1e-9)
    # x1: tau maps each psi block onto phi block times the coefficients
    for lv, c in zip(sys_.levels, coeffs.blocks):
        np.testing.assert_allclose(tau.matrix @ np.conj(lv.psi), lv.phi @ c, atol=1e-9)
    # x2 recovery
    for got, want in zip(recover_coefficients(sys_, tau).blocks, coeffs.blocks):
        np.testing.assert_allclose(got, want, atol=1e-9)
    # inverse-coefficient identity: (c^-1)_ab = conj(phi_a^dag tau^-1 phi_b)
    for lv, c in zip(sys_.levels, coeffs.blocks):
        rec = np.conj(lv.phi.conj().T @ tau_inv.matrix @ np.conj(lv.phi))
        np.testing.assert_allclose(rec, np.linalg.inv(c), atol=1e-9)


def test_is_anti_pseudo_hermitian_real_symmetric():
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    tau = AntilinearOperator(np.eye(2, dtype=complex))
    assert is_anti_pseudo_hermitian(h, tau).ok


def test_is_anti_pseudo_hermitian_hand_2x2():
    h = np.diag([1 + 1j, 1 - 1j])
    swap = AntilinearOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    # H^dag m = [[0, 1-i], [1+i, 0]] but m conj(H) = [[0, 1+i], [1-i, 0]]
    check = is_anti_pseudo_hermitian(h, swap)
    assert not check.ok
    assert check.residual == pytest.approx(2.0 / (np.sqrt(2) * 1.0), rel=1e-12)
    # plain conjugation pairs the conjugate levels correctly here
    assert is_anti_pseudo_hermitian(h, AntilinearOperator(np.eye(2, dtype=complex))).ok


def test_asymmetric_coefficients_rejected():
    sys_ = biorthonormal_eigensystem(np.eye(2))
    bad = CoefficientFamily((np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex),))
    with pytest.raises(AsymmetricCoefficientsError):
        build_tau(sys_, bad)


def test_singular_coefficients_rejected():
    sys_ = biorthonormal_eigensystem(np.diag([1.0, 2.0]))
    bad = CoefficientFamily((np.zeros((1, 1), dtype=complex), np.eye(1, dtype=complex)))
    with pytest.raises(SingularCoefficientsError):
        build_tau(sys_, bad)


def test_misaligned_coefficients_rejected():
    sys_ = biorthonormal_eigensystem(np.diag([1.0, 2.0]))
    with pytest.raises(DimensionMismatchError):
        build_tau(sys_, CoefficientFamily((np.eye(1, dtype=complex),)))


def relative_gap(got, want) -> float:
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["real", "paired"])
def test_tau_block_diagonal_matches_scipy(kind):
    """build_tau and invert_tau with a coefficient family scale the columns
    of Phi (Psi) by the simple levels' blocks and multiply the rest in one
    stacked product per multiplicity; the results equal the dense products
    on scipy.linalg.block_diag within 1e-13 relative."""
    rng = np.random.default_rng(5)
    while True:
        sys_ = biorthonormal_eigensystem(planted_matrix(rng, 7, kind).matrix)
        if any(lv.multiplicity > 1 for lv in sys_.levels):
            break
    coeffs = random_coefficients(rng, sys_)
    phi, psi = sys_.phi_matrix, sys_.psi_matrix
    tau_ref = phi @ scipy.linalg.block_diag(*coeffs.blocks) @ phi.T
    c_inv = [np.conj(np.linalg.inv(b)) for b in coeffs.blocks]
    inv_ref = psi @ scipy.linalg.block_diag(*c_inv) @ psi.T
    assert relative_gap(build_tau(sys_, coeffs).matrix, tau_ref) <= 1e-13
    assert relative_gap(invert_tau(sys_, coeffs).matrix, inv_ref) <= 1e-13


def reference_recover_coefficients(sys_, tau):
    """recover_coefficients level by level: psi_n^dagger m conj(psi_n)."""
    return [lv.psi.conj().T @ tau.matrix @ np.conj(lv.psi) for lv in sys_.levels]


@pytest.mark.parametrize("kind", ["mixed", "paired"])
def test_recover_coefficients_matches_the_level_loop(kind):
    if kind == "mixed":
        sys_ = biorthonormal_eigensystem(mixed_multiplicity_matrix())
    else:
        sys_ = biorthonormal_eigensystem(planted_matrix(np.random.default_rng(2), 8, "paired").matrix)
    coeffs = random_coefficients(np.random.default_rng(3), sys_)
    tau = build_tau(sys_, coeffs)
    got = recover_coefficients(sys_, tau).blocks
    want = reference_recover_coefficients(sys_, tau)
    scale = max(np.max(np.abs(b)) for b in want)
    assert [b.shape for b in got] == [b.shape for b in want]
    assert max(np.max(np.abs(g - w)) for g, w in zip(got, want)) <= 1e-14 * scale


def test_invert_tau_inverts_each_block():
    """One stacked inverse per multiplicity gives the per-block inverses,
    including two levels of the same d >= 2, within 1e-13 relative."""
    sys_ = biorthonormal_eigensystem(mixed_multiplicity_matrix())
    coeffs = random_coefficients(np.random.default_rng(4), sys_)
    psi = sys_.psi_matrix
    c_inv = [np.conj(np.linalg.inv(b)) for b in coeffs.blocks]
    want = psi @ scipy.linalg.block_diag(*c_inv) @ psi.T
    inverse = invert_tau(sys_, coeffs).matrix
    assert relative_gap(inverse, want) <= 1e-13
    # tau^{-1} o tau has the matrix m' conj(m)
    composed = inverse @ np.conj(build_tau(sys_, coeffs).matrix)
    assert relative_gap(composed, np.eye(sys_.dim)) <= 1e-12


@pytest.mark.parametrize(
    "h, blocks, k",
    [
        (np.diag([1.0, 2.0, 3.0]), [[[1.0]], [[1e-320]], [[1.0]]], 1),
        (np.diag([1.0, 2.0, 2.0, 3.0]), [[[1e-320]], 1e-320 * np.eye(2), [[1.0]]], 0),
        (np.diag([1.0, 2.0, 2.0, 3.0]), [[[1.0]], 1e-320 * np.eye(2), [[1e-320]]], 1),
    ],
    ids=["simple", "d2-after-simple", "d2"],
)
def test_invert_tau_refuses_a_block_whose_inverse_overflows(h, blocks, k):
    """A block that validation accepts but whose inverse is not finite is
    refused as singular, the lowest such level named, with no RuntimeWarning;
    build_tau keeps accepting it."""
    sys_ = biorthonormal_eigensystem(h)
    coeffs = CoefficientFamily(tuple(np.asarray(b, dtype=complex) for b in blocks))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        build_tau(sys_, coeffs)
        with pytest.raises(SingularCoefficientsError) as refused:
            invert_tau(sys_, coeffs)
    assert str(refused.value) == f"coefficient block {k} is too small to invert"
    assert not np.isfinite(refused.value.measured)
    assert refused.value.limit == np.finfo(float).max
