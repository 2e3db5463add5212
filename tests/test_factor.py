"""Symmetric factorization and the basis-change covariance of tau."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudoherm import (
    DimensionMismatchError,
    NotSymmetricError,
    SingularBlockError,
    SingularInputError,
    basis_change,
    biorthonormal_eigensystem,
    build_tau,
    canonicalize_tau,
    coefficient_transform,
    recover_coefficients,
    symmetric_factor,
)
from pseudoherm.antilinear import CoefficientFamily
from pseudoherm.ensembles import (
    planted_matrix,
    random_coefficients,
    random_symmetric_invertible,
    random_unitary,
)


def reconstruction_error(v, c):
    return np.max(np.abs(v @ v.T - c)) / max(np.max(np.abs(c)), 1e-300)


def test_identity_factor():
    v = symmetric_factor(np.eye(3))
    assert reconstruction_error(v, np.eye(3)) <= 1e-12
    assert np.linalg.cond(v) < 10


def test_diagonal_factor():
    c = np.diag([4.0, 9.0])
    v = symmetric_factor(c)
    assert reconstruction_error(v, c) <= 1e-12


def test_random_symmetric_seeded():
    rng = np.random.default_rng(42)
    c = random_symmetric_invertible(rng, 3)
    v = symmetric_factor(c)
    assert reconstruction_error(v, c) <= 1e-12


def clustered_block(delta: float) -> np.ndarray:
    """u diag(2, 2 + delta, 3) u^T: Takagi values delta apart."""
    u = random_unitary(np.random.default_rng(2), 3)
    return u @ np.diag([2.0, 2.0 + delta, 3.0]) @ u.T


@pytest.mark.parametrize(
    "c",
    [
        -np.eye(2),
        np.eye(4)[::-1].copy(),  # anti-diagonal permutation
        np.array([[-9.0]]),
        np.diag([2.0, 2.0, 5.0]),
        np.diag([1j, 1j]),
        clustered_block(1e-7),
        clustered_block(1e-6),
    ],
    ids=[
        "neg-identity",
        "antidiagonal",
        "scalar-negative",
        "repeated-sv",
        "imag-diag",
        "clustered-1e-7",
        "clustered-1e-6",
    ],
)
def test_edge_cases(c):
    v = symmetric_factor(np.asarray(c, dtype=complex))
    assert reconstruction_error(v, c) <= 1e-12
    assert np.isfinite(np.linalg.cond(v))


def test_unitary_symmetric_with_degenerate_singular_values():
    rng = np.random.default_rng(5)
    r, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    c = r @ np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 5))) @ r.T
    v = symmetric_factor(c)
    assert reconstruction_error(v, c) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_factor_reconstructs_fuzzed_inputs(seed, n):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c = (b + b.T) / 2
    sv = np.linalg.svd(c, compute_uv=False)
    assume(sv[-1] > 1e-6 * sv[0])
    v = symmetric_factor(c, 1e-9)
    assert reconstruction_error(v, c) <= 1e-9


def test_factor_is_deterministic():
    rng = np.random.default_rng(9)
    c = random_symmetric_invertible(rng, 4)
    v1 = symmetric_factor(c)
    v2 = symmetric_factor(c.copy())
    np.testing.assert_array_equal(v1, v2)


def test_not_symmetric_rejected():
    with pytest.raises(NotSymmetricError):
        symmetric_factor(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_singular_rejected():
    with pytest.raises(SingularInputError):
        symmetric_factor(np.zeros((2, 2)))
    # symmetric, nonzero, but rank deficient
    with pytest.raises(SingularInputError):
        symmetric_factor(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_basis_change_identity(planted_paired):
    sys_ = biorthonormal_eigensystem(planted_paired.matrix)
    blocks = [np.eye(lv.multiplicity) for lv in sys_.levels]
    out = basis_change(sys_, blocks)
    np.testing.assert_allclose(out.psi_matrix, sys_.psi_matrix)
    np.testing.assert_allclose(out.phi_matrix, sys_.phi_matrix)


def test_basis_change_swap_degenerate_columns(rng):
    pm = planted_matrix(rng, 4, "real")
    while not any(d == 2 for _, d in pm.levels):
        pm = planted_matrix(rng, 4, "real")
    sys_ = biorthonormal_eigensystem(pm.matrix)
    blocks = [
        np.array([[0.0, 1.0], [1.0, 0.0]]) if lv.multiplicity == 2 else np.eye(lv.multiplicity)
        for lv in sys_.levels
    ]
    out = basis_change(sys_, blocks)
    for lv_in, lv_out, b in zip(sys_.levels, out.levels, blocks):
        np.testing.assert_allclose(lv_out.psi, lv_in.psi @ b, atol=1e-14)
    eye = np.eye(4)
    np.testing.assert_allclose(out.phi_matrix.conj().T @ out.psi_matrix, eye, atol=1e-10)


def test_basis_change_random_blocks_preserve_biorthonormality(rng):
    pm = planted_matrix(rng, 6, "paired")
    sys_ = biorthonormal_eigensystem(pm.matrix)
    blocks = [random_symmetric_invertible(rng, lv.multiplicity) for lv in sys_.levels]
    out = basis_change(sys_, blocks)
    eye = np.eye(6)
    assert np.max(np.abs(out.phi_matrix.conj().T @ out.psi_matrix - eye)) <= 1e-10
    assert np.max(np.abs(out.psi_matrix @ out.phi_matrix.conj().T - eye)) <= 1e-10


def test_basis_change_rejects_singular_block():
    sys_ = biorthonormal_eigensystem(np.diag([1.0, 2.0]))
    with pytest.raises(SingularBlockError):
        basis_change(sys_, [np.zeros((1, 1)), np.eye(1)])


def test_basis_change_rejects_misaligned_blocks():
    sys_ = biorthonormal_eigensystem(np.diag([1.0, 2.0]))
    with pytest.raises(DimensionMismatchError):
        basis_change(sys_, [np.eye(1)])


def test_coefficient_transform_identity():
    coeffs = CoefficientFamily((np.eye(2, dtype=complex),))
    out = coefficient_transform(coeffs, [np.eye(2)])
    np.testing.assert_allclose(out.blocks[0], np.eye(2))


def test_coefficient_transform_orthogonal_preserves_identity(rng):
    # the congruence c -> u^dag c conj(u) fixes the identity exactly when
    # u^T u = 1, i.e. for complex-orthogonal u (real orthogonal included)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    coeffs = CoefficientFamily((np.eye(3, dtype=complex),))
    out = coefficient_transform(coeffs, [u])
    np.testing.assert_allclose(out.blocks[0], np.eye(3), atol=1e-12)


def test_coefficient_transform_preserves_symmetry(rng):
    u = random_unitary(rng, 3)
    c = random_symmetric_invertible(rng, 3)
    out = coefficient_transform(CoefficientFamily((c,)), [u])
    np.testing.assert_allclose(out.blocks[0], out.blocks[0].T, atol=1e-12)


def test_tau_invariant_under_simultaneous_transform(rng):
    pm = planted_matrix(rng, 6, "paired")
    sys_ = biorthonormal_eigensystem(pm.matrix)
    coeffs = random_coefficients(rng, sys_)
    blocks = [random_symmetric_invertible(rng, lv.multiplicity) for lv in sys_.levels]
    tau_before = build_tau(sys_, coeffs)
    tau_after = build_tau(basis_change(sys_, blocks), coefficient_transform(coeffs, blocks))
    np.testing.assert_allclose(tau_after.matrix, tau_before.matrix, atol=1e-9)


def test_canonicalize_identity_family(planted_real):
    sys_ = biorthonormal_eigensystem(planted_real.matrix)
    coeffs = CoefficientFamily.identity_for(sys_)
    new_sys, tau = canonicalize_tau(sys_, coeffs)
    np.testing.assert_allclose(tau.matrix, build_tau(sys_, coeffs).matrix, atol=1e-10)


def test_canonicalize_diagonal_blocks(rng):
    pm = planted_matrix(rng, 5, "real")
    sys_ = biorthonormal_eigensystem(pm.matrix)
    blocks = tuple(np.diag(rng.uniform(0.5, 3.0, lv.multiplicity)).astype(complex) for lv in sys_.levels)
    coeffs = CoefficientFamily(blocks)
    new_sys, tau = canonicalize_tau(sys_, coeffs)
    for block in recover_coefficients(new_sys, tau).blocks:
        np.testing.assert_allclose(block, np.eye(block.shape[0]), atol=1e-9)


def test_canonicalize_random_family_keeps_operator(rng):
    pm = planted_matrix(rng, 6, "paired")
    sys_ = biorthonormal_eigensystem(pm.matrix)
    while not any(lv.multiplicity == 2 for lv in sys_.levels):
        pm = planted_matrix(rng, 6, "paired")
        sys_ = biorthonormal_eigensystem(pm.matrix)
    coeffs = random_coefficients(rng, sys_)
    tau_before = build_tau(sys_, coeffs)
    new_sys, tau_after = canonicalize_tau(sys_, coeffs)
    np.testing.assert_allclose(tau_after.matrix, tau_before.matrix, atol=1e-9)
    for block in recover_coefficients(new_sys, tau_after).blocks:
        np.testing.assert_allclose(block, np.eye(block.shape[0]), atol=1e-9)


@pytest.mark.parametrize("delta", [1e-7, 1e-6])
def test_canonicalize_clustered_block(delta):
    """A d=3 level whose coefficient block has Takagi values delta apart."""
    rng = np.random.default_rng(3)
    s = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = s @ np.diag([1.0, 1.0, 1.0, 2.0, -1.5]) @ np.linalg.inv(s)
    sys_ = biorthonormal_eigensystem(h)
    blocks = tuple(
        clustered_block(delta) if lv.multiplicity == 3 else np.array([[0.5 + 1j]])
        for lv in sys_.levels
    )
    coeffs = CoefficientFamily(blocks)
    tau_before = build_tau(sys_, coeffs)
    new_sys, tau_after = canonicalize_tau(sys_, coeffs)
    scale = np.max(np.abs(tau_before.matrix))
    assert np.max(np.abs(tau_after.matrix - tau_before.matrix)) <= 1e-9 * scale
    for block in recover_coefficients(new_sys, tau_after).blocks:
        np.testing.assert_allclose(block, np.eye(block.shape[0]), atol=1e-9)
