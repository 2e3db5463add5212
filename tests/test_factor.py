"""Symmetric factorization and the basis-change covariance of tau."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from pseudoherm import (
    AsymmetricCoefficientsError,
    DimensionMismatchError,
    NonFiniteError,
    NotSymmetricError,
    PseudoHermError,
    SingularCoefficientsError,
    SingularBlockError,
    SingularInputError,
    basis_change,
    biorthonormal_eigensystem,
    build_tau,
    canonicalize_tau,
    coefficient_transform,
    invert_tau,
    recover_coefficients,
    symmetric_factor,
)
from pseudoherm import _linalg, factor
from pseudoherm._linalg import block_max_abs, cond_of, max_abs, takagi_factor
from pseudoherm.antilinear import CoefficientFamily, _symmetric_invertible
from pseudoherm.cli import cli_main
from pseudoherm.eigensystem import BiorthonormalSystem, EigenLevel
from pseudoherm.ensembles import (
    planted_matrix,
    random_coefficients,
    random_symmetric_invertible,
    random_unitary,
)
from pseudoherm.io import save_matrix
from pseudoherm.ptmodel import build_pt_hamiltonian, make_lattice, pt_adapted_eigensystem

from conftest import mixed_multiplicity_matrix


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


def test_canonicalize_refusals():
    """Levels of multiplicity 2 and 1; the d=2 block is the one on trial."""
    sys_ = biorthonormal_eigensystem(np.diag([1.0, 1.0, 2.0]))

    def canonicalize(block, tol=1e-10):
        blocks = (np.asarray(block, dtype=complex), np.array([[1.0 + 0j]]))
        return canonicalize_tau(sys_, CoefficientFamily(blocks), tol)

    with pytest.raises(AsymmetricCoefficientsError):
        canonicalize([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(SingularCoefficientsError):
        canonicalize([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularCoefficientsError):
        canonicalize(np.diag([1.0, 1e-9]))
    # asymmetry 5e-11 passes the symmetry check, 1e-10 max|c|, but not the
    # factorization residual at tol 1e-11; asymmetry 5e-11 at max|c| = 1e-3 is
    # refused, as it is at max|c| = 1, where no floor at 1 lets it pass
    with pytest.raises(PseudoHermError, match="factorization residual"):
        canonicalize([[1.0, 0.5 + 5e-11], [0.5, 1.0]], tol=1e-11)
    for scale in (1e-3, 1.0):
        with pytest.raises(AsymmetricCoefficientsError):
            canonicalize(scale * np.array([[1.0, 0.5 + 5e-8], [0.5, 1.0]]))
    with pytest.raises(PseudoHermError, match="factorization residual"):
        canonicalize([[2.0, 1j], [1j, 3.0]], tol=1e-20)
    canonicalize([[2.0, 1j], [1j, 3.0]])


@pytest.mark.parametrize("small, refused", [(1e-10, True), (1e-7, False)])
def test_factor_and_canonicalize_share_the_ceiling(small, refused, tmp_path, capsys):
    """symmetric_factor, the factor command and canonicalize_tau refuse a
    block exactly when its condition number exceeds 1e8."""
    block = np.diag([1.0, small]).astype(complex)
    sys_ = biorthonormal_eigensystem(np.diag([1.0, 1.0, 2.0]))
    coeffs = CoefficientFamily((block, np.array([[1.0 + 0j]])))
    path = tmp_path / "c.json"
    save_matrix(path, block)
    if refused:
        with pytest.raises(SingularInputError):
            symmetric_factor(block)
        with pytest.raises(SingularCoefficientsError):
            canonicalize_tau(sys_, coeffs)
        assert cli_main(["factor", str(path)]) == 2
    else:
        assert reconstruction_error(symmetric_factor(block), block) <= 1e-10
        canonicalize_tau(sys_, coeffs)
        assert cli_main(["factor", str(path)]) == 0


def reference_canonicalize_tau(sys_, coeffs, tol=1e-10):
    """The gauge op level by level: validate each block, factor it, check the
    factor and re-gauge its level, as canonicalize_tau did before it ran once
    per multiplicity."""
    factors = []
    for k, (block, lv) in enumerate(zip(coeffs.blocks, sys_.levels)):
        b = np.asarray(block, dtype=complex)
        if b.shape != (lv.multiplicity, lv.multiplicity):
            raise DimensionMismatchError(
                f"block {k} has shape {b.shape}, level multiplicity is {lv.multiplicity}"
            )
        if not np.max(np.abs(b - b.T)) <= 1e-10 * np.max(np.abs(b)):
            raise AsymmetricCoefficientsError(f"coefficient block {k} is not symmetric")
        v, s = takagi_factor(b)
        if cond_of(s) > 1e8:
            raise SingularCoefficientsError(f"coefficient block {k} is singular or too ill-conditioned")
        factors.append(v)
    levels = []
    for lv, c, v in zip(sys_.levels, coeffs.blocks, factors):
        residual = np.max(np.abs(v @ v.T - c)) / max(np.max(np.abs(c)), 1e-300)
        if residual > tol:
            raise PseudoHermError(f"factorization residual {residual:.3e} exceeds tolerance")
        levels.append(EigenLevel(lv.energy, lv.psi @ np.linalg.inv(v.conj().T), lv.phi @ v))
    new_sys = BiorthonormalSystem(dim=sys_.dim, levels=tuple(levels), tol=sys_.tol)
    return new_sys, build_tau(new_sys, None)


@pytest.fixture
def mixed():
    """A system with multiplicities (1, 1, 2, 2, 3) and a random family on it."""
    sys_ = biorthonormal_eigensystem(mixed_multiplicity_matrix())
    return sys_, random_coefficients(np.random.default_rng(8), sys_)


def test_takagi_factor_of_a_matrix_is_the_block_embedding_bitwise():
    """A 2-D call factors the embedding built with np.block, bit for bit."""
    rng = np.random.default_rng(4)
    for d in (1, 2, 3, 5):
        c = random_symmetric_invertible(rng, d)
        v, s = takagi_factor(c)
        if d == 1:
            want_v, want_s = np.sqrt(c), np.abs(c[0])
        else:
            w, x = np.linalg.eigh(np.block([[c.real, -c.imag], [-c.imag, -c.real]]))
            want_s = w[d:]
            want_v = (x[:d, d:] - 1j * x[d:, d:]) * np.sqrt(np.maximum(want_s, 0.0))
        assert v.tobytes() == want_v.tobytes() and s.tobytes() == want_s.tobytes()


def test_takagi_factor_of_a_singular_stack_is_the_block_embedding_bitwise():
    """A stack holding singular blocks, whose smallest Takagi values come out
    0 or within rounding of it (of either sign), is factored block by block as
    the np.block embedding factors each, bit for bit; cond_of reads inf for a
    block with a zero Takagi value."""
    rng = np.random.default_rng(2)
    blocks = [np.diag([0.0, 1.0, 2.0]).astype(complex)]
    for _ in range(7):
        u = random_unitary(rng, 3)
        blocks.append((u * [0.0, 1.0, 2.0]) @ u.T)
    v, s = takagi_factor(np.array(blocks))
    assert s[0, 0] == 0.0 and (np.abs(s[:, 0]) < 1e-15).all()
    for j, c in enumerate(blocks):
        w, x = np.linalg.eigh(np.block([[c.real, -c.imag], [-c.imag, -c.real]]))
        want_v = (x[:3, 3:] - 1j * x[3:, 3:]) * np.sqrt(np.maximum(w[3:], 0.0))
        assert v[j].tobytes() == want_v.tobytes() and s[j].tobytes() == w[3:].tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cond_of(s)[0] == np.inf


def test_cond_of_is_the_masked_quotient_bitwise():
    """cond_of divides directly when no row's smallest |s| is 0 and is the
    masked quotient, inf where that minimum is 0, bit for bit, tiny negative
    values counting by their size; a row alone gives a float."""
    s = np.array([
        [0.25, 0.5, 4.0], [-1e-17, 0.5, 1.0], [1e-300, 1.0, 3.0], [3.0, -2.0, 1.0],
        [0.0, 1.0, 2.0], [-0.0, 0.0, 0.0],
    ])
    for rows in (s[:4], s):
        size = np.abs(rows)
        smin = size.min(axis=-1)
        want = np.divide(size.max(axis=-1), smin, out=np.full_like(smin, np.inf), where=smin != 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cond_of(rows).tobytes() == want.tobytes()
    assert cond_of(s).tolist()[-2:] == [np.inf, np.inf]
    for row, want in zip(s, [16.0, 1e17, 3e300, 3.0, np.inf, np.inf]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = cond_of(row)
        assert type(got) is float and got == want


def test_validate_against_factors_are_the_per_block_factors_bitwise(mixed):
    sys_, coeffs = mixed
    factors = coeffs.validate_against(sys_)
    assert len(factors) == len(sys_.levels)
    for v, c in zip(factors, coeffs.blocks):
        assert v.shape == c.shape and v.tobytes() == takagi_factor(c)[0].tobytes()


def test_canonicalize_matches_the_level_loop(mixed):
    sys_, coeffs = mixed
    new_sys, tau = canonicalize_tau(sys_, coeffs)
    ref_sys, ref_tau = reference_canonicalize_tau(sys_, coeffs)
    scale = np.max(np.abs(ref_tau.matrix))
    assert np.max(np.abs(tau.matrix - ref_tau.matrix)) <= 1e-14 * scale
    for block in recover_coefficients(new_sys, tau).blocks:
        np.testing.assert_allclose(block, np.eye(len(block)), rtol=0, atol=1e-12)
    np.testing.assert_allclose(new_sys.psi_matrix, ref_sys.psi_matrix, rtol=0, atol=1e-13)
    assert [lv.energy for lv in new_sys.levels] == [lv.energy for lv in sys_.levels]


def stacked_gauge(sys_, coeffs):
    """Psi', Phi' and tau of the gauge op formed with every multiplicity group
    a stack (k, d, d), 1 x 1 blocks included: each group's Takagi factor v,
    the psi gauge 1/conj(v) for d = 1 and v diag(1/s) for d >= 2 (an inverse
    past factor._READOFF_COND), Psi and Phi scaled by a ones vector carrying
    the 1 x 1 gauges, one stacked product per d >= 2, then Phi' Phi'^T."""
    psi, phi = sys_.psi_matrix, sys_.phi_matrix
    scales, wide = np.ones((2, sys_.dim), dtype=complex), []
    for idx, cols in sys_._groups:
        v, s = takagi_factor(np.array([coeffs.blocks[k] for k in idx.tolist()], dtype=complex))
        if cols.shape[1] == 1:
            scales[:, cols[:, 0]] = 1.0 / np.conj(v[:, 0, 0]), v[:, 0, 0]
            continue
        g = (v.view(float) / np.repeat(s, 2, axis=-1)[:, None, :]).view(complex)
        far = s[:, -1] > factor._READOFF_COND * s[:, 0]
        if far.any():
            g[far] = np.linalg.inv(v[far].conj().swapaxes(-1, -2))
        wide.append((cols, g, v))
    new_psi, new_phi = psi * scales[0], phi * scales[1]
    for cols, g, v in wide:
        for out, m, gauge in ((new_psi, psi, g), (new_phi, phi, v)):
            out[:, cols] = (m[:, cols].transpose(1, 0, 2) @ gauge).transpose(1, 0, 2)
    return new_psi, new_phi, new_phi @ new_phi.T


def far_block(d):
    """A d x d symmetric block with Takagi values 1 .. 1e4: past factor._READOFF_COND."""
    u = random_unitary(np.random.default_rng(d), d)
    return (u * np.geomspace(1.0, 1e4, d)) @ u.T


@pytest.mark.parametrize("case", ["mixed", "unsorted", "lattice", "tiny", "far", "simple"])
def test_gauge_op_is_the_stacked_formulation_bitwise(mixed, unsorted, case):
    """canonicalize_tau, which takes a group of 1 x 1 blocks as vectors, gives
    the bits of Psi', Phi' and tau formed with (k, 1, 1) stacks: on systems
    whose groups run in and out of level order, a lattice of simple levels, a
    1e-320 block and d >= 2 blocks that take the inverse psi gauge."""
    sys_, coeffs = unsorted if case in ("unsorted", "tiny", "far") else mixed
    if case == "tiny":
        coeffs = CoefficientFamily(tuple(with_faults(coeffs.blocks, {3: np.array([[1e-320 + 0j]])})))
    elif case == "far":
        coeffs = CoefficientFamily(tuple(with_faults(coeffs.blocks, {0: far_block(3), 4: far_block(2)})))
    elif case in ("lattice", "simple"):
        h = lattice_matrix(41, "x", 0.1) if case == "lattice" else np.diag(np.arange(1.0, 9.0)) + 0j
        sys_ = pt_adapted_eigensystem(h) if case == "lattice" else biorthonormal_eigensystem(h)
        coeffs = random_coefficients(np.random.default_rng(9), sys_)
        assert set(sys_._sizes.tolist()) == {1}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        new_sys, tau = canonicalize_tau(sys_, coeffs)
    want = stacked_gauge(sys_, coeffs)
    for got, ref in zip((new_sys.psi_matrix, new_sys.phi_matrix, tau.matrix), want):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("regauge", ["canonicalize", "basis_change"])
def test_regauged_system_stores_read_only_psi_and_phi(mixed, regauge):
    sys_, coeffs = mixed
    if regauge == "canonicalize":
        new_sys = canonicalize_tau(sys_, coeffs)[0]
    else:
        new_sys = basis_change(sys_, coeffs.blocks)
    psi, phi = new_sys.psi_matrix, new_sys.phi_matrix
    assert not psi.flags.writeable and not phi.flags.writeable
    for lv, sl in zip(new_sys.levels, new_sys.level_slices()):
        assert np.shares_memory(lv.psi, psi) and np.shares_memory(lv.phi, phi)
        np.testing.assert_array_equal(lv.psi, psi[:, sl])
    assert new_sys.energies is sys_.energies
    assert "cond" not in vars(new_sys)


def test_basis_change_matches_the_level_loop(mixed):
    sys_, coeffs = mixed
    out = basis_change(sys_, coeffs.blocks)
    for lv_in, lv_out, u in zip(sys_.levels, out.levels, coeffs.blocks):
        np.testing.assert_allclose(lv_out.psi, lv_in.psi @ u, rtol=0, atol=1e-13)
        want = lv_in.phi @ np.linalg.inv(u).conj().T
        np.testing.assert_allclose(lv_out.phi, want, rtol=0, atol=1e-13)


def refusal(fn, *args):
    """(type, message) of the error fn raises."""
    with pytest.raises(PseudoHermError) as info:
        fn(*args)
    return type(info.value), str(info.value)


ASYMMETRIC = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
SINGULAR = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
# asymmetry 5e-11 passes the symmetry test, 1e-10 max|c|, but not the
# factorization residual at RESIDUAL_TOL
RESIDUAL = np.array([[1.0, 0.5 + 5e-11], [0.5, 1.0]], dtype=complex)
# the tol of the canonicalize_tau runs below: under every RESIDUAL block's
# factor residual, far above those of the random blocks
RESIDUAL_TOL = 1e-11


@pytest.mark.parametrize(
    "faults, cause",
    [
        ({3: ASYMMETRIC}, AsymmetricCoefficientsError),
        ({2: SINGULAR}, SingularCoefficientsError),
        ({1: np.zeros((1, 1), dtype=complex)}, SingularCoefficientsError),
        ({3: RESIDUAL}, PseudoHermError),
        ({4: np.eye(3)[:, :2], 3: np.eye(3)}, DimensionMismatchError),
        ({4: ASYMMETRIC}, DimensionMismatchError),
        ({3: ASYMMETRIC, 1: np.zeros((1, 1), dtype=complex)}, SingularCoefficientsError),
        ({2: SINGULAR, 3: ASYMMETRIC}, SingularCoefficientsError),
        ({2: ASYMMETRIC, 3: SINGULAR}, AsymmetricCoefficientsError),
        ({2: RESIDUAL, 3: SINGULAR}, SingularCoefficientsError),
        ({2: RESIDUAL, 3: RESIDUAL * 1.5}, PseudoHermError),
        ({4: ASYMMETRIC, 2: SINGULAR}, SingularCoefficientsError),
    ],
    ids=[
        "asymmetric", "singular", "singular-simple", "residual", "shape", "shape-after",
        "two-lower-named", "singular-then-asymmetric", "asymmetric-then-singular",
        "validation-before-residual", "two-residuals", "shape-after-singular",
    ],
)
def test_refusals_name_the_first_faulty_level(mixed, faults, cause):
    """One stacked check per multiplicity refuses as the level loop did:
    same type and message, the lowest faulty level named."""
    sys_, coeffs = mixed
    blocks = list(coeffs.blocks)
    for k, block in faults.items():
        blocks[k] = block
    bad = CoefficientFamily(tuple(blocks))
    got = refusal(canonicalize_tau, sys_, bad, RESIDUAL_TOL)
    assert got == refusal(reference_canonicalize_tau, sys_, bad, RESIDUAL_TOL)
    assert got[0] is cause
    if cause is not PseudoHermError:
        assert refusal(build_tau, sys_, bad) == got


@pytest.mark.parametrize(
    "faults, cause",
    [
        ({2: SINGULAR}, SingularBlockError),
        ({4: np.eye(2), 2: SINGULAR}, SingularBlockError),
        ({3: SINGULAR, 1: np.zeros((1, 1))}, SingularBlockError),
        ({1: np.eye(2), 3: SINGULAR}, DimensionMismatchError),
    ],
    ids=["singular", "shape-after-singular", "singular-twice", "shape-first"],
)
def test_basis_change_refuses_the_first_faulty_level(mixed, faults, cause):
    sys_, coeffs = mixed
    blocks = list(coeffs.blocks)
    for k, block in faults.items():
        blocks[k] = block
    k = min(faults)
    d = sys_.levels[k].multiplicity
    if cause is DimensionMismatchError:
        want = f"basis-change block {k} has shape {np.shape(blocks[k])}, expected {(d, d)}"
    else:
        want = f"basis-change block {k} is singular or ill-conditioned"
    assert refusal(basis_change, sys_, blocks) == (cause, want)


def reference_block_refusal(blocks, sizes, what):
    """The basis-change block check level by level: shape, then invertibility."""
    for k, (block, d) in enumerate(zip(blocks, sizes)):
        if np.shape(block) != (d, d):
            raise DimensionMismatchError(
                f"{what} block {k} has shape {np.shape(block)}, expected {(d, d)}"
            )
        if np.linalg.cond(block) > 1e8:
            raise SingularBlockError(f"{what} block {k} is singular or ill-conditioned")


def reference_coefficient_transform(coeffs, u_blocks):
    """coefficient_transform level by level."""
    for k, c in enumerate(coeffs.blocks):
        if np.shape(c) != (len(c), len(c)):
            raise DimensionMismatchError(f"coefficient block {k} is not square")
    if len(u_blocks) != len(coeffs.blocks):
        raise DimensionMismatchError(
            f"{len(u_blocks)} transform blocks, expected {len(coeffs.blocks)}"
        )
    reference_block_refusal(u_blocks, [len(c) for c in coeffs.blocks], "transform")
    return [np.conj(u).T @ c @ np.conj(u) for c, u in zip(coeffs.blocks, u_blocks)]


@pytest.fixture
def unsorted():
    """A system with multiplicities (3, 1, 2, 1, 2) in level order, so the
    multiplicity groups (d = 1, 2, 3) do not run in level order, and a random
    family on it."""
    sys_ = biorthonormal_eigensystem(mixed_multiplicity_matrix(mults=(3, 1, 2, 1, 2)))
    assert [lv.multiplicity for lv in sys_.levels] == [3, 1, 2, 1, 2]
    return sys_, random_coefficients(np.random.default_rng(8), sys_)


def with_faults(blocks, faults):
    blocks = list(blocks)
    for k, block in faults.items():
        blocks[k] = block
    return blocks


SINGULAR3 = np.ones((3, 3), dtype=complex)
ASYMMETRIC3 = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
# a d=3 block that passes validation but not its factor check; its residual
# (about 8e-11, and so of its leading 2 x 2 block at any scale) differs from
# RESIDUAL's (about 5e-11), so the message names the level
RESIDUAL3 = np.array([[1.0, 0.5 + 8e-11, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
ZERO1 = np.zeros((1, 1), dtype=complex)


@pytest.mark.parametrize(
    "faults, cause",
    [
        ({0: RESIDUAL3, 2: RESIDUAL}, PseudoHermError),
        ({4: RESIDUAL, 2: RESIDUAL3[:2, :2] * 1.5}, PseudoHermError),
        ({0: RESIDUAL3, 3: ZERO1}, SingularCoefficientsError),
        ({0: ASYMMETRIC3, 1: ZERO1}, AsymmetricCoefficientsError),
        ({1: np.eye(2), 0: SINGULAR3}, SingularCoefficientsError),
        ({3: ASYMMETRIC, 2: SINGULAR}, SingularCoefficientsError),
        ({4: SINGULAR, 3: ZERO1}, SingularCoefficientsError),
        ({4: ASYMMETRIC3, 1: np.eye(3)}, DimensionMismatchError),
    ],
    ids=[
        "residual-d3-before-d2", "residual-two-d2", "validation-before-residual",
        "asymmetric-d3-before-singular-d1", "singular-d3-before-shape-d1",
        "singular-d2-before-shape-d1", "singular-d1-before-d2", "shape-d1-before-d2",
    ],
)
def test_refusals_follow_level_order_not_group_order(unsorted, faults, cause):
    """canonicalize_tau and build_tau name the lowest faulty level, although
    the multiplicity groups run in ascending d."""
    sys_, coeffs = unsorted
    bad = CoefficientFamily(tuple(with_faults(coeffs.blocks, faults)))
    got = refusal(canonicalize_tau, sys_, bad, RESIDUAL_TOL)
    assert got == refusal(reference_canonicalize_tau, sys_, bad, RESIDUAL_TOL)
    assert got[0] is cause
    if cause is PseudoHermError:  # the lowest level's residual, not the other one
        later = CoefficientFamily(tuple(with_faults(coeffs.blocks, {max(faults): faults[max(faults)]})))
        assert got[1] != refusal(canonicalize_tau, sys_, later, RESIDUAL_TOL)[1]
    else:
        assert refusal(build_tau, sys_, bad) == got


BLOCK_FAULTS = [
    {0: SINGULAR3, 1: ZERO1},
    {4: np.eye(3), 2: SINGULAR},
    {3: np.eye(2), 0: np.zeros((3, 3))},
    {2: np.eye(3), 1: ZERO1},
]


@pytest.mark.parametrize("faults", BLOCK_FAULTS, ids=["d3-d1", "d2-d2", "d3-d1-shape", "d1-d2-shape"])
def test_basis_change_refusals_follow_level_order(unsorted, faults):
    sys_, coeffs = unsorted
    blocks = with_faults(coeffs.blocks, faults)
    sizes = [lv.multiplicity for lv in sys_.levels]
    want = refusal(reference_block_refusal, blocks, sizes, "basis-change")
    assert refusal(basis_change, sys_, blocks) == want


@pytest.mark.parametrize(
    "coeff_faults, u_faults",
    [({}, faults) for faults in BLOCK_FAULTS]
    + [({4: np.ones((2, 1)), 0: np.ones((3, 2))}, {}), ({2: np.ones((2, 3))}, BLOCK_FAULTS[0])],
    ids=["d3-d1", "d2-d2", "d3-d1-shape", "d1-d2-shape", "not-square", "not-square-first"],
)
def test_coefficient_transform_refusals_follow_level_order(unsorted, coeff_faults, u_faults):
    sys_, coeffs = unsorted
    family = CoefficientFamily(tuple(with_faults(coeffs.blocks, coeff_faults)))
    u_blocks = with_faults(coeffs.blocks, u_faults)
    want = refusal(reference_coefficient_transform, family, u_blocks)
    assert refusal(coefficient_transform, family, u_blocks) == want


@pytest.mark.parametrize("k", [0, 3])
def test_coefficient_transform_refuses_a_0d_block(unsorted, k):
    """A 0-d coefficient block is not square, refused as build_tau refuses it."""
    sys_, coeffs = unsorted
    family = CoefficientFamily(tuple(with_faults(coeffs.blocks, {k: np.complex128(2.0)})))
    want = (DimensionMismatchError, f"coefficient block {k} is not square")
    assert refusal(coefficient_transform, family, coeffs.blocks) == want
    assert refusal(build_tau, sys_, family)[0] is DimensionMismatchError


RAGGED = [[1.0, 0.0], [0.0]]
RAGGED_LEVEL = "block 0 has shape (2, 'ragged'), level multiplicity is 2"


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda s, c: build_tau(s, c), RAGGED_LEVEL),
        (lambda s, c: canonicalize_tau(s, c), RAGGED_LEVEL),
        (
            lambda s, c: coefficient_transform(c, [np.eye(2), np.eye(1)]),
            "coefficient block 0 is not square",
        ),
        (
            lambda s, c: basis_change(s, [RAGGED, np.eye(1)]),
            "basis-change block 0 has shape (2, 'ragged'), expected (2, 2)",
        ),
    ],
    ids=["build_tau", "canonicalize_tau", "coefficient_transform", "basis_change"],
)
def test_ragged_block_is_a_dimension_mismatch(call, want):
    """A block whose rows differ in length is refused by name, not with
    numpy's ValueError from an inhomogeneous array."""
    sys_ = biorthonormal_eigensystem(np.diag([1.0, 1.0, 2.0]))
    family = CoefficientFamily((RAGGED, [[1.0]]))
    assert refusal(call, sys_, family) == (DimensionMismatchError, want)


def test_coefficient_transform_matches_the_level_loop(unsorted):
    sys_, coeffs = unsorted
    u_blocks = [random_unitary(np.random.default_rng(k), len(c)) for k, c in enumerate(coeffs.blocks)]
    got = coefficient_transform(coeffs, u_blocks).blocks
    for block, want in zip(got, reference_coefficient_transform(coeffs, u_blocks)):
        np.testing.assert_allclose(block, want, rtol=0, atol=1e-14)


@pytest.fixture
def level_loops(monkeypatch):
    """Calls of the per-level re-check of the stacked block tests."""
    calls, first_fault = {"recheck": 0}, _linalg._first_fault

    def counted(*args, **kwargs):
        calls["recheck"] += 1
        return first_fault(*args, **kwargs)

    monkeypatch.setattr(_linalg, "_first_fault", counted)
    return calls


@pytest.mark.parametrize("system", ["mixed", "lattice"])
def test_healthy_input_never_takes_the_level_loop(system, level_loops):
    if system == "mixed":
        sys_ = biorthonormal_eigensystem(mixed_multiplicity_matrix())
    else:
        sys_ = pt_adapted_eigensystem(build_pt_hamiltonian(make_lattice(41, 10.0)))
    coeffs = random_coefficients(np.random.default_rng(5), sys_)
    canonicalize_tau(sys_, coeffs)
    build_tau(sys_, coeffs)
    basis_change(sys_, coeffs.blocks)
    coefficient_transform(coeffs, coeffs.blocks)
    assert level_loops == {"recheck": 0}
    # each faulty stacked block test takes a level loop
    bad = with_faults(coeffs.blocks, {len(coeffs.blocks) - 1: np.zeros_like(coeffs.blocks[-1])})
    with pytest.raises(SingularCoefficientsError):
        build_tau(sys_, CoefficientFamily(tuple(bad)))
    assert level_loops == {"recheck": 1}
    with pytest.raises(SingularBlockError):
        basis_change(sys_, bad)
    assert level_loops == {"recheck": 2}
    with pytest.raises(SingularBlockError):
        coefficient_transform(coeffs, bad)
    assert level_loops == {"recheck": 3}
    with pytest.raises(PseudoHermError, match="factorization residual"):
        canonicalize_tau(sys_, coeffs, 1e-20)
    assert level_loops == {"recheck": 3}  # the residuals name their level without a loop


def test_stacked_decisions_are_the_single_block_ones_bitwise():
    """The stacked tests decide each block as the level loops do: the Takagi
    values, singular values, symmetric defects and factor residuals of a stack
    are those of its blocks, bit for bit, so a stack fails exactly when one of
    its blocks does."""
    rng = np.random.default_rng(6)
    for d in (1, 2, 3, 5):
        c = np.array([random_symmetric_invertible(rng, d, 1e9) for _ in range(4)])
        c[0] += 1e-12 * rng.standard_normal((d, d))  # not symmetric
        v, s = takagi_factor(c)
        sv = np.linalg.svd(c, compute_uv=False)
        defect = block_max_abs(c - c.swapaxes(-1, -2))
        residual = block_max_abs(v @ v.swapaxes(-1, -2) - c)
        for j, b in enumerate(c):
            vb, sb = takagi_factor(b)
            assert vb.tobytes() == v[j].tobytes() and sb.tobytes() == s[j].tobytes()
            assert np.linalg.svd(b, compute_uv=False).tobytes() == sv[j].tobytes()
            assert max_abs(b - b.T) == defect[j]
            assert max_abs(vb @ vb.T - b) == residual[j]
    # the gauge op takes a group of 1 x 1 blocks as the vectors of c and v; its
    # factor residual is symmetric_factor's, the 1 x 1 product v v^T (an
    # elementwise v * v can differ from it in the last bit)
    c = np.array([random_symmetric_invertible(rng, 1) for _ in range(64)])
    c[:4, 0, 0] *= [1e-320, 1e-300, 1e300, -1.0]
    cv, v, s = _symmetric_invertible(c, np.arange(len(c)))
    assert cv.shape == v.shape == (len(c),) and s is None
    residual = factor._factor_residual(cv, v)
    for j, b in enumerate(c):
        vb, residual_b = factor._symmetric_factor(b, 1.0)
        assert vb.tobytes() == v[j].tobytes()
        assert residual_b == residual[j]


def non_finite(value, d):
    """The d x d identity with its lower-left entry replaced by value."""
    block = np.eye(d, dtype=complex)
    block[-1, 0] = value
    return block


BLOCK_ENTRY_POINTS = {
    "canonicalize_tau": lambda s, b: canonicalize_tau(s, CoefficientFamily(tuple(b))),
    "build_tau": lambda s, b: build_tau(s, CoefficientFamily(tuple(b))),
    "invert_tau": lambda s, b: invert_tau(s, CoefficientFamily(tuple(b))),
    "validate_against": lambda s, b: CoefficientFamily(tuple(b)).validate_against(s),
    "basis_change": basis_change,
    "coefficient_transform": lambda s, b: coefficient_transform(CoefficientFamily.identity_for(s), b),
    "coefficient_transform-coeffs": lambda s, b: coefficient_transform(
        CoefficientFamily(tuple(b)), [np.eye(len(c)) for c in b]
    ),
}
BLOCK_NAMES = {"basis_change": "basis-change block", "coefficient_transform": "transform block"}


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(np.nan, 0.0)], ids=["nan", "inf", "nan+0j"])
@pytest.mark.parametrize(
    "faults, k",
    [({3: non_finite, 4: non_finite}, 3), ({2: non_finite, 3: ZERO1}, 2)],
    ids=["1x1", "2x2"],
)
@pytest.mark.parametrize("entry", BLOCK_ENTRY_POINTS)
def test_non_finite_blocks_are_refused(unsorted, entry, faults, k, value):
    """A block with a NaN or Inf entry is refused as NonFiniteError naming the
    lowest faulty level, before any arithmetic on it: no RuntimeWarning.  In
    the 2x2 case a zero 1x1 block at level 3, whose group is tested first,
    is the later fault."""
    sys_, coeffs = unsorted
    blocks = with_faults(coeffs.blocks, {
        j: make(value, sys_.levels[j].multiplicity) if callable(make) else make
        for j, make in faults.items()
    })
    name = BLOCK_NAMES.get(entry, "coefficient block")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = refusal(BLOCK_ENTRY_POINTS[entry], sys_, blocks)
    assert got == (NonFiniteError, f"{name} {k} contains NaN or Inf entries")


@pytest.mark.parametrize("entry", BLOCK_ENTRY_POINTS)
def test_a_lower_fault_is_named_before_a_non_finite_block(unsorted, entry):
    sys_, coeffs = unsorted
    blocks = with_faults(coeffs.blocks, {1: ZERO1, 2: non_finite(np.nan, 2)})
    cause, message = refusal(BLOCK_ENTRY_POINTS[entry], sys_, blocks)
    if entry == "coefficient_transform-coeffs":  # a zero coefficient block is no fault here
        assert (cause, message) == (NonFiniteError, "coefficient block 2 contains NaN or Inf entries")
    else:
        assert cause in (SingularCoefficientsError, SingularBlockError) and " 1 is singular" in message


def test_simple_level_is_refused_only_when_zero(unsorted):
    """A 1x1 coefficient block is validated by |c| != 0 alone: 0 is refused
    with the singular-block message, 1e-320 is accepted and re-gauged as the
    level loop re-gauges it."""
    sys_, coeffs = unsorted
    zero = CoefficientFamily(tuple(with_faults(coeffs.blocks, {3: ZERO1})))
    want = (SingularCoefficientsError, "coefficient block 3 is singular or too ill-conditioned")
    for call in (canonicalize_tau, build_tau, invert_tau, CoefficientFamily.validate_against):
        args = (zero, sys_) if call is CoefficientFamily.validate_against else (sys_, zero)
        assert refusal(call, *args) == want
    tiny = CoefficientFamily(tuple(with_faults(coeffs.blocks, {3: np.array([[1e-320 + 0j]])})))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        new_sys, tau = canonicalize_tau(sys_, tiny)
        build_tau(sys_, tiny)
    ref_sys, ref_tau = reference_canonicalize_tau(sys_, tiny)
    np.testing.assert_allclose(new_sys.psi_matrix, ref_sys.psi_matrix, rtol=1e-13)
    np.testing.assert_allclose(tau.matrix, ref_tau.matrix, rtol=1e-13)


def lattice_matrix(n, v2, eps):
    return build_pt_hamiltonian(make_lattice(n, 10.0, 1.0, "x^2", v2, eps))


GAUGE_SWEEP = [
    *[
        pytest.param(mixed_multiplicity_matrix, {"mults": m}, cond, id=f"planted-{m}-cond{cond:.0e}")
        for m in [(1, 1, 2, 2, 3), (3, 1, 2, 1, 2), (1, 3, 1, 2, 1)]
        for cond in (50.0, 1e7)
    ],
    *[
        pytest.param(lattice_matrix, {"n": n, "v2": v2, "eps": eps}, 50.0, id=f"lattice-{n}-{v2}-{eps}")
        for n, v2, eps in [
            (41, "x", 0.1), (41, "x", 1.0), (41, "x^3", 0.1), (41, "x^3", 1.0), (81, "x", 0.1), (81, "x", 1.0)
        ]
    ],
]


@pytest.mark.parametrize("make, kwargs, max_cond", GAUGE_SWEEP)
def test_gauge_sweep(make, kwargs, max_cond):
    """The gauge op's two checks on planted systems with levels of
    multiplicity 1, 2 and 3, coefficient blocks with condition numbers up to
    max_cond, and the n = 41 and 81 lattices that build: the coefficients
    read back off the new basis are identity blocks within 1e-8, tau is
    unchanged within 1e-8 relative, and the new basis is biorthonormal and
    complete within tol.  The lattices run at the default max_cond: reading
    the coefficients back through Psi' of the n = 81, eps = 1 lattice
    (kappa(Psi) 6.4e3) at kappa(c) near 1e7 loses about 1e-4, with an inverse
    psi gauge as much as with this one."""
    sys_ = biorthonormal_eigensystem(make(**kwargs))
    phi = sys_.phi_matrix
    for seed in range(3):
        rng = np.random.default_rng(seed)
        blocks = tuple(random_symmetric_invertible(rng, d, max_cond) for d in sys_._sizes.tolist())
        new_sys, tau = canonicalize_tau(sys_, CoefficientFamily(blocks))
        recovered = recover_coefficients(new_sys, tau).blocks
        assert max(max_abs(b - np.eye(len(b))) for b in recovered) <= 1e-8
        ref = phi @ block_diag(*blocks) @ phi.T
        assert max_abs(tau.matrix - ref) <= 1e-8 * max_abs(ref)
        assert max(new_sys._biorthonormality) <= sys_.tol


@pytest.mark.parametrize("cond", [1e2, 1e4, 9e7])
def test_gauge_keeps_biorthonormality_up_to_the_cond_ceiling(cond):
    """Blocks whose singular values span [0.2, 0.2 cond] exactly, up to just
    below DEFAULT_COND_CEILING: the re-gauged basis is biorthonormal and
    complete within tol and within 10x what an inverse psi gauge gives, on
    either side of the read-off bound."""
    sys_ = biorthonormal_eigensystem(mixed_multiplicity_matrix())
    for seed in range(5):
        rng = np.random.default_rng(seed)
        blocks = []
        for d in sys_._sizes.tolist():
            u = random_unitary(rng, d)
            blocks.append((u * np.geomspace(0.2, 0.2 * cond, d)) @ u.T)
        coeffs = CoefficientFamily(tuple(blocks))
        new_sys = canonicalize_tau(sys_, coeffs)[0]
        v = [v for _, v, _ in coeffs._factored(sys_)]
        inverse = factor._regauge(sys_, [factor._inv_adjoint(b) for b in v], v)
        for got, want in zip(new_sys._biorthonormality, inverse._biorthonormality):
            assert got <= min(sys_.tol, 10 * max(want, 1e-15))


SCALES = [-12, -6, 0, 6, 12]
SCALED_FAULTS = {
    "asymmetric": ASYMMETRIC, "singular": SINGULAR, "residual": RESIDUAL, "zero": ZERO1,
    "asymmetric3": ASYMMETRIC3, "singular3": SINGULAR3, "residual3": RESIDUAL3,
}


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("name", SCALED_FAULTS)
def test_block_verdicts_are_scale_invariant(unsorted, name, k):
    """A faulty coefficient block keeps its verdict when it is scaled by 10^k:
    the symmetry, condition and factor-residual tests are all relative to
    max|c|, with no floor at 1."""
    sys_, coeffs = unsorted
    block = SCALED_FAULTS[name]
    level = sys_._sizes.tolist().index(len(block))

    def verdict(scale):
        bad = CoefficientFamily(tuple(with_faults(coeffs.blocks, {level: scale * block})))
        return refusal(canonicalize_tau, sys_, bad, RESIDUAL_TOL)[0]

    assert verdict(10.0**k) is verdict(1.0)


@pytest.mark.parametrize("k", [*SCALES, -308])
def test_a_small_asymmetric_block_is_refused(k):
    """1e-12 [[1, 2], [3, 1]] is as asymmetric as [[1, 2], [3, 1]]: refused at
    every scale by every entry point that validates it, ``symmetric_factor``
    too (an absolute floor at max|c| = 1 once let it through, with a factor 33%
    off), subnormal ones (k = -308) included: ``symmetric_factor`` once divided
    by a floor of 1e-300 and returned a v 100% off."""
    sys_ = biorthonormal_eigensystem(np.diag([1.0, 2.0, 3.0, 3.0]))
    one = np.ones((1, 1), dtype=complex)
    block = 10.0**k * 1e-12 * np.array([[1.0, 2.0], [3.0, 1.0]], dtype=complex)
    coeffs = CoefficientFamily((one, one, block))
    want = (AsymmetricCoefficientsError, "coefficient block 2 is not symmetric")
    assert refusal(coeffs.validate_against, sys_) == want
    assert refusal(build_tau, sys_, coeffs) == want
    assert refusal(canonicalize_tau, sys_, coeffs) == want
    assert refusal(symmetric_factor, block) == (NotSymmetricError, "input is not complex symmetric")
