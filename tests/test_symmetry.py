"""Antilinear symmetries X = eta^{-1} tau, induced symmetries, exactness."""

import numpy as np
import pytest

from pseudoherm import (
    AntilinearOperator,
    NotASymmetryError,
    SingularEtaError,
    SingularTauError,
    antilinear_symmetry,
    biorthonormal_eigensystem,
    build_metric,
    canonical_tau,
    classify_spectrum,
    commutes_with,
    compose_antilinear,
    induced_symmetries,
    is_exact_symmetry,
    level_invariance_residuals,
)
from pseudoherm.ensembles import planted_matrix


def full_chain(h):
    sys_ = biorthonormal_eigensystem(h)
    cls = classify_spectrum(sys_)
    eta = build_metric(sys_, cls)
    tau = canonical_tau(sys_)
    return sys_, cls, eta, tau, antilinear_symmetry(eta, tau)


def test_identity_metric_and_tau_give_conjugation(rng):
    eta = np.eye(3)
    tau = AntilinearOperator(np.eye(3, dtype=complex))
    x = antilinear_symmetry(eta, tau)
    np.testing.assert_allclose(x.matrix, np.eye(3), atol=1e-14)
    h = rng.standard_normal((3, 3))  # real matrix commutes with conjugation
    assert commutes_with(h, x).ok


def test_planted_real_spectrum_symmetry(planted_real):
    h = planted_real.matrix
    *_, x = full_chain(h)
    assert commutes_with(h, x, 1e-9).ok


def test_hand_2x2_pairing_symmetry():
    h = np.diag([1 + 1j, 1 - 1j])
    eta = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = antilinear_symmetry(eta, AntilinearOperator(np.eye(2, dtype=complex)))
    np.testing.assert_allclose(x.matrix, eta, atol=1e-14)
    # H x = [[0, 1+i], [1-i, 0]] = x conj(H)
    np.testing.assert_allclose(h @ x.matrix, np.array([[0, 1 + 1j], [1 - 1j, 0]]))
    np.testing.assert_allclose(x.matrix @ np.conj(h), np.array([[0, 1 + 1j], [1 - 1j, 0]]))
    assert commutes_with(h, x).ok


def test_commutes_with_detects_failure():
    x = AntilinearOperator(np.eye(1, dtype=complex))
    assert commutes_with(np.array([[1.0]]), x).ok
    check = commutes_with(np.array([[1j]]), x)
    assert not check.ok
    assert check.residual == pytest.approx(2.0)


def test_symmetry_from_verified_pieces_commutes(rng):
    for kind in ("real", "paired"):
        pm = planted_matrix(rng, 6, kind)
        *_, x = full_chain(pm.matrix)
        assert commutes_with(pm.matrix, x, 1e-9).ok, kind


def test_induced_symmetries_trivial_sandwich(rng):
    a = rng.standard_normal((3, 3))
    x = AntilinearOperator(((a + a.T) / 2).astype(complex))  # anti-Hermitian X
    eta = np.eye(3)
    tau = AntilinearOperator(np.eye(3, dtype=complex))
    by_eta, by_tau = induced_symmetries(x, eta, tau)
    np.testing.assert_allclose(by_eta.matrix, x.matrix, atol=1e-14)
    np.testing.assert_allclose(by_tau.matrix, x.matrix, atol=1e-14)  # x real symmetric


def test_induced_symmetries_commute(planted_paired):
    h = planted_paired.matrix
    sys_, cls, eta, tau, x = full_chain(h)
    by_eta, by_tau = induced_symmetries(x, eta, tau)
    assert commutes_with(h, by_eta, 1e-8).ok
    assert commutes_with(h, by_tau, 1e-8).ok
    # the canonical X = eta^{-1} tau is a fixed point of both sandwiches
    np.testing.assert_allclose(by_eta.matrix, x.matrix, atol=1e-9)
    np.testing.assert_allclose(by_tau.matrix, x.matrix, atol=1e-9)


def test_induced_symmetries_non_anti_hermitian_input(planted_paired):
    # X H is another antilinear symmetry, generally not anti-Hermitian
    h = planted_paired.matrix
    sys_, cls, eta, tau, x = full_chain(h)
    x2 = AntilinearOperator(x.matrix @ np.conj(h))
    assert commutes_with(h, x2, 1e-9).ok
    by_eta, by_tau = induced_symmetries(x2, eta, tau)
    assert commutes_with(h, by_eta, 1e-8).ok
    assert commutes_with(h, by_tau, 1e-8).ok


def test_double_application_is_linear_symmetry(planted_paired):
    h = planted_paired.matrix
    *_, x = full_chain(h)
    xx = compose_antilinear(x, x)
    comm = h @ xx - xx @ h
    assert np.max(np.abs(comm)) <= 1e-9 * np.max(np.abs(h)) * np.max(np.abs(xx))


def test_exactness_real_spectrum(planted_real):
    h = planted_real.matrix
    sys_, cls, eta, tau, x = full_chain(h)
    assert is_exact_symmetry(sys_, x, 1e-9)
    assert np.all(level_invariance_residuals(sys_, x) <= 1e-10)


def test_exactness_fails_for_pairing_symmetry():
    h = np.diag([1 + 1j, 1 - 1j])
    sys_ = biorthonormal_eigensystem(h)
    x = AntilinearOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert commutes_with(h, x).ok
    assert not is_exact_symmetry(sys_, x, 1e-9)


def test_exactness_identity_single_level():
    sys_ = biorthonormal_eigensystem(np.eye(3))
    x = AntilinearOperator(np.eye(3, dtype=complex))
    assert is_exact_symmetry(sys_, x, 1e-10)


def test_exactness_requires_commutation(planted_real, rng):
    sys_ = biorthonormal_eigensystem(planted_real.matrix)
    garbage = AntilinearOperator(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    with pytest.raises(NotASymmetryError):
        is_exact_symmetry(sys_, garbage, 1e-10)


def test_not_a_symmetry_carries_its_residual(planted_real, rng):
    """.measured is the commutation residual against the reconstructed H,
    .limit the tol it exceeded; the message prints the same number."""
    sys_ = biorthonormal_eigensystem(planted_real.matrix)
    garbage = AntilinearOperator(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    with pytest.raises(NotASymmetryError) as refused:
        is_exact_symmetry(sys_, garbage, 1e-10)
    want = commutes_with(sys_.psi_matrix @ np.diag(sys_.energies) @ sys_.phi_matrix.conj().T, garbage)
    assert refused.value.measured == pytest.approx(want.residual, rel=1e-8)
    assert refused.value.limit == 1e-10 < refused.value.measured
    assert f"(residual {refused.value.measured:.3e})" in str(refused.value)


def test_singular_metric_rejected_in_sandwich(rng):
    x = AntilinearOperator(np.eye(2, dtype=complex))
    tau = AntilinearOperator(np.eye(2, dtype=complex))
    singular = np.zeros((2, 2))
    with pytest.raises(SingularEtaError):
        antilinear_symmetry(singular, tau)
    with pytest.raises(SingularEtaError):
        induced_symmetries(x, singular, tau)
    with pytest.raises(SingularTauError):
        induced_symmetries(x, np.eye(2), AntilinearOperator(np.zeros((2, 2), dtype=complex)))


def test_exactness_separates_real_from_paired(rng):
    verdicts = {}
    for kind in ("real", "paired"):
        pm = planted_matrix(rng, 7, kind)
        sys_, cls, eta, tau, x = full_chain(pm.matrix)
        verdicts[kind] = is_exact_symmetry(sys_, x, 1e-9)
    assert verdicts == {"real": True, "paired": False}


def per_level_invariance(sys_, x):
    """The per-level loop that level_invariance_residuals replaced, kept as reference."""
    out = []
    for lv in sys_.levels:
        image = x.matrix @ np.conj(lv.psi)
        out.append(np.max(np.abs(image - lv.psi @ (lv.psi.conj().T @ image))))
    return np.array(out) / np.max(np.abs(x.matrix))


@pytest.mark.parametrize("kind", ["real", "paired"])
@pytest.mark.parametrize("seed", range(6))
def test_level_invariance_block_product_matches_loop(kind, seed):
    """Real and paired spectra, with a degenerate level for odd seeds; the
    canonical X and a random antilinear operator."""
    rng = np.random.default_rng(seed)
    pm = planted_matrix(rng, 7, kind, degenerate=bool(seed % 2))
    sys_, _, _, _, x = full_chain(pm.matrix)
    rand = AntilinearOperator(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
    for op in (x, rand):
        got, want = level_invariance_residuals(sys_, op), per_level_invariance(sys_, op)
        assert got.shape == (len(sys_.levels),)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(got <= 1e-10, want <= 1e-10)
    assert bool(np.all(level_invariance_residuals(sys_, x) <= 1e-10)) is (kind == "real")
