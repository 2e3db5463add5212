"""Parity-symmetric lattice model: structural identities and metrics."""

import numpy as np
import pytest

from pseudoherm import (
    AsymmetricPotentialError,
    NotPTSymmetricError,
    ResultNotHermitianError,
    SpectrumTag,
    biorthonormal_eigensystem,
    build_pt_hamiltonian,
    canonical_tau,
    classify_spectrum,
    eta_from_tau_pt,
    hermitizing_transform,
    is_anti_pseudo_hermitian,
    is_pseudo_hermitian,
    lattice_from_dict,
    make_lattice,
    parity_matrix,
    pt_adapted_eigensystem,
    pt_commutation_residuals,
    time_reversal,
)


@pytest.fixture(scope="module")
def lattice41():
    spec = make_lattice(41, 10.0, 1.0, "x^2", "x^3", eps=0.1)
    return spec, build_pt_hamiltonian(spec), parity_matrix(41)


def test_free_particle_real_positive_spectrum():
    spec = make_lattice(21, 5.0, 1.0, "0", "0")
    h = build_pt_hamiltonian(spec)
    np.testing.assert_allclose(h, h.conj().T)
    assert np.all(h.imag == 0)
    evals = np.linalg.eigvalsh(h)
    assert np.all(evals > 0)


def test_hermitian_limit_all_real():
    spec = make_lattice(31, 8.0, 1.0, "x^2", "x^3", eps=0.0)
    h = build_pt_hamiltonian(spec)
    np.testing.assert_allclose(h, h.conj().T)
    cls = classify_spectrum(biorthonormal_eigensystem(h))
    assert cls.tag is SpectrumTag.ALL_REAL


def test_structural_identities_exact(lattice41):
    _, h, p = lattice41
    r_parity, r_pt = pt_commutation_residuals(h, p)
    assert r_parity == 0.0
    assert r_pt == 0.0


def test_parity_matrix_small():
    np.testing.assert_allclose(parity_matrix(1), [[1.0]])
    np.testing.assert_allclose(parity_matrix(2), [[0.0, 1.0], [1.0, 0.0]])
    p3 = parity_matrix(3)
    np.testing.assert_allclose(p3 @ p3, np.eye(3))
    np.testing.assert_allclose(p3, p3.conj().T)


def test_time_reversal_is_conjugation():
    t = time_reversal(2)
    np.testing.assert_allclose(t.apply([1j, 1.0]), [-1j, 1.0])


def test_time_reversal_witnesses_lattice(lattice41):
    _, h, _ = lattice41
    check = is_anti_pseudo_hermitian(h, time_reversal(41))
    assert check.ok
    assert check.residual == 0.0


def test_time_reversal_fails_generic_matrix(rng):
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert not is_anti_pseudo_hermitian(h, time_reversal(4)).ok


def test_eta_from_conjugation_is_parity(lattice41):
    _, h, p = lattice41
    metric = eta_from_tau_pt(h, time_reversal(41), p)
    np.testing.assert_allclose(metric.matrix, p)
    assert is_pseudo_hermitian(h, metric).ok


def test_eta_from_adapted_canonical_tau(lattice41):
    _, h, p = lattice41
    sys_ = pt_adapted_eigensystem(h, p)
    tau = canonical_tau(sys_)
    metric = eta_from_tau_pt(h, tau, p, 1e-9)
    assert np.max(np.abs(metric.matrix - metric.matrix.conj().T)) <= 1e-9 * np.max(np.abs(metric.matrix))
    assert is_pseudo_hermitian(h, metric, 1e-9).ok


def test_unadapted_canonical_tau_is_rejected(lattice41):
    _, h, p = lattice41
    tau = canonical_tau(biorthonormal_eigensystem(h))
    with pytest.raises(ResultNotHermitianError):
        eta_from_tau_pt(h, tau, p, 1e-9)


def test_eta_parity_valid_in_hermitian_limit():
    spec = make_lattice(21, 5.0, 1.0, "x^2", "x^3", eps=0.0)
    h = build_pt_hamiltonian(spec)
    p = parity_matrix(21)
    metric = eta_from_tau_pt(h, time_reversal(21), p)
    np.testing.assert_allclose(metric.matrix, p)


def test_not_pt_symmetric_rejected(rng):
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    with pytest.raises(NotPTSymmetricError):
        eta_from_tau_pt(h, time_reversal(5), parity_matrix(5))
    with pytest.raises(NotPTSymmetricError):
        pt_adapted_eigensystem(h)


def test_adapted_system_keeps_residuals(lattice41):
    _, h, p = lattice41
    sys_ = pt_adapted_eigensystem(h, p)
    eye = np.eye(41)
    assert np.max(np.abs(sys_.phi_matrix.conj().T @ sys_.psi_matrix - eye)) <= 1e-10
    e = sys_.energies
    assert np.max(np.abs(h @ sys_.psi_matrix - sys_.psi_matrix * e)) <= 1e-10 * np.max(np.abs(h))


def test_asymmetric_potentials_rejected():
    with pytest.raises(AsymmetricPotentialError):
        make_lattice(5, 1.0, 1.0, "x", "x^3")  # odd v1
    with pytest.raises(AsymmetricPotentialError):
        make_lattice(5, 1.0, 1.0, "x^2", "x^2")  # even v2


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        make_lattice(4, 1.0)  # even site count
    with pytest.raises(ValueError):
        make_lattice(5, -1.0)


def test_lattice_from_dict_roundtrip():
    spec = lattice_from_dict({"n": 9, "L": 2.0, "mass": 0.5, "v1": "x^2", "v2": "x^3", "eps": 0.3})
    assert spec.n_sites == 9
    direct = make_lattice(9, 2.0, 0.5, "x^2", "x^3", 0.3)
    np.testing.assert_array_equal(spec.v1, direct.v1)
    np.testing.assert_array_equal(spec.v2, direct.v2)


def test_lattice_sample_potentials():
    x = make_lattice(5, 2.0).grid
    spec = make_lattice(5, 2.0, 1.0, x**4, 0.5 * x**3, eps=1.0)
    np.testing.assert_array_equal(spec.v1, x**4)


def test_hermitian_limit_full_chain():
    spec = make_lattice(21, 5.0, 1.0, "x^2", "x^3", eps=0.0)
    h = build_pt_hamiltonian(spec)
    # high levels form exponentially split parity doublets (splitting ~5e-8),
    # merged by the cluster gap; tol must sit above the merged-level residual
    sys_ = biorthonormal_eigensystem(h, tol=1e-8)
    cls = classify_spectrum(sys_)
    assert cls.tag is SpectrumTag.ALL_REAL
    transform = hermitizing_transform(sys_, cls)
    h_t = transform.matrix @ h @ np.linalg.inv(transform.matrix)
    assert np.max(np.abs(h_t - h_t.conj().T)) <= 1e-8 * np.max(np.abs(h_t))


def test_adapted_gauge_on_degenerate_real_levels():
    """Real H with parity = 1: the real levels (multiplicity 1, 2 and 3)
    take the Takagi gauge and come out real, and the canonical tau of the
    adapted system gives an intertwining metric."""
    rng = np.random.default_rng(8)
    s = rng.standard_normal((8, 8))
    d = np.zeros((8, 8))
    d[:6, :6] = np.diag([1.0, 1.0, 2.0, 2.0, 2.0, -1.0])
    d[6:, 6:] = [[0.5, 1.5], [-1.5, 0.5]]  # the pair 0.5 +- 1.5i
    h = s @ d @ np.linalg.inv(s)
    p = np.eye(8)
    sys_ = pt_adapted_eigensystem(h, p)
    assert sorted(lv.multiplicity for lv in sys_.levels) == [1, 1, 1, 2, 3]
    for lv in sys_.levels:
        if abs(lv.energy.imag) < 1e-8:
            assert np.max(np.abs(p @ np.conj(lv.psi) - lv.psi)) <= 1e-10
    eta = eta_from_tau_pt(h, canonical_tau(sys_), p)
    assert is_pseudo_hermitian(h, eta).ok
