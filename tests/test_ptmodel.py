"""Parity-symmetric lattice model: structural identities and metrics."""

import warnings

import numpy as np
import pytest

from pseudoherm import (
    AsymmetricPotentialError,
    NotDiagonalizableError,
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
from pseudoherm import ptmodel
from pseudoherm._linalg import max_abs, takagi_factor
from pseudoherm.cli import cli_main
from pseudoherm.hermitize import ReportStageError, _report
from pseudoherm.eigensystem import (
    _assemble,
    _classify,
    _levels,
    _partner_columns,
    _raw_levels,
    _realness_tol,
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


def test_composed_metric_refusals_carry_their_numbers(lattice41):
    """Both refusals of the composed eta carry what they measured (.measured)
    and the tol it exceeded (.limit); the message prints the same number."""
    _, h, p = lattice41
    tau = canonical_tau(biorthonormal_eigensystem(h))
    with pytest.raises(ResultNotHermitianError) as not_hermitian:
        eta_from_tau_pt(h, tau, p, 1e-9)
    eta = tau.matrix @ p  # symmetric tau: its Hermiticity defect is that of tau P
    want = np.max(np.abs(eta - eta.conj().T)) / np.max(np.abs(eta))
    # an identity eta is Hermitian and fails the intertwining identity with H
    with pytest.raises(ResultNotHermitianError) as not_intertwining:
        ptmodel._checked_eta(h, np.eye(41, dtype=complex), max_abs(h), 1e-9)
    residual = is_pseudo_hermitian(h, np.eye(41), 1e-9).residual
    for refused, measured in [(not_hermitian.value, want), (not_intertwining.value, residual)]:
        assert refused.measured == pytest.approx(measured, rel=1e-12)
        assert refused.limit == 1e-9 < refused.measured
        assert f"{refused.measured:.3e}" in str(refused)


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


def test_not_pt_symmetric_carries_its_residual(lattice41):
    """The refusal's .measured is max|H P - P conj(H)| / max|H| and its .limit
    the tol it exceeded, for the dense and the index-reversal parity."""
    _, h, p = lattice41
    h = h.copy()
    h[0, 0] += 1j  # breaks the parity-conjugation symmetry at one site
    want = np.max(np.abs(h @ p - p @ h.conj())) / np.max(np.abs(h))
    for dense in (True, False):
        with pytest.raises(NotPTSymmetricError) as refused:
            eta_from_tau_pt(h, time_reversal(41), p) if dense else pt_adapted_eigensystem(h)
        assert (refused.value.measured, refused.value.limit) == (want, 1e-10)
        assert str(refused.value) == "H does not commute with the parity-conjugation map"


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


@pytest.mark.parametrize("n", [1, 0, -1, -3, 2])
def test_lattice_refuses_site_counts_without_a_center(n):
    """Refused before the grid spacing 2L/(n-1) is formed (n=1 divided by zero)."""
    with pytest.raises(ValueError, match="^n_sites must be odd and at least 3$"):
        make_lattice(n, 1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_lattice(5, np.inf),
        lambda: make_lattice(5, np.nan),
        lambda: make_lattice(5, 1.0, eps=np.inf),
        lambda: make_lattice(5, 1.0, eps=np.nan),
        lambda: make_lattice(5, 1.0, np.inf),
        lambda: make_lattice(5, 1.0, np.nan),
        lambda: make_lattice(5, 1.0, 1.0, [1.0, 2.0, np.nan, 2.0, 1.0], "x"),
        lambda: make_lattice(5, 1.0, 1.0, "x^2", [-np.inf, 0.0, 0.0, 0.0, np.inf]),
        lambda: lattice_from_dict({"n": 5, "L": "nan"}),
    ],
    ids=[
        "L-inf", "L-nan", "eps-inf", "eps-nan", "mass-inf", "mass-nan", "v1-nan", "v2-inf",
        "dict-L-nan",
    ],
)
def test_lattice_refuses_non_finite_fields(build):
    """NaN and inf widths, masses, strengths and samples are a ValueError,
    raised before any sampling or parity check (NaN != NaN would otherwise
    read as an asymmetric potential, and 0 * inf warns)."""
    with pytest.raises(ValueError, match="must be finite"):
        build()


def test_lattice_refuses_an_infinite_spacing():
    """2L/(n-1) overflows at L = 1e308: refused by name, before grid forms
    0 * inf at the center site, even when every sample is finite (zero)."""
    zeros = np.zeros(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"^grid spacing 2L/\(n-1\) = inf .* is not finite$"):
            ptmodel.LatticeSpec(5, 1e308, 1.0, zeros, zeros)
        with pytest.raises(ValueError, match="^grid spacing"):
            make_lattice(5, 1e308, v1="0", v2="0")


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


def _degenerate_real_levels():
    """Real 8 x 8 H with real levels of multiplicity 1, 2 and 3 and the pair
    0.5 +- 1.5i, and the parity 1."""
    rng = np.random.default_rng(8)
    s = rng.standard_normal((8, 8))
    d = np.zeros((8, 8))
    d[:6, :6] = np.diag([1.0, 1.0, 2.0, 2.0, 2.0, -1.0])
    d[6:, 6:] = [[0.5, 1.5], [-1.5, 0.5]]  # the pair 0.5 +- 1.5i
    return s @ d @ np.linalg.inv(s), np.eye(8)


def test_adapted_gauge_on_degenerate_real_levels():
    """Real H with parity = 1: the real levels (multiplicity 1, 2 and 3)
    take the Takagi gauge and come out real, and the canonical tau of the
    adapted system gives an intertwining metric."""
    h, p = _degenerate_real_levels()
    sys_ = pt_adapted_eigensystem(h, p)
    assert sorted(lv.multiplicity for lv in sys_.levels) == [1, 1, 1, 2, 3]
    for lv in sys_.levels:
        if abs(lv.energy.imag) < 1e-8:
            assert np.max(np.abs(p @ np.conj(lv.psi) - lv.psi)) <= 1e-10
    eta = eta_from_tau_pt(h, canonical_tau(sys_), p)
    assert is_pseudo_hermitian(h, eta).ok


def _real_spectrum_system():
    """Real H with real spectrum and parity = 1: the adapted canonical tau
    gives eta = Phi Phi^T with Phi real, a positive metric."""
    rng = np.random.default_rng(8)
    s = rng.standard_normal((6, 6))
    return s @ np.diag([1.0, 1.0, 2.0, 3.0, -1.0, 4.0]) @ np.linalg.inv(s), np.eye(6)


@pytest.mark.parametrize("case", ["real-adapted", "lattice-time-reversal", "lattice-adapted"])
def test_eta_positivity_from_one_cholesky(case, monkeypatch):
    if case == "real-adapted":
        h, p = _real_spectrum_system()
        tau = canonical_tau(pt_adapted_eigensystem(h, p))
    else:
        v2, eps = ("x^3", 0.1) if case == "lattice-time-reversal" else ("x", 1.0)
        h = build_pt_hamiltonian(make_lattice(41, 10.0, 1.0, "x^2", v2, eps))
        p = parity_matrix(41)
        tau = time_reversal(41) if case == "lattice-time-reversal" else canonical_tau(pt_adapted_eigensystem(h, p))
    cholesky = np.linalg.cholesky
    calls = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
    monkeypatch.setattr(np.linalg, "eigvalsh", None)  # positivity takes no eigvalsh
    metric = eta_from_tau_pt(h, tau, p, 1e-9)
    monkeypatch.undo()
    assert len(calls) == 1
    assert metric.positive_definite is bool(np.linalg.eigvalsh(metric.matrix)[0] > 0.0)
    assert metric.positive_definite is (case == "real-adapted")
    if metric.positive_definite:
        np.testing.assert_allclose(metric.factor @ metric.factor.conj().T, metric.matrix, atol=1e-12)
    else:
        assert metric.factor is None


def _nearest_match(a, b):
    """max |a_i - b_j| over the one-to-one matching of each a_i to its nearest b_j;
    fails when two values of a share their nearest b."""
    nearest = np.argmin(np.abs(a[:, None] - b[None, :]), axis=1)
    assert len(set(nearest.tolist())) == len(a)
    return np.max(np.abs(a - b[nearest]))


def _agrees_with_dense_parity(h, by_index, tol):
    """by_index lists the energies of the dense-parity system of h bit for
    bit (both take one eig of h), and has the class and multiplicities of
    the levels of one complex eig of h, and level energies within 1e-12
    max|H| of them, matched by nearest value."""
    dense = pt_adapted_eigensystem(h, parity_matrix(h.shape[0]), tol)
    assert by_index.energies.tobytes() == dense.energies.tobytes()
    realness_tol = _realness_tol(max_abs(h))
    _, energies, offsets = _levels(*np.linalg.eig(h), realness_tol)
    cls_index = classify_spectrum(by_index)
    assert cls_index.tag is _classify(energies, np.diff(offsets), realness_tol).tag
    assert sorted(by_index._sizes.tolist()) == sorted(np.diff(offsets).tolist())
    assert _nearest_match(by_index._level_energies, energies) <= 1e-12 * max_abs(h)
    return cls_index


@pytest.mark.parametrize("v2, eps", [("x", 0.1), ("x", 1.0), ("x^3", 1.0)])
def test_default_parity_agrees_with_dense_parity(v2, eps):
    """An exactly PT-symmetric H is solved in its real form Re H + P Im H,
    with or without a dense parity: the two systems list the same energies,
    and agree with one complex eig of H on the class and the multiplicities,
    and on the energies within 1e-12 max|H|."""
    h = build_pt_hamiltonian(make_lattice(41, 10.0, 1.0, "x^2", v2, eps))
    _agrees_with_dense_parity(h, pt_adapted_eigensystem(h), 1e-10)


def test_pt_lattice_is_never_unpaired():
    """At n=81, eps=3 the complex eig of H moves eigenvalues by about 1e-7
    (kappa(Psi) near 1e8): with an absolute 1e-8 realness tolerance the
    PT-symmetric lattice was classified unpaired, which its exact antilinear
    symmetry rules out.  Solved in real arithmetic, the conjugate pairs are
    exact and the system verifies at tol 1e-3."""
    h = build_pt_hamiltonian(make_lattice(81, 10.0, 1.0, "x^2", "x", 3.0))
    system = pt_adapted_eigensystem(h, tol=1e-3)
    assert classify_spectrum(system).tag is SpectrumTag.CONJUGATE_PAIRED


def test_pt_lattice_limit_is_refused_with_its_residual(capsys):
    """The same lattice at tol 1e-6 misses the tolerance (left_eigen near
    1.4e-4) and is refused with its measured residual, by the command too."""
    h = build_pt_hamiltonian(make_lattice(81, 10.0, 1.0, "x^2", "x", 3.0))
    with pytest.raises(NotDiagonalizableError) as refused:
        pt_adapted_eigensystem(h, tol=1e-6)
    assert refused.value.measured > refused.value.limit == 1e-6
    argv = ["pt-model", "--n", "81", "--L", "10", "--v2", "x", "--eps", "3", "--tol", "1e-6"]
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"NotDiagonalizableError: {refused.value}\n"


def reference_adapted(h, parity, tol=1e-10):
    """pt_adapted_eigensystem with a level loop: one Takagi factor per real level."""
    h = np.asarray(h, dtype=complex)
    parity = None if parity is None else np.asarray(parity, dtype=complex)
    hmax = max_abs(h)
    psi, energies, offsets = _raw_levels(h, _realness_tol(hmax))
    sizes = np.diff(offsets)
    pairing = np.asarray(_classify(energies, sizes, _realness_tol(hmax)).pairing)
    bounds = offsets.tolist()
    for i in (pairing == np.arange(len(pairing))).nonzero()[0].tolist():
        q = np.ascontiguousarray(psi[:, bounds[i] : bounds[i + 1]])
        if parity is None:
            row = np.ascontiguousarray(q.conj().T[:, ::-1])
        else:
            row = q.conj().T @ parity
        psi[:, bounds[i] : bounds[i + 1]] = q @ takagi_factor(row @ np.conj(q))[0]
    second = np.repeat(pairing < np.arange(len(pairing)), sizes)
    first = np.conj(psi[:, _partner_columns(offsets, pairing)[second]])
    psi[:, second] = first[::-1] if parity is None else parity @ first
    return _assemble(psi, energies, offsets, h, hmax, tol)[0]


@pytest.mark.parametrize(
    "case, parity",
    [((41, "x", 0.1), "index"), ((41, "x", 0.1), "dense"), ((81, "x", 1.0), "index"),
     ((81, "x", 1.0), "dense"), ((41, "x*x*x", 0.1), "index"), ((41, "x*x*x", 0.1), "dense"),
     ("degenerate", "dense")],
    ids=["41-x-0.1-index", "41-x-0.1-dense", "81-x-1-index", "81-x-1-dense", "41-xxx-0.1-index",
         "41-xxx-0.1-dense", "degenerate-8-dense"],
)
def test_adapted_gauge_takes_one_takagi_per_multiplicity(case, parity, monkeypatch):
    """The real levels take one stacked Takagi factor per multiplicity, and
    the adapted system is the level loop's, bit for bit."""
    if case == "degenerate":
        h, p = _degenerate_real_levels()
    else:
        n, v2, eps = case
        x = make_lattice(n, 10.0).grid
        v2 = x * x * x if v2 == "x*x*x" else v2
        h = build_pt_hamiltonian(make_lattice(n, 10.0, 1.0, "x^2", v2, eps))
        p = parity_matrix(n) if parity == "dense" else None
    want = reference_adapted(h, p)
    calls = []

    def counted(c):
        calls.append(c.shape)
        return takagi_factor(c)

    monkeypatch.setattr(ptmodel, "takagi_factor", counted)
    got = pt_adapted_eigensystem(h, p)
    pairing = classify_spectrum(got).pairing
    real = {lv.multiplicity for i, lv in enumerate(got.levels) if pairing[i] == i}
    assert sorted(shape[-1] for shape in calls) == sorted(real)
    if case == "degenerate":
        assert sorted(real) == [1, 2, 3]
    for a, b in [(got.psi_matrix, want.psi_matrix), (got.phi_matrix, want.phi_matrix),
                 (got.energies, want.energies)]:
        assert a.tobytes() == b.tobytes()


def _random_pt_symmetric(seed):
    """H = A + P conj(A) P for a complex Gaussian A, n in 2..12: H P = P conj(H)
    holds bit for bit, since the sum is formed the same way on both sides."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + np.conj(a)[::-1, ::-1]


@pytest.mark.parametrize("seed", range(8))
def test_random_exactly_pt_symmetric_input(seed, monkeypatch):
    """On a random exactly PT-symmetric H the real-form solve agrees with one
    complex eig of H, lists exact conjugate partners and
    fixes every real level (P conj(psi) = psi); the same H moved off exact
    symmetry by less than tol takes the complex eig, bit for bit."""
    h = _random_pt_symmetric(seed)
    assert ptmodel._pt_residual(h, None) == 0.0
    system = pt_adapted_eigensystem(h)
    cls = _agrees_with_dense_parity(h, system, 1e-10)
    e = system._level_energies
    for i, j in enumerate(cls.pairing):
        if i == j:
            psi = system.levels[i].psi
            assert max_abs(np.conj(psi)[::-1] - psi) <= 1e-10
        else:
            assert e[j].tobytes() == np.conj(e[i]).tobytes()
            assert bool(e[i].imag < 0) == (i < j)  # the -Im partner first
    h_near = h.copy()
    h_near[0, 0] += 1e-13 * max_abs(h)
    assert 0.0 < ptmodel._pt_residual(h_near, None) <= 1e-10 * max_abs(h_near)
    want = reference_adapted(h_near, None)
    eig = np.linalg.eig
    inputs = []
    monkeypatch.setattr(np.linalg, "eig", lambda m: inputs.append(m.dtype) or eig(m))
    got = pt_adapted_eigensystem(h_near)
    monkeypatch.undo()
    assert inputs == [np.complex128]
    for a, b in [(got.psi_matrix, want.psi_matrix), (got.phi_matrix, want.phi_matrix),
                 (got.energies, want.energies)]:
        assert a.tobytes() == b.tobytes()


# the benchmark's lattices: L = 10, v1 = x^2
LATTICE_SWEEP = tuple(
    (n, v2, eps) for n in (41, 81, 121, 161) for v2 in ("x", "x^3") for eps in (0.1, 1.0)
)


@pytest.mark.parametrize("n, v2, eps", LATTICE_SWEEP)
def test_report_and_pt_model_take_one_eig(n, v2, eps):
    """The report and pt-model take the same real eig of a lattice: where
    both pass they list the same energies bit for bit, and where either is
    refused both are, with NotDiagonalizableError at the eigensystem (the
    digits may differ, since pt-model re-gauges Psi before it is verified)."""
    try:
        h = build_pt_hamiltonian(make_lattice(n, 10.0, 1.0, "x^2", v2, eps))
    except AsymmetricPotentialError:  # x^3 samples not exactly odd at n = 121
        return
    outcomes = []
    for run in (lambda: _report(h, 1e-10, None, 0)[1], lambda: ptmodel._pt_model(h, 1e-10, None)[0]):
        try:
            outcomes.append(run().energies.tobytes())
        except ReportStageError as exc:
            outcomes.append((exc.stage, type(exc.__cause__)))
        except NotDiagonalizableError:
            outcomes.append(("eigensystem", NotDiagonalizableError))
    report, pt_model = outcomes
    if isinstance(report, bytes) and isinstance(pt_model, bytes):
        assert report == pt_model
    else:
        assert report == pt_model == ("eigensystem", NotDiagonalizableError)


def test_real_lattice_keeps_the_parity_gauge(capsys):
    """A lattice with v2 = 0 is real and exactly reversal symmetric.  It takes
    the reversal real form, whose eigenvectors are fixed by P conj(.) however
    a near-degenerate parity doublet mixes them, so eta = tau P is Hermitian
    and pt-model passes; the real eigenvectors as they are miss that gauge by
    6.7e-9 at n = 81."""
    h = build_pt_hamiltonian(make_lattice(81, 10.0, 1.0, "x^2", "0", 0.1))
    assert not h.imag.any()
    _, _, residuals = ptmodel._pt_model(h, 1e-10, None)
    assert max(residuals.values()) <= 1e-10
    assert cli_main(["pt-model", "--n", "81", "--L", "10", "--v2", "0"]) == 0
    capsys.readouterr()
