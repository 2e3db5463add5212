"""The chain solved once: call counts, chain objects read off the
eigensystem, and scale-invariant report residuals."""

import dataclasses
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudoherm._linalg
import pseudoherm.antilinear
import pseudoherm.eigensystem
import pseudoherm.hermitize
import pseudoherm.io
import pseudoherm.metric
import pseudoherm.ptmodel
import pseudoherm.symmetry
from pseudoherm import (
    AntilinearOperator,
    CoefficientFamily,
    NotDiagonalizableError,
    PseudoCanonicalTransform,
    PseudoHermError,
    antilinear_symmetry,
    apply_transform,
    basis_change,
    biorthonormal_eigensystem,
    build_metric,
    build_pt_hamiltonian,
    canonical_tau,
    canonicalize_tau,
    classify_spectrum,
    commutes_with,
    indefinite_inner_product,
    is_anti_pseudo_hermitian,
    is_exact_symmetry,
    is_pseudo_hermitian,
    make_lattice,
    metric_from_matrix,
    metric_from_transform,
    real_spectrum_equivalence_report,
)
from pseudoherm._linalg import hermitian_defect, scale_of
from pseudoherm.cli import cli_main
from pseudoherm.eigensystem import (
    CLUSTER_GAP_FACTOR,
    _assemble,
    _cluster_indices,
    _levels,
    _raw_levels,
)
from pseudoherm.ensembles import (
    planted_matrix,
    random_coefficients,
    random_invertible,
    random_unitary,
)
from pseudoherm.hermitize import ReportStageError, _report
from pseudoherm.io import save_matrix

from conftest import mixed_multiplicity_matrix, near_real_matrix, real_planted_matrix


def count_calls(monkeypatch, fn) -> list:
    """Replace ``fn`` by a counting wrapper wherever the package, numpy or
    numpy.linalg holds a reference to it; returns the list of calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    owners = [m for name, m in sys.modules.items() if name.startswith("pseudoherm")]
    for owner in [*owners, np, np.linalg]:
        for attr, val in list(vars(owner).items()):
            if val is fn:
                monkeypatch.setattr(owner, attr, counted)
    return calls


def test_report_and_analyze_solve_once(monkeypatch, rng, tmp_path, capsys):
    planted = planted_matrix(rng, 6, "real")
    h = planted.matrix
    multiplicities = {d for _, d in planted.levels}
    path = tmp_path / "h.json"
    save_matrix(path, h)
    metric_calls = count_calls(monkeypatch, pseudoherm.metric._metric)
    eig_calls = count_calls(monkeypatch, np.linalg.eig)
    eigvals_calls = count_calls(monkeypatch, np.linalg.eigvals)
    svd_calls = count_calls(monkeypatch, np.linalg.svd)
    solve_calls = count_calls(monkeypatch, np.linalg.solve)
    qr_calls = count_calls(monkeypatch, np.linalg.qr)
    reconstruct_calls = count_calls(monkeypatch, pseudoherm.eigensystem.reconstruct)
    validations = count_calls(monkeypatch, pseudoherm._linalg.as_square_matrix)
    checkers = [
        count_calls(monkeypatch, fn)
        for fn in (
            pseudoherm.antilinear.is_anti_pseudo_hermitian,
            pseudoherm.metric.is_pseudo_hermitian,
            pseudoherm.symmetry.commutes_with,
            pseudoherm.metric.indefinite_inner_product,
        )
    ]
    assert real_spectrum_equivalence_report(h)["spectrum_class"] == "all_real"
    # one eig and no SVD: ||Psi||_F ||Phi||_F bounds kappa(Psi) = kappa(A) far
    # below the ceiling, and its square bounds kappa(eta) = kappa(Psi)^2; X and
    # A H A^{-1} are products of Psi and Phi, not solves; H is validated once
    # and no public checker validates it again
    counts = [len(c) for c in (metric_calls, eig_calls, eigvals_calls, svd_calls, solve_calls)]
    assert counts == [1, 1, 0, 0, 0]
    assert (len(reconstruct_calls), len(validations)) == (0, 1)
    assert [len(c) for c in checkers] == [0, 0, 0, 0]
    # one stacked QR per distinct multiplicity
    want_qr = len(multiplicities)
    assert len(qr_calls) == want_qr

    to_dict_calls = count_calls(monkeypatch, pseudoherm.io.matrix_to_dict)
    for c in (eig_calls, svd_calls, solve_calls, qr_calls):
        c.clear()
    assert cli_main(["analyze", str(path)]) == 0
    assert [len(c) for c in (eig_calls, svd_calls, solve_calls, qr_calls)] == [1, 0, 0, want_qr]
    assert len(to_dict_calls) == 0
    simple = planted_matrix(rng, 6, "real", degenerate=False)
    qr_calls.clear()
    real_spectrum_equivalence_report(simple.matrix)
    assert len(qr_calls) == 1
    assert cli_main(["symmetry", str(path)]) == 0
    assert len(reconstruct_calls) == 0


@pytest.mark.parametrize("v2, eps", [("x^3", 0.1), ("x", 1.0)])
def test_pt_model_runs_one_pass(monkeypatch, capsys, v2, eps):
    """One pt-model command: one eig, one classification and one inverse (Phi);
    no SVD, as ||Psi||_F ||Phi||_F bounds kappa(Psi) below the ceiling, no
    eigvalsh or cholesky, as positivity is not reported, no dense parity
    matrix, and eta checked once, not again by the public is_pseudo_hermitian."""
    counted = {
        "eig": np.linalg.eig,
        "svd": np.linalg.svd,
        "inv": np.linalg.inv,
        "eigvalsh": np.linalg.eigvalsh,
        "cholesky": np.linalg.cholesky,
        "parity_matrix": pseudoherm.ptmodel.parity_matrix,
        "_classify": pseudoherm.eigensystem._classify,
        "is_pseudo_hermitian": pseudoherm.metric.is_pseudo_hermitian,
    }
    calls = {name: count_calls(monkeypatch, fn) for name, fn in counted.items()}
    argv = ["pt-model", "--n", "41", "--v2", v2, "--eps", str(eps), "--output", "json"]
    assert cli_main(argv) == 0
    assert json.loads(capsys.readouterr().out)["spectrum_class"] == "conjugate_paired"
    want = {"eig": 1, "svd": 0, "inv": 1, "eigvalsh": 0, "cholesky": 0, "parity_matrix": 0,
            "_classify": 1, "is_pseudo_hermitian": 0}
    assert {name: len(c) for name, c in calls.items()} == want


def planted_with_degenerate_level(seed: int, dim: int, kind: str):
    rng = np.random.default_rng(seed)
    while True:
        pm = planted_matrix(rng, dim, kind)
        if any(d > 1 for _, d in pm.levels):
            return pm.matrix


def test_each_condition_number_measured_once(monkeypatch, rng, tmp_path, capsys):
    """A well-conditioned eigensystem decides kappa(Psi), kappa(A) and kappa(eta),
    paired or all-real, by the bound ||Psi||_F ||Phi||_F without an SVD;
    metric_from_matrix reads kappa off its eigvalsh and the gauge op off one
    Takagi factorization per multiplicity d >= 2 (simple levels take a square
    root and need no kappa)."""
    path = tmp_path / "h.json"
    save_matrix(path, planted_matrix(rng, 6, "real").matrix)
    paired = planted_with_degenerate_level(1, 7, "paired")
    sys_ = biorthonormal_eigensystem(paired)
    coeffs = random_coefficients(rng, sys_)
    svd_calls = count_calls(monkeypatch, np.linalg.svd)
    takagi_calls = count_calls(monkeypatch, pseudoherm._linalg.takagi_factor)

    def svds(fn, *args):
        svd_calls.clear()
        fn(*args)
        return len(svd_calls)

    assert svds(real_spectrum_equivalence_report, paired) == 0
    assert svds(cli_main, ["hermitize", str(path)]) == 0
    assert svds(metric_from_matrix, np.diag([2.0, -1.0, 0.5])) == 0
    takagi_calls.clear()
    assert svds(canonicalize_tau, sys_, coeffs) == 0
    assert len(takagi_calls) == len({lv.multiplicity for lv in sys_.levels} - {1}) == 1


def two_levels(delta: float, kind: str) -> np.ndarray:
    """[[1, 1], [0, 1 + delta]]: kappa(Psi) ~ 2/delta; paired, i times it next
    to its conjugate, 4 x 4 with kappa(Psi) ~ 2/delta too."""
    a = np.array([[1.0, 1.0], [0.0, 1.0 + delta]])
    if kind == "real":
        return a
    return np.block([[1j * a, np.zeros((2, 2))], [np.zeros((2, 2)), -1j * a]])


def outcome(fn, *args) -> tuple:
    """What a call returns or refuses with, comparable across runs: the JSON
    text of a report, or the refusal's type, message and its numbers."""
    try:
        return ("ok", json.dumps(fn(*args)))
    except PseudoHermError as exc:
        cause = exc.__cause__ or exc
        numbers = (getattr(cause, "measured", None), getattr(cause, "limit", None))
        return (type(exc).__name__, str(exc), type(cause).__name__, *numbers)


def svd_first(monkeypatch):
    """Every condition ceiling measured by its SVD, as if no bound decided it."""
    monkeypatch.setattr(pseudoherm._linalg, "_BOUND_MARGIN", np.inf)


@pytest.mark.parametrize(
    "delta, kind, svds",
    [
        (0.5, "real", 0),
        (0.5, "paired", 0),
        (2.5e-4, "real", 1),  # B < 5e7 < B^2: kappa(eta) = cond^2, cond measured once
        (2.5e-4, "paired", 1),  # ... and kappa(eta) by the SVD of eta
        (3e-8, "real", 1),  # kappa(Psi) 6.7e7: B > 5e7, measured by _assemble
        (3e-8, "paired", 2),
        (1.5e-8, "real", 1),  # kappa(Psi) 1.3e8: refused by the eigensystem
        (1.5e-8, "paired", 1),
    ],
)
def test_condition_ceilings_take_an_svd_only_when_the_bound_cannot_decide(
    monkeypatch, delta, kind, svds
):
    """The report takes an SVD of Psi only when ||Psi||_F ||Phi||_F exceeds
    half the ceiling (or cond is read for the all-real kappa(eta)), and one
    of a paired eta only when its square does; it reports and refuses as
    when every ceiling is measured."""
    h = two_levels(delta, kind)
    svd_calls = count_calls(monkeypatch, np.linalg.svd)
    got = outcome(real_spectrum_equivalence_report, h, 1e-6)
    assert len(svd_calls) == svds
    svd_first(monkeypatch)
    assert got == outcome(real_spectrum_equivalence_report, h, 1e-6)


def test_exactly_singular_psi_is_refused_by_its_cond():
    """An eigenvector matrix that inv cannot invert has no bound; its
    measured condition number, inf, refuses it, with no warning."""
    psi = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    h = np.diag([1.0, 2.0]) + 0j
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotDiagonalizableError) as err:
            _assemble(psi, np.array([1.0, 2.0]) + 0j, np.array([0, 1, 2]), h, 2.0, 1e-10)
    exc = err.value
    assert (exc.measured, exc.limit, exc.check) == (np.inf, 1e8, None)
    assert str(exc) == (
        "eigenvector matrix condition number inf exceeds ceiling 1.000e+08; "
        "input is defective or nearly so"
    )


def test_cond_of_a_bounded_system_is_measured_on_read(monkeypatch):
    """A system whose ceiling the bound decided measures cond by one SVD when
    it is first read, and keeps it."""
    sys_ = biorthonormal_eigensystem(two_levels(0.5, "real"))
    assert "cond" not in vars(sys_)
    svd_calls = count_calls(monkeypatch, np.linalg.svd)
    assert sys_.cond == sys_.cond <= sys_._cond_bound <= 5e7
    assert len(svd_calls) == 1
    assert sys_.cond == np.linalg.cond(sys_.psi_matrix)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["real", "paired", "unpaired"]),
    st.integers(2, 9),
    st.floats(1.0, 10.0),
)
def test_bounded_ceilings_agree_with_svd_first(seed, kind, n, log_cond):
    """Planted S diag(E) S^-1 with kappa(S) up to 10^1 .. 10^10: report JSON,
    or the refusal, is the same as when every ceiling is measured by its SVD,
    and the eigensystem's Psi, Phi, E and cond are bit for bit the same."""
    h = planted_matrix(np.random.default_rng(seed), n, kind, max_cond=10.0**log_cond)
    got = outcome(real_spectrum_equivalence_report, h.matrix, 1e-6)
    try:
        sys_ = biorthonormal_eigensystem(h.matrix, tol=1e-6)
    except NotDiagonalizableError:
        sys_ = None
    with pytest.MonkeyPatch.context() as mp:
        svd_first(mp)
        assert got == outcome(real_spectrum_equivalence_report, h.matrix, 1e-6)
        if sys_ is not None:
            ref = biorthonormal_eigensystem(h.matrix, tol=1e-6)
            for a, b in [(sys_.psi_matrix, ref.psi_matrix), (sys_.phi_matrix, ref.phi_matrix)]:
                assert np.array_equal(a, b)
            assert np.array_equal(sys_.energies, ref.energies)
            assert sys_.cond == ref.cond


@pytest.mark.parametrize("kind", ["simple", "mixed"])
def test_gauge_op_lapack_budget(monkeypatch, kind):
    """canonicalize_tau takes one eigh (the Takagi factors) per distinct
    multiplicity d >= 2, none for simple levels and no inv: the psi gauge is
    read off the factor, and a multiplicity with a block of condition number
    above factor._READOFF_COND takes one inv; basis_change, whose blocks are
    arbitrary, one SVD (the block conditions) per distinct multiplicity and
    one inv per distinct multiplicity d >= 2."""
    if kind == "simple":
        h = np.random.default_rng(5).standard_normal((32, 32)) + 0j
    else:
        h = mixed_multiplicity_matrix()
    sys_ = biorthonormal_eigensystem(h)
    coeffs = random_coefficients(np.random.default_rng(6), sys_)
    dims = {lv.multiplicity for lv in sys_.levels}
    assert dims == ({1} if kind == "simple" else {1, 2, 3})
    calls = {name: count_calls(monkeypatch, getattr(np.linalg, name)) for name in ("inv", "eigh", "svd")}
    canonicalize_tau(sys_, coeffs)
    want = len(dims - {1})
    assert {name: len(c) for name, c in calls.items()} == {"inv": 0, "eigh": want, "svd": 0}
    for c in calls.values():
        c.clear()
    basis_change(sys_, coeffs.blocks)
    assert {name: len(c) for name, c in calls.items()} == {"inv": want, "eigh": 0, "svd": len(dims)}
    for c in calls.values():
        c.clear()
    rng = np.random.default_rng(7)
    units = [random_unitary(rng, d) for d in sys_._sizes.tolist()]
    far = CoefficientFamily(tuple((u * np.geomspace(1.0, 1e6, len(u))) @ u.T for u in units))
    canonicalize_tau(sys_, far)
    assert {name: len(c) for name, c in calls.items()} == {"inv": want, "eigh": want, "svd": 0}


@pytest.mark.parametrize("seed", range(4))
def test_cond_is_kappa_of_psi_and_phi_and_root_kappa_of_eta(seed):
    h = planted_with_degenerate_level(seed, 7, "real")
    sys_ = biorthonormal_eigensystem(h)
    psi, phi = sys_.psi_matrix, sys_.phi_matrix
    kappas = [np.linalg.cond(psi), np.linalg.cond(phi), np.sqrt(np.linalg.cond(phi @ phi.conj().T))]
    np.testing.assert_allclose([sys_.cond] * 3, kappas, rtol=1e-12)


def test_cond_of_regauged_systems(rng):
    """Systems that basis_change and canonicalize_tau build measure their
    cond on first access; cond cannot be set."""
    sys_ = biorthonormal_eigensystem(planted_with_degenerate_level(2, 7, "real"))
    blocks = [random_unitary(rng, lv.multiplicity) * 2.0 for lv in sys_.levels]
    for new in (basis_change(sys_, blocks), canonicalize_tau(sys_, random_coefficients(rng, sys_))[0]):
        assert new.cond == pytest.approx(np.linalg.cond(new.psi_matrix), rel=1e-12)
    with pytest.raises(AttributeError):
        sys_.cond = 1.0


@pytest.mark.parametrize(
    "h",
    [
        planted_matrix(np.random.default_rng(3), 6, "real", degenerate=False).matrix,
        planted_matrix(np.random.default_rng(4), 6, "paired", degenerate=False).matrix,
        planted_with_degenerate_level(5, 7, "real"),
        planted_with_degenerate_level(6, 7, "paired"),
    ],
    ids=["real", "paired", "real-degenerate", "paired-degenerate"],
)
def test_report_chain_matches_public_constructions(monkeypatch, h):
    """X, A H A^{-1}, the positive metric, exactness and the spot check of
    the report agree with antilinear_symmetry, apply_transform,
    metric_from_transform, is_exact_symmetry and indefinite_inner_product."""
    hermiticity_args = []

    def recorded(m):
        hermiticity_args.append(m)
        return hermitian_defect(m)

    monkeypatch.setattr(pseudoherm.hermitize, "hermitian_defect", recorded)
    report, sys_, cls = _report(h, 1e-10, None, 0)
    certs = report["certificates"]
    eta = build_metric(sys_, cls)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    assert close(certs["eta"], eta.matrix)
    assert close(certs["X"], antilinear_symmetry(eta, canonical_tau(sys_)).matrix)
    assert report["exact_symmetry"] is is_exact_symmetry(sys_, AntilinearOperator(certs["X"]))
    if cls.is_real:
        transform = PseudoCanonicalTransform(certs["A"])
        assert close(certs["eta"], metric_from_transform(transform).matrix)
        assert close(hermiticity_args[-1], apply_transform(transform, h))
        # the spot check's eight pairs, one inner product at a time, on eta +
        # 1e-6 max|eta| R (R Hermitian): its residual, about 1e-7, is signal
        # rather than rounding, so a relative bound sees a wrong denominator
        monkeypatch.setattr(pseudoherm.hermitize, "_metric", perturbed_metric)
        report = _report(h, 1e-10, None, 0)[0]
        eta = report["certificates"]["eta"]
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(8):
            xi = rng.standard_normal(sys_.dim) + 1j * rng.standard_normal(sys_.dim)
            zeta = rng.standard_normal(sys_.dim) + 1j * rng.standard_normal(sys_.dim)
            lhs = indefinite_inner_product(eta, xi, h @ zeta)
            rhs = np.conj(indefinite_inner_product(eta, zeta, h @ xi))
            scale = np.linalg.norm(xi) * np.linalg.norm(zeta) * scale_of(eta) * scale_of(h)
            worst = max(worst, abs(lhs - rhs) / scale)
        assert worst > 1e-8
        assert abs(report["residuals"]["inner_product_hermiticity"] - worst) <= 1e-6 * worst
    else:
        assert certs["A"] is None


def unit_matrix(seed: int, n: int, kind: str) -> np.ndarray:
    """A random complex n x n matrix, symmetric, Hermitian or general, with max|R| = 1."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    r = {"symmetric": r + r.T, "hermitian": r + r.conj().T, "general": r}[kind]
    return r / np.max(np.abs(r))


def perturbed(build, kind: str):
    """The certificate of the seam ``build`` plus 1e-6 max|c| R, R = unit_matrix(13, n, kind)."""

    def seam(*args):
        cert = build(*args)
        r = unit_matrix(13, cert.matrix.shape[0], kind)
        return dataclasses.replace(cert, matrix=cert.matrix + 1e-6 * scale_of(cert.matrix) * r)

    return seam


perturbed_metric = perturbed(pseudoherm.hermitize._metric, "hermitian")


@pytest.mark.parametrize(
    "seam, kind, residual",
    [
        ("canonical_tau", "symmetric", "tau_intertwining"),
        ("canonical_tau", "general", "tau_intertwining"),
        ("_metric", "hermitian", "metric_intertwining"),
        ("_canonical_symmetry", "general", "symmetry_commutation"),
        ("hermitizing_transform", "general", "hermitized_hermiticity"),
        ("hermitizing_transform", "general", "hermitized_eigenvalue_match"),
    ],
)
@pytest.mark.parametrize("seed", [2, 3])
def test_one_product_identities_fail_a_perturbed_certificate(
    monkeypatch, seam, kind, residual, seed
):
    """tau, eta and X (two products each, H^dagger tau = tau conj(H),
    H^dagger eta = eta H and H X = X conj(H)) and A (A (H Psi)) each read
    their certificate: one perturbed by 1e-6 max|.| through its construction
    seam fails its identity by more than 1e-8, where the healthy chain reads
    rounding."""
    h = planted_matrix(np.random.default_rng(seed), 6, "real").matrix
    healthy = real_spectrum_equivalence_report(h, tol=1e-10, seed=0)["residuals"][residual]
    build = getattr(pseudoherm.hermitize, seam)
    monkeypatch.setattr(pseudoherm.hermitize, seam, perturbed(build, kind))
    report = real_spectrum_equivalence_report(h, tol=1e-10, seed=0)
    assert healthy <= 1e-12
    assert report["residuals"][residual] > 1e-8


@pytest.mark.parametrize("name", ["real", "paired", "lattice"])
def test_report_identities_are_the_public_checkers(name):
    """One check per identity: the report's tau, eta and X residuals are, bit
    for bit, those of is_anti_pseudo_hermitian, is_pseudo_hermitian and
    commutes_with on the report's own certificates.  On the planted inputs
    a one-product rewrite (P - P^T, P - P^dagger) differs in the last bits."""
    if name == "lattice":
        h = build_pt_hamiltonian(make_lattice(81, 10.0, 1.0, "x^2", "x", 1.0))
    else:
        h = planted_matrix(np.random.default_rng(0), 6, name).matrix
    report, sys_, _ = _report(h, 1e-10, None, 0)
    residuals, certs = report["residuals"], report["certificates"]
    tau = canonical_tau(sys_)
    x = AntilinearOperator(certs["X"])
    assert residuals["tau_intertwining"] == is_anti_pseudo_hermitian(h, tau, 1e-10).residual
    assert residuals["metric_intertwining"] == is_pseudo_hermitian(h, certs["eta"], 1e-10).residual
    assert residuals["symmetry_commutation"] == commutes_with(h, x, 1e-10).residual


@pytest.mark.parametrize(
    "im, failing", [(5e-9, "metric_intertwining"), (5e-10, "symmetry_commutation")]
)
def test_near_real_level_fails_a_named_residual(im, failing):
    """A level with 0 < Im E <= realness_tol is classified real, but the
    identities checked against H miss tol: the report names the residual
    instead of raising from a second check against the rebuilt H."""
    report = real_spectrum_equivalence_report(near_real_matrix(im), tol=1e-10, seed=0)
    assert report["spectrum_class"] == "all_real"
    assert report["residuals"][failing] > 1e-10
    assert report["exact_symmetry"] is False


def test_build_metric_keeps_its_self_check():
    sys_ = biorthonormal_eigensystem(near_real_matrix(5e-9))
    with pytest.raises(PseudoHermError, match="intertwining identity"):
        build_metric(sys_, classify_spectrum(sys_))


def test_lattice_n81_x_eps1_report_passes(capsys, tmp_path):
    """X read as Psi[:, pi] Phi^T commutes with H to rounding; the solve
    for X = eta^{-1} tau used to leave a 2.4e-10 residual here and fail
    the exactness stage with NotASymmetryError.  The `symmetry` command
    reads the same product."""
    h = build_pt_hamiltonian(make_lattice(81, 10.0, 1.0, "x^2", "x", 1.0))
    report = real_spectrum_equivalence_report(h, tol=1e-10, seed=0)
    assert max(report["residuals"].values()) <= 1e-10
    assert report["exact_symmetry"] is False
    assert cli_main(["pt-model", "--n", "81", "--v2", "x", "--eps", "1", "--output", "json"]) == 0
    pt_class = json.loads(capsys.readouterr().out)["spectrum_class"]
    assert report["spectrum_class"] == pt_class == "conjugate_paired"
    path = tmp_path / "h.json"
    save_matrix(path, h)
    assert cli_main(["symmetry", str(path), "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["exact_symmetry"] is False


@pytest.mark.parametrize("name", ["real", "paired", "lattice"])
def test_exact_symmetry_agrees_across_entry_points(name, tmp_path, capsys):
    """The report, the `symmetry` command and is_exact_symmetry read one
    exactness rule: X commutes with H and keeps every level."""
    if name == "lattice":
        h = build_pt_hamiltonian(make_lattice(81, 10.0, 1.0, "x^2", "x", 1.0))
    else:
        h = planted_matrix(np.random.default_rng(1), 6, name).matrix
    report, sys_, _ = _report(h, 1e-10, None, 0)
    path = tmp_path / "h.json"
    save_matrix(path, h)
    assert cli_main(["symmetry", str(path), "--output", "json"]) == 0
    by_cli = json.loads(capsys.readouterr().out)["exact_symmetry"]
    by_fn = is_exact_symmetry(sys_, AntilinearOperator(report["certificates"]["X"]))
    assert report["exact_symmetry"] is by_cli is by_fn is (name == "real")


def test_spot_check_passes_an_ill_conditioned_real_input():
    """kappa(S) up to 1e4: divided by max(|lhs|, |rhs|), which cancellation
    makes small, the spot check read 3.9e-10 here while every other
    residual was at most 4.6e-11."""
    h = planted_matrix(np.random.default_rng(5), 16, "real", max_cond=1e4).matrix
    report = real_spectrum_equivalence_report(h, tol=1e-10, seed=0)
    assert report["spectrum_class"] == "all_real"
    assert max(report["residuals"].values()) <= 1e-10


def test_spot_check_fails_a_perturbed_metric(monkeypatch):
    """eta + 1e-6 max|eta| R, R Hermitian with max|R| = 1, fails the spot
    check: normalizing by operator scales is not a loosening."""
    rng = np.random.default_rng(11)
    r = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    r = (r + r.conj().T) / np.max(np.abs(r + r.conj().T))
    metric = pseudoherm.hermitize._metric

    def perturbed(sys_, cls):
        eta = metric(sys_, cls)
        return dataclasses.replace(eta, matrix=eta.matrix + 1e-6 * scale_of(eta.matrix) * r)

    monkeypatch.setattr(pseudoherm.hermitize, "_metric", perturbed)
    h = planted_matrix(np.random.default_rng(2), 6, "real").matrix
    report = real_spectrum_equivalence_report(h, tol=1e-10, seed=0)
    assert report["residuals"]["inner_product_hermiticity"] > 1e-8


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e6])
def test_spot_check_is_scale_invariant(c):
    h = c * planted_matrix(np.random.default_rng(3), 8, "real").matrix
    report = real_spectrum_equivalence_report(h, tol=1e-10, seed=0)
    assert report["residuals"]["inner_product_hermiticity"] <= 1e-13


def test_raw_levels_stacked_qr_is_bitwise_per_level_qr():
    """One stacked QR per multiplicity, placed into Psi in (Re E, Im E) level
    order, is bit for bit the per-level QR."""
    rng = np.random.default_rng(11)
    s = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    h = s @ np.diag([1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 5.0, 5.0]) @ np.linalg.inv(s)
    w, v = np.linalg.eig(h)
    gap = CLUSTER_GAP_FACTOR * np.max(np.abs(h))
    want = sorted(
        ((complex(np.mean(w[i])), np.linalg.qr(v[:, i])[0]) for i in _cluster_indices(w, gap)),
        key=lambda t: (t[0].real, t[0].imag),
    )
    simple = np.diag([3.0, 1.0, 2.0]) + np.triu(np.ones((3, 3)), 1) + 0j  # complex, as the chain passes H
    for h_ in (h, simple):  # degenerate and complex, all simple and real
        psi, energies, offsets = _raw_levels(h_, CLUSTER_GAP_FACTOR * np.max(np.abs(h_)))
        if h_ is h:
            assert np.diff(offsets).tolist() == [q.shape[1] for _, q in want] == [1, 2, 3, 1, 2]
        else:  # a real H takes the real eig, and its QR in real arithmetic
            w, v = np.linalg.eig(h_.real)
            want = sorted(((e, np.linalg.qr(v[:, [i]])[0]) for i, e in enumerate(w.tolist())),
                          key=lambda t: (t[0].real, t[0].imag))
        assert psi.flags.c_contiguous
        for e_got, a, b, (e_want, q_want) in zip(energies, offsets, offsets[1:], want):
            assert e_got == e_want
            got = np.ascontiguousarray(psi[:, a:b])
            assert got.tobytes() == np.ascontiguousarray(q_want, dtype=np.complex128).tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_real_spectrum_residuals_scale_invariant(seed, tmp_path, capsys):
    """A healthy real 6x6 scaled by 1e6 passes every report residual and
    ``analyze`` exits 0 (the eigenvalue match is relative to max|H|)."""
    h = 1e6 * planted_matrix(np.random.default_rng(seed), 6, "real").matrix
    report = real_spectrum_equivalence_report(h, tol=1e-10, seed=seed)
    assert report["spectrum_class"] == "all_real"
    assert max(report["residuals"].values()) <= 1e-10
    path = tmp_path / "h.json"
    save_matrix(path, h)
    assert cli_main(["analyze", str(path)]) == 0


def verdicts(h) -> tuple:
    """What a report decides: class, refusals, exactness, metric sign, and
    whether every residual passes."""
    report = real_spectrum_equivalence_report(h, tol=1e-10)
    return (
        report["spectrum_class"],
        sorted(report["refusals"]),
        report["exact_symmetry"],
        report["positive_definite_metric"],
        max(report["residuals"].values()) <= 1e-10,
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.sampled_from(["real", "paired", "unpaired"]), st.integers(-9, 9)
)
def test_verdicts_invariant_under_scale_similarity_and_permutation(seed, kind, k):
    """H, 10^k H, S H S^-1 (kappa(S) <= 10) and P H P^T (P a permutation)
    get the same verdicts: realness and pairing are decided within 1e-8
    max|H|, like every other verdict, not within an absolute 1e-8."""
    rng = np.random.default_rng(seed)
    h = planted_matrix(rng, 6, kind).matrix
    s = random_invertible(rng, 6, 10.0)
    p = np.eye(6)[rng.permutation(6)]
    want = verdicts(h)
    assert verdicts(10.0**k * h) == want
    assert verdicts(s @ h @ np.linalg.inv(s)) == want
    assert verdicts(p @ h @ p.T) == want


def _verdict(h):
    """Class, multiplicities, refusals and pass/fail of the report on h, or
    the stage and error type that refused it."""
    try:
        report, sys, cls = _report(h, 1e-10, None, 0)
    except ReportStageError as exc:
        return exc.stage, type(exc.__cause__)
    passed = max(report["residuals"].values()) <= 1e-10
    return cls.tag.value, sorted(sys._sizes.tolist()), sorted(report["refusals"]), passed


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("kind", ["real", "paired", "unpaired"])
def test_verdicts_hold_below_1e_300(kind, n):
    """A planted input keeps its scale-1 verdict at 1e-310.  At 1e-315 and
    1e-320, where rounding in the subnormal range cannot meet tol, it keeps
    it or is refused at the eigensystem, and is never given another class:
    every residual is divided by max|H| floored at the least positive float
    (a floor at 1e-300 once shrank the residuals and the realness tolerance
    alike, and moved inputs to another class)."""
    h = planted_matrix(np.random.default_rng(n), n, kind, degenerate=False).matrix
    want = _verdict(h)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _verdict(1e-310 * h) == want
        for c in (1e-315, 1e-320):
            assert _verdict(c * h) in (want, ("eigensystem", NotDiagonalizableError))


@pytest.mark.parametrize("seed", range(24))
def test_real_form_verdicts_match_the_complex_eig(seed, monkeypatch):
    """On real planted inputs (real Gaussian S, n 6-40, one level of
    multiplicity 1-3, scale 10^+-6) the report's real eig gives the class,
    multiplicities, refusals and pass/fail that one complex eig of H gives."""
    rng = np.random.default_rng(seed)
    n, d, scale = int(rng.integers(6, 41)), int(rng.integers(1, 4)), 10.0 ** rng.uniform(-6, 6)
    for kind in ("all_real", "conjugate_paired"):
        h = real_planted_matrix(rng, n, kind, d, scale)
        real_form = _verdict(h)
        complex_eig = lambda m, gap: _levels(*np.linalg.eig(m), gap)  # noqa: E731
        monkeypatch.setattr(pseudoherm.eigensystem, "_raw_levels", complex_eig)
        assert real_form == _verdict(h)
        monkeypatch.undo()
        tag, sizes, refusals, passed = real_form
        assert (tag, refusals, passed) == (kind, [] if kind == "all_real" else ["hermitization"], True)
        assert d in sizes
