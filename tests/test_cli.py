"""CLI subcommands, output formats and exit codes."""

import argparse
import contextlib
import json
import warnings

import numpy as np
import pytest

from pseudoherm import (
    NotDiagonalizableError,
    biorthonormal_eigensystem,
    build_pt_hamiltonian,
    canonical_tau,
    classify_spectrum,
    eta_from_tau_pt,
    is_anti_pseudo_hermitian,
    is_pseudo_hermitian,
    make_lattice,
    parity_matrix,
    pt_adapted_eigensystem,
    pt_commutation_residuals,
    time_reversal,
)
from pseudoherm import cli, eigensystem
from pseudoherm._linalg import scale_of
from pseudoherm.cli import build_parser, cli_main
from pseudoherm.io import (
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    save_coefficients,
    save_matrix,
)
from pseudoherm.antilinear import CoefficientFamily
from pseudoherm.ensembles import planted_matrix, random_symmetric_invertible

from conftest import near_real_matrix


@pytest.fixture
def identity2(tmp_path):
    path = tmp_path / "identity2.json"
    save_matrix(path, np.eye(2))
    return str(path)


@pytest.fixture
def real_matrix(tmp_path, rng):
    path = tmp_path / "planted_real.json"
    save_matrix(path, planted_matrix(rng, 4, "real").matrix)
    return str(path)


@pytest.fixture
def paired_matrix(tmp_path, rng):
    path = tmp_path / "planted_paired.json"
    save_matrix(path, planted_matrix(rng, 4, "paired").matrix)
    return str(path)


@pytest.fixture
def unpaired_matrix(tmp_path, rng):
    path = tmp_path / "unpaired.json"
    save_matrix(path, planted_matrix(rng, 3, "unpaired").matrix)
    return str(path)


def test_parser_built_once_per_process(monkeypatch, identity2, capsys):
    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        builds.append(self)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    build_parser.cache_clear()
    assert cli_main(["analyze", identity2]) == 0
    assert cli_main(["metric", identity2]) == 0
    assert len(builds) == 1


def test_analyze_identity(identity2, capsys):
    assert cli_main(["analyze", identity2]) == 0
    out = capsys.readouterr().out
    assert "all_real" in out


def test_analyze_json_output(real_matrix, capsys):
    assert cli_main(["analyze", "--output", "json", real_matrix]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spectrum_class"] == "all_real"
    assert payload["exact_symmetry"] is True


def test_metric_on_unpaired_exits_one(unpaired_matrix, capsys):
    assert cli_main(["metric", unpaired_matrix]) == 1
    assert "UnpairedSpectrum" in capsys.readouterr().err


def test_metric_on_paired(paired_matrix, capsys):
    assert cli_main(["metric", "--output", "json", paired_matrix]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["positive_definite"] is False
    assert payload["intertwining_residual"] <= 1e-10


def test_hermitize_real_spectrum(real_matrix, capsys):
    assert cli_main(["hermitize", "--output", "json", real_matrix]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hermiticity_residual"] < 1e-10
    assert payload["A"]["n"] == 4


def test_hermitize_reuses_the_verified_product(real_matrix, capsys, monkeypatch):
    """hermitize forms A H A^{-1} as A (H Psi) from the product H Psi that
    verified the eigensystem: the text is that of A @ (H @ Psi) bit for bit,
    and the command forms no second H @ Psi."""
    h = load_matrix(real_matrix)
    sys_ = biorthonormal_eigensystem(h)
    want = matrix_to_dict(sys_.phi_matrix.conj().T @ (h @ sys_.psi_matrix))
    assert cli_main(["hermitize", "--output", "json", real_matrix]) == 0
    assert json.loads(capsys.readouterr().out)["transformed"] == want
    calls = []
    monkeypatch.setattr(cli, "_hermitized", lambda t, hpsi: calls.append(hpsi) or (hpsi, 0.0))
    monkeypatch.setattr(eigensystem, "_verify_system", _recording(eigensystem._verify_system, calls))
    cli_main(["hermitize", real_matrix])
    assert calls[0] is calls[1]


def _recording(fn, calls):
    def recorded(*args):
        out = fn(*args)
        calls.append(out)
        return out
    return recorded


def test_analyze_refuses_a_jordan_block_by_its_cause(tmp_path, capsys):
    """analyze reports the eigensystem's own refusal, not the report stage
    that wraps it: exit 1, nothing on stdout, one stderr line."""
    path = tmp_path / "jordan.json"
    save_matrix(path, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NotDiagonalizableError) as refused:
        biorthonormal_eigensystem(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert cli_main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"NotDiagonalizableError: {refused.value}\n"


JORDAN_TYPE = {
    "jordan2": np.array([[1.0, 1.0], [0.0, 1.0]]),
    "jordan3": np.eye(3) + np.diag([1.0, 1.0], 1),
    "near-jordan2": np.array([[1.0, 1e-3], [0.0, 1.0]]),
}


@pytest.mark.parametrize("name", JORDAN_TYPE)
def test_a_subnormal_jordan_block_is_refused_as_at_scale_1(name, tmp_path, capsys):
    """A Jordan-type block scaled by 1e-310 is refused by the residual that
    refuses it at scale 1, measured the same up to rounding, and hermitize and
    symmetry exit 1 on it: its residuals are divided by max|H|, floored at the
    least positive float, where a floor at 1e-300 once shrank them below tol
    and accepted the block as one level."""
    h = JORDAN_TYPE[name]
    at_one, tiny = (
        pytest.raises(NotDiagonalizableError, biorthonormal_eigensystem, c * h).value
        for c in (1.0, 1e-310)
    )
    assert (tiny.check, tiny.limit) == (at_one.check, at_one.limit)
    assert tiny.measured == pytest.approx(at_one.measured, rel=1e-9)
    path = tmp_path / "tiny.json"
    save_matrix(path, 1e-310 * h)
    for command in ("hermitize", "symmetry"):
        assert cli_main([command, str(path)]) == 1
        assert capsys.readouterr().err == f"NotDiagonalizableError: {tiny}\n"


def test_a_nan_residual_fails_analyze(monkeypatch, identity2, capsys):
    """analyze exits 0 only when every residual is at most tol, so a NaN
    residual fails it wherever it stands (``max`` over the residuals skipped
    a NaN that was not the first)."""
    report = cli._report

    def with_nan(*args):
        out = report(*args)
        out[0]["residuals"]["tau_intertwining"] = float("nan")
        return out

    monkeypatch.setattr(cli, "_report", with_nan)
    assert cli_main(["analyze", identity2]) == 1
    assert "tau_intertwining: nan" in capsys.readouterr().out


@pytest.mark.parametrize("c", [1e308, 1.7e308])
def test_analyze_passes_near_the_float_maximum(c, tmp_path, capsys):
    """analyze on c I_2 exits 0 with an empty stderr, RuntimeWarning raised as
    an error: the spot check, whose products overflow, is formed again on
    H / max|H| (it read NaN, after seven warnings)."""
    path = tmp_path / "big.json"
    save_matrix(path, c * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli_main(["analyze", str(path), "--output", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["residuals"]["inner_product_hermiticity"] <= 1e-15


def test_an_ill_conditioned_metric_is_refused_as_a_verification_failure(tmp_path, capsys):
    """kappa(eta) = kappa(Psi)^2 = 4e12 is above the 1e8 ceiling: analyze
    prints the line metric prints, its report's metric stage unwrapped, and
    every command that needs the metric exits 1, as for kappa(Psi) > 1e8."""
    path = tmp_path / "ill.json"
    save_matrix(path, np.array([[1.0, 1e6], [0.0, 2.0]]))
    refusals = {
        "analyze": "SingularEtaError: constructed metric is too ill-conditioned\n",
        "metric": "SingularEtaError: constructed metric is too ill-conditioned\n",
        "hermitize": "SingularEtaError: the positive metric A^dagger A is too ill-conditioned\n",
    }
    for command, line in refusals.items():
        assert cli_main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", line)


def test_tau_refuses_a_small_asymmetric_block(tmp_path, capsys):
    """A coefficient block 1e-12 [[1, 2], [3, 1]] is refused as asymmetric
    (exit 2), as the same block at scale 1 is."""
    matrix_path, coeff_path = tmp_path / "h4.json", tmp_path / "asym.json"
    save_matrix(matrix_path, np.diag([1.0, 2.0, 3.0, 3.0]))
    one = np.ones((1, 1), dtype=complex)
    for scale in (1e-12, 1.0):
        block = scale * np.array([[1.0, 2.0], [3.0, 1.0]], dtype=complex)
        save_coefficients(coeff_path, CoefficientFamily((one, one, block)))
        assert cli_main(["tau", str(matrix_path), "--coeffs", str(coeff_path)]) == 2
        assert capsys.readouterr().err == (
            "AsymmetricCoefficientsError: coefficient block 2 is not symmetric\n"
        )


def test_hermitize_paired_exits_one(paired_matrix, capsys):
    assert cli_main(["hermitize", paired_matrix]) == 1
    assert "SpectrumNotReal" in capsys.readouterr().err


def test_tau_with_coefficients(tmp_path, rng, capsys):
    h = planted_matrix(rng, 3, "real", degenerate=False).matrix
    matrix_path = tmp_path / "m.json"
    save_matrix(matrix_path, h)
    coeffs = CoefficientFamily(tuple(2.0 * np.eye(1, dtype=complex) for _ in range(3)))
    coeff_path = tmp_path / "c.json"
    save_coefficients(coeff_path, coeffs)
    assert cli_main(["tau", str(matrix_path), "--coeffs", str(coeff_path)]) == 0
    assert "intertwining_residual" in capsys.readouterr().out


@pytest.mark.parametrize("payload", [[[1, 2]], ["abc"], {"n": 1, "data": [[1.0, 0.0]]}])
def test_tau_refuses_coefficients_that_are_not_objects(payload, tmp_path, capsys):
    matrix_path = tmp_path / "m.json"
    save_matrix(matrix_path, np.diag([1.0, 2.0, 3.0]))
    coeff_path = tmp_path / "c.json"
    coeff_path.write_text(json.dumps(payload))
    assert cli_main(["tau", str(matrix_path), "--coeffs", str(coeff_path)]) == 2
    assert capsys.readouterr().err.startswith("ValueError: ")


def test_symmetry_command(paired_matrix, capsys):
    assert cli_main(["symmetry", "--output", "json", paired_matrix]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact_symmetry"] is False
    assert payload["commutation_residual"] <= 1e-10


def test_evolve_check(real_matrix):
    assert cli_main(["evolve-check", real_matrix, "--t", "0.7"]) == 0


@pytest.mark.parametrize(
    "data, t, err",
    [
        ([[1, 0], [0, 0], [0, 0], [2, 0]], "1e308",
         "PseudoHermError: exp(-iHt) overflows at t = 1.000e+308 (max|H| = 2.000e+00)\n"),
        ([[0, 0], [1, 0], [-1, 0], [0, 0]], "800",
         "PseudoHermError: exp(-iHt) overflows at t = 8.000e+02 (max|H| = 1.000e+00)\n"),
        ([[0, 0], [1, 0], [-1, 0], [0, 0]], "360",
         "PseudoHermError: U^dagger eta U overflows at t = 3.600e+02 (max|H| = 1.000e+00)\n"),
    ],
    ids=["tH", "expm", "invariant"],
)
def test_evolve_check_refuses_an_overflow(data, t, err, tmp_path, capsys):
    """An overflow in t H, exp(-iHt) or U^dagger eta U is an input error (exit 2,
    one line), not a failed invariance with a NaN residual."""
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": 2, "data": data}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli_main(["evolve-check", str(path), "--t", t]) == 2
    assert capsys.readouterr() == ("", err)


def test_evolve_check_requires_t(real_matrix, capsys):
    assert cli_main(["evolve-check", real_matrix]) == 2


def test_pt_model_runs(capsys, tmp_path):
    out_path = tmp_path / "h.json"
    code = cli_main(
        ["pt-model", "--n", "21", "--L", "5", "--eps", "0.1", "--output", "json",
         "--save", str(out_path)]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parity_intertwining_residual"] == 0.0
    assert payload["pt_commutation_residual"] == 0.0
    assert payload["eta_intertwining_residual"] <= 1e-9
    assert out_path.exists()


def reference_pt_model_payload(n, v2, eps, tol=1e-10) -> dict:
    """The pt-model payload from the public functions: the command's earlier
    body, kept as reference.  The adapted system takes the default parity,
    the real-form solve of the exactly PT-symmetric lattice; every other
    step the dense parity matrix."""
    spec = make_lattice(n, 10.0, 1.0, "x^2", v2, eps)
    h = build_pt_hamiltonian(spec)
    p = parity_matrix(n)
    r_parity, r_ptsym = pt_commutation_residuals(h, p)
    system = pt_adapted_eigensystem(h, None, tol)
    cls = classify_spectrum(system)
    tau = canonical_tau(system)
    eta = eta_from_tau_pt(h, tau, p, tol)
    return {
        "spectrum_class": cls.tag.value,
        "parity_intertwining_residual": r_parity / scale_of(h),
        "pt_commutation_residual": r_ptsym / scale_of(h),
        "eta_intertwining_residual": is_pseudo_hermitian(h, eta, tol).residual,
        "time_reversal_intertwining": is_anti_pseudo_hermitian(h, time_reversal(n), tol).residual,
        "levels": [
            {"energy": [lv.energy.real, lv.energy.imag], "multiplicity": lv.multiplicity}
            for lv in system.levels
        ],
    }


PT_ARGV = ["pt-model", "--L", "10", "--output", "json"]


@pytest.mark.parametrize(
    "n, v2, eps",
    [(41, v2, eps) for v2 in ("x", "x^3") for eps in (0.1, 1.0)] + [(81, "x", 0.1)],
)
def test_pt_model_payload_matches_reference_bitwise(n, v2, eps, capsys):
    assert cli_main([*PT_ARGV, "--n", str(n), "--v2", v2, "--eps", str(eps)]) == 0
    out = capsys.readouterr().out
    # json writes each float as its shortest round-trip repr, so equal text is equal bits
    assert out == json.dumps(reference_pt_model_payload(n, v2, eps), indent=2) + "\n"


def test_pt_model_lattice_limit_keeps_its_refusal(capsys):
    with pytest.raises(NotDiagonalizableError) as ref:
        reference_pt_model_payload(81, "x^3", 0.1)
    assert cli_main([*PT_ARGV, "--n", "81", "--v2", "x^3", "--eps", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"NotDiagonalizableError: {ref.value}\n"


def hermitian_lattice(n):
    """The pt-model lattice at eps = 0: real symmetric, so never defective."""
    return build_pt_hamiltonian(make_lattice(n, 10.0, eps=0.0))


def test_a_hermitian_lattice_passes_at_a_narrower_cluster_gap(capsys):
    """The default gap 1e-8 max|H| merges the n = 3 lattice's eigenvalues
    100.0100000 and 100.0100005 into one level, which then fails its
    reconstruction (an open defect, pinned by the merged-levels row of
    EXIT_CODES); at gap 1e-9 every level is simple and every identity holds."""
    h3 = hermitian_lattice(3)
    assert np.max(np.abs(h3 - h3.T)) == 0.0 and not np.iscomplex(h3).any()
    with pytest.raises(NotDiagonalizableError, match="reconstruction residual"):
        biorthonormal_eigensystem(h3)
    assert [lv.multiplicity for lv in biorthonormal_eigensystem(h3, cluster_gap=1e-9).levels] == [1, 1, 1]
    assert cli_main(["pt-model", "--n", "41", "--eps", "0"]) == 1
    assert cli_main(["pt-model", "--n", "41", "--eps", "0", "--cluster-gap", "1e-9"]) == 0


def test_factor_command(tmp_path, rng, capsys):
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = (c + c.T) / 2
    path = tmp_path / "c.json"
    save_matrix(path, c)
    assert cli_main(["factor", "--output", "json", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"] <= 1e-10


def test_a_factor_residual_above_tol_exits_one(tmp_path, capsys):
    """A factorization residual above --tol is a verification failure: the
    command prints the normalized residual it compared, and v, and exits 1."""
    s = random_symmetric_invertible(np.random.default_rng(1), 6, 1e6)
    c = (s + s.T) / 2  # kappa(c) = 6.9e4, max|c| = 3.8e4
    path = tmp_path / "c.json"
    save_matrix(path, c)
    assert cli_main(["factor", "--output", "json", str(path), "--tol", "1e-15"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    v = matrix_from_dict(payload["v"])
    residual = np.max(np.abs(v @ v.T - c)) / np.max(np.abs(c))
    assert payload["residual"] == residual > 1e-15
    assert captured.err == ""
    assert cli_main(["factor", str(path)]) == 0


def test_missing_file_exits_two(capsys):
    assert cli_main(["analyze", "/nonexistent/m.json"]) == 2


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli_main(["analyze", str(path)]) == 2


def test_wrong_length_data_exits_two(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"n": 2, "data": [[1.0, 0.0]]}))
    assert cli_main(["analyze", str(path)]) == 2


def test_usage_error_exits_two(capsys):
    assert cli_main(["no-such-command"]) == 2


def test_tolerance_flags_are_plumbed(identity2, capsys):
    code = cli_main(["analyze", "--tol", "1e-8", "--cluster-gap", "1e-6", identity2])
    assert code == 0
    assert "all_real" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--tol", "nan", "--output", "json"],
        ["factor", "--tol", "nan"],
        ["analyze", "--tol", "-1"],
        ["analyze", "--tol", "0"],
        ["analyze", "--tol", "inf"],
        ["metric", "--tol", "abc"],
        ["analyze", "--cluster-gap", "nan"],
        ["analyze", "--cluster-gap", "-1"],
        ["analyze", "--cluster-gap", "inf"],
        ["evolve-check", "--t", "nan"],
        ["evolve-check", "--t=-inf"],
        ["pt-model", "--tol", "nan"],
        ["pt-model", "--cluster-gap=-1e-8"],
        ["pt-model", "--eps", "nan"],
        ["pt-model", "--eps", "inf"],
        ["pt-model", "--L", "nan"],
        ["pt-model", "--L", "inf"],
        ["pt-model", "--L", "0"],
        ["pt-model", "--mass", "inf"],
        ["pt-model", "--mass=-1"],
    ],
)
def test_non_finite_or_out_of_range_flags_exit_two(argv, real_matrix, capsys):
    """--tol, --L and --mass must be finite and > 0, --cluster-gap finite and
    >= 0, --t and --eps finite."""
    matrix = [] if argv[0] == "pt-model" else [real_matrix]
    assert cli_main([*argv, *matrix]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    flag = argv[1].split("=")[0]
    assert f"argument {flag}: must be a finite number" in err


SITES = "ValueError: n_sites must be odd and at least 3\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--n", "1"], SITES),
        (["--n", "0"], SITES),
        (["--n=-3"], SITES),
        (["--n", "5", "--L", "1e200"], "ValueError: potential samples v1 must be finite\n"),
        (["--n", "5", "--L", "1e308", "--v1", "0"],
         "ValueError: potential samples v2 must be finite\n"),
        (["--n", "5", "--mass", "1e-320"],
         "ValueError: kinetic coefficient -1/(2 m h^2) = -inf (mass 1.000e-320, spacing "
         "5.000e+00) makes H non-finite\n"),
        (["--n", "5", "--L", "1e308", "--v1", "0", "--v2", "0"],
         "ValueError: grid spacing 2L/(n-1) = inf (L 1.000e+308, n 5) is not finite\n"),
    ],
    ids=["n-1", "n-0", "n-minus-3", "L-1e200", "L-1e308", "mass-1e-320", "L-1e308-zero"],
)
def test_pt_model_refuses_unbuildable_lattices(argv, err, capsys):
    """A site count without a center site, samples that overflow and a kinetic
    coefficient that overflows are input errors (exit 2), refused by name
    before a grid spacing is divided by zero or a RuntimeWarning is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli_main(["pt-model", *argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


def test_pt_model_refuses_an_overflowing_verification(capsys):
    """A diagonal near the float maximum overflows the verification products:
    the first non-finite residual, right_eigen = inf, refuses the lattice
    (exit 1), with no RuntimeWarning."""
    argv = ["pt-model", "--n", "5", "--v1", "x^440", "--L", "5", "--mass", "1.6e-309"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "NotDiagonalizableError: could not reach tolerance 1.0e-10: right_eigen residual is "
        "inf; input is near-defective, has spectral clusters wider than tol but narrower "
        "than the cluster gap, or tol is too tight for its conditioning\n"
    )


@pytest.mark.parametrize("argv", [["--cluster-gap", "0"], ["--t", "0"], ["--t", "-0.5"]])
def test_boundary_flags_are_accepted(argv, identity2, capsys):
    assert cli_main(["evolve-check", "--t", "0.7", *argv, identity2]) == 0


COMMANDS = (
    ["analyze"], ["metric"], ["symmetry"], ["hermitize"], ["evolve-check", "--t", "0.7"], ["tau"]
)
# Exit codes of the commands above, in that order.  A failed identity is a
# residual above tol (exit 1), never an input or usage error (exit 2).  tau
# needs no pairing, so it exits 0 on every spectrum class.
EXIT_CODES = {
    "real": [0, 0, 0, 0, 0, 0],
    "paired": [0, 0, 0, 1, 0, 0],
    "unpaired": [0, 1, 1, 1, 1, 0],
    "near-real-5e-9": [1, 1, 1, 1, 1, 0],
    "near-real-5e-10": [1, 0, 1, 1, 1, 0],  # eta intertwines, X does not commute
    "ill-conditioned-metric": [1, 1, 1, 1, 1, 0],  # kappa(eta) = kappa(Psi)^2 = 4e12 > 1e8
    "merged-levels": [1, 1, 1, 1, 1, 1],  # a Hermitian lattice, two levels merged by the gap
    "string-data": [2, 2, 2, 2, 2, 2],  # malformed input, refused before any analysis
    "list-file": [2, 2, 2, 2, 2, 2],
    "string-file": [2, 2, 2, 2, 2, 2],
    "nan-data": [2, 2, 2, 2, 2, 2],
}
MALFORMED = {
    "string-data": {"n": 1, "data": [["1.5", "0"]]},
    "list-file": [1, 2],
    "string-file": "abc",
    "nan-data": {"n": 1, "data": [[float("nan"), 0.0]]},  # json.dumps writes a NaN token
}


NEAR_REAL = {"near-real-5e-9": 5e-9, "near-real-5e-10": 5e-10}


def _exit_table_matrix(name):
    if name in NEAR_REAL:
        return near_real_matrix(NEAR_REAL[name])
    if name == "ill-conditioned-metric":
        return np.array([[1.0, 1e6], [0.0, 2.0]])  # kappa(Psi) = 2e6: a verified eigensystem
    if name == "merged-levels":
        return hermitian_lattice(3)
    return planted_matrix(np.random.default_rng(1), 6, name).matrix


@pytest.mark.parametrize("name", list(EXIT_CODES))
def test_exit_code_table(name, tmp_path, capsys):
    path = tmp_path / "h.json"
    if name in MALFORMED:
        path.write_text(json.dumps(MALFORMED[name]))
    else:
        save_matrix(path, _exit_table_matrix(name))
    codes = [cli_main([cmd[0], str(path), *cmd[1:]]) for cmd in COMMANDS]
    assert (2 in codes) is (name in MALFORMED)
    assert codes == EXIT_CODES[name]


def test_seed_is_an_analyze_option(real_matrix, capsys):
    assert cli_main(["analyze", "--seed", "3", real_matrix]) == 0
    assert cli_main(["metric", "--seed", "3", real_matrix]) == 2
    assert cli_main(["factor", "--cluster-gap", "1e-6", real_matrix]) == 2


def _text_of(payload: dict) -> str:
    """The text rendering of a json payload: its keys in order, scalars with
    str, nested dicts as indented lines and each matrix elided."""
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict) and set(value) == {"n", "data"}:
            lines.append(f"{key}: (use --output json)")
        elif isinstance(value, dict):
            lines += [f"{key}:", *(f"  {k}: {v}" for k, v in value.items())]
        else:
            lines.append(f"{key}: {value}")
    return "".join(line + "\n" for line in lines)


TEXT_ARGV = {
    "analyze": ["analyze", "--seed", "0"],
    "metric": ["metric"],
    "tau": ["tau"],
    "symmetry": ["symmetry"],
    "hermitize": ["hermitize"],
    "evolve-check": ["evolve-check", "--t", "0.7"],
    "factor": ["factor"],
    "pt-model": ["pt-model", "--n", "21", "--L", "5"],
}


@pytest.mark.parametrize("command", list(TEXT_ARGV))
def test_text_output_is_the_json_payload(command, tmp_path, capsys):
    h = planted_matrix(np.random.default_rng(1), 6, "real").matrix
    path = tmp_path / "h.json"
    save_matrix(path, (h + h.T) / 2 if command == "factor" else h)
    argv = TEXT_ARGV[command] + ([] if command == "pt-model" else [str(path)])
    assert cli_main([*argv, "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert cli_main([*argv, "--output", "text"]) == 0
    assert capsys.readouterr().out == _text_of(payload)


def test_analyze_is_reproducible_without_seed(real_matrix, capsys):
    outs = []
    for _ in range(2):
        assert cli_main(["analyze", "--output", "json", real_matrix]) == 0
        outs.append(capsys.readouterr().out)
    assert "inner_product_hermiticity" in outs[0]
    assert outs[0] == outs[1]


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("output", ["json", "text"])
def test_closed_stdout_exits_two(output, real_matrix, capsys):
    with contextlib.redirect_stdout(_ClosedPipe()):
        code = cli_main(["metric", "--output", output, real_matrix])
    assert code == 2
    assert capsys.readouterr().err.startswith("BrokenPipeError: ")
