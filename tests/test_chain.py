"""The chain solved once: call counts, chain objects read off the
eigensystem, and scale-invariant report residuals."""

import json
import sys

import numpy as np
import pytest

import pseudoherm.eigensystem
import pseudoherm.hermitize
import pseudoherm.io
import pseudoherm.metric
from pseudoherm import (
    PseudoCanonicalTransform,
    antilinear_symmetry,
    apply_transform,
    build_metric,
    build_pt_hamiltonian,
    canonical_tau,
    make_lattice,
    metric_from_transform,
    real_spectrum_equivalence_report,
)
from pseudoherm._linalg import hermitian_defect
from pseudoherm.cli import cli_main
from pseudoherm.eigensystem import CLUSTER_GAP_FACTOR, _cluster_indices, _raw_levels
from pseudoherm.ensembles import planted_matrix
from pseudoherm.hermitize import _report
from pseudoherm.io import save_matrix


def count_calls(monkeypatch, fn) -> list:
    """Replace ``fn`` by a counting wrapper wherever the package or
    numpy.linalg holds a reference to it; returns the list of calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    owners = [m for name, m in sys.modules.items() if name.startswith("pseudoherm")]
    for owner in [*owners, np.linalg]:
        for attr, val in list(vars(owner).items()):
            if val is fn:
                monkeypatch.setattr(owner, attr, counted)
    return calls


def test_report_and_analyze_solve_once(monkeypatch, rng, tmp_path, capsys):
    h = planted_matrix(rng, 6, "real").matrix
    path = tmp_path / "h.json"
    save_matrix(path, h)
    metric_calls = count_calls(monkeypatch, pseudoherm.metric.build_metric)
    eigvals_calls = count_calls(monkeypatch, np.linalg.eigvals)
    svd_calls = count_calls(monkeypatch, np.linalg.svd)
    solve_calls = count_calls(monkeypatch, np.linalg.solve)
    assert real_spectrum_equivalence_report(h)["spectrum_class"] == "all_real"
    # one SVD each for kappa(Psi), kappa(eta) and kappa(A); X and A H A^{-1}
    # are products of Psi and Phi, not solves
    counts = [len(c) for c in (metric_calls, eigvals_calls, svd_calls, solve_calls)]
    assert counts == [1, 0, 3, 0]

    system_calls = count_calls(monkeypatch, pseudoherm.eigensystem.biorthonormal_eigensystem)
    to_dict_calls = count_calls(monkeypatch, pseudoherm.io.matrix_to_dict)
    assert cli_main(["analyze", str(path)]) == 0
    assert (len(system_calls), len(to_dict_calls)) == (1, 0)


def planted_with_degenerate_level(seed: int, dim: int, kind: str):
    rng = np.random.default_rng(seed)
    while True:
        pm = planted_matrix(rng, dim, kind)
        if any(d > 1 for _, d in pm.levels):
            return pm.matrix


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
    """X, A H A^{-1} and the positive metric of the report agree with
    antilinear_symmetry, apply_transform and metric_from_transform."""
    hermiticity_args = []

    def recorded(m):
        hermiticity_args.append(m)
        return hermitian_defect(m)

    monkeypatch.setattr(pseudoherm.hermitize, "hermitian_defect", recorded)
    report, sys_, cls = _report(h, 1e-10, 1e-8, None, 0)
    certs = report["certificates"]
    eta = build_metric(sys_, cls)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    assert close(certs["eta"], eta.matrix)
    assert close(certs["X"], antilinear_symmetry(eta, canonical_tau(sys_)).matrix)
    if cls.is_real:
        transform = PseudoCanonicalTransform(certs["A"])
        assert close(certs["eta"], metric_from_transform(transform).matrix)
        assert close(hermiticity_args[-1], apply_transform(transform, h))
    else:
        assert certs["A"] is None


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


def test_raw_levels_stacked_qr_is_bitwise_per_level_qr():
    rng = np.random.default_rng(11)
    s = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    h = s @ np.diag([1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 5.0, 5.0]) @ np.linalg.inv(s)
    w, v = np.linalg.eig(h)
    groups = _cluster_indices(w, CLUSTER_GAP_FACTOR * np.max(np.abs(h)))
    want = sorted(
        ((complex(np.mean(w[idx])), np.linalg.qr(v[:, idx])[0]) for idx in groups),
        key=lambda t: (t[0].real, t[0].imag),
    )
    got = _raw_levels(h, None)
    assert sorted(q.shape[1] for _, q in got) == [1, 1, 2, 2, 3]
    for (e_got, q_got), (e_want, q_want) in zip(got, want):
        assert e_got == e_want
        assert q_got.tobytes() == np.ascontiguousarray(q_want).tobytes()


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
