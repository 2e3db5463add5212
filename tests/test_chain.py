"""The chain solved once: call counts and scale-invariant report residuals."""

import sys

import numpy as np
import pytest

import pseudoherm.eigensystem
import pseudoherm.metric
from pseudoherm import real_spectrum_equivalence_report
from pseudoherm.cli import cli_main
from pseudoherm.ensembles import planted_matrix
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
    metric_calls = count_calls(monkeypatch, pseudoherm.metric.build_metric)
    eigvals_calls = count_calls(monkeypatch, np.linalg.eigvals)
    assert real_spectrum_equivalence_report(h)["spectrum_class"] == "all_real"
    assert (len(metric_calls), len(eigvals_calls)) == (1, 0)

    system_calls = count_calls(monkeypatch, pseudoherm.eigensystem.biorthonormal_eigensystem)
    path = tmp_path / "h.json"
    save_matrix(path, h)
    assert cli_main(["analyze", str(path)]) == 0
    assert len(system_calls) == 1


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
