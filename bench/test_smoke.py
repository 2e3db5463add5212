"""Smoke test of the benchmark itself.

Run from the repository root with ``python -m pytest -q bench/test_smoke.py``.
It runs every workload on a cut-down pool, traced and untraced, checks that
every metric named in ``BENCHMARK.json`` is printed, and checks that the
ground-truth checks reject corrupted outputs.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import pseudoherm as ph  # noqa: E402
import pseudoherm.cli  # noqa: E402,F401
import run  # noqa: E402

MODULES = (np, ph, inputs, checks)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def small_pools(monkeypatch):
    """Cut every pool to a few inputs so that a whole pass is quick."""
    for name in ("planted_small_pool", "planted_large_pool"):
        full = getattr(inputs, name)
        monkeypatch.setattr(inputs, name, lambda rng, full=full: full(rng)[:4])
    monkeypatch.setattr(inputs, "LARGE_SIZES", (64,))
    monkeypatch.setattr(
        inputs, "LATTICE_SWEEP", ((41, "x", 0.1), (81, "x^3", 0.1), (121, "x^3", 1.0))
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_workload_prints_every_named_metric(small_pools, workload, trace):
    out = run.run(workload, 7, 0.0, trace, MODULES, 1)
    result = out["result"]
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and out["canary_caught"]
    assert result["attempted"] >= 3
    assert result["failed"] == sum(f["count"] for f in out["failures"].values())
    if workload == "pt-lattice":
        # n=121 with v2=x^3 cannot be built (D4); all three of its ops fail.
        assert out["failures"]["fail.AsymmetricPotentialError"]["count"] % 3 == 0
        assert result["failed"] >= 3


def test_planted_generator_reaches_large_n():
    rng = np.random.default_rng(0)
    item = inputs.planted(rng, 64, "real", 3)
    w = np.sort(np.linalg.eigvals(item.h).real)
    want = np.sort(np.concatenate([[e.real] * d for e, d in item.levels]))
    assert len(item.levels) == 62
    assert np.max(np.abs(w - want)) < 1e-8 * np.max(np.abs(want))


def _passing_report():
    rng = np.random.default_rng(3)
    item = inputs.planted(rng, 8, "paired", 2)
    report = ph.real_spectrum_equivalence_report(item.h, checks.TOL)
    checks.check_report(report, json.dumps(report), 8, item.spec_class)
    return item, report


@pytest.mark.parametrize(
    "corrupt, cause",
    [
        (lambda r: r.update(spectrum_class="all_real"), "WrongClass"),
        (lambda r: r["residuals"].update(completeness=1e-6), "ResidualAboveTol"),
        (lambda r: r["refusals"].clear(), "RefusalMismatch"),
        (lambda r: r.update(exact_symmetry=True), "WrongSymmetry"),
        (lambda r: r["certificates"].update(X=None), "MissingCertificate"),
    ],
)
def test_corrupted_report_is_flagged(corrupt, cause):
    item, report = _passing_report()
    bad = copy.deepcopy(report)
    corrupt(bad)
    with pytest.raises(checks.OpFailure) as info:
        checks.check_report(bad, json.dumps(bad), 8, item.spec_class)
    assert info.value.cause == cause


def test_wrong_levels_are_flagged():
    item, _ = _passing_report()
    levels = [{"energy": [e.real, e.imag], "multiplicity": d} for e, d in item.levels]
    checks.check_levels(levels, item.levels, "cli")
    levels[0]["multiplicity"] += 1
    with pytest.raises(checks.OpFailure):
        checks.check_levels(levels, item.levels, "cli")


def test_only_open_defects_are_known():
    item = inputs.planted(np.random.default_rng(0), 8, "real", scale=1e5)
    match = "report/hermitized_eigenvalue_match"
    assert checks.known_defect(item, "ResidualAboveTol", match) == "D2"
    assert checks.known_defect(item, "ResidualAboveTol", "report/completeness") is None
    assert checks.known_defect(item, "WrongClass", "report") == "D1"
    item.scale = 1.0
    assert checks.known_defect(item, "ResidualAboveTol", match) is None
    assert checks.known_defect(item, "WrongClass", "report") is None
    assert checks.known_defect(item, "PseudoHermError", "gauge") is None
    item.levels[0] = (item.levels[0][0], 2)
    assert checks.known_defect(item, "PseudoHermError", "gauge") == "takagi-gap"
    lattice = inputs.Item("lattice", None, lattice=(121, "x^3", 0.1))
    assert checks.known_defect(lattice, "AsymmetricPotentialError", "cli/exit2") == "D4"
    assert checks.known_defect(lattice, "NotDiagonalizableError", "cli/exit1") is None


def test_wrong_output_makes_the_run_incorrect(small_pools, monkeypatch):
    canonicalize = ph.canonicalize_tau
    calls = []

    def sometimes_doubled(system, coeffs, tol):
        """Every other call returns twice the automorphism."""
        new_system, tau = canonicalize(system, coeffs, tol)
        calls.append(None)
        return new_system, ph.AntilinearOperator((1 + len(calls) % 2) * tau.matrix)

    monkeypatch.setattr(ph, "canonicalize_tau", sometimes_doubled)
    out = run.run("planted-small", 7, 0.0, False, MODULES, 1)
    assert out["canary_caught"]
    assert not out["result"]["correct"]
    assert out["context"]["unexpected_failures"]


def test_counts_do_not_depend_on_the_number_of_passes(small_pools):
    # An untraced run of zero seconds makes one pass, a traced one two.
    one = run.run("pt-lattice", 7, 0.0, False, MODULES, 1)["result"]
    two = run.run("pt-lattice", 7, 0.0, True, MODULES, 1)["result"]
    assert (one["attempted"], one["failed"]) == (two["attempted"], two["failed"])
