"""The timed operations and their ground-truth checks.

Each op times one public entry point between two plain ``np.linalg.eig``
calls on the same matrix, then verifies the output.  An op fails when the program
raises, exits non-zero on a healthy input, or returns something that
disagrees with the ground truth; :class:`OpFailure` names the cause and the
stage so that failures can be broken down.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from inputs import LATTICE_HALF_WIDTH, MANDATED_REFUSALS, Item, symmetric_coefficients

TOL = 1e-10
# Agreement between a program result and an independently computed
# reference (energies, automorphism entries), relative to its scale.
MATCH_TOL = 1e-8
# A reference eigenvalue is non-real when |Im E| exceeds this share of
# max|H|; on the healthy lattices real levels sit below 1e-11 and complex
# ones above 1e-3 of max|H|.
NONREAL_REL = 1e-6
PT_RESIDUALS = (
    "parity_intertwining_residual",
    "pt_commutation_residual",
    "eta_intertwining_residual",
    "time_reversal_intertwining",
)

# Bound at import, so that a traced run does not count the floor.
EIG = np.linalg.eig

# Failures of open ROADMAP defects.  They are counted as failed ops, but an
# op that fails in any other way makes the whole run incorrect.
#
# D1: the absolute realness tolerance loses the realness or the conjugate
# partner of a level once the scale reaches about 1e5 (seen from 6e5 up).
D1_MIN_SCALE = 1e4
# D2: the absolute residual ``hermitized_eigenvalue_match`` exceeds tol on
# real spectra from a scale of about 1e3 up (seen from 9e2 up).
D2_MIN_SCALE = 1e2
# takagi-gap: ``symmetric_factor`` groups singular values only within a
# relative gap of 1e-8, so a d >= 2 coefficient block whose singular values
# lie about 1e-7 apart gets a factor with residual above tol (rare: one
# gauge op in tens of thousands).
# The lattice sweep is the same for every seed, so its known failures are
# listed per configuration: D4 (x**3 is not exactly odd at n=121) and the
# lattice limits, eigenvector bases too ill-conditioned for tol 1e-10.
LATTICE_DEFECTS = {
    (121, "x^3", 0.1): ("D4", "AsymmetricPotentialError"),
    (121, "x^3", 1.0): ("D4", "AsymmetricPotentialError"),
    (81, "x^3", 0.1): ("lattice-limit", "NotDiagonalizableError"),
    (81, "x^3", 1.0): ("lattice-limit", "NotDiagonalizableError"),
    (161, "x^3", 0.1): ("lattice-limit", "NotDiagonalizableError"),
    (161, "x^3", 1.0): ("lattice-limit", "NotDiagonalizableError"),
    (121, "x", 1.0): ("lattice-limit", "NotDiagonalizableError"),
    (161, "x", 1.0): ("lattice-limit", "NotDiagonalizableError"),
    (81, "x", 1.0): ("lattice-limit", "NotASymmetryError"),
}


class OpFailure(Exception):
    """An op whose output disagrees with the ground truth."""

    def __init__(self, cause: str, stage: str, detail: str = ""):
        super().__init__(f"{cause} at {stage}: {detail}")
        self.cause = cause
        self.stage = stage


@dataclass
class Outcome:
    kind: str
    label: str
    ok: bool
    seconds: float | None = None
    eig_seconds: float | None = None
    cause: str | None = None
    stage: str | None = None
    defect: str | None = None

    @property
    def xeig(self) -> float:
        return self.seconds / self.eig_seconds


def failure_of(exc: Exception, stage: str) -> tuple[str, str]:
    """(cause, stage) of an exception raised inside an op."""
    if isinstance(exc, OpFailure):
        return exc.cause, exc.stage
    inner = getattr(exc, "stage", None)
    if inner is not None and exc.__cause__ is not None:
        return type(exc.__cause__).__name__, f"{stage}/{inner}"
    return type(exc).__name__, stage


def known_defect(item: Item, cause: str, stage: str) -> str | None:
    """The open defect a failure of ``item`` comes from, or None."""
    if item.lattice is not None:
        defect, known_cause = LATTICE_DEFECTS.get(item.lattice, (None, None))
        return defect if cause == known_cause else None
    if cause == "WrongClass" and item.spec_class != "unpaired" and item.scale >= D1_MIN_SCALE:
        return "D1"
    d2 = cause == "ResidualAboveTol" and stage.endswith("/hermitized_eigenvalue_match")
    if d2 and item.spec_class == "all_real" and item.scale >= D2_MIN_SCALE:
        return "D2"
    degenerate = any(mult > 1 for _, mult in item.levels)
    if cause == "PseudoHermError" and stage == "gauge" and degenerate:
        return "takagi-gap"
    return None


def time_eig(h: np.ndarray):
    t0 = time.perf_counter()
    w, _ = EIG(h)
    return time.perf_counter() - t0, w


def bracketed(h: np.ndarray | None, fn):
    """Time ``fn()`` between two plain eigs of ``h``.

    Returns (op seconds, mean of the two eig times, eigenvalues, result);
    without a matrix the eig time and eigenvalues are None.
    """
    if h is None:
        t0 = time.perf_counter()
        result = fn()
        return time.perf_counter() - t0, None, None, result
    before, w = time_eig(h)
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    after, _ = time_eig(h)
    return seconds, (before + after) / 2.0, w, result


def reference_class(w: np.ndarray, h: np.ndarray) -> str:
    """Class of a parity-time symmetric lattice read off its eigenvalues.

    The symmetry pairs every non-real eigenvalue with its conjugate, so the
    only classes the theory allows are all-real and conjugate-paired.
    """
    nonreal = np.abs(w.imag) > NONREAL_REL * np.max(np.abs(h))
    return "conjugate_paired" if np.any(nonreal) else "all_real"


def check_refusals(refusals, cls: str, stage: str) -> None:
    if set(refusals) != MANDATED_REFUSALS[cls]:
        raise OpFailure("RefusalMismatch", stage, f"{sorted(refusals)} for class {cls}")


def check_residuals(residuals: dict, stage: str) -> None:
    """Fail at stage ``<stage>/<name>`` of the worst residual above tol."""
    name = max(residuals, key=residuals.get)
    if not residuals[name] <= TOL:
        raise OpFailure("ResidualAboveTol", f"{stage}/{name}", f"{residuals[name]:.3e}")


def check_class(cls: str, truth: str, stage: str) -> None:
    if cls != truth:
        raise OpFailure("WrongClass", stage, f"{cls}, expected {truth}")


def check_report(report: dict, text: str, n: int, truth: str) -> None:
    """Verify a ``real_spectrum_equivalence_report`` and its JSON text."""
    if report["input"]["n"] != n or not text:
        raise OpFailure("BadPayload", "report", "input size or JSON text")
    cls = report["spectrum_class"]
    check_class(cls, truth, "report")
    check_refusals(report["refusals"], cls, "report")
    check_residuals(report["residuals"], "report")
    # For a real spectrum X = eta^-1 tau keeps every level; for a paired
    # one it swaps conjugate levels; an unpaired one has no metric at all.
    expected = {
        "all_real": (True, True),
        "conjugate_paired": (False, False),
        "unpaired": (None, None),
    }[cls]
    got = (report["exact_symmetry"], report["positive_definite_metric"])
    if got != expected:
        raise OpFailure("WrongSymmetry", "report", f"(exact, pd)={got}, expected {expected}")
    certs = report["certificates"]
    present = {k for k, v in certs.items() if v is not None}
    wanted = {"all_real": {"eta", "X", "A"}, "conjugate_paired": {"eta", "X"}, "unpaired": set()}
    if present != wanted[cls]:
        raise OpFailure("MissingCertificate", "report", f"{sorted(present)}")


def check_levels(levels: list, truth: list[tuple[complex, int]], stage: str) -> None:
    """Match reported levels one-to-one with the truth by nearest energy."""
    got = np.array([complex(*lv["energy"]) for lv in levels])
    want = np.array([e for e, _ in truth])
    if len(got) != len(want):
        raise OpFailure("WrongLevels", stage, f"{len(got)} levels, expected {len(want)}")
    dist = np.abs(got[:, None] - want[None, :])
    nearest = np.argmin(dist, axis=1)
    scale = max(np.max(np.abs(want)), 1e-300)
    worst = np.max(dist[np.arange(len(got)), nearest])
    if len(set(nearest.tolist())) != len(want) or worst > MATCH_TOL * scale:
        raise OpFailure("WrongLevels", stage, "energies do not match the expected levels")
    for lv, j in zip(levels, nearest):
        if lv["multiplicity"] != truth[j][1]:
            raise OpFailure("WrongLevels", stage, "multiplicity differs from the planted level")


def run_cli(cli_main, argv: list[str]):
    """(exit code, stdout, stderr) of an in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_failure(rc: int, stdout: str, stderr: str) -> OpFailure:
    """Name the cause of a non-zero exit: the error the CLI printed, or, for
    exit 1 with a payload, the residual above tolerance."""
    match = re.match(r"(\w+):", stderr)
    if match:
        return OpFailure(match.group(1), f"cli/exit{rc}", stderr[:200])
    if rc == 1 and stdout:
        payload = json.loads(stdout)
        residuals = payload.get("residuals") or {k: payload[k] for k in PT_RESIDUALS}
        try:
            check_residuals(residuals, "cli/exit1")
        except OpFailure as exc:
            return exc
    return OpFailure(f"Exit{rc}", f"cli/exit{rc}", stderr[:200])


def lattice_argv(item: Item) -> list[str]:
    n, v2, eps = item.lattice
    return [
        "pt-model", "--n", str(n), "--L", str(LATTICE_HALF_WIDTH), "--v2", v2,
        "--eps", str(eps), "--output", "json",
    ]


class Ops:
    """The three ops of a workload, bound to the program under test.

    ``ph`` is the ``pseudoherm`` package and ``cli`` its ``cli`` module;
    they are looked up per call so that a traced run sees its wrappers.
    Lattice classes seen by the report op are kept to check that
    ``pt-model`` agrees with them.
    """

    def __init__(self, ph, cli):
        self.ph = ph
        self.cli = cli
        self.report_class: dict[str, str] = {}

    def _truth(self, item: Item, w: np.ndarray) -> str:
        return item.spec_class or reference_class(w, item.h)

    @staticmethod
    def _setup_failed(exc: Exception | None, stage: str) -> None:
        """Fail the op with the error set-up hit while building its input."""
        if exc is not None:
            raise OpFailure(type(exc).__name__, stage, str(exc)[:200])

    def report(self, item: Item) -> Outcome:
        self._setup_failed(item.build_error, "report/build")

        def op():
            rep = self.ph.real_spectrum_equivalence_report(item.h, TOL)
            return rep, json.dumps(rep)

        seconds, eig_s, w, (rep, text) = bracketed(item.h, op)
        if item.lattice is not None:
            self.report_class[item.label] = rep["spectrum_class"]
        check_report(rep, text, item.h.shape[0], self._truth(item, w))
        return Outcome("report", item.label, True, seconds, eig_s)

    def cli_op(self, item: Item) -> Outcome:
        if item.lattice is None:
            argv = ["analyze", item.path, "--output", "json", "--tol", str(TOL)]
        else:
            argv = lattice_argv(item)
        seconds, eig_s, w, (rc, out, err) = bracketed(
            item.h, lambda: run_cli(self.cli.cli_main, argv)
        )
        if rc != 0:
            raise cli_failure(rc, out, err)
        payload = json.loads(out)
        cls = payload["spectrum_class"]
        if item.lattice is None:
            check_class(cls, item.spec_class, "cli")
            check_refusals(payload["refusals"], cls, "cli")
            check_residuals(payload["residuals"], "cli")
            check_levels(payload["levels"], item.levels, "cli")
        else:
            self._setup_failed(item.build_error, "cli/build")
            check_class(cls, self._truth(item, w), "cli")
            seen = self.report_class.get(item.label)
            if seen is not None and seen != cls:
                raise OpFailure("ClassDisagreement", "cli", f"report {seen}, pt-model {cls}")
            check_residuals({k: payload[k] for k in PT_RESIDUALS}, "cli")
            check_levels(payload["levels"], [(e, 1) for e in w], "cli")
        return Outcome("cli", item.label, True, seconds, eig_s)

    def prepare_gauge(self, item: Item, rng: np.random.Generator) -> None:
        """Build the eigensystem the gauge op starts from and draw its
        random symmetric coefficient family, as part of set-up.

        Every pass then repeats the same op on the same family.  If the
        program cannot build the eigensystem, the gauge op on this input
        fails at stage ``gauge/eigensystem``.
        """
        if item.h is None:
            return
        try:
            item.system = self.ph.biorthonormal_eigensystem(item.h, TOL)
        except self.ph.PseudoHermError as exc:
            item.system_error = exc
            return
        item.blocks = symmetric_coefficients(rng, [lv.multiplicity for lv in item.system.levels])

    def gauge(self, item: Item) -> Outcome:
        """canonicalize_tau on the input's random symmetric coefficient family."""
        self._setup_failed(item.build_error, "gauge/build")
        self._setup_failed(item.system_error, "gauge/eigensystem")
        system, blocks = item.system, item.blocks
        coeffs = self.ph.CoefficientFamily(tuple(blocks))
        seconds, eig_s, _, (new_system, tau) = bracketed(
            item.h, lambda: self.ph.canonicalize_tau(system, coeffs, TOL)
        )

        recovered = self.ph.recover_coefficients(new_system, tau).blocks
        worst = max(float(np.max(np.abs(b - np.eye(len(b))))) for b in recovered)
        if not worst <= MATCH_TOL:
            raise OpFailure("GaugeNotIdentity", "gauge", f"max|c' - 1| = {worst:.3e}")
        phi = system.phi_matrix
        ref = phi @ scipy.linalg.block_diag(*blocks) @ phi.T
        err = np.max(np.abs(tau.matrix - ref)) / np.max(np.abs(ref))
        if not err <= MATCH_TOL:
            raise OpFailure("GaugeChangedTau", "gauge", f"relative change {err:.3e}")
        return Outcome("gauge", item.label, True, seconds, eig_s)
