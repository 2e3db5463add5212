"""Command line front end.

Each ``cmd_*`` computes and returns ``(ok, payload)``; :func:`cli_main`
prints the payload with :func:`_emit`, the only place that formats output.
Exit codes: 0 success, 1 verification failure (a residual or a condition number
above its bound, or a theorem-level obstruction such as an unpaired spectrum),
2 input or usage error, or a failed write of the output (a closed pipe).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import io
from ._linalg import symmetric_defect
from .antilinear import build_tau, is_anti_pseudo_hermitian
from .eigensystem import DEFAULT_TOL, _solve, classify_spectrum
from .errors import (
    AmbiguousPairingError,
    NotDiagonalizableError,
    NotPseudoHermitianError,
    NotPTSymmetricError,
    PseudoHermError,
    ResultNotHermitianError,
    SingularEtaError,
    SpectrumNotRealError,
    UnpairedSpectrumError,
)
from .factor import _symmetric_factor
from .hermitize import ReportStageError, _hermitized, _report, hermitizing_transform
from .metric import _metric, evolution_invariance_check, is_pseudo_hermitian
from .ptmodel import _pt_model, build_pt_hamiltonian, make_lattice
from .symmetry import _canonical_symmetry, _is_exact, commutes_with

VERIFICATION_ERRORS = (
    NotDiagonalizableError,
    UnpairedSpectrumError,
    SpectrumNotRealError,
    AmbiguousPairingError,
    NotPTSymmetricError,
    ResultNotHermitianError,
    NotPseudoHermitianError,
    SingularEtaError,
)


def _emit(args, payload: dict) -> None:
    """Print a command's payload: a matrix (an array) is written in the shared
    matrix format as json, or elided in text."""
    if args.output == "json":
        arrays = {k: io.matrix_to_dict(v) for k, v in payload.items() if isinstance(v, np.ndarray)}
        print(io._json_text({**payload, **arrays}))
        return
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {v}")
        else:
            print(f"{key}: {'(use --output json)' if isinstance(value, np.ndarray) else value}")


def _analysis(args) -> tuple:
    """(H, system, class, H Psi), built as the report builds them."""
    h = io.load_matrix(args.matrix)
    system, hpsi = _solve(h, args.tol, args.cluster_gap)
    return h, system, classify_spectrum(system), hpsi


def _levels_payload(system) -> list:
    e = system._level_energies
    return [
        {"energy": [real, imag], "multiplicity": d}
        for real, imag, d in zip(e.real.tolist(), e.imag.tolist(), system._sizes.tolist())
    ]


def cmd_analyze(args) -> tuple[bool, dict]:
    h = io.load_matrix(args.matrix)
    try:
        report, system, cls = _report(h, args.tol, args.cluster_gap, args.seed)
    except ReportStageError as exc:
        raise exc.__cause__ from None  # the refusal the stage's own command prints
    payload = {
        "spectrum_class": cls.tag.value,
        "levels": _levels_payload(system),
        "pairing": list(cls.pairing),
        "residuals": report["residuals"],
        "refusals": report["refusals"],
        "exact_symmetry": report["exact_symmetry"],
    }
    return all(r <= args.tol for r in report["residuals"].values()), payload


def cmd_metric(args) -> tuple[bool, dict]:
    h, system, cls = _analysis(args)[:3]
    metric = _metric(system, cls)
    check = is_pseudo_hermitian(h, metric, args.tol)
    return check.ok, {
        "spectrum_class": cls.tag.value,
        "positive_definite": metric.positive_definite,
        "intertwining_residual": check.residual,
        "eta": metric.matrix,
    }


def cmd_tau(args) -> tuple[bool, dict]:
    h, system = _analysis(args)[:2]
    coeffs = io.load_coefficients(args.coeffs) if args.coeffs else None
    tau = build_tau(system, coeffs)
    check = is_anti_pseudo_hermitian(h, tau, args.tol)
    sym = symmetric_defect(tau.matrix)
    return check.ok and sym <= args.tol, {
        "symmetry_defect": sym,
        "intertwining_residual": check.residual,
        "tau": tau.matrix,
    }


def cmd_symmetry(args) -> tuple[bool, dict]:
    h, system, cls = _analysis(args)[:3]
    _metric(system, cls)  # refuses an unpaired spectrum or an ill-conditioned eta
    x = _canonical_symmetry(system, cls)
    check = commutes_with(h, x, args.tol)
    exact = _is_exact(check, system, x, args.tol)
    return check.ok, {
        "spectrum_class": cls.tag.value,
        "commutation_residual": check.residual,
        "exact_symmetry": exact,
        "X": x.matrix,
    }


def cmd_hermitize(args) -> tuple[bool, dict]:
    _, system, cls, hpsi = _analysis(args)
    transform = hermitizing_transform(system, cls)
    h_t, r = _hermitized(transform, hpsi)
    return r <= args.tol, {"hermiticity_residual": r, "A": transform.matrix, "transformed": h_t}


def cmd_evolve_check(args) -> tuple[bool, dict]:
    h, system, cls = _analysis(args)[:3]
    metric = _metric(system, cls)
    check = evolution_invariance_check(h, metric, args.t, args.tol, strict=True)
    return check.ok, {"t": args.t, "invariant": check.ok, "residual": check.residual}


def cmd_pt_model(args) -> tuple[bool, dict]:
    spec = make_lattice(args.n, args.L, args.mass, args.v1, args.v2, args.eps)
    h = build_pt_hamiltonian(spec)
    system, cls, residuals = _pt_model(h, args.tol, args.cluster_gap)
    payload = {"spectrum_class": cls.tag.value, **residuals, "levels": _levels_payload(system)}
    if args.save:
        io.save_matrix(args.save, h)
        payload["saved"] = args.save
    return True, payload


def cmd_factor(args) -> tuple[bool, dict]:
    v, resid = _symmetric_factor(io.load_matrix(args.matrix), args.tol)
    return resid <= args.tol, {"residual": resid, "v": v}


def _float_flag(rule: str, ok):
    """argparse type of a float flag: a finite number for which ok holds."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


_POSITIVE = _float_flag("a finite number > 0", lambda v: v > 0.0)
_GAP = _float_flag("a finite number >= 0", lambda v: v >= 0.0)
_FINITE = _float_flag("a finite number", lambda v: True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="pseudoherm",
        description="Spectral analysis of diagonalizable non-Hermitian matrices: "
        "biorthonormal eigensystems, metrics, antilinear symmetries, hermitization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, matrix="matrix JSON file", clustered=True):
        p = sub.add_parser(name, help=help_text)
        if matrix:
            p.add_argument("matrix", help=matrix)
        p.add_argument("--tol", type=_POSITIVE, default=DEFAULT_TOL, help="verification tolerance")
        if clustered:
            p.add_argument("--cluster-gap", type=_GAP, help="eigenvalue grouping gap")
        p.add_argument("--output", choices=("json", "text"), default="text")
        p.set_defaults(fn=fn)
        return p

    p = add("analyze", cmd_analyze, "eigensystem, classification and residual report")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
    add("metric", cmd_metric, "build a Hermitian metric and verify intertwining")
    p = add("tau", cmd_tau, "build the anti-Hermitian automorphism")
    p.add_argument("--coeffs", default=None, help="coefficient family JSON file")
    add("symmetry", cmd_symmetry, "build the antilinear symmetry X and test exactness")
    add("hermitize", cmd_hermitize, "map a real-spectrum matrix to a Hermitian one")
    p = add("evolve-check", cmd_evolve_check, "metric invariance under exp(-iHt)")
    p.add_argument("--t", type=_FINITE, required=True, help="evolution time")

    p = add("pt-model", cmd_pt_model, "build and analyze the parity-symmetric lattice model", None)
    p.add_argument("--n", type=int, default=41, help="site count (odd)")
    p.add_argument("--L", type=_POSITIVE, default=10.0, help="half-width of the grid")
    p.add_argument("--mass", type=_POSITIVE, default=1.0)
    samples = "(for samples use lattice_from_dict)"
    p.add_argument("--v1", default="x^2", help=f"even potential: 0, x or x^k {samples}")
    p.add_argument("--v2", default="x^3", help=f"odd potential: 0, x or x^k {samples}")
    p.add_argument("--eps", type=_FINITE, default=0.1, help="strength of the odd potential")
    p.add_argument("--save", default=None, help="write the lattice matrix to this JSON file")

    add("factor", cmd_factor, "symmetric factorization c = v v^T",
        "complex symmetric matrix JSON file", clustered=False)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        ok, payload = args.fn(args)
        _emit(args, payload)  # inside the try: a closed stdout still exits 2
        return 0 if ok else 1
    except VERIFICATION_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (PseudoHermError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
