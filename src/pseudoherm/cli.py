"""Command line front end.

Exit codes: 0 success, 1 verification failure (a residual exceeded the
tolerance or a theorem-level obstruction such as an unpaired spectrum),
2 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys


from . import io
from ._linalg import hermitian_defect, max_abs, scale_of, symmetric_defect
from .antilinear import build_tau, canonical_tau, is_anti_pseudo_hermitian
from .eigensystem import DEFAULT_REALNESS_TOL, biorthonormal_eigensystem, classify_spectrum
from .errors import (
    AmbiguousPairingError,
    NotASymmetryError,
    NotDiagonalizableError,
    NotPseudoHermitianError,
    NotPTSymmetricError,
    PseudoHermError,
    ResultNotHermitianError,
    SpectrumNotRealError,
    UnpairedSpectrumError,
)
from .factor import symmetric_factor
from .hermitize import ReportStageError, _report, hermitizing_transform
from .metric import build_metric, evolution_invariance_check, is_pseudo_hermitian
from .ptmodel import (
    build_pt_hamiltonian,
    eta_from_tau_pt,
    make_lattice,
    parity_matrix,
    pt_adapted_eigensystem,
    pt_commutation_residuals,
    time_reversal,
)
from .symmetry import _canonical_symmetry, commutes_with, is_exact_symmetry

VERIFICATION_ERRORS = (
    NotDiagonalizableError,
    UnpairedSpectrumError,
    SpectrumNotRealError,
    AmbiguousPairingError,
    NotPTSymmetricError,
    ResultNotHermitianError,
    NotASymmetryError,
    NotPseudoHermitianError,
)


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-10, help="verification tolerance")
    parser.add_argument("--cluster-gap", type=float, default=None, help="eigenvalue grouping gap")
    parser.add_argument("--output", choices=("json", "text"), default="text")
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized spot checks")


def _emit(args, payload: dict) -> None:
    if args.output == "json":
        print(json.dumps(payload, indent=2, default=float))
    else:
        for key, value in payload.items():
            if isinstance(value, dict):
                print(f"{key}:")
                for k, v in value.items():
                    print(f"  {k}: {v}")
            else:
                print(f"{key}: {value}")


def _analysis(args) -> tuple:
    h = io.load_matrix(args.matrix)
    system = biorthonormal_eigensystem(h, args.tol, args.cluster_gap)
    cls = classify_spectrum(system)
    return h, system, cls


def _levels_payload(system) -> list:
    return [
        {"energy": [lv.energy.real, lv.energy.imag], "multiplicity": lv.multiplicity}
        for lv in system.levels
    ]


def cmd_analyze(args) -> int:
    h = io.load_matrix(args.matrix)
    try:
        report, system, cls = _report(h, args.tol, DEFAULT_REALNESS_TOL, args.cluster_gap, args.seed)
    except ReportStageError as exc:
        if exc.stage in ("eigensystem", "classification"):
            raise exc.__cause__ from None  # no analysis at all: report the cause itself
        raise
    payload = {
        "spectrum_class": cls.tag.value,
        "levels": _levels_payload(system),
        "pairing": list(cls.pairing),
        "residuals": report["residuals"],
        "refusals": report["refusals"],
        "exact_symmetry": report["exact_symmetry"],
    }
    _emit(args, payload)
    worst = max(report["residuals"].values())
    return 0 if worst <= args.tol else 1


def cmd_metric(args) -> int:
    h, system, cls = _analysis(args)
    metric = build_metric(system, cls)
    check = is_pseudo_hermitian(h, metric, args.tol)
    _emit(
        args,
        {
            "spectrum_class": cls.tag.value,
            "positive_definite": metric.positive_definite,
            "intertwining_residual": check.residual,
            "eta": io.matrix_to_dict(metric.matrix) if args.output == "json" else "(use --output json)",
        },
    )
    return 0 if check.ok else 1


def cmd_tau(args) -> int:
    h, system, cls = _analysis(args)
    coeffs = io.load_coefficients(args.coeffs) if args.coeffs else None
    tau = build_tau(system, coeffs)
    check = is_anti_pseudo_hermitian(h, tau, args.tol)
    sym = symmetric_defect(tau.matrix) / scale_of(tau.matrix)
    _emit(
        args,
        {
            "symmetry_defect": sym,
            "intertwining_residual": check.residual,
            "tau": io.matrix_to_dict(tau.matrix) if args.output == "json" else "(use --output json)",
        },
    )
    return 0 if check.ok and sym <= args.tol else 1


def cmd_symmetry(args) -> int:
    h, system, cls = _analysis(args)
    build_metric(system, cls)  # refuses an unpaired spectrum or an ill-conditioned eta
    x = _canonical_symmetry(system, cls)
    check = commutes_with(h, x, args.tol)
    exact = is_exact_symmetry(system, x, args.tol)
    _emit(
        args,
        {
            "spectrum_class": cls.tag.value,
            "commutation_residual": check.residual,
            "exact_symmetry": exact,
            "X": io.matrix_to_dict(x.matrix) if args.output == "json" else "(use --output json)",
        },
    )
    return 0 if check.ok else 1


def cmd_hermitize(args) -> int:
    h, system, cls = _analysis(args)
    transform = hermitizing_transform(system, cls)
    h_t = transform.matrix @ h @ system.psi_matrix  # A H A^{-1} with A^{-1} = Psi
    resid = hermitian_defect(h_t) / scale_of(h_t)
    _emit(
        args,
        {
            "hermiticity_residual": resid,
            "A": io.matrix_to_dict(transform.matrix) if args.output == "json" else "(use --output json)",
            "transformed": io.matrix_to_dict(h_t) if args.output == "json" else "(use --output json)",
        },
    )
    return 0 if resid <= args.tol else 1


def cmd_evolve_check(args) -> int:
    h, system, cls = _analysis(args)
    metric = build_metric(system, cls)
    check = evolution_invariance_check(h, metric, args.t, args.tol)
    _emit(args, {"t": args.t, "invariant": check.ok, "residual": check.residual})
    return 0 if check.ok else 1


def cmd_pt_model(args) -> int:
    spec = make_lattice(args.n, args.L, args.mass, args.v1, args.v2, args.eps)
    h = build_pt_hamiltonian(spec)
    p = parity_matrix(args.n)
    r_parity, r_ptsym = pt_commutation_residuals(h, p)
    system = pt_adapted_eigensystem(h, p, args.tol, cluster_gap=args.cluster_gap)
    cls = classify_spectrum(system)
    tau = canonical_tau(system)
    eta = eta_from_tau_pt(h, tau, p, args.tol)
    payload = {
        "spectrum_class": cls.tag.value,
        "parity_intertwining_residual": r_parity / scale_of(h),
        "pt_commutation_residual": r_ptsym / scale_of(h),
        "eta_intertwining_residual": is_pseudo_hermitian(h, eta, args.tol).residual,
        "time_reversal_intertwining": is_anti_pseudo_hermitian(h, time_reversal(args.n), args.tol).residual,
        "levels": _levels_payload(system),
    }
    if args.save:
        io.save_matrix(args.save, h)
        payload["saved"] = args.save
    _emit(args, payload)
    return 0


def cmd_factor(args) -> int:
    c = io.load_matrix(args.matrix)
    v = symmetric_factor(c, args.tol)
    resid = max_abs(v @ v.T - c) / scale_of(c)
    _emit(
        args,
        {
            "residual": resid,
            "v": io.matrix_to_dict(v) if args.output == "json" else "(use --output json)",
        },
    )
    return 0 if resid <= args.tol else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudoherm",
        description="Spectral analysis of diagonalizable non-Hermitian matrices: "
        "biorthonormal eigensystems, metrics, antilinear symmetries, hermitization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        _common(p)
        p.set_defaults(fn=fn)
        return p

    p = add("analyze", cmd_analyze, "eigensystem, classification and residual report")
    p.add_argument("matrix", help="matrix JSON file")

    p = add("metric", cmd_metric, "build a Hermitian metric and verify intertwining")
    p.add_argument("matrix")

    p = add("tau", cmd_tau, "build the anti-Hermitian automorphism")
    p.add_argument("matrix")
    p.add_argument("--coeffs", default=None, help="coefficient family JSON file")

    p = add("symmetry", cmd_symmetry, "build the antilinear symmetry X and test exactness")
    p.add_argument("matrix")

    p = add("hermitize", cmd_hermitize, "map a real-spectrum matrix to a Hermitian one")
    p.add_argument("matrix")

    p = add("evolve-check", cmd_evolve_check, "metric invariance under exp(-iHt)")
    p.add_argument("matrix")
    p.add_argument("--t", type=float, required=True, help="evolution time")

    p = add("pt-model", cmd_pt_model, "build and analyze the parity-symmetric lattice model")
    p.add_argument("--n", type=int, default=41, help="site count (odd)")
    p.add_argument("--L", type=float, default=10.0, help="half-width of the grid")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--v1", default="x^2", help="even potential: expression or JSON samples")
    p.add_argument("--v2", default="x^3", help="odd potential: expression or JSON samples")
    p.add_argument("--eps", type=float, default=0.1, help="strength of the odd potential")
    p.add_argument("--save", default=None, help="write the lattice matrix to this JSON file")

    p = add("factor", cmd_factor, "symmetric factorization c = v v^T")
    p.add_argument("matrix", help="complex symmetric matrix JSON file")

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.fn(args)
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
