"""Per-layer metrics of the traced run and the end-to-end metric each should move.

``TARGETS`` maps a traced function (``<module>.<function>``) to the
end-to-end metric and workload a change to that layer should move and,
where one is named, the metric and workload predicted not to change.
Each function yields ``<name>.ms`` and ``<name>.calls``, both per
attempted op.  A traced run prints this mapping in its context line.
"""

from tracer import LAPACK

_IO = ("report_xeig", "planted-large", "cli_xeig on pt-lattice")
_HERMITIZE = ("report_xeig", "planted-large", "report_xeig on pt-lattice")
_EIGEN = ("cli_xeig", "planted-small, planted-large", None)
_CHECKS = ("report_xeig", "planted-small", None)
_GAUGE = ("gauge_xeig", "planted-small", None)
_PT = ("cli_xeig", "pt-lattice", "planted workloads")

TARGETS = {
    "io.matrix_to_dict": _IO,
    "io.json_dumps": _IO,
    "io.matrix_from_dict": ("cli_xeig", "planted-large", None),
    "metric.build_metric": _HERMITIZE,
    "hermitize.hermitizing_transform": _HERMITIZE,
    "hermitize.apply_transform": _HERMITIZE,
    "hermitize.metric_from_transform": _HERMITIZE,
    "hermitize.real_spectrum_equivalence_report": _HERMITIZE,
    "eigensystem.biorthonormal_eigensystem": _EIGEN,
    "eigensystem.classify_spectrum": _EIGEN,
    "antilinear.canonical_tau": _CHECKS,
    "antilinear.build_tau": _CHECKS,
    "antilinear.is_anti_pseudo_hermitian": _CHECKS,
    "symmetry.antilinear_symmetry": _CHECKS,
    "symmetry.commutes_with": _CHECKS,
    "symmetry.is_exact_symmetry": _CHECKS,
    "metric.is_pseudo_hermitian": _CHECKS,
    "factor.symmetric_factor": _GAUGE,
    "factor.basis_change": _GAUGE,
    "factor.canonicalize_tau": _GAUGE,
    "antilinear.recover_coefficients": _GAUGE,
    "ptmodel.make_lattice": _PT,
    "ptmodel.build_pt_hamiltonian": _PT,
    "ptmodel.pt_adapted_eigensystem": _PT,
    "ptmodel.eta_from_tau_pt": _PT,
}

# (metric name, unit, target) beyond the per-function .ms/.calls pairs.
EXTRA = (
    ("hermitize.real_spectrum_equivalence_report.self", "ms/op", _HERMITIZE),
    ("metric.build_metric.calls_per_report", "calls/op", _HERMITIZE),
    ("eigensystem.biorthonormal_eigensystem.calls_per_cli", "calls/op", _EIGEN),
    ("io.json_bytes", "B/op", _IO),
    ("trace.overhead_xeig", "xeig", None),
)
# eigvals only runs for the hermitized-spectrum match on real spectra.
LAPACK_TARGETS = {name: _HERMITIZE if name == "eigvals" else _CHECKS for name in LAPACK}


def names_and_units() -> list[tuple[str, str]]:
    """Every per-layer metric of the traced run, in output order."""
    out = []
    for fn in TARGETS:
        out += [(f"{fn}.ms", "ms/op"), (f"{fn}.calls", "calls/op")]
    out += [(f"lapack.{name}.calls", "calls/op") for name in LAPACK]
    out += [(name, unit) for name, unit, _ in EXTRA]
    return out


def targets() -> dict[str, str]:
    """One line per layer: the end-to-end metric it should move, and where."""
    rows = dict(TARGETS)
    rows.update({f"lapack.{name}": t for name, t in LAPACK_TARGETS.items()})
    rows.update({name: t for name, _, t in EXTRA if t is not None})
    out = {}
    for name, (metric, workload, unchanged) in rows.items():
        line = f"{metric} on {workload}"
        out[name] = line + (f"; no change: {unchanged}" if unchanged else "")
    return out
