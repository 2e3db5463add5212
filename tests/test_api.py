"""The public names of the package stay importable.

``PUBLIC_NAMES`` is the list exported from ``pseudoherm/__init__.py`` when
this test was written.  A change that removes one of them must migrate its
tests in the same change and say so in CHANGES.md; a name added later does
not need to be listed here.
"""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import pseudoherm

PUBLIC_NAMES = [
    "CheckResult",
    "max_abs",
    "AntilinearOperator",
    "CoefficientFamily",
    "build_tau",
    "canonical_tau",
    "compose_antilinear",
    "invert_tau",
    "is_anti_pseudo_hermitian",
    "recover_coefficients",
    "BiorthonormalSystem",
    "EigenLevel",
    "SpectrumClass",
    "SpectrumTag",
    "biorthonormal_eigensystem",
    "biorthonormality_residuals",
    "classify_spectrum",
    "reconstruct",
    "AmbiguousPairingError",
    "AsymmetricCoefficientsError",
    "AsymmetricPotentialError",
    "DimensionMismatchError",
    "NonFiniteError",
    "NonHermitianEtaError",
    "NotASymmetryError",
    "NotDiagonalizableError",
    "NotPTSymmetricError",
    "NotPseudoHermitianError",
    "NotSymmetricError",
    "PseudoHermError",
    "ResultNotHermitianError",
    "SingularBlockError",
    "SingularCoefficientsError",
    "SingularEtaError",
    "SingularInputError",
    "SingularTauError",
    "SingularTransformError",
    "SpectrumNotRealError",
    "UnpairedSpectrumError",
    "basis_change",
    "canonicalize_tau",
    "coefficient_transform",
    "symmetric_factor",
    "PseudoCanonicalTransform",
    "ReportStageError",
    "apply_transform",
    "hermitizing_transform",
    "metric_from_transform",
    "real_spectrum_equivalence_report",
    "MetricOperator",
    "build_metric",
    "evolution_invariance_check",
    "indefinite_inner_product",
    "is_pseudo_hermitian",
    "metric_from_matrix",
    "propagator",
    "pseudo_adjoint",
    "LatticeSpec",
    "build_pt_hamiltonian",
    "eta_from_tau_pt",
    "lattice_from_dict",
    "make_lattice",
    "parity_matrix",
    "pt_adapted_eigensystem",
    "pt_commutation_residuals",
    "time_reversal",
    "antilinear_symmetry",
    "commutes_with",
    "induced_symmetries",
    "is_exact_symmetry",
    "level_invariance_residuals",
    "__version__",
]


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_still_exported(name):
    assert hasattr(pseudoherm, name)


def test_eigensystem_fields_are_kept():
    """A solved system builds its levels on first read, but the dataclass keeps
    its fields."""
    names = [f.name for f in dataclasses.fields(pseudoherm.BiorthonormalSystem)]
    assert names == ["dim", "levels", "tol"]


def test_condition_ceiling_importable_from_eigensystem():
    from pseudoherm._linalg import DEFAULT_COND_CEILING as ceiling
    from pseudoherm.eigensystem import DEFAULT_COND_CEILING

    assert DEFAULT_COND_CEILING == ceiling == 1e8


KNOBS = {"cond_ceiling", "sym_tol", "realness_tol"}


def public_callables():
    """(qualified name, function) for every public function of the package's
    modules and every public method (and ``__init__``) of their classes."""
    for info in pkgutil.iter_modules(pseudoherm.__path__):
        module = importlib.import_module(f"pseudoherm.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)  # classmethod, staticmethod
                    if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                        yield f"{module.__name__}.{name}.{attr}", fn


def test_no_condition_ceiling_knobs():
    """DEFAULT_COND_CEILING is the one condition ceiling and the coefficient
    symmetry tolerance is fixed: no public callable takes either as a
    parameter.  Reintroducing one must edit this test and say why."""
    found = list(public_callables())
    assert len(found) > 80  # the walk reaches functions and methods alike
    knobs = [(q, p) for q, fn in found for p in inspect.signature(fn).parameters if p in KNOBS]
    assert knobs == []


def test_import_leaves_scipy_out(tmp_path):
    """Importing the package and its CLI loads no scipy; only evolution
    (``metric.propagator``) imports it, when called.  orjson is imported by
    the first file write or read, never by the import or by pt-model
    without ``--save``."""
    code = (
        "import sys, numpy, pseudoherm, pseudoherm.cli\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert pseudoherm.cli.cli_main(['pt-model', '--n', '5']) == 0\n"
        "assert 'orjson' not in sys.modules\n"
        "pseudoherm.io.save_matrix(sys.argv[1], numpy.eye(2))\n"
        "assert 'orjson' in sys.modules\n"
        "pseudoherm.io.load_matrix(sys.argv[1])\n"
        "pseudoherm.metric.propagator(numpy.eye(2), 0.5)\n"
        "assert 'scipy' in sys.modules"
    )
    src = os.path.dirname(os.path.dirname(pseudoherm.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", code, str(tmp_path / "h.json")]
    subprocess.run(argv, check=True, env=env, timeout=60, stdout=subprocess.DEVNULL)
