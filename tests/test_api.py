"""The public names of the package stay importable.

``PUBLIC_NAMES`` is the list exported from ``pseudoherm/__init__.py`` when
this test was written.  A change that removes one of them must migrate its
tests in the same change and say so in CHANGES.md; a name added later does
not need to be listed here.
"""

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


def test_condition_ceiling_importable_from_eigensystem():
    from pseudoherm._linalg import DEFAULT_COND_CEILING as ceiling
    from pseudoherm.eigensystem import DEFAULT_COND_CEILING

    assert DEFAULT_COND_CEILING == ceiling == 1e8
