"""One refusal rule: every threshold refusal of the chain carries the two
numbers its verdict compared, ``.measured`` and ``.limit``, and a NaN is
refused.  One case per refusal site, each reached through the public API."""

import numpy as np
import pytest

from pseudoherm import (
    AmbiguousPairingError,
    AsymmetricCoefficientsError,
    BiorthonormalSystem,
    CoefficientFamily,
    DimensionMismatchError,
    EigenLevel,
    LatticeSpec,
    MetricOperator,
    NonHermitianEtaError,
    NotASymmetryError,
    NotDiagonalizableError,
    NotPseudoHermitianError,
    NotPTSymmetricError,
    NotSymmetricError,
    PseudoCanonicalTransform,
    PseudoHermError,
    ReportStageError,
    ResultNotHermitianError,
    SingularBlockError,
    SingularCoefficientsError,
    SingularEtaError,
    SingularInputError,
    SingularTransformError,
    basis_change,
    biorthonormal_eigensystem,
    build_metric,
    build_pt_hamiltonian,
    build_tau,
    canonical_tau,
    canonicalize_tau,
    classify_spectrum,
    commutes_with,
    evolution_invariance_check,
    hermitizing_transform,
    indefinite_inner_product,
    invert_tau,
    is_exact_symmetry,
    is_pseudo_hermitian,
    level_invariance_residuals,
    make_lattice,
    metric_from_matrix,
    metric_from_transform,
    parity_matrix,
    propagator,
    pseudo_adjoint,
    real_spectrum_equivalence_report,
    reconstruct,
    recover_coefficients,
    symmetric_factor,
    time_reversal,
)
from pseudoherm._linalg import make_check
from pseudoherm.antilinear import AntilinearOperator
from pseudoherm.ensembles import planted_matrix
from pseudoherm.io import matrix_from_dict, matrix_to_dict
from pseudoherm.ptmodel import eta_from_tau_pt

CEILING = (
    "eigenvector matrix condition number {measured:.3e} exceeds ceiling 1.000e+08; "
    "input is defective or nearly so"
)
UNREACHED = (
    "could not reach tolerance 1.0e-12: right_eigen residual is {measured:.3e}; input is "
    "near-defective, has spectral clusters wider than tol but narrower than the cluster "
    "gap, or tol is too tight for its conditioning"
)
DEGENERATE = biorthonormal_eigensystem(np.diag([1.0, 1.0, 2.0]))  # levels of multiplicity 2 and 1
ONE = np.array([[1.0 + 0j]])
ILL = np.diag([1.0, 1e-9]).astype(complex)  # condition number 1e9
ASYMMETRIC = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
# asymmetry 5e-11 passes the symmetry test, not a factor check at tol 1e-11
MISFACTORED = np.array([[1.0, 0.5 + 5e-11], [0.5, 1.0]], dtype=complex)


def family(*blocks):
    return CoefficientFamily(tuple(np.asarray(b, dtype=complex) for b in blocks))


def near_defective():
    """kappa(Psi) = 2e5 passes the eigensystem; kappa(eta) = 4e10 does not."""
    sys_ = biorthonormal_eigensystem(np.array([[1.0, 1.0], [0.0, 1.0 + 1e-5]]))
    return sys_, classify_spectrum(sys_)


def inconsistent():
    """A hand-made system whose left vectors are not Psi^{-dagger}: its
    metric does not intertwine the operator it reconstructs."""
    e1, e2 = np.eye(2, dtype=complex)[:, :1], np.eye(2, dtype=complex)[:, 1:]
    levels = (EigenLevel(1.0, e1, e1), EigenLevel(2.0, e2, e1 + e2))
    sys_ = BiorthonormalSystem(dim=2, levels=levels, tol=1e-10)
    return sys_, classify_spectrum(sys_)


def lattice():
    h = build_pt_hamiltonian(make_lattice(41, 10.0))
    return h, parity_matrix(41)


def case_solve():
    eta = np.diag([1.0, 1e-10])
    return (lambda: pseudo_adjoint(np.eye(2), eta), SingularEtaError,
            "eta is singular or too ill-conditioned to invert", np.linalg.cond(eta), 1e8)


def case_eigensystem_ceiling():
    h = np.array([[1.0, 1.0], [0.0, 1.0 + 1.5e-8]])
    psi = np.array([[1.0, 1.0], [0.0, 1.5e-8]])  # the eigenvectors, normalized below
    kappa = np.linalg.cond(psi / np.linalg.norm(psi, axis=0))
    return lambda: biorthonormal_eigensystem(h), NotDiagonalizableError, CEILING, kappa, 1e8


def case_eigensystem_residual():
    # one level of multiplicity 2 at the mean 1 + 5e-10, Psi = 1
    h = np.diag([1.0, 1.0 + 1e-9])
    residual = 5e-10 / (1.0 + 1e-9)
    return lambda: biorthonormal_eigensystem(h, 1e-12), NotDiagonalizableError, UNREACHED, residual, 1e-12


def case_coefficients_asymmetric():
    return (lambda: build_tau(DEGENERATE, family(ASYMMETRIC, ONE)), AsymmetricCoefficientsError,
            "coefficient block 0 is not symmetric", 1.0, 1e-10)


def case_coefficients_singular():
    return (lambda: build_tau(DEGENERATE, family(ILL, ONE)), SingularCoefficientsError,
            "coefficient block 0 is singular or too ill-conditioned", 1e9, 1e8)


def case_coefficients_zero():
    return (lambda: build_tau(DEGENERATE, family(np.eye(2), [[0.0]])), SingularCoefficientsError,
            "coefficient block 1 is singular or too ill-conditioned", np.inf, 1e8)


def case_coefficients_overflow():
    return (lambda: invert_tau(DEGENERATE, family(np.eye(2), [[1e-320]])), SingularCoefficientsError,
            "coefficient block 1 is too small to invert", np.inf, np.finfo(float).max)


def case_factor_asymmetric():
    return (lambda: symmetric_factor(ASYMMETRIC), NotSymmetricError,
            "input is not complex symmetric", 1.0, 1e-10)


def case_factor_singular():
    return (lambda: symmetric_factor(ILL), SingularInputError,
            "input is singular or too ill-conditioned; no invertible factor", 1e9, 1e8)


def case_factor_residual():
    c = np.array([[2.0, 1j], [1j, 3.0]])
    v = symmetric_factor(c)  # the same factor, checked at the default tol
    return (lambda: symmetric_factor(c, 1e-20), PseudoHermError,
            "factorization residual {measured:.3e} exceeds tolerance",
            np.max(np.abs(v @ v.T - c)) / 3.0, 1e-20)


def case_canonicalize_residual():
    coeffs = family(MISFACTORED, ONE)
    v = coeffs.validate_against(DEGENERATE)[0]
    return (lambda: canonicalize_tau(DEGENERATE, coeffs, 1e-11), PseudoHermError,
            "factorization residual {measured:.3e} exceeds tolerance",
            np.max(np.abs(v @ v.T - MISFACTORED)), 1e-11)


def case_basis_change():
    return (lambda: basis_change(DEGENERATE, [ILL, ONE]), SingularBlockError,
            "basis-change block 0 is singular or ill-conditioned", 1e9, 1e8)


def case_candidate_metric():
    return (lambda: metric_from_matrix(np.diag([1.0, -1e-9])), SingularEtaError,
            "candidate metric is singular or too ill-conditioned", 1e9, 1e8)


def case_metric_hermiticity():
    eta = np.array([[2.0, 1.0], [0.5, 1.0]])  # defect 0.5 at scale 2
    return (lambda: metric_from_matrix(eta, 1e-3), NonHermitianEtaError,
            "candidate metric is not Hermitian within tolerance", 0.25, 1e-3)


def case_metric_ceiling():
    sys_, cls = near_defective()
    return (lambda: build_metric(sys_, cls), SingularEtaError,
            "constructed metric is too ill-conditioned", sys_.cond * sys_.cond, 1e8)


def case_metric_self_check():
    sys_, cls = inconsistent()
    phi = sys_.phi_matrix
    residual = is_pseudo_hermitian(reconstruct(sys_), phi @ phi.conj().T).residual
    return (lambda: build_metric(sys_, cls), PseudoHermError,
            "constructed metric fails the intertwining identity (residual {measured:.3e}); "
            "the system is inconsistent", residual, 1e-10)


def case_evolution_strict():
    h = np.diag([1 + 1j, 1 - 1j])
    residual = is_pseudo_hermitian(h, np.eye(2), 1e-9).residual
    return (lambda: evolution_invariance_check(h, np.eye(2), 0.7, 1e-9, strict=True),
            NotPseudoHermitianError,
            "H is not pseudo-Hermitian w.r.t. eta (residual {measured:.3e}); "
            "invariance is not expected", residual, 1e-9)


def case_propagator_overflow():
    # -i t H overflows to -inf i on the diagonal: U is that exponent
    return (lambda: propagator(10.0 * np.eye(2), 1e308), PseudoHermError,
            "exp(-iHt) overflows at t = 1.000e+308 (max|H| = 1.000e+01)", np.inf,
            np.finfo(float).max)


def case_evolution_overflow():
    h = 700.0 * np.array([[0.0, 1.0], [-1.0, 0.0]])  # E = +-700i: U is finite, U^dagger U is not
    return (lambda: evolution_invariance_check(h, np.eye(2), 1.0), PseudoHermError,
            "U^dagger eta U overflows at t = 1.000e+00 (max|H| = 7.000e+02)", np.inf,
            np.finfo(float).max)


def case_ambiguous_pairing():
    # cluster gap 0 keeps 1 - i and 1 + 1e-12 - i apart; both lie within
    # realness_tol of conj(1 + i), the second level in (Re E, Im E) order
    sys_ = biorthonormal_eigensystem(np.diag([1 + 1j, 1 - 1j, 1 + 1e-12 - 1j]), cluster_gap=0.0)
    return (lambda: classify_spectrum(sys_), AmbiguousPairingError,
            "level 1 (E=1+1j) has 2 conjugate-partner candidates within tolerance 1.4e-08", 2, 1)


def case_report_stage():
    # kappa(Psi) = 2e6 passes the eigensystem, kappa(eta) = kappa(Psi)^2 = 4e12 the metric not
    h = np.array([[1.0, 1e6], [0.0, 2.0]])
    kappa = biorthonormal_eigensystem(h).cond
    return (lambda: real_spectrum_equivalence_report(h), ReportStageError,
            "stage 'metric': constructed metric is too ill-conditioned", kappa * kappa, 1e8)


def case_hermitizing_transform():
    sys_, cls = near_defective()
    return (lambda: hermitizing_transform(sys_, cls), SingularEtaError,
            "the positive metric A^dagger A is too ill-conditioned", sys_.cond * sys_.cond, 1e8)


def case_transform_metric():
    a = np.diag([1.0, 1e-10]).astype(complex)
    return (lambda: metric_from_transform(PseudoCanonicalTransform(a)), SingularTransformError,
            "transform is singular or too ill-conditioned", 1e10, 1e8)


def case_pt_symmetry():
    h, p = lattice()
    h[0, 0] += 1j  # breaks the parity-conjugation symmetry at one site
    residual = np.max(np.abs(h @ p - p @ h.conj())) / np.max(np.abs(h))
    return (lambda: eta_from_tau_pt(h, time_reversal(41), p), NotPTSymmetricError,
            "H does not commute with the parity-conjugation map", residual, 1e-10)


def case_composed_hermiticity():
    h, p = lattice()
    tau = canonical_tau(biorthonormal_eigensystem(h))  # not parity adapted
    eta = tau.matrix @ p
    defect = np.max(np.abs(eta - eta.conj().T)) / np.max(np.abs(eta))
    return (lambda: eta_from_tau_pt(h, tau, p, 1e-9), ResultNotHermitianError,
            "tau composed with parity-conjugation is not Hermitian; tau is inconsistent with H "
            "(try a parity-adapted eigenbasis); Hermiticity defect {measured:.3e}", defect, 1e-9)


def case_composed_intertwining():
    h, p = lattice()  # tau = P composes to eta = P P = 1, Hermitian but no metric of H
    residual = is_pseudo_hermitian(h, np.eye(41), 1e-9).residual
    return (lambda: eta_from_tau_pt(h, AntilinearOperator(p), p, 1e-9), ResultNotHermitianError,
            "composed metric fails the intertwining identity (residual {measured:.3e})",
            residual, 1e-9)


def case_exact_symmetry():
    sys_ = biorthonormal_eigensystem(np.diag([1.0, 2.0, 3.0]))
    x = AntilinearOperator(np.ones((3, 3), dtype=complex))
    residual = commutes_with(reconstruct(sys_), x).residual
    return (lambda: is_exact_symmetry(sys_, x), NotASymmetryError,
            "X does not commute with H (residual {measured:.3e})", residual, 1e-10)


CASES = {name[5:]: case for name, case in dict(globals()).items() if name.startswith("case_")}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_refusal_carries_the_numbers_it_compared(case):
    """The class and message of each refusal site, with ``.measured`` and
    ``.limit`` the two numbers its verdict compared: measured not at most
    limit, and the message prints measured where it prints a number."""
    refuse, cls, message, measured, limit = case()
    with pytest.raises(PseudoHermError) as refused:
        refuse()
    exc = refused.value
    assert type(exc) is cls
    assert str(exc) == message.format(measured=exc.measured)
    assert exc.limit == pytest.approx(limit, rel=1e-12, abs=0)
    if np.isfinite(measured):
        assert exc.measured == pytest.approx(measured, rel=1e-6, abs=0)
    else:  # an inverse that overflows may read inf or NaN
        assert not np.isfinite(exc.measured)
    assert not exc.measured <= exc.limit
    assert exc.limit in LIMITS


# Every limit of the table: the tolerance a case runs at, the 1e-10 of a
# coefficient block's symmetry, the 1e8 ceiling, the largest float or 1.
LIMITS = {1e-20, 1e-12, 1e-11, 1e-10, 1e-9, 1e-3, 1e8, np.finfo(float).max, 1}


def test_a_check_is_ok_iff_its_residual_is_within_tol():
    """``make_check`` decides on the residual it reports, also at the ulp
    boundary raw = tol scale and its two float neighbours."""
    tol, scales = 1e-10, np.random.default_rng(0).uniform(0.1, 100.0, 2000)
    raws = tol * scales
    for raw, scale in zip([*np.nextafter(raws, 0.0), *raws, *np.nextafter(raws, 1.0)], [*scales] * 3):
        check = make_check(raw, scale, tol)
        assert check.ok == (check.residual <= tol)


def test_a_nan_is_refused():
    """A NaN measurement fails the rule it is compared by, where a bare
    ``measured > limit`` let it pass."""
    eta = MetricOperator(np.array([[1.0, np.nan], [np.nan, 1.0]]), positive_definite=False)
    with pytest.raises(NonHermitianEtaError) as refused:
        is_pseudo_hermitian(np.eye(2), eta)
    assert np.isnan(refused.value.measured) and refused.value.limit == 1e-10


def _spec(**changes):
    fields = {"n_sites": 3, "half_width": 1.0, "mass": 1.0, "v1": np.zeros(3), "v2": np.zeros(3)}
    return LatticeSpec(**{**fields, **changes})


# Input refusals that carry no number: the public call, its error class and its message.
INPUT_REFUSALS = {
    "inner-product-vector": (
        lambda: indefinite_inner_product(np.eye(2), np.ones(3), np.ones(2)),
        DimensionMismatchError, "xi must have shape (2,), got (3,)"),
    "pseudo-hermitian-dims": (
        lambda: is_pseudo_hermitian(np.eye(2), np.eye(3)),
        DimensionMismatchError, "H and eta have different shapes: (2, 2) vs (3, 3)"),
    "recover-coefficients-dims": (
        lambda: recover_coefficients(DEGENERATE, AntilinearOperator(np.eye(2, dtype=complex))),
        DimensionMismatchError, "tau dimension does not match the system"),
    "level-invariance-dims": (
        lambda: level_invariance_residuals(DEGENERATE, AntilinearOperator(np.eye(2, dtype=complex))),
        DimensionMismatchError, "X has dimension 2, the system has dimension 3"),
    "metric-class-size": (
        lambda: build_metric(DEGENERATE, classify_spectrum(biorthonormal_eigensystem(np.eye(1)))),
        DimensionMismatchError, "spectrum class does not match the system"),
    "metric-weight-shape": (
        lambda: build_metric(DEGENERATE, classify_spectrum(DEGENERATE), [1.0, 1.0, 1.0]),
        DimensionMismatchError, "need 2 weights, got shape (3,)"),
    "metric-weight-sign": (
        lambda: build_metric(DEGENERATE, classify_spectrum(DEGENERATE), [1.0, 0.0]),
        ValueError, "metric weights must be strictly positive"),
    "lattice-potential": (
        lambda: make_lattice(5, 1.0, v2="sin(x)"),
        ValueError, "unrecognized potential expression 'sin(x)'"),
    "lattice-sample-count": (
        lambda: _spec(v1=np.zeros(5)),
        ValueError, "potential samples must have one value per site"),
    "parity-dimension": (
        lambda: parity_matrix(0), ValueError, "dimension must be at least 1"),
    "matrix-dimension": (
        lambda: matrix_from_dict({"n": 0, "data": []}),
        DimensionMismatchError, "matrix dimension must be at least 1"),
    "matrix-not-square": (
        lambda: matrix_to_dict(np.ones((2, 3))),
        DimensionMismatchError, "expected a square matrix, got shape (2, 3)"),
    "planted-kind": (
        lambda: planted_matrix(np.random.default_rng(0), 4, "complex"),
        ValueError, "unknown kind 'complex'"),
    "planted-dim": (
        lambda: planted_matrix(np.random.default_rng(0), 1, "paired"),
        ValueError, "paired spectra need dim >= 2"),
}


@pytest.mark.parametrize("case", INPUT_REFUSALS.values(), ids=INPUT_REFUSALS.keys())
def test_input_refusal_class_and_message(case):
    refuse, cls, message = case
    with pytest.raises(Exception) as refused:
        refuse()
    assert type(refused.value) is cls
    assert str(refused.value) == message


def test_a_zero_scale_check_passes_only_on_a_zero_residual():
    """``make_check`` at scale max|H| max|eta| = 0 compares the raw residual
    with 0 instead of dividing by the scale."""
    check = is_pseudo_hermitian(np.zeros((2, 2)), np.eye(2))
    assert check.ok and check.residual == 0.0
