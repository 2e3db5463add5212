"""Discretized lattice Hamiltonians with parity-time structure.

The model is ``H = K + diag(v1) + i diag(v2)`` on a uniform grid symmetric
about x = 0 (odd site count, Dirichlet boundaries), with K the central
difference kinetic matrix, v1 even and v2 odd.  With the site-reversal
permutation P these satisfy the *exact* structural identities

    H^dagger P = P H            (parity pseudo-Hermiticity)
    H P = P conj(H)             (parity-conjugation symmetry)

because mirroring the grid flips the sign of the imaginary potential.  An
anti-Hermitian automorphism tau combined with the parity-conjugation map
yields the linear metric ``eta = m P``, which is Hermitian provided the
eigenbasis gauge is compatible with the parity-conjugation map; the
re-gauging helper below produces such a basis.

Because the parity-conjugation map is an exact antilinear symmetry that
squares to 1, H is unitarily similar to a real matrix: with
``Q = (1 + iP)/sqrt(2)``, ``Q^dagger H Q = M = Re H + P Im H``.  An H with
``H P = P conj(H)`` exactly for the site reversal P, as every lattice built
here has, is solved by one real eig of M, and H's eigenvectors are ``Q V``;
that is the eig every entry point of the package takes, so the adapted
system, ``biorthonormal_eigensystem`` and the report list the same energies
bit for bit.  Its conjugate partners are exact conjugates, the -Im partner
listed first.  An H that is symmetric only within tol takes one complex
eig of H, whatever parity matrix is passed.  Either way the system is
verified against H itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import (
    CheckResult,
    as_square_matrix,
    block_groups,
    hermitian_defect,
    intertwining,
    max_abs,
    require_same_dim,
    require_within,
    scale_of,
    symmetric_defect,
    takagi_factor,
)
from .antilinear import AntilinearOperator, canonical_tau
from .eigensystem import (
    DEFAULT_TOL,
    BiorthonormalSystem,
    SpectrumClass,
    _assemble,
    _classify,
    _cluster_gap,
    _partner_columns,
    _raw_levels,
    _realness_tol,
)
from .errors import (
    AsymmetricPotentialError,
    NotPTSymmetricError,
    ResultNotHermitianError,
)
from .metric import MetricOperator


def _require_site_count(n_sites: int) -> None:
    """Refuse a site count without a center site, or too small for a kinetic term."""
    if n_sites < 3 or n_sites % 2 == 0:
        raise ValueError("n_sites must be odd and at least 3")


@dataclass(frozen=True)
class LatticeSpec:
    """Grid and potential samples of the discretized model.

    ``n_sites`` must be odd so the parity center is a grid point; ``v1`` is
    even-symmetric and ``v2`` odd-symmetric about the center site.
    """

    n_sites: int
    half_width: float
    mass: float
    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        _require_site_count(self.n_sites)
        if not (math.isfinite(self.half_width) and math.isfinite(self.mass)):
            raise ValueError("half_width and mass must be finite")
        if self.half_width <= 0 or self.mass <= 0:
            raise ValueError("half_width and mass must be positive")
        object.__setattr__(self, "v1", np.asarray(self.v1, dtype=float))
        object.__setattr__(self, "v2", np.asarray(self.v2, dtype=float))
        if self.v1.shape != (self.n_sites,) or self.v2.shape != (self.n_sites,):
            raise ValueError("potential samples must have one value per site")
        for name in ("v1", "v2"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"potential samples {name} must be finite")
        if np.any(self.v1 != self.v1[::-1]):
            raise AsymmetricPotentialError("v1 samples are not even-symmetric")
        if np.any(self.v2 != -self.v2[::-1]):
            raise AsymmetricPotentialError("v2 samples are not odd-symmetric")
        if not math.isfinite(self.spacing):  # grid would be 0 * inf at the center
            raise ValueError(
                f"grid spacing 2L/(n-1) = {self.spacing} (L {self.half_width:.3e}, "
                f"n {self.n_sites}) is not finite"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_sites - 1)

    @property
    def grid(self) -> np.ndarray:
        """Site coordinates, exactly antisymmetric about the center."""
        mid = (self.n_sites - 1) // 2
        return (np.arange(self.n_sites) - mid) * self.spacing


_POTENTIALS = {"0": lambda x: np.zeros_like(x)}


def _eval_potential(expr, x: np.ndarray) -> np.ndarray:
    """Evaluate a potential given as samples or as an ``x^k`` power string."""
    if isinstance(expr, str):
        name = expr.strip().lower().replace(" ", "")
        if name in _POTENTIALS:
            return _POTENTIALS[name](x)
        if name.startswith("x^"):
            return x ** int(name[2:])
        if name == "x":
            return x.copy()
        raise ValueError(f"unrecognized potential expression {expr!r}")
    return np.asarray(expr, dtype=float)


def make_lattice(
    n_sites: int,
    half_width: float,
    mass: float = 1.0,
    v1="x^2",
    v2="x^3",
    eps: float = 1.0,
) -> LatticeSpec:
    """Build a LatticeSpec from potential expressions or samples.

    ``eps`` scales the odd (imaginary) potential only; it is the knob for
    the strength of the non-Hermitian part.
    """
    if not (math.isfinite(half_width) and math.isfinite(eps)):  # 0 * inf samples would be NaN
        raise ValueError("half_width and eps must be finite")
    _require_site_count(n_sites)
    mid = (n_sites - 1) // 2
    # a sample that overflows (x^k on a wide grid) is refused by LatticeSpec by name
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = (np.arange(n_sites) - mid) * (2.0 * half_width / (n_sites - 1))
        v1, v2 = _eval_potential(v1, x), eps * _eval_potential(v2, x)
    return LatticeSpec(n_sites=n_sites, half_width=half_width, mass=mass, v1=v1, v2=v2)


def lattice_from_dict(payload: dict) -> LatticeSpec:
    """Parse the JSON form {"n", "L", "mass", "v1", "v2", "eps"}."""
    return make_lattice(
        n_sites=int(payload["n"]),
        half_width=float(payload["L"]),
        mass=float(payload.get("mass", 1.0)),
        v1=payload.get("v1", "x^2"),
        v2=payload.get("v2", "x^3"),
        eps=float(payload.get("eps", 1.0)),
    )


def parity_matrix(n: int) -> np.ndarray:
    """Site-reversal permutation; equals its own adjoint and inverse."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return np.eye(n, dtype=np.complex128)[::-1].copy()


def build_pt_hamiltonian(spec: LatticeSpec) -> np.ndarray:
    """Kinetic term plus real even and imaginary odd on-site potentials.

    Central differences with Dirichlet boundaries; the output satisfies
    ``H^dagger P = P H`` exactly (entrywise) for the parity permutation P.
    Refuses a lattice whose kinetic coefficient -1/(2 m h^2), or its sum
    with v1, is not finite (a mass or spacing so small that it overflows).
    """
    n, h = spec.n_sites, spec.spacing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coeff = -1.0 / (2.0 * np.float64(spec.mass) * h * h)
        diagonal = coeff * -2.0 + spec.v1
    if not (np.isfinite(coeff) and np.isfinite(diagonal).all()):
        raise ValueError(
            f"kinetic coefficient -1/(2 m h^2) = {coeff:.3e} (mass {spec.mass:.3e}, "
            f"spacing {h:.3e}) makes H non-finite"
        )
    # the entries of the dense sum K + diag(v1) + 1j diag(v2), bit for bit: in it
    # each band entry and imaginary part had 0.0 added, which turns a -0 into +0
    H = np.zeros((n, n), dtype=np.complex128)
    sites = np.arange(n)
    H.real[sites, sites] = diagonal
    H.imag[sites, sites] = spec.v2 + 0.0
    H.real[sites[:-1], sites[1:]] = H.real[sites[1:], sites[:-1]] = coeff + 0.0
    return H


def time_reversal(n: int) -> AntilinearOperator:
    """Plain complex conjugation in the site basis (identity matrix)."""
    return AntilinearOperator(np.eye(n, dtype=np.complex128))


def pt_commutation_residuals(H, parity) -> tuple[float, float]:
    """Raw max-norm residuals of ``H^dagger P - P H`` and ``H P - P conj(H)``."""
    H = as_square_matrix(H, "H")
    p = as_square_matrix(parity, "parity")
    require_same_dim(H, p, "H and parity")
    return max_abs(H.conj().T @ p - p @ H), _pt_residual(H, p)


def _pt_residual(H: np.ndarray, parity) -> float:
    """Raw max-norm residual of ``H P - P conj(H)``; ``parity=None`` is the site
    reversal, applied by indexing: P x = x[::-1] and x P = x[:, ::-1], both exact."""
    if parity is None:
        return max_abs(H[:, ::-1] - np.conj(H)[::-1])
    return max_abs(H @ parity - parity @ np.conj(H))


def _require_pt_symmetric(H: np.ndarray, parity, hmax: float, tol: float) -> float:
    """The ``H P - P conj(H)`` residual over hmax = max|H|, which refuses H above tol."""
    message = "H does not commute with the parity-conjugation map"
    return require_within(_pt_residual(H, parity) / hmax, tol, NotPTSymmetricError, message)


def _checked_eta(
    H: np.ndarray, eta: np.ndarray, hmax: float, tol: float
) -> tuple[np.ndarray, CheckResult]:
    """eta = m P symmetrized, with its ``H^dagger eta = eta H`` check at the
    scale of hmax = max|H|; refuses a non-Hermitian eta or a failed identity."""
    require_within(
        hermitian_defect(eta), tol, ResultNotHermitianError,
        "tau composed with parity-conjugation is not Hermitian; tau is inconsistent with H "
        "(try a parity-adapted eigenbasis); Hermiticity defect {measured:.3e}",
    )
    eta = (eta + eta.conj().T) / 2.0  # Hermitian bit for bit
    check = intertwining(H.conj().T, eta, H, hmax, tol)
    require_within(
        check.residual, tol, ResultNotHermitianError,
        "composed metric fails the intertwining identity (residual {measured:.3e})",
    )
    return eta, check


def eta_from_tau_pt(
    H, tau: AntilinearOperator, parity, tol: float = DEFAULT_TOL
) -> MetricOperator:
    """Linear metric from composing tau with the parity-conjugation map.

    The composition of the two antilinear maps is linear with matrix
    ``m P``.  Requires H to commute with the parity-conjugation map; the
    result must come out Hermitian and intertwining, otherwise the supplied
    tau is inconsistent with H (e.g. built on a gauge that is not
    parity-conjugation adapted).  Positive-definiteness is decided by one
    Cholesky factorization, which is kept as the factor.
    """
    H = as_square_matrix(H, "H")
    p = as_square_matrix(parity, "parity")
    require_same_dim(H, p, "H and parity")
    require_same_dim(H, tau.matrix, "H and tau")
    hmax = scale_of(H)
    _require_pt_symmetric(H, p, hmax, tol)
    eta, _ = _checked_eta(H, tau.matrix @ np.conj(p), hmax, tol)
    try:
        factor = np.linalg.cholesky(eta)
    except np.linalg.LinAlgError:  # not positive definite
        factor = None
    return MetricOperator(matrix=eta, positive_definite=factor is not None, factor=factor)


def _adapted(
    H: np.ndarray, parity, tol: float, cluster_gap, hmax: float
) -> tuple[BiorthonormalSystem, SpectrumClass, float]:
    """The parity-conjugation adapted system of H (hmax = ``scale_of(H)``), its
    class and the ``H P - P conj(H)`` residual of ``_require_pt_symmetric``.
    Not ``_solve``: the gauge is set on the raw Psi before ``_assemble``, so
    the adapted system is inverted and verified once."""
    r_ptsym = _require_pt_symmetric(H, parity, hmax, tol)
    psi, energies, offsets = _raw_levels(H, _cluster_gap(cluster_gap, hmax))
    sizes = np.diff(offsets)
    cls = _classify(energies, sizes, _realness_tol(hmax))
    pairing = np.asarray(cls.pairing)
    for idx, cols in block_groups(sizes):
        cols = cols[pairing[idx] == idx]  # the real levels of multiplicity d
        if len(cols):
            # parity-conjugation restricted to a real level is an antiunitary
            # involution g conj(.) in its basis q; g is unitary symmetric, so its
            # Takagi factor u is unitary and u conj(u)^{-1} = u u^T = g.  q and q^dagger P
            # are contiguous so g is, bit for bit, one level's dense-parity product
            q = np.ascontiguousarray(psi[:, cols].transpose(1, 0, 2))
            qh = q.conj().swapaxes(-1, -2)
            row = np.ascontiguousarray(qh[..., ::-1]) if parity is None else qh @ parity
            psi[:, cols] = (q @ takagi_factor(row @ np.conj(q))[0]).transpose(1, 0, 2)
    # the second level of a conjugate pair is the parity image of the first
    second = np.repeat(pairing < np.arange(len(pairing)), sizes)
    first = np.conj(psi[:, _partner_columns(offsets, pairing)[second]])
    psi[:, second] = first[::-1] if parity is None else parity @ first
    system = _assemble(psi, energies, offsets, H, hmax, tol)[0]
    return system, cls, r_ptsym


def pt_adapted_eigensystem(
    H, parity=None, tol: float = DEFAULT_TOL, *, cluster_gap: float | None = None
) -> BiorthonormalSystem:
    """Eigensystem re-gauged so the parity-conjugation map acts canonically.

    Levels are real or paired within 1e-8 max|H|.  Real levels are fixed
    point-wise (``P conj(psi) = psi``) and each conjugate pair uses the
    parity image of its partner's basis, so the canonical automorphism
    commutes with the parity-conjugation map and ``eta = m P`` is Hermitian.
    The default parity is the site reversal.  Whatever parity is passed, an
    H that commutes exactly with the site-reversal parity-conjugation map is
    solved by one real eig of ``Re H + P Im H``, and any other real H by one
    real eig of H (see the module docstring).
    """
    H = as_square_matrix(H, "H")
    p = None if parity is None else as_square_matrix(parity, "parity")
    return _adapted(H, p, tol, cluster_gap, scale_of(H))[0]


def _pt_model(
    H, tol: float, cluster_gap: float | None
) -> tuple[BiorthonormalSystem, SpectrumClass, dict]:
    """The lattice chain in one pass, for the site-reversal parity P.

    Each fact is formed once: the two structural residuals, one eig and one
    classification of the adapted system, one canonical tau and eta = tau P,
    and one ``H^dagger eta = eta H`` check.  P is applied by
    index reversal, never as a matrix.  Time reversal (the identity matrix
    with conjugation) intertwines H^dagger with conj(H) iff H^T = H, so its
    residual is ``max|H - H^T| / max|H|``.  Returns the system, its class
    and the normalized residuals.
    """
    H = as_square_matrix(H, "H")
    hmax = scale_of(H)
    system, cls, r_ptsym = _adapted(H, None, tol, cluster_gap, hmax)
    _, check = _checked_eta(H, canonical_tau(system).matrix[:, ::-1], hmax, tol)
    residuals = {
        "parity_intertwining_residual": max_abs(H.conj().T[:, ::-1] - H[::-1]) / hmax,
        "pt_commutation_residual": r_ptsym,
        "eta_intertwining_residual": check.residual,
        "time_reversal_intertwining": symmetric_defect(H),
    }
    return system, cls, residuals
