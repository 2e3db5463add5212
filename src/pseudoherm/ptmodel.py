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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    as_square_matrix,
    hermitian_defect,
    max_abs,
    require_same_dim,
    scale_of,
    takagi_factor,
)
from .antilinear import AntilinearOperator
from .eigensystem import (
    DEFAULT_REALNESS_TOL,
    DEFAULT_TOL,
    BiorthonormalSystem,
    _assemble,
    _classify,
    _raw_levels,
)
from .errors import (
    AsymmetricPotentialError,
    NotPTSymmetricError,
    ResultNotHermitianError,
)
from .metric import MetricOperator, is_pseudo_hermitian


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
        if self.n_sites < 3 or self.n_sites % 2 == 0:
            raise ValueError("n_sites must be odd and at least 3")
        if self.half_width <= 0 or self.mass <= 0:
            raise ValueError("half_width and mass must be positive")
        object.__setattr__(self, "v1", np.asarray(self.v1, dtype=float))
        object.__setattr__(self, "v2", np.asarray(self.v2, dtype=float))
        if self.v1.shape != (self.n_sites,) or self.v2.shape != (self.n_sites,):
            raise ValueError("potential samples must have one value per site")
        if np.any(self.v1 != self.v1[::-1]):
            raise AsymmetricPotentialError("v1 samples are not even-symmetric")
        if np.any(self.v2 != -self.v2[::-1]):
            raise AsymmetricPotentialError("v2 samples are not odd-symmetric")

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
    mid = (n_sites - 1) // 2
    x = (np.arange(n_sites) - mid) * (2.0 * half_width / (n_sites - 1))
    return LatticeSpec(
        n_sites=n_sites,
        half_width=half_width,
        mass=mass,
        v1=_eval_potential(v1, x),
        v2=eps * _eval_potential(v2, x),
    )


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
    """
    n, h = spec.n_sites, spec.spacing
    coeff = -1.0 / (2.0 * spec.mass * h * h)
    kinetic = coeff * (
        np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1) - 2.0 * np.eye(n)
    )
    return kinetic + np.diag(spec.v1) + 1j * np.diag(spec.v2)


def time_reversal(n: int) -> AntilinearOperator:
    """Plain complex conjugation in the site basis (identity matrix)."""
    return AntilinearOperator(np.eye(n, dtype=np.complex128))


def pt_commutation_residuals(H, parity) -> tuple[float, float]:
    """Raw max-norm residuals of ``H^dagger P - P H`` and ``H P - P conj(H)``."""
    H = as_square_matrix(H, "H")
    p = as_square_matrix(parity, "parity")
    require_same_dim(H, p, "H and parity")
    return (
        max_abs(H.conj().T @ p - p @ H),
        max_abs(H @ p - p @ np.conj(H)),
    )


def eta_from_tau_pt(
    H, tau: AntilinearOperator, parity, tol: float = DEFAULT_TOL
) -> MetricOperator:
    """Linear metric from composing tau with the parity-conjugation map.

    The composition of the two antilinear maps is linear with matrix
    ``m P``.  Requires H to commute with the parity-conjugation map; the
    result must come out Hermitian and intertwining, otherwise the supplied
    tau is inconsistent with H (e.g. built on a gauge that is not
    parity-conjugation adapted).
    """
    H = as_square_matrix(H, "H")
    p = as_square_matrix(parity, "parity")
    require_same_dim(H, p, "H and parity")
    require_same_dim(H, tau.matrix, "H and tau")
    if max_abs(H @ p - p @ np.conj(H)) > tol * scale_of(H):
        raise NotPTSymmetricError("H does not commute with the parity-conjugation map")
    eta = tau.matrix @ np.conj(p)
    if hermitian_defect(eta) > tol * scale_of(eta):
        raise ResultNotHermitianError(
            "tau composed with parity-conjugation is not Hermitian; "
            "tau is inconsistent with H (try a parity-adapted eigenbasis)"
        )
    eta = (eta + eta.conj().T) / 2.0
    check = is_pseudo_hermitian(H, eta, tol)
    if not check.ok:
        raise ResultNotHermitianError(
            f"composed metric fails the intertwining identity (residual {check.residual:.3e})"
        )
    positive = bool(np.linalg.eigvalsh(eta)[0] > 0.0)
    factor = np.linalg.cholesky(eta) if positive else None
    return MetricOperator(matrix=eta, positive_definite=positive, factor=factor)


def pt_adapted_eigensystem(
    H,
    parity=None,
    tol: float = DEFAULT_TOL,
    realness_tol: float = DEFAULT_REALNESS_TOL,
    cluster_gap: float | None = None,
) -> BiorthonormalSystem:
    """Eigensystem re-gauged so the parity-conjugation map acts canonically.

    In the adapted gauge, real levels are fixed point-wise
    (``P conj(psi) = psi``) and each conjugate pair uses the parity image of
    its partner's basis.  The canonical automorphism of such a system then
    commutes with the parity-conjugation map, which makes ``eta = m P``
    Hermitian.
    """
    H = as_square_matrix(H, "H")
    p = parity_matrix(H.shape[0]) if parity is None else as_square_matrix(parity, "parity")
    if max_abs(H @ p - p @ np.conj(H)) > tol * scale_of(H):
        raise NotPTSymmetricError("H does not commute with the parity-conjugation map")

    raw = _raw_levels(H, cluster_gap)
    pairing = _classify(raw, realness_tol).pairing
    new_psi: list[np.ndarray] = []
    for i, (_, q) in enumerate(raw):
        j = pairing[i]
        if j == i:
            # parity-conjugation restricted to the level is an antiunitary
            # involution g conj(.) in the basis q; g is unitary symmetric, so
            # its Takagi factor u is unitary and u conj(u)^{-1} = u u^T = g
            g = q.conj().T @ p @ np.conj(q)
            new_psi.append(q @ takagi_factor(g)[0])
        elif j > i:
            new_psi.append(q)
        else:
            new_psi.append(p @ np.conj(new_psi[j]))
    return _assemble([(e, q) for (e, _), q in zip(raw, new_psi)], H, tol)
