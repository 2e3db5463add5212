"""Complete biorthonormal eigensystems of diagonalizable complex matrices.

The central object is :class:`BiorthonormalSystem`: eigenvalues grouped into
levels with multiplicities, together with right eigenvector blocks ``psi``
and left eigenvector blocks ``phi`` satisfying

    H psi_n = E_n psi_n,        H^dagger phi_n = conj(E_n) phi_n,
    Phi^dagger Psi = 1,         Psi Phi^dagger = 1,

where ``Psi``/``Phi`` stack the blocks column-wise.  Everything downstream
(antilinear automorphisms, metrics, hermitization) is built on top of these
identities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import (
    DEFAULT_COND_CEILING,
    as_square_matrix,
    block_groups,
    condition_number,
    max_abs,
    scale_of,
)
from .errors import AmbiguousPairingError, NotDiagonalizableError

DEFAULT_TOL = 1e-10
DEFAULT_REALNESS_TOL = 1e-8
CLUSTER_GAP_FACTOR = 1e-8


class SpectrumTag(str, enum.Enum):
    """Coarse classification of a discrete spectrum."""

    ALL_REAL = "all_real"
    CONJUGATE_PAIRED = "conjugate_paired"
    UNPAIRED = "unpaired"


@dataclass(frozen=True)
class EigenLevel:
    """One eigenvalue with its degenerate right/left eigenvector blocks.

    ``psi`` and ``phi`` are n x d arrays of the level's right and left
    eigenvectors; for a system the package solved they are read-only views
    of its stored Psi and Phi, made when ``levels`` is first read.  The psi
    columns are orthonormal (the gauge is fixed by QR).
    """

    energy: complex
    psi: np.ndarray
    phi: np.ndarray

    @property
    def multiplicity(self) -> int:
        return self.psi.shape[1]


@dataclass(frozen=True)
class BiorthonormalSystem:
    """Grouped eigensystem with paired left/right eigenvector blocks.

    A system stores Psi and Phi (``psi_matrix``, ``phi_matrix``: all right and
    left eigenvectors stacked as columns, level by level), one energy per
    level and the level offsets once, read-only; the constructor stacks the
    caller's levels into them.  A system the package solved
    (``_on_stored``) is those arrays: its ``levels`` tuple is built on first
    read, from views into Psi and Phi, and then kept.
    """

    dim: int
    levels: tuple[EigenLevel, ...]
    tol: float

    def __post_init__(self):
        levels = self.levels
        vars(self).update(
            psi_matrix=_read_only(np.hstack([lv.psi for lv in levels])),
            phi_matrix=_read_only(np.hstack([lv.phi for lv in levels])),
            _level_energies=_read_only(np.array([lv.energy for lv in levels])),
            _offsets=np.cumsum([0, *(lv.multiplicity for lv in levels)]),
        )

    def __getattr__(self, name: str):
        """``levels`` of a stored system, built once from the stored arrays."""
        if name != "levels":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        psi, phi, bounds = self.psi_matrix, self.phi_matrix, self._offsets.tolist()
        levels = vars(self)["levels"] = tuple(
            EigenLevel(e, psi[:, a:b], phi[:, a:b])
            for e, a, b in zip(self._level_energies.tolist(), bounds, bounds[1:])
        )
        return levels

    @cached_property
    def cond(self) -> float:
        """2-norm condition number of psi_matrix (and of phi_matrix, Phi^dagger =
        Psi^{-1}); measured once, by ``_assemble`` or else on first access."""
        return condition_number(self.psi_matrix)

    @cached_property
    def energies(self) -> np.ndarray:
        """Level energy repeated per column, aligned with psi_matrix; read-only."""
        return _read_only(np.repeat(self._level_energies, np.diff(self._offsets)))

    @cached_property
    def _groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Levels grouped by multiplicity d, ascending: per d the levels, in
        order, and their columns in the stacked matrices, shape (k, d)."""
        return block_groups(np.diff(self._offsets))

    @cached_property
    def _biorthonormality(self) -> tuple[float, float]:
        """Max-norm residuals of Phi^dagger Psi = 1 and Psi Phi^dagger = 1, formed once."""
        psi, phi = self.psi_matrix, self.phi_matrix
        eye = np.eye(self.dim)
        return max_abs(phi.conj().T @ psi - eye), max_abs(psi @ phi.conj().T - eye)

    def level_slices(self) -> list[slice]:
        """Column ranges of each level inside the stacked matrices."""
        bounds = self._offsets.tolist()
        return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SpectrumClass:
    """Spectrum tag plus the involutive conjugate-pairing permutation.

    ``pairing[i]`` is the index of the level carrying conj(E_i); real levels
    map to themselves.
    """

    tag: SpectrumTag
    pairing: tuple[int, ...]
    realness_tol: float

    @property
    def is_real(self) -> bool:
        return self.tag is SpectrumTag.ALL_REAL


def _cluster_indices(values: np.ndarray, gap: float) -> list[list[int]]:
    """Connected components of the eigenvalue chain graph at distance <= gap,
    ordered by smallest index.  Sort and sweep along whichever of Re E and
    Im E spreads wider: only pairs within 2|gap| on that axis are compared,
    a superset of the pairs within gap that rounding cannot shrink."""
    n = len(values)
    re, im = values.real, values.imag
    axis = re if re.max() - re.min() >= im.max() - im.min() else im
    order = np.argsort(axis)
    coord = axis[order]
    reach = coord.searchsorted(coord + 2.0 * abs(gap), "right")  # candidates of k: k+1 .. reach[k]-1
    starts = np.flatnonzero(reach > np.arange(1, n + 1)).tolist()
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if starts:
        order, reach, values = order.tolist(), reach.tolist(), values.tolist()
        for k in starts:
            i = order[k]
            for j in order[k + 1 : reach[k]]:
                if abs(values[i] - values[j]) <= gap:
                    parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def biorthonormal_eigensystem(
    H, tol: float = DEFAULT_TOL, cluster_gap: float | None = None
) -> BiorthonormalSystem:
    """Compute a complete biorthonormal eigensystem of a diagonalizable matrix.

    Parameters
    ----------
    H : array_like, shape (n, n)
        Complex matrix, finite entries.  Diagonalizability is checked, not
        assumed.
    tol : float
        Construction tolerance.  Every residual of the returned system
        (biorthonormality, completeness, eigen-equations, reconstruction)
        is verified to be below ``tol`` (relative to ``max|H|`` where the
        identity involves H).
    cluster_gap : float, optional
        Two raw eigenvalues belong to the same level iff their distance is
        at most this gap (chained).  Defaults to ``1e-8 * max|H|``.  The
        grouping rule is a numerical choice; it is reported alongside
        results.

    Returns
    -------
    BiorthonormalSystem
        Levels sorted by (Re E, Im E); psi columns orthonormal within each
        level; phi derived from the inverse of the stacked psi matrix, so
        biorthonormality and completeness hold by construction up to
        inversion error.  Its ``cond`` is the condition number of the
        stacked psi matrix, at most ``DEFAULT_COND_CEILING`` (1e8).

    Raises
    ------
    NonFiniteError
        If H contains NaN/Inf.
    NotDiagonalizableError
        If the condition number of the stacked psi matrix exceeds
        ``DEFAULT_COND_CEILING`` or the verified residuals exceed ``tol``
        (defective or near-defective input, or an unreachable tolerance).
    """
    H = as_square_matrix(H, "H")
    return _assemble(_raw_levels(H, cluster_gap), H, tol)


def _raw_levels(H: np.ndarray, cluster_gap) -> list:
    """(energy, orthonormal psi block) per level, sorted by (Re E, Im E)."""
    if cluster_gap is None:
        cluster_gap = CLUSTER_GAP_FACTOR * max_abs(H)
    w, v = np.linalg.eig(H)
    groups = _cluster_indices(w, cluster_gap)
    levels = []  # one stacked QR per multiplicity; a simple level's energy is w[i] itself
    for d in {len(idx) for idx in groups}:
        same = [idx for idx in groups if len(idx) == d]
        energies = np.mean(w[same], axis=1) if d > 1 else w[same][:, 0]
        levels += zip(energies.tolist(), np.linalg.qr(v[:, same].transpose(1, 0, 2))[0])
    return sorted(levels, key=lambda t: (t[0].real, t[0].imag))


def _assemble(levels_raw: list, H: np.ndarray, tol: float) -> BiorthonormalSystem:
    """System storing Psi, Phi = Psi^{-dagger} and E once, verified against H."""
    psi = np.hstack([q for _, q in levels_raw])
    cond = condition_number(psi)
    if cond > DEFAULT_COND_CEILING:
        raise NotDiagonalizableError(
            f"eigenvector matrix condition number {cond:.3e} exceeds ceiling "
            f"{DEFAULT_COND_CEILING:.3e}; input is defective or nearly so"
        )
    offsets = np.cumsum([0, *(q.shape[1] for _, q in levels_raw)])
    energies = _read_only(np.array([e for e, _ in levels_raw]))
    sys = _on_stored(
        _read_only(psi), _read_only(np.linalg.inv(psi).conj().T), energies, offsets, tol,
        cond=cond, energies=_read_only(np.repeat(energies, np.diff(offsets))),
    )
    _verify_system(sys, H, tol)
    return sys


def _on_stored(
    psi: np.ndarray, phi: np.ndarray, level_energies: np.ndarray, offsets: np.ndarray, tol: float,
    **cached,
) -> BiorthonormalSystem:
    """System that is its read-only Psi and Phi, per-level energies and level
    offsets: it builds no ``EigenLevel`` (``levels`` is made on first read);
    seeds the ``cached`` properties and leaves the rest to be measured on
    first access."""
    sys = object.__new__(BiorthonormalSystem)
    vars(sys).update(
        dim=psi.shape[0], tol=tol, psi_matrix=psi, phi_matrix=phi,
        _level_energies=level_energies, _offsets=offsets, **cached,
    )
    return sys


def _verify_system(sys: BiorthonormalSystem, H: np.ndarray, tol: float) -> None:
    psi, phi, energies = sys.psi_matrix, sys.phi_matrix, sys.energies
    residuals = dict(zip(("biorthonormality", "completeness"), sys._biorthonormality))
    hscale = scale_of(H)
    residuals["right_eigen"] = max_abs(H @ psi - psi * energies) / hscale
    residuals["left_eigen"] = max_abs(H.conj().T @ phi - phi * np.conj(energies)) / hscale
    residuals["reconstruction"] = max_abs((psi * energies) @ phi.conj().T - H) / hscale
    worst = max(residuals, key=residuals.get)
    if residuals[worst] > tol:
        raise NotDiagonalizableError(
            f"could not reach tolerance {tol:.1e}: {worst} residual is "
            f"{residuals[worst]:.3e}; input is near-defective, has spectral "
            f"clusters wider than tol but narrower than the cluster gap, or "
            f"tol is too tight for its conditioning"
        )


def biorthonormality_residuals(sys: BiorthonormalSystem) -> tuple[float, float]:
    """Max-norm residuals of Phi^dagger Psi = 1 and Psi Phi^dagger = 1; formed
    once per system, and the ones ``biorthonormal_eigensystem`` verified."""
    return sys._biorthonormality


def classify_spectrum(
    sys: BiorthonormalSystem, realness_tol: float = DEFAULT_REALNESS_TOL
) -> SpectrumClass:
    """Classify the spectrum as all-real, conjugate-paired, or unpaired.

    A level is real when |Im E| <= realness_tol.  A non-real level is paired
    with the non-real level lying within realness_tol of its conj(E); the
    match must be unique and multiplicities must agree, otherwise the level
    counts as unpaired.

    Raises
    ------
    AmbiguousPairingError
        If two or more distinct candidate partners lie within realness_tol
        of the conjugate target — a sign that realness_tol is coarser than
        the level spacing.  The message names the first such level.
    """
    return _classify(sys._level_energies, np.diff(sys._offsets), realness_tol)


def _classify(energies: np.ndarray, mult: np.ndarray, realness_tol: float) -> SpectrumClass:
    """classify_spectrum on the arrays of level energies and multiplicities."""
    pairing = np.arange(len(energies))
    nonreal = np.flatnonzero(np.abs(energies.imag) > realness_tol)
    if nonreal.size == 0:
        return SpectrumClass(SpectrumTag.ALL_REAL, tuple(pairing.tolist()), realness_tol)

    # near[a, b]: level nonreal[b] lies within tol of conj(E) of level nonreal[a];
    # the relation is symmetric, so unique candidates already pair up
    e = energies[nonreal]
    near = np.abs(e[None, :] - np.conj(e)[:, None]) <= realness_tol
    count = near.sum(axis=1)
    if np.any(count > 1):
        a = int(np.argmax(count > 1))
        i = nonreal[a]
        raise AmbiguousPairingError(
            f"level {i} (E={energies[i]:.6g}) has {count[a]} conjugate-partner "
            f"candidates within tolerance {realness_tol:.1e}"
        )
    partner = nonreal[np.argmax(near, axis=1)]
    paired = (count == 1) & (mult[partner] == mult[nonreal])
    pairing[nonreal[paired]] = partner[paired]
    tag = SpectrumTag.CONJUGATE_PAIRED if paired.all() else SpectrumTag.UNPAIRED
    return SpectrumClass(tag=tag, pairing=tuple(pairing.tolist()), realness_tol=realness_tol)


def reconstruct(sys: BiorthonormalSystem, conjugate: bool = False) -> np.ndarray:
    """Rebuild the operator from its levels.

    With ``conjugate=False`` returns ``sum_n E_n psi_n phi_n^dagger`` (the
    original matrix); with ``conjugate=True`` returns
    ``sum_n conj(E_n) phi_n psi_n^dagger`` (its adjoint).
    """
    psi, phi = sys.psi_matrix, sys.phi_matrix
    energies = sys.energies
    if conjugate:
        return (phi * np.conj(energies)) @ psi.conj().T
    return (psi * energies) @ phi.conj().T
