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
import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from ._linalg import (  # DEFAULT_COND_CEILING is re-exported
    DEFAULT_COND_CEILING,
    as_square_matrix,
    block_groups,
    condition_number,
    diagonal_defect,
    max_abs,
    require_conditioned,
    require_within,
)
from .errors import AmbiguousPairingError, NotDiagonalizableError

DEFAULT_TOL = 1e-10
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

    # B = ||Psi||_F ||Phi||_F >= cond, seeded by ``_assemble`` when B alone kept
    # cond below its ceiling; a system without that certificate reads inf
    _cond_bound = float("inf")

    @cached_property
    def cond(self) -> float:
        """2-norm condition number of psi_matrix (and of phi_matrix, Phi^dagger =
        Psi^{-1}), by one SVD; ``_assemble`` seeds it when it had to measure it
        to decide the ceiling, else it is measured on first access."""
        return condition_number(self.psi_matrix)

    @cached_property
    def _hmax(self) -> float:
        """max|H|; seeded by ``_assemble`` and ``_regauged``, else read off ``reconstruct``."""
        return max_abs(reconstruct(self))

    @cached_property
    def energies(self) -> np.ndarray:
        """Level energy repeated per column, aligned with psi_matrix; read-only."""
        return _read_only(np.repeat(self._level_energies, self._sizes))

    @cached_property
    def _sizes(self) -> np.ndarray:
        """Multiplicity of each level."""
        return np.diff(self._offsets)

    @cached_property
    def _groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Levels grouped by multiplicity d, ascending: per d the levels, in
        order, and their columns in the stacked matrices, shape (k, d)."""
        return block_groups(self._sizes)

    @cached_property
    def _biorthonormality(self) -> tuple[float, float]:
        """Max-norm residuals of Phi^dagger Psi = 1 and Psi Phi^dagger = 1, formed once."""
        psi, phi_h = self.psi_matrix, self.phi_matrix.conj().T
        return diagonal_defect(phi_h @ psi, 1.0), diagonal_defect(psi @ phi_h, 1.0)

    def level_slices(self) -> list[slice]:
        """Column ranges of each level inside the stacked matrices."""
        bounds = self._offsets.tolist()
        return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _partner_columns(offsets: np.ndarray, pairing) -> np.ndarray:
    """Permutation pi pairing column c of level i with column c of level
    pairing[i], for levels at the given offsets."""
    shift = offsets[np.asarray(pairing)] - offsets[:-1]
    return np.arange(offsets[-1]) + np.repeat(shift, np.diff(offsets))


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
    realness_tol: float = field(init=False)  # 1e-8 max|H|, set by the classification

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
    starts = (reach > np.arange(1, n + 1)).nonzero()[0].tolist()
    if not starts:  # no candidate pair: every value is its own cluster
        return [[i] for i in range(n)]
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

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
        stacked psi matrix, at most ``DEFAULT_COND_CEILING`` (1e8).  The
        ceiling is decided in O(n^2) by the bound
        ``||Psi||_F ||Phi||_F >= cond`` when that is at most half the
        ceiling; only otherwise is ``cond`` measured, by an SVD, while the
        system is built.  Else it is measured when first read.

    Notes
    -----
    The one eig is taken in real arithmetic when H's exact entries allow it.
    An H with ``H P = P conj(H)`` exactly, for P the site reversal (a
    parity-time lattice), takes the real eig of ``Re H + P Im H``; any other
    real H takes the real eig of H.  Every other H takes one complex eig.  A
    real H lists each conjugate pair as exact conjugates and each simple
    real level with ``Im E == 0``.

    Raises
    ------
    NonFiniteError
        If H contains NaN/Inf.
    NotDiagonalizableError
        If the condition number of the stacked psi matrix exceeds
        ``DEFAULT_COND_CEILING`` or the verified residuals exceed ``tol``
        (defective or near-defective input, or an unreachable tolerance).
        It carries the number (``measured``), the bound it exceeded
        (``limit``) and the residual's name (``check``, None for the ceiling).
    """
    return _solve(as_square_matrix(H, "H"), tol, cluster_gap)[0]


def _solve(H: np.ndarray, tol: float, cluster_gap) -> tuple:
    """(system, H Psi) of a validated H: the eig of ``_raw_levels``, clustered at
    cluster_gap (None: the default), verified by ``_assemble``.  Every eigensystem
    is solved here, but ``ptmodel._adapted``'s, which re-gauges Psi in between."""
    hmax = max_abs(H)
    return _assemble(*_raw_levels(H, _cluster_gap(cluster_gap, hmax)), H, hmax, tol)


def _realness_tol(hmax: float) -> float:
    """Realness and pairing tolerance: the default cluster gap, whatever gap is used."""
    return CLUSTER_GAP_FACTOR * hmax


def _cluster_gap(cluster_gap, hmax: float) -> float:
    """The gap levels are clustered with: cluster_gap, or the default when None."""
    return _realness_tol(hmax) if cluster_gap is None else cluster_gap


def _raw_levels(H: np.ndarray, cluster_gap: float) -> tuple:
    """``_levels`` of the one eig of H, in real arithmetic when H's exact
    entries have an antilinear involution.  An H with H P = P conj(H)
    exactly, P the site reversal, takes the real eig of
    M = Q^dagger H Q = Re H + P Im H, Q = (1 + iP)/sqrt(2), and H's
    eigenvectors are Q V, the 1/sqrt(2) left to the QR: each is fixed by
    P conj(.) up to a phase, however a near-degenerate pair mixes V.  The
    scalar test H[0, 0] = conj(H[-1, -1]) turns most other H away before the
    entrywise one.  Any other real H takes the real eig of H and its
    eigenvectors V as they are (Q = (1 + i)/sqrt(2) would only add a phase,
    which the QR keeps).  Every other H takes one complex eig."""
    if H.item(0) == H.item(-1).conjugate() and (H[:, ::-1] == H[::-1].conj()).all():
        w, vr = np.linalg.eig(H.real + H.imag[::-1])
        v = vr[::-1] * 1j
        v += vr
        del vr
    elif not H.imag.any():
        w, v = np.linalg.eig(H.real)
    else:
        return _levels(*np.linalg.eig(H), cluster_gap)
    return _levels(w.astype(np.complex128, copy=False), v, cluster_gap)


def _levels(w: np.ndarray, v: np.ndarray, cluster_gap: float) -> tuple:
    """Psi, the level energies and the level offsets of the eigenvalues w
    (complex) and eigenvectors v, levels sorted by (Re E, Im E) with one
    lexsort.  Each level's psi columns are orthonormal, by one stacked QR per
    multiplicity; a simple level's energy is its eigenvalue, a degenerate
    level's the mean of its cluster."""
    groups = _cluster_indices(w, cluster_gap)
    n, k = len(w), len(groups)
    sizes = np.fromiter(map(len, groups), np.intp, k)
    members = np.fromiter(itertools.chain.from_iterable(groups), np.intp, n)  # level by level
    energies = np.empty(k, dtype=w.dtype)
    stacks = []
    for lv, cols in block_groups(sizes):
        same, d = members[cols], cols.shape[1]  # row i: the members of level lv[i]
        energies[lv] = w[same[:, 0]] if d == 1 else np.add.reduce(w[same], axis=1) / d
        stacks.append((lv, np.linalg.qr(v[:, same].transpose(1, 0, 2))[0]))
    order = np.lexsort((energies.imag, energies.real))
    offsets = np.zeros(k + 1, dtype=np.intp)
    np.cumsum(sizes[order], out=offsets[1:])
    at = np.empty(k, dtype=np.intp)  # each level's first column in Psi
    at[order] = offsets[:-1]
    psi = np.empty((n, n), dtype=np.complex128)
    for lv, q in stacks:
        psi[:, at[lv, None] + np.arange(q.shape[2])] = q.transpose(1, 0, 2)
    return psi, energies[order], offsets


_RESIDUALS = ("biorthonormality", "completeness", "right_eigen", "left_eigen", "reconstruction")
_CEILING = (
    "eigenvector matrix condition number {measured:.3e} exceeds ceiling {limit:.3e}; "
    "input is defective or nearly so"
)
_UNREACHED = (
    "could not reach tolerance {limit:.1e}: {check} residual is {measured:.3e}; input is "
    "near-defective, has spectral clusters wider than tol but narrower than the cluster gap, "
    "or tol is too tight for its conditioning"
)
_AMBIGUOUS = (
    "level {i} (E={e:.6g}) has {measured} conjugate-partner candidates within tolerance {tol:.1e}"
)


def _assemble(
    psi: np.ndarray, level_energies: np.ndarray, offsets: np.ndarray, H: np.ndarray, hmax: float,
    tol: float,
) -> tuple:
    """(system, H Psi): the system stores Psi, Phi = Psi^{-dagger} and E once,
    verified against H with max|H| = hmax; H Psi is the product its
    verification formed.  kappa(Psi) is below the ceiling by the bound
    ``||Psi||_F ||Phi||_F`` (seeded as ``_cond_bound``) or else measured
    (seeded as ``cond``)."""
    try:
        phi = np.linalg.inv(psi).conj().T
        with np.errstate(over="ignore", invalid="ignore"):
            bound = float(np.linalg.norm(psi) * np.linalg.norm(phi))
    except np.linalg.LinAlgError:  # exactly singular: no bound, the measured cond refuses it
        phi, bound = None, np.inf
    measure = partial(condition_number, psi)
    try:
        cond = require_conditioned(measure, NotDiagonalizableError, _CEILING, bound)
    except NotDiagonalizableError:
        del phi  # a kept traceback holds this frame
        raise
    sys = _on_stored(
        psi, phi, level_energies, offsets, tol,
        **({"_cond_bound": bound} if cond is None else {"cond": cond}), _hmax=hmax,
    )
    return sys, _verify_system(sys, H, hmax, tol)


def _regauged(sys: BiorthonormalSystem, psi: np.ndarray, phi: np.ndarray) -> BiorthonormalSystem:
    """sys on re-gauged bases psi and phi of its levels, keeping its levels, tol,
    ``energies``, ``_groups`` and ``_hmax``; ``cond`` is measured on first access."""
    return _on_stored(
        psi, phi, sys._level_energies, sys._offsets, sys.tol,
        energies=sys.energies, _groups=sys._groups, _hmax=sys._hmax,
    )


def _on_stored(
    psi: np.ndarray, phi: np.ndarray, level_energies: np.ndarray, offsets: np.ndarray, tol: float,
    **cached,
) -> BiorthonormalSystem:
    """System that is its Psi, Phi and per-level energies, made read-only here,
    and its level offsets: no ``EigenLevel`` is built (``levels`` is made on first
    read); the ``cached`` properties are seeded, the rest formed on first access."""
    sys = object.__new__(BiorthonormalSystem)
    vars(sys).update(
        dim=psi.shape[0], tol=tol, psi_matrix=_read_only(psi), phi_matrix=_read_only(phi),
        _level_energies=_read_only(level_energies), _offsets=offsets, **cached,
    )
    return sys


def _verify_system(sys: BiorthonormalSystem, H: np.ndarray, hmax: float, tol: float) -> tuple:
    """Refuse sys when a residual in ``_RESIDUALS`` exceeds tol (those with H
    relative to max|H| = hmax) or is not finite; the refusal names the worst,
    and a non-finite one, the first in check order, is the worst.  Returns H Psi."""
    psi, phi, energies = sys.psi_matrix, sys.phi_matrix, sys.energies
    hscale = max(hmax, 1e-300)
    with np.errstate(over="ignore", invalid="ignore"):  # entries near the float maximum
        hpsi, psi_e = H @ psi, psi * energies
        residuals = (
            *sys._biorthonormality,
            max_abs(hpsi - psi_e) / hscale,
            max_abs(H.conj().T @ phi - phi * np.conj(energies)) / hscale,
            max_abs(psi_e @ phi.conj().T - H) / hscale,
        )
    ranked = [r if r < np.inf else np.inf for r in residuals]  # NaN ranks as inf
    at = ranked.index(max(ranked))
    error = partial(NotDiagonalizableError, check=_RESIDUALS[at])
    try:
        require_within(residuals[at], tol, error, _UNREACHED, check=_RESIDUALS[at])
    except NotDiagonalizableError:
        del hpsi, psi_e  # a kept traceback holds this frame
        raise
    return hpsi


def biorthonormality_residuals(sys: BiorthonormalSystem) -> tuple[float, float]:
    """Max-norm residuals of Phi^dagger Psi = 1 and Psi Phi^dagger = 1; formed
    once per system, and the ones ``biorthonormal_eigensystem`` verified."""
    return sys._biorthonormality


def classify_spectrum(sys: BiorthonormalSystem) -> SpectrumClass:
    """Classify the spectrum as all-real, conjugate-paired, or unpaired.

    A level is real when |Im E| <= realness_tol = 1e-8 max|H|, the default
    cluster gap.  A non-real level is paired with the non-real level lying
    within realness_tol of its conj(E); the match must be unique and
    multiplicities must agree, otherwise the level counts as unpaired.

    Raises
    ------
    AmbiguousPairingError
        If two or more distinct candidate partners lie within realness_tol
        of the conjugate target — levels closer than 1e-8 max|H| that the
        cluster gap kept apart.  The message names the first such level.
    """
    return _classify(sys._level_energies, sys._sizes, _realness_tol(sys._hmax))


def _classify(energies: np.ndarray, mult: np.ndarray, realness_tol: float) -> SpectrumClass:
    """classify_spectrum on the arrays of level energies and multiplicities."""
    pairing = np.arange(len(energies))
    nonreal = (np.abs(energies.imag) > realness_tol).nonzero()[0]
    tag = SpectrumTag.ALL_REAL
    if nonreal.size:
        # near[a, b]: level nonreal[b] lies within tol of conj(E) of level nonreal[a];
        # the relation is symmetric, so unique candidates already pair up
        e = energies[nonreal]
        near = np.abs(e[None, :] - np.conj(e)[:, None]) <= realness_tol
        count = near.sum(axis=1)
        a = int(np.argmax(count > 1))  # the first ambiguous level; with none, one that passes
        i, error = nonreal[a], AmbiguousPairingError
        require_within(int(count[a]), 1, error, _AMBIGUOUS, i=i, e=energies[i], tol=realness_tol)
        partner = nonreal[np.argmax(near, axis=1)]
        paired = (count == 1) & (mult[partner] == mult[nonreal])
        pairing[nonreal[paired]] = partner[paired]
        tag = SpectrumTag.CONJUGATE_PAIRED if paired.all() else SpectrumTag.UNPAIRED
    cls = SpectrumClass(tag, tuple(pairing.tolist()))
    object.__setattr__(cls, "realness_tol", realness_tol)  # frozen, and not a constructor input
    return cls


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
