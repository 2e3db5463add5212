"""Planted random instances for exercising and verifying the toolkit.

Matrices are built as ``S diag(E) S^{-1}`` from a prescribed level
structure and a random similarity of bounded condition number, drawn in
closed form, so every ground truth
(eigenvalues, multiplicities, spectrum class) is known exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antilinear import CoefficientFamily
from .eigensystem import BiorthonormalSystem

MIN_LEVEL_GAP = 0.25
MIN_IMAG = 0.3


@dataclass(frozen=True)
class PlantedMatrix:
    """A matrix with known spectral structure.

    ``levels`` lists (eigenvalue, multiplicity) pairs; ``kind`` is one of
    "real", "paired", "unpaired".
    """

    matrix: np.ndarray
    levels: tuple[tuple[complex, int], ...]
    kind: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.concatenate([[e] * d for e, d in self.levels])


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_invertible(
    rng: np.random.Generator, n: int, max_cond: float = 50.0
) -> np.ndarray:
    """``u diag(sigma) v`` with Haar unitaries u, v and sigma log-uniform in
    [1, max_cond], so its condition number is at most max_cond."""
    sigma = np.exp(rng.uniform(0.0, np.log(max_cond), n))
    return (random_unitary(rng, n) * sigma) @ random_unitary(rng, n)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def random_symmetric_invertible(
    rng: np.random.Generator, n: int, max_cond: float = 50.0
) -> np.ndarray:
    """Complex symmetric ``u diag(sigma) u^T`` with u a Haar unitary and sigma,
    its singular values, log-uniform in [0.2, 0.2 max_cond], so its condition
    number is at most max_cond."""
    sigma = 0.2 * np.exp(rng.uniform(0.0, np.log(max_cond), n))
    u = random_unitary(rng, n)
    return (u * sigma) @ u.T


def random_coefficients(rng: np.random.Generator, sys: BiorthonormalSystem) -> CoefficientFamily:
    """Random symmetric invertible coefficient family aligned with a system."""
    return CoefficientFamily(
        tuple(random_symmetric_invertible(rng, d) for d in sys._sizes.tolist())
    )


def _separated(candidates: list[complex], value: complex, gap: float) -> bool:
    return all(
        abs(value - v) >= gap and abs(np.conj(value) - v) >= gap for v in candidates
    )


def _draw_real(rng, taken, radius, gap=MIN_LEVEL_GAP):
    while True:
        v = complex(rng.uniform(-radius, radius))
        if _separated(taken, v, gap):
            return v


def _draw_complex(rng, taken, gap=MIN_LEVEL_GAP):
    while True:
        v = complex(rng.uniform(-3.0, 3.0), rng.uniform(MIN_IMAG, 2.0) * rng.choice((-1, 1)))
        if _separated(taken, v, gap) and _separated(taken, np.conj(v), gap):
            return v


def _multiplicities(rng, dim: int, degenerate: bool) -> list[int]:
    """Split `dim` into level multiplicities, biased toward d=1 levels."""
    mults: list[int] = []
    remaining = dim
    while remaining > 0:
        if degenerate and remaining >= 3 and rng.random() < 0.15:
            d = 3
        elif degenerate and remaining >= 2 and rng.random() < 0.3:
            d = 2
        else:
            d = 1
        mults.append(min(d, remaining))
        remaining -= mults[-1]
    return mults


def planted_matrix(
    rng: np.random.Generator,
    dim: int,
    kind: str = "real",
    degenerate: bool = True,
    max_cond: float = 50.0,
) -> PlantedMatrix:
    """Random diagonalizable matrix with a prescribed spectrum type.

    kind="real": all eigenvalues real.  kind="paired": at least one strict
    conjugate pair, the rest real.  kind="unpaired": at least one complex
    eigenvalue without a partner.  Real levels lie in [-r, r] with
    r = max(3, 0.25 dim); distinct level values are separated by at least
    0.25 (also from conjugates), and complex values keep |Im E| >= 0.3 so
    classification at any tolerance below 0.1 is unambiguous.  Degenerate
    levels (d=2, d=3) appear at random unless disabled.
    """
    if kind not in ("real", "paired", "unpaired"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "paired" and dim < 2:
        raise ValueError("paired spectra need dim >= 2")

    values: list[complex] = []
    levels: list[tuple[complex, int]] = []
    taken: list[complex] = []

    def add_level(value: complex, mult: int):
        levels.append((value, mult))
        taken.append(value)
        values.extend([value] * mult)

    remaining = dim
    if kind in ("paired", "unpaired"):
        z = _draw_complex(rng, taken)
        if kind == "paired":
            pair_mult = 1 if remaining < 4 else (2 if rng.random() < 0.25 and degenerate else 1)
            add_level(z, pair_mult)
            add_level(np.conj(z), pair_mult)
            remaining -= 2 * pair_mult
            # occasionally a second pair
            if remaining >= 2 and rng.random() < 0.4:
                z2 = _draw_complex(rng, taken)
                add_level(z2, 1)
                add_level(np.conj(z2), 1)
                remaining -= 2
        else:
            add_level(z, 1)
            remaining -= 1

    radius = max(3.0, MIN_LEVEL_GAP * dim)  # dim levels always fit at the gap
    for mult in _multiplicities(rng, remaining, degenerate):
        add_level(_draw_real(rng, taken, radius), mult)

    s = random_invertible(rng, dim, max_cond)
    h = s @ np.diag(np.array(values)) @ np.linalg.inv(s)
    return PlantedMatrix(matrix=h, levels=tuple(levels), kind=kind)


def planted_ensemble(
    seed: int,
    count: int,
    dims=(2, 12),
    kinds=("real", "paired", "unpaired"),
) -> list[PlantedMatrix]:
    """Deterministic mixed ensemble cycling through kinds and dimensions."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        dim = dims[0] + (i % (dims[1] - dims[0] + 1))
        if kind != "real":
            dim = max(dim, 3)
        out.append(planted_matrix(rng, dim, kind))
    return out
