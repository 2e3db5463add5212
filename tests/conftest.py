"""Shared fixtures: planted instances with known spectral structure."""

import numpy as np
import pytest

from pseudoherm.ensembles import planted_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def planted_paired(rng):
    """6x6 with one conjugate pair, a d=2 real level and two simple reals."""
    return planted_matrix(rng, 6, "paired")


@pytest.fixture
def planted_real(rng):
    """5x5 all-real, non-normal, includes a degenerate level."""
    while True:
        pm = planted_matrix(rng, 5, "real")
        if any(d > 1 for _, d in pm.levels):
            return pm


@pytest.fixture
def planted_unpaired(rng):
    return planted_matrix(rng, 4, "unpaired")


def planted_3x3_conjugate(seed=7):
    """The fixed planted example: spectrum {1+2i, 1-2i, 3}."""
    rng = np.random.default_rng(seed)
    while True:
        s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        if np.linalg.cond(s) < 20:
            break
    vals = np.array([1 + 2j, 1 - 2j, 3.0])
    return s @ np.diag(vals) @ np.linalg.inv(s), vals


def near_real_matrix(im):
    """S diag(1 + i*im, 2, 3, 4) S^-1 with S from default_rng(0): for im
    below realness_tol 1e-8 the level counts as real, yet at 5e-9 and 5e-10
    the chain identities miss tol 1e-10."""
    rng = np.random.default_rng(0)
    s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return s @ np.diag([1 + im * 1j, 2, 3, 4]) @ np.linalg.inv(s)


def mixed_multiplicity_matrix(seed=11, mults=(1, 1, 2, 2, 3)):
    """S diag(E) S^-1 with levels of the given multiplicities in level order,
    by default (1, 1, 2, 2, 3): two simple levels and two levels of the same
    d >= 2."""
    rng = np.random.default_rng(seed)
    n = sum(mults)
    while True:
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(s) < 50:
            break
    energies = np.repeat([-2.0, -1.0, 0.5, 1.5, 3.0], mults)
    return s @ np.diag(energies) @ np.linalg.inv(s)


def real_planted_matrix(rng, n, kind, d, scale):
    """scale * S D S^-1 with S real Gaussian and D real block diagonal: for
    kind "conjugate_paired" max(d, n // 4) conjugate pairs a +- ib (blocks
    [[a, b], [-b, a]], b in [0.5, 2]), and real levels on a unit grid.  The
    first level has multiplicity d."""
    pairs = max(d, n // 4) if kind == "conjugate_paired" else 0
    ab = zip(rng.uniform(-3, 3, pairs), rng.uniform(0.5, 2, pairs))
    blocks = [np.array([[a, b], [-b, a]]) for a, b in ab]
    blocks += [np.array([[e]]) for e in np.arange(n - 2 * pairs) - (n - 2 * pairs - 1) / 2]
    blocks[1:d] = blocks[:1] * (d - 1)
    D, at = np.zeros((n, n)), 0
    for block in blocks:
        k = len(block)
        D[at : at + k, at : at + k] = block
        at += k
    s = rng.standard_normal((n, n))
    return scale * (s @ D @ np.linalg.inv(s))
