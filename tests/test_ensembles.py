"""Planted generators: termination, level separation and conditioning."""

import time

import numpy as np
import pytest

from pseudoherm.ensembles import (
    MIN_LEVEL_GAP,
    planted_matrix,
    random_invertible,
    random_symmetric_invertible,
)


def test_many_distinct_real_levels(rng):
    pm = planted_matrix(rng, 64, "real", degenerate=False)
    values = np.sort(np.array([e for e, _ in pm.levels]).real)
    assert len(values) == 64
    assert np.min(np.diff(values)) >= MIN_LEVEL_GAP


@pytest.mark.parametrize("n", [96, 128, 256])
def test_planted_matrix_returns_at_large_n(n):
    """The similarity is drawn in closed form, so the draw takes no retries:
    about 0.06 s at n=256 on one core, where rejection sampling never returned."""
    start = time.perf_counter()
    pm = planted_matrix(np.random.default_rng(n), n, "real")
    assert time.perf_counter() - start < 5.0
    assert pm.dim == n and sum(d for _, d in pm.levels) == n


@pytest.mark.parametrize("max_cond", [2.0, 10.0, 50.0])
def test_random_similarities_keep_the_condition_bound(max_cond):
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 40):
        s = np.linalg.svd(random_invertible(rng, n, max_cond), compute_uv=False)
        assert s[0] / s[-1] <= max_cond * (1 + 1e-12)
        c = random_symmetric_invertible(rng, n, max_cond)
        assert np.max(np.abs(c - c.T)) <= 1e-14 * np.max(np.abs(c))
        s = np.linalg.svd(c, compute_uv=False)
        assert s[0] / s[-1] <= max_cond * (1 + 1e-12)
        assert s[-1] >= 0.2 * (1 - 1e-12)
