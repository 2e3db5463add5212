"""Planted generators: termination and level separation."""

import numpy as np

from pseudoherm.ensembles import MIN_LEVEL_GAP, planted_matrix


def test_many_distinct_real_levels(rng):
    pm = planted_matrix(rng, 64, "real", degenerate=False)
    values = np.sort(np.array([e for e, _ in pm.levels]).real)
    assert len(values) == 64
    assert np.min(np.diff(values)) >= MIN_LEVEL_GAP
