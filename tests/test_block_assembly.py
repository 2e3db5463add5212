"""Block-product assembly of eta, tau and tau^{-1} against per-level sums."""

import numpy as np
import pytest

from pseudoherm import (
    biorthonormal_eigensystem,
    build_metric,
    build_tau,
    classify_spectrum,
    invert_tau,
)
from pseudoherm.ensembles import planted_matrix, random_coefficients


def reference_metric(sys_, cls, w):
    eta = np.zeros((sys_.dim, sys_.dim), dtype=complex)
    for i, lv in enumerate(sys_.levels):
        j = cls.pairing[i]
        if j == i:
            eta += w[i] * (lv.phi @ lv.phi.conj().T)
        elif j > i:
            pj = sys_.levels[j].phi
            eta += w[i] * (lv.phi @ pj.conj().T + pj @ lv.phi.conj().T)
    return eta


def reference_tau(sys_, blocks):
    m = np.zeros((sys_.dim, sys_.dim), dtype=complex)
    for lv, c in zip(sys_.levels, blocks):
        m += lv.phi @ c @ lv.phi.T
    return m


def reference_tau_inverse(sys_, blocks):
    m = np.zeros((sys_.dim, sys_.dim), dtype=complex)
    for lv, c in zip(sys_.levels, blocks):
        m += lv.psi @ np.conj(np.linalg.inv(c)) @ lv.psi.T
    return m


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def planted(rng, kind):
    """paired, real with a degenerate level, or real with simple levels."""
    if kind == "paired":
        return planted_matrix(rng, 7, "paired").matrix
    degenerate = kind == "degenerate"
    while True:
        pm = planted_matrix(rng, 6, "real", degenerate=degenerate)
        if not degenerate or any(d > 1 for _, d in pm.levels):
            return pm.matrix


@pytest.mark.parametrize("kind", ["paired", "degenerate", "real"])
@pytest.mark.parametrize("seed", range(3))
def test_block_products_match_level_sums(kind, seed):
    rng = np.random.default_rng(seed)
    sys_ = biorthonormal_eigensystem(planted(rng, kind))
    cls = classify_spectrum(sys_)
    k = len(sys_.levels)
    # a conjugate pair shares the weight of its lower-indexed level
    w = rng.uniform(0.5, 2.0, k)
    w_ref = [w[min(i, j)] for i, j in enumerate(cls.pairing)]
    coeffs = random_coefficients(rng, sys_)
    identity = [np.eye(lv.multiplicity) for lv in sys_.levels]

    assert rel_err(build_metric(sys_, cls, w).matrix, reference_metric(sys_, cls, w_ref)) <= 1e-12
    assert rel_err(build_tau(sys_, coeffs).matrix, reference_tau(sys_, coeffs.blocks)) <= 1e-12
    assert rel_err(build_tau(sys_).matrix, reference_tau(sys_, identity)) <= 1e-12
    inv = reference_tau_inverse(sys_, coeffs.blocks)
    assert rel_err(invert_tau(sys_, coeffs).matrix, inv) <= 1e-12
    assert rel_err(invert_tau(sys_).matrix, reference_tau_inverse(sys_, identity)) <= 1e-12
