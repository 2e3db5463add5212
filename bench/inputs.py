"""Seeded inputs for the three benchmark workloads.

Every input carries its ground truth.  Planted matrices are built here and
not with ``pseudoherm.ensembles.planted_matrix``: that generator draws
distinct real levels at least 0.25 apart inside [-3, 3] by rejection and
never returns once it needs 24 or more of them (ROADMAP defect D3).  Here
the real levels sit on a unit-spaced grid whose width grows with n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KIND_CLASS = {"real": "all_real", "paired": "conjugate_paired", "unpaired": "unpaired"}

# The refusals the theory mandates for each spectrum class: no Hermitian
# metric exists for an unpaired spectrum, no hermitizing similarity for a
# non-real one.
MANDATED_REFUSALS = {
    "all_real": set(),
    "conjugate_paired": {"hermitization"},
    "unpaired": {"metric", "hermitization"},
}

SMALL_SIZES = range(4, 33)
SMALL_COPIES = 2
LARGE_SIZES = (192, 224, 256)
LATTICE_SWEEP = tuple(
    (n, v2, eps) for n in (41, 81, 121, 161) for v2 in ("x", "x^3") for eps in (0.1, 1.0)
)
LATTICE_HALF_WIDTH = 10.0


@dataclass
class Item:
    """One benchmark input: a matrix (or lattice spec) plus its ground truth.

    ``spec_class`` is the planted spectrum class, or ``None`` for a lattice
    whose class is read off the reference eig at run time.  ``levels`` are
    the planted (energy, multiplicity) pairs and ``scale`` their overall
    factor.  ``build_error`` holds the
    exception raised while building a lattice matrix through the program.
    ``path`` (the CLI input file), ``system`` (the eigensystem the gauge
    op starts from, or ``system_error``) and ``blocks`` (the gauge op's
    coefficient family) are filled in during set-up.
    """

    label: str
    h: np.ndarray | None
    spec_class: str | None = None
    levels: list[tuple[complex, int]] = field(default_factory=list)
    scale: float = 1.0
    lattice: tuple[int, str, float] | None = None
    build_error: Exception | None = None
    path: str | None = None
    system: object = None
    system_error: Exception | None = None
    blocks: list[np.ndarray] | None = None


# Bound at import so that a traced run does not count the benchmark's own QR.
_QR = np.linalg.qr


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = _QR(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def planted(
    rng: np.random.Generator, n: int, kind: str, degenerate: int = 0, scale: float = 1.0
) -> Item:
    """``scale * S diag(E) S^-1`` with kappa(S) <= 10 and a known level list.

    Real levels are ``k - (m-1)/2 + U(-0.3, 0.3)`` for k = 0..m-1, so any two
    distinct levels are at least 0.4 apart.  Complex levels keep
    |Im E| >= 0.5, so they are at least 0.5 from every real level and a
    conjugate pair is at least 1 apart.  ``degenerate`` (2 or 3) gives one
    real level that multiplicity.
    """
    n_complex = {"real": 0, "paired": 2, "unpaired": 1}[kind]
    real_cols = n - n_complex
    d = min(degenerate, real_cols)
    m = real_cols - max(d - 1, 0)
    grid = np.arange(m) - (m - 1) / 2.0 + rng.uniform(-0.3, 0.3, m)
    levels = [(complex(x), 1) for x in grid]
    if d >= 2:
        k = int(rng.integers(m))
        levels[k] = (levels[k][0], d)
    half = max(m / 2.0, 1.0)
    if n_complex:
        z = complex(rng.uniform(-half, half), rng.uniform(0.5, 2.0))
        levels.append((z, 1))
        if kind == "paired":
            levels.append((z.conjugate(), 1))
    levels = [(e * scale, mult) for e, mult in levels]
    levels.sort(key=lambda t: (t[0].real, t[0].imag))

    values = np.concatenate([[e] * mult for e, mult in levels])
    sigma = np.exp(rng.uniform(0.0, np.log(10.0), n))
    u, v = _unitary(rng, n), _unitary(rng, n)
    # S = u diag(sigma) v, so S^-1 = v^dagger diag(1/sigma) u^dagger exactly
    h = (u * sigma) @ (v * values) @ (v.conj().T / sigma) @ u.conj().T
    return Item(
        label=f"{kind}-n{n}-d{d}-s{scale:.1e}",
        h=h,
        spec_class=KIND_CLASS[kind],
        levels=levels,
        scale=scale,
    )


def planted_small_pool(rng: np.random.Generator) -> list[Item]:
    """Two copies of every (n, kind) pair with n in 4..32.

    The overall scale is 10^u; u is stratified over [-6, 6] so every seed
    sees the same spread of scales.  The second copy of each pair carries
    one degenerate level, d=2 for even n and d=3 for odd n, so every seed
    has the same mix of sizes and multiplicities.
    """
    kinds = ("real", "paired", "unpaired")
    combos = [(n, kinds[i % 3]) for i, n in enumerate(list(SMALL_SIZES) * 3 * SMALL_COPIES)]
    size = len(combos)
    strata = rng.permutation(size)
    items = []
    copies: dict[tuple[int, str], int] = {}
    for i, (n, kind) in enumerate(combos):
        u = -6.0 + 12.0 * (strata[i] + rng.random()) / size
        copy = copies[n, kind] = copies.get((n, kind), -1) + 1
        degenerate = 2 + n % 2 if copy % 2 else 0
        items.append(planted(rng, n, kind, degenerate, 10.0**u))
    return [items[i] for i in rng.permutation(size)]


def planted_large_pool(rng: np.random.Generator) -> list[Item]:
    """All-real spectra at n = 192, 224, 256, each with one degenerate level."""
    items = [planted(rng, n, "real", int(rng.choice((2, 3)))) for n in LARGE_SIZES]
    return [items[i] for i in rng.permutation(len(items))]


def lattice_pool(rng: np.random.Generator, ph) -> list[Item]:
    """The fixed PT-lattice sweep, in seeded order, built through ``ph``.

    A configuration the program cannot build (defect D4) is kept, with its
    error, so that every op on it counts as failed.
    """
    items = []
    for i in rng.permutation(len(LATTICE_SWEEP)):
        n, v2, eps = LATTICE_SWEEP[i]
        item = Item(label=f"lattice-n{n}-{v2}-eps{eps}", h=None, lattice=(n, v2, eps))
        try:
            spec = ph.make_lattice(n, LATTICE_HALF_WIDTH, 1.0, "x^2", v2, eps)
            item.h = ph.build_pt_hamiltonian(spec)
        except ph.PseudoHermError as exc:
            item.build_error = exc
        items.append(item)
    return items


def symmetric_coefficients(rng: np.random.Generator, dims) -> list[np.ndarray]:
    """Complex symmetric blocks ``u diag(s) u^T`` with s in [1, 3].

    The Takagi values of such a block are s, so every block is invertible
    with condition number at most 3.
    """
    out = []
    for d in dims:
        u = _unitary(rng, d)
        out.append((u * rng.uniform(1.0, 3.0, d)) @ u.T)
    return out
