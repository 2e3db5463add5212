"""Biorthonormal eigensystem construction, classification, reconstruction."""

import ast
import json
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import pseudoherm
from pseudoherm import (
    AmbiguousPairingError,
    DimensionMismatchError,
    NonFiniteError,
    NotDiagonalizableError,
    SpectrumTag,
    biorthonormal_eigensystem,
    biorthonormality_residuals,
    classify_spectrum,
    reconstruct,
)
from pseudoherm import (
    basis_change,
    build_pt_hamiltonian,
    canonicalize_tau,
    make_lattice,
    pt_adapted_eigensystem,
    real_spectrum_equivalence_report,
)
from pseudoherm.cli import cli_main
from pseudoherm.eigensystem import (
    CLUSTER_GAP_FACTOR,
    BiorthonormalSystem,
    EigenLevel,
    _classify,
    _cluster_indices,
    _levels,
    _raw_levels,
    _verify_system,
)
from pseudoherm.ensembles import planted_matrix, random_coefficients, random_unitary
from pseudoherm.io import save_matrix

from conftest import mixed_multiplicity_matrix, planted_3x3_conjugate, real_planted_matrix


def test_identity_is_one_degenerate_level():
    sys_ = biorthonormal_eigensystem(np.eye(2), tol=1e-10)
    assert len(sys_.levels) == 1
    lv = sys_.levels[0]
    assert lv.energy == pytest.approx(1.0)
    assert lv.multiplicity == 2
    np.testing.assert_allclose(sys_.psi_matrix @ sys_.psi_matrix.conj().T, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(sys_.phi_matrix, sys_.psi_matrix, atol=1e-14)


def test_diagonal_two_levels():
    sys_ = biorthonormal_eigensystem(np.diag([1.0, 2.0]))
    assert [lv.energy for lv in sys_.levels] == [1.0, 2.0]
    assert [lv.multiplicity for lv in sys_.levels] == [1, 1]
    np.testing.assert_allclose(np.abs(sys_.psi_matrix), np.eye(2), atol=1e-14)


def test_planted_conjugate_triple_recovers_spectrum():
    h, vals = planted_3x3_conjugate()
    sys_ = biorthonormal_eigensystem(h)
    recovered = sorted(sys_.energies, key=lambda z: (z.real, z.imag))
    expected = sorted(vals, key=lambda z: (z.real, z.imag))
    np.testing.assert_allclose(recovered, expected, atol=1e-10)
    # direct multiplication, both orthonormality and completeness
    psi, phi = sys_.psi_matrix, sys_.phi_matrix
    np.testing.assert_allclose(phi.conj().T @ psi, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(psi @ phi.conj().T, np.eye(3), atol=1e-12)


def test_eigen_equations_hold(planted_paired):
    h = planted_paired.matrix
    sys_ = biorthonormal_eigensystem(h)
    scale = np.max(np.abs(h))
    e = sys_.energies
    assert np.max(np.abs(h @ sys_.psi_matrix - sys_.psi_matrix * e)) <= 1e-10 * scale
    assert np.max(np.abs(h.conj().T @ sys_.phi_matrix - sys_.phi_matrix * np.conj(e))) <= 1e-10 * scale


def test_nonfinite_rejected():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(NonFiniteError):
        biorthonormal_eigensystem(bad)


def test_nonsquare_rejected():
    with pytest.raises(DimensionMismatchError):
        biorthonormal_eigensystem(np.ones((2, 3)))


def test_defective_rejected():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotDiagonalizableError):
        biorthonormal_eigensystem(jordan)


@pytest.mark.parametrize("eps", [0.0, 1e-13, 1e-11, 1e-9])
def test_defective_cluster_refused_by_residual(eps):
    """[[1, 1], [0, 1 + eps]] with eps below the cluster gap is one level
    whose orthonormalized block is well conditioned; the right-eigenvector
    residual refuses it."""
    with pytest.raises(NotDiagonalizableError, match="right_eigen"):
        biorthonormal_eigensystem(np.array([[1.0, 1.0], [0.0, 1.0 + eps]]))


@pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-6])
def test_near_defective_split_levels_accepted(eps):
    sys_ = biorthonormal_eigensystem(np.array([[1.0, 1.0], [0.0, 1.0 + eps]]))
    assert sys_.cond == pytest.approx(np.linalg.cond(sys_.psi_matrix), rel=1e-12)


RESIDUAL_MESSAGE = (
    "could not reach tolerance {tol:.1e}: {check} residual is {measured:.3e}; input is "
    "near-defective, has spectral clusters wider than tol but narrower than the cluster "
    "gap, or tol is too tight for its conditioning"
)


def test_condition_ceiling_refusal_carries_its_numbers():
    """Two levels 1.5e-8 apart, just above the cluster gap: kappa(Psi) =
    1.33e8 is refused, and the error carries it next to the ceiling."""
    with pytest.raises(NotDiagonalizableError) as err:
        biorthonormal_eigensystem(np.array([[1.0, 1.0], [0.0, 1.0 + 1.5e-8]]))
    exc = err.value
    assert (exc.check, exc.limit) == (None, 1e8)
    assert exc.measured == pytest.approx(2.0 / 1.5e-8, rel=1e-6)
    assert str(exc) == (
        f"eigenvector matrix condition number {exc.measured:.3e} exceeds ceiling "
        "1.000e+08; input is defective or nearly so"
    )


def lattice(v2, eps):
    return build_pt_hamiltonian(make_lattice(81, 10.0, 1.0, "x^2", v2, eps))


@pytest.mark.parametrize(
    "h, tol, check",
    [
        (np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-10, "right_eigen"),
        (np.diag([1.0, 1.0 + 1e-9]), 1e-12, "right_eigen"),
        (lattice("x^3", 0.1), 1e-10, "biorthonormality"),
        (lattice("x^3", 1.0), 1e-10, "biorthonormality"),
    ],
    ids=["jordan", "tight-tol", "lattice-x3-0.1", "lattice-x3-1"],
)
def test_residual_refusal_carries_its_numbers(h, tol, check):
    """The verified-residual refusal names the residual (.check) and carries
    its value (.measured) and tol (.limit); the message reads them."""
    with pytest.raises(NotDiagonalizableError) as err:
        biorthonormal_eigensystem(h, tol=tol)
    exc = err.value
    assert (exc.check, exc.limit) == (check, tol)
    assert exc.measured > tol
    assert str(exc) == RESIDUAL_MESSAGE.format(tol=tol, check=check, measured=exc.measured)


def test_refusal_traceback_holds_no_product():
    """A caller that keeps the refusal keeps its frames; the verification
    drops H Psi before raising, so they hold no array beyond the system's,
    and the kappa(Psi) ceiling, which refuses before a system exists, drops Phi."""
    # refused by right_eigen, and by the ceiling
    for eps, dropped in [(0.0, {"hpsi"}), (1.5e-8, {"hpsi", "phi"})]:
        with pytest.raises(NotDiagonalizableError) as err:
            biorthonormal_eigensystem(np.array([[1.0, 1.0], [0.0, 1.0 + eps]]))
        tb = err.value.__traceback__
        while tb is not None:
            assert not dropped & tb.tb_frame.f_locals.keys()
            tb = tb.tb_next


def test_tolerance_too_tight_rejected():
    # eigenvalues 1e-9 apart: wider than any sane tol, narrower than the gap
    h = np.diag([1.0, 1.0 + 1e-9])
    with pytest.raises(NotDiagonalizableError):
        biorthonormal_eigensystem(h, tol=1e-12)


def test_classify_all_real():
    sys_ = biorthonormal_eigensystem(np.diag([1.0, 2.0, 3.0]))
    cls = classify_spectrum(sys_)
    assert cls.tag is SpectrumTag.ALL_REAL
    assert cls.pairing == (0, 1, 2)


def test_classify_conjugate_pair():
    sys_ = biorthonormal_eigensystem(np.diag([1 + 2j, 1 - 2j, 3.0]))
    cls = classify_spectrum(sys_)
    assert cls.tag is SpectrumTag.CONJUGATE_PAIRED
    # levels sorted by (Re, Im): 1-2i, 1+2i, 3
    assert cls.pairing == (1, 0, 2)


def test_classify_unpaired():
    sys_ = biorthonormal_eigensystem(np.diag([1 + 2j, 3.0]))
    cls = classify_spectrum(sys_)
    assert cls.tag is SpectrumTag.UNPAIRED


def test_classify_hermitian_is_all_real(rng):
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (a + a.conj().T) / 2
    cls = classify_spectrum(biorthonormal_eigensystem(h))
    assert cls.tag is SpectrumTag.ALL_REAL


def test_classify_multiplicity_mismatch_is_unpaired():
    h = np.diag([1 + 2j, 1 + 2j, 1 - 2j, 0.0])
    sys_ = biorthonormal_eigensystem(h)
    cls = classify_spectrum(sys_)
    assert cls.tag is SpectrumTag.UNPAIRED


def test_ambiguous_pairing_raises():
    h = np.diag([1 + 1j, 1 - 1j + 1e-10, 1 - 1j - 1e-10])
    sys_ = biorthonormal_eigensystem(h, cluster_gap=1e-12)
    with pytest.raises(AmbiguousPairingError):
        classify_spectrum(sys_)


def test_classify_invariant_under_level_reorder(planted_paired):
    sys_ = biorthonormal_eigensystem(planted_paired.matrix)
    cls = classify_spectrum(sys_)
    perm = list(range(len(sys_.levels)))[::-1]
    shuffled = BiorthonormalSystem(
        dim=sys_.dim, levels=tuple(sys_.levels[p] for p in perm), tol=sys_.tol
    )
    cls2 = classify_spectrum(shuffled)
    assert cls2.tag is cls.tag
    # pairing conjugated by the reorder permutation
    inv = {p: i for i, p in enumerate(perm)}
    for new_i, old_i in enumerate(perm):
        assert cls2.pairing[new_i] == inv[cls.pairing[old_i]]


def test_reconstruct_diagonal():
    sys_ = biorthonormal_eigensystem(np.diag([1.0, 2.0]))
    np.testing.assert_allclose(reconstruct(sys_), np.diag([1.0, 2.0]), atol=1e-12)


def test_reconstruct_conjugate_of_diagonal():
    sys_ = biorthonormal_eigensystem(np.diag([1j, -1j]))
    np.testing.assert_allclose(reconstruct(sys_, conjugate=True), np.diag([-1j, 1j]), atol=1e-12)


def test_reconstruct_adjoint_matches_planted():
    h, _ = planted_3x3_conjugate()
    sys_ = biorthonormal_eigensystem(h)
    np.testing.assert_allclose(reconstruct(sys_, conjugate=True), h.conj().T, atol=1e-10)


def test_degenerate_levels_grouped(rng):
    pm = planted_matrix(rng, 7, "real")
    sys_ = biorthonormal_eigensystem(pm.matrix)
    got = sorted((round(lv.energy.real, 6), lv.multiplicity) for lv in sys_.levels)
    want = sorted((round(e.real, 6), d) for e, d in pm.levels)
    assert got == want


def test_residual_helper(planted_real):
    sys_ = biorthonormal_eigensystem(planted_real.matrix)
    r1, r2 = biorthonormality_residuals(sys_)
    assert r1 <= 1e-10 and r2 <= 1e-10


def _classify_by_scan(levels_raw, realness_tol):
    """Reference pairing: the per-level O(k^2) scan, (tag, pairing) or the
    AmbiguousPairingError message."""
    energies = np.array([e for e, _ in levels_raw])
    mult = [q.shape[1] for _, q in levels_raw]
    k = len(energies)
    pairing = list(range(k))
    real = [abs(e.imag) <= realness_tol for e in energies]
    candidates = {}
    for i in range(k):
        if real[i]:
            continue
        target = np.conj(energies[i])
        cands = [
            j
            for j in range(k)
            if j != i and not real[j] and abs(energies[j] - target) <= realness_tol
        ]
        if len(cands) > 1:
            return (
                f"level {i} (E={energies[i]:.6g}) has {len(cands)} conjugate-partner "
                f"candidates within tolerance {realness_tol:.1e}"
            )
        candidates[i] = cands
    unpaired_exists = False
    for i, cands in candidates.items():
        if pairing[i] != i:
            continue
        if len(cands) == 1 and mult[cands[0]] == mult[i]:
            pairing[i], pairing[cands[0]] = cands[0], i
        else:
            unpaired_exists = True
    if all(real):
        tag = SpectrumTag.ALL_REAL
    elif unpaired_exists:
        tag = SpectrumTag.UNPAIRED
    else:
        tag = SpectrumTag.CONJUGATE_PAIRED
    return tag, tuple(pairing)


@pytest.mark.parametrize("seed", range(4))
def test_classify_matches_pairing_scan(seed):
    """Conjugate pairs, real levels and single complex levels on a coarse
    grid, each moved by offsets up to 1.2 realness_tol, give exact pairs,
    near-ties, near-real levels, mismatched multiplicities and ambiguous
    partners; the array pairing agrees with the scan on each."""
    rng = np.random.default_rng(seed)
    tol = 1e-8
    offsets = np.array([0.0, 0.3, 0.6, 0.9, 1.2]) * tol

    def grid(m):
        return rng.integers(-2, 3, m) + 1j * rng.integers(1, 3, m)

    outcomes = set()
    for _ in range(500):
        pairs = grid(int(rng.integers(0, 3)))
        base = [*pairs, *pairs.conj(), *rng.integers(-2, 3, int(rng.integers(0, 3)))]
        base += [*grid(int(rng.integers(0, 2)))]
        k = len(base)
        energies = rng.permutation(base) + rng.choice(offsets, k) + 1j * rng.choice(offsets, k)
        levels = [(complex(e), np.zeros((1, int(rng.integers(1, 3))))) for e in energies]
        want = _classify_by_scan(levels, tol)
        try:
            mult = np.array([q.shape[1] for _, q in levels])
            cls = _classify(np.array([e for e, _ in levels]), mult, tol)
            got = (cls.tag, cls.pairing)
        except AmbiguousPairingError as exc:
            got = str(exc)
        assert got == want
        outcomes.add(want if isinstance(want, str) else want[0])
    assert {SpectrumTag.ALL_REAL, SpectrumTag.CONJUGATE_PAIRED, SpectrumTag.UNPAIRED} <= outcomes
    assert any(isinstance(o, str) for o in outcomes)


def union_find_clusters(values, gap):
    """The all-pairs union-find that _cluster_indices replaced, kept as reference."""
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= gap:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def clustered_set(rng):
    """Random values in clusters whose members lie about one gap apart (so
    chains form), with shared real parts, exact repeats and real-only sets."""
    gap = [0.0, 1e-8, 0.1, 1.0][rng.integers(4)]
    n = int(rng.integers(1, 25))
    centers = rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n) * rng.integers(2)
    if rng.random() < 0.3:  # ties in Re E
        centers.real = rng.choice(centers.real[: max(1, n // 3)], n)
    values = centers[rng.integers(n, size=n)]
    step = gap * rng.uniform(0.0, 1.2, n) * np.exp(2j * np.pi * rng.random(n))
    return values + step * (rng.random(n) < 0.7), gap


def test_cluster_sweep_matches_union_find():
    rng = np.random.default_rng(2024)
    for _ in range(3000):
        values, gap = clustered_set(rng)
        # the same set, also on the imaginary axis and rotated by a random angle
        for v in (values, 1j * values, values * np.exp(2j * np.pi * rng.random())):
            assert _cluster_indices(v, gap) == union_find_clusters(v, gap)
    m = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    spectrum = np.linalg.eigvalsh(m + m.conj().T)
    spectrum[5:9] = spectrum[5]  # one level of multiplicity 4
    for v in (1j * spectrum, np.exp(0.3j) * spectrum):  # purely imaginary, rotated
        assert _cluster_indices(v, 1e-8) == union_find_clusters(v, 1e-8)
    a = 1.0 + 2.0j
    chain = np.array([a + 1.8, 7.0, a, a + 0.9, a - 0.9j])  # |a - (a + 1.8)| > gap, joined via a + 0.9
    assert _cluster_indices(chain, 1.0) == [[0, 2, 3, 4], [1]] == union_find_clusters(chain, 1.0)
    ties = np.array([1.0 + 1j, 1.0 - 1j, 1.0 + 1j, 1.0])
    assert _cluster_indices(ties, 0.0) == [[0, 2], [1], [3]] == union_find_clusters(ties, 0.0)
    assert _cluster_indices(np.array([3.0 + 0j]), 0.0) == [[0]]


@pytest.mark.parametrize("kind", ["real", "paired"])
def test_assembled_levels_are_read_only_views(kind):
    rng = np.random.default_rng(9)
    sys_ = biorthonormal_eigensystem(planted_matrix(rng, 7, kind).matrix)
    for lv in sys_.levels:
        assert np.shares_memory(lv.psi, sys_.psi_matrix)
        assert np.shares_memory(lv.phi, sys_.phi_matrix)
    blocks = [a for lv in sys_.levels for a in (lv.psi, lv.phi)]
    for a in (sys_.psi_matrix, sys_.phi_matrix, sys_.energies, *blocks):
        with pytest.raises(ValueError):
            a[...] = 0.0


# The private pieces an eigensystem is made of, and the modules that may use
# them: every other module solves through ``_solve`` or re-gauges through
# ``_regauged``, and the report reads its realness tolerance off the class.
EIGENSYSTEM_PIECES = {
    "_raw_levels": {"eigensystem", "ptmodel"},
    "_assemble": {"eigensystem", "ptmodel"},
    "_on_stored": {"eigensystem"},
    "_read_only": {"eigensystem"},
    "_realness_tol": {"eigensystem", "ptmodel"},
}


def test_only_eigensystem_makes_an_eigensystem():
    misused = []
    for path in sorted(Path(pseudoherm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        misused += [
            (path.stem, name) for name, users in EIGENSYSTEM_PIECES.items()
            if name in names and path.stem not in users
        ]
    assert misused == []


def _seeded(sys_):
    """The names a system holds beyond what the constructor stores."""
    stored = {"dim", "levels", "tol", "psi_matrix", "phi_matrix", "_level_energies", "_offsets"}
    return set(vars(sys_)) - stored


@pytest.mark.parametrize("h", [np.diag([1.0, 2.0]), np.array([[1.0, 1.0], [0.0, 1.0 + 3e-8]])])
def test_every_seeded_name_is_a_cached_property(h):
    """``_on_stored`` accepts any name, so a seed under a stale name would be
    dropped silently: each name ``_assemble`` and ``_regauged`` seed is one the
    class reads.  The second H's bound (kappa(Psi) = 6.7e7) does not decide
    its ceiling, so its ``cond`` is seeded instead of ``_cond_bound``."""
    sys_ = biorthonormal_eigensystem(h)
    regauged = basis_change(sys_, [2.0 * np.eye(1), 3.0 * np.eye(1)])
    cached = {k for k, v in vars(BiorthonormalSystem).items() if isinstance(v, cached_property)}
    assert _seeded(sys_) - {"_cond_bound"} <= cached
    assert ("cond" in vars(sys_)) == bool(h[0, 1])
    assert _seeded(regauged) == {"energies", "_groups", "_hmax"}
    assert regauged._groups is sys_._groups and regauged._hmax == sys_._hmax


def test_biorthonormality_residuals_are_the_verified_ones(planted_paired):
    sys_ = biorthonormal_eigensystem(planted_paired.matrix)
    assert "_biorthonormality" in vars(sys_)  # formed while verifying, not again
    psi, phi = sys_.psi_matrix, sys_.phi_matrix
    eye = np.eye(sys_.dim)
    fresh = (np.max(np.abs(phi.conj().T @ psi - eye)), np.max(np.abs(psi @ phi.conj().T - eye)))
    assert biorthonormality_residuals(sys_) == fresh


@pytest.fixture
def level_inits(monkeypatch):
    """A one-item list counting the EigenLevel objects created during the test."""
    count = [0]
    init = EigenLevel.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(EigenLevel, "__init__", counting)
    return count


def planted_with_double_level(kind):
    """A planted n=8 matrix of the given kind with a level of multiplicity 2."""
    rng = np.random.default_rng(8)
    while True:
        pm = planted_matrix(rng, 8, kind)
        if any(d == 2 for _, d in pm.levels):
            return pm.matrix


@pytest.mark.parametrize("kind", ["real", "paired"])
def test_report_analyze_and_gauge_create_no_levels(kind, level_inits, tmp_path, capsys):
    h = planted_with_double_level(kind)
    report = real_spectrum_equivalence_report(h)
    path = tmp_path / "h.json"
    save_matrix(path, h)
    capsys.readouterr()
    assert cli_main(["analyze", str(path), "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spectrum_class"] == report["spectrum_class"]
    assert any(lv["multiplicity"] == 2 for lv in payload["levels"])
    sys_ = biorthonormal_eigensystem(h)
    canonicalize_tau(sys_, random_coefficients(np.random.default_rng(1), sys_))
    assert level_inits[0] == 0


def test_pt_model_creates_no_levels(level_inits, capsys):
    assert cli_main(["pt-model", "--n", "41", "--L", "10", "--output", "json"]) == 0
    assert level_inits[0] == 0


def solved_system(builder):
    """A system the package solved, from the named public builder."""
    if builder == "pt_adapted_eigensystem":
        return pt_adapted_eigensystem(build_pt_hamiltonian(make_lattice(41, 10.0)))
    sys_ = biorthonormal_eigensystem(mixed_multiplicity_matrix())
    rng = np.random.default_rng(12)
    if builder == "basis_change":
        return basis_change(sys_, [random_unitary(rng, d) for d in np.diff(sys_._offsets)])
    if builder == "canonicalize_tau":
        return canonicalize_tau(sys_, random_coefficients(rng, sys_))[0]
    return sys_


@pytest.mark.parametrize(
    "builder",
    ["biorthonormal_eigensystem", "pt_adapted_eigensystem", "basis_change", "canonicalize_tau"],
)
def test_levels_are_built_on_first_read(builder, level_inits):
    sys_ = solved_system(builder)
    assert level_inits[0] == 0 and "levels" not in vars(sys_)
    levels = sys_.levels
    assert level_inits[0] == len(levels) == len(sys_._offsets) - 1
    assert sys_.levels is levels
    assert level_inits[0] == len(levels)  # the second read builds none
    assert [lv.energy for lv in levels] == sys_._level_energies.tolist()
    for lv, cols in zip(levels, sys_.level_slices()):
        for block, whole in ((lv.psi, sys_.psi_matrix), (lv.phi, sys_.phi_matrix)):
            assert np.shares_memory(block, whole)
            assert not block.flags.writeable
            assert block.shape == whole[:, cols].shape
            assert block.tobytes() == whole[:, cols].tobytes()
    assert sys_ == sys_ and repr(sys_).startswith(f"BiorthonormalSystem(dim={sys_.dim}, levels=(")


def test_caller_levels_are_kept(level_inits):
    psi = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    phi = np.linalg.inv(psi).conj().T
    levels = (EigenLevel(1.0, psi[:, :1], phi[:, :1]), EigenLevel(2.0 + 0j, psi[:, 1:], phi[:, 1:]))
    sys_ = BiorthonormalSystem(dim=3, levels=levels, tol=1e-10)
    assert level_inits[0] == 2
    assert sys_.levels is levels and vars(sys_)["levels"] is levels
    np.testing.assert_array_equal(sys_.psi_matrix, psi)
    np.testing.assert_array_equal(sys_.phi_matrix, phi)
    np.testing.assert_array_equal(sys_.energies, [1.0, 2.0, 2.0])
    assert sys_._offsets.tolist() == [0, 1, 3]
    assert classify_spectrum(sys_).is_real
    assert sys_ == BiorthonormalSystem(dim=3, levels=levels, tol=1e-10)
    assert level_inits[0] == 2


def test_caller_levels_are_stacked_at_construction():
    """The constructor stores Psi, Phi, the level energies and offsets once,
    read-only, so a malformed level is refused when the system is built."""
    psi = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    phi = np.linalg.inv(psi).conj().T
    levels = (EigenLevel(1.0, psi[:, :1], phi[:, :1]), EigenLevel(2.0 + 0j, psi[:, 1:], phi[:, 1:]))
    sys_ = BiorthonormalSystem(dim=3, levels=levels, tol=1e-10)
    stored = vars(sys_)
    for name in ("psi_matrix", "phi_matrix", "_level_energies"):
        assert not stored[name].flags.writeable
    np.testing.assert_array_equal(stored["_level_energies"], [1.0, 2.0])
    assert stored["_offsets"].tolist() == [0, 1, 3]
    short = EigenLevel(2.0 + 0j, psi[:2, 1:], phi[:2, 1:])  # two rows, not three
    with pytest.raises(ValueError):
        BiorthonormalSystem(dim=3, levels=(levels[0], short), tol=1e-10)


def _eig_dtypes(monkeypatch, fn):
    """fn() and the dtypes of the matrices np.linalg.eig was called on."""
    eig, dtypes = np.linalg.eig, []
    monkeypatch.setattr(np.linalg, "eig", lambda m: dtypes.append(m.dtype) or eig(m))
    try:
        return fn(), dtypes
    finally:
        monkeypatch.undo()


def _same_bits(a, b):
    """Each array of a is the array of b at its place, bit for bit."""
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b, strict=True))


@pytest.mark.parametrize("kind", ["all_real", "conjugate_paired"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_real_h_takes_one_real_eig(kind, d, monkeypatch):
    """A real H (held as complex) takes one eig in real arithmetic, and its
    levels are that eig's eigenvectors as they are: every non-real level's
    partner is exactly conj(E) and every real level has Im E == 0.0."""
    h = real_planted_matrix(np.random.default_rng(d), 16, kind, d, 1.0) + 0j
    sys, dtypes = _eig_dtypes(monkeypatch, lambda: biorthonormal_eigensystem(h))
    assert dtypes == [np.float64]
    cls = classify_spectrum(sys)
    assert cls.tag.value == kind
    assert d in sys._sizes.tolist()
    e = sys._level_energies
    for i, j in enumerate(cls.pairing):
        if i == j:
            assert e[i].imag == 0.0
        else:
            assert e[j].tobytes() == np.conj(e[i]).tobytes()
    gap = CLUSTER_GAP_FACTOR * np.max(np.abs(h))
    w, v = np.linalg.eig(h.real)
    assert _same_bits(_raw_levels(h, gap), _levels(w.astype(complex), v, gap))


@pytest.mark.parametrize("v2", ["x", "0"])
def test_exactly_reversal_symmetric_h_takes_the_real_form(v2, monkeypatch):
    """An H with H P = P conj(H) exactly (P the site reversal), a real one
    too, takes the real eig of Re H + P Im H, its eigenvectors mapped back
    by 1 + iP."""
    h = build_pt_hamiltonian(make_lattice(21, 5.0, 1.0, "x^2", v2, 0.5))
    gap = CLUSTER_GAP_FACTOR * np.max(np.abs(h))
    got, dtypes = _eig_dtypes(monkeypatch, lambda: _raw_levels(h, gap))
    assert dtypes == [np.float64]
    w, vr = np.linalg.eig(h.real + h.imag[::-1])
    assert _same_bits(got, _levels(w.astype(complex), vr + 1j * vr[::-1], gap))


def test_other_complex_h_takes_one_complex_eig(monkeypatch):
    """A complex H without exact reversal symmetry takes one complex eig, and
    its levels are bit for bit those of np.linalg.eig(H); so is an H whose
    corner entries pass the symmetry's first test, and a lattice moved off
    exact symmetry in one entry."""
    rng = np.random.default_rng(5)
    planted = planted_matrix(rng, 8, "paired").matrix
    corner = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    corner[-1, -1] = np.conj(corner[0, 0])
    lattice = build_pt_hamiltonian(make_lattice(21, 5.0, 1.0, "x^2", "x", 0.5))
    lattice[3, 4] += 1e-14
    for h in (planted, planted_3x3_conjugate()[0], corner, lattice):
        gap = CLUSTER_GAP_FACTOR * np.max(np.abs(h))
        got, dtypes = _eig_dtypes(monkeypatch, lambda: _raw_levels(h, gap))
        assert dtypes == [np.complex128]
        assert _same_bits(got, _levels(*np.linalg.eig(h), gap))
