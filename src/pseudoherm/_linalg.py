"""Small shared linear-algebra helpers: norms, validation, check results."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, PseudoHermError

DEFAULT_COND_CEILING = 1e8

# A bound B >= kappa decides kappa <= DEFAULT_COND_CEILING unmeasured when
# B <= DEFAULT_COND_CEILING / _BOUND_MARGIN.  B >= kappa holds exactly, and at
# B <= 5e7 the rounding in B and in an SVD measuring kappa is about
# kappa u <= 5e7 * 1.1e-16 < 1e-8 relative, far inside the factor 2: a measured
# kappa would be below the ceiling too, so no verdict moves.
_BOUND_MARGIN = 2.0

SCALE_FLOOR = 5e-324  # the least positive float, the one floor under a residual's scale


def max_abs(a) -> float:
    """Largest absolute entry (the max-norm used for every residual)."""
    a = np.abs(a)
    return float(np.maximum.reduce(a, axis=None)) if a.size else 0.0


def scale_of(a) -> float:
    """max_abs(a) floored at SCALE_FLOOR, the denominator of a normalized residual:
    no nonzero scale is below the floor, so H and c H divide alike at every c > 0."""
    return max(max_abs(a), SCALE_FLOOR)


def diagonal_defect(a: np.ndarray, d) -> float:
    """max|a - diag(d)| of a square array a, which it overwrites."""
    a.flat[:: len(a) + 1] -= d
    return max_abs(a)


def hermitian_defect(a) -> float:
    """The normalized Hermiticity defect max|a - a^dagger| / max|a| of an array a."""
    return max_abs(a - a.conj().T) / scale_of(a)


def symmetric_defect(a):
    """max|a - a^T| / max|a| of a matrix, or of each matrix of a stack (..., n, n)."""
    a = np.asarray(a)
    if a.ndim == 2:
        return max_abs(a - a.T) / scale_of(a)
    return block_max_abs(a - a.swapaxes(-1, -2)) / np.maximum(block_max_abs(a), SCALE_FLOOR)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a residual-based verification.

    `residual` is normalized by the operator scales of the identity being
    checked, and ok iff residual <= tol for the tolerance the check ran at.
    """

    ok: bool
    residual: float

    def __bool__(self) -> bool:
        return self.ok


def make_check(raw_residual: float, scale: float, tol: float) -> CheckResult:
    """Build a CheckResult from a raw max-norm residual and its scale: the
    residual ``raw / scale`` (scale floored at SCALE_FLOOR), ok iff it is at most tol."""
    residual = raw_residual / max(scale, SCALE_FLOOR)
    return CheckResult(residual <= tol, residual)


def intertwining(left, m, right, hmax: float, tol: float) -> CheckResult:
    """The check of each identity ``left m = m right`` of the chain, e.g.
    ``H^dagger eta = eta H``, at the scale ``max|H| max|m|`` (hmax = max|H|)."""
    return make_check(max_abs(left @ m - m @ right), hmax * max_abs(m), tol)


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite square complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatchError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():  # complex isfinite is false when either part is NaN or Inf
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return m


def as_vector(a, dim: int, name: str = "vector") -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.shape != (dim,):
        raise DimensionMismatchError(f"{name} must have shape ({dim},), got {m.shape}")
    return m


def require_same_dim(a: np.ndarray, b: np.ndarray, what: str = "operands") -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"{what} have different shapes: {a.shape} vs {b.shape}")


def condition_number(a: np.ndarray) -> float:
    """2-norm condition number; inf for singular input."""
    return cond_of(np.linalg.svd(np.asarray(a), compute_uv=False))


def cond_of(s):
    """2-norm condition number max|s| / min|s| from the singular values s
    (or the eigenvalues of a Hermitian matrix); inf when min|s| is 0.  On a
    stack (..., n) of such values, an array of one number per row."""
    s = np.abs(s)
    smax, smin = s.max(axis=-1), s.min(axis=-1)
    if smin.all():
        kappa = smax / smin
    else:
        kappa = np.divide(smax, smin, out=np.full_like(smin, np.inf), where=smin != 0.0)
    return float(kappa) if kappa.ndim == 0 else kappa


def block_max_abs(a) -> np.ndarray:
    """max_abs of each matrix of a stack (..., m, n)."""
    return np.abs(a).max(axis=(-2, -1))


def block_groups(sizes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Square blocks of a block diagonal grouped by size, one group per
    distinct size d, ascending: the indices of the d x d blocks, in order,
    and their rows (= columns) in the block diagonal, shape (k, d)."""
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = sizes.cumsum() - sizes
    groups = []
    for d in sorted(set(sizes.tolist())):
        idx = (sizes == d).nonzero()[0]
        groups.append((idx, starts[idx, None] + np.arange(d)))
    return groups


def checked_stacks(blocks, sizes, groups, test, name: str, misfit: str) -> list:
    """``test(stack, idx)`` once per group of ``block_groups(sizes)``, on the
    blocks numbered by idx as one complex stack (k, d, d); test returns its
    result or raises a ``PseudoHermError`` naming a faulty block.  A block
    that is not d x d is refused first, with ``misfit`` (fields k, shape and
    d), and then one with a NaN or Inf entry, as ``NonFiniteError`` naming
    it ``name k``, so test only sees finite blocks.  When a group fails,
    ``_first_fault`` runs the same checks one block at a time, so the refusal
    names the lowest faulty level."""
    try:
        return [_tested(blocks, idx, cols.shape[1], test, name, misfit) for idx, cols in groups]
    except PseudoHermError as fault:
        stacked = fault
    _first_fault(blocks, sizes, test, name, misfit)
    raise stacked  # no block fails alone


def _first_fault(blocks, sizes, test, name: str, misfit: str) -> None:
    """The checks of ``checked_stacks`` on each block alone, in level order."""
    for k, d in enumerate(sizes):
        _tested(blocks, np.array([k]), d, test, name, misfit)


def _tested(blocks, idx, d: int, test, name: str, misfit: str):
    """test on the blocks numbered by idx, stacked, once they are all d x d
    and finite: one shape and one finiteness test per stack."""
    try:
        stack = np.array([blocks[k] for k in idx.tolist()], dtype=np.complex128)
    except ValueError:  # blocks of different shapes
        stack = None
    if stack is None or stack.shape != (len(idx), d, d):
        shape = block_shape(blocks[idx[0]])
        raise DimensionMismatchError(misfit.format(k=idx[0], shape=shape, d=d))
    if not np.isfinite(stack).all():  # complex isfinite is false when either part is NaN or Inf
        k = idx[np.isfinite(stack).all(axis=(-2, -1)).argmin()]
        raise NonFiniteError(f"{name} {k} contains NaN or Inf entries")
    return test(stack, idx)


def block_shape(block) -> tuple:
    """np.shape of a caller block; one whose rows differ in length reads (rows, 'ragged')."""
    try:
        return np.shape(block)
    except ValueError:
        return (len(block), "ragged")


def unstack(groups, stacks, count: int) -> list:
    """Stacks, one per group of ``block_groups``, as one list of blocks in index order."""
    out = [None] * count
    for (idx, _), stack in zip(groups, stacks):
        for k, block in zip(idx.tolist(), stack):
            out[k] = block
    return out


def times_block_diag(groups, *operands) -> list[np.ndarray]:
    """``m @ blockdiag(blocks)`` as a new array for each operand ``(m, stacks)``,
    stacks holding one stack per group of ``block_groups``, in one walk of the
    groups: one column scaling of every m for the 1 x 1 blocks, then per size
    d >= 2 one stacked product of every m on the columns of its blocks.  The
    1 x 1 blocks may come as the vector (k,) of their entries; when they are
    all the blocks, each m is scaled by that vector itself."""
    n = operands[0][0].shape[1]
    simple = groups[0][1].shape[1] == 1  # sizes ascend: the 1 x 1 blocks come first
    if simple and len(groups) == 1:
        return [m * stacks[0].reshape(n) for m, stacks in operands]
    scales = np.ones((len(operands), n), dtype=np.complex128)
    if simple:
        for scale, (_, stacks) in zip(scales, operands):
            scale[groups[0][1][:, 0]] = stacks[0].reshape(-1)
    outs = [m * scale for (m, _), scale in zip(operands, scales)]
    for k in range(int(simple), len(groups)):
        cols = groups[k][1]
        for out, (m, stacks) in zip(outs, operands):
            out[:, cols] = (m[:, cols].transpose(1, 0, 2) @ stacks[k]).transpose(1, 0, 2)
    return outs


def solve(a: np.ndarray, b: np.ndarray, error_cls, what: str):
    """np.linalg.solve wrapping singularity in a package error, which carries
    the condition number of a and the ceiling it exceeded."""
    message = "{what} is singular or too ill-conditioned to invert"
    require_conditioned(condition_number(a), error_cls, message, what=what)
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:  # exact singularity
        raise error_cls(f"{what} is singular") from exc


def require_within(measured, limit, error, message: str, levels=None, **fields):
    """measured, if it is at most limit; else (a NaN is not) raises ``error(text,
    measured, limit)``, text the ``str.format`` template message of measured,
    limit and fields.  Every threshold refusal of the package is made here.
    With ``levels`` (the level of each block of a stack) measured and limit
    hold one number per block, or limit one for all: the first failing block
    is refused with its two numbers, and its level is the field k."""
    ok = measured <= limit
    if ok if levels is None else ok.all():
        return measured
    if levels is not None:
        j = ok.argmin()
        measured, limit = (float(np.broadcast_to(x, ok.shape)[j]) for x in (measured, limit))
        fields["k"] = levels[j]
    raise error(message.format(measured=measured, limit=limit, **fields), measured, limit)


def require_conditioned(kappa, error, message: str, bound=None, levels=None, **fields):
    """``require_within(kappa, DEFAULT_COND_CEILING, ...)``.  With ``bound`` >=
    kappa (inf or NaN when there is none), kappa is a function measuring it,
    called only when the bound does not place it below the ceiling; None is
    returned when it is not called."""
    if bound is not None:
        if bound <= DEFAULT_COND_CEILING / _BOUND_MARGIN:
            return None
        kappa = kappa()
    return require_within(kappa, DEFAULT_COND_CEILING, error, message, levels, **fields)


def takagi_factor(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factor of a complex symmetric c: ``c = v v^T``, v = u diag(sqrt(s)).

    u is unitary and s >= 0 holds the Takagi values (the singular values of
    c) in ascending order (Horn & Johnson, Matrix Analysis, 4.4).  The n
    largest eigenpairs (s, [x; y]) of the real symmetric embedding
    ``[[Re c, -Im c], [-Im c, -Re c]]`` give ``u = x - i y`` with
    ``c conj(u) = u diag(s)``; any orthonormal basis of a repeated Takagi
    value will do, so clustered values need no grouping rule.  A singular c
    may come out with tiny negative values in s; callers refuse it.  A stack
    (..., n, n) is factored in one ``eigh``, each block as on its own.
    """
    n = c.shape[-1]
    if n == 1:
        return np.sqrt(c), np.abs(c[..., 0])
    embedding = np.empty(c.shape[:-2] + (2 * n, 2 * n))
    embedding[..., :n, :n] = c.real
    np.negative(c.imag, out=embedding[..., :n, n:])
    embedding[..., n:, :n] = embedding[..., :n, n:]
    np.negative(c.real, out=embedding[..., n:, n:])
    w, x = np.linalg.eigh(embedding)
    s = w[..., n:]
    return (x[..., :n, n:] - 1j * x[..., n:, n:]) * np.sqrt(np.maximum(s, 0.0))[..., None, :], s
