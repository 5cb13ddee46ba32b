"""Log-signature sequence layer: forward map and its reverse-mode adjoint.

The layer maps a timed path to one truncated log-signature per partition
segment, giving an (N, d_ls) output whose shape is independent of the
number of input samples.  The backward pass propagates an upstream
(N, d_ls) gradient to the input points analytically.

Internally the path is augmented with interpolated samples at the interior
segment boundaries; every augmented point is an affine function of at most
two original samples, which is how boundary gradients are distributed.
Degrees 1 and 2 use closed-form vectorized kernels (degree-2 log-signatures
are the segment increment plus the antisymmetric area matrix).  Higher
degrees fold all segments of the path in lockstep: each tensor level is a
(segments, d**k) array, the segments are ordered longest first, and step j
applies one fused Horner step A <- A (x) exp(delta) to the leading block of
segments that still have a j-th increment, so every segment sees exactly
its own increments.  The logarithm is one batched power series over all
segments, and the Lyndon projection is one product per level with the
basis's cached exact inverse.  The adjoint is one vectorized reverse sweep
over the same steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lyndon import LyndonBasis, enumerate_lyndon
from .paths import TimedPath

__all__ = [
    "SegmentPartition",
    "logsig_sequence",
    "logsig_sequence_forward",
    "backward_from_state",
]


@dataclass(frozen=True)
class SegmentPartition:
    """Strictly increasing segment boundaries u_0 < u_1 < ... < u_N."""

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=np.float64).reshape(-1)
        if b.size < 2:
            raise ValueError("a partition needs at least two boundaries")
        if not np.all(np.diff(b) > 0):
            raise ValueError("partition boundaries must be strictly increasing")
        if not np.all(np.isfinite(b)):
            raise ValueError("partition boundaries must be finite")
        object.__setattr__(self, "boundaries", b)

    @classmethod
    def uniform(cls, start: float, stop: float, num_segments: int) -> "SegmentPartition":
        if num_segments < 1:
            raise ValueError("need at least one segment")
        return cls(np.linspace(start, stop, num_segments + 1))

    @property
    def num_segments(self) -> int:
        return self.boundaries.size - 1


class _LayerState:
    __slots__ = (
        "path", "degree", "basis", "rows", "mode",
        "lo", "hi", "w", "seg_ptr", "aug_points",
        "deltas", "base", "counts", "order", "active", "tape", "powers",
    )


def _boundaries_in_path_time(path: TimedPath, partition: SegmentPartition) -> np.ndarray:
    """Partition boundaries mapped affinely onto the path's own time span.

    The sample's time axis and the partition span are always identified
    affinely, so a path covering any span is treated uniformly.
    """
    b = partition.boundaries
    t0, t1 = path.span
    v = t0 + (b - b[0]) * ((t1 - t0) / (b[-1] - b[0]))
    v[0], v[-1] = t0, t1
    return v


def _augment(path: TimedPath, v: np.ndarray):
    """Merge interpolated boundary samples into the path's sample sequence.

    Returns (lo, hi, w, seg_ptr, aug_points): augmented point j equals
    (1-w_j) * points[lo_j] + w_j * points[hi_j], and seg_ptr[k] is the
    augmented index of boundary k.  Boundaries coinciding with a sample are
    inserted directly after it.
    """
    t, p = path.times, path.points
    n = t.size
    interior = v[1:-1]
    ins = np.clip(np.searchsorted(t, interior, side="right"), 1, n - 1)
    size = n + interior.size
    pos_b = ins + np.arange(interior.size)
    is_b = np.zeros(size, dtype=bool)
    is_b[pos_b] = True
    lo = np.empty(size, dtype=np.intp)
    hi = np.empty(size, dtype=np.intp)
    w = np.zeros(size)
    lo[~is_b] = np.arange(n)
    hi[~is_b] = np.arange(n)
    lo[pos_b] = ins - 1
    hi[pos_b] = ins
    w[pos_b] = (interior - t[ins - 1]) / (t[ins] - t[ins - 1])
    seg_ptr = np.concatenate([[0], pos_b, [size - 1]]).astype(np.intp)
    aug_points = (1.0 - w)[:, None] * p[lo] + w[:, None] * p[hi]
    return lo, hi, w, seg_ptr, aug_points


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise tensor product of (S, p) and (S, q) blocks, flattened to (S, p*q)."""
    return (u[:, :, None] * v[:, None, :]).reshape(u.shape[0], -1)


def _outer_backward(u: np.ndarray, v: np.ndarray, g: np.ndarray):
    """Adjoint of ``_outer`` in both arguments for the upstream block ``g``."""
    g = g.reshape(u.shape[0], u.shape[1], v.shape[1])
    return (g @ v[:, :, None])[:, :, 0], (u[:, None, :] @ g)[:, 0, :]


def _fold_forward(state: _LayerState) -> np.ndarray:
    """Rows of every segment at degree >= 3, all segments advanced in lockstep.

    ``sig[k]`` holds level k of every segment's running signature (level 0
    is the implicit 1).  Step j updates the leading ``active[j]`` rows, the
    segments with more than j increments, by the Horner form of
    A_k += sum_{i<k} A_i (x) delta^(k-i) / (k-i)!: starting from delta / k,
    add A_i and multiply by delta / (k - i) for i = 1 .. k-1.  The tape keeps
    each step's increments and the factors of those products.
    """
    basis, M = state.basis, state.degree
    aug, seg_ptr = state.aug_points, state.seg_ptr
    counts = np.diff(seg_ptr)
    order = np.argsort(-counts, kind="stable")
    active = np.count_nonzero(counts[:, None] > np.arange(counts.max()), axis=0)
    starts = seg_ptr[order]
    deltas = np.diff(aug, axis=0)
    S, d = counts.size, aug.shape[1]
    sig = [None] + [np.zeros((S, d**k)) for k in range(1, M + 1)]
    # every increment divided by 1 .. M once, so that a step only gathers
    scaled = deltas[:, None, :] / np.arange(1.0, M + 1)[:, None]
    tape = []
    for j, a in enumerate(active):
        step = scaled[starts[:a] + j]
        factors = [None] * (M + 1)
        for k in range(M, 0, -1):
            acc = step[:, k - 1]
            factors[k] = []
            for i in range(1, k):
                factors[k].append(acc + sig[i][:a])
                acc = _outer(factors[k][-1], step[:, k - i - 1])
            sig[k][:a] += acc
        tape.append((step[:, 0], factors))
    # log(1 + t) = sum_m (-1)^(m+1) t^m / m; powers[m] vanishes below level m
    powers = [None, sig]
    for m in range(2, M + 1):
        powers.append(
            [None] * m
            + [sum(_outer(powers[m - 1][i], sig[k - i]) for i in range(m - 1, k))
               for k in range(m, M + 1)]
        )
    rows = np.empty((S, basis.dim))
    for n in range(1, M + 1):
        idx, inverse = basis.level_inverse(n)
        log_n = sum((-1) ** (m + 1) / m * powers[m][n] for m in range(1, n + 1))
        rows[order, basis._level_slices[n - 1]] = log_n[:, idx] @ inverse.T
    state.order, state.active, state.tape, state.powers = order, active, tape, powers
    return rows


def _fold_backward(state: _LayerState, upstream: np.ndarray) -> np.ndarray:
    """Gradient with respect to every augmented increment, reversing ``_fold_forward``."""
    basis, M = state.basis, state.degree
    order, powers = state.order, state.powers
    sig = powers[1]
    up = upstream[order]
    glog = [None]
    for n in range(1, M + 1):
        idx, inverse = basis.level_inverse(n)
        g = np.zeros_like(sig[n])
        g[:, idx] = up[:, basis._level_slices[n - 1]] @ inverse
        glog.append(g)
    # through the power series: powers[m] = powers[m-1] (x) sig
    gsig = [None] + [np.zeros_like(level) for level in sig[1:]]
    gpow = [None] * M + [(-1) ** (M + 1) / M * glog[M]]
    for m in range(M, 1, -1):
        prev = [None] * (m - 1) + [(-1) ** m / (m - 1) * g for g in glog[m - 1 :]]
        for k in range(m, M + 1):
            for i in range(m - 1, k):
                gu, gv = _outer_backward(powers[m - 1][i], sig[k - i], gpow[k])
                prev[i] += gu
                gsig[k - i] += gv
        gpow = prev
    for k in range(1, M + 1):
        gsig[k] += gpow[k]

    starts = state.seg_ptr[order]
    gdeltas = np.zeros((state.aug_points.shape[0] - 1, state.path.width))
    for j in range(len(state.active) - 1, -1, -1):
        a = state.active[j]
        delta, factors = state.tape[j]
        g = [None] + [level[:a] for level in gsig[1:]]
        gdelta = g[1].copy()
        # ascending k: level k adds only into the levels below it, whose
        # chains have already read their own post-step gradients
        for k in range(2, M + 1):
            gacc = g[k]
            for i in range(k - 1, 0, -1):
                gx, gv = _outer_backward(factors[k][i - 1], delta, gacc)
                gdelta += gv / (k - i)
                gacc = gx / (k - i)
                g[i] += gacc
            gdelta += gacc / k
        gdeltas[starts[:a] + j] = gdelta
    return gdeltas


def logsig_sequence(
    path: TimedPath,
    partition: SegmentPartition,
    degree: int,
    basis: LyndonBasis | None = None,
) -> np.ndarray:
    """Per-segment truncated log-signatures, one row per partition segment."""
    rows, _ = logsig_sequence_forward(path, partition, degree, basis)
    return rows


def logsig_sequence_forward(
    path: TimedPath,
    partition: SegmentPartition,
    degree: int,
    basis: LyndonBasis | None = None,
):
    """Forward pass returning the output rows plus the state for the adjoint."""
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    if basis is None:
        basis = enumerate_lyndon(path.width, degree)
    if basis.width != path.width or basis.degree != degree:
        raise ValueError("basis does not match the path width and requested degree")

    state = _LayerState()
    state.path = path
    state.degree = degree
    state.basis = basis

    N = partition.num_segments
    if path.num_samples < 2:
        state.mode = "constant"
        state.rows = np.zeros((N, basis.dim))
        return state.rows, state

    v = _boundaries_in_path_time(path, partition)
    lo, hi, w, seg_ptr, aug = _augment(path, v)
    state.lo, state.hi, state.w, state.seg_ptr, state.aug_points = lo, hi, w, seg_ptr, aug

    if degree == 1:
        state.mode = "m1"
        state.rows = aug[seg_ptr[1:]] - aug[seg_ptr[:-1]]
    elif degree == 2:
        state.mode = "m2"
        d = path.width
        deltas = np.diff(aug, axis=0)
        counts = np.diff(seg_ptr)
        starts = np.repeat(aug[seg_ptr[:-1]], counts, axis=0)
        base = aug[:-1] - starts
        cross = np.einsum("mi,mj->mij", base, deltas)
        seg_cross = np.add.reduceat(cross, seg_ptr[:-1], axis=0)
        area = 0.5 * (seg_cross - seg_cross.transpose(0, 2, 1))
        iu, ju = np.triu_indices(d, k=1)
        increments = aug[seg_ptr[1:]] - aug[seg_ptr[:-1]]
        state.deltas, state.base, state.counts = deltas, base, counts
        state.rows = np.concatenate([increments, area[:, iu, ju]], axis=1)
    else:
        state.mode = "generic"
        state.rows = _fold_forward(state)
    if not np.all(np.isfinite(state.rows)):
        raise FloatingPointError(
            f"degree-{degree} log-signature rows are not finite: the path's "
            "increments overflow float64"
        )
    return state.rows, state


def backward_from_state(state: _LayerState, upstream: np.ndarray) -> np.ndarray:
    """Gradient of sum(upstream * rows) with respect to the path's points."""
    path = state.path
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != state.rows.shape:
        raise ValueError(
            f"upstream gradient must have shape {state.rows.shape}, got {upstream.shape}"
        )
    n, d = path.points.shape
    if state.mode == "constant":
        return np.zeros((n, d))

    seg_ptr = state.seg_ptr
    gaug = np.zeros_like(state.aug_points)

    if state.mode == "m1":
        np.add.at(gaug, seg_ptr[1:], upstream)
        np.add.at(gaug, seg_ptr[:-1], -upstream)
    elif state.mode == "m2":
        deltas, base, counts = state.deltas, state.base, state.counts
        N = counts.size
        g1 = upstream[:, :d]
        g2 = upstream[:, d:]
        iu, ju = np.triu_indices(d, k=1)
        z = np.zeros((N, d, d))
        z[:, iu, ju] = g2
        gseg = 0.5 * (z - z.transpose(0, 2, 1))
        gcross = np.repeat(gseg, counts, axis=0)
        gbase = np.einsum("mij,mj->mi", gcross, deltas)
        gdelta = np.einsum("mij,mi->mj", gcross, base)
        gaug[:-1] += gbase
        seg_base = np.add.reduceat(gbase, seg_ptr[:-1], axis=0)
        np.add.at(gaug, seg_ptr[:-1], -seg_base)
        gaug[1:] += gdelta
        gaug[:-1] -= gdelta
        np.add.at(gaug, seg_ptr[1:], g1)
        np.add.at(gaug, seg_ptr[:-1], -g1)
    else:
        gdeltas = _fold_backward(state, upstream)
        gaug[1:] += gdeltas
        gaug[:-1] -= gdeltas

    grad = np.zeros((n, d))
    np.add.at(grad, state.lo, (1.0 - state.w)[:, None] * gaug)
    np.add.at(grad, state.hi, state.w[:, None] * gaug)
    return grad

