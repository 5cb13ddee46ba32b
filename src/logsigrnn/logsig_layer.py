"""Log-signature sequence layer: forward map and its reverse-mode adjoint.

The layer maps a timed path to one truncated log-signature per partition
segment, giving an (N, d_ls) output whose shape is independent of the
number of input samples.  The backward pass propagates an upstream
(N, d_ls) gradient to the input points analytically.

Internally the path is augmented with interpolated samples at the interior
segment boundaries; every augmented point is an affine function of at most
two original samples, which is how boundary gradients are distributed.
Degrees 1 and 2 use closed-form vectorized kernels (degree-2 log-signatures
are the segment increment plus the antisymmetric area matrix); higher
degrees fold segment exponentials with the graded tensor product and run a
taped adjoint sweep through the same chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lyndon import LyndonBasis, enumerate_lyndon
from .paths import TimedPath
from .tensor_algebra import (
    TruncatedTensor,
    exp_level_one,
    exp_level_one_backward,
    tensor_log_backward,
    tensor_log_with_tape,
    tensor_mul,
    tensor_mul_backward,
)

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
        "deltas", "base", "counts", "segment_tapes",
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
        return state.rows, state

    if degree == 2:
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
        return state.rows, state

    state.mode = "generic"
    rows = np.zeros((N, basis.dim))
    tapes = []
    for k in range(N):
        a, b = seg_ptr[k], seg_ptr[k + 1]
        deltas = np.diff(aug[a : b + 1], axis=0)
        exps = [exp_level_one(dv, degree) for dv in deltas]
        prods = [TruncatedTensor.unit(path.width, degree)]
        for e in exps:
            prods.append(tensor_mul(prods[-1], e))
        logsig, log_tape = tensor_log_with_tape(prods[-1])
        for n_lvl in range(1, degree + 1):
            sl = basis._level_slices[n_lvl - 1]
            idx, matrix = basis.level_system(n_lvl)
            rows[k, sl] = np.linalg.solve(matrix, logsig.levels[n_lvl][idx])
        tapes.append((deltas, exps, prods, log_tape))
    state.segment_tapes = tapes
    state.rows = rows
    return rows, state


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
        basis, degree = state.basis, state.degree
        for k, (deltas, exps, prods, log_tape) in enumerate(state.segment_tapes):
            glog = TruncatedTensor.zero(d, degree)
            for n_lvl in range(1, degree + 1):
                sl = basis._level_slices[n_lvl - 1]
                idx, matrix = basis.level_system(n_lvl)
                glog.levels[n_lvl][idx] = np.linalg.solve(matrix.T, upstream[k, sl])
            grun = tensor_log_backward(log_tape, glog)
            a = seg_ptr[k]
            gdeltas = np.zeros_like(deltas)
            for j in range(len(exps), 0, -1):
                grun, gexp = tensor_mul_backward(prods[j - 1], exps[j - 1], grun)
                gdeltas[j - 1] = exp_level_one_backward(deltas[j - 1], gexp)
            gaug[a + 1 : a + 1 + len(exps)] += gdeltas
            gaug[a : a + len(exps)] -= gdeltas

    grad = np.zeros((n, d))
    np.add.at(grad, state.lo, (1.0 - state.w)[:, None] * gaug)
    np.add.at(grad, state.hi, state.w[:, None] * gaug)
    return grad

