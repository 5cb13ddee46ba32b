"""Log-signature sequence layer: forward map and its reverse-mode adjoint.

The layer maps a timed path, or in one call a stack of paths on one time
grid, to one truncated log-signature per partition segment: (N, d_ls) per
path whatever the number of samples; the backward pass maps its gradient back.

Internally the path is augmented with one interpolated sample at each
interior segment boundary.  The original samples are written through one
mask (``keep``), and boundary k's point mixes the two samples around it
(``ins``, the sample after it, and its weight ``wb``), so the adjoint gathers
each sample's own row and scatters only the boundary rows.
Degree-1 rows are the segment increments.  Degrees 2 and above apply Chen's
identity to every increment at once: level k of the increments' Chen terms
is one (increments, d**k) array built from the lower levels' segmented
prefix sums (one cumulative sum over the flat increment axis minus each
segment's starting offset), and only the top level's segment totals are
formed, one product per segment.  The log is one batched power series at
the Lyndon words, read through the basis's ``log_series`` tables, which
replace per-call ``divmod`` splits and per-level, per-power product
chains.  Below the top level the powers are formed whole, as the adjoint
reads them, each with its levels side by side in one array like the
signature's; the linear term is one gather, and each power at the Lyndon
words is the power below's entry at each word's prefixes times the
signature's at its tails, two gathers, their product and one sum over the
prefix lengths.  The Lyndon projection is
the basis's one change of basis (``LyndonBasis.to_lyndon``, which
``project_to_basis`` applies too), gather tables in place of a dense
correction block, and the adjoint reverses the levels with reverse
segmented sums.  The forward pass
is sized for short streams, where a call is mostly numpy's per-call
overhead: it gathers with ``take`` and updates in place where that leaves
every result bit for bit the same.

The log-signature is equivariant under linear maps: the rows of the path
``x @ L`` are the rows of ``x`` times the matrix of the Lie-algebra map that
``L`` induces.  ``lie_map`` builds that matrix from ``L`` alone, whatever
the number of rows, and ``lie_map_backward`` is its adjoint with respect to
``L``, which adds each letter position's term onto ``L``'s columns with one
product by the target basis's one-hot matrix of that position
(``LyndonBasis.level_one_hots``) in place of a scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .lyndon import LyndonBasis, check_array_size, enumerate_lyndon
from .paths import TimedPath

__all__ = [
    "SegmentPartition",
    "logsig_sequence",
    "logsig_sequence_forward",
    "logsig_stack_forward",
    "backward_from_state",
    "check_kernel_size",
    "lie_map",
    "lie_map_backward",
]


@dataclass(frozen=True)
class SegmentPartition:
    """Strictly increasing segment boundaries u_0 < u_1 < ... < u_N."""

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=np.float64).reshape(-1)
        if b.size < 2:
            raise ValueError("a partition needs at least two boundaries")
        if not (b[1:] > b[:-1]).all():
            raise ValueError("partition boundaries must be strictly increasing")
        if not np.isfinite(b).all():
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
        "points", "degree", "basis", "rows", "starts", "mode", "keep", "ins", "wb", "seg_ptr",
        "aug_points", "deltas", "factors", "powers",
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


def _augment(t: np.ndarray, points: np.ndarray, v: np.ndarray):
    """Merge interpolated boundary samples into the sample sequence of the paths ``points`` on times ``t``.

    Returns (keep, ins, wb, seg_ptr, aug_points).  The original samples are
    the augmented points at the mask ``keep``, in order, and seg_ptr[k] is the
    augmented index of boundary k.  Only the S - 1 interior boundaries are
    interpolated: boundary k (1 <= k < S) lies in the sample interval ending
    at sample ``ins[k-1]``, and its point is (1-wb[k-1]) * points[...,
    ins[k-1]-1, :] + wb[k-1] * points[..., ins[k-1], :].  A boundary on a
    sample is inserted directly after it, with weight 0; boundaries in one
    interval share its ``ins``.
    """
    interior = v[1:-1]
    # the first sample after each boundary; searching the interior samples keeps it in 1..n-1
    ins = t[1:-1].searchsorted(interior, side="right") + 1
    size = t.size + interior.size
    seg_ptr = np.empty(interior.size + 2, dtype=np.intp)
    seg_ptr[0], seg_ptr[-1] = 0, size - 1
    pos_b = seg_ptr[1:-1]
    np.add(ins, np.arange(interior.size), out=pos_b)
    keep = np.ones(size, dtype=bool)
    keep[pos_b] = False
    before = ins - 1
    t_lo = t.take(before)
    wb = (interior - t_lo) / (t.take(ins) - t_lo)
    aug_points = np.empty((*points.shape[:-2], size, points.shape[-1]))
    aug_points[..., keep, :] = points
    lo, hi = points.take(before, axis=-2), points.take(ins, axis=-2)
    aug_points[..., pos_b, :] = (1.0 - wb)[:, None] * lo + wb[:, None] * hi
    return keep, ins, wb, seg_ptr, aug_points


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise tensor product of (..., S, p) and (..., S, q) blocks, flattened to (..., S, p*q)."""
    return (u[..., :, None] * v[..., None, :]).reshape(*u.shape[:-1], -1)


def _outer_backward(u: np.ndarray, v: np.ndarray, g: np.ndarray):
    """Adjoint of ``_outer`` in both arguments for the upstream block ``g``."""
    g = g.reshape(*u.shape, v.shape[-1])
    return (g @ v[..., None])[..., 0], (u[..., None, :] @ g)[..., 0, :]


def _cumsum0(x: np.ndarray) -> np.ndarray:
    """Cumulative sum along axis -2 with a leading zero row: ``out[..., i, :] = x[..., :i, :].sum(-2)``."""
    out = np.zeros((*x.shape[:-2], x.shape[-2] + 1, x.shape[-1]))
    x.cumsum(axis=-2, out=out[..., 1:, :])
    return out


def _chen_forward(state: _LayerState) -> np.ndarray:
    """Rows of every segment at degree >= 2, every increment at once.

    By Chen's identity increment i adds T^k_i = sum_{j<k} P^j_i (x) delta^(k-j)
    / (k-j)! to level k of its segment, P^j_i being level j just before it;
    in Horner form T^k = F_{k-1} (x) delta, F_1 = delta / k + P^1, F_i =
    F_{i-1} (x) delta / (k-i+1) + P^i.  P^1 is the offset from the segment's
    start, P^k (1 < k < M) the segmented exclusive prefix sum of T^k.
    """
    basis, M = state.basis, state.degree
    aug, seg_ptr = state.aug_points, state.seg_ptr
    deltas = aug[..., 1:, :] - aug[..., :-1, :]
    d, S = deltas.shape[-1], seg_ptr.size - 1
    first = seg_ptr[:-1].repeat(seg_ptr[1:] - seg_ptr[:-1])  # each increment's segment start
    scaled = [None, deltas] + [deltas / j for j in range(2, M + 1)]
    # the signature's levels below the top, one 0.0 and its top level side
    # by side, as the basis's log_series tables index them
    offsets, linear, series = basis.log_series
    zero = offsets[-1]
    levels = np.empty((*deltas.shape[:-2], S, zero + 1 + d**M))
    levels[..., zero] = 0.0
    sig = [None] + [levels[..., a:b] for a, b in pairwise(offsets)] + [levels[..., zero + 1 :]]
    np.subtract(aug.take(seg_ptr[1:], axis=-2), state.starts, out=sig[1])
    prefix = [None, aug[..., :-1, :] - aug.take(first, axis=-2)]
    factors = [None, []]
    for k in range(2, M + 1):
        f = scaled[k] + prefix[1]
        factors.append([f])
        for i in range(2, k):
            f = _outer(f, scaled[k - i + 1])
            f += prefix[i]
            factors[k].append(f)
        if k < M:
            sums = _cumsum0(_outer(f, deltas))
            at = sums.take(seg_ptr, axis=-2)
            np.subtract(at[..., 1:, :], at[..., :-1, :], out=sig[k])
            prefix.append(sums[..., :-1, :] - sums.take(first, axis=-2))
    # top-level totals sum_i F_{M-1,i} (x) delta_i, one product per segment
    # top is a view of the levels array, which receives the products
    f_top, top = factors[M][-1].swapaxes(-1, -2), sig[M].reshape(*sig[M].shape[:-1], -1, d)
    for s, (a, b) in enumerate(pairwise(seg_ptr.tolist())):
        np.matmul(f_top[..., a:b], deltas[..., a:b, :], out=top[..., s, :, :])
    # the whole powers below the top level, powers[m] = powers[m-1] (x) sig
    # vanishing below level m, which the adjoint reads, each side by side
    # with one 0.0 in wholes[m] (whose levels below m are never read)
    powers, wholes = [None, sig], [None, levels]
    for m in range(2, M):
        whole = np.empty((*deltas.shape[:-2], S, zero + 1))
        whole[..., zero] = 0.0
        level = [None] * m
        for k in range(m, M):
            power, u, v = whole[..., offsets[k - 1] : offsets[k]], powers[m - 1][m - 1], sig[k - m + 1]
            np.multiply(u[..., :, None], v[..., None, :], out=power.reshape(*u.shape, v.shape[-1]))
            for i in range(m, k):
                power += _outer(powers[m - 1][i], sig[k - i])
            level.append(power)
        powers.append(level)
        wholes.append(whole)
    # log(1 + t) = sum_m (-1)^(m+1) t^m / m at the Lyndon words: the linear
    # term, then each power's prefix-by-tail products summed over each
    # word's prefix lengths (LyndonBasis.log_series), all summed onto zeros
    # so that no entry is -0.0
    rows = levels.take(linear, axis=-1)
    rows += 0.0
    for m, (heads, tails) in enumerate(series, start=2):
        term = wholes[m - 1].take(heads, axis=-1)
        term *= levels.take(tails, axis=-1)
        if heads.ndim == 2:  # several prefix lengths per word
            term = term.sum(axis=-2)
        rows[..., basis._level_slices[m - 1].start :] += (-1) ** (m + 1) / m * term
    for n in range(3, M + 1):  # levels 1 and 2 are their own Lyndon coordinates
        basis.to_lyndon(rows[..., basis._level_slices[n - 1]], n)
    state.deltas, state.factors, state.powers = deltas, factors, powers
    return rows


def _chen_backward(state: _LayerState, upstream: np.ndarray) -> np.ndarray:
    """Gradient with respect to every augmented increment, reversing ``_chen_forward``."""
    basis, M = state.basis, state.degree
    deltas, factors, powers = state.deltas, state.factors, state.powers
    sig = powers[1]
    glog = [None]
    for n in range(1, M + 1):
        idx = basis.level_words(n)
        g = np.zeros_like(sig[n])
        g[..., idx] = basis.to_lyndon_backward(upstream[..., basis._level_slices[n - 1]], n)
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
    gsig = [None] + [gs + gp for gs, gp in zip(gsig[1:], gpow[1:])]

    seg_ptr, f_top = state.seg_ptr, factors[M][-1]
    segment = np.repeat(np.arange(seg_ptr.size - 1), np.diff(seg_ptr))
    d, last = deltas.shape[-1], seg_ptr[1:][segment]
    gprefix = [None] + [np.zeros((*deltas.shape[:-1], level.shape[-1])) for level in sig[1:M]]
    # the top level's per-segment products, then descending k: only the levels
    # above k read P^k, so its gradient is complete when level k is reached
    top = gsig[M].reshape(*gsig[M].shape[:-1], -1, d)
    g, gdeltas = np.empty_like(f_top), np.empty_like(deltas)
    for s, (a, b) in enumerate(pairwise(seg_ptr.tolist())):
        np.matmul(deltas[..., a:b, :], top[..., s, :, :].swapaxes(-1, -2), out=g[..., a:b, :])
        np.matmul(f_top[..., a:b, :], top[..., s, :, :], out=gdeltas[..., a:b, :])
    for k in range(M, 0, -1):
        if k < M:
            # T^k reaches its segment's total and every later P^k of the segment
            sums = _cumsum0(gprefix[k])
            gterm = gsig[k][..., segment, :] + sums[..., last, :] - sums[..., 1:, :]
            if k == 1:  # T^1 is the increment itself
                return gdeltas + gterm
            g, gv = _outer_backward(factors[k][-1], deltas, gterm)
            gdeltas += gv
        # g is the gradient of F_{k-1}; unwind the Horner chain to F_1
        for i in range(k - 1, 1, -1):
            gprefix[i] += g
            g, gv = _outer_backward(factors[k][i - 2], deltas, g / (k - i + 1))
            gdeltas += gv
        gprefix[1] += g
        gdeltas += g / k


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
    """Forward pass returning the output rows plus the state for the adjoint.

    ``state.starts`` holds the path's value at each segment's start.  This is
    ``logsig_stack_forward``'s one-path case.
    """
    return _forward(path, path.points, partition, degree, basis)


def logsig_stack_forward(
    times: np.ndarray,
    points: np.ndarray,
    partition: SegmentPartition,
    degree: int,
    basis: LyndonBasis | None = None,
):
    """``logsig_sequence_forward`` of the paths ``points`` ``(P, n, d)`` sampled at ``times``, in one call.

    Rows and ``state.starts`` are ``(P, S, .)``, each path's equal to its own
    call's, and ``backward_from_state`` on the state returns ``(P, n, d)``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3:
        raise ValueError(f"points must be (paths, n, d), got {points.shape}")
    # side by side the paths are one path on the grid, whose checks cover the stack
    grid = TimedPath(times, points.swapaxes(0, 1).reshape(points.shape[1], -1))
    return _forward(grid, points, partition, degree, basis)


def check_kernel_size(n: int, segments: int, width: int, degree: int) -> None:
    """Refuse, through ``lyndon.check_array_size``, a layer call whose kernel arrays are too large.

    Each width-``width`` path of ``n`` samples in ``segments`` segments
    holds Chen factors ``(n + segments - 1, width**(degree - 1))`` and a top
    level ``(segments, width**degree)`` (a stack holds every path's); a path
    of one sample builds neither.  The layer checks before it augments a path.
    """
    if n < 2:
        return
    by = f"degree {degree} on {n}-sample width-{width} paths in {segments} segments"
    check_array_size((n + segments - 1, width ** (degree - 1)), "each path's Chen factors", by)
    check_array_size((segments, width**degree), "each path's top level and log powers", by)


@np.errstate(over="ignore", invalid="ignore")  # non-finite rows raise below
def _forward(grid: TimedPath, points: np.ndarray, partition: SegmentPartition, degree: int, basis: LyndonBasis | None):
    """The layer on the paths ``points`` ``(..., n, d)`` sampled at ``grid.times``."""
    if basis is None:
        basis = enumerate_lyndon(points.shape[-1], degree)
    if basis.width != points.shape[-1] or basis.degree != degree:
        raise ValueError("basis does not match the path width and requested degree")

    state = _LayerState()
    state.points, state.degree, state.basis = points, degree, basis
    if grid.num_samples < 2:
        state.mode = "constant"
        state.rows = np.zeros((*points.shape[:-2], partition.num_segments, basis.dim))
        state.starts = np.repeat(points, partition.num_segments, axis=-2)
        return state.rows, state

    check_kernel_size(grid.num_samples, partition.num_segments, basis.width, degree)
    v = _boundaries_in_path_time(grid, partition)
    state.keep, state.ins, state.wb, seg_ptr, aug = _augment(grid.times, points, v)
    state.seg_ptr, state.aug_points = seg_ptr, aug
    state.starts = aug.take(seg_ptr[:-1], axis=-2)

    if degree == 1:
        state.mode = "m1"
        state.rows = aug.take(seg_ptr[1:], axis=-2) - state.starts
    else:
        state.mode = "generic"
        state.rows = _chen_forward(state)
    if not np.isfinite(state.rows).all():
        raise FloatingPointError(
            f"degree-{degree} log-signature rows are not finite: the path's "
            "increments overflow float64"
        )
    return state.rows, state


def backward_from_state(
    state: _LayerState, upstream: np.ndarray, starts: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of sum(upstream * rows) with respect to the path's points (each path's, for a stack).

    With ``starts``, an upstream gradient for the start points
    ``state.starts``, the gradient of sum(starts * state.starts) is added.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    starts = np.zeros_like(state.starts) if starts is None else np.asarray(starts, dtype=np.float64)
    for name, given, value in (("upstream", upstream, state.rows), ("start-point", starts, state.starts)):
        if given.shape != value.shape:
            raise ValueError(f"{name} gradient must have shape {value.shape}, got {given.shape}")
    if state.mode == "constant":  # every start point is the one sample
        grad = np.zeros_like(state.points)
        grad[..., 0, :] = starts.sum(axis=-2)
        return grad

    seg_ptr = state.seg_ptr
    gaug = np.zeros_like(state.aug_points)

    if state.mode == "generic":
        gdeltas = _chen_backward(state, upstream)
        gaug[..., 1:, :] += gdeltas
        gaug[..., :-1, :] -= gdeltas
    else:  # degree 1: the rows are the segment increments
        gaug[..., seg_ptr[1:], :] += upstream
        gaug[..., seg_ptr[:-1], :] -= upstream
    gaug[..., seg_ptr[:-1], :] += starts

    # a sample's gradient is its own augmented point's, plus the shares of
    # the boundary points after it (as their interval's left end) and then
    # before it (as the right end), each in augmented order
    grad = gaug[..., state.keep, :]
    gb, ins, wb = gaug.take(seg_ptr[1:-1], axis=-2), state.ins, state.wb
    np.add.at(grad, (..., ins - 1, slice(None)), (1.0 - wb)[:, None] * gb)
    np.add.at(grad, (..., ins, slice(None)), wb[:, None] * gb)
    return grad


@np.errstate(over="ignore", invalid="ignore")  # a non-finite map raises below
def lie_map(matrix: np.ndarray, source: LyndonBasis, target: LyndonBasis, out: np.ndarray | None = None):
    """The ``(source.dim, target.dim)`` matrix of the Lie-algebra map that ``matrix`` induces.

    The rows of the path ``x @ matrix`` are the rows of the path ``x`` times
    this map.  It is block diagonal by level: level 1 is ``matrix``; level
    ``n`` is ``source.level_expansion(n)`` times the n-fold tensor power of
    ``matrix`` at the target's Lyndon words only, then the target's level
    inverse (``target.to_lyndon``).  Its cost does not depend on how many
    rows it maps.  ``out``, if given, is a zeroed ``(source.dim,
    target.dim)`` array (a view is fine) that the levels are written into.

    Returns the map and the cache ``lie_map_backward`` needs; raises
    ``FloatingPointError`` on a non-finite map, as the layer does on
    non-finite rows.
    """
    if matrix.shape != (source.width, target.width) or source.degree != target.degree:
        raise ValueError(
            f"mapping {source!r} rows to {target!r} rows needs a "
            f"({source.width}, {target.width}) matrix, got {matrix.shape}"
        )
    if out is None:
        out = np.zeros((source.dim, target.dim))
    out[: source.width, : target.width] = matrix
    levels = []
    for n in range(2, target.degree + 1):
        letters = target.level_letters(n)
        # powers[k][v, w] = prod_{i<=k} matrix[v_i, w_i], v a source word, w a target Lyndon word
        factors = np.take(matrix, letters, axis=1)
        powers = [factors[:, 0]]
        for k in range(1, n):
            powers.append((powers[-1][:, None, :] * factors[None, :, k]).reshape(-1, letters.shape[1]))
        level = out[source._level_slices[n - 1], target._level_slices[n - 1]]
        np.matmul(source.level_expansion(n), powers[-1], out=level)
        target.to_lyndon(level, n)
        levels.append((factors, powers))
    if not np.isfinite(out).all():
        raise FloatingPointError(
            f"the degree-{target.degree} Lie map of a {matrix.shape} matrix is not finite: "
            "its tensor powers overflow float64"
        )
    return out, (source, target, levels)


def lie_map_backward(cache, g: np.ndarray) -> np.ndarray:
    """Gradient of ``sum(g * lie_map(matrix, ...)[0])`` with respect to ``matrix``."""
    source, target, levels = cache
    grad = g[: source.width, : target.width].copy()
    for n, (factors, powers) in enumerate(levels, start=2):
        level = g[source._level_slices[n - 1], target._level_slices[n - 1]]
        t = source.level_expansion(n).T @ target.to_lyndon_backward(level, n)
        # one_hots[k] adds column i onto the matrix's column of word i's letter k
        one_hots = target.level_one_hots(n)
        for k in range(n - 1, 0, -1):
            t = t.reshape(-1, grad.shape[0], t.shape[-1])
            grad += np.einsum("pvi,pi->vi", t, powers[k - 1]) @ one_hots[k]
            t = np.einsum("pvi,vi->pi", t, factors[:, k])
        grad += t @ one_hots[0]
    return grad
