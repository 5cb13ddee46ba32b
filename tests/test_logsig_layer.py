"""Log-signature sequence layer: forward contract and analytic adjoint."""

import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logsigrnn import logsig_layer, lyndon
from logsigrnn import (
    SegmentPartition,
    TimedPath,
    enumerate_lyndon,
    insert_sample_times,
    log_signature,
    logsig_sequence,
    logsig_sequence_forward,
    logsig_stack_forward,
    backward_from_state,
    evaluate,
    restrict,
)
from logsigrnn.logsig_layer import _boundaries_in_path_time, lie_map, lie_map_backward
from logsigrnn.paths import signature
from logsigrnn.tensor_algebra import tensor_log
from reference import lie_map_backward_scatter, log_rows


def random_path(rng, n, d, span=(0.0, 1.0)):
    times = np.sort(rng.uniform(*span, n))
    times[0], times[-1] = span
    return TimedPath(times, rng.normal(0.0, 1.0, (n, d)))


def fd_gradient(path, partition, degree, basis, upstream, h=1e-6, starts=None):
    """Central differences of sum(upstream * rows), plus sum(starts * start points) if given."""
    at = _boundaries_in_path_time(path, partition)[:-1]
    grad = np.zeros_like(path.points)
    for i in range(path.num_samples):
        for j in range(path.width):
            for sign in (1.0, -1.0):
                pts = path.points.copy()
                pts[i, j] += sign * h
                shifted = TimedPath(path.times, pts)
                value = np.sum(upstream * logsig_sequence(shifted, partition, degree, basis))
                if starts is not None:
                    value += np.sum(starts * evaluate(shifted, at))
                grad[i, j] += sign * float(value) / (2 * h)
    return grad


def max_rel_err(analytic, reference, floor=1e-8):
    denom = np.maximum(np.abs(analytic), np.abs(reference))
    mask = denom > floor
    if not mask.any():
        return 0.0
    return float((np.abs(analytic - reference)[mask] / denom[mask]).max())


class TestPartition:
    def test_uniform(self):
        part = SegmentPartition.uniform(0.0, 1.0, 4)
        assert np.allclose(part.boundaries, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert part.num_segments == 4

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SegmentPartition([0.0, 0.5, 0.5])

    def test_needs_at_least_one_segment(self):
        with pytest.raises(ValueError):
            SegmentPartition.uniform(0.0, 1.0, 0)

    @pytest.mark.parametrize(
        "boundaries,message",
        [([0.0], "at least two boundaries"), ([0.0, np.inf], "must be finite")],
        ids=["one-boundary", "infinite"],
    )
    def test_rejects_a_bad_boundary_list(self, boundaries, message):
        with pytest.raises(ValueError, match=message):
            SegmentPartition(boundaries)


class TestForward:
    def test_degree_one_rows_are_segment_increments(self):
        rng = np.random.default_rng(0)
        p = random_path(rng, 20, 3)
        part = SegmentPartition.uniform(0.0, 1.0, 5)
        rows = logsig_sequence(p, part, 1)
        v = part.boundaries
        expected = np.stack(
            [
                np.concatenate(
                    [
                        restrict(p, v[k], v[k + 1]).points[-1]
                        - restrict(p, v[k], v[k + 1]).points[0]
                    ]
                )
                for k in range(5)
            ]
        )
        assert np.allclose(rows, expected, atol=1e-12)

    def test_constant_path_rows_are_zero(self):
        p = TimedPath([0.0], [[3.0, 1.0]])
        rows = logsig_sequence(p, SegmentPartition.uniform(0.0, 1.0, 3), 2)
        assert rows.shape == (3, 3)
        assert np.allclose(rows, 0.0)

    def test_corner_path_split_at_corner(self):
        p = TimedPath([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        rows = logsig_sequence(p, SegmentPartition.uniform(0.0, 2.0, 2), 2)
        assert np.allclose(rows, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], atol=1e-14)

    @pytest.mark.parametrize(
        "degree,width,layout",
        [
            pytest.param(1, 3, 1.0, id="1"),
            pytest.param(2, 3, 1.0, id="2"),
            pytest.param(3, 3, 1.0, id="3"),
            pytest.param(4, 3, 1.0, id="4"),
            pytest.param(3, 9, 1.0, id="3-width9"),
            # the widest bases a gcn joint group takes at degrees 3 and 4
            pytest.param(3, 11, 1.0, id="3-width11"),
            pytest.param(4, 6, 1.0, id="4-width6"),
            # every sample but the last before t = 0.25: a dense first
            # segment beside three segments that are each a single chord
            pytest.param(3, 3, 0.25, id="3-chords"),
            # more segments than samples: most segments lie on one chord
            pytest.param(3, 3, "sparse", id="3-sparse"),
        ],
    )
    def test_rows_match_restricted_log_signatures(self, degree, width, layout):
        rng = np.random.default_rng(1)
        basis = enumerate_lyndon(width, degree)
        for _ in range(5):
            if layout == "sparse":
                p, segments = random_path(rng, 4, width), 12
            else:
                p = random_path(rng, int(rng.integers(2, 16)), width)
                segments = int(rng.integers(1, 5)) if layout == 1.0 else 4
                p = TimedPath(np.append(p.times[:-1] * layout, 1.0), p.points)
            part = SegmentPartition.uniform(0.0, 1.0, segments)
            rows = logsig_sequence(p, part, degree, basis)
            v = _boundaries_in_path_time(p, part)
            direct = np.stack(
                [
                    log_signature(restrict(p, v[k], v[k + 1]), degree, basis)
                    for k in range(part.num_segments)
                ]
            )
            assert np.max(np.abs(rows - direct)) <= 1e-12

    @pytest.mark.parametrize("n,width", [(2000, 3), (600, 9)])
    def test_long_offset_walk_matches_restricted_log_signatures(self, n, width):
        # segmented sums subtract running totals taken over the whole path
        rng = np.random.default_rng(8)
        times = random_path(rng, n, 1).times
        p = TimedPath(times, 1e3 + np.cumsum(rng.normal(0.0, 0.1, (n, width)), axis=0))
        part = SegmentPartition.uniform(0.0, 1.0, 8)
        basis = enumerate_lyndon(width, 3)
        rows = logsig_sequence(p, part, 3, basis)
        v = _boundaries_in_path_time(p, part)
        direct = np.stack(
            [log_signature(restrict(p, v[k], v[k + 1]), 3, basis) for k in range(8)]
        )
        assert np.max(np.abs(rows - direct)) <= 1e-12

    def test_boundary_on_sample_matches_restriction(self):
        rng = np.random.default_rng(2)
        p = TimedPath([0.0, 0.25, 0.5, 0.75, 1.0], rng.normal(0, 1, (5, 2)))
        rows = logsig_sequence(p, SegmentPartition.uniform(0.0, 1.0, 2), 2)
        direct = np.stack(
            [log_signature(restrict(p, 0.0, 0.5), 2), log_signature(restrict(p, 0.5, 1.0), 2)]
        )
        assert np.max(np.abs(rows - direct)) <= 1e-13

    def test_partition_span_rescaled_onto_path(self):
        rng = np.random.default_rng(3)
        p = random_path(rng, 9, 2)
        rows_native = logsig_sequence(p, SegmentPartition.uniform(0.0, 1.0, 3), 2)
        rows_shifted = logsig_sequence(p, SegmentPartition.uniform(-5.0, 13.0, 3), 2)
        assert np.allclose(rows_native, rows_shifted, atol=1e-13)

    @pytest.mark.parametrize("n", [8, 16, 64, 256])
    def test_output_shape_independent_of_length(self, n):
        rng = np.random.default_rng(n)
        p = random_path(rng, n, 3)
        rows = logsig_sequence(p, SegmentPartition.uniform(0.0, 1.0, 4), 2)
        assert rows.shape == (4, 6)

    def test_refinement_invariance(self):
        rng = np.random.default_rng(4)
        p = random_path(rng, 10, 2)
        part = SegmentPartition.uniform(0.0, 1.0, 4)
        rows = logsig_sequence(p, part, 3)
        refined = insert_sample_times(p, rng.uniform(0.0, 1.0, 25))
        assert np.max(np.abs(logsig_sequence(refined, part, 3) - rows)) <= 1e-12

    def test_degenerate_segment_is_degree_one_only(self):
        # no interior samples inside segment 2 of 4: the chord contributes
        # only degree-1 coordinates
        p = TimedPath([0.0, 0.1, 0.9, 1.0], [[0, 0], [1, 1], [0, 1], [2, 2]])
        rows = logsig_sequence(p, SegmentPartition.uniform(0.0, 1.0, 4), 2)
        assert abs(rows[1][2]) <= 1e-15 and abs(rows[2][2]) <= 1e-15

    @pytest.mark.parametrize(
        "degree,width,n,segments",
        [
            pytest.param(1, 3, 15, 3, id="1"),
            pytest.param(2, 3, 15, 4, id="2"),
            pytest.param(3, 3, 15, 3, id="3"),
            pytest.param(4, 3, 15, 2, id="4"),
            pytest.param(3, 7, 40, 4, id="3-width7"),
            pytest.param(3, 3, 1, 3, id="3-one-sample"),
            # more segments than samples: most segments lie on one chord
            pytest.param(3, 3, 4, 12, id="3-sparse"),
        ],
    )
    def test_stack_rows_equal_one_path_calls(self, degree, width, n, segments):
        # five paths on one time grid in one call: each path's rows and start
        # points are those of its own call, bit for bit
        rng = np.random.default_rng(20 + degree)
        times = random_path(rng, n, 1).times
        points = rng.normal(0.0, 1.0, (5, n, width))
        part = SegmentPartition.uniform(0.0, 1.0, segments)
        basis = enumerate_lyndon(width, degree)
        rows, state = logsig_stack_forward(times, points, part, degree, basis)
        assert rows.shape == (5, segments, basis.dim) and state.starts.shape == (5, segments, width)
        for path_points, path_rows, path_starts in zip(points, rows, state.starts):
            ref_rows, ref_state = logsig_sequence_forward(TimedPath(times, path_points), part, degree, basis)
            assert np.array_equal(path_rows, ref_rows)
            assert np.array_equal(path_starts, ref_state.starts)

    @pytest.mark.parametrize("stacked", [False, True], ids=["path", "stack"])
    def test_overflowing_rows_raise(self, stacked):
        times = np.array([0.0, 1.0, 2.0])
        huge = np.array([[0.0, 0.0], [1e200, -1e200], [-1e200, 3e200]])
        part = SegmentPartition.uniform(0.0, 1.0, 2)
        with pytest.raises(FloatingPointError, match="rows are not finite"):
            if stacked:  # one finite path beside the overflowing one
                logsig_stack_forward(times, np.stack([np.ones((3, 2)), huge]), part, 3)
            else:
                logsig_sequence_forward(TimedPath(times, huge), part, 3)

    @pytest.mark.parametrize("stacked", [False, True], ids=["path", "stack"])
    @pytest.mark.parametrize(
        "samples,segments,named",
        [
            # 40 + 2 - 1 augmented points by width**2
            (40, 2, "degree 3 on 40-sample width-2 paths in 2 segments makes each path's Chen factors (41, 4)"),
            # 10 segments by width**3
            (2, 10, "degree 3 on 2-sample width-2 paths in 10 segments makes each path's top level and log powers "
                    "(10, 8)"),
        ],
        ids=["chen-factors", "top-level"],
    )
    def test_kernel_budget_refuses_before_augmenting(self, monkeypatch, stacked, samples, segments, named):
        def refuse(*args):
            raise AssertionError("the path was augmented")

        monkeypatch.setattr(lyndon, "MAX_ARRAY_ENTRIES", 64)
        monkeypatch.setattr(logsig_layer, "_augment", refuse)
        path = random_path(np.random.default_rng(0), samples, 2)
        part = SegmentPartition.uniform(0.0, 1.0, segments)
        with pytest.raises(ValueError, match=re.escape(f"{named}, past the array size budget of 64 entries")):
            if stacked:
                logsig_stack_forward(path.times, np.stack([path.points] * 2), part, 3)
            else:
                logsig_sequence_forward(path, part, 3)

    def test_stack_within_the_per_path_budget_passes(self, monkeypatch):
        # each of the 3 paths holds (3 + 2 - 1, 4) Chen factors and (2, 8) top-level entries:
        # the stack holds three times the budget, which is per path
        monkeypatch.setattr(lyndon, "MAX_ARRAY_ENTRIES", 16)
        path = random_path(np.random.default_rng(0), 3, 2)
        part = SegmentPartition.uniform(0.0, 1.0, 2)
        rows, _ = logsig_stack_forward(path.times, np.stack([path.points] * 3), part, 3)
        assert rows.shape == (3, 2, 5)

    @pytest.mark.parametrize("stacked", [False, True], ids=["path", "stack"])
    def test_basis_of_another_width_rejected(self, stacked):
        times, points = np.array([0.0, 1.0]), np.zeros((2, 2, 3))
        part, basis = SegmentPartition.uniform(0.0, 1.0, 2), enumerate_lyndon(4, 2)
        with pytest.raises(ValueError, match="basis does not match the path width"):
            if stacked:
                logsig_stack_forward(times, points, part, 2, basis)
            else:
                logsig_sequence_forward(TimedPath(times, points[0]), part, 2, basis)

    @pytest.mark.parametrize(
        "points,message",
        [
            pytest.param(np.zeros((3, 2)), "paths, n, d", id="one-path"),
            pytest.param(np.zeros((2, 4, 2)), "one row per timestamp", id="other-grid"),
            pytest.param(np.array([[[0.0], [1.0], [np.inf]]]), "finite", id="not-finite"),
        ],
    )
    def test_stack_must_lie_on_the_grid(self, points, message):
        with pytest.raises(ValueError, match=message):
            logsig_stack_forward([0.0, 0.5, 1.0], points, SegmentPartition.uniform(0.0, 1.0, 2), 2)

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            logsig_sequence(
                TimedPath([0.0, 1.0], [[0.0], [1.0]]), SegmentPartition.uniform(0, 1, 2), 0
            )


class TestBackward:
    def test_zero_upstream_gives_zero_gradient(self):
        rng = np.random.default_rng(5)
        p = random_path(rng, 8, 2)
        part = SegmentPartition.uniform(0.0, 1.0, 3)
        rows, state = logsig_sequence_forward(p, part, 2)
        grad = backward_from_state(state, np.zeros_like(rows))
        assert np.allclose(grad, 0.0)

    def test_degree_one_single_segment_increment_gradient(self):
        rng = np.random.default_rng(6)
        p = random_path(rng, 6, 2)
        part = SegmentPartition.uniform(0.0, 1.0, 1)
        _, state = logsig_sequence_forward(p, part, 1)
        grad = backward_from_state(state, np.ones((1, 2)))
        expected = np.zeros((6, 2))
        expected[0] = -1.0
        expected[-1] = 1.0
        assert np.allclose(grad, expected, atol=1e-14)

    def test_upstream_shape_enforced(self):
        p = TimedPath([0.0, 1.0], [[0.0], [1.0]])
        part = SegmentPartition.uniform(0.0, 1.0, 2)
        _, state = logsig_sequence_forward(p, part, 1)
        with pytest.raises(ValueError, match="shape"):
            backward_from_state(state, np.zeros((3, 1)))

    @pytest.mark.parametrize("samples", [1, 2])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 1), (2,)], ids=["wide", "long", "flat"])
    def test_start_point_gradient_shape_enforced(self, samples, shape):
        p = TimedPath(np.linspace(0.0, 1.0, samples), np.arange(samples, dtype=float)[:, None])
        _, state = logsig_sequence_forward(p, SegmentPartition.uniform(0.0, 1.0, 2), 2)
        assert state.starts.shape == (2, 1)
        with pytest.raises(ValueError, match="start-point gradient must have shape"):
            backward_from_state(state, np.zeros((2, 1)), np.zeros(shape))

    @pytest.mark.parametrize(
        "degree,segments,d,layout",
        [
            pytest.param(1, 3, 3, 1.0, id="1-3"),
            pytest.param(2, 4, 3, 1.0, id="2-4"),
            pytest.param(3, 2, 3, 1.0, id="3-2"),
            pytest.param(4, 2, 2, 1.0, id="4-2"),
            pytest.param(3, 4, 9, 1.0, id="3-4-width9"),
            # a dense first segment beside three single-increment segments,
            # where the reverse segmented sums start and stop at once
            pytest.param(3, 4, 3, 0.25, id="3-chords"),
            # one sample: every segment starts at it and every row is zero
            pytest.param(3, 3, 2, "constant", id="3-constant"),
            # the boundary at 0.5 is a sample, so the middle start point is that sample
            pytest.param(2, 2, 3, "on-sample", id="2-on-sample"),
            pytest.param(1, 2, 2, "on-sample", id="1-on-sample"),
            # more segments than samples: most segments lie on one chord
            pytest.param(3, 12, 3, "sparse", id="3-sparse"),
        ],
    )
    def test_matches_finite_differences(self, degree, segments, d, layout):
        # the upstream gradient covers the rows and the start points
        rng = np.random.default_rng(degree * 10 + segments)
        p = random_path(rng, 12, d)
        if layout == "constant":
            p = TimedPath([0.5], p.points[:1])
        elif layout == "sparse":
            p = random_path(rng, 4, d)
        elif layout == "on-sample":
            halves = np.sort(rng.uniform(0.0, 0.5, 4)), np.sort(rng.uniform(0.5, 1.0, 5))
            p = TimedPath(np.concatenate([[0.0], halves[0], [0.5], halves[1], [1.0]]), p.points)
        else:
            p = TimedPath(np.append(p.times[:-1] * layout, 1.0), p.points)
        part = SegmentPartition.uniform(0.0, 1.0, segments)
        basis = enumerate_lyndon(d, degree)
        rows, state = logsig_sequence_forward(p, part, degree, basis)
        expected = evaluate(p, _boundaries_in_path_time(p, part)[:-1])
        assert np.max(np.abs(state.starts - expected)) <= 1e-12 * np.max(np.abs(expected))
        upstream = rng.normal(0.0, 1.0, rows.shape)
        starts = rng.normal(0.0, 1.0, state.starts.shape)
        analytic = backward_from_state(state, upstream, starts)
        reference = fd_gradient(p, part, degree, basis, upstream, starts=starts)
        assert max_rel_err(analytic, reference) <= 1e-5
        # without the start points' upstream, the rows' gradient alone
        analytic = backward_from_state(state, upstream)
        assert max_rel_err(analytic, fd_gradient(p, part, degree, basis, upstream)) <= 1e-5

    @pytest.mark.parametrize(
        "degree,n,segments",
        [
            pytest.param(1, 12, 3, id="1"),
            pytest.param(2, 12, 4, id="2"),
            pytest.param(3, 12, 2, id="3"),
            pytest.param(4, 12, 2, id="4"),
            pytest.param(3, 1, 3, id="3-one-sample"),
            pytest.param(3, 4, 12, id="3-sparse"),
        ],
    )
    def test_stack_adjoint_equals_one_path_adjoints(self, degree, n, segments):
        # each path's gradient from the stack's one backward call is its own
        # call's, bit for bit, and meets test_matches_finite_differences's bound
        rng = np.random.default_rng(30 + degree)
        times = random_path(rng, n, 1).times
        points = rng.normal(0.0, 1.0, (3, n, 2))
        part = SegmentPartition.uniform(0.0, 1.0, segments)
        basis = enumerate_lyndon(2, degree)
        rows, state = logsig_stack_forward(times, points, part, degree, basis)
        upstream = rng.normal(0.0, 1.0, rows.shape)
        starts = rng.normal(0.0, 1.0, state.starts.shape)
        grad = backward_from_state(state, upstream, starts)
        assert grad.shape == points.shape
        for path_points, path_grad, path_upstream, path_starts in zip(points, grad, upstream, starts):
            path = TimedPath(times, path_points)
            _, path_state = logsig_sequence_forward(path, part, degree, basis)
            assert np.array_equal(path_grad, backward_from_state(path_state, path_upstream, path_starts))
            reference = fd_gradient(path, part, degree, basis, path_upstream, starts=path_starts)
            assert max_rel_err(path_grad, reference) <= 1e-5

    def test_gradient_locality(self):
        # a sample strictly inside segment k that does not bracket a boundary
        # feeds only row k; the two samples around a boundary feed both sides
        rng = np.random.default_rng(7)
        p = TimedPath([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], rng.normal(0.0, 1.0, (6, 2)))
        part = SegmentPartition.uniform(0.0, 1.0, 2)  # boundary at 0.5
        basis = enumerate_lyndon(2, 2)
        _, state = logsig_sequence_forward(p, part, 2, basis)
        upstream = np.zeros((2, 3))
        upstream[1] = 1.0
        grad = backward_from_state(state, upstream)
        assert np.allclose(grad[1], 0.0)  # t=0.2 strictly inside segment 0
        assert np.any(grad[2] != 0.0)  # t=0.4 brackets the boundary
        upstream = np.zeros((2, 3))
        upstream[0] = 1.0
        grad = backward_from_state(state, upstream)
        assert np.allclose(grad[4], 0.0)  # t=0.8 strictly inside segment 1
        assert np.any(grad[3] != 0.0)  # t=0.6 brackets the boundary

    def test_many_segments_on_a_short_path_stay_small(self):
        # forward plus backward at 2000 segments on 3 samples: the rows take
        # 94 KiB, and no array may grow with samples times segments
        rng = np.random.default_rng(9)
        p = TimedPath([0.0, 0.4, 1.0], rng.normal(0.0, 1.0, (3, 3)))
        part = SegmentPartition.uniform(0.0, 1.0, 2000)
        basis = enumerate_lyndon(3, 2)
        tracemalloc.start()
        try:
            rows, state = logsig_sequence_forward(p, part, 2, basis)
            backward_from_state(state, np.ones_like(rows), np.ones_like(state.starts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_constant_path_backward_is_zero(self):
        p = TimedPath([0.5], [[1.0, 1.0]])
        part = SegmentPartition.uniform(0.0, 1.0, 2)
        rows, state = logsig_sequence_forward(p, part, 2)
        grad = backward_from_state(state, np.ones_like(rows))
        assert grad.shape == (1, 2)
        assert np.allclose(grad, 0.0)


class TestAugmentedBoundaries:
    """Boundary layouts of the augmentation, each on a stack of three paths:
    rows against restricted log-signatures, the adjoint against central
    differences, and the stack against one-path calls bit for bit."""

    @pytest.mark.parametrize(
        "times,layout",
        [
            # every interior boundary of 4 segments is a sample
            pytest.param(np.linspace(0.0, 1.0, 9), "on-sample", id="on-sample"),
            # the three interior boundaries share one sample interval
            pytest.param(np.array([0.0, 0.1, 0.8, 0.9, 1.0]), "one-interval", id="one-interval"),
            pytest.param(np.array([0.0, 1.0]), "one-interval", id="two-samples"),
        ],
    )
    def test_layout(self, times, layout):
        rng = np.random.default_rng(40)
        degree, segments = 3, 4
        points = rng.normal(0.0, 1.0, (3, times.size, 2))
        part = SegmentPartition.uniform(0.0, 1.0, segments)
        basis = enumerate_lyndon(2, degree)
        rows, state = logsig_stack_forward(times, points, part, degree, basis)
        assert state.keep.sum() == times.size and state.ins.size == segments - 1
        if layout == "on-sample":  # each boundary point is the sample before it
            assert np.all(state.wb == 0.0) and np.unique(state.ins).size == segments - 1
        else:
            assert np.unique(state.ins).size == 1
        upstream = rng.normal(0.0, 1.0, rows.shape)
        starts = rng.normal(0.0, 1.0, state.starts.shape)
        grad = backward_from_state(state, upstream, starts)
        v = _boundaries_in_path_time(TimedPath(times, points[0]), part)
        for path_points, path_rows, path_grad, path_upstream, path_starts in zip(points, rows, grad, upstream, starts):
            path = TimedPath(times, path_points)
            direct = np.stack([log_signature(restrict(path, v[k], v[k + 1]), degree, basis) for k in range(segments)])
            assert np.max(np.abs(path_rows - direct)) <= 1e-12
            one_rows, one_state = logsig_sequence_forward(path, part, degree, basis)
            assert np.array_equal(path_rows, one_rows)
            assert np.array_equal(path_grad, backward_from_state(one_state, path_upstream, path_starts))
            reference = fd_gradient(path, part, degree, basis, path_upstream, starts=path_starts)
            assert max_rel_err(path_grad, reference) <= 1e-5


class TestChannelSubsets:
    """The rows of a path's channels ``letters`` are the full path's rows at
    ``LyndonBasis.letter_positions(letters)``, and its start points the full
    start points' columns ``letters``: gcn block 0 gathers each joint's rows
    from one layer call on a group of joints this way."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_of_a_channel_subset_are_a_gather(self, seed):
        rng = np.random.default_rng(seed)
        width, degree = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        letters = np.sort(rng.choice(width, int(rng.integers(1, width + 1)), replace=False))
        path = random_path(rng, int(rng.integers(1, 25)), width)
        partition = SegmentPartition.uniform(0.0, 1.0, int(rng.integers(1, 5)))
        rows, state = logsig_sequence_forward(path, partition, degree)
        sub_rows, sub_state = logsig_sequence_forward(TimedPath(path.times, path.points[:, letters]), partition, degree)
        got = rows[:, enumerate_lyndon(width, degree).letter_positions(letters)]
        for got_row, ref_row in zip(got, sub_rows):
            assert np.all(np.abs(got_row - ref_row) <= 1e-12 * np.max(np.abs(ref_row))), (width, degree, letters)
        assert np.array_equal(state.starts[:, letters], sub_state.starts)


class TestGatherTables:
    """The layer's log series and level inverses read each basis's index
    tables: its rows equal the level-by-level assembly through the dense
    correction block (``reference.log_rows``), and the tables are built once
    per basis."""

    # widths 1..WIDTHS[degree]: past them the oracle's dense level inverse takes seconds
    WIDTHS = {1: 11, 2: 11, 3: 11, 4: 9, 5: 5}

    @staticmethod
    def _signature_levels(state):
        if state.mode == "m1":  # the rows are the segment increments
            return [None, state.aug_points.take(state.seg_ptr[1:], axis=-2) - state.starts]
        return state.powers[1]

    @pytest.mark.parametrize("entry", ["sequence", "stack"])
    @pytest.mark.parametrize("layout", [1.0, 0.25, "sparse"], ids=["plain", "chords", "sparse"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_rows_equal_the_level_by_level_assembly(self, degree, layout, entry):
        # byte-equal up to degree 3, where every coordinate sums its terms in
        # the same order; above it a power's products group otherwise
        rng = np.random.default_rng(40 + degree)
        # from width 2: at width 1 the rows are the increments, at any degree
        for width in range(2, self.WIDTHS[degree] + 1):
            basis = enumerate_lyndon(width, degree)
            if layout == "sparse":
                p, segments = random_path(rng, 4, width), 12
            else:
                p = random_path(rng, int(rng.integers(2, 30)), width)
                p, segments = TimedPath(np.append(p.times[:-1] * layout, 1.0), p.points), 4
            part = SegmentPartition.uniform(0.0, 1.0, segments)
            if entry == "sequence":
                rows, state = logsig_sequence_forward(p, part, degree, basis)
            else:
                points = np.stack([p.points, p.points[::-1] * 0.5])
                rows, state = logsig_stack_forward(p.times, points, part, degree, basis)
            ref = log_rows(self._signature_levels(state), basis)
            if degree <= 3:
                assert rows.tobytes() == ref.tobytes(), width
            else:
                scale = np.max(np.abs(ref), axis=-1, keepdims=True)
                assert np.all(np.abs(rows - ref) <= 1e-13 * scale), width

    def test_tables_are_built_once_per_basis(self, monkeypatch):
        builds = {}

        def counted(name):
            build = getattr(lyndon, name)

            def wrapper(*args):
                builds[name] = builds.get(name, 0) + 1
                return build(*args)

            monkeypatch.setattr(lyndon, name, wrapper)

        for name in ("_log_series_tables", "_gather_tables", "_one_hots"):
            counted(name)
        rng = np.random.default_rng(41)
        source, target = lyndon.LyndonBasis(2, 4), lyndon.LyndonBasis(3, 4)
        for _ in range(3):
            path = random_path(rng, 20, 3)
            rows, state = logsig_sequence_forward(path, SegmentPartition.uniform(0.0, 1.0, 3), 4, target)
            backward_from_state(state, rng.normal(size=rows.shape))
            lie, cache = lie_map(rng.normal(size=(2, 3)), source, target)
            lie_map_backward(cache, rng.normal(size=lie.shape))
            lyndon.project_to_basis(tensor_log(signature(path, 4)), target)
        # all on the target, the layer's basis: one log series, the forward
        # and adjoint tables of levels 1..4 and the one-hots of levels 2..4
        # (the source is only expanded)
        assert builds == {"_log_series_tables": 1, "_gather_tables": 2 * 4, "_one_hots": 3}

    def test_a_call_at_the_budget_edge_stays_small(self):
        # width 2 at degree 15 is the largest basis in the budget: its log
        # series tables and one call on a short path take tens of MiB, where
        # a table of every word's compositions would take gigabytes
        basis = lyndon.LyndonBasis(2, 15)
        for n in range(3, 16):  # seconds of exact integer arithmetic, not traced
            basis.level_correction(n)
        path = random_path(np.random.default_rng(42), 8, 2)
        tracemalloc.start()
        try:
            rows, _ = logsig_sequence_forward(path, SegmentPartition.uniform(0.0, 1.0, 2), 15, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (2, basis.dim) and np.isfinite(rows).all()
        assert peak < 64 * 2**20, peak / 2**20

    def test_width_one_at_a_high_degree_is_its_increments(self):
        # the letter is the only Lyndon word at width 1, so there is no power
        # to gather, past the degree (67) where a count of compositions
        # outgrows an intp
        path = random_path(np.random.default_rng(43), 6, 1)
        part = SegmentPartition.uniform(0.0, 1.0, 3)
        rows, _ = logsig_sequence_forward(path, part, 70)
        increments, _ = logsig_sequence_forward(path, part, 1)
        assert rows.tobytes() == (increments + 0.0).tobytes()

    def test_width_one_at_the_largest_degree_takes_its_increments(self):
        # the Chen kernel would make O(degree**3) Python-level products here
        rng = np.random.default_rng(44)
        path, part = random_path(rng, 50, 1), SegmentPartition.uniform(0.0, 1.0, 7)
        upstream = rng.normal(size=(7, 1))
        start = time.perf_counter()
        rows, state = logsig_sequence_forward(path, part, 65535)
        grad = backward_from_state(state, upstream)
        assert time.perf_counter() - start < 1.0
        increments, state1 = logsig_sequence_forward(path, part, 1)
        assert rows.tobytes() == increments.tobytes()
        assert grad.tobytes() == backward_from_state(state1, upstream).tobytes()

    def test_a_call_past_the_gather_budget_is_refused_before_allocating(self):
        # at width 2, degree 15 level 15's inverse gathers (2168, 426) entries
        # per segment row, its adjoint (2168, 428) and the log series
        # (14, 4718): 100 segments of a 200-sample path pass the array budget
        # only through these gathers
        basis = enumerate_lyndon(2, 15)
        for n in range(3, 16):  # the tables are the basis's, built once and not traced
            basis.level_correction(n)
        basis.log_series
        path = random_path(np.random.default_rng(45), 200, 2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(
                "degree 15 on 200-sample width-2 paths in 100 segments makes each path's Lyndon table gathers "
                "(100, 927904), past the array size budget"
            )):
                logsig_sequence_forward(path, SegmentPartition.uniform(0.0, 1.0, 100), 15, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak / 2**20  # one segment row of the gather is 7 MiB


class TestLinearMap:
    CASES = [(1, 4, 3), (2, 4, 9), (3, 4, 9), (3, 3, 2), (4, 3, 4), (4, 2, 2)]

    @pytest.mark.parametrize("degree,source,target", CASES)
    def test_backward_matches_the_scatters(self, degree, source, target):
        # one product per letter position against np.add.at's column scatters
        rng = np.random.default_rng(degree * 100 + source * 10 + target + 2)
        lie, cache = lie_map(rng.normal(size=(source, target)), enumerate_lyndon(source, degree), enumerate_lyndon(target, degree))
        upstream = rng.normal(size=lie.shape)
        grad, ref = lie_map_backward(cache, upstream), lie_map_backward_scatter(cache, upstream)
        assert np.max(np.abs(grad - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("degree,source,target", CASES)
    def test_rows_of_the_mapped_path(self, degree, source, target):
        # the log-signature is equivariant under linear maps
        rng = np.random.default_rng(degree * 100 + source * 10 + target)
        path = random_path(rng, 25, source)
        matrix = rng.normal(size=(source, target))
        partition = SegmentPartition.uniform(0.0, 1.0, 3)
        rows = logsig_sequence(path, partition, degree)
        ref = logsig_sequence(TimedPath(path.times, path.points @ matrix), partition, degree)
        lie, _ = lie_map(matrix, enumerate_lyndon(source, degree), enumerate_lyndon(target, degree))
        mapped = rows @ lie
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all(np.abs(mapped - ref) <= 1e-12 * scale)

    @pytest.mark.parametrize("degree,source,target", CASES)
    def test_backward_matches_finite_differences(self, degree, source, target):
        rng = np.random.default_rng(degree * 100 + source * 10 + target + 1)
        src, tgt = enumerate_lyndon(source, degree), enumerate_lyndon(target, degree)
        matrix = rng.normal(size=(source, target))
        lie, cache = lie_map(matrix, src, tgt)
        upstream = rng.normal(size=lie.shape)
        grad = lie_map_backward(cache, upstream)
        h = 1e-6
        fd = np.zeros_like(matrix)
        for i in range(source):
            for j in range(target):
                for sign in (1.0, -1.0):
                    shifted = matrix.copy()
                    shifted[i, j] += sign * h
                    fd[i, j] += sign * np.sum(upstream * lie_map(shifted, src, tgt)[0]) / (2 * h)
        assert max_rel_err(grad, fd) <= 1e-6

    def test_overflowing_map_raises(self):
        src, tgt = enumerate_lyndon(2, 3), enumerate_lyndon(3, 3)
        with pytest.raises(FloatingPointError, match="not finite"):
            lie_map(np.full((2, 3), 1e150), src, tgt)

    def test_mismatched_matrix_rejected(self):
        src, tgt = enumerate_lyndon(3, 2), enumerate_lyndon(4, 2)
        with pytest.raises(ValueError, match="matrix"):
            lie_map(np.zeros((4, 3)), src, tgt)
