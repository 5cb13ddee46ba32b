"""Path signatures: worked examples, Chen's identity, invariances."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logsigrnn import (
    TimedPath,
    TruncatedTensor,
    enumerate_lyndon,
    insert_sample_times,
    log_signature,
    perturb_drop,
    perturb_insert,
    reparameterize,
    restrict,
    reverse_path,
    signature,
    shuffle,
    tensor_mul,
    upsample_linear,
)
from logsigrnn.logsig_layer import SegmentPartition, logsig_sequence


def random_path(rng, n, d):
    times = np.sort(rng.uniform(0.0, 1.0, n))
    times[0], times[-1] = 0.0, 1.0
    return TimedPath(times, rng.normal(0.0, 1.0, (n, d)))


L_PATH = TimedPath([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])


class TestTimedPath:
    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimedPath([0.0, 0.0, 1.0], np.zeros((3, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            TimedPath([0.0, 1.0], [[0.0], [np.inf]])

    def test_rejects_a_time_span_that_overflows(self):
        # every timestamp is finite, but the last minus the first is not; the
        # check raises no numpy warning, and no error under numpy's raise policy
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"time span -1e\+308 \.\. 1e\+308 overflows float64"):
                TimedPath([-1e308, 0.0, 1e308], np.zeros((3, 2)))
        TimedPath([1e308, 1.7e308], np.zeros((2, 1)))  # far from zero, but a finite span

    def test_one_dimensional_points_promoted(self):
        p = TimedPath([0.0, 1.0], [1.0, 2.0])
        assert p.points.shape == (2, 1)

    def test_duplicate_points_allowed(self):
        p = TimedPath([0.0, 1.0, 2.0], [[0.0], [0.0], [1.0]])
        assert p.num_samples == 3


CHAIN_3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


class TestSkeletonLayout:
    """A skeleton is a path on its flattened frames with a joint layout."""

    def _skeleton(self):
        rng = np.random.default_rng(4)
        return TimedPath(np.linspace(0.0, 1.0, 9), rng.normal(size=(9, 3, 2)), CHAIN_3)

    def test_frames_are_the_points_by_joint(self):
        skel = self._skeleton()
        assert skel.points.shape == (9, 6) and skel.num_joints == 3 and skel.num_coords == 2
        assert np.array_equal(skel.frames.reshape(9, 6), skel.points)

    @pytest.mark.parametrize(
        "transform",
        [
            pytest.param(lambda s: perturb_drop(s, 0.4, 0), id="perturb_drop"),
            pytest.param(lambda s: perturb_insert(s, 0.4, 0), id="perturb_insert"),
            pytest.param(lambda s: upsample_linear(s, 3), id="upsample_linear"),
            pytest.param(lambda s: restrict(s, 0.1, 0.7), id="restrict"),
            pytest.param(lambda s: reparameterize(s, np.arange(9.0) ** 2), id="reparameterize"),
            pytest.param(lambda s: insert_sample_times(s, [0.05, 0.3]), id="insert_sample_times"),
            pytest.param(reverse_path, id="reverse_path"),
        ],
    )
    def test_every_transform_keeps_the_layout(self, transform):
        skel = self._skeleton()
        out = transform(skel)
        assert out is not skel
        assert out.num_joints == 3 and out.num_coords == 2
        assert np.array_equal(out.adjacency, CHAIN_3)
        assert out.frames.shape == (out.num_samples, 3, 2)

    @pytest.mark.parametrize(
        "points,joints",
        [
            pytest.param(np.zeros((4, 5)), 2, id="columns-not-divisible"),
            pytest.param(np.zeros((4, 2)), 0, id="no-joints"),
            pytest.param(np.zeros((4, 0, 2)), 1, id="zero-joint-frames"),
        ],
    )
    def test_layout_that_does_not_split_the_points_refused(self, points, joints):
        with pytest.raises(ValueError, match="do not split into"):
            TimedPath(np.arange(4.0), points, num_joints=joints)

    @pytest.mark.parametrize(
        "points", [pytest.param(np.zeros((4, 0)), id="path"), pytest.param(np.zeros((4, 3, 0)), id="skeleton")]
    )
    def test_points_without_coordinates_refused(self, points):
        # such a path once loaded, and the model's reshape then refused it naming no cause
        with pytest.raises(ValueError, match="a point needs at least one coordinate"):
            TimedPath(np.arange(4.0), points)

    @pytest.mark.parametrize(
        "adjacency,message",
        [
            pytest.param(np.zeros((2, 2)), "adjacency must be joints x joints", id="shape"),
            pytest.param(-CHAIN_3, "adjacency weights must be finite and non-negative", id="negative"),
            pytest.param(np.where(CHAIN_3 > 0, np.nan, 0.0), "adjacency weights must be finite and non-negative", id="nan"),
            pytest.param(np.triu(CHAIN_3), "adjacency must be symmetric with a zero diagonal", id="asymmetric"),
            pytest.param(CHAIN_3 + np.eye(3), "adjacency must be symmetric with a zero diagonal", id="self-loop"),
        ],
    )
    def test_bad_adjacency_refused(self, adjacency, message):
        with pytest.raises(ValueError, match=message):
            TimedPath(np.arange(4.0), np.zeros((4, 3, 2)), adjacency)

    @pytest.mark.parametrize("gap,loads", [(0.9e-5, True), (1.1e-5, False)], ids=["inside", "outside"])
    def test_asymmetry_tolerance_is_np_allclose_s(self, gap, loads):
        # |a - a.T| <= 1e-8 + 1e-5 * |a.T|: a unit weight read back 0.9e-5
        # larger still loads, 1.1e-5 larger is refused
        adjacency = CHAIN_3.copy()
        adjacency[1, 0] += gap
        assert np.allclose(adjacency, adjacency.T) == loads
        if loads:
            assert np.array_equal(TimedPath(np.arange(4.0), np.zeros((4, 3, 2)), adjacency).adjacency, adjacency)
        else:
            with pytest.raises(ValueError, match="adjacency must be symmetric with a zero diagonal"):
                TimedPath(np.arange(4.0), np.zeros((4, 3, 2)), adjacency)


class TestSignature:
    def test_one_dimensional_closed_form(self):
        # increment 3 at any timestamps: level k is 3^k / k!
        p = TimedPath([5.0, 7.0], [[0.0], [3.0]])
        assert np.allclose(signature(p, 3).ravel(), [1.0, 3.0, 4.5, 4.5])

    def test_single_linear_segment(self):
        p = TimedPath([0.0, 1.0], [[0.0, 0.0], [1.0, 2.0]])
        s = signature(p, 2)
        assert np.allclose(s.levels[1], [1.0, 2.0])
        assert np.allclose(s.levels[2].reshape(2, 2), [[0.5, 1.0], [1.0, 2.0]])

    def test_corner_path_level_two(self):
        s = signature(L_PATH, 2)
        assert np.allclose(s.levels[2].reshape(2, 2), [[0.5, 1.0], [0.0, 0.5]])

    def test_constant_path_is_unit(self):
        p = TimedPath([0.0], [[1.0, 2.0]])
        assert signature(p, 3).allclose(TruncatedTensor.unit(2, 3))

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            signature(L_PATH, 0)

    def test_timestamps_do_not_enter(self):
        rng = np.random.default_rng(0)
        p = random_path(rng, 8, 2)
        q = reparameterize(p, np.linspace(3.0, 9.0, 8))
        assert signature(p, 3).allclose(signature(q, 3), atol=0.0)


class TestLogSignature:
    def test_corner_path_coordinates(self):
        # basis order (1), (2), (12): increment then signed area
        assert np.allclose(log_signature(L_PATH, 2), [1.0, 1.0, 0.5])

    def test_constant_path_is_zero(self):
        p = TimedPath([0.0, 1.0], [[2.0, 2.0], [2.0, 2.0]])
        assert np.allclose(log_signature(p, 3), 0.0)

    def test_one_dimensional_is_degree_one_only(self):
        p = TimedPath([0.0, 0.3, 1.0], [[0.0], [0.5], [2.0]])
        coords = log_signature(p, 3)
        assert coords[0] == pytest.approx(2.0)
        assert np.allclose(coords[1:], 0.0)

    def test_degree_one_block_is_total_increment(self):
        rng = np.random.default_rng(1)
        p = random_path(rng, 10, 3)
        coords = log_signature(p, 3)
        assert np.allclose(coords[:3], p.points[-1] - p.points[0], atol=1e-14)

    def test_an_overflowing_path_raises_where_it_overflows(self):
        # every point is finite, but the level-2 and level-3 products are not:
        # the reference raises as the layer does, and no numpy warning is printed
        p = TimedPath([0.0, 1.0, 2.0, 3.0], [[0.0, 0.0], [1e120, 1.0], [0.0, 2e120], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflow"):
                signature(p, 3)
            with pytest.raises(FloatingPointError, match="overflow"):
                log_signature(p, 3)
            with pytest.raises(FloatingPointError):
                logsig_sequence(p, SegmentPartition.uniform(0.0, 3.0, 1), 3)


class TestRestrict:
    def test_full_interval_is_identity(self):
        q = restrict(L_PATH, 0.0, 2.0)
        assert np.array_equal(q.times, L_PATH.times)
        assert np.array_equal(q.points, L_PATH.points)

    def test_interpolated_boundary(self):
        p = TimedPath([0.0, 1.0], [[0.0], [2.0]])
        q = restrict(p, 0.0, 0.5)
        assert np.allclose(q.times, [0.0, 0.5])
        assert np.allclose(q.points[:, 0], [0.0, 1.0])

    def test_out_of_span_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            restrict(L_PATH, -0.5, 1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_chen_identity_at_random_split(self, seed):
        rng = np.random.default_rng(seed)
        p = random_path(rng, int(rng.integers(2, 12)), int(rng.integers(1, 4)))
        mid = float(rng.uniform(0.05, 0.95))
        whole = signature(p, 3)
        parts = tensor_mul(
            signature(restrict(p, 0.0, mid), 3),
            signature(restrict(p, mid, 1.0), 3),
        )
        assert whole.allclose(parts, atol=1e-12)


class TestInvariances:
    def test_doubled_timestamps(self):
        rng = np.random.default_rng(2)
        p = random_path(rng, 9, 2)
        q = reparameterize(p, 2.0 * p.times)
        assert np.allclose(log_signature(p, 3), log_signature(q, 3), atol=0.0)

    def test_non_monotone_reparameterization_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            reparameterize(L_PATH, [0.0, 2.0, 1.0])

    def test_midpoint_refinement(self):
        rng = np.random.default_rng(3)
        p = random_path(rng, 7, 3)
        mids = 0.5 * (p.times[:-1] + p.times[1:])
        q = insert_sample_times(p, mids)
        assert q.num_samples == 13
        assert signature(p, 3).allclose(signature(q, 3), atol=1e-12)

    def test_resampled_speeds_share_log_signature(self):
        # same polyline traversed at three speeds: refine, then warp the clock
        rng = np.random.default_rng(4)
        p = random_path(rng, 12, 2)
        reference = log_signature(p, 3)
        for seed in range(3):
            srng = np.random.default_rng(seed)
            q = insert_sample_times(p, srng.uniform(0.0, 1.0, 15))
            warped = np.cumsum(srng.uniform(0.1, 2.0, q.num_samples))
            q = reparameterize(q, warped)
            assert np.allclose(log_signature(q, 3), reference, atol=1e-12)

    def test_reversal_gives_inverse_signature(self):
        rng = np.random.default_rng(5)
        p = random_path(rng, 10, 3)
        prod = tensor_mul(signature(p, 3), signature(reverse_path(p), 3))
        assert prod.allclose(TruncatedTensor.unit(3, 3), atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_shuffle_identity_on_signatures(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        p = random_path(rng, int(rng.integers(2, 10)), d)
        s = signature(p, 4)
        for _ in range(3):
            u = tuple(rng.integers(1, d + 1, size=int(rng.integers(1, 3))))
            v = tuple(rng.integers(1, d + 1, size=int(rng.integers(1, 3))))
            lhs = s.coefficient(u) * s.coefficient(v)
            rhs = sum(c * s.coefficient(w) for w, c in shuffle(u, v, 4).items())
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs - rhs) / scale <= 1e-10
