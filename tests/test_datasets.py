"""Synthetic generation, perturbations, MAPE, stream file round trips."""

import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from logsigrnn import (
    ModelConfig,
    StreamParseError,
    TimedPath,
    digit_polyline,
    gen_synthetic,
    load_streams,
    log_signature,
    mape,
    perturb_drop,
    perturb_insert,
    save_streams,
    TrainSettings,
    evaluate_model,
    train,
    upsample_linear,
)
from logsigrnn.datasets import LabeledStreamSet


class TestGeneration:
    def test_empty_count(self):
        data = gen_synthetic(0, seed=0)
        assert len(data) == 0

    def test_deterministic_under_seed(self):
        a = gen_synthetic(10, seed=5)
        b = gen_synthetic(10, seed=5)
        assert np.array_equal(a.labels, b.labels)
        for s1, s2 in zip(a.samples, b.samples):
            assert np.array_equal(s1.times, s2.times)
            assert np.array_equal(s1.points, s2.points)

    def test_seeds_differ(self):
        a = gen_synthetic(10, seed=5)
        b = gen_synthetic(10, seed=6)
        assert any(
            s1.num_samples != s2.num_samples or not np.array_equal(s1.points, s2.points)
            for s1, s2 in zip(a.samples, b.samples)
        )

    def test_lengths_within_range(self):
        data = gen_synthetic(30, seed=1, length_range=(20, 120))
        lengths = [s.num_samples for s in data.samples]
        assert min(lengths) >= 20 and max(lengths) <= 120

    def test_orientation_signs_differ(self):
        # noiseless clockwise vs counterclockwise circles: the signed-area
        # coordinate (word 12) has opposite signs
        cw = gen_synthetic(6, seed=2, classes=("circle_cw",), noise=0.0)
        ccw = gen_synthetic(6, seed=2, classes=("circle_ccw",), noise=0.0)
        for s in cw.samples:
            assert log_signature(s, 2)[2] < 0.0
        for s in ccw.samples:
            assert log_signature(s, 2)[2] > 0.0

    def test_requires_classes(self):
        with pytest.raises(ValueError, match="class"):
            gen_synthetic(3, classes=())

    @pytest.mark.parametrize("layout,variant", [("path", "el-logsig-rnn"), ("skeleton", "gcn-logsig-rnn")])
    def test_one_sample_streams_train_and_evaluate(self, layout, variant):
        data = gen_synthetic(8, seed=2, length_range=(1, 1), layout=layout, joints=3)
        assert all(s.times.tolist() == [0.0] for s in data.samples)
        cfg = ModelConfig(variant=variant, degree=3, num_segments=2, hidden=4, embed_dim=3, gcn_dim=2)
        result = train(cfg, data.samples, data.labels, TrainSettings(epochs=2, batch_size=4))
        assert np.isfinite(result.final["loss"])
        assert 0.0 <= evaluate_model(cfg, data.samples, data.labels, result.params).accuracy <= 1.0

    @pytest.mark.parametrize("length_range", [(0, 5), (-2, -1), (5, 3)])
    def test_bad_length_range_rejected(self, length_range):
        with pytest.raises(ValueError, match="length_range"):
            gen_synthetic(3, length_range=length_range)

    @pytest.mark.parametrize(
        "kwargs,named",
        [
            ({"count": -1}, "count"), ({"layout": "skeleton", "joints": 0}, "joints"),
            ({"count": 0, "layout": "tree"}, "layout"), ({"classes": ("spiral",)}, "unknown class 'spiral'"),
        ],
        ids=["count", "joints", "layout", "class"],
    )
    def test_bad_argument_rejected_naming_it(self, kwargs, named):
        with pytest.raises(ValueError, match=named):
            gen_synthetic(**{"count": 3, **kwargs})

    def test_skeleton_layout(self):
        data = gen_synthetic(4, seed=3, layout="skeleton", joints=4)
        skel = data.samples[0]
        assert isinstance(skel, TimedPath)
        assert skel.num_joints == 4
        assert skel.adjacency is not None


class TestDrop:
    def test_zero_rate_is_identity(self):
        p = digit_polyline()
        q = perturb_drop(p, 0.0, 0)
        assert q.num_samples == p.num_samples

    def test_kept_count(self):
        p = TimedPath(np.linspace(0, 1, 10), np.random.default_rng(0).normal(size=(10, 2)))
        q = perturb_drop(p, 0.5, 0)
        assert q.num_samples == 5

    def test_endpoints_survive(self):
        rng = np.random.default_rng(1)
        p = TimedPath(np.linspace(0, 1, 30), rng.normal(size=(30, 2)))
        q = perturb_drop(p, 0.9, 7)
        assert q.times[0] == p.times[0] and q.times[-1] == p.times[-1]
        assert np.array_equal(q.points[0], p.points[0])
        assert np.array_equal(q.points[-1], p.points[-1])

    def test_degree_one_invariant_to_roundoff(self):
        # endpoints survive, so the total increment only sees resummation
        rng = np.random.default_rng(2)
        p = TimedPath(np.linspace(0, 1, 40), rng.normal(size=(40, 2)))
        q = perturb_drop(p, 0.5, 3)
        assert np.max(np.abs(log_signature(q, 1) - log_signature(p, 1))) <= 1e-13

    def test_survivor_timestamps_unchanged(self):
        p = digit_polyline()
        q = perturb_drop(p, 0.3, 11)
        assert np.isin(q.times, p.times).all()

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            perturb_drop(digit_polyline(), 1.0, 0)


class TestInsert:
    def test_zero_rate_is_identity(self):
        p = digit_polyline()
        assert perturb_insert(p, 0.0, 0).num_samples == p.num_samples

    def test_count_grows(self):
        p = digit_polyline()  # n = 53
        q = perturb_insert(p, 0.4, 5)
        assert q.num_samples == 53 + 21

    def test_log_signature_exactly_preserved(self):
        rng = np.random.default_rng(3)
        p = TimedPath(np.linspace(0, 1, 25), rng.normal(size=(25, 2)))
        for rate in (0.2, 0.5, 0.9):
            q = perturb_insert(p, rate, rng)
            assert np.max(np.abs(log_signature(q, 3) - log_signature(p, 3))) <= 1e-12

    def test_timestamps_remain_strict(self):
        p = digit_polyline()
        q = perturb_insert(p, 0.8, 9)
        assert np.all(np.diff(q.times) > 0)

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match=r"insert rate must be in \[0, 1\), got 1.0"):
            perturb_insert(digit_polyline(), 1.0, 0)

    @staticmethod
    def _insert_one_at_a_time(path, rate, rng):
        """The list-insertion loop ``perturb_insert`` vectorizes, as its reference."""
        k = min(int(np.floor(rate * path.num_samples + 1e-9)), path.num_samples - 1)
        if k < 1:
            return path
        times, points = list(path.times), list(path.points)
        for i in np.sort(rng.choice(np.arange(path.num_samples - 1), size=k, replace=False))[::-1]:
            times.insert(i + 1, times[i] + 0.5 * (times[i + 1] - times[i]))
            points.insert(i + 1, points[i])
        return TimedPath(np.array(times), np.stack(points), path.adjacency, path.num_joints)

    def test_matches_inserting_one_at_a_time(self):
        rng = np.random.default_rng(8)
        for n in range(1, 61):
            layout = (n, 2) if n % 2 else (n, 3, 2)
            p = TimedPath(np.cumsum(rng.uniform(0.01, 2.0, n)), rng.normal(size=layout))
            for rate in (0.0, 0.2, 0.4, 0.6, 0.99):
                q, ref = perturb_insert(p, rate, n), self._insert_one_at_a_time(p, rate, np.random.default_rng(n))
                assert q.times.tobytes() == ref.times.tobytes() and q.points.tobytes() == ref.points.tobytes()
                assert q.num_joints == p.num_joints

    def test_names_the_last_interval_too_narrow_to_split(self):
        # adjacent float64 pairs at 0 and 1: at rate 0.99 all three intervals are chosen, two too narrow
        p = TimedPath([0.0, 5e-324, 1.0, np.nextafter(1.0, 2.0)], np.zeros((4, 1)))
        with pytest.raises(ValueError, match=r"^the interval between samples 2 and 3 \(times 1\.0 and 1\.0000000000000002\)"):
            perturb_insert(p, 0.99, 0)


class TestUpsample:
    def test_factor_one_is_identity(self):
        p = digit_polyline()
        assert upsample_linear(p, 1) is p

    def test_two_point_path(self):
        p = TimedPath([0.0, 1.0], [[0.0], [2.0]])
        q = upsample_linear(p, 2)
        assert np.allclose(q.times, [0.0, 0.5, 1.0])
        assert np.allclose(q.points[:, 0], [0.0, 1.0, 2.0])

    def test_length_formula(self):
        p = digit_polyline()
        q = upsample_linear(p, 4)
        assert q.num_samples == 4 * (p.num_samples - 1) + 1

    def test_log_signature_invariant(self):
        p = digit_polyline()
        ref = log_signature(p, 3)
        for k in (2, 3, 8):
            assert np.max(np.abs(log_signature(upsample_linear(p, k), 3) - ref)) <= 1e-12

    def test_bad_factor(self):
        with pytest.raises(ValueError, match="factor"):
            upsample_linear(digit_polyline(), 0)


class TestMape:
    def test_identical_vectors(self):
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_arithmetic(self):
        assert mape([1.0, 2.0], [1.1, 1.8]) == pytest.approx(0.1)

    def test_reference_asymmetry(self):
        assert mape([1.0], [2.0]) != mape([2.0], [1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            mape([1.0], [1.0, 2.0])


class TestStreamFiles:
    def test_round_trip_exact(self):
        data = gen_synthetic(5, seed=4)
        buf = io.StringIO()
        save_streams(data, buf)
        buf.seek(0)
        back = load_streams(buf)
        assert back.class_names == data.class_names
        assert np.array_equal(back.labels, data.labels)
        for s1, s2 in zip(data.samples, back.samples):
            assert np.array_equal(s1.times, s2.times)
            assert np.array_equal(s1.points, s2.points)

    def test_skeleton_round_trip(self):
        data = gen_synthetic(3, seed=5, layout="skeleton", joints=3)
        buf = io.StringIO()
        save_streams(data, buf)
        buf.seek(0)
        back = load_streams(buf)
        for s1, s2 in zip(data.samples, back.samples):
            assert np.array_equal(s1.frames, s2.frames)
            assert np.array_equal(s1.adjacency, s2.adjacency)

    def test_one_joint_skeleton_without_adjacency_is_a_path_record(self):
        rng = np.random.default_rng(6)
        skel = TimedPath(np.linspace(0.0, 1.0, 5), rng.normal(size=(5, 1, 2)))
        buf = io.StringIO()
        save_streams(LabeledStreamSet([skel], np.array([0]), ("a",), 0), buf)
        assert json.loads(buf.getvalue().splitlines()[1])["kind"] == "path"
        buf.seek(0)
        back = load_streams(buf).samples[0]
        assert np.array_equal(back.times, skel.times) and np.array_equal(back.points, skel.points)

    def test_empty_file_is_empty_set(self):
        back = load_streams(io.StringIO(""))
        assert len(back) == 0

    def test_non_increasing_timestamps_rejected(self):
        record = (
            '{"kind": "path", "label": 0, "n": 2, "d": 1, '
            '"times": [1.0, 0.5], "points": [[0.0], [1.0]]}'
        )
        with pytest.raises(StreamParseError, match="line 1"):
            load_streams(io.StringIO(record + "\n"))

    def test_shape_mismatch_rejected(self):
        record = (
            '{"kind": "path", "label": 0, "n": 3, "d": 1, '
            '"times": [0.0, 1.0], "points": [[0.0], [1.0]]}'
        )
        with pytest.raises(StreamParseError, match="declared"):
            load_streams(io.StringIO(record + "\n"))

    @pytest.mark.parametrize("record", [
        '{"kind": "path", "label": 0, "n": 2, "d": 0, "times": [0.0, 1.0], "points": [[], []]}',
        '{"kind": "skeleton", "label": 0, "n": 2, "joints": 2, "coords": 0, "times": [0.0, 1.0], "frames": [[[], []], [[], []]]}',
    ], ids=["path-d-0", "skeleton-coords-0"])
    def test_points_without_coordinates_rejected_with_line(self, record):
        with pytest.raises(StreamParseError, match="^line 2: a point needs at least one coordinate"):
            load_streams(io.StringIO('{"kind": "header", "classes": ["a"]}\n' + record + "\n"))

    def test_invalid_json_rejected_with_line(self):
        with pytest.raises(StreamParseError, match="line 2"):
            load_streams(io.StringIO('{"kind": "header", "classes": []}\n{oops\n'))

    def test_file_path_round_trip(self, tmp_path):
        data = gen_synthetic(3, seed=6)
        target = tmp_path / "streams.jsonl"
        save_streams(data, str(target))
        back = load_streams(str(target))
        assert len(back) == 3

    def test_labels_validated(self):
        with pytest.raises(ValueError, match="label"):
            LabeledStreamSet([digit_polyline()], [7], ("a", "b"))

    def test_one_label_per_sample(self):
        with pytest.raises(ValueError, match="one label per sample is required"):
            LabeledStreamSet([digit_polyline()], [0, 1], ("a", "b"))


# any small JSON value, for a field that should hold something else
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _one_record_files(draw):
    """An optional header and one path or skeleton record with up to two fields malformed or missing.

    The arrays have ``n`` in 0..3 and ``joints`` and ``coords`` in 0..2, and
    each declared size is the array's or, drawn apart from it, any of -2..3.
    """
    n, joints, coords = draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    numbers = st.floats(-10.0, 10.0) | st.floats()

    def declared(size):
        return st.just(size) | st.integers(-2, 3)

    def array(*shape):
        return st.lists(array(*shape[1:]), min_size=shape[0], max_size=shape[0]) if shape else numbers

    fields = {
        "kind": st.sampled_from(["path", "skeleton"]),
        "label": st.integers(-1, 3) | st.integers() | st.floats() | st.booleans(),
        "n": declared(n),
        "d": declared(coords),
        "joints": declared(joints),
        "coords": declared(coords),
        "times": st.just(list(range(n))) | array(n),
        "points": array(n, coords),
        "frames": array(n, joints, coords),
        "adjacency": st.just(np.ones((joints, joints)) - np.eye(joints)).map(np.ndarray.tolist) | array(joints, joints),
    }
    broken = draw(st.lists(st.sampled_from(sorted(fields)), max_size=2, unique=True))
    record = {key: draw(_JSON_VALUES if key in broken else valid) for key, valid in fields.items()}
    for key in draw(st.lists(st.sampled_from(broken), unique=True)) if broken else ():
        del record[key]
    lines = [json.dumps(record)]
    header = draw(st.none() | st.fixed_dictionaries({"kind": st.just("header")}, optional={
        "classes": st.lists(st.text(max_size=2), max_size=3) | _JSON_VALUES, "seed": _JSON_VALUES,
    }))
    if header is not None:
        lines.insert(draw(st.integers(0, 1)), json.dumps(header))
    return "\n".join(lines) + "\n"


class TestStreamFileFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_one_record_files())
    # one frame has no timestamp gap to check, but its time must still be finite
    @example('{"kind": "skeleton", "label": 0, "n": 1, "joints": 1, "coords": 1, "times": [NaN], "frames": [[[0.0]]]}\n')
    # nesting past the JSON decoder's recursion limit
    @example("[" * 100000 + "\n")
    def test_loads_or_raises_stream_parse_error(self, text):
        try:
            data = load_streams(io.StringIO(text))
        except StreamParseError:
            return
        assert len(data) <= 1
        assert all(0 <= label < len(data.class_names) for label in data.labels)
        # every loaded sample passed TimedPath's grid rule
        for sample in data.samples:
            assert sample.times.size >= 1 and np.all(np.isfinite(sample.times))
            assert np.all(np.diff(sample.times) > 0)
            assert sample.num_joints >= 1 and sample.num_coords >= 1


class TestDigitPolyline:
    def test_shape_and_determinism(self):
        p = digit_polyline()
        assert p.num_samples == 53 and p.width == 2
        q = digit_polyline()
        assert np.array_equal(p.points, q.points)
