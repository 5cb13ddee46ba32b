"""Path transformation layers, recurrent cells, and model variants."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from logsigrnn import (
    ModelConfig,
    SegmentPartition,
    SkeletonSequence,
    StreamClassifier,
    TimedPath,
    TrainSettings,
    accumulative_layer,
    add_start_points,
    embedding_forward,
    evaluate_model,
    gcn_forward,
    logsig_sequence,
    rnn_forward,
    time_incorporated_layer,
    train,
    upsample_linear,
)
from logsigrnn import neural
from logsigrnn.logsig_layer import _boundaries_in_path_time
from logsigrnn.neural import (
    cross_entropy,
    input_spec,
    normalized_adjacency,
    softmax,
    _rnn_param_shapes,
)


def random_path(rng, n, d):
    times = np.sort(rng.uniform(0.0, 1.0, n))
    times[0], times[-1] = 0.0, 1.0
    return TimedPath(times, rng.normal(0.0, 1.0, (n, d)))


def chain_adjacency(F):
    a = np.zeros((F, F))
    for j in range(F - 1):
        a[j, j + 1] = a[j + 1, j] = 1.0
    return a


def random_skeleton(rng, n, F, D):
    times = np.sort(rng.uniform(0.0, 1.0, n))
    times[0], times[-1] = 0.0, 1.0
    return SkeletonSequence(times, rng.normal(0.0, 1.0, (n, F, D)), chain_adjacency(F))


class TestEmbedding:
    def test_identity_extension_flattens(self):
        n, F, D = 4, 2, 3
        frames = np.arange(n * F * D, dtype=float).reshape(n, F, D)
        point_w = np.eye(D)
        mix_w = np.eye(F * D)
        out = embedding_forward(frames, point_w, np.zeros(D), mix_w, np.zeros(F * D))
        assert np.array_equal(out, frames.reshape(n, F * D))

    def test_zero_weights_give_zero(self):
        frames = np.ones((3, 2, 2))
        out = embedding_forward(frames, np.zeros((2, 4)), np.zeros(4), np.zeros((8, 5)), np.zeros(5))
        assert np.allclose(out, 0.0)

    def test_frame_locality(self):
        rng = np.random.default_rng(0)
        frames = rng.normal(0.0, 1.0, (6, 3, 2))
        pw, pb = rng.normal(size=(2, 4)), rng.normal(size=4)
        mw, mb = rng.normal(size=(12, 5)), rng.normal(size=5)
        base = embedding_forward(frames, pw, pb, mw, mb)
        perturbed = frames.copy()
        perturbed[2] += 1.0
        out = embedding_forward(perturbed, pw, pb, mw, mb)
        changed = np.any(np.abs(out - base) > 1e-15, axis=1)
        assert changed[2] and not changed[[0, 1, 3, 4, 5]].any()


class TestAccumulative:
    def test_partial_sums(self):
        out = accumulative_layer(np.array([[1.0], [2.0], [3.0]]))
        assert np.array_equal(out[:, 0], [1.0, 3.0, 6.0])

    def test_zero_input(self):
        assert np.allclose(accumulative_layer(np.zeros((4, 2))), 0.0)

    def test_first_difference_inverts(self):
        rng = np.random.default_rng(1)
        seq = rng.normal(0.0, 1.0, (8, 3))
        out = accumulative_layer(seq)
        assert np.allclose(np.diff(out, axis=0), seq[1:], atol=1e-12)


class TestTimeChannel:
    def test_two_rows(self):
        out = time_incorporated_layer(np.array([[5.0], [7.0]]), np.array([0.0, 1.0]))
        assert np.array_equal(out, [[0.0, 5.0], [1.0, 7.0]])

    def test_channel_monotone_in_unit_interval(self):
        rng = np.random.default_rng(2)
        times = np.sort(rng.uniform(0.0, 9.0, 10))
        out = time_incorporated_layer(rng.normal(size=(10, 2)), times)
        channel = out[:, 0]
        assert channel[0] == 0.0 and channel[-1] == 1.0
        assert np.all(np.diff(channel) >= 0.0)

    def test_single_row_gets_zero_channel(self):
        out = time_incorporated_layer(np.array([[4.0]]), np.array([3.0]))
        assert np.array_equal(out, [[0.0, 4.0]])

    def test_time_increment_of_logsig_is_one(self):
        rng = np.random.default_rng(3)
        p = random_path(rng, 9, 2)
        seq = time_incorporated_layer(p.points, p.times)
        rows = logsig_sequence(
            TimedPath(p.times, seq), SegmentPartition.uniform(0.0, 1.0, 1), 2
        )
        assert rows[0, 0] == pytest.approx(1.0)


class TestStartPoints:
    def test_constant_path_rows_identical(self):
        p = TimedPath(np.linspace(0, 1, 5), np.ones((5, 2)))
        rows = np.zeros((3, 4))
        out = add_start_points(rows, p, SegmentPartition.uniform(0.0, 1.0, 3).boundaries)
        assert out.shape == (3, 6)
        assert np.allclose(out[:, 4:], 1.0)

    def test_single_segment_start_is_path_start(self):
        rng = np.random.default_rng(4)
        p = random_path(rng, 6, 3)
        out = add_start_points(np.zeros((1, 2)), p, np.array([0.0, 1.0]))
        assert np.allclose(out[0, 2:], p.points[0])

    def test_architecture_shape_including_start_block(self):
        # 31-channel transformed path at degree 2: 496 coordinates, plus the
        # 31 start values per row gives 527 columns
        from logsigrnn import logsig_dim

        width = 31
        assert logsig_dim(width, 2) == 496
        rng = np.random.default_rng(5)
        p = random_path(rng, 6, width)
        rows = logsig_sequence(p, SegmentPartition.uniform(0.0, 1.0, 4), 2)
        out = add_start_points(rows, p, SegmentPartition.uniform(0.0, 1.0, 4).boundaries)
        assert out.shape == (4, 527)


class TestGcn:
    def test_single_joint_reduces_to_linear_map(self):
        rng = np.random.default_rng(6)
        frames = rng.normal(size=(5, 1, 3))
        theta = rng.normal(size=(3, 2))
        out = gcn_forward(frames, np.zeros((1, 1)), theta)
        assert np.allclose(out, frames @ theta, atol=1e-14)

    def test_fully_connected_pair_averages(self):
        rng = np.random.default_rng(7)
        frames = rng.normal(size=(4, 2, 3))
        adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = gcn_forward(frames, adjacency, np.eye(3))
        mean = frames.mean(axis=1, keepdims=True)
        assert np.allclose(out, np.repeat(mean, 2, axis=1), atol=1e-14)

    def test_zero_theta(self):
        frames = np.ones((3, 2, 2))
        out = gcn_forward(frames, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)))
        assert np.allclose(out, 0.0)

    def test_normalization_row_sums(self):
        a = chain_adjacency(4)
        ahat = normalized_adjacency(a)
        assert np.allclose(ahat, ahat.T)
        assert np.all(np.linalg.eigvalsh(ahat) <= 1.0 + 1e-12)


class TestRnn:
    def test_zero_weights_give_zero_outputs(self):
        params = {k: np.zeros(v) for k, v in _rnn_param_shapes(3, 4, "vanilla").items()}
        out, h = rnn_forward(np.ones((5, 3)), params, "vanilla")
        assert np.allclose(out, 0.0) and np.allclose(h, 0.0)

    def test_single_step_identity_maps(self):
        params = {
            "u": np.eye(2),
            "w": np.full((2, 2), 0.7),  # h_0 = 0 so w never fires on step one
            "b": np.zeros(2),
            "v": np.eye(2),
            "vb": np.zeros(2),
        }
        x = np.array([[0.3, -1.2]])
        out, h = rnn_forward(x, params, "vanilla")
        assert np.allclose(out[0], np.tanh(x[0]), atol=1e-15)
        assert np.allclose(h, np.tanh(x[0]), atol=1e-15)

    def test_vanilla_step_against_hand_arithmetic(self):
        u = np.array([[0.5, -0.25], [1.0, 0.75]])
        w = np.array([[0.1, 0.2], [-0.3, 0.4]])
        b = np.array([0.05, -0.05])
        v = np.array([[2.0, 0.0], [0.0, -1.0]])
        vb = np.array([0.5, 0.5])
        params = {"u": u, "w": w, "b": b, "v": v, "vb": vb}
        x = np.array([[1.0, 2.0], [0.5, -0.5]])
        h1 = np.tanh(x[0] @ u + b)
        h2 = np.tanh(x[1] @ u + h1 @ w + b)
        out, h_final = rnn_forward(x, params, "vanilla")
        assert np.allclose(out[0], h1 @ v + vb, atol=1e-12)
        assert np.allclose(out[1], h2 @ v + vb, atol=1e-12)
        assert np.allclose(h_final, h2, atol=1e-12)

    def test_lstm_shapes_and_determinism(self):
        rng = np.random.default_rng(8)
        params = {
            k: rng.normal(size=v) * 0.3 for k, v in _rnn_param_shapes(3, 5, "lstm").items()
        }
        x = rng.normal(size=(7, 3))
        out1, h1 = rnn_forward(x, params, "lstm")
        out2, h2 = rnn_forward(x, params, "lstm")
        assert out1.shape == (7, 5)
        assert np.array_equal(out1, out2) and np.array_equal(h1, h2)


class TestSoftmaxLoss:
    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(9)
        probs = softmax(rng.normal(size=(6, 4)) * 10)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_cross_entropy_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(5, 3))
        _, grad = cross_entropy(logits, np.array([0, 1, 2, 0, 1]))
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-14)


class TestModels:
    def test_logits_shape_and_softmax(self):
        rng = np.random.default_rng(11)
        cfg = ModelConfig(num_classes=4, hidden=8, embed_channels=3, embed_dim=4)
        p = random_path(rng, 15, 2)
        logits = StreamClassifier.build(cfg, (1, 2), 0).logits(p)
        assert logits.shape == (4,)
        assert softmax(logits).sum() == pytest.approx(1.0, abs=1e-12)

    def test_recurrent_unroll_length_fixed_for_any_input_length(self):
        cfg = ModelConfig(num_classes=3, num_segments=5, hidden=6, embed_channels=2, embed_dim=3)
        model = StreamClassifier.build(cfg, (1, 2), 0)
        rng = np.random.default_rng(12)
        for n in (8, 64, 256):
            p = random_path(rng, n, 2)
            _, cache = model.forward_batch([p])
            assert cache["rnn"][0].shape == (1, 5, model.rnn_in)

    def test_matches_rnn_on_increments_when_degree_one(self):
        # uniform timestamps, one segment per gap, all transforms off: the
        # layer emits exactly the increment sequence
        rng = np.random.default_rng(13)
        n = 9
        p = TimedPath(np.linspace(0.0, 1.0, n), rng.normal(0.0, 1.0, (n, 2)))
        cfg = ModelConfig(
            degree=1, num_segments=n - 1, hidden=5, cell="vanilla", num_classes=3,
            use_embedding=False, use_accumulative=False, use_time=False,
            use_start_points=False,
        )
        model = StreamClassifier.build(cfg, (1, 2), 3)
        logits = model.logits(p)
        increments = np.diff(p.points, axis=0)
        out, _ = rnn_forward(
            increments,
            {k: model.params[f"rnn.{k}"] for k in ("u", "w", "b", "v", "vb")},
            "vanilla",
        )
        expected = out[-1] @ model.params["head.w"] + model.params["head.b"]
        assert np.allclose(logits, expected, atol=1e-12)

    def test_upsampling_leaves_logits_unchanged_without_accumulation(self):
        rng = np.random.default_rng(14)
        cfg = ModelConfig(
            num_classes=4, hidden=8, embed_channels=3, embed_dim=4,
            use_accumulative=False,
        )
        model = StreamClassifier.build(cfg, (1, 2), 1)
        p = random_path(rng, 20, 2)
        base = model.logits(p)
        for k in (2, 4, 8):
            up = model.logits(upsample_linear(p, k))
            assert np.max(np.abs(up - base)) <= 1e-9

    def test_accumulation_is_sampling_rate_sensitive(self):
        # partial sums double-count refined samples, so the accumulative
        # route is intentionally not refinement invariant
        rng = np.random.default_rng(15)
        cfg = ModelConfig(num_classes=4, hidden=8, embed_channels=3, embed_dim=4,
                          use_accumulative=True)
        model = StreamClassifier.build(cfg, (1, 2), 1)
        p = random_path(rng, 20, 2)
        assert np.max(np.abs(model.logits(upsample_linear(p, 4)) - model.logits(p))) > 1e-3

    def test_affine_time_rescaling_leaves_logits_unchanged(self):
        rng = np.random.default_rng(16)
        cfg = ModelConfig(num_classes=4, hidden=8, embed_channels=3, embed_dim=4)
        model = StreamClassifier.build(cfg, (1, 2), 2)
        p = random_path(rng, 12, 2)
        q = TimedPath(2.0 * p.times + 5.0, p.points)
        assert np.max(np.abs(model.logits(q) - model.logits(p))) <= 1e-12

    def test_gcn_single_joint_reduces_to_plain_pipeline(self):
        rng = np.random.default_rng(17)
        cfg = ModelConfig(
            variant="gcn-logsig-rnn", gcn_dim=3, num_classes=3, hidden=6,
            use_accumulative=False, use_time=False, use_start_points=False,
        )
        model = StreamClassifier.build(cfg, (1, 2), 4)
        skel = SkeletonSequence(
            np.linspace(0, 1, 10), rng.normal(size=(10, 1, 2)), np.zeros((1, 1))
        )
        logits = model.logits(skel)
        plain_cfg = ModelConfig(
            variant="el-logsig-rnn", num_classes=3, hidden=6, use_embedding=False,
            use_accumulative=False, use_time=False, use_start_points=False,
        )
        mixed = skel.frames[:, 0, :] @ model.params["gcn.theta"]
        plain_params = {k: v for k, v in model.params.items() if not k.startswith("gcn")}
        plain = StreamClassifier(plain_cfg, (1, 3), plain_params).logits(TimedPath(skel.times, mixed))
        assert np.allclose(logits, plain, atol=1e-12)

    def test_gcn_joint_permutation_equivariance(self):
        rng = np.random.default_rng(18)
        cfg = ModelConfig(variant="gcn-logsig-rnn", gcn_dim=3, num_classes=3, hidden=6)
        skel = random_skeleton(rng, 9, 4, 3)
        model = StreamClassifier.build(cfg, (4, 3), 5)
        base = model.logits(skel)
        perm = np.array([2, 0, 3, 1])
        permuted = SkeletonSequence(
            skel.times, skel.frames[:, perm, :], skel.adjacency[np.ix_(perm, perm)]
        )
        assert np.max(np.abs(model.logits(permuted) - base)) <= 1e-12

    def test_stacked_variant_shapes(self):
        rng = np.random.default_rng(19)
        cfg = ModelConfig(
            variant="gcn-logsig-rnn-2", gcn_dim=3, num_segments=4, num_segments2=2,
            num_classes=3, hidden=5,
        )
        skel = random_skeleton(rng, 12, 3, 2)
        model = StreamClassifier.build(cfg, (3, 2), 6)
        _, cache = model.forward_batch([skel])
        assert cache["rnn"][0].shape == (3, 4, model.rnn_in)
        assert cache["rnn2"][0].shape == (3, 2, model.rnn_in2)
        assert model.logits(skel).shape == (3,)

    @pytest.mark.parametrize(
        "variant", ["el-logsig-rnn", "gcn-logsig-rnn", "gcn-logsig-rnn-2", "frame-rnn"]
    )
    def test_batched_rows_match_single_streams(self, variant):
        # streams of different lengths share one recurrent unroll per block
        rng = np.random.default_rng(28)
        cfg = ModelConfig(
            variant=variant, degree=3, gcn_dim=3, num_segments=3, num_segments2=2,
            embed_channels=2, embed_dim=3, num_classes=3, hidden=5,
        )
        samples = [random_skeleton(rng, n, 3, 2) for n in (7, 15, 30)]
        model = StreamClassifier.build(cfg, (3, 2), 8)
        batched, _ = model.forward_batch(samples)
        for i, s in enumerate(samples):
            assert np.max(np.abs(batched[i] - model.logits(s))) <= 1e-12

    def test_frame_rnn_fixed_grid_resampling(self):
        # resampling the interpolant onto a fixed grid makes the frame model
        # read identical inputs from any collinear refinement of a stream
        rng = np.random.default_rng(26)
        cfg = ModelConfig(variant="frame-rnn", hidden=6, cell="lstm", num_classes=3,
                          resample_frames=16)
        model = StreamClassifier.build(cfg, (1, 2), 7)
        p = random_path(rng, 11, 2)
        base = model.logits(p)
        assert np.max(np.abs(model.logits(upsample_linear(p, 3)) - base)) <= 1e-12
        _, cache = model.forward_batch([p])
        assert cache["rnn"][0].shape == (1, 16, 2)

    def test_input_shape_checked_against_the_model(self):
        cfg = ModelConfig(num_classes=3, hidden=4, embed_channels=2, embed_dim=3)
        model = StreamClassifier.build(cfg, (1, 2), 0)
        skel = SkeletonSequence(np.linspace(0, 1, 5), np.zeros((5, 2, 1)))
        with pytest.raises(ValueError, match=r"\(2, 1\).*\(1, 2\)"):
            model.logits(skel)

    def test_gcn_requires_adjacency(self):
        cfg = ModelConfig(variant="gcn-logsig-rnn", num_classes=3)
        model = StreamClassifier.build(cfg, (2, 2), 0)
        skel = SkeletonSequence(np.linspace(0, 1, 5), np.zeros((5, 2, 2)), None)
        with pytest.raises(ValueError, match="adjacency"):
            model.logits(skel)


class TestTraining:
    def _tiny_set(self, rng, count=12):
        samples = [random_path(rng, int(rng.integers(6, 12)), 2) for _ in range(count)]
        labels = rng.integers(0, 2, size=count)
        return samples, labels

    def test_zero_learning_rate_leaves_params(self):
        rng = np.random.default_rng(20)
        samples, labels = self._tiny_set(rng)
        cfg = ModelConfig(num_classes=2, hidden=4, embed_channels=2, embed_dim=3)
        before = StreamClassifier.build(cfg, (1, 2), 0).params
        result = train(cfg, samples, labels, TrainSettings(learning_rate=0.0, epochs=2, seed=0))
        for name, p in result.params.items():
            assert np.array_equal(p, before[name])

    def test_single_sample_overfit(self):
        rng = np.random.default_rng(21)
        p = random_path(rng, 10, 2)
        cfg = ModelConfig(num_classes=2, hidden=8, embed_channels=3, embed_dim=4)
        result = train(
            cfg, [p], [1],
            TrainSettings(learning_rate=0.05, batch_size=1, epochs=500, seed=0),
        )
        assert result.final["loss"] <= 1e-3

    def test_non_finite_loss_aborts_with_diagnostic(self):
        rng = np.random.default_rng(27)
        samples, labels = self._tiny_set(rng, 4)
        cfg = ModelConfig(num_classes=2, hidden=4, embed_channels=2, embed_dim=3, cell="vanilla")
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="non-finite loss"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                train(cfg, samples, labels, TrainSettings(learning_rate=1e80, epochs=10, seed=0))

    def test_labels_out_of_range_rejected(self):
        rng = np.random.default_rng(22)
        samples, _ = self._tiny_set(rng, 4)
        cfg = ModelConfig(num_classes=2)
        with pytest.raises(ValueError, match="labels"):
            train(cfg, samples, [0, 1, 2, 0], TrainSettings(epochs=1))

    def test_deterministic_trace_under_seed(self):
        rng = np.random.default_rng(23)
        samples, labels = self._tiny_set(rng)
        cfg = ModelConfig(num_classes=2, hidden=4, embed_channels=2, embed_dim=3)
        settings = TrainSettings(epochs=3, seed=9)
        r1 = train(cfg, samples, labels, settings)
        r2 = train(cfg, samples, labels, settings)
        for a, b in zip(r1.trace, r2.trace):
            assert a["loss"] == b["loss"] and a["accuracy"] == b["accuracy"]

    def test_confusion_matrix_diagonal_counts(self):
        rng = np.random.default_rng(24)
        samples, labels = self._tiny_set(rng, 8)
        cfg = ModelConfig(num_classes=2, hidden=4, embed_channels=2, embed_dim=3)
        result = train(cfg, samples, labels, TrainSettings(epochs=1, seed=0))
        ev = evaluate_model(cfg, samples, labels, params=result.params)
        assert ev.confusion.sum() == len(samples)
        assert np.trace(ev.confusion) == round(ev.accuracy * len(samples))

    def test_mixed_input_shapes_rejected(self):
        rng = np.random.default_rng(25)
        mixed = [random_path(rng, 6, 2), random_path(rng, 6, 3)]
        with pytest.raises(ValueError, match="mixed"):
            input_spec(mixed)


def _el_model(rng, spec, **changes):
    """An el-logsig-rnn with random nonzero embedding biases."""
    fields = dict(degree=3, num_segments=3, embed_channels=3, embed_dim=4, hidden=3, num_classes=3)
    fields.update(changes)
    model = StreamClassifier.build(ModelConfig(**fields), spec, rng)
    if model.config.use_embedding:
        model.params["embed.point_b"] = rng.normal(size=model.params["embed.point_b"].shape)
        model.params["embed.mix_b"] = rng.normal(size=model.params["embed.mix_b"].shape)
    return model


def _embedded_path_inputs(model, sample):
    """Recurrent inputs of one sample through its embedded path, layer call by layer call."""
    cfg, p = model.config, model.params
    frames = sample.points[:, None, :] if isinstance(sample, TimedPath) else sample.frames
    seq = embedding_forward(frames, p["embed.point_w"], p["embed.point_b"], p["embed.mix_w"], p["embed.mix_b"])
    if cfg.use_accumulative:
        seq = accumulative_layer(seq)
    if cfg.use_time:
        seq = time_incorporated_layer(seq, sample.times)
    path = TimedPath(sample.times, seq)
    partition = SegmentPartition.spanning(path, cfg.num_segments)
    rows = logsig_sequence(path, partition, cfg.degree, model.blocks[0][1])
    starts = add_start_points(rows, path, partition.boundaries)[:, rows.shape[1] :]
    return rows, starts if cfg.use_start_points else starts[:, :0]


def _exact_el_inputs(model, sample):
    """Degree-3 recurrent inputs of one sample in exact rational arithmetic.

    The float64 inputs, parameters, time channel and segment boundaries are
    taken as exact rationals; everything after them (the embedding, running
    sums, boundary interpolation, Chen products, log and Lyndon projection)
    is computed exactly.  Points are scaled by one common denominator ``q``
    so that Chen's identity runs on integers: with ``A_k = k! q^k S_k``,
    ``A_2 += 2 A_1 (x) D + D (x) D`` and ``A_3 += 3 A_2 (x) D + 3 A_1 (x) D
    (x) D + D (x) D (x) D`` for each integer increment ``D``.
    """
    cfg, p = model.config, model.params
    assert cfg.degree == 3 and cfg.use_accumulative and cfg.use_time
    exact = np.vectorize(Fraction, otypes=[object])
    frames = exact(sample.points[:, None, :] if isinstance(sample, TimedPath) else sample.frames)
    n = frames.shape[0]
    hidden = (frames @ exact(p["embed.point_w"]) + exact(p["embed.point_b"])).reshape(n, -1)
    seq = np.cumsum(hidden @ exact(p["embed.mix_w"]) + exact(p["embed.mix_b"]), axis=0)
    channel = time_incorporated_layer(np.zeros((n, 0)), sample.times)
    points = np.concatenate([exact(channel), seq], axis=1)
    times = exact(sample.times)
    path = TimedPath(sample.times, channel)
    v = exact(_boundaries_in_path_time(path, SegmentPartition.spanning(path, cfg.num_segments)))

    def at(s):
        i = int(np.searchsorted(times, s, side="left"))
        if times[i] == s:
            return points[i]
        w = (s - times[i - 1]) / (times[i] - times[i - 1])
        return (1 - w) * points[i - 1] + w * points[i]

    basis, rows = model.blocks[0][1], []
    for a, b in zip(v[:-1], v[1:]):
        inside = (times > a) & (times < b)
        seg = np.concatenate([at(a)[None], points[inside], at(b)[None]])
        q = math.lcm(*(x.denominator for x in seg.ravel()))
        d = np.diff(np.vectorize(lambda x: x.numerator * (q // x.denominator), otypes=[object])(seg), axis=0)
        a1 = np.concatenate([d[:1] * 0, np.cumsum(d, axis=0)[:-1]])  # before each increment
        t2 = 2 * a1[:, :, None] * d[:, None, :] + d[:, :, None] * d[:, None, :]
        a2 = np.concatenate([t2[:1] * 0, np.cumsum(t2, axis=0)[:-1]])
        dd = d[:, :, None] * d[:, None, :]
        t3 = 3 * a2[:, :, :, None] * d[:, None, None, :] + 3 * a1[:, :, None, None] * dd[:, None] + dd[..., None] * d[:, None, None, :]
        s1 = d.sum(axis=0) * Fraction(1, q)
        s2 = t2.sum(axis=0) * Fraction(1, 2 * q**2)
        s3 = t3.sum(axis=0) * Fraction(1, 6 * q**3)
        sq = np.multiply.outer(s1, s1)
        logs = (s1, s2 - sq / 2, s3 - (np.multiply.outer(s1, s2) + np.multiply.outer(s2, s1)) / 2 + np.multiply.outer(sq, s1) / 3)
        row = []
        for level, log in enumerate(logs, start=1):
            idx, inverse = basis.level_inverse(level)
            row.extend(inverse.astype(np.int64).astype(object) @ log.reshape(-1)[idx])
        rows.append(row + list(at(a)))
    return np.array(rows, dtype=np.float64)


def _assert_rows_close(got, ref, tol=1e-12):
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= tol * scale), np.max(np.abs(got - ref))


def _layer_calls(monkeypatch, model, samples):
    """Widths of the layer's forward calls and the number of its backward calls in one step."""
    calls = {"widths": [], "backward": 0}
    forward, backward = neural.logsig_sequence_forward, neural.backward_from_state

    def counted_forward(path, *args):
        calls["widths"].append(path.width)
        return forward(path, *args)

    def counted_backward(*args):
        calls["backward"] += 1
        return backward(*args)

    monkeypatch.setattr(neural, "logsig_sequence_forward", counted_forward)
    monkeypatch.setattr(neural, "backward_from_state", counted_backward)
    logits, cache = model.forward_batch(samples)
    _, g_logits = cross_entropy(logits, np.arange(len(samples)) % 3)
    model.backward_batch(cache, g_logits)
    return calls


class TestElRoutes:
    """el-logsig-rnn's mapped route (raw-path rows carried through the embedding's
    matrix) against its per-path route (the layer on every embedded path)."""

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("flags", [(True, True, True), (False, False, False), (False, True, True)])
    def test_mapped_rows_match_the_embedded_path(self, degree, flags):
        al, tl, sp = flags
        rng = np.random.default_rng(40 + degree)
        model = _el_model(rng, (1, 2), degree=degree, use_accumulative=al, use_time=tl,
                          use_start_points=sp)
        samples = [random_path(rng, n, 2) for n in (5, 17, 40)]
        _, cache = model.forward_batch(samples)
        dim = model.blocks[0][1].dim
        for i, sample in enumerate(samples):
            rows, starts = _embedded_path_inputs(model, sample)
            _, single = model.forward_batch([sample])
            for got in (cache["rnn"][0][i], single["rnn"][0][0]):
                _assert_rows_close(got[:, :dim], rows)
                if sp:
                    _assert_rows_close(got[:, dim:], starts)
                else:
                    assert got.shape[1] == dim

    @pytest.mark.parametrize("seed", [0, 8])
    def test_long_offset_walk_rows_match_exact_arithmetic(self, seed):
        # the raw path's count channel and running sums reach 2000 and 2e6 here;
        # level-3 rows are what is left after cancelling terms of order 1e18, so
        # float64 rows of either route are off the exact ones by far more than
        # 1e-12.  Over seeds 0-20 the worst were 8.5e-10 (mapped), 5.1e-9 (the
        # model's per-path route) and 5.7e-9 (the embedded path of
        # _embedded_path_inputs), all at seed 8.
        rng = np.random.default_rng(seed)
        model = _el_model(rng, (1, 2))
        times = np.sort(rng.uniform(0.0, 1.0, 2000))
        times[0], times[-1] = 0.0, 1.0
        sample = TimedPath(times, 1e3 + np.cumsum(rng.normal(size=(2000, 2)), axis=0))
        exact = _exact_el_inputs(model, sample)
        _, cache = model.forward_batch([sample])
        _assert_rows_close(cache["rnn"][0][0], exact, tol=1e-9)
        _assert_rows_close(np.concatenate(_embedded_path_inputs(model, sample), axis=1), exact, tol=1e-8)
        model.raw_basis = None  # the per-path route
        _, cache = model.forward_batch([sample])
        _assert_rows_close(cache["rnn"][0][0], exact, tol=1e-8)

    def test_mapped_route_runs_no_per_path_backward(self, monkeypatch):
        rng = np.random.default_rng(50)
        samples = [random_path(rng, n, 2) for n in (8, 20, 33)]
        # raw path [time, 1, x, y]; without the embedding [time, x, y]
        for use_embedding, width in ((True, 4), (False, 3)):
            model = _el_model(rng, (1, 2), use_embedding=use_embedding)
            calls = _layer_calls(monkeypatch, model, samples)
            assert calls == {"widths": [width] * 3, "backward": 0}

    @pytest.mark.parametrize(
        "spec,embed_dim,degree,mapped",
        [
            ((1, 2), 8, 4, True),  # raw width 4 (with time): 4**4 = 256 entries
            ((1, 2), 2, 3, True),  # raw path wider than the embedded one, 4**3 = 64
            ((5, 2), 4, 2, True),  # 12**2 = 144
            ((2, 3), 4, 3, True),  # raw width 2 * 3 + 1 + 1 = 8: 8**3 = 512, the limit
            ((1, 7), 8, 3, False),  # 9**3 = 729
            ((5, 2), 16, 3, False),  # 12**3 = 1728, however wide the embedding
        ],
    )
    def test_route_follows_the_raw_tensor_size(self, spec, embed_dim, degree, mapped):
        model = _el_model(np.random.default_rng(54), spec, embed_dim=embed_dim, degree=degree)
        assert (model.raw_basis is not None) == mapped

    def test_wide_inputs_take_the_per_path_route(self, monkeypatch):
        # raw width 5 * 2 + 1 + 1 = 12 at degree 3: 1728 entries, past the limit
        rng = np.random.default_rng(51)
        samples = [random_skeleton(rng, n, 5, 2) for n in (8, 20, 33)]
        model = _el_model(rng, (5, 2))
        calls = _layer_calls(monkeypatch, model, samples)
        assert calls == {"widths": [5] * 3, "backward": 3}
        _, cache = model.forward_batch(samples)
        for i, sample in enumerate(samples):
            rows, starts = _embedded_path_inputs(model, sample)
            _assert_rows_close(cache["rnn"][0][i], np.concatenate([rows, starts], axis=1))

    @pytest.mark.parametrize("cell", ["vanilla", "lstm"])
    @pytest.mark.parametrize("layout", ["mapped", "per-path"])
    def test_gradients_match_finite_differences(self, cell, layout):
        rng = np.random.default_rng(52)
        if layout == "mapped":
            samples, spec = [random_path(rng, n, 2) for n in (7, 12)], (1, 2)
        else:
            samples, spec = [random_skeleton(rng, n, 5, 2) for n in (7, 12)], (5, 2)
        model = _el_model(rng, spec, cell=cell, hidden=2, num_segments=2)
        assert (model.raw_basis is not None) == (layout == "mapped")
        labels = np.array([0, 2])
        logits, cache = model.forward_batch(samples)
        _, g_logits = cross_entropy(logits, labels)
        grads = model.backward_batch(cache, g_logits)
        # central differences of the loss carry about 1e-10 absolute noise, so
        # errors are taken relative to at least 1e-5 (as in acceptance
        # criterion 3); the embedding's gradients, which the two routes
        # compute differently, are held to a tenth of that
        h = 1e-6
        worst = {"embed": 0.0, "other": 0.0}
        for name, p in model.params.items():
            for ix in np.ndindex(p.shape):
                orig = p[ix]
                p[ix] = orig + h
                up, _ = cross_entropy(model.forward_batch(samples)[0], labels)
                p[ix] = orig - h
                down, _ = cross_entropy(model.forward_batch(samples)[0], labels)
                p[ix] = orig
                fd = (up - down) / (2 * h)
                err = abs(grads[name][ix] - fd) / max(abs(grads[name][ix]), abs(fd), 1e-5)
                key = "embed" if name.startswith("embed.") else "other"
                worst[key] = max(worst[key], err)
        assert worst["embed"] <= 1e-5 and worst["other"] <= 1e-4, worst

    def test_single_sample_stream_through_the_mapped_route(self):
        rng = np.random.default_rng(53)
        model = _el_model(rng, (1, 2))
        one = TimedPath(np.array([0.5]), np.array([[1.0, -2.0]]))
        logits, cache = model.forward_batch([one])
        assert np.all(np.isfinite(logits))
        rows, starts = _embedded_path_inputs(model, one)
        dim = model.blocks[0][1].dim
        assert np.array_equal(cache["rnn"][0][0][:, :dim], rows)
        _assert_rows_close(cache["rnn"][0][0][:, dim:], starts)


def _paper_order_inputs(cfg, basis, segments, times, frames, adjacency, theta):
    """Recurrent inputs ``(J, segments, c)`` of one gcn block in the paper's order.

    Graph convolution of every frame, then each joint's accumulative and
    time layers, the layer and its start points, one call per joint.
    """
    mixed = gcn_forward(frames, adjacency, theta)
    inputs = []
    for j in range(mixed.shape[1]):
        seq = accumulative_layer(mixed[:, j]) if cfg.use_accumulative else mixed[:, j]
        if cfg.use_time:
            seq = time_incorporated_layer(seq, times)
        path = TimedPath(times, seq)
        partition = SegmentPartition.spanning(path, segments)
        rows = logsig_sequence(path, partition, cfg.degree, basis)
        inputs.append(add_start_points(rows, path, partition.boundaries) if cfg.use_start_points else rows)
    return np.stack(inputs)


# (variant, route) of the gcn route tests; the mapped route is the default at
# their shapes, so its cases carry the bare variant as id
GCN_ROUTES = [
    pytest.param(variant, route, id=variant if route == "mapped" else f"{variant}-{route}")
    for variant in ("gcn-logsig-rnn", "gcn-logsig-rnn-2")
    for route in ("mapped", "per-path")
]


class TestGcnRoute:
    """gcn block 0's joint paths on the mapped route (each joint's graph-mixed raw
    path's rows carried through ``time (+) theta``) and on the per-path route
    (the raw path ``[time, running frame sums]`` times one joint's matrix)."""

    ADJACENCIES = (
        chain_adjacency(3),
        np.ones((3, 3)) - np.eye(3),
        np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 2.0], [0.0, 2.0, 0.0]]),
    )

    def _samples(self, rng, joints=3):
        # a different graph per sample, and a single-frame stream
        if joints == 3:
            adjacencies = self.ADJACENCIES
        else:
            chain = chain_adjacency(joints)
            adjacencies = (chain, np.ones((joints, joints)) - np.eye(joints), chain * np.arange(1.0, joints + 1))
            adjacencies = (*adjacencies[:2], (adjacencies[2] + adjacencies[2].T) / 2)
        return [
            SkeletonSequence(np.sort(rng.uniform(0.0, 1.0, n)), rng.normal(size=(n, joints, 2)), adjacency)
            for n, adjacency in zip((6, 17, 1), adjacencies)
        ]

    @staticmethod
    def _model(cfg, rng, route, joints=3):
        model = StreamClassifier.build(cfg, (joints, 2), rng)
        if route == "per-path":
            model.raw_basis = None
        assert (model.raw_basis is not None) == (route == "mapped")
        return model

    @pytest.mark.parametrize("variant,route", GCN_ROUTES)
    @pytest.mark.parametrize(
        "flags",
        [
            (True, True, True), (False, False, False), (False, True, True),
            # (..., joints, degree) with 2 coords: the mapped route's joint
            # groups are 3 + 2 joints, 4 + 1 without the time channel, all 5
            # joints at degree 2 and single joints at degree 4
            pytest.param((True, True, True, 5, 3), id="5-joints-d3"),
            pytest.param((True, False, True, 5, 3), id="5-joints-d3-no-time"),
            pytest.param((False, True, True, 5, 2), id="5-joints-d2"),
            pytest.param((True, True, False, 5, 4), id="5-joints-d4"),
        ],
    )
    def test_rows_match_the_paper_order(self, variant, route, flags):
        al, tl, sp, J, degree = flags if len(flags) == 5 else (*flags, 3, 3)
        rng = np.random.default_rng(80)
        cfg = ModelConfig(
            variant=variant, degree=degree, num_segments=3, num_segments2=2, gcn_dim=3, hidden=4,
            cell="lstm", num_classes=3, use_accumulative=al, use_time=tl, use_start_points=sp,
        )
        model = self._model(cfg, rng, route, J)
        p = model.params
        samples = self._samples(rng, J)
        _, cache = model.forward_batch(samples)
        rnn = {k: p[f"rnn.{k}"] for k in ("u", "w", "b", "v", "vb")}
        for i, s in enumerate(samples):
            ref = _paper_order_inputs(cfg, model.blocks[0][1], 3, s.times, s.frames, s.adjacency, p["gcn.theta"])
            for j in range(J):
                _assert_rows_close(cache["rnn"][0][J * i + j], ref[j])
            if variant == "gcn-logsig-rnn-2":  # the first block's outputs are the second's frames
                frames = np.stack([rnn_forward(rows, rnn, cfg.cell)[0] for rows in ref], axis=1)
                ref = _paper_order_inputs(
                    cfg, model.blocks[1][1], 2, np.arange(3.0), frames, s.adjacency, p["gcn2.theta"]
                )
                for j in range(J):
                    _assert_rows_close(cache["rnn2"][0][J * i + j], ref[j])

    @pytest.mark.parametrize(
        "spec,degree,use_time,groups",
        [
            ((3, 2), 3, True, [3]),  # width 1 + 3 * 2 = 7: 343 entries
            ((5, 2), 3, True, [3, 2]),  # 4 joints would be width 9: 729
            ((5, 2), 3, False, [4, 1]),  # width 8: 512, the limit
            ((5, 2), 2, True, [5]),  # width 11: 121
            ((5, 2), 4, True, [1] * 5),  # width 3: 81; width 5 would be 625
            ((2, 3), 3, True, [2]),
        ],
    )
    def test_joint_groups_follow_the_tensor_limit(self, spec, degree, use_time, groups):
        cfg = ModelConfig(variant="gcn-logsig-rnn", degree=degree, gcn_dim=2, hidden=2, num_classes=3,
                          use_time=use_time)
        model = StreamClassifier(cfg, spec, {})
        assert [count for _, count, _, _ in model.joint_groups] == groups
        assert [first for first, *_ in model.joint_groups] == list(np.cumsum([0] + groups[:-1]))
        for _, count, basis, _ in model.joint_groups:
            assert basis.width == use_time + count * spec[1]
            assert basis.width**degree <= neural.MAPPED_TENSOR_LIMIT

    @pytest.mark.parametrize(
        "spec,degree,groups",
        [
            ((1, 2), 3, [1]),  # the raw path [time, 1, x, y]: 64 entries
            ((5, 2), 3, []),  # width 1 + 1 + 10 = 12: 1728 entries, the per-path route
        ],
    )
    def test_el_joint_groups_follow_the_tensor_limit(self, spec, degree, groups):
        # el-logsig-rnn is the one-path case of the same plan: one group of its
        # one raw path, gathered whole, while that path fits the limit
        model = StreamClassifier(ModelConfig(degree=degree, hidden=2, num_classes=3), spec, {})
        assert [count for _, count, _, _ in model.joint_groups] == groups
        assert (model.raw_basis is None) == (groups == [])
        for first, count, basis, gather in model.joint_groups:
            assert (first, basis) == (0, model.raw_basis)
            assert basis.width == 2 + spec[0] * spec[1]
            assert np.array_equal(gather, [np.arange(basis.dim + basis.width)])

    # (use_accumulative, use_time, use_start_points): all on keeps the bare
    # route id; the others reach each branch of the tail's adjoint, which
    # gcn-logsig-rnn-2's second block runs on every joint's raw path
    @pytest.mark.parametrize(
        "variant,route,flags",
        [pytest.param(*case.values, (True, True, True), id=case.id) for case in GCN_ROUTES]
        + [
            pytest.param(*case.values, flags, id=f"{case.id}-{name}")
            for case in GCN_ROUTES
            for flags, name in (((False, False, False), "no-layers"), ((True, False, True), "no-time"))
        ],
    )
    def test_gradients_match_finite_differences(self, variant, route, flags):
        al, tl, sp = flags
        rng = np.random.default_rng(81)
        cfg = ModelConfig(
            variant=variant, degree=2, num_segments=2, num_segments2=2, gcn_dim=2, hidden=2,
            cell="vanilla", num_classes=3, use_accumulative=al, use_time=tl, use_start_points=sp,
        )
        model = self._model(cfg, rng, route)
        samples, labels = self._samples(rng), np.array([0, 2, 1])
        logits, cache = model.forward_batch(samples)
        _, g_logits = cross_entropy(logits, labels)
        grads = model.backward_batch(cache, g_logits)
        h, worst = 1e-6, 0.0
        for name, p in model.params.items():
            for ix in np.ndindex(p.shape):
                orig = p[ix]
                p[ix] = orig + h
                up, _ = cross_entropy(model.forward_batch(samples)[0], labels)
                p[ix] = orig - h
                down, _ = cross_entropy(model.forward_batch(samples)[0], labels)
                p[ix] = orig
                fd = (up - down) / (2 * h)
                worst = max(worst, abs(grads[name][ix] - fd) / max(abs(grads[name][ix]), abs(fd), 1e-5))
        assert worst <= 1e-5, worst

    @pytest.mark.parametrize("variant", ["gcn-logsig-rnn", "gcn-logsig-rnn-2"])
    @pytest.mark.parametrize(
        "spec,degree,mapped",
        [
            ((3, 2), 3, True),  # one joint's raw path [time, x, y]: 3**3 = 27 entries
            ((5, 3), 5, False),  # [time, x, y, z]: 4**5 = 1024
        ],
    )
    def test_route_follows_the_joint_tensor_size(self, variant, spec, degree, mapped):
        cfg = ModelConfig(variant=variant, degree=degree, gcn_dim=2, hidden=2, num_classes=3)
        assert (StreamClassifier(cfg, spec, {}).raw_basis is not None) == mapped


class TestFrameRnnBatch:
    """frame-rnn unrolls a whole batch at once, each stream for its own frame count."""

    @pytest.mark.parametrize("cell", ["vanilla", "lstm"])
    @pytest.mark.parametrize("resample", [0, 5])
    def test_batch_matches_single_streams(self, monkeypatch, cell, resample):
        rng = np.random.default_rng(60)
        # unsorted, with ties and a one-frame stream
        samples = [random_skeleton(rng, n, 2, 2) for n in (4, 1, 9, 4, 2, 9, 3)]
        labels = np.array([0, 1, 2, 1, 0, 2, 1])
        cfg = ModelConfig(variant="frame-rnn", hidden=4, cell=cell, num_classes=3, resample_frames=resample)
        model = StreamClassifier.build(cfg, (2, 2), 9)
        unrolls = []
        unroll = neural._rnn_forward_batch

        def counted(*args):
            unrolls.append(args[0].shape)
            return unroll(*args)

        monkeypatch.setattr(neural, "_rnn_forward_batch", counted)
        logits, cache = model.forward_batch(samples)
        assert unrolls == [(7, resample or 9, 4)]
        # step t runs only on the streams that have a t-th frame
        assert list(cache["rnn"][-1]) == ([7, 6, 5, 4, 2, 2, 2, 2, 2] if resample == 0 else [7] * 5)
        _, g_logits = cross_entropy(logits, labels)
        grads = model.backward_batch(cache, g_logits)
        reference = {name: np.zeros_like(p) for name, p in model.params.items()}
        for i, s in enumerate(samples):
            single, single_cache = model.forward_batch([s])
            assert np.max(np.abs(logits[i] - single[0])) <= 1e-12 * np.max(np.abs(single))
            _, g_single = cross_entropy(single, labels[i : i + 1])
            for name, g in model.backward_batch(single_cache, g_single).items():
                reference[name] += g / len(samples)
        for name, ref in reference.items():
            assert np.max(np.abs(grads[name] - ref)) <= 1e-12 * np.max(np.abs(ref)), name


def _replay_train(config, samples, labels, settings, eval_samples=None, eval_labels=None):
    """``train``'s loop through the public ``forward_batch``/``backward_batch``.

    Same rng, model build, permutation, clipping and momentum; returns the
    parameters and each epoch's (loss, accuracy, eval accuracy or None).
    """
    rng = np.random.default_rng(settings.seed)
    model = StreamClassifier.build(config, input_spec(samples), rng)
    velocity = {name: np.zeros_like(p) for name, p in model.params.items()}
    labels = np.asarray(labels)
    trace = []
    for _ in range(settings.epochs):
        order = rng.permutation(len(samples))
        loss_sum, correct = 0.0, 0
        for start in range(0, len(samples), settings.batch_size):
            idx = order[start : start + settings.batch_size]
            logits, cache = model.forward_batch([samples[i] for i in idx])
            loss, g_logits = cross_entropy(logits, labels[idx])
            grads = model.backward_batch(cache, g_logits)
            if settings.clip_norm is not None:
                total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
                if total > settings.clip_norm:
                    for g in grads.values():
                        g *= settings.clip_norm / total
            for name, p in model.params.items():
                velocity[name] = settings.momentum * velocity[name] - settings.learning_rate * grads[name]
                p += velocity[name]
            loss_sum += loss * len(idx)
            correct += int((logits.argmax(axis=1) == labels[idx]).sum())
        accuracy = None if eval_samples is None else evaluate_model(model, eval_samples, eval_labels).accuracy
        trace.append((loss_sum / len(samples), correct / len(samples), accuracy))
    return model.params, trace


class TestPreparedTraining:
    """``train`` prepares each set once and runs its steps on the prepared entries."""

    CASES = {
        "el-mapped-d2": (dict(degree=2), (1, 2)),
        "el-mapped-d3": (dict(degree=3), (1, 2)),
        "el-per-path": (dict(degree=3), (5, 2)),  # raw width 12: 1728 entries
        "el-no-embedding": (dict(degree=3, use_embedding=False), (1, 2)),
        "gcn": (dict(variant="gcn-logsig-rnn", degree=3), (3, 2)),
        "gcn-2": (dict(variant="gcn-logsig-rnn-2", degree=2, num_segments2=3), (3, 2)),
        "frame-rnn": (dict(variant="frame-rnn"), (2, 2)),
        "frame-rnn-resampled": (dict(variant="frame-rnn", resample_frames=6), (2, 2)),
    }

    @staticmethod
    def _data(rng, spec, count):
        F, D = spec
        lengths = rng.integers(3, 25, size=count)
        if F == 1:
            samples = [random_path(rng, int(n), D) for n in lengths]
        else:
            samples = [random_skeleton(rng, int(n), F, D) for n in lengths]
        return samples, np.arange(count) % 3

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_training_equals_the_forward_batch_replay(self, case):
        fields, spec = self.CASES[case]
        rng = np.random.default_rng(70)
        samples, labels = self._data(rng, spec, 10)
        eval_samples, eval_labels = self._data(rng, spec, 5)
        cfg = ModelConfig(
            num_segments=3, embed_channels=2, embed_dim=4, gcn_dim=3, hidden=5, num_classes=3, **fields
        )
        settings = TrainSettings(learning_rate=0.05, batch_size=4, epochs=3, seed=4, clip_norm=1.0)
        result = train(cfg, samples, labels, settings, eval_samples, eval_labels)
        params, trace = _replay_train(cfg, samples, labels, settings, eval_samples, eval_labels)
        model = StreamClassifier(cfg, spec, result.params)
        if case.startswith("el"):
            assert (model.raw_basis is None) == (case == "el-per-path")
        assert [(r["loss"], r["accuracy"], r["eval_accuracy"]) for r in result.trace] == trace
        for name, p in params.items():
            assert np.array_equal(result.params[name], p), name
        assert result.prepare_seconds > 0

    @staticmethod
    def _counted_layer(monkeypatch):
        calls = []
        forward = neural.logsig_sequence_forward

        def counted(path, partition, degree, basis):
            calls.append(path.width)
            return forward(path, partition, degree, basis)

        monkeypatch.setattr(neural, "logsig_sequence_forward", counted)
        return calls

    def test_el_layer_runs_once_per_stream_per_train_call(self, monkeypatch):
        rng = np.random.default_rng(71)
        samples, labels = self._data(rng, (1, 2), 9)
        eval_samples, eval_labels = self._data(rng, (1, 2), 4)
        cfg = ModelConfig(degree=3, num_segments=3, embed_channels=2, embed_dim=4, hidden=5, num_classes=3)
        calls = self._counted_layer(monkeypatch)
        for epochs in (1, 3):
            calls.clear()
            train(cfg, samples, labels, TrainSettings(batch_size=4, epochs=epochs), eval_samples, eval_labels)
            # the raw paths [time, 1, x, y], training then eval streams
            assert calls == [4] * (9 + 4)

    def test_gcn_layer_runs_once_per_stream_per_train_call(self, monkeypatch):
        # block 0's joint raw paths [time, mixed running sums] read no
        # parameter; only time (+) theta, applied by map_rows, is trained.
        # The layer runs once per joint group: here all 3 joints side by side,
        # [time, 3 joints x 2 coords], width 7 (49 entries at degree 2)
        rng = np.random.default_rng(72)
        samples, labels = self._data(rng, (3, 2), 6)
        eval_samples, eval_labels = self._data(rng, (3, 2), 2)
        cfg = ModelConfig(variant="gcn-logsig-rnn", degree=2, num_segments=3, gcn_dim=3, hidden=5, num_classes=3)
        calls = self._counted_layer(monkeypatch)
        for epochs in (1, 3):
            calls.clear()
            train(cfg, samples, labels, TrainSettings(batch_size=4, epochs=epochs), eval_samples, eval_labels)
            assert calls == [7] * (6 + 2)  # one path per stream, training then eval streams
        model = StreamClassifier.build(cfg, (3, 2), 0)
        assert _layer_calls(monkeypatch, model, samples[:4]) == {"widths": [7] * 4, "backward": 0}
        # 5 joints x 2 coords at degree 3: groups of 3 and 2 joints, widths 7 and 5
        samples, _ = self._data(rng, (5, 2), 3)
        model = StreamClassifier.build(dataclasses.replace(cfg, degree=3), (5, 2), 0)
        assert _layer_calls(monkeypatch, model, samples) == {"widths": [7, 5] * 3, "backward": 0}

    @pytest.mark.parametrize("variant", ["gcn-logsig-rnn", "gcn-logsig-rnn-2"])
    def test_gcn_prepares_each_raw_path_once(self, monkeypatch, variant):
        # block 0's raw paths (running sums of 3 joints x 2 coords) are built
        # once per training stream; gcn-logsig-rnn-2's second block builds its
        # raw path (3 joints x 5 hidden) from the first block's outputs, once
        # per sample per step
        rng = np.random.default_rng(74)
        samples, labels = self._data(rng, (3, 2), 6)
        widths = []
        accumulate = neural.accumulative_layer

        def counted(seq):
            widths.append(seq.shape[1])
            return accumulate(seq)

        monkeypatch.setattr(neural, "accumulative_layer", counted)
        cfg = ModelConfig(variant=variant, degree=2, num_segments=3, gcn_dim=3, hidden=5, num_classes=3)
        for epochs in (1, 3):
            widths.clear()
            train(cfg, samples, labels, TrainSettings(batch_size=4, epochs=epochs))
            block2 = 6 * epochs if variant == "gcn-logsig-rnn-2" else 0
            assert widths == [6] * 6 + [15] * block2

    @pytest.mark.parametrize("where", ["training", "eval"])
    def test_overflowing_stream_fails_before_any_step_naming_it(self, monkeypatch, where):
        rng = np.random.default_rng(73)
        samples, labels = self._data(rng, (1, 2), 4)
        huge = TimedPath([0.0, 1.0, 2.0], [[0.0, 0.0], [1e200, -1e200], [-1e200, 3e200]])
        eval_samples = [samples[0], huge] if where == "eval" else None
        if where == "training":
            samples[2] = huge
        steps = []
        forward = StreamClassifier._forward

        def counted(model, prepared):
            steps.append(len(prepared))
            return forward(model, prepared)

        monkeypatch.setattr(StreamClassifier, "_forward", counted)
        cfg = ModelConfig(degree=3, num_segments=2, embed_channels=2, embed_dim=3, hidden=4, num_classes=3)
        index = 1 if where == "eval" else 2
        with pytest.raises(RuntimeError, match=f"^{where} stream {index}: .*not finite"):
            train(cfg, samples, labels, TrainSettings(epochs=2), eval_samples, [0, 1])
        assert steps == []
