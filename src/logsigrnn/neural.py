"""Trainable sequence classifiers built around the log-signature layer.

Everything is plain float64 numpy with hand-derived reverse-mode gradients:
path transformation layers (pointwise embedding, accumulative, time
channel, per-frame graph convolution), vanilla/LSTM recurrent cells, and
the model variants that compose them.  In the logsig variants the
recurrent part unrolls over the fixed number of partition segments, never
over the raw frame count, so streams of any length share one parameter
shape.  The frame-rnn baseline unrolls over each stream's frames, the whole
batch at once in lockstep by frame count (longest first, each step on the
streams that still have a frame); no filler frame is computed anywhere.

el-logsig-rnn reads its layer rows off each sample's parameter-free raw
path and carries them through its embedding as one linear map
(``logsig_layer.map_rows``) whenever that raw path is narrow enough for
its degree; see ``StreamClassifier``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .logsig_layer import (
    SegmentPartition,
    backward_from_state,
    logsig_sequence_forward,
    map_rows,
    map_rows_backward,
)
from .lyndon import enumerate_lyndon
from .paths import TimedPath, evaluate

__all__ = [
    "SkeletonSequence",
    "ModelConfig",
    "TrainSettings",
    "TrainResult",
    "StreamClassifier",
    "embedding_forward",
    "accumulative_layer",
    "time_incorporated_layer",
    "add_start_points",
    "normalized_adjacency",
    "gcn_forward",
    "rnn_forward",
    "softmax",
    "cross_entropy",
    "train",
    "evaluate_model",
    "input_spec",
]

VARIANTS = ("el-logsig-rnn", "gcn-logsig-rnn", "gcn-logsig-rnn-2", "frame-rnn")
CELLS = ("vanilla", "lstm")

# el-logsig-rnn takes the mapped route while its raw path's top tensor level
# has at most this many entries: both the layer on the raw path and the
# map's dense level factors grow with raw_width**degree.  Timed against the
# per-path route by scripts/time_el_routes.py: up to 512 entries a training
# step took 0.23-0.68 of the per-path one and single-stream logits 1.0-1.6x
# as long; past it logits took 1.6-5.3x as long (112x at 20736 entries),
# and the step gain shrank (0.33-0.77 up to 1296) and turned into a loss
# from 1728 (1.0-1.4x; 21x at 20736).
MAPPED_TENSOR_LIMIT = 512


@dataclass(frozen=True)
class SkeletonSequence:
    """Frame sequence of joint coordinates plus optional bone adjacency."""

    times: np.ndarray
    frames: np.ndarray
    adjacency: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64).reshape(-1)
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 3 or frames.shape[0] != times.size:
            raise ValueError(f"frames must be (n, joints, coords), got {frames.shape}")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(frames)):
            raise ValueError("frames must be finite")
        adjacency = self.adjacency
        if adjacency is not None:
            adjacency = np.asarray(adjacency, dtype=np.float64)
            F = frames.shape[1]
            if adjacency.shape != (F, F):
                raise ValueError("adjacency must be joints x joints")
            if not np.allclose(adjacency, adjacency.T):
                raise ValueError("adjacency must be symmetric")
            if np.any(np.diag(adjacency) != 0):
                raise ValueError("adjacency diagonal must be zero (self-loops are implicit)")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "adjacency", adjacency)

    @property
    def num_frames(self) -> int:
        return self.times.size

    @property
    def num_joints(self) -> int:
        return self.frames.shape[1]

    @property
    def num_coords(self) -> int:
        return self.frames.shape[2]


@dataclass
class ModelConfig:
    variant: str = "el-logsig-rnn"
    degree: int = 2
    num_segments: int = 4
    embed_channels: int = 6
    embed_dim: int = 8
    gcn_dim: int = 6
    num_segments2: int = 4
    hidden: int = 32
    cell: str = "lstm"
    num_classes: int = 4
    use_embedding: bool = True
    use_accumulative: bool = True
    use_time: bool = True
    use_start_points: bool = True
    # frame-rnn only: feed the interpolant on a fixed-size uniform time grid
    # (how frame-level models conventionally cope with variable-length input);
    # 0 keeps the raw frames.
    resample_frames: int = 0

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.cell not in CELLS:
            raise ValueError(f"unknown cell {self.cell!r}, expected one of {CELLS}")
        if self.degree < 1 or self.num_segments < 1 or self.num_classes < 2:
            raise ValueError("degree and num_segments must be >= 1, num_classes >= 2")
        if self.variant == "gcn-logsig-rnn-2" and self.num_segments2 < 1:
            raise ValueError("stacked variant needs num_segments2 >= 1")


@dataclass
class TrainSettings:
    learning_rate: float = 1e-2
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 40
    seed: int = 0
    clip_norm: float | None = None

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be > 0 or unset, got {self.clip_norm}")


@dataclass
class TrainResult:
    config: ModelConfig
    params: dict
    trace: list = field(default_factory=list)

    @property
    def final(self) -> dict:
        return self.trace[-1] if self.trace else {}


# ---------------------------------------------------------------------------
# layers


def embedding_forward(frames, point_w, point_b, mix_w, mix_b) -> np.ndarray:
    """Pointwise per-joint linear map, then one joint-mixing linear map.

    The same two maps are applied at every frame, so the output at frame t
    depends only on the input at frame t.
    """
    n = frames.shape[0]
    hidden = frames @ point_w + point_b
    return hidden.reshape(n, -1) @ mix_w + mix_b


def _embedding_backward(frames, point_w, point_b, mix_w, grad):
    n, F, _ = frames.shape
    c1 = point_w.shape[1]
    flat = (frames @ point_w + point_b).reshape(n, F * c1)
    g_mix_w = flat.T @ grad
    g_mix_b = grad.sum(axis=0)
    g_hidden = (grad @ mix_w.T).reshape(n, F, c1)
    g_point_w = np.einsum("nfd,nfc->dc", frames, g_hidden)
    g_point_b = g_hidden.sum(axis=(0, 1))
    g_frames = g_hidden @ point_w.T
    return g_frames, g_point_w, g_point_b, g_mix_w, g_mix_b


def accumulative_layer(seq: np.ndarray) -> np.ndarray:
    """Running partial sums along the frame axis."""
    return np.cumsum(seq, axis=0)


def _accumulative_backward(grad: np.ndarray) -> np.ndarray:
    return np.cumsum(grad[::-1], axis=0)[::-1]


def time_incorporated_layer(seq: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Prepend the normalized time coordinate to every frame."""
    times = np.asarray(times, dtype=np.float64).reshape(-1)
    n = seq.shape[0]
    if n == 1 or times[-1] == times[0]:
        channel = np.zeros(n)
    else:
        channel = (times - times[0]) / (times[-1] - times[0])
    return np.concatenate([channel[:, None], seq], axis=1)


def add_start_points(rows: np.ndarray, path: TimedPath, boundaries: np.ndarray) -> np.ndarray:
    """Append the path value at each segment start to the matching row."""
    # a single sample spans no time, so every segment starts at that instant
    at = boundaries[:-1] if path.num_samples > 1 else np.full(boundaries.size - 1, path.times[0])
    starts = evaluate(path, at)
    if starts.shape[0] != rows.shape[0]:
        raise ValueError("one start point per row is required")
    return np.concatenate([rows, starts], axis=1)


def _start_points_backward(path: TimedPath, boundaries: np.ndarray, g_starts: np.ndarray) -> np.ndarray:
    t = path.times
    grad = np.zeros_like(path.points)
    if path.num_samples == 1:
        grad[0] = g_starts.sum(axis=0)
        return grad
    at = boundaries[:-1]
    idx = np.clip(np.searchsorted(t, at, side="right") - 1, 0, t.size - 2)
    w = (at - t[idx]) / (t[idx + 1] - t[idx])
    np.add.at(grad, idx, (1.0 - w)[:, None] * g_starts)
    np.add.at(grad, idx + 1, w[:, None] * g_starts)
    return grad


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of adjacency-plus-self-loops."""
    s = adjacency + np.eye(adjacency.shape[0])
    inv_sqrt = 1.0 / np.sqrt(s.sum(axis=1))
    return s * inv_sqrt[:, None] * inv_sqrt[None, :]


def gcn_forward(frames: np.ndarray, adjacency: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Per-frame graph convolution: mix joints with the normalized adjacency, then map coords."""
    ahat = normalized_adjacency(adjacency)
    return np.einsum("fg,ngd,dc->nfc", ahat, frames, theta)


def _gcn_backward(frames, adjacency, theta, grad):
    ahat = normalized_adjacency(adjacency)
    g_theta = np.einsum("fg,ngd,nfc->dc", ahat, frames, grad)
    g_frames = np.einsum("fg,nfc,dc->ngd", ahat, grad, theta)
    return g_frames, g_theta


# ---------------------------------------------------------------------------
# recurrent cells


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


_RNN_KEYS = ("u", "w", "b", "v", "vb")


def _rnn_params(params: dict, prefix: str) -> list:
    return [params[f"{prefix}.{k}"] for k in _RNN_KEYS]


def _rnn_forward_batch(x, u, w, b, v, vb, cell, lengths=None):
    """Unroll a recurrent cell over (B, T, c) input; outputs are V h_t + vb.

    Row r runs ``lengths[r]`` steps (default T), rows longest first.
    """
    B, T, _ = x.shape
    H = w.shape[0]
    counts = [B] * T if lengths is None else (lengths[:, None] > np.arange(T)).sum(axis=0).tolist()
    h = np.zeros((B, H))
    c_state = np.zeros((B, H))
    hs = [h]
    steps = []
    outputs = np.zeros((B, T, H))
    for t, n in enumerate(counts):
        z = x[:n, t] @ u + h[:n] @ w + b
        if cell == "vanilla":
            h = np.tanh(z)
            steps.append((h,))
        else:
            i = _sigmoid(z[:, :H])
            f = _sigmoid(z[:, H : 2 * H])
            g = np.tanh(z[:, 2 * H : 3 * H])
            o = _sigmoid(z[:, 3 * H :])
            c_prev = c_state[:n]
            c_state = f * c_prev + i * g
            tc = np.tanh(c_state)
            h = o * tc
            steps.append((i, f, g, o, c_prev, c_state, tc))
        hs.append(h)
        outputs[:n, t] = h @ v + vb
    cache = (x, u, w, v, cell, hs, steps, counts)
    return outputs, cache


def _rnn_backward_batch(cache, g_out):
    x, u, w, v, cell, hs, steps, counts = cache
    B, T, _ = x.shape
    H = w.shape[0]
    gx = np.zeros_like(x)
    gu = np.zeros_like(u)
    gw = np.zeros_like(w)
    gb = np.zeros(u.shape[1])
    gv = np.zeros_like(v)
    gvb = np.zeros(H)
    gh_carry = np.zeros((B, H))
    gc_carry = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        n = counts[t]
        go = g_out[:n, t]
        gv += hs[t + 1].T @ go
        gvb += go.sum(axis=0)
        gh = go @ v.T + gh_carry[:n]
        if cell == "vanilla":
            (h,) = steps[t]
            gz = gh * (1.0 - h * h)
        else:
            i, f, g, o, c_prev, c_state, tc = steps[t]
            gc = gc_carry[:n] + gh * o * (1.0 - tc * tc)
            gz = np.concatenate(
                [
                    gc * g * i * (1.0 - i),
                    gc * c_prev * f * (1.0 - f),
                    gc * i * (1.0 - g * g),
                    gh * tc * o * (1.0 - o),
                ],
                axis=1,
            )
            gc_carry[:n] = gc * f
        gu += x[:n, t].T @ gz
        gw += hs[t][:n].T @ gz
        gb += gz.sum(axis=0)
        gx[:n, t] = gz @ u.T
        gh_carry[:n] = gz @ w.T
    return gx, gu, gw, gb, gv, gvb


def rnn_forward(seq: np.ndarray, params: dict, cell: str = "vanilla"):
    """Single-sequence unroll; returns the per-step outputs and final hidden state."""
    if cell not in CELLS:
        raise ValueError(f"unknown cell {cell!r}")
    out, cache = _rnn_forward_batch(
        np.asarray(seq, dtype=np.float64)[None], *(params[k] for k in _RNN_KEYS), cell
    )
    hs = cache[5]
    return out[0], hs[-1][0]


# ---------------------------------------------------------------------------
# losses


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy and its gradient w.r.t. the logits."""
    labels = np.asarray(labels, dtype=np.intp)
    B = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    loss = float(np.mean(lse - z[np.arange(B), labels]))
    grad = softmax(logits)
    grad[np.arange(B), labels] -= 1.0
    return loss, grad / B


# ---------------------------------------------------------------------------
# model


def _glorot(rng, fan_in, fan_out, shape=None):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))


def _sample_spec(sample) -> tuple[int, int]:
    """(joints, coords) of one sample; a path counts as one joint."""
    return (1, sample.width) if isinstance(sample, TimedPath) else (sample.num_joints, sample.num_coords)


def input_spec(samples) -> tuple[int, int]:
    """(joints, coords) shared by all samples; paths count as one joint."""
    spec = None
    for s in samples:
        cur = _sample_spec(s)
        if spec is None:
            spec = cur
        elif cur != spec:
            raise ValueError(f"mixed input shapes in dataset: {spec} vs {cur}")
    if spec is None:
        raise ValueError("empty dataset")
    return spec


def _rnn_param_shapes(in_dim, hidden, cell):
    gate = 4 * hidden if cell == "lstm" else hidden
    return {"u": (in_dim, gate), "w": (hidden, gate), "b": (gate,), "v": (hidden, hidden), "vb": (hidden,)}


class StreamClassifier:
    """Sequence classifier over timed paths or skeleton sequences.

    Every logsig variant is a stack of blocks ``(rnn param prefix, Lyndon
    basis, segments)``.  A block maps each sample's frames ``(n, F, D)`` to
    per-joint channels ``(n, J, c)`` (the embedding with ``J = 1`` for
    el-logsig-rnn; a graph convolution with ``J = F`` for the gcn variants),
    runs the transformation tail once per joint, and one recurrent unroll
    over all ``B * J`` rows of the batch.  Its full outputs are the next
    block's frames.  The last step of the last block, averaged over joints,
    feeds the head.  gcn-logsig-rnn-2 has two blocks.

    el-logsig-rnn's tail is linear in ``[1, frames]``, so its path is the
    raw path (the tail applied to ``[1, frames]``: time, frame count and
    running frame sums) times one matrix ``L`` made of the embedding's
    parameters.  While the raw path's width ``F * D + 1`` (plus the time
    channel) to the power ``degree`` is at most ``MAPPED_TENSOR_LIMIT``, the
    model takes the mapped route: the layer runs on each raw path, forward
    only, and ``map_rows`` carries the batch's rows into the embedded basis
    in one pass, its adjoint giving the embedding's gradients with no
    per-path backward.  Without the embedding ``L`` is the identity and the
    frames themselves are the raw path.  Wider inputs and the gcn variants
    embed each path and run its adjoint (the per-path route).

    frame-rnn has one block with no basis: its cell reads the flattened
    frames of every stream in one ragged unroll, rows longest first, and the
    head reads each stream's output at its own last frame.
    """

    def __init__(self, config: ModelConfig, spec: tuple[int, int], params: dict):
        config.validate()
        self.config = config
        self.spec = spec
        self.params = params
        self._plan()

    def _plan(self):
        cfg = self.config
        F, D = self.spec
        self.blocks = []
        self.joints = F if cfg.variant.startswith("gcn") else 1
        if cfg.variant == "frame-rnn":
            self.blocks.append(("rnn", None, None))
            self.rnn_in = F * D
            return
        if cfg.variant == "el-logsig-rnn":
            widths = [cfg.embed_dim if cfg.use_embedding else F * D]
        else:
            widths = [cfg.gcn_dim] * (2 if cfg.variant == "gcn-logsig-rnn-2" else 1)
        for prefix, width, segments in zip(("rnn", "rnn2"), widths, (cfg.num_segments, cfg.num_segments2)):
            width += 1 if cfg.use_time else 0
            self.blocks.append((prefix, enumerate_lyndon(width, cfg.degree), segments))
        # the basis of the raw paths on the mapped route, None on the per-path route
        self.raw_basis = None
        raw_width = F * D + 1 + cfg.use_time
        if cfg.variant == "el-logsig-rnn" and not cfg.use_embedding:
            self.raw_basis = self.blocks[0][1]
        elif cfg.variant == "el-logsig-rnn" and raw_width**cfg.degree <= MAPPED_TENSOR_LIMIT:
            self.raw_basis = enumerate_lyndon(raw_width, cfg.degree)
        in_dims = [b.dim + (b.width if cfg.use_start_points else 0) for _, b, _ in self.blocks]
        self.rnn_in = in_dims[0]
        if len(in_dims) > 1:
            self.rnn_in2 = in_dims[1]

    @classmethod
    def build(cls, config: ModelConfig, spec: tuple[int, int], seed_or_rng=0) -> "StreamClassifier":
        config.validate()
        rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
        model = cls(config, spec, {})
        F, D = spec
        p: dict[str, np.ndarray] = {}
        cfg = config
        if cfg.variant == "el-logsig-rnn" and cfg.use_embedding:
            c1 = cfg.embed_channels
            p["embed.point_w"] = _glorot(rng, D, c1)
            p["embed.point_b"] = np.zeros(c1)
            p["embed.mix_w"] = _glorot(rng, F * c1, cfg.embed_dim)
            p["embed.mix_b"] = np.zeros(cfg.embed_dim)
        if cfg.variant.startswith("gcn"):
            p["gcn.theta"] = _glorot(rng, D, cfg.gcn_dim)
        for name, shape in _rnn_param_shapes(model.rnn_in, cfg.hidden, cfg.cell).items():
            p[f"rnn.{name}"] = np.zeros(shape) if len(shape) == 1 else _glorot(rng, *shape, shape=shape)
        if cfg.variant == "gcn-logsig-rnn-2":
            p["gcn2.theta"] = _glorot(rng, cfg.hidden, cfg.gcn_dim)
            for name, shape in _rnn_param_shapes(model.rnn_in2, cfg.hidden, cfg.cell).items():
                p[f"rnn2.{name}"] = np.zeros(shape) if len(shape) == 1 else _glorot(rng, *shape, shape=shape)
        p["head.w"] = _glorot(rng, cfg.hidden, cfg.num_classes)
        p["head.b"] = np.zeros(cfg.num_classes)
        model.params = p
        return model

    # -- blocks ---------------------------------------------------------------

    def _as_frames(self, sample):
        if isinstance(sample, TimedPath):
            return sample.times, sample.points[:, None, :]
        return sample.times, sample.frames

    def _block_map(self, index, frames, adjacency):
        """Frames (n, F, D) -> per-joint channels (n, J, c) in front of block ``index``."""
        cfg, p = self.config, self.params
        if cfg.variant == "el-logsig-rnn":
            seq = embedding_forward(
                frames, p["embed.point_w"], p["embed.point_b"], p["embed.mix_w"], p["embed.mix_b"]
            )
            return seq[:, None, :]
        if adjacency is None:
            raise ValueError("gcn variants require an adjacency matrix")
        return gcn_forward(frames, adjacency, p["gcn2.theta" if index else "gcn.theta"])

    def _block_map_backward(self, index, frames, adjacency, g_mixed, grads):
        """Add the map's parameter gradients to ``grads``; return the gradient w.r.t. ``frames``."""
        cfg, p = self.config, self.params
        if cfg.variant == "el-logsig-rnn":
            _, *g_embed = _embedding_backward(
                frames, p["embed.point_w"], p["embed.point_b"], p["embed.mix_w"], g_mixed[:, 0, :]
            )
            for name, g in zip(("point_w", "point_b", "mix_w", "mix_b"), g_embed):
                grads[f"embed.{name}"] += g
            return None
        key = "gcn2.theta" if index else "gcn.theta"
        g_frames, g_theta = _gcn_backward(frames, adjacency, p[key], g_mixed)
        grads[key] += g_theta
        return g_frames

    def _embedding_matrix(self):
        """``L`` with ``[time, 1, frames] @ L = [time, embedding_forward(frames)]``.

        ``(I_F (x) point_w) mix_w`` on the flattened frames, ``point_b mix_w +
        mix_b`` on the constant channel, and 1 on the time channel if any.
        """
        cfg, p = self.config, self.params
        F, D = self.spec
        t = int(cfg.use_time)
        mix = p["embed.mix_w"].reshape(F, -1, cfg.embed_dim)
        # head[f, 0] = point_b mix_f and head[f, 1:] = point_w mix_f
        head = np.concatenate([p["embed.point_b"][None], p["embed.point_w"]]) @ mix
        matrix = np.zeros((t + 1 + F * D, t + cfg.embed_dim))
        matrix[:t, :t] = 1.0
        matrix[t, t:] = head[:, 0].sum(axis=0) + p["embed.mix_b"]
        matrix[t + 1 :, t:] = head[:, 1:].reshape(F * D, -1)
        return matrix

    def _embedding_matrix_backward(self, g_matrix, grads):
        """Add the embedding's gradients, given the gradient of ``_embedding_matrix()``."""
        cfg, p = self.config, self.params
        F, D = self.spec
        t = int(cfg.use_time)
        g = g_matrix[t:, t:]
        mix = p["embed.mix_w"].reshape(F, -1, cfg.embed_dim)
        weights = np.concatenate([p["embed.point_b"][None], p["embed.point_w"]])
        g_head = np.concatenate([np.broadcast_to(g[0], (F, 1, g.shape[1])), g[1:].reshape(F, D, -1)], axis=1)
        g_weights = (g_head @ mix.transpose(0, 2, 1)).sum(axis=0)
        grads["embed.point_b"] += g_weights[0]
        grads["embed.point_w"] += g_weights[1:]
        grads["embed.mix_w"] += (weights.T @ g_head).reshape(F * mix.shape[1], -1)
        grads["embed.mix_b"] += g[0]

    def _frame_inputs(self, inputs):
        """Recurrent inputs ``(B, T, F * D)`` of frame-rnn, longest first, and each row's length and sample."""
        n = self.config.resample_frames
        lengths = np.array([n if n > 0 else len(times) for times, _, _ in inputs])
        order = np.argsort(-lengths, kind="stable")
        x = np.zeros((len(inputs), lengths.max(), self.rnn_in))
        for row, i in enumerate(order):
            times, frames, _ = inputs[i]
            stream = frames.reshape(len(times), -1)
            if n > 0:  # the interpolant on a uniform grid of n frames
                stream = evaluate(TimedPath(times, stream), np.linspace(times[0], times[-1], n))
            x[row, : lengths[i]] = stream
        return x, lengths[order], order

    def _mapped_inputs(self, inputs, basis, segments):
        """Recurrent inputs ``(B, segments, c)`` of el-logsig-rnn on the mapped route."""
        cfg = self.config
        raw = []
        for times, frames, _ in inputs:
            seq = flat = frames.reshape(frames.shape[0], -1)
            if cfg.use_embedding:  # [1, frames], in which the embedding is linear
                seq = np.ones((flat.shape[0], flat.shape[1] + 1))
                seq[:, 1:] = flat
            raw.append(self._transform_tail(seq, times, self.raw_basis, segments)[0])
        raw = np.stack(raw)
        if not cfg.use_embedding:
            return raw, None
        matrix = self._embedding_matrix()
        B, dim = raw.shape[0], self.raw_basis.dim
        raw = raw.reshape(B * segments, -1)
        rows, map_cache = map_rows(raw[:, :dim], matrix, self.raw_basis, basis)
        if cfg.use_start_points:
            rows = np.concatenate([rows, raw[:, dim:] @ matrix], axis=1)
        return rows.reshape(B, segments, -1), (raw[:, dim:], map_cache)

    def _mapped_inputs_backward(self, cache, gx, grads):
        """Add the embedding's gradients for the recurrent inputs' gradient ``gx``."""
        if cache is None:  # no embedding: nothing in front of the layer to train
            return
        starts, map_cache = cache
        gx = gx.reshape(-1, gx.shape[-1])
        dim = self.blocks[0][1].dim
        g_matrix = map_rows_backward(map_cache, gx[:, :dim])
        if self.config.use_start_points:
            g_matrix += starts.T @ gx[:, dim:]
        self._embedding_matrix_backward(g_matrix, grads)

    def _path_inputs(self, index, inputs, basis, segments):
        """Recurrent inputs ``(B * J, segments, c)`` of block ``index`` on the per-path route."""
        rows, tails = [], []
        for times, frames, adjacency in inputs:
            mixed = self._block_map(index, frames, adjacency)
            joint_tails = []
            for j in range(mixed.shape[1]):
                r, tail = self._transform_tail(mixed[:, j, :], times, basis, segments)
                rows.append(r)
                joint_tails.append(tail)
            tails.append(joint_tails)
        return np.stack(rows), (inputs, tails)

    def _path_inputs_backward(self, index, cache, gx, grads):
        """Gradients of the per-path route; returns each sample's frame gradient."""
        inputs, tails = cache
        g_frames = []
        for i, (_, frames, adjacency) in enumerate(inputs):
            g_mixed = np.stack(
                [self._transform_tail_backward(tail, gx[i, j]) for j, tail in enumerate(tails[i])], axis=1
            )
            g_frames.append(self._block_map_backward(index, frames, adjacency, g_mixed, grads))
        return g_frames

    def _transform_tail(self, seq, times, basis, num_segments):
        """AL / TL / logsig / start points of one joint's channels."""
        cfg = self.config
        if cfg.use_accumulative:
            seq = accumulative_layer(seq)
        if cfg.use_time:
            seq = time_incorporated_layer(seq, times)
        path = TimedPath(times, seq)
        partition = SegmentPartition.spanning(path, num_segments)
        rows, lstate = logsig_sequence_forward(path, partition, cfg.degree, basis)
        out = rows
        if cfg.use_start_points:
            out = add_start_points(rows, path, partition.boundaries)
        return out, {"path": path, "partition": partition, "lstate": lstate, "d_ls": rows.shape[1]}

    def _transform_tail_backward(self, cache, grad):
        cfg = self.config
        path, partition = cache["path"], cache["partition"]
        d_ls = cache["d_ls"]
        g_points = np.zeros_like(path.points)
        if cfg.use_start_points:
            g_rows, g_starts = grad[:, :d_ls], grad[:, d_ls:]
            g_points += _start_points_backward(path, partition.boundaries, g_starts)
        else:
            g_rows = grad
        g_points += backward_from_state(cache["lstate"], g_rows)
        if cfg.use_time:
            g_points = g_points[:, 1:]
        if cfg.use_accumulative:
            g_points = _accumulative_backward(g_points)
        return g_points

    # -- forward / backward over a batch -------------------------------------

    def forward_batch(self, samples):
        cfg, p = self.config, self.params
        for i, s in enumerate(samples):
            if _sample_spec(s) != tuple(self.spec):
                raise ValueError(
                    f"sample {i} has (joints, coords) {_sample_spec(s)}, "
                    f"the model takes {tuple(self.spec)}"
                )
        B, J = len(samples), self.joints
        inputs = [(*self._as_frames(s), getattr(s, "adjacency", None)) for s in samples]
        batch_cache = {"blocks": []}
        if cfg.variant == "frame-rnn":
            x, lengths, order = self._frame_inputs(inputs)
            out, batch_cache["rnn"] = _rnn_forward_batch(x, *_rnn_params(p, "rnn"), cfg.cell, lengths)
            feats = out[np.arange(B), lengths - 1][np.argsort(order)]
            batch_cache["last"] = (lengths - 1, order)
        else:
            for index, (prefix, basis, segments) in enumerate(self.blocks):
                if index == 0 and self.raw_basis is not None:
                    x, block_cache = self._mapped_inputs(inputs, basis, segments)
                else:
                    x, block_cache = self._path_inputs(index, inputs, basis, segments)
                out, batch_cache[prefix] = _rnn_forward_batch(x, *_rnn_params(p, prefix), cfg.cell)
                batch_cache["blocks"].append(block_cache)
                out = out.reshape(B, J, segments, cfg.hidden)
                times = np.arange(segments, dtype=np.float64)
                inputs = [(times, o.transpose(1, 0, 2), adj) for o, (_, _, adj) in zip(out, inputs)]
            feats = out[:, :, -1, :].mean(axis=1)
            batch_cache["last"] = (segments - 1, np.repeat(np.arange(B), J))
        logits = feats @ p["head.w"] + p["head.b"]
        batch_cache["feats"] = feats
        return logits, batch_cache

    def backward_batch(self, batch_cache, g_logits):
        cfg = self.config
        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        feats = batch_cache["feats"]
        grads["head.w"] += feats.T @ g_logits
        grads["head.b"] += g_logits.sum(axis=0)
        g_feats = g_logits @ self.params["head.w"].T
        B, J = g_feats.shape[0], self.joints
        last, sample = batch_cache["last"]  # each last-block row's last step and sample
        g_out = np.zeros((len(sample), np.max(last) + 1, cfg.hidden))
        g_out[np.arange(len(sample)), last] = g_feats[sample] / J
        for index in range(len(self.blocks) - 1, -1, -1):
            prefix, basis, segments = self.blocks[index]
            gx, *g_rnn = _rnn_backward_batch(batch_cache[prefix], g_out)
            for name, g in zip(_RNN_KEYS, g_rnn):
                grads[f"{prefix}.{name}"] += g
            if basis is None:  # frame-rnn's cell reads the frames themselves
                continue
            block_cache = batch_cache["blocks"][index]
            gx = gx.reshape(B, J, segments, -1)
            if index == 0 and self.raw_basis is not None:
                self._mapped_inputs_backward(block_cache, gx, grads)
                continue
            g_frames = self._path_inputs_backward(index, block_cache, gx, grads)
            if index:
                g_out = np.stack([g.transpose(1, 0, 2) for g in g_frames]).reshape(B * J, -1, cfg.hidden)
        return grads

    def logits(self, sample) -> np.ndarray:
        out, _ = self.forward_batch([sample])
        return out[0]

    def predict(self, samples, batch_size: int = 64) -> np.ndarray:
        preds = np.empty(len(samples), dtype=np.intp)
        for start in range(0, len(samples), batch_size):
            chunk = samples[start : start + batch_size]
            logits, _ = self.forward_batch(chunk)
            preds[start : start + len(chunk)] = logits.argmax(axis=1)
        return preds


# ---------------------------------------------------------------------------
# training


def _checked_labels(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.intp)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in 0..{num_classes - 1} for a {num_classes}-class model, "
            f"got labels {labels.min()}..{labels.max()}"
        )
    return labels


def train(
    config: ModelConfig,
    train_samples,
    train_labels,
    settings: TrainSettings | None = None,
    eval_samples=None,
    eval_labels=None,
) -> TrainResult:
    """Mini-batch SGD with momentum on softmax cross-entropy."""
    settings = settings or TrainSettings()
    settings.validate()
    if len(train_samples) == 0:
        raise ValueError("empty training set")
    labels = _checked_labels(train_labels, config.num_classes)
    rng = np.random.default_rng(settings.seed)
    model = StreamClassifier.build(config, input_spec(train_samples), rng)
    velocity = {name: np.zeros_like(p) for name, p in model.params.items()}
    trace = []
    count = len(train_samples)
    for epoch in range(settings.epochs):
        tic = time.perf_counter()
        order = rng.permutation(count)
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, count, settings.batch_size):
            idx = order[start : start + settings.batch_size]
            batch = [train_samples[i] for i in idx]
            # the log-signature layer raises FloatingPointError on rows that
            # overflow, before the loss itself can go non-finite
            try:
                logits, cache = model.forward_batch(batch)
                loss, g_logits = cross_entropy(logits, labels[idx])
                if not np.isfinite(loss):
                    raise FloatingPointError(loss)
            except FloatingPointError as exc:
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch starting {start}: {exc}"
                ) from exc
            grads = model.backward_batch(cache, g_logits)
            if settings.clip_norm is not None:
                total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
                if total > settings.clip_norm:
                    scale = settings.clip_norm / total
                    for g in grads.values():
                        g *= scale
            for name, p in model.params.items():
                velocity[name] = settings.momentum * velocity[name] - settings.learning_rate * grads[name]
                p += velocity[name]
            epoch_loss += loss * len(idx)
            epoch_correct += int((logits.argmax(axis=1) == labels[idx]).sum())
        record = {
            "epoch": epoch,
            "loss": epoch_loss / count,
            "accuracy": epoch_correct / count,
            "seconds": time.perf_counter() - tic,
        }
        if eval_samples is not None:
            record["eval_accuracy"] = evaluate_model(model, eval_samples, eval_labels).accuracy
        trace.append(record)
    return TrainResult(config=config, params=model.params, trace=trace)


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray
    predictions: np.ndarray


def evaluate_model(model_or_config, samples, labels, params: dict | None = None) -> EvalResult:
    """Accuracy and confusion matrix on a labeled set."""
    if isinstance(model_or_config, StreamClassifier):
        model = model_or_config
    else:
        model = StreamClassifier(model_or_config, input_spec(samples), params)
    C = model.config.num_classes
    labels = _checked_labels(labels, C)
    preds = model.predict(samples)
    confusion = np.zeros((C, C), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    return EvalResult(
        accuracy=float((preds == labels).mean()),
        confusion=confusion,
        predictions=preds,
    )

