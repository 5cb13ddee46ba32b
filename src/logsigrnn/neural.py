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

Every block reads each sample's ``J`` parameter-free raw paths and one
matrix ``L``: el-logsig-rnn is the one-path case with its embedding as
``L``, a gcn block has one path per joint and ``L = time (+) theta``.  On the
mapped route, taken by the first block whenever a raw path is narrow enough
for the degree, the layer runs on groups of raw paths, each path's rows are
gathered from its group's and ``logsig_layer.map_rows`` carries them through
``L``.  Every other block runs the layer on each ``raw @ L``.  See
``StreamClassifier``.

``StreamClassifier._prepare`` checks each sample and builds what no
parameter changes (raw-path rows or raw paths, gcn's normalized adjacency,
frame-rnn's frames), and ``_forward`` does everything that reads a
parameter.  ``train`` prepares its training and eval sets once per call, so
the first block's steps on the mapped route run no layer call.
"""

from __future__ import annotations

import math
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
from .lyndon import check_basis_size, enumerate_lyndon
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

# Block 0 takes the mapped route while one raw path's top tensor level has
# at most this many entries: both the layer on the raw path and the map's
# dense level factors grow with raw_width**degree.  Timed on el-logsig-rnn
# against the per-path route by scripts/time_el_routes.py: up to 512 entries
# a training step took 0.23-0.68 of the per-path one and single-stream
# logits 1.0-1.6x as long; past it logits took 1.6-5.3x as long (112x at
# 20736 entries), and the step gain shrank (0.33-0.77 up to 1296) and turned
# into a loss from 1728 (1.0-1.4x; 21x at 20736).  Block 0 also sizes its groups by it:
# the layer runs on the largest number k of raw paths whose [time, k paths'
# columns] stays within the limit, where a call costs nearly the same as on
# one gcn joint (degree 3, 40 samples: 228 us at width 3, 283 us at width 7).
MAPPED_TENSOR_LIMIT = 512

# A model refuses, before any array is built, a parameter or one stream's
# layer rows, recurrent outputs or resampled frames with more entries (256 MiB).
MAX_ARRAY_ENTRIES = 2**25


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
        minima = {
            "degree": 1, "num_segments": 1, "num_classes": 2, "hidden": 1,
            "embed_channels": 1, "embed_dim": 1, "gcn_dim": 1, "resample_frames": 0,
        }
        for key, low in minima.items():
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
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
        for key in ("learning_rate", "momentum"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be > 0 or unset, got {self.clip_norm}")


@dataclass
class TrainResult:
    config: ModelConfig
    params: dict
    trace: list = field(default_factory=list)
    # one-time preparation of the training and eval sets, outside every epoch
    prepare_seconds: float = 0.0

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


def accumulative_layer(seq: np.ndarray) -> np.ndarray:
    """Running partial sums along the frame axis."""
    return np.cumsum(seq, axis=0)


def _accumulative_backward(grad: np.ndarray) -> np.ndarray:
    return np.flip(np.cumsum(np.flip(grad, -2), axis=-2), -2)


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


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of adjacency-plus-self-loops."""
    s = adjacency + np.eye(adjacency.shape[0])
    inv_sqrt = 1.0 / np.sqrt(s.sum(axis=1))
    return s * inv_sqrt[:, None] * inv_sqrt[None, :]


def gcn_forward(frames: np.ndarray, adjacency: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Per-frame graph convolution: mix joints with the normalized adjacency, then map coords."""
    ahat = normalized_adjacency(adjacency)
    return np.einsum("fg,ngd,dc->nfc", ahat, frames, theta)


# ---------------------------------------------------------------------------
# recurrent cells


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


_RNN_KEYS = ("u", "w", "b", "v", "vb")


def _rnn_params(params: dict, prefix: str) -> list:
    return [params[f"{prefix}.{k}"] for k in _RNN_KEYS]


@np.errstate(over="raise", invalid="raise")
def _rnn_forward_batch(x, u, w, b, v, vb, cell, lengths=None):
    """Unroll a recurrent cell over (B, T, c) input; outputs are V h_t + vb.

    Row r runs ``lengths[r]`` steps (default T), rows longest first.  A
    pre-activation or output that overflows float64 raises
    ``FloatingPointError``, so a diverging model fails instead of carrying
    infinities into the head.
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


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


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
    basis, segments)``.  A block reads each sample's ``J`` parameter-free raw
    paths and one matrix ``L`` for the whole block (``_block_matrix``), so
    path ``j`` is ``raw[j] @ L``.  It runs the layer (and start points) on
    each path's segments and one recurrent unroll over all ``B * J`` rows of
    the batch.  Its full outputs are the next block's frames.  The last step
    of the last block, averaged over the paths, feeds the head.

    A sample's raw paths are ``[time, w columns]`` of the tail (accumulative
    and time layers) of one sequence ``(n, J * w)``.  el-logsig-rnn has ``J =
    1``: the sequence is ``[1, frames]`` and ``L`` the affine embedding's
    matrix, or without the embedding the frames and the identity.  In the gcn
    variants ``J = F`` and ``w = D``: the sequence is each joint's ``sum_g
    ahat[j, g] X_g`` side by side and ``L = time (+) theta``;
    gcn-logsig-rnn-2's second block builds its raw paths the same way from
    the first block's outputs.

    Block 0 takes the mapped route of ``_mapped_inputs`` while ``(t + w) **
    degree`` is at most ``MAPPED_TENSOR_LIMIT``, and always when el has no
    embedding.  The layer then runs forward only, when a sample is prepared,
    once per entry ``(first path, count, basis, gather)`` of ``joint_groups``
    on the tail of the group's columns, ``count`` raw paths side by side with
    one time channel, and path ``first + i``'s rows and start points are the
    group's columns ``gather[i]`` (``LyndonBasis.letter_positions``).  A
    group holds the largest number ``k`` of paths with ``(t + k * w) **
    degree`` within the limit; el's one group is its one path, gathered
    whole.  ``map_rows`` carries the batch's
    ``B * J * segments`` rows through ``L`` in one pass; ``L``'s gradient is
    the map's adjoint plus the start points' term.  Every other block takes
    the per-path route of ``_path_inputs``: the layer runs on each ``raw[j]
    @ L``, and ``L``'s gradient is ``sum_j raw[j].T`` times the paths' point
    gradients.  ``raw_basis`` is None on the per-path route; setting it to
    None forces that route.

    frame-rnn has one block with no basis: its cell reads the flattened
    frames of every stream in one ragged unroll, rows longest first, and the
    head reads each stream's output at its own last frame.

    ``forward_batch(samples)`` is ``_forward(_prepare(samples))``:
    ``_prepare`` builds each sample's parameter-free inputs and ``_forward``
    runs every layer that reads a parameter on them; ``train`` prepares each
    set once.

    Building a model checks every block's basis against
    ``lyndon.check_basis_size`` before any basis is built, and every shape
    against ``MAX_ARRAY_ENTRIES`` before any array is built; a size past a
    budget is a ``ValueError`` naming the keys that set it.
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
        t, gcn = int(cfg.use_time), cfg.variant.startswith("gcn")
        J, w = (F, D) if gcn else (1, F * D + cfg.use_embedding)  # block 0's raw paths [time, w columns]
        self.joints = J
        bare = not (gcn or cfg.use_embedding)  # el without the embedding: L is the identity
        self.blocks, self.raw_basis, self.joint_groups = [], None, []
        if cfg.variant == "frame-rnn":
            self.blocks.append(("rnn", None, None))
            in_dims = [F * D]
        else:
            key, width = (("'gcn_dim'", cfg.gcn_dim) if gcn else
                          ("joints x coords", w) if bare else ("'embed_dim'", cfg.embed_dim))
            try:  # before any basis is built
                check_basis_size(width + t, cfg.degree)
            except ValueError as exc:
                raise ValueError(f"config key 'degree' = {cfg.degree} on width {key} = {width}: {exc}") from exc
            basis = enumerate_lyndon(width + t, cfg.degree)
            self.blocks.append(("rnn", basis, cfg.num_segments))
            if cfg.variant == "gcn-logsig-rnn-2":
                self.blocks.append(("rnn2", basis, cfg.num_segments2))
            in_dims = [basis.dim + (basis.width if cfg.use_start_points else 0)] * len(self.blocks)
        self.rnn_in, self.rnn_in2 = in_dims[0], in_dims[-1]
        self.param_shapes = self._checked_shapes(in_dims)
        # on the mapped route path i of a group reads its rows and start points
        # at its channels [time, t + i * w, ..., t + (i + 1) * w - 1]
        if cfg.variant == "frame-rnn" or ((t + w) ** cfg.degree > MAPPED_TENSOR_LIMIT and not bare):
            return
        self.raw_basis = enumerate_lyndon(t + w, cfg.degree)
        k = max((k for k in range(1, J + 1) if (t + k * w) ** cfg.degree <= MAPPED_TENSOR_LIMIT), default=1)
        for first in range(0, J, k):
            count = min(k, J - first)
            basis = enumerate_lyndon(t + count * w, cfg.degree)
            gather = []
            for i in range(count):
                letters = np.r_[:t, t + i * w : t + (i + 1) * w]
                columns = basis.letter_positions(letters)
                gather.append(np.r_[columns, basis.dim + letters] if cfg.use_start_points else columns)
            self.joint_groups.append((first, count, basis, np.array(gather)))

    def _checked_shapes(self, in_dims) -> dict:
        """Every parameter's shape; a ``ValueError`` naming the keys behind any shape past ``MAX_ARRAY_ENTRIES``."""
        cfg = self.config
        F, D = self.spec
        H, C, J = cfg.hidden, cfg.num_classes, self.joints
        shapes = {}  # name -> (shape, the keys that set it)
        if cfg.variant == "el-logsig-rnn" and cfg.use_embedding:
            c1, E = cfg.embed_channels, cfg.embed_dim
            shapes["embed.point_w"] = (D, c1), ("coords", "embed_channels")
            shapes["embed.point_b"] = (c1,), ("embed_channels",)
            shapes["embed.mix_w"] = (F * c1, E), ("joints", "embed_channels", "embed_dim")
            shapes["embed.mix_b"] = (E,), ("embed_dim",)
        if cfg.variant.startswith("gcn"):
            shapes["gcn.theta"] = (D, cfg.gcn_dim), ("coords", "gcn_dim")
        frame_keys = ("joints", "coords") if cfg.variant == "frame-rnn" else ()
        streams = {}  # one stream's layer rows and recurrent outputs, or frame-rnn's resampled frames
        for index, (prefix, _, segments) in enumerate(self.blocks):
            if index:
                shapes["gcn2.theta"] = (H, cfg.gcn_dim), ("hidden", "gcn_dim")
            for name, shape in _rnn_param_shapes(in_dims[index], H, cfg.cell).items():
                shapes[f"{prefix}.{name}"] = shape, ("hidden",) + (frame_keys if name == "u" else ())
            if segments is not None:
                key = "num_segments2" if index else "num_segments"
                streams[f"each stream's {prefix} rows"] = (J * segments, in_dims[index]), ("joints", key)
                streams[f"each stream's {prefix} outputs"] = (J * segments, H), ("joints", key, "hidden")
            elif cfg.resample_frames:
                streams["each resampled stream"] = (cfg.resample_frames, F * D), ("resample_frames", "joints", "coords")
        shapes["head.w"] = (H, C), ("hidden", "num_classes")
        shapes["head.b"] = (C,), ("num_classes",)
        values = dict(vars(cfg), joints=F, coords=D)
        for name, (shape, keys) in {**shapes, **streams}.items():
            if math.prod(shape) > MAX_ARRAY_ENTRIES:
                named = ", ".join(f"{key!r} = {values[key]}" for key in keys)
                raise ValueError(
                    f"{named} make {name} {shape}, past the array size budget of {MAX_ARRAY_ENTRIES} entries"
                )
        return {name: shape for name, (shape, _) in shapes.items()}

    @classmethod
    def build(cls, config: ModelConfig, spec: tuple[int, int], seed_or_rng=0) -> "StreamClassifier":
        rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
        model = cls(config, spec, {})
        model.params = {
            name: np.zeros(shape) if len(shape) == 1 else _glorot(rng, *shape)
            for name, shape in model.param_shapes.items()
        }
        return model

    # -- blocks ---------------------------------------------------------------

    @np.errstate(over="ignore", invalid="ignore")  # the layer or map_rows raises on what overflows
    def _block_matrix(self, index):
        """Block ``index``'s ``L``: ``time (+)`` gcn's ``theta`` or the embedding's matrix (None without it).

        The embedding's has ``[1, frames] @ matrix = embedding_forward(frames)``:
        ``(I_F (x) point_w) mix_w`` on the flattened frames, ``point_b mix_w +
        mix_b`` on the constant channel.
        """
        cfg, p = self.config, self.params
        if cfg.variant == "el-logsig-rnn":
            if not cfg.use_embedding:  # nothing in front of the layer to train
                return None
            F, D = self.spec
            mix = p["embed.mix_w"].reshape(F, -1, cfg.embed_dim)
            # head[f, 0] = point_b mix_f and head[f, 1:] = point_w mix_f
            head = np.concatenate([p["embed.point_b"][None], p["embed.point_w"]]) @ mix
            matrix = np.concatenate([(head[:, 0].sum(axis=0) + p["embed.mix_b"])[None], head[:, 1:].reshape(F * D, -1)])
        else:
            matrix = p["gcn2.theta" if index else "gcn.theta"]
        t = int(cfg.use_time)
        out = np.zeros((t + matrix.shape[0], t + matrix.shape[1]))
        out[:t, :t] = 1.0
        out[t:, t:] = matrix
        return out

    def _block_matrix_backward(self, index, g_matrix, grads):
        """Add block ``index``'s parameter gradients, given the gradient of ``_block_matrix(index)``."""
        cfg, p = self.config, self.params
        t = int(cfg.use_time)
        g = g_matrix[t:, t:]
        if cfg.variant != "el-logsig-rnn":
            grads["gcn2.theta" if index else "gcn.theta"] += g
            return
        F, D = self.spec
        mix = p["embed.mix_w"].reshape(F, -1, cfg.embed_dim)
        weights = np.concatenate([p["embed.point_b"][None], p["embed.point_w"]])
        g_head = np.concatenate([np.broadcast_to(g[0], (F, 1, g.shape[1])), g[1:].reshape(F, D, -1)], axis=1)
        g_weights = (g_head @ mix.transpose(0, 2, 1)).sum(axis=0)
        grads["embed.point_b"] += g_weights[0]
        grads["embed.point_w"] += g_weights[1:]
        grads["embed.mix_w"] += (weights.T @ g_head).reshape(F * mix.shape[1], -1)
        grads["embed.mix_b"] += g[0]

    def _frame_inputs(self, prepared):
        """Recurrent inputs ``(B, T, F * D)`` of frame-rnn, longest first, and each row's length and sample."""
        lengths = np.array([len(stream) for stream in prepared])
        order = np.argsort(-lengths, kind="stable")
        x = np.zeros((len(prepared), lengths.max(), self.rnn_in))
        for row, i in enumerate(order):
            x[row, : lengths[i]] = prepared[i]
        return x, lengths[order], order

    def _mapped_inputs(self, prepared, basis, segments):
        """Recurrent inputs ``(B * J, segments, c)`` of block 0's mapped route from the prepared rows.

        The prepared rows of all ``B * J`` raw paths are stacked and carried
        through block 0's ``L`` with ``map_rows``.  Without the embedding ``L``
        is the identity and the prepared rows are the inputs.
        """
        raw = np.concatenate([rows for rows, _ in prepared])
        matrix = self._block_matrix(0)
        if matrix is None:
            return raw, None
        raw, dim = raw.reshape(-1, raw.shape[-1]), self.raw_basis.dim
        rows, map_cache = map_rows(raw[:, :dim], matrix, self.raw_basis, basis)
        if self.config.use_start_points:
            rows = np.concatenate([rows, raw[:, dim:] @ matrix], axis=1)
        return rows.reshape(-1, segments, rows.shape[1]), (raw[:, dim:], map_cache)

    def _mapped_inputs_backward(self, cache, gx, grads):
        """Add the gradients of block 0's ``L`` on the mapped route for the recurrent inputs' gradient ``gx``."""
        if cache is None:
            return
        starts, map_cache = cache  # the raw start points and the map's cache
        gx = gx.reshape(-1, gx.shape[-1])
        dim = self.blocks[0][1].dim
        g_matrix = map_rows_backward(map_cache, gx[:, :dim])
        if self.config.use_start_points:
            g_matrix += starts.T @ gx[:, dim:]
        self._block_matrix_backward(0, g_matrix, grads)

    def _path_inputs(self, index, inputs, basis, segments):
        """Recurrent inputs ``(B * J, segments, c)`` of a per-path block: the layer on each ``raw[j] @ L``.

        Entries are ``(times, raw, ahat)`` with a sample's ``J`` raw paths ``raw``
        ``(J, n, w)``; ``L`` is ``_block_matrix(index)``.
        """
        matrix = self._block_matrix(index)
        rows, states = [], []
        for times, raw, _ in inputs:
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite path raises below
                paths = raw @ matrix
            if not np.isfinite(paths).all():
                raise FloatingPointError("the block's paths raw @ L are not finite: they overflow float64")
            for points in paths:
                r, state = self._rows(times, points, basis, segments)
                rows.append(r)
                states.append(state)
        return np.stack(rows), (inputs, matrix, states)

    def _path_inputs_backward(self, index, cache, gx, grads):
        """Add a per-path block's parameter gradients to ``grads``, given its inputs' gradient ``gx``.

        ``L``'s gradient is ``sum_j raw[j].T g_points[j]``.  For gcn-logsig-rnn-2's
        second block returns the first block's outputs' gradient ``(B * J,
        segments, hidden)``: ``ahat.T`` on each joint's ``_tail_backward(g_points[j] @ L.T)``.
        """
        inputs, matrix, states = cache
        J, d, sp = self.joints, states[0].rows.shape[1], self.config.use_start_points
        g_matrix, g_frames = 0.0, []
        for i, (_, raw, ahat) in enumerate(inputs):
            g_points = np.stack([
                backward_from_state(states[i * J + j], g[:, :d], g[:, d:] if sp else None)
                for j, g in enumerate(gx[i])
            ])
            g_matrix += raw.reshape(-1, raw.shape[-1]).T @ g_points.reshape(-1, g_points.shape[-1])
            if index:
                g_frames.append(np.einsum("jg,jnh->gnh", ahat, self._tail_backward(g_points @ matrix.T)))
        self._block_matrix_backward(index, g_matrix, grads)
        return np.concatenate(g_frames) if index else None

    def _tail(self, seq, times):
        """Accumulative and time layers: flattened frames ``(n, c)`` -> the raw path's points."""
        cfg = self.config
        if cfg.use_accumulative:
            seq = accumulative_layer(seq)
        if cfg.use_time:
            seq = time_incorporated_layer(seq, times)
        return seq

    def _mix(self, ahat, frames):
        """The graph-mixed frames ``sum_g ahat[j, g] X_g`` of each joint ``j`` side by side, ``(n, J * w)``."""
        return np.einsum("jg,ngd->njd", ahat, frames).reshape(frames.shape[0], -1)

    def _joint_paths(self, times, seq):
        """The ``J`` raw paths ``(J, n, t + w)``, ``[time, tail of its w columns]``, of a sequence ``(n, J * w)``."""
        flat = self._tail(seq, times)
        t, n, J = int(self.config.use_time), flat.shape[0], self.joints
        coords = flat[:, t:].reshape(n, J, -1).swapaxes(0, 1)
        paths = np.empty((J, n, t + coords.shape[2]))
        paths[..., :t], paths[..., t:] = flat[:, :t], coords
        return paths

    def _tail_backward(self, g_points):
        """Adjoint of ``_tail`` on points ``(..., n, c)``."""
        cfg = self.config
        if cfg.use_time:
            g_points = g_points[..., 1:]
        if cfg.use_accumulative:
            g_points = _accumulative_backward(g_points)
        return g_points

    def _rows(self, times, points, basis, num_segments):
        """Layer rows of one path over its segments (and start points, if configured) and the layer state."""
        path = TimedPath(times, points)
        partition = SegmentPartition.spanning(path, num_segments)
        rows, state = logsig_sequence_forward(path, partition, self.config.degree, basis)
        if self.config.use_start_points:
            rows = np.concatenate([rows, state.starts], axis=1)
        return rows, state

    # -- forward / backward over a batch -------------------------------------

    def _prepare(self, samples) -> list:
        """Check each sample and build its parameter-free inputs, one entry per sample.

        The entry is frame-rnn's flattened or resampled frames ``(T, F *
        D)``; on block 0's mapped route ``(rows, ahat)``, each raw path's
        layer rows and raw start points ``(J, segments, c)`` gathered from one
        layer call per group; or on the per-path route ``(times, raw, ahat)``,
        the ``J`` raw paths ``(J, n, w)`` from one tail call.  ``ahat`` is the
        gcn variants' normalized adjacency, None in el-logsig-rnn.
        ``_forward`` reads any list of entries, so a caller may prepare a set
        once and run batches of it.  A non-finite layer row is a
        ``FloatingPointError`` naming the stream.
        """
        entries = []
        for i, s in enumerate(samples):
            if _sample_spec(s) != tuple(self.spec):
                raise ValueError(
                    f"sample {i} has (joints, coords) {_sample_spec(s)}, "
                    f"the model takes {tuple(self.spec)}"
                )
            try:
                frames = s.points[:, None, :] if isinstance(s, TimedPath) else s.frames
                entries.append(self._prepare_one(s.times, frames, getattr(s, "adjacency", None)))
            except FloatingPointError as exc:
                raise FloatingPointError(f"stream {i}: {exc}") from exc
        return entries

    def _prepare_one(self, times, frames, adjacency):
        cfg, n = self.config, len(times)
        seq = flat = frames.reshape(n, -1)
        if cfg.variant == "frame-rnn":
            if cfg.resample_frames > 0:  # the interpolant on a uniform grid of resample_frames frames
                seq = evaluate(TimedPath(times, seq), np.linspace(times[0], times[-1], cfg.resample_frames))
            return seq
        # the sequence in front of the tail: the gcn variants' graph-mixed
        # frames, or el's [1, frames], in which the embedding is linear (the
        # frames themselves without it)
        ahat = None
        if cfg.variant != "el-logsig-rnn":
            if adjacency is None:
                raise ValueError("gcn variants require an adjacency matrix")
            ahat = normalized_adjacency(adjacency)
            seq = self._mix(ahat, frames)
        elif cfg.use_embedding:
            seq = np.ones((n, seq.shape[1] + 1))
            seq[:, 1:] = flat
        if self.raw_basis is None:
            return times, self._joint_paths(times, seq), ahat
        w, rows = seq.shape[1] // self.joints, []
        for first, count, basis, gather in self.joint_groups:
            group = self._tail(seq[:, first * w : (first + count) * w], times)
            rows.append(self._rows(times, group, basis, self.blocks[0][2])[0].take(gather, axis=1).swapaxes(0, 1))
        return np.concatenate(rows), ahat

    def _forward(self, prepared):
        """Logits ``(B, classes)`` and the backward cache of a list of ``_prepare`` entries."""
        cfg, p = self.config, self.params
        B, J = len(prepared), self.joints
        batch_cache = {"blocks": []}
        if cfg.variant == "frame-rnn":
            x, lengths, order = self._frame_inputs(prepared)
            out, batch_cache["rnn"] = _rnn_forward_batch(x, *_rnn_params(p, "rnn"), cfg.cell, lengths)
            feats = out[np.arange(B), lengths - 1][np.argsort(order)]
            batch_cache["last"] = (lengths - 1, order)
        else:
            inputs = prepared
            for index, (prefix, basis, segments) in enumerate(self.blocks):
                if index == 0 and self.raw_basis is not None:
                    x, block_cache = self._mapped_inputs(inputs, basis, segments)
                else:
                    x, block_cache = self._path_inputs(index, inputs, basis, segments)
                out, batch_cache[prefix] = _rnn_forward_batch(x, *_rnn_params(p, prefix), cfg.cell)
                batch_cache["blocks"].append(block_cache)
                out = out.reshape(B, J, segments, cfg.hidden)
                if index + 1 < len(self.blocks):  # this block's outputs are the next one's frames
                    times, frames = np.arange(segments, dtype=np.float64), out.swapaxes(1, 2)
                    inputs = [(times, self._joint_paths(times, self._mix(entry[-1], f)), entry[-1])
                              for f, entry in zip(frames, inputs)]
            feats = out[:, :, -1, :].mean(axis=1)
            batch_cache["last"] = (segments - 1, np.repeat(np.arange(B), J))
        with np.errstate(over="ignore", invalid="ignore"):  # train checks the loss
            logits = feats @ p["head.w"] + p["head.b"]
        batch_cache["feats"] = feats
        return logits, batch_cache

    def forward_batch(self, samples):
        """Logits ``(B, classes)`` of the samples and the cache ``backward_batch`` reads."""
        return self._forward(self._prepare(samples))

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
            g_out = self._path_inputs_backward(index, block_cache, gx, grads)
        return grads

    def logits(self, sample) -> np.ndarray:
        out, _ = self.forward_batch([sample])
        return out[0]

    def predict(self, samples, batch_size: int = 64) -> np.ndarray:
        return self._predict(self._prepare(samples), batch_size)

    def _predict(self, prepared, batch_size: int = 64) -> np.ndarray:
        preds = np.empty(len(prepared), dtype=np.intp)
        for start in range(0, len(prepared), batch_size):
            logits, _ = self._forward(prepared[start : start + batch_size])
            preds[start : start + batch_size] = logits.argmax(axis=1)
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


def _prepared_set(model: StreamClassifier, samples, name: str) -> list:
    try:
        return model._prepare(samples)
    except FloatingPointError as exc:
        raise RuntimeError(f"{name} {exc}") from exc


def train(
    config: ModelConfig,
    train_samples,
    train_labels,
    settings: TrainSettings | None = None,
    eval_samples=None,
    eval_labels=None,
) -> TrainResult:
    """Mini-batch SGD with momentum on softmax cross-entropy.

    The training and eval sets are prepared once (``StreamClassifier._prepare``,
    timed as ``prepare_seconds``); every step and every per-epoch evaluation
    runs the model's parameter-dependent part on the prepared entries.
    """
    settings = settings or TrainSettings()
    settings.validate()
    if len(train_samples) == 0:
        raise ValueError("empty training set")
    labels = _checked_labels(train_labels, config.num_classes)
    if eval_samples is not None:
        eval_labels = _checked_labels(eval_labels, config.num_classes)
    rng = np.random.default_rng(settings.seed)
    model = StreamClassifier.build(config, input_spec(train_samples), rng)
    tic = time.perf_counter()
    prepared = _prepared_set(model, train_samples, "training")
    eval_prepared = None if eval_samples is None else _prepared_set(model, eval_samples, "eval")
    prepare_seconds = time.perf_counter() - tic
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
            # map_rows, the layer, _path_inputs and the recurrent unroll raise
            # FloatingPointError on what overflows, before the loss can go non-finite
            try:
                logits, cache = model._forward([prepared[i] for i in idx])
                with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises below
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
        if eval_prepared is not None:
            record["eval_accuracy"] = _evaluation(model, eval_prepared, eval_labels).accuracy
        trace.append(record)
    return TrainResult(config=config, params=model.params, trace=trace, prepare_seconds=prepare_seconds)


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
    labels = _checked_labels(labels, model.config.num_classes)
    return _evaluation(model, model._prepare(samples), labels)


def _evaluation(model: StreamClassifier, prepared, labels: np.ndarray) -> EvalResult:
    """``evaluate_model`` on prepared entries and checked labels."""
    C = model.config.num_classes
    preds = model._predict(prepared)
    confusion = np.zeros((C, C), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    return EvalResult(
        accuracy=float((preds == labels).mean()),
        confusion=confusion,
        predictions=preds,
    )
