"""Trainable sequence classifiers built around the log-signature layer.

Everything is plain float64 numpy with hand-derived reverse-mode gradients:
path transformation layers (pointwise embedding, accumulative, time
channel, per-frame graph convolution), vanilla/LSTM recurrent cells, and
the model variants that compose them.  In the logsig variants the
recurrent part unrolls over the fixed number of partition segments, never
over the raw frame count, so streams of any length share one parameter
shape.  The frame-rnn baseline unrolls over each stream's frames, the whole
batch at once in lockstep by frame count (longest first, each step on the
streams that still have a frame).  No step reads a filler frame, but the
frames are one zero-filled ``(B, T, F * D)`` array, whose filler rows the
input projection ``x @ u`` and its adjoint ``x.T @ gz`` multiply too.

Every block reads each sample's ``J`` parameter-free raw paths and one
matrix ``L``: el-logsig-rnn is the one-path case with its embedding as
``L``, a gcn block has one path per joint and ``L = time (+) theta``.  On the
mapped route, taken by the first block whenever a raw path is narrow enough
for the degree, the layer runs on groups of raw paths and each path's rows
are gathered from its group's.  The recurrent inputs are then a linear
function of those rows, ``rows @ K`` with ``K = lie_map(L) (+) L``
(``logsig_layer.lie_map``), so ``K`` is folded into the first cell's input
projection and the inputs themselves are never formed; the model holds
the last ``K`` and rebuilds it only when ``L`` changes.  Every other block
runs the layer once per sample on the stack of its ``J`` paths ``raw @ L``.
Each cell reads one input projection of all its steps.  See
``StreamClassifier``.

``StreamClassifier._prepare`` checks each sample and builds what no
parameter changes (raw-path rows or raw paths, gcn's normalized adjacency,
frame-rnn's frames), and ``_forward`` does everything that reads a
parameter.  ``train`` prepares its training and eval sets once per call, so
the first block's steps on the mapped route run no layer call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .logsig_layer import (
    SegmentPartition,
    backward_from_state,
    check_kernel_size,
    lie_map,
    lie_map_backward,
    logsig_sequence_forward,
    logsig_stack_forward,
)
from .lyndon import check_array_size, check_basis_size, enumerate_lyndon
from .paths import TimedPath, evaluate

__all__ = [
    "ModelConfig",
    "TrainSettings",
    "TrainResult",
    "StreamClassifier",
    "accumulative_layer",
    "time_incorporated_layer",
    "normalized_adjacency",
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
# dense level factors grow with raw_width**degree.  It decides the route
# only; GROUP_TENSOR_LIMIT sizes the groups on the mapped route.  Table
# ``routes`` of scripts/time_rules.report times both routes' training step
# and one-stream logits for el-logsig-rnn and gcn-logsig-rnn on each side of
# this limit.  Its rows do not bear the limit out: the mapped step is the
# faster one past it too (rows "el 5 2 4 3" at 1728 entries, 14.4 against
# 18.0 ms on 20-120 samples; "gcn 5 3 2 5" and "gcn 5 3 6 5" at 1024, 12.3
# against 121 and 408 against 3119 ms).  With block 0's fold held between calls,
# one-stream logits are faster on the mapped route at half the rows within
# it (rows "el 1 2 8 3", "el 1 2 8 4", "gcn 5 3 6 4") and on the per-path
# route at the other half (rows "el 2 2 4 3", "gcn 5 2 2 5", "gcn 5 3 2 4").
MAPPED_TENSOR_LIMIT = 512

# On the mapped route block 0 runs the layer on the largest number k of raw
# paths whose [time, k paths' columns] has at most this many top-level
# entries: a call is mostly fixed cost, and joints are merged while one call
# on the group costs at most two one-joint calls.  Table ``groups`` of
# scripts/time_rules.report times, at degrees 2-4 on paths of 40 and 320
# samples, one call on k 2-D joints, one stacked call of the k one-joint
# paths and k one-joint calls.  On 40 samples its degree-3 rows cross two
# one-joint calls around this limit (rows "3 40 5", 197 us, and "3 40 6",
# 246 us, against 2 x 114), its degree-4 rows well within it (row "4 40 2",
# 482 us against 2 x 195); on 320 samples they cross well within it (rows
# "3 320 2", 387 us against 2 x 171, and "4 320 2", 1014 us against 2 x
# 435), and the stacked call costs less than the group (rows "3 320 4",
# "4 320 2").
GROUP_TENSOR_LIMIT = 1500


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


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of adjacency-plus-self-loops."""
    s = adjacency + np.eye(adjacency.shape[0])
    inv_sqrt = 1.0 / np.sqrt(s.sum(axis=1))
    return s * inv_sqrt[:, None] * inv_sqrt[None, :]


# ---------------------------------------------------------------------------
# recurrent cells


_RNN_KEYS = ("u", "w", "b", "v", "vb")


def _rnn_params(params: dict, prefix: str) -> list:
    return [params[f"{prefix}.{k}"] for k in _RNN_KEYS]


def _rnn_forward_batch(xu, w, b, v, vb, cell, lengths=None):
    """Outputs V h_t + vb of a cell over the input projection ``xu`` ``(B, T, gates)``.

    Row r runs ``lengths[r]`` (default T) steps, rows longest first; its
    outputs past them are zero.  Step t reads ``xu[:, t]`` in place of the
    input's ``x_t @ u``, so each block forms its own projection in one
    product over all steps; the output projection is one product too.
    """
    B, T, G = xu.shape
    H = w.shape[0]
    valid = None if lengths is None else lengths[:, None] > np.arange(T)
    counts = [B] * T if valid is None else valid.sum(axis=0).tolist()
    hs = np.zeros((B, T + 1, H))  # hs[:, t + 1] is h_t, hs[:, 0] the zero start
    if cell == "lstm":
        # one tanh gives every gate: sigmoid(z) = (1 + tanh(z / 2)) / 2 off the g block
        scale = np.full(G, 0.5)
        scale[2 * H : 3 * H] = 1.0
        c_state = np.zeros((B, H))
    steps = []
    for t, n in enumerate(counts):
        z = hs[:n, t] @ w
        z += xu[:n, t]
        z += b
        h = hs[:n, t + 1]
        if cell == "vanilla":
            np.tanh(z, out=h)
            continue
        z *= scale
        th = np.tanh(z, out=z)
        gates = th * 0.5
        gates += 0.5
        i, f, o = gates[:, :H], gates[:, H : 2 * H], gates[:, 3 * H :]
        g = th[:, 2 * H : 3 * H]
        c_prev = c_state[:n]
        c_state = f * c_prev
        c_state += i * g
        tc = np.tanh(c_state)
        np.multiply(o, tc, out=h)
        steps.append((i, f, g, o, c_prev, c_state, tc))
    outputs = (hs[:, 1:].reshape(-1, H) @ v + vb).reshape(B, T, H)
    if valid is not None:
        outputs[~valid] = 0.0
    return outputs, (w, v, cell, hs, steps, valid, counts)


def _rnn_backward_batch(cache, g_out):
    """Gradients ``(gz, gw, gb, gv, gvb)`` of ``_rnn_forward_batch``'s outputs; ``gz`` is the input projection's."""
    w, v, cell, hs, steps, valid, counts = cache
    B, T = hs.shape[0], hs.shape[1] - 1
    H = w.shape[0]
    if valid is not None:  # outputs past a row's steps are constant
        g_out = np.where(valid[..., None], g_out, 0.0)
    g_flat = g_out.reshape(-1, H)
    gv = hs[:, 1:].reshape(-1, H).T @ g_flat
    gvb = g_flat.sum(axis=0)
    g_hs = (g_flat @ v.T).reshape(B, T, H)
    gz = np.zeros((B, T, w.shape[1]))
    gh_carry = np.zeros((B, H))
    gc_carry = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        n = counts[t]
        gh = g_hs[:n, t] + gh_carry[:n]
        gzt = gz[:n, t]
        if cell == "vanilla":
            h = hs[:n, t + 1]
            gzt[...] = gh * (1.0 - h * h)
        else:
            i, f, g, o, c_prev, c_state, tc = steps[t]
            gc = gc_carry[:n] + gh * o * (1.0 - tc * tc)
            gzt[:, :H] = gc * g * i * (1.0 - i)
            gzt[:, H : 2 * H] = gc * c_prev * f * (1.0 - f)
            gzt[:, 2 * H : 3 * H] = gc * i * (1.0 - g * g)
            gzt[:, 3 * H :] = gh * tc * o * (1.0 - o)
            gc_carry[:n] = gc * f
        gh_carry[:n] = gzt @ w.T
    gz_flat = gz.reshape(-1, gz.shape[-1])
    gw = hs[:, :-1].reshape(-1, H).T @ gz_flat
    gb = gz_flat.sum(axis=0)
    return gz, gw, gb, gv, gvb


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


def input_spec(samples) -> tuple[int, int]:
    """(joints, coords) shared by all samples; paths count as one joint."""
    spec = None
    for s in samples:
        cur = s.num_joints, s.num_coords
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
    """Sequence classifier over timed paths, each with its joint layout.

    Every logsig variant is a stack of blocks ``(rnn param prefix, Lyndon
    basis, partition)``.  A block reads each sample's ``J`` parameter-free raw
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

    One grid rule: a block's partition is one ``SegmentPartition.uniform(0,
    1, segments)`` per model, which the layer maps affinely onto each path's
    own time span in every call.  gcn-logsig-rnn-2's second block reads
    every sample on block 0's steps ``0 .. num_segments - 1`` (``grid2``).

    Block 0 takes the mapped route of ``_mapped_inputs`` while ``(t + w) **
    degree`` is at most ``MAPPED_TENSOR_LIMIT``, and always when el has no
    embedding.  The layer then runs forward only, when a sample is prepared,
    once per entry ``(first path, count, basis, gather)`` of ``joint_groups``
    on the tail of the group's columns, ``count`` raw paths side by side with
    one time channel, and path ``first + i``'s rows and start points are the
    group's columns ``gather[i]`` (``LyndonBasis.letter_positions``).  A
    group holds the largest number ``k`` of paths with ``(t + k * w) **
    degree`` within ``GROUP_TENSOR_LIMIT``; el's one group is its one path,
    gathered whole.  The recurrent inputs are the batch's ``B * J *
    segments`` prepared rows times ``K = lie_map(L) (+) L``, and the cell
    reads ``rows @ K @ u`` (``_unroll``); its backward forms ``A = rows.T @
    gz`` for the input projection's gradient ``gz``, so ``u``'s gradient is
    ``K.T @ A``, ``K``'s is ``A @ u.T`` and ``L``'s is the map's adjoint plus
    the start points' block.  The model holds one ``K`` and the map's cache,
    keyed on the bytes of the parameters ``L`` is built from, and builds
    ``L`` and a new ``K`` only when those bytes change: ``logits`` and
    batched prediction on unchanged parameters build neither, and a
    training step builds one.  The slot holds one more ``K`` and map cache, at ``embed_dim`` 8 on 2-D paths (raw width
    4, width 9) 80 and 199 KB at degree 3, 1.4 and 4.9 MB at degree 4.
    Without the embedding ``K`` is the identity and is not formed.

    Every other block takes the per-path route of ``_path_inputs``: one
    layer call and one adjoint call per sample on its stack ``raw @ L``
    ``(J, n, c)``, and ``L``'s gradient is ``sum_j raw[j].T`` times the
    paths' point gradients.  ``raw_basis`` is None on this route; setting it
    to None forces it.

    frame-rnn has one block with no basis: its cell reads the flattened
    frames of every stream in one ragged unroll, rows longest first, and the
    head reads each stream's output at its own last frame.

    ``forward_batch(samples)`` is ``_forward(_prepare(samples))``:
    ``_prepare`` builds each sample's parameter-free inputs and ``_forward``
    runs every layer that reads a parameter on them; ``train`` prepares each
    set once.  Each sample's preparation, ``_forward`` and ``backward_batch``
    run under ``np.errstate(over="raise", invalid="raise")``: a value that
    overflows float64 raises ``FloatingPointError`` where it is computed.

    Building a model checks every block's basis against
    ``lyndon.check_basis_size`` before any basis is built, and every shape
    against ``lyndon.check_array_size`` before any array is built; a size past a
    budget is a ``ValueError`` naming the keys that set it.
    """

    def __init__(self, config: ModelConfig, spec: tuple[int, int], params: dict):
        config.validate()
        self.config = config
        self.spec = spec
        self.params = params
        self._fold_memo = None  # block 0's last (parameter bytes, K, lie_map cache), see _mapped_inputs
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
        mapped = cfg.variant != "frame-rnn" and ((t + w) ** cfg.degree <= MAPPED_TENSOR_LIMIT or bare)
        self.param_shapes = self._checked_shapes(in_dims)
        # after _checked_shapes, which refuses a segment count past the array budget
        self.blocks = [(prefix, basis, None if basis is None else SegmentPartition.uniform(0.0, 1.0, segments))
                       for prefix, basis, segments in self.blocks]
        if cfg.variant == "gcn-logsig-rnn-2":  # block 0's outputs are block 1's frames, on the grid 0..num_segments-1
            try:  # block 1's layer calls all have this one size
                check_kernel_size(cfg.num_segments, cfg.num_segments2, basis.width, cfg.degree)
            except ValueError as exc:
                raise ValueError(
                    f"config keys 'num_segments' = {cfg.num_segments}, 'num_segments2' = "
                    f"{cfg.num_segments2} and 'gcn_dim' = {cfg.gcn_dim}: {exc}"
                ) from exc
            self.grid2 = np.arange(cfg.num_segments, dtype=np.float64)
        if not mapped:
            return
        # on the mapped route path i of a group reads its rows and start points
        # at its channels [time, t + i * w, ..., t + (i + 1) * w - 1]
        self.raw_basis = enumerate_lyndon(t + w, cfg.degree)
        k = max((k for k in range(1, J + 1) if (t + k * w) ** cfg.degree <= GROUP_TENSOR_LIMIT), default=1)
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
        """Every parameter's shape; ``lyndon.check_array_size`` refuses any shape, naming the keys behind it."""
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
            check_array_size(shape, name, ", ".join(f"{key!r} = {values[key]}" for key in keys))
        return {name: shape for name, (shape, _) in shapes.items()}

    @classmethod
    def build(cls, config: ModelConfig, spec: tuple[int, int], seed_or_rng=0) -> "StreamClassifier":
        rng = np.random.default_rng(seed_or_rng)
        model = cls(config, spec, {})
        model.params = {
            name: np.zeros(shape) if len(shape) == 1 else _glorot(rng, *shape)
            for name, shape in model.param_shapes.items()
        }
        return model

    # -- blocks ---------------------------------------------------------------

    def _block_params(self, index):
        """Names of the parameters block ``index``'s ``L`` is built from (none without one).

        ``_block_matrix`` and its backward read the parameters through these
        names only, so they are all ``L`` depends on.
        """
        cfg = self.config
        if cfg.variant == "el-logsig-rnn":
            return ("embed.point_b", "embed.point_w", "embed.mix_w", "embed.mix_b") if cfg.use_embedding else ()
        return ("gcn2.theta",) if index else ("gcn.theta",)

    def _block_matrix(self, index):
        """Block ``index``'s ``L``: ``time (+)`` gcn's ``theta`` or the embedding's matrix (None without it).

        The embedding's has ``[1, frames] @ matrix`` equal to the pointwise
        per-joint map then the joint mix of the frames:
        ``(I_F (x) point_w) mix_w`` on the flattened frames, ``point_b mix_w +
        mix_b`` on the constant channel.
        """
        inputs = [self.params[name] for name in self._block_params(index)]
        if not inputs:  # el-logsig-rnn without the embedding: nothing in front of the layer to train
            return None
        if len(inputs) == 1:  # gcn's theta
            matrix = inputs[0]
        else:
            point_b, point_w, mix_w, mix_b = inputs
            F, D = self.spec
            mix = mix_w.reshape(F, -1, self.config.embed_dim)
            # head[f, 0] = point_b mix_f and head[f, 1:] = point_w mix_f
            head = np.concatenate([point_b[None], point_w]) @ mix
            matrix = np.concatenate([(head[:, 0].sum(axis=0) + mix_b)[None], head[:, 1:].reshape(F * D, -1)])
        t = int(self.config.use_time)
        out = np.zeros((t + matrix.shape[0], t + matrix.shape[1]))
        out[:t, :t] = 1.0
        out[t:, t:] = matrix
        return out

    def _block_matrix_backward(self, index, g_matrix, grads):
        """Add block ``index``'s parameter gradients, given the gradient of ``_block_matrix(index)``."""
        names = self._block_params(index)
        t = int(self.config.use_time)
        g = g_matrix[t:, t:]
        if len(names) == 1:  # gcn's theta
            grads[names[0]] += g
            return
        point_b, point_w, mix_w, _ = (self.params[name] for name in names)
        F, D = self.spec
        mix = mix_w.reshape(F, -1, self.config.embed_dim)
        weights = np.concatenate([point_b[None], point_w])
        g_head = np.concatenate([np.broadcast_to(g[0], (F, 1, g.shape[1])), g[1:].reshape(F, D, -1)], axis=1)
        g_weights = (g_head @ mix.transpose(0, 2, 1)).sum(axis=0)
        g_mix = (weights.T @ g_head).reshape(F * mix.shape[1], -1)
        for name, g_param in zip(names, (g_weights[0], g_weights[1:], g_mix, g[0])):
            grads[name] += g_param

    def _frame_inputs(self, prepared):
        """Recurrent inputs ``(B, T, F * D)`` of frame-rnn, longest first, and each row's length and sample."""
        lengths = np.array([len(stream) for stream in prepared])
        order = np.argsort(-lengths, kind="stable")
        x = np.zeros((len(prepared), lengths.max(), self.rnn_in))
        for row, i in enumerate(order):
            x[row, : lengths[i]] = prepared[i]
        return x, lengths[order], order

    def _mapped_inputs(self, prepared, basis):
        """Block 0's prepared rows ``(B * J, segments, c)``, its fold ``K`` and ``lie_map``'s cache, on the mapped route.

        The recurrent inputs are ``rows @ K`` with ``K = lie_map(L) (+) L``
        for block 0's ``L`` (the start points' image is ``L``'s).  ``K`` is a
        function of the parameters ``L`` is built from (``_block_params``)
        alone, so the model keeps one slot ``(their bytes, K, cache)`` and
        builds ``L`` and ``K`` afresh only when those bytes differ from the
        held ones (``-0.0`` against ``0.0`` differs): repeated calls on
        unchanged parameters reuse it, and each training step, which updates
        them in place, builds one.  The slot costs one more ``K`` and map
        cache, 280 KB at ``train-el-d3``'s shape.  A held ``K`` is never
        written to, since a backward cache may still read it.  Without the
        embedding ``L`` is the identity and ``K`` None: the prepared rows are
        the inputs.
        """
        rows = np.concatenate([rows for rows, _ in prepared])
        names = self._block_params(0)
        if not names:
            return rows, None, None
        key = tuple(self.params[name].tobytes() for name in names)
        held = self._fold_memo
        if held is not None and held[0] == key:
            return rows, *held[1:]
        matrix = self._block_matrix(0)
        source, sp = self.raw_basis, self.config.use_start_points
        fold = np.zeros((source.dim + sp * source.width, basis.dim + sp * basis.width))
        _, map_cache = lie_map(matrix, source, basis, out=fold[: source.dim, : basis.dim])
        if sp:
            fold[source.dim :, basis.dim :] = matrix
        self._fold_memo = key, fold, map_cache
        return rows, fold, map_cache

    def _mapped_inputs_backward(self, map_cache, g_fold, grads):
        """Add the gradients of block 0's ``L`` on the mapped route, given ``K``'s gradient ``g_fold``."""
        source, target, _ = map_cache
        g_matrix = lie_map_backward(map_cache, g_fold[: source.dim, : target.dim])
        if self.config.use_start_points:
            g_matrix += g_fold[source.dim :, target.dim :]
        self._block_matrix_backward(0, g_matrix, grads)

    def _path_inputs(self, index, inputs, basis, partition):
        """Recurrent inputs ``(B * J, segments, c)`` of a per-path block: one layer call per sample on its ``raw @ L``.

        Entries are ``(times, raw, ahat)`` with a sample's ``J`` raw paths
        ``raw`` ``(J, n, w)``; ``L`` is ``_block_matrix(index)``.
        """
        matrix, degree = self._block_matrix(index), self.config.degree
        rows, states = zip(*(self._rows(*logsig_stack_forward(times, raw @ matrix, partition, degree, basis))
                             for times, raw, _ in inputs))
        return np.concatenate(rows), (inputs, matrix, states)

    def _path_inputs_backward(self, index, cache, gx, grads):
        """Add a per-path block's parameter gradients to ``grads``, given its inputs' gradient ``gx``.

        ``L``'s gradient is ``sum_j raw[j].T g_points[j]``.  For gcn-logsig-rnn-2's
        second block returns the first block's outputs' gradient ``(B * J,
        segments, hidden)``: ``ahat.T`` on each joint's ``_tail_backward(g_points[j] @ L.T)``.
        """
        inputs, matrix, states = cache
        J, d, sp = self.joints, states[0].rows.shape[-1], self.config.use_start_points
        g_matrix, g_frames = 0.0, []
        for (_, raw, ahat), state, g in zip(inputs, states, gx):
            g_points = backward_from_state(state, g[..., :d], g[..., d:] if sp else None)
            g_matrix += raw.reshape(-1, raw.shape[-1]).T @ g_points.reshape(-1, g_points.shape[-1])
            if index:
                g_tail = self._tail_backward(g_points @ matrix.T)
                g_frames.append((ahat.T @ g_tail.reshape(J, -1)).reshape(g_tail.shape))
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
        return (ahat @ frames).reshape(frames.shape[0], -1)

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

    def _rows(self, rows, state):
        """A layer call's rows, with its start points if configured, and its state."""
        if self.config.use_start_points:
            rows = np.concatenate([rows, state.starts], axis=-1)
        return rows, state

    # -- forward / backward over a batch -------------------------------------

    def _prepare(self, samples) -> list:
        """Check each sample and build its parameter-free inputs, one entry per sample.

        The entry is frame-rnn's points or resampled points ``(T, F *
        D)``; on block 0's mapped route ``(rows, ahat)``, each raw path's
        layer rows and raw start points ``(J, segments, c)`` gathered from one
        layer call per group; or on the per-path route ``(times, raw,
        ahat)``, the ``J`` raw paths ``(J, n, w)`` from one tail call.  No
        entry holds a partition: the layer maps the block's one onto each
        sample.  ``ahat`` is the gcn variants' normalized adjacency, None in
        el-logsig-rnn.
        ``_forward`` reads any list of entries, so a caller may prepare a set
        once and run batches of it.  A value that overflows float64 is a
        ``FloatingPointError``, and a layer refusal a ``ValueError``, naming
        the stream.
        """
        entries = []
        for i, s in enumerate(samples):
            if (s.num_joints, s.num_coords) != tuple(self.spec):
                raise ValueError(
                    f"sample {i} has (joints, coords) {s.num_joints, s.num_coords}, "
                    f"the model takes {tuple(self.spec)}"
                )
            try:
                entries.append(self._prepare_one(s))
            except (FloatingPointError, ValueError) as exc:
                raise type(exc)(f"stream {i}: {exc}") from exc
        return entries

    @np.errstate(over="raise", invalid="raise")
    def _prepare_one(self, sample):
        cfg, times, n = self.config, sample.times, sample.times.size
        seq = sample.points
        if cfg.variant == "frame-rnn":
            if cfg.resample_frames > 0:  # the interpolant on a uniform grid of resample_frames frames
                seq = evaluate(sample, np.linspace(times[0], times[-1], cfg.resample_frames))
            return seq
        # the sequence in front of the tail: the gcn variants' graph-mixed
        # frames, or el's [1, frames], in which the embedding is linear (the
        # frames themselves without it)
        ahat = None
        if cfg.variant != "el-logsig-rnn":
            if sample.adjacency is None:
                raise ValueError("gcn variants require an adjacency matrix")
            ahat = normalized_adjacency(sample.adjacency)
            seq = self._mix(ahat, sample.frames)
        elif cfg.use_embedding:
            seq = np.ones((n, seq.shape[1] + 1))
            seq[:, 1:] = sample.points
        partition = self.blocks[0][2]
        if self.raw_basis is None:  # the layer runs in _forward; refuse its sizes here, naming the stream
            check_kernel_size(n, partition.num_segments, self.blocks[0][1].width, cfg.degree)
            return times, self._joint_paths(times, seq), ahat
        # the tail is columnwise, so a group's raw paths are columns of the whole sequence's
        flat, t = self._tail(seq, times), int(cfg.use_time)
        w, rows = seq.shape[1] // self.joints, []
        for first, count, basis, gather in self.joint_groups:
            columns = flat[:, t + first * w : t + (first + count) * w]
            group = TimedPath(times, np.concatenate([flat[:, :t], columns], axis=1))
            group_rows, _ = self._rows(*logsig_sequence_forward(group, partition, cfg.degree, basis))
            rows.append(group_rows.take(gather, axis=1).swapaxes(0, 1))
        return np.concatenate(rows), ahat

    @np.errstate(over="raise", invalid="raise")
    def _forward(self, prepared):
        """Logits ``(B, classes)`` and the backward cache of a list of ``_prepare`` entries."""
        cfg, p = self.config, self.params
        B, J = len(prepared), self.joints
        batch_cache = {"blocks": []}
        if cfg.variant == "frame-rnn":
            x, lengths, order = self._frame_inputs(prepared)
            out = self._unroll(batch_cache, "rnn", x, None, lengths)
            feats = out[np.arange(B), lengths - 1][np.argsort(order)]
            batch_cache["last"] = (lengths - 1, order)
        else:
            inputs = prepared
            for index, (prefix, basis, partition) in enumerate(self.blocks):
                if index == 0 and self.raw_basis is not None:
                    x, fold, block_cache = self._mapped_inputs(inputs, basis)
                else:
                    fold = None
                    x, block_cache = self._path_inputs(index, inputs, basis, partition)
                out = self._unroll(batch_cache, prefix, x, fold)
                batch_cache["blocks"].append(block_cache)
                out = out.reshape(B, J, partition.num_segments, cfg.hidden)
                if index + 1 < len(self.blocks):  # this block's outputs are the next one's frames
                    times = self.grid2
                    inputs = [(times, self._joint_paths(times, self._mix(entry[-1], f)), entry[-1])
                              for f, entry in zip(out.swapaxes(1, 2), inputs)]
            feats = out[:, :, -1, :].sum(axis=1) / J
            batch_cache["last"] = (partition.num_segments - 1, np.repeat(np.arange(B), J))
        logits = feats @ p["head.w"] + p["head.b"]
        batch_cache["feats"] = feats
        return logits, batch_cache

    def _unroll(self, batch_cache, prefix, x, fold, lengths=None):
        """Outputs of block ``prefix``'s cell over the inputs ``x @ fold`` (``x`` without ``fold``), ``x`` ``(rows, steps, c)``.

        The input projection is one product over all steps:
        ``multi_dot`` takes ``(x @ fold) @ u`` or ``x @ (fold @ u)``,
        whichever costs less at these shapes.
        """
        u, w, b, v, vb = _rnn_params(self.params, prefix)
        flat = x.reshape(-1, x.shape[-1])
        xu = flat @ u if fold is None else np.linalg.multi_dot([flat, fold, u])
        out, cache = _rnn_forward_batch(xu.reshape(*x.shape[:2], -1), w, b, v, vb, self.config.cell, lengths)
        batch_cache[prefix] = (x, fold, *cache)
        return out

    def forward_batch(self, samples):
        """Logits ``(B, classes)`` of the samples and the cache ``backward_batch`` reads."""
        return self._forward(self._prepare(samples))

    @np.errstate(over="raise", invalid="raise")
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
            prefix, basis, partition = self.blocks[index]
            x, fold, *rnn_cache = batch_cache[prefix]
            gz, *g_rnn = _rnn_backward_batch(rnn_cache, g_out)
            gz = gz.reshape(-1, gz.shape[-1])
            # A = x.T @ gz is u's gradient without a fold; with one, u's is K.T @ A and K's A @ u.T
            a = x.reshape(-1, x.shape[-1]).T @ gz
            u = self.params[f"{prefix}.u"]
            grads[f"{prefix}.u"] += a if fold is None else fold.T @ a
            for name, g in zip(_RNN_KEYS[1:], g_rnn):
                grads[f"{prefix}.{name}"] += g
            if basis is None:  # frame-rnn's cell reads the frames themselves
                continue
            block_cache = batch_cache["blocks"][index]
            if index == 0 and self.raw_basis is not None:  # only L is trained, through the fold
                if fold is not None:
                    self._mapped_inputs_backward(block_cache, a @ u.T, grads)
                continue
            gx = (gz @ u.T).reshape(B, J, partition.num_segments, -1)
            g_out = self._path_inputs_backward(index, block_cache, gx, grads)
        return grads

    def logits(self, sample) -> np.ndarray:
        out, _ = self.forward_batch([sample])
        return out[0]

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
            # _forward and backward_batch raise FloatingPointError where a value overflows
            try:
                logits, cache = model._forward([prepared[i] for i in idx])
                loss, g_logits = cross_entropy(logits, labels[idx])
                if not np.isfinite(loss):
                    raise FloatingPointError(loss)
                grads = model.backward_batch(cache, g_logits)
            except FloatingPointError as exc:
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch starting {start}: {exc}"
                ) from exc
            if settings.clip_norm is not None:
                total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
                if total > settings.clip_norm:
                    scale = settings.clip_norm / total
                    for g in grads.values():
                        g *= scale
            for name, p in model.params.items():  # v = momentum * v - learning_rate * g, in place
                v = velocity[name]
                v *= settings.momentum
                v -= settings.learning_rate * grads[name]
                p += v
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
