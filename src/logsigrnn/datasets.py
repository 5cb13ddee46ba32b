"""Synthetic labeled stream sets, stream perturbations, and stream file IO.

The default generator emits four classes of planar curves that share scale
and point statistics but differ in traversal order and enclosed area:
clockwise circles, counterclockwise circles, figure-eights, and straight
sweeps.  Sample lengths, sampling grids, and speed profiles are all
randomized per sample and reproducible from a single seed.

Stream files are JSON-lines text: an optional header object followed by
one self-describing record per sample.  Floats survive a save/load round
trip exactly (shortest-roundtrip decimal).
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .lyndon import enumerate_lyndon
from .paths import TimedPath, log_signature, signature

__all__ = [
    "LabeledStreamSet",
    "StreamParseError",
    "DEFAULT_CLASSES",
    "gen_synthetic",
    "perturb_drop",
    "perturb_insert",
    "upsample_linear",
    "mape",
    "digit_polyline",
    "mape_drop_study",
    "save_streams",
    "load_streams",
]

DEFAULT_CLASSES = ("circle_cw", "circle_ccw", "figure_eight", "line_sweep")

# a stream file's labels lie below this; without a header's class list,
# loading names classes class_0 .. class_<largest label>
MAX_CLASSES = 1 << 16


@dataclass
class LabeledStreamSet:
    samples: list
    labels: np.ndarray
    class_names: tuple[str, ...] = DEFAULT_CLASSES
    seed: int | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if len(self.samples) != self.labels.size:
            raise ValueError("one label per sample is required")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= len(self.class_names)):
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return len(self.samples)

    def subset(self, indices) -> "LabeledStreamSet":
        indices = np.asarray(indices, dtype=np.intp)
        return LabeledStreamSet(
            [self.samples[i] for i in indices],
            self.labels[indices],
            self.class_names,
            self.seed,
        )


class StreamParseError(ValueError):
    """Malformed stream file; carries the offending record index."""


def _sorted_times(rng, n: int) -> np.ndarray:
    # irregular grid on [0, 1] with pinned endpoints and strictly positive gaps; [0] for one sample
    gaps = rng.uniform(0.2, 1.8, size=n - 1)
    t = np.concatenate([[0.0], np.cumsum(gaps)])
    return t / t[-1] if n > 1 else t


def _speed_profile(rng, n: int) -> np.ndarray:
    # monotone warp of [0, 1]: traversal speed varies along the curve; [0] for one sample
    inc = rng.gamma(2.0, 1.0, size=n - 1) + 1e-3
    s = np.concatenate([[0.0], np.cumsum(inc)])
    return s / s[-1] if n > 1 else s


def _class_curve(name: str, s: np.ndarray, rng) -> np.ndarray:
    if name == "circle_cw" or name == "circle_ccw":
        sign = -1.0 if name == "circle_cw" else 1.0
        phase = rng.uniform(0.0, 2.0 * math.pi)
        ang = phase + sign * 2.0 * math.pi * s
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if name == "figure_eight":
        phase = rng.uniform(0.0, 2.0 * math.pi)
        ang = phase + 2.0 * math.pi * s
        return np.stack([np.sin(ang), 0.5 * np.sin(2.0 * ang)], axis=1)
    if name == "line_sweep":
        ang = rng.uniform(0.0, 2.0 * math.pi)
        u = np.array([math.cos(ang), math.sin(ang)])
        return (2.0 * s - 1.0)[:, None] * u[None, :]
    raise ValueError(f"unknown class {name!r}")


def gen_synthetic(
    count: int,
    seed: int = 0,
    classes: tuple[str, ...] = DEFAULT_CLASSES,
    length_range: tuple[int, int] = (20, 120),
    noise: float = 0.02,
    layout: str = "path",
    joints: int = 5,
) -> LabeledStreamSet:
    """Labeled synthetic streams, deterministic under the seed.

    ``layout="path"`` yields 2-D :class:`TimedPath` samples; ``"skeleton"``
    yields :class:`TimedPath` skeletons whose joints trace scaled and
    shifted copies of the class curve on a chain-graph skeleton.  Each
    stream's sample count is drawn from ``length_range``, ``(shortest,
    longest)`` with ``1 <= shortest <= longest``; a one-sample stream sits at
    time 0.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if layout not in ("path", "skeleton"):
        raise ValueError(f"unknown layout {layout!r}")
    if layout == "skeleton" and joints < 1:
        raise ValueError(f"joints must be >= 1 for the skeleton layout, got {joints}")
    if not classes:
        raise ValueError("need at least one class")
    if not 1 <= length_range[0] <= length_range[1]:
        raise ValueError(f"length_range must satisfy 1 <= shortest <= longest, got {tuple(length_range)}")
    rng = np.random.default_rng(seed)
    samples = []
    labels = np.empty(count, dtype=np.intp)
    adjacency = None
    if layout == "skeleton":
        adjacency = np.zeros((joints, joints))
        for j in range(joints - 1):
            adjacency[j, j + 1] = adjacency[j + 1, j] = 1.0
    for i in range(count):
        label = int(rng.integers(len(classes)))
        n = int(rng.integers(length_range[0], length_range[1] + 1))
        t = _sorted_times(rng, n)
        s = _speed_profile(rng, n)
        base = _class_curve(classes[label], s, rng)
        if layout == "path":
            points = base + rng.normal(0.0, noise, size=base.shape)
            samples.append(TimedPath(t, points))
        else:
            scale = 0.5 + 0.15 * np.arange(joints)
            offset = rng.normal(0.0, 0.3, size=(joints, 2))
            frames = base[:, None, :] * scale[None, :, None] + offset[None, :, :]
            frames = frames + rng.normal(0.0, noise, size=frames.shape)
            samples.append(TimedPath(t, frames, adjacency))
        labels[i] = label
    return LabeledStreamSet(samples, labels, tuple(classes), seed)


def _drop_indices(path: TimedPath, k: int, rng) -> TimedPath:
    n = path.num_samples
    k = min(k, max(n - 2, 0))
    if k == 0:
        return path
    drop = rng.choice(np.arange(1, n - 1), size=k, replace=False)
    return replace(path, times=np.delete(path.times, drop), points=np.delete(path.points, drop, axis=0))


def perturb_drop(path: TimedPath, rate: float, seed) -> TimedPath:
    """Discard floor(rate * n) interior samples uniformly; endpoints survive.

    Timestamps of the surviving samples are unchanged.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"drop rate must be in [0, 1), got {rate}")
    k = int(math.floor(rate * path.num_samples + 1e-9))
    return _drop_indices(path, k, np.random.default_rng(seed))


def perturb_insert(path: TimedPath, rate: float, seed) -> TimedPath:
    """Duplicate floor(rate * n) frames in place.

    Each duplicate repeats the chosen point with a timestamp midway to the
    next sample, keeping the grid strictly increasing.  The traversed curve
    is unchanged, so whole-path log-signatures are exactly preserved.
    Raises ``ValueError`` naming the two samples when no float64 lies
    strictly between their times, the last such pair when there are several.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"insert rate must be in [0, 1), got {rate}")
    rng = np.random.default_rng(seed)
    n = path.num_samples
    k = int(math.floor(rate * n + 1e-9))
    k = min(k, n - 1)
    if k == 0 or n < 2:
        return path
    chosen = np.sort(rng.choice(np.arange(n - 1), size=k, replace=False))
    t = path.times
    # TimedPath keeps the span, and so every gap, finite
    mid = t[chosen] + 0.5 * (t[chosen + 1] - t[chosen])
    narrow = chosen[~((t[chosen] < mid) & (mid < t[chosen + 1]))]
    if narrow.size:
        raise ValueError(_too_narrow(t, int(narrow[-1])))
    points = np.insert(path.points, chosen + 1, path.points[chosen], axis=0)
    return replace(path, times=np.insert(t, chosen + 1, mid), points=points)


def _too_narrow(times, i: int) -> str:
    return (
        f"the interval between samples {i} and {i + 1} (times {float(times[i])!r} and "
        f"{float(times[i + 1])!r}) is too narrow to split"
    )


def upsample_linear(path: TimedPath, factor: int) -> TimedPath:
    """Insert factor-1 equally spaced interpolated samples per segment.

    Raises ``ValueError`` naming the first two samples whose interval has
    too few float64 times to split ``factor`` ways.
    """
    if factor < 1:
        raise ValueError(f"upsample factor must be >= 1, got {factor}")
    if factor == 1 or path.num_samples < 2:
        return path
    t, p = path.times, path.points
    frac = np.arange(factor) / factor
    times = np.append((t[:-1, None] + np.diff(t)[:, None] * frac[None, :]).reshape(-1), t[-1])
    flat = np.flatnonzero(np.diff(times) <= 0)
    if flat.size:
        raise ValueError(_too_narrow(t, int(flat[0]) // factor))
    pts = (p[:-1, None, :] + np.diff(p, axis=0)[:, None, :] * frac[None, :, None])
    pts = pts.reshape(-1, p.shape[1])
    return replace(path, times=times, points=np.vstack([pts, p[-1]]))


def mape(a, b, guard: float = 1e-8) -> float:
    """Mean absolute percentage error of b against reference a.

    Asymmetric in its arguments: the first argument is the reference whose
    magnitudes normalize each component.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return float(np.mean(np.abs(a - b) / np.maximum(np.abs(a), guard)))


def digit_polyline(n: int = 53) -> TimedPath:
    """Pen-trajectory-like planar polyline: a loop plus a descending tail.

    Deterministic; used as the reference curve of the missing-data study.
    """
    s = np.linspace(0.0, 1.0, n)
    loop = s <= 0.65
    u = s[loop] / 0.65
    ang = 0.5 * math.pi + 2.0 * math.pi * u
    x_loop = 0.5 * np.cos(ang)
    y_loop = 0.55 + 0.45 * np.sin(ang)
    v = (s[~loop] - 0.65) / 0.35
    x_tail = x_loop[-1] + 0.25 * np.sin(1.5 * math.pi * v) * (1 - v)
    y_tail = y_loop[-1] - 1.1 * v
    points = np.stack(
        [np.concatenate([x_loop, x_tail]), np.concatenate([y_loop, y_tail])], axis=1
    )
    return TimedPath(s, points)


def mape_drop_study(
    path: TimedPath | None = None,
    degree: int = 3,
    trials: int = 1000,
    max_drop: int = 16,
    seed: int = 0,
) -> dict:
    """Feature error under random sample dropping.

    Each trial drops a uniform 1..max_drop interior samples and measures the
    MAPE of the truncated log-signature and of the signature (degree-0 term
    excluded) against the unperturbed features.
    """
    for name, value in (("trials", trials), ("max_drop", max_drop)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if path is None:
        path = digit_polyline()
    rng = np.random.default_rng(seed)
    basis = enumerate_lyndon(path.width, degree)
    ref_logsig = log_signature(path, degree, basis)
    ref_sig = signature(path, degree).ravel()[1:]
    logsig_errors = np.empty(trials)
    sig_errors = np.empty(trials)
    for trial in range(trials):
        k = int(rng.integers(1, max_drop + 1))
        dropped = _drop_indices(path, k, rng)
        logsig_errors[trial] = mape(ref_logsig, log_signature(dropped, degree, basis))
        sig_errors[trial] = mape(ref_sig, signature(dropped, degree).ravel()[1:])
    return {
        "degree": degree,
        "trials": trials,
        "max_drop": max_drop,
        "mean_logsig_mape": float(logsig_errors.mean()),
        "mean_sig_mape": float(sig_errors.mean()),
        "logsig_mape": logsig_errors,
        "sig_mape": sig_errors,
    }


# ---------------------------------------------------------------------------
# stream files


# each record kind: its data field and the sizes that field's shape declares after "n"
_RECORDS = {"path": ("points", ("d",)), "skeleton": ("frames", ("joints", "coords"))}


def _record_for(sample, label: int) -> dict:
    kind = "path" if sample.num_joints == 1 and sample.adjacency is None else "skeleton"
    field, sizes = _RECORDS[kind]
    data = getattr(sample, field)
    record = {"kind": kind, "label": int(label), "n": sample.num_samples, **dict(zip(sizes, data.shape[1:])),
              "times": sample.times.tolist(), field: data.tolist()}
    if sample.adjacency is not None:
        record["adjacency"] = sample.adjacency.tolist()
    return record


def _opened(file, mode: str):
    """``file`` opened in ``mode`` when it is a path; a caller's handle, left open, otherwise."""
    if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
        return open(file, mode)
    return contextlib.nullcontext(file)


def save_streams(dataset: LabeledStreamSet, target) -> None:
    """Write a stream set as JSON lines (header object first)."""
    with _opened(target, "w") as handle:
        header = {
            "kind": "header",
            "classes": list(dataset.class_names),
            "seed": dataset.seed,
        }
        handle.write(json.dumps(header) + "\n")
        for sample, label in zip(dataset.samples, dataset.labels):
            handle.write(json.dumps(_record_for(sample, label)) + "\n")


def _label(obj: dict) -> int:
    label = obj["label"]
    if type(label) is not int or not 0 <= label < MAX_CLASSES:
        raise ValueError(f"label must be an integer in 0..{MAX_CLASSES - 1}, got {label!r:.40}")
    return label


def _parse_record(obj: dict, where: str):
    kind = obj.get("kind")
    try:
        if not isinstance(kind, str) or kind not in _RECORDS:
            raise ValueError(f"unknown record kind {kind!r}")
        field, sizes = _RECORDS[kind]
        times = np.asarray(obj["times"], dtype=np.float64)
        data = np.asarray(obj[field], dtype=np.float64)
        if times.size != obj["n"] or data.shape != tuple(obj[key] for key in ("n", *sizes)):
            raise ValueError(f"declared {'/'.join(('n', *sizes))} do not match the data")
        # a path record's data are one joint's points, with no bone graph
        adjacency = obj.get("adjacency") if data.ndim == 3 else None
        return TimedPath(times, data, adjacency), _label(obj)
    except (KeyError, TypeError) as exc:
        raise StreamParseError(f"{where}: missing or malformed field ({exc})") from exc
    except ValueError as exc:
        raise StreamParseError(f"{where}: {exc}") from exc


def load_streams(source) -> LabeledStreamSet:
    """Read a stream set written by :func:`save_streams`.

    An empty file yields an empty set.  Malformed records, a label that is
    not an integer in ``0..MAX_CLASSES - 1`` or past the header's classes,
    and a header whose ``classes`` is not a list of strings raise
    :class:`StreamParseError` with the offending line number.
    """
    samples = []
    labels = []
    lines = []
    classes: tuple[str, ...] = ()
    seed = None
    with _opened(source, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"line {lineno}"
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also an integer too long to convert, or nesting too deep
                raise StreamParseError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
            if not isinstance(obj, dict):
                raise StreamParseError(f"{where}: expected a JSON object")
            if obj.get("kind") == "header":
                names = obj.get("classes")  # absent or null: no class list
                if names is not None and not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
                    raise StreamParseError(f"{where}: header classes must be a list of strings, got {names!r:.60}")
                classes, seed = tuple(names or ()), obj.get("seed")
                continue
            sample, label = _parse_record(obj, where)
            samples.append(sample)
            labels.append(label)
            lines.append(lineno)
    if classes:
        for label, lineno in zip(labels, lines):
            if label >= len(classes):
                raise StreamParseError(f"line {lineno}: label {label} is past the header's {len(classes)} classes")
    else:
        top = (max(labels) + 1) if labels else 0
        classes = tuple(f"class_{i}" for i in range(top))
    return LabeledStreamSet(samples, np.asarray(labels, dtype=np.intp), classes, seed)
