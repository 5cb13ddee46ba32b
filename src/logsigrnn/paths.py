"""Piecewise-linear paths and their truncated (log-)signatures.

A :class:`TimedPath` is a strictly increasing timestamp grid plus one
d-dimensional point per timestamp, always interpreted as its continuous
piecewise-linear interpolant.  Signatures are computed by folding the
closed-form exponential of each linear segment with the graded tensor
product, so they depend on the visiting order of the points but never on
the timestamps themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lyndon import LyndonBasis, check_basis_size, enumerate_lyndon, project_to_basis
from .tensor_algebra import TruncatedTensor, exp_level_one, tensor_log, tensor_mul

__all__ = [
    "TimedPath",
    "signature",
    "log_signature",
    "restrict",
    "reparameterize",
    "insert_sample_times",
    "reverse_path",
    "evaluate",
]


@dataclass(frozen=True)
class TimedPath:
    """Timestamped point sequence, read as a piecewise-linear path.

    A skeleton is a path whose points are its flattened frames: points
    ``(n, joints, coords)`` become ``(n, joints * coords)`` with
    ``num_joints`` recording the layout, and ``adjacency`` is its optional
    joints x joints bone graph.  A plain path is one joint.
    """

    times: np.ndarray
    points: np.ndarray
    adjacency: np.ndarray | None = None
    num_joints: int = 1

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64).reshape(-1)
        points = np.asarray(self.points, dtype=np.float64)
        if points.ndim == 1:
            points = points[:, None]
        elif points.ndim == 3:
            object.__setattr__(self, "num_joints", points.shape[1])
            points = points.reshape(points.shape[0], points.shape[1] * points.shape[2])
        if points.ndim != 2 or points.shape[0] != times.size:
            raise ValueError(
                f"points must be (n, d) with one row per timestamp, got {points.shape}"
            )
        joints = self.num_joints
        if joints < 1 or points.shape[1] % joints:
            raise ValueError(f"{points.shape[1]} point columns do not split into {joints} joints")
        if times.size < 1:
            raise ValueError("a path needs at least one sample")
        if points.shape[1] == 0:
            raise ValueError("a point needs at least one coordinate")
        if not (np.isfinite(times).all() and np.isfinite(points).all()):
            raise ValueError("timestamps and points must be finite")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("timestamps must be strictly increasing")
        t0, t1 = float(times[0]), float(times[-1])  # Python floats: no numpy overflow warning or error
        if not np.isfinite(t1 - t0):
            raise ValueError(f"the time span {t0!r} .. {t1!r} overflows float64")
        if self.adjacency is not None:
            adjacency = np.asarray(self.adjacency, dtype=np.float64)
            if adjacency.shape != (joints, joints):
                raise ValueError("adjacency must be joints x joints")
            if not np.all(np.isfinite(adjacency) & (adjacency >= 0)):
                raise ValueError("adjacency weights must be finite and non-negative")
            # np.allclose's own test at its default tolerances, on entries already checked finite
            asymmetric = not np.all(np.abs(adjacency - adjacency.T) <= 1e-8 + 1e-5 * np.abs(adjacency.T))
            if asymmetric or np.any(np.diag(adjacency) != 0):
                raise ValueError("adjacency must be symmetric with a zero diagonal (self-loops are implicit)")
            object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    @property
    def num_samples(self) -> int:
        return self.times.size

    @property
    def width(self) -> int:
        return self.points.shape[1]

    @property
    def num_coords(self) -> int:
        return self.width // self.num_joints

    @property
    def frames(self) -> np.ndarray:
        """The points as frames ``(n, joints, coords)``."""
        return self.points.reshape(self.num_samples, self.num_joints, self.num_coords)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])


def evaluate(path: TimedPath, at: np.ndarray | float) -> np.ndarray:
    """Values of the piecewise-linear interpolant at the given times."""
    at = np.atleast_1d(np.asarray(at, dtype=np.float64))
    t, p = path.times, path.points
    if np.any(at < t[0]) or np.any(at > t[-1]):
        raise ValueError("evaluation times outside the path's time span")
    if path.num_samples == 1:
        return np.broadcast_to(p[0], (at.size, path.width)).copy()
    idx = np.clip(np.searchsorted(t, at, side="right") - 1, 0, t.size - 2)
    w = (at - t[idx]) / (t[idx + 1] - t[idx])
    return (1.0 - w)[:, None] * p[idx] + w[:, None] * p[idx + 1]


@np.errstate(over="raise", invalid="raise")
def signature(path: TimedPath, degree: int) -> TruncatedTensor:
    """Truncated signature of the path, via the segment-exponential fold.

    Raises ``FloatingPointError`` where the fold overflows float64.
    """
    check_basis_size(path.width, degree)  # MAX_SIG_ENTRIES counts exactly its storage
    out = TruncatedTensor.unit(path.width, degree)
    if path.num_samples < 2:
        return out
    for increment in np.diff(path.points, axis=0):
        if not increment.any():
            continue
        out = tensor_mul(out, exp_level_one(increment, degree))
    return out


@np.errstate(over="raise", invalid="raise")
def log_signature(
    path: TimedPath, degree: int, basis: LyndonBasis | None = None
) -> np.ndarray:
    """Lyndon-basis coordinates of the truncated log-signature.

    Raises ``FloatingPointError`` where the signature or its log overflows
    float64, as the layer does.
    """
    if basis is None:
        basis = enumerate_lyndon(path.width, degree)
    if path.num_samples < 2:
        return np.zeros(basis.dim)
    return project_to_basis(tensor_log(signature(path, degree)), basis)


def restrict(path: TimedPath, start: float, stop: float) -> TimedPath:
    """Sub-path over [start, stop]: the path refined at both ends, cut to the interval."""
    t = path.times
    if not (t[0] <= start < stop <= t[-1]):
        raise ValueError(
            f"restriction interval [{start}, {stop}] outside time span [{t[0]}, {t[-1]}]"
        )
    refined = insert_sample_times(path, [start, stop])
    inside = (refined.times >= start) & (refined.times <= stop)
    return replace(refined, times=refined.times[inside], points=refined.points[inside])


def reparameterize(path: TimedPath, new_times) -> TimedPath:
    """Same points on a new strictly increasing time grid.

    The (log-)signature is unchanged: it never reads the timestamps.
    """
    new_times = np.asarray(new_times, dtype=np.float64).reshape(-1)
    if new_times.size != path.num_samples:
        raise ValueError("new time grid must match the number of samples")
    if new_times.size > 1 and not np.all(np.diff(new_times) > 0):
        raise ValueError("time reparameterization must be strictly increasing")
    return replace(path, times=new_times)


def insert_sample_times(path: TimedPath, extra_times) -> TimedPath:
    """Insert interpolated samples at the given times (collinear refinement).

    Times already on the grid are ignored.  The interpolant, and hence the
    (log-)signature, is unchanged.
    """
    extra = np.asarray(extra_times, dtype=np.float64).reshape(-1)
    lo, hi = path.span
    if extra.size and (extra.min() < lo or extra.max() > hi):
        raise ValueError("inserted times must lie inside the path's time span")
    times = np.concatenate([path.times, extra])
    order = np.argsort(times, kind="stable")
    # a time already on the grid, or repeated, sorts right after its first copy, the one kept
    # (np.setdiff1d or np.unique would import numpy.ma on first use, about 1.8 MiB resident)
    order = order[np.append(True, times[order[1:]] != times[order[:-1]])]
    if order.size == path.num_samples:
        return path
    points = np.concatenate([path.points, evaluate(path, extra)], axis=0)[order]
    return replace(path, times=times[order], points=points)


def reverse_path(path: TimedPath) -> TimedPath:
    """Traverse the same points backwards on a forward-running clock."""
    t = path.times
    return replace(path, times=t[0] + t[-1] - t[::-1], points=path.points[::-1].copy())
