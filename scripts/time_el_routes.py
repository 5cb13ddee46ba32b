#!/usr/bin/env python3
"""Time el-logsig-rnn's two layer routes against each other in one process.

For each (joints, coords, embed_dim, degree) shape, two models with the same
parameters run over the same 32 random streams of 20-120 samples,
alternating per repetition: one planned on the mapped route (built while
``neural.MAPPED_TENSOR_LIMIT`` admits its raw tensor) and one on the
per-path route (built while the limit admits nothing).  Prints the median
training step (forward_batch + backward_batch) and the median single-stream
``logits`` call of each route, their ratios, and how far the two routes'
logits and gradients are apart.
``neural.MAPPED_TENSOR_LIMIT`` was set from this script's output.

Pin BLAS to one thread for stable numbers, e.g.
``OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 scripts/time_el_routes.py``.
"""

import argparse
import time

import numpy as np

from logsigrnn import ModelConfig, SkeletonSequence, StreamClassifier, TimedPath, neural
from logsigrnn.neural import cross_entropy

# (joints, coords, embed_dim, degree): both sides of the limit, degrees 2-4
SHAPES = [
    (1, 2, 8, 2), (1, 2, 8, 3), (1, 2, 8, 4), (1, 2, 2, 3), (1, 3, 3, 3), (2, 2, 4, 3),
    (2, 3, 4, 3), (1, 7, 8, 3), (5, 2, 4, 2), (7, 3, 8, 2), (5, 2, 4, 3), (5, 2, 11, 3),
    (1, 3, 8, 4), (2, 2, 5, 4),
]


def _streams(rng, count, joints, coords):
    streams = []
    for n in rng.integers(20, 121, count):
        times = np.sort(rng.uniform(0.0, 1.0, n))
        times[0], times[-1] = 0.0, 1.0
        frames = rng.normal(size=(n, joints, coords))
        streams.append(TimedPath(times, frames[:, 0]) if joints == 1 else SkeletonSequence(times, frames))
    return streams


def time_routes(joints, coords, embed_dim, degree, reps):
    rng = np.random.default_rng(7)
    samples = _streams(rng, 32, joints, coords)
    labels = np.arange(len(samples)) % 4
    config = ModelConfig(degree=degree, num_segments=4, embed_dim=embed_dim, hidden=32, cell="lstm")
    model = StreamClassifier.build(config, (joints, coords), 0)
    for name in ("embed.point_b", "embed.mix_b"):
        model.params[name] = rng.normal(size=model.params[name].shape)
    raw_width = joints * coords + 1 + config.use_time
    routes = {}
    for route, limit in (("mapped", raw_width**degree), ("per-path", 0)):
        neural.MAPPED_TENSOR_LIMIT, saved = limit, neural.MAPPED_TENSOR_LIMIT
        try:
            routes[route] = StreamClassifier(config, (joints, coords), model.params)
        finally:
            neural.MAPPED_TENSOR_LIMIT = saved
    step, predict, results = {r: [] for r in routes}, {r: [] for r in routes}, {}
    for rep in range(reps):
        for route in list(routes)[:: 1 if rep % 2 else -1]:
            model = routes[route]
            start = time.perf_counter()
            logits, cache = model.forward_batch(samples)
            _, g_logits = cross_entropy(logits, labels)
            grads = model.backward_batch(cache, g_logits)
            step[route].append(time.perf_counter() - start)
            results[route] = logits, grads
            calls = []
            for sample in samples:
                start = time.perf_counter()
                model.logits(sample)
                calls.append(time.perf_counter() - start)
            predict[route].append(np.median(calls))
    (l_map, g_map), (l_path, g_path) = results["mapped"], results["per-path"]
    grad_gap = max(np.max(np.abs(g_map[k] - g_path[k])) / max(np.max(np.abs(g_path[k])), 1e-300) for k in g_map)
    s_map, s_path = (np.median(step[r]) * 1e3 for r in routes)
    p_map, p_path = (np.median(predict[r]) * 1e3 for r in routes)
    print(
        f"joints {joints} coords {coords} embed_dim {embed_dim} degree {degree}: "
        f"raw width {raw_width} ({raw_width**degree} entries), embedded width {model.blocks[0][1].width}; "
        f"step {s_map:.1f} / {s_path:.1f} ms ({s_map / s_path:.2f}); "
        f"logits {p_map:.3f} / {p_path:.3f} ms ({p_map / p_path:.2f}); "
        f"logits gap {np.max(np.abs(l_map - l_path)):.1e}, gradient gap {grad_gap:.1e}",
        flush=True,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shape", type=int, nargs=4, action="append", metavar=("JOINTS", "COORDS", "EMBED_DIM", "DEGREE"),
        help="shape to time (repeatable); default: a grid on both sides of the limit",
    )
    parser.add_argument("--reps", type=int, default=9, help="repetitions per route (default 9)")
    args = parser.parse_args()
    print("mapped / per-path, medians over repetitions")
    for shape in args.shape or SHAPES:
        time_routes(*shape, args.reps)


if __name__ == "__main__":
    main()
