#!/usr/bin/env python3
"""Time block 0's two routes and its joint groups: the sweep behind neural's route and group rules.

Prints one ``logsig-report v1``.  ``scripts/time_rules.report`` is a run with
the defaults; the comments of ``neural.MAPPED_TENSOR_LIMIT`` and
``GROUP_TENSOR_LIMIT`` cite its rows.

Table ``routes``: per shape and stream length, two models with the same
parameters over the same 32 random streams, one forced onto each route of
block 0 (mapped by building under a patched ``MAPPED_TENSOR_LIMIT``, per-path
by ``raw_basis = None``), taking turns per repetition.  Medians of preparing
the streams, of one training step on them (``_forward``, loss,
``backward_batch``; the step builds block 0's fold ``K``, as after a parameter
update) and of a one-stream ``logits`` call (on the step's parameters, whose
``K`` the model holds); the largest gaps between the routes' logits and
gradients, relative to the per-path ones.

Table ``groups``: per degree, path length and k joints of 2 coords with a
time channel, medians of the mean time of one layer call on the k-joint group
``[time, k joints' columns]``, of one ``logsig_stack_forward`` of the k
one-joint paths and of k one-joint calls, in 4 segments.
"""

import argparse
import os
import time
from unittest import mock

# BLAS is pinned to one thread before numpy loads, as in perfbench/run.py
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from logsigrnn import ModelConfig, SegmentPartition, StreamClassifier, TimedPath, neural  # noqa: E402
from logsigrnn.logsig_layer import logsig_sequence_forward, logsig_stack_forward  # noqa: E402
from logsigrnn.lyndon import enumerate_lyndon  # noqa: E402
from logsigrnn.reports import RunReport, environment, render_report  # noqa: E402

# (variant, joints, coords, embed_dim or gcn_dim, degree): both sides of MAPPED_TENSOR_LIMIT
SHAPES = [
    ("el", 1, 2, 8, 3), ("el", 2, 2, 4, 3), ("el", 1, 2, 8, 4), ("el", 1, 3, 8, 4), ("el", 1, 7, 8, 3),
    ("el", 5, 2, 4, 3), ("gcn", 5, 2, 2, 5), ("gcn", 5, 2, 2, 6), ("gcn", 5, 3, 2, 4), ("gcn", 5, 3, 2, 5),
    ("gcn", 5, 3, 6, 4), ("gcn", 5, 3, 6, 5),
]
LENGTHS = ((20, 120), (160, 480))
# the per-path step of gcn 5x3, gcn_dim 6, degree 5 holds about 140 MiB of
# layer state per 160-480-sample stream, 4.5 GiB for 32: timed on short streams only
ROUTE_RUNS = [(shape, lengths) for shape in SHAPES for lengths in LENGTHS
              if shape != ("gcn", 5, 3, 6, 5) or lengths == LENGTHS[0]]
GROUP_JOINTS = {2: [1, 2, 5, 10, 18, 19, 25], 3: [1, 2, 3, 4, 5, 6, 7], 4: [1, 2, 3, 4]}
TIMED, ROUTES = ("prepare", "step", "logits"), ("mapped", "per_path")
ROUTE_COLUMNS = ["variant", "joints", "coords", "dim", "degree", "samples", "entries", "route",
                 *(f"{what}_ms_{route}" for what in TIMED for route in ROUTES), "logits_gap", "gradient_gap"]
GROUP_COLUMNS = ["degree", "samples", "joints", "width", "entries", "group_us", "stack_us", "singles_us"]


def _times(rng, n):
    times = np.sort(rng.uniform(0.0, 1.0, n))
    times[0], times[-1] = 0.0, 1.0
    return times


def _gap(got, ref):
    return float(f"{np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300):.2e}")


def time_routes(variant, joints, coords, dim, degree, lengths, reps):
    rng = np.random.default_rng(7)
    adjacency = np.eye(joints, k=1) + np.eye(joints, k=-1)
    samples = [TimedPath(_times(rng, n), rng.normal(size=(n, joints, coords)), adjacency)
               for n in rng.integers(lengths[0], lengths[1] + 1, 32)]
    labels = np.arange(len(samples)) % 4
    config = ModelConfig(variant=f"{variant}-logsig-rnn", degree=degree, embed_dim=dim, gcn_dim=dim, hidden=32)
    params = StreamClassifier.build(config, (joints, coords), 0).params
    for name in ("embed.point_b", "embed.mix_b")[: 2 * (variant == "el")]:
        params[name] = rng.normal(size=params[name].shape)
    models = {"per_path": StreamClassifier(config, (joints, coords), params)}
    rule = ROUTES[models["per_path"].raw_basis is None]
    models["per_path"].raw_basis = None
    with mock.patch.object(neural, "MAPPED_TENSOR_LIMIT", np.inf):
        models["mapped"] = StreamClassifier(config, (joints, coords), params)
    times, results = {(what, route): [] for what in TIMED for route in ROUTES}, {}
    for rep in range(reps):
        for route in ROUTES[:: 1 - 2 * (rep % 2)]:
            model, start = models[route], time.perf_counter()
            prepared = model._prepare(samples)
            model._fold_memo = None  # a training step changes L
            middle = time.perf_counter()
            logits, cache = model._forward(prepared)
            results[route] = logits, model.backward_batch(cache, neural.cross_entropy(logits, labels)[1])
            times["prepare", route].append(middle - start)
            times["step", route].append(time.perf_counter() - middle)
            calls = []
            for sample in samples:
                start = time.perf_counter()
                model.logits(sample)
                calls.append(time.perf_counter() - start)
            times["logits", route].append(np.median(calls))
    (l_map, g_map), (l_path, g_path) = results["mapped"], results["per_path"]
    entries = models["mapped"].raw_basis.width ** degree
    return [
        variant, joints, coords, dim, degree, f"{lengths[0]}-{lengths[1]}", entries, rule,
        *(round(float(np.median(times[key])) * 1e3, 4) for key in times),
        _gap(l_map, l_path), max(_gap(g_map[k], g_path[k]) for k in g_map),
    ]


def _mean_us(call, calls, reps):
    call()  # warm the basis tables
    means = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        means.append((time.perf_counter() - start) / calls)
    return round(float(np.median(means)) * 1e6, 2)


def time_groups(degree, samples, k, calls, reps):
    rng = np.random.default_rng(7)
    partition = SegmentPartition.uniform(0.0, 1.0, 4)
    times = _times(rng, samples)
    joints = np.concatenate([np.broadcast_to(times[:, None], (k, samples, 1)), rng.normal(size=(k, samples, 2))], 2)
    group = TimedPath(times, np.concatenate([times[:, None], *joints[:, :, 1:]], axis=1))
    one, many = enumerate_lyndon(3, degree), enumerate_lyndon(group.width, degree)
    paths = [TimedPath(times, points) for points in joints]
    return [
        degree, samples, k, group.width, group.width**degree,
        _mean_us(lambda: logsig_sequence_forward(group, partition, degree, many), calls, reps),
        _mean_us(lambda: logsig_stack_forward(times, joints, partition, degree, one), calls, reps),
        _mean_us(lambda: [logsig_sequence_forward(path, partition, degree, one) for path in paths], calls, reps),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", nargs=5, action="append", metavar=("VARIANT", "JOINTS", "COORDS", "DIM", "DEGREE"),
                        help="routes shape (repeatable): el or gcn, DIM is embed_dim or gcn_dim; default: a grid")
    parser.add_argument("--degree", type=int, action="append", choices=sorted(GROUP_JOINTS),
                        help="groups degree (repeatable); default: 2, 3 and 4")
    parser.add_argument("--calls", type=int, default=50, help="layer calls per groups repetition (default 50)")
    parser.add_argument("--reps", type=int, default=5, help="repetitions (default 5)")
    args = parser.parse_args()
    if args.calls < 1 or args.reps < 1:
        parser.error("--calls and --reps must be at least 1")
    wall = time.perf_counter()
    report = RunReport("time_rules", seed=7, config={
        **environment(), "reps": args.reps, "calls": args.calls,
        "MAPPED_TENSOR_LIMIT": neural.MAPPED_TENSOR_LIMIT, "GROUP_TENSOR_LIMIT": neural.GROUP_TENSOR_LIMIT,
    })
    shapes = []
    for variant, *sizes in args.shape or []:  # refused before any model is built
        given = " ".join([variant, *sizes])
        if variant not in ("el", "gcn"):
            parser.error(f"--shape {given}: VARIANT must be el or gcn, got {variant!r}")
        for name, size in zip(("JOINTS", "COORDS", "DIM", "DEGREE"), sizes):
            if not (size.isdecimal() and int(size) >= 1):
                parser.error(f"--shape {given}: {name} must be an integer >= 1, got {size!r}")
        shapes.append((variant, *map(int, sizes)))
    try:  # a --shape past a size budget
        runs = [(shape, lengths) for shape in shapes for lengths in LENGTHS]
        rows = [time_routes(*shape, lengths, args.reps) for shape, lengths in runs or ROUTE_RUNS]
        report.add_table("routes", ROUTE_COLUMNS, rows)
        report.add_table("groups", GROUP_COLUMNS, [
            time_groups(degree, samples, k, args.calls, args.reps)
            for degree in args.degree or sorted(GROUP_JOINTS) for samples in (40, 320) for k in GROUP_JOINTS[degree]
        ])
    except ValueError as exc:
        parser.error(str(exc))
    report.timings["wall_s"] = round(time.perf_counter() - wall, 1)
    print(render_report(report), end="")


if __name__ == "__main__":
    main()
