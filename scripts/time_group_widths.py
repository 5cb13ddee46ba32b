#!/usr/bin/env python3
"""Time one log-signature layer call on one path over a range of path widths.

For each degree and width, ``logsig_sequence_forward`` runs on one random
path of ``--samples`` samples in 4 segments, with its basis built first;
prints the median time of a call over repetitions (each the mean of
``--calls`` calls), the path's top tensor level size ``width**degree`` and
the call's time as a multiple of the narrowest width's call (by default
width 3: one 2-D gcn joint with its time channel).  A call is mostly fixed
cost, so joints are merged while one call on the merged group costs at most
two one-joint calls: ``neural.GROUP_TENSOR_LIMIT`` was set from this
script's output.

Pin BLAS to one thread for stable numbers, e.g.
``OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 scripts/time_group_widths.py``.
"""

import argparse
import time

import numpy as np

from logsigrnn import SegmentPartition, TimedPath
from logsigrnn.logsig_layer import logsig_sequence_forward
from logsigrnn.lyndon import enumerate_lyndon

WIDTHS = {2: [3, 5, 7, 11, 15, 21, 31, 39, 45], 3: [3, 5, 7, 9, 11, 12, 13, 15], 4: [3, 4, 5, 6, 7]}


def time_widths(degree, widths, samples, calls, reps):
    rng = np.random.default_rng(7)
    partition = SegmentPartition.uniform(0.0, 1.0, 4)
    base = None
    for width in widths:
        basis = enumerate_lyndon(width, degree)
        times = np.sort(rng.uniform(0.0, 1.0, samples))
        times[0], times[-1] = 0.0, 1.0
        path = TimedPath(times, rng.normal(size=(samples, width)))
        logsig_sequence_forward(path, partition, degree, basis)  # warm the basis tables
        means = []
        for _ in range(reps):
            start = time.perf_counter()
            for _ in range(calls):
                logsig_sequence_forward(path, partition, degree, basis)
            means.append((time.perf_counter() - start) / calls)
        us = np.median(means) * 1e6
        base = base or (width, us)
        print(
            f"degree {degree} width {width} ({width**degree} entries): {us:.1f} us, "
            f"{us / base[1]:.2f}x width {base[0]}",
            flush=True,
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degree", type=int, action="append", choices=sorted(WIDTHS),
                        help="degree to time (repeatable); default: 2, 3 and 4")
    parser.add_argument("--widths", type=int, nargs="+", metavar="WIDTH",
                        help="path widths, narrowest first; default: a grid per degree")
    parser.add_argument("--samples", type=int, default=40, help="samples per path (default 40)")
    parser.add_argument("--calls", type=int, default=200, help="calls per repetition (default 200)")
    parser.add_argument("--reps", type=int, default=9, help="repetitions per width (default 9)")
    args = parser.parse_args()
    if args.samples < 2 or args.calls < 1 or args.reps < 1 or any(w < 1 for w in args.widths or []):
        parser.error("--samples must be at least 2, and --calls, --reps and every width at least 1")
    print("one-path layer call, median over repetitions, 4 segments")
    for degree in args.degree or sorted(WIDTHS):
        try:  # a basis or a layer call past its size budget
            time_widths(degree, args.widths or WIDTHS[degree], args.samples, args.calls, args.reps)
        except ValueError as exc:
            parser.error(str(exc))


if __name__ == "__main__":
    main()
