"""Workloads, measurement and output checks of the logsigrnn benchmark.

Each run builds one workload's inputs from ``--seed`` with the package's own
generator, writes them to a JSON-lines stream file and reads them back
through ``datasets.load_streams``.  It then

* sets up once (load, model build with its Lyndon basis, one warm-up
  training step) and checks the outputs, outside any timed region;
* untraced (``--trace 0``): repeats rounds of a cold set-up, a
  ``neural.train`` call and single-stream ``StreamClassifier.logits`` calls,
  in a closed loop with one client, for ``--seconds`` seconds, and reports
  the end-to-end metrics;
* traced (``--trace 1``): runs one fixed unit of work untraced and then, with
  every layer wrapped by :mod:`tracing`, a cold set-up plus the same unit,
  and reports the per-layer metrics.  The work is fixed, so counts repeat
  exactly.

Every training step, prediction and check is one attempted operation; one
that raises, goes non-finite or fails its check is a failed operation, and
any failed operation makes the run exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from logsigrnn import cli, datasets, neural, paths
from logsigrnn.logsig_layer import SegmentPartition
from logsigrnn.neural import ModelConfig, TrainSettings

import tracing

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_build" / "perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Model initialisation and batch order are part of the workload, not of its
# inputs: with them fixed, runs on different seeds differ in their streams
# only, and train_loss does not swing with the initial weights.
MODEL_SEED = 0
ROW_TOLERANCE = 1e-12
LOGIT_TOLERANCE = 1e-12


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: ModelConfig
    layout: str  # gen_synthetic layout: "path" or "skeleton"
    length_range: tuple[int, int]
    n_train: int  # streams per neural.train call
    n_predict: int  # held-out streams, predicted one per call
    batch_size: int
    epochs: int  # per neural.train call
    traced_unit: str  # the fixed work of a traced run: "train" or "predict"
    traced_predictions: int = 32
    min_rounds: int = 3  # n_predict * 3 >= 100, so p90 has 10 samples above it
    check_streams: int = 2  # streams whose layer rows and logits are checked


_EL = dict(variant="el-logsig-rnn", num_segments=4, embed_dim=8, hidden=32, cell="lstm")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-el-d3", ModelConfig(degree=3, **_EL), "path", (20, 120),
            n_train=32, n_predict=64, batch_size=32, epochs=2,
            traced_unit="train",
        ),
        Workload(
            "train-el-d2", ModelConfig(degree=2, **_EL), "path", (20, 120),
            n_train=32, n_predict=64, batch_size=32, epochs=2,
            traced_unit="train",
        ),
        Workload(
            "predict-gcn-d3",
            ModelConfig(variant="gcn-logsig-rnn", degree=3, num_segments=4, gcn_dim=6,
                        hidden=32, cell="lstm"),
            "skeleton", (20, 60),
            n_train=16, n_predict=64, batch_size=8, epochs=1,
            traced_unit="predict",
        ),
    )
}


class Ops:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            self.errors.append(what)
        return ok


@dataclasses.dataclass
class State:
    model: neural.StreamClassifier
    train_x: list
    train_y: np.ndarray
    predict_x: list
    records: int


# ---------------------------------------------------------------------------
# inputs and set-up


def write_inputs(wl: Workload, seed: int, target: Path) -> None:
    """Generate the workload's streams from the seed and save them as JSONL.

    Stream lengths are evenly spread over the workload's range and classes
    take turns, so every seed gives the same mix of work and labels; the
    seed picks each stream's curve, clock and noise, and the order.
    """
    rng = np.random.default_rng(seed)
    lo, hi = wl.length_range
    classes = datasets.DEFAULT_CLASSES
    samples, labels = [], []
    for count in (wl.n_train, wl.n_predict):
        lengths = np.linspace(lo, hi, count).round().astype(int)
        for i in rng.permutation(count):
            label = int(i) % len(classes)
            one = datasets.gen_synthetic(
                1, seed=int(rng.integers(2**63)), classes=(classes[label],),
                length_range=(int(lengths[i]), int(lengths[i])), layout=wl.layout,
            )
            samples += one.samples
            labels.append(label)
    datasets.save_streams(datasets.LabeledStreamSet(samples, labels, classes, seed), target)


def clear_caches() -> None:
    """Empty every functools cache in the package, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "logsigrnn" or name.startswith("logsigrnn."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def set_up(wl: Workload, source: Path, ops: Ops) -> tuple[float, State]:
    """Cold set-up: load, build the model and its basis, one warm-up step."""
    clear_caches()
    tic = time.perf_counter()
    data = datasets.load_streams(source)
    model = neural.StreamClassifier.build(wl.config, neural.input_spec(data.samples), MODEL_SEED)
    train_x, train_y = data.samples[: wl.n_train], data.labels[: wl.n_train]
    logits, cache = model.forward_batch(train_x[: wl.batch_size])
    loss, g_logits = neural.cross_entropy(logits, train_y[: wl.batch_size])
    model.backward_batch(cache, g_logits)
    elapsed = time.perf_counter() - tic
    ops.record(math.isfinite(loss), f"warm-up step: loss {loss}")
    return elapsed, State(model, train_x, train_y, data.samples[wl.n_train :], len(data))


# ---------------------------------------------------------------------------
# measured operations


def train_call(wl: Workload, state: State, ops: Ops):
    """One timed ``neural.train`` call; returns (seconds, result or None)."""
    settings = TrainSettings(batch_size=wl.batch_size, epochs=wl.epochs, seed=MODEL_SEED)
    steps = wl.epochs * math.ceil(wl.n_train / wl.batch_size)
    tic = time.perf_counter()
    try:
        result = neural.train(wl.config, state.train_x, state.train_y, settings)
    except Exception as exc:  # a failed step is counted, not fatal
        ops.record(False, f"neural.train: {exc!r}", steps)
        return time.perf_counter() - tic, None
    elapsed = time.perf_counter() - tic
    ops.record(True, "", steps)
    for record in result.trace:
        ops.record(math.isfinite(record["loss"]), f"epoch {record['epoch']} loss {record['loss']}")
    return elapsed, result


def predict_call(state: State, index: int, ops: Ops):
    """One timed single-stream prediction; returns (seconds, logits or None)."""
    tic = time.perf_counter()
    try:
        logits = state.model.logits(state.predict_x[index])
    except Exception as exc:
        ops.record(False, f"logits of stream {index}: {exc!r}")
        return time.perf_counter() - tic, None
    elapsed = time.perf_counter() - tic
    ok = ops.record(bool(np.all(np.isfinite(logits))), f"stream {index}: non-finite logits")
    return elapsed, logits if ok else None


def same_training(a, b) -> bool:
    """Bit-identical loss trace and parameters of two training results."""
    return (
        a is not None and b is not None
        and [r["loss"] for r in a.trace] == [r["loss"] for r in b.trace]
        and all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
    )


# ---------------------------------------------------------------------------
# output checks (untimed)


def check_outputs(wl: Workload, state: State, seed: int, ops: Ops) -> None:
    """Layer rows, layer gradient and single-vs-batched logits."""
    subset = state.predict_x[: wl.check_streams]
    captured = []

    def capture(fn):
        def wrapper(path, partition, degree, basis=None):
            rows, layer_state = fn(path, partition, degree, basis)
            captured.append((path, partition, degree, basis, rows))
            return rows, layer_state

        return wrapper

    with tracing.rebound(neural, "logsig_sequence_forward", capture):
        batched, _ = state.model.forward_batch(subset)
    if not ops.record(bool(captured), "no log-signature layer call seen"):
        return

    # rows of the layer as the model calls it == per-segment log_signature
    for path, partition, degree, basis, rows in captured:
        b = partition.boundaries
        for k in range(partition.num_segments):
            ref = paths.log_signature(paths.restrict(path, b[k], b[k + 1]), degree, basis)
            scale = max(1.0, float(np.max(np.abs(ref))))
            err = float(np.max(np.abs(rows[k] - ref))) / scale
            ops.record(err <= ROW_TOLERANCE, f"layer row {k}: relative error {err:.3g}")

    # analytic adjoint == central finite differences at the model's degree/width
    _, partition, degree, basis, _ = captured[0]
    err = layer_gradcheck(basis, degree, partition.num_segments, np.random.default_rng(seed))
    ops.record(
        err <= cli.GRADCHECK_TOLERANCE,
        f"backward_from_state: relative error {err:.3g} > {cli.GRADCHECK_TOLERANCE}",
    )

    # one stream per call == the same streams in one batch
    for i, sample in enumerate(subset):
        single = state.model.logits(sample)
        scale = max(1.0, float(np.max(np.abs(batched[i]))))
        err = float(np.max(np.abs(single - batched[i]))) / scale
        ops.record(err <= LOGIT_TOLERANCE, f"stream {i}: single vs batched logits {err:.3g}")


def layer_gradcheck(basis, degree: int, segments: int, rng, samples: int = 8) -> float:
    """Worst relative error of ``backward_from_state`` against central differences.

    Like the ``gradcheck`` subcommand, but through the layer functions as
    ``neural`` binds them, and with each entry's error taken relative to at
    least a thousandth of the largest gradient entry: central differences
    carry an absolute error near 1e-8, which on an entry near 1e-5 alone
    would exceed the tolerance.
    """
    times = np.sort(rng.uniform(0.0, 1.0, samples))
    times[0], times[-1] = 0.0, 1.0
    points = rng.normal(0.0, 1.0, (samples, basis.width))
    partition = SegmentPartition.uniform(0.0, 1.0, segments)

    def objective(pts):
        rows, _ = neural.logsig_sequence_forward(paths.TimedPath(times, pts), partition, degree, basis)
        return float(np.sum(upstream * rows))

    rows, layer_state = neural.logsig_sequence_forward(
        paths.TimedPath(times, points), partition, degree, basis
    )
    upstream = rng.normal(0.0, 1.0, rows.shape)
    grad = neural.backward_from_state(layer_state, upstream)
    h = 1e-6
    fd = np.empty_like(points)
    for i in range(samples):
        for j in range(basis.width):
            shifted = points.copy()
            shifted[i, j] += h
            up = objective(shifted)
            shifted[i, j] -= 2 * h
            fd[i, j] = (up - objective(shifted)) / (2 * h)
    floor = 1e-3 * max(float(np.max(np.abs(fd))), 1e-8)
    denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), floor)
    return float(np.max(np.abs(grad - fd) / denom))


# ---------------------------------------------------------------------------
# runs


def measure(wl: Workload, source: Path, seed: int, seconds: float, ops: Ops) -> dict:
    """Untraced run: the end-to-end metrics as name -> (value, unit, samples, note).

    The run repeats rounds of one cold set-up, one ``neural.train`` call and
    one prediction per held-out stream until ``seconds`` have passed.  The
    interleaving spreads every metric over the whole run, so a slow spell of
    a shared machine does not fall on one metric only.
    """
    _, state = set_up(wl, source, ops)  # warms the process; not reported
    check_outputs(wl, state, seed, ops)

    setups, rates, latencies = [], [], []
    first, seen = None, {}
    deadline = time.perf_counter() + seconds
    while len(setups) < wl.min_rounds or time.perf_counter() < deadline:
        elapsed, state = set_up(wl, source, ops)
        setups.append(elapsed)

        elapsed, result = train_call(wl, state, ops)
        rates.append(wl.n_train * wl.epochs / elapsed)
        if first is None:
            first = result
        else:
            ops.record(same_training(first, result), "train call differs from the first")

        for index in range(len(state.predict_x)):
            elapsed, logits = predict_call(state, index, ops)
            latencies.append(elapsed * 1e3)
            if index in seen:
                ops.record(np.array_equal(seen[index], logits), f"stream {index}: logits changed")
            seen.setdefault(index, logits)
    if first is None:
        raise RuntimeError("no neural.train call succeeded")

    p50, p90 = np.percentile(latencies, [50, 90])
    rounds, n_pred = len(setups), len(latencies)
    per_call = f"{wl.n_train} streams x {wl.epochs} epochs per call"
    return {
        "train_samples_per_s": (statistics.median(rates), "samples/s", rounds,
                                f"median over neural.train calls, {per_call}"),
        "train_loss": (first.final["loss"], "nats", rounds,
                       "mean cross-entropy of the last epoch, equal in every call"),
        "predict_ms_p50": (float(p50), "ms", n_pred, "StreamClassifier.logits, one stream per call"),
        "predict_ms_p90": (float(p90), "ms", n_pred, "StreamClassifier.logits, one stream per call"),
        "setup_s": (statistics.median(setups), "s", rounds,
                    "median of cold set-ups: load, build, one warm-up step"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1,
                        "ru_maxrss of this process"),
    }


def run_unit(wl: Workload, state: State, ops: Ops):
    """The fixed work of a traced run; returns (seconds, outputs)."""
    tic = time.perf_counter()
    if wl.traced_unit == "train":
        _, out = train_call(wl, state, ops)
    else:
        out = [predict_call(state, i, ops)[1] for i in range(wl.traced_predictions)]
    return time.perf_counter() - tic, out


def same_outputs(wl: Workload, a, b) -> bool:
    if wl.traced_unit == "train":
        return same_training(a, b)
    return all(x is not None and y is not None and np.array_equal(x, y) for x, y in zip(a, b))


def trace(wl: Workload, source: Path, seed: int, ops: Ops, run_id: str):
    """Traced run: the per-layer metrics and the tracer that recorded them."""
    _, state = set_up(wl, source, ops)
    check_outputs(wl, state, seed, ops)
    plain = [run_unit(wl, state, ops) for _ in range(3)]
    tracer = tracing.Tracer(run_id)
    with tracer.installed():
        _, traced_state = set_up(wl, source, ops)
        traced_seconds, traced_out = run_unit(wl, traced_state, ops)
    ops.record(same_outputs(wl, plain[-1][1], traced_out), "traced outputs differ from untraced")
    ratio = traced_seconds / statistics.median(s for s, _ in plain)
    metrics = {
        name: (value, unit, 1, "")
        for name, (value, unit) in tracer.layer_metrics(traced_state.records, ratio).items()
    }
    return metrics, tracer


# ---------------------------------------------------------------------------
# command line


def environment() -> dict:
    """What makes timings comparable: versions, BLAS, threads, CPUs, load."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="logsigrnn benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=WORKLOADS) -> int:
    """Run one workload, print the report; 0 if every operation succeeded."""
    args = parse_args(argv)
    env = environment()
    wl = workloads[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}"
    source = OUT_DIR / f"{tag}-{os.getpid()}.jsonl"
    ops = Ops()
    try:
        write_inputs(wl, args.seed, source)
        if args.trace:
            metrics, tracer = trace(wl, source, args.seed, ops, f"{tag}-{os.getpid()}")
        else:
            metrics = measure(wl, source, args.seed, args.seconds, ops)
    finally:
        source.unlink(missing_ok=True)
    if args.trace:
        trace_file = OUT_DIR / f"trace-{tag}.json"
        tracer.dump(trace_file, {"workload": wl.name, "seed": args.seed, "env": env})

    print(f"perfbench env {json.dumps(env, sort_keys=True)}")
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        print(f"perfbench spans={len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    for name, (value, unit, n, note) in metrics.items():
        print(f"perfbench metric {name} = {value:.6g} {unit} (n={n}{'; ' + note if note else ''})")
    rate = ops.failed / ops.attempted
    print(f"perfbench metric op_error_rate = {rate:.6g} failed/attempted "
          f"({ops.failed}/{ops.attempted} steps, predictions and checks)")
    for error in ops.errors[:20]:
        print(f"perfbench failed: {error}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _, _) in metrics.items()},
    }))
    return 0 if ops.failed == 0 else 1
