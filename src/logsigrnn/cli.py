"""Command-line surface: signatures, dimension tables, gradient checks,
training/evaluation, and the robustness and efficiency studies.

Every subcommand prints a single structured report (see ``reports``) on
stdout.  Exit codes: 0 on success, 1 when a numerical check fails, 2 on
usage or input errors.  With a fixed seed all subcommands are
deterministic on one thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import datasets
from .datasets import LabeledStreamSet, StreamParseError, load_streams
from .logsig_layer import SegmentPartition, backward_from_state, logsig_sequence_forward
from .lyndon import check_basis_size, enumerate_lyndon, logsig_dim, sig_dim
from .neural import (
    ModelConfig,
    StreamClassifier,
    TrainSettings,
    evaluate_model,
    input_spec,
    train,
)
from .paths import TimedPath
from .reports import RunReport, render_report

GRADCHECK_TOLERANCE = 1e-5

_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
_TRAIN_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainSettings)}


class InputError(ValueError):
    """Bad file or flag contents; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config and checkpoint files


def _coerce(key: str, value: str, typ: str):
    value = value.strip()
    if typ == "bool" or typ.startswith("bool"):
        if value.lower() in ("true", "1", "yes", "on"):
            return True
        if value.lower() in ("false", "0", "no", "off"):
            return False
        raise InputError(f"config key {key!r}: expected a boolean, got {value!r}")
    try:
        if typ == "int":
            return int(value)
        if typ == "float" or typ.startswith("float"):
            return float(value)
    except ValueError as exc:
        raise InputError(f"config key {key!r}: {exc}") from exc
    return value


def parse_config_text(text: str) -> tuple[ModelConfig, TrainSettings]:
    """Flat ``key = value`` lines; keys mirror ModelConfig and TrainSettings fields."""
    cfg_kwargs: dict = {}
    train_kwargs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in _CONFIG_FIELDS:
            cfg_kwargs[key] = _coerce(key, value, _CONFIG_FIELDS[key])
        elif key in _TRAIN_FIELDS:
            train_kwargs[key] = _coerce(key, value, _TRAIN_FIELDS[key])
        else:
            raise InputError(f"config line {lineno}: unknown key {key!r}")
    config = ModelConfig(**cfg_kwargs)
    settings = TrainSettings(**train_kwargs)
    try:
        config.validate()
        settings.validate()
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return config, settings


def load_config_file(path: str) -> tuple[ModelConfig, TrainSettings]:
    try:
        with open(path) as handle:
            return parse_config_text(handle.read())
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc


_CKPT_MAGIC = "logsig-checkpoint v1"


def _check_checkpoint_target(path: str) -> None:
    """Raise ``InputError`` unless a checkpoint can be written at ``path``."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise InputError(f"cannot write checkpoint {path}: it is a directory")
    if not os.path.isdir(folder):
        raise InputError(f"cannot write checkpoint {path}: no directory {folder}")
    if not os.access(folder, os.W_OK):
        raise InputError(f"cannot write checkpoint {path}: directory {folder} is not writable")


def save_checkpoint(path: str, config: ModelConfig, spec: tuple[int, int], params: dict) -> None:
    """Self-describing text checkpoint: config header, then flat parameter blocks."""
    with open(path, "w") as handle:
        handle.write(_CKPT_MAGIC + "\n")
        for key, value in dataclasses.asdict(config).items():
            handle.write(f"{key} = {value}\n")
        handle.write(f"joints = {spec[0]}\n")
        handle.write(f"coords = {spec[1]}\n")
        handle.write(f"params {len(params)}\n")
        for name, block in params.items():
            shape = " ".join(str(s) for s in block.shape)
            handle.write(f"param {name} {block.ndim} {shape}\n")
            handle.write(" ".join(repr(float(x)) for x in block.reshape(-1)) + "\n")
        handle.write("end\n")


def load_checkpoint(path: str) -> tuple[ModelConfig, tuple[int, int], dict]:
    """Read a checkpoint and check its parameters against the header's model.

    Every parameter the header's config and input shape build must be
    present once with its built shape, and no other, and a lone ``end``
    line must close the blocks; anything else is an ``InputError`` naming
    the file.
    """
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read checkpoint {path}: {exc}") from exc
    if not lines or lines[0] != _CKPT_MAGIC:
        raise InputError(f"{path} is not a checkpoint file")
    cfg_kwargs: dict = {}
    spec = [0, 0]
    i = 1
    try:
        while i < len(lines) and not lines[i].startswith("params "):
            key, _, value = lines[i].partition(" = ")
            if key == "joints":
                spec[0] = int(value)
            elif key == "coords":
                spec[1] = int(value)
            elif key in _CONFIG_FIELDS:
                cfg_kwargs[key] = _coerce(key, value, _CONFIG_FIELDS[key])
            else:
                raise InputError(f"unknown header key {key!r}")
            i += 1
        count = int(lines[i].split()[1])
        i += 1
        params: dict = {}
        for _ in range(count):
            head = lines[i].split()
            if head[0] != "param":
                raise InputError(f"expected a param header, got {lines[i]!r}")
            name, ndim = head[1], int(head[2])
            if name in params:
                raise InputError(f"repeated param {name}")
            shape = tuple(int(s) for s in head[3 : 3 + ndim])
            values = np.array([float(tok) for tok in lines[i + 1].split()])
            expected = int(np.prod(shape)) if shape else 1
            if values.size != expected:
                raise InputError(f"param {name} has wrong element count")
            if not np.all(np.isfinite(values)):
                raise InputError(f"param {name} has non-finite values")
            params[name] = values.reshape(shape)
            i += 2
        if lines[i] != "end":
            raise InputError(f"expected 'end' after {count} params, got {lines[i]!r}")
        i += 1
        if i < len(lines):
            raise InputError(f"unexpected {lines[i]!r} after 'end'")
    except IndexError as exc:
        raise InputError(f"checkpoint {path}: truncated after line {len(lines)}") from exc
    except ValueError as exc:
        raise InputError(f"checkpoint {path}, line {i + 1}: {exc}") from exc
    try:
        config = ModelConfig(**cfg_kwargs)
        built = StreamClassifier(config, (spec[0], spec[1]), {}).param_shapes
    except ValueError as exc:
        raise InputError(f"checkpoint {path}: {exc}") from exc
    for name, shape in built.items():
        if name not in params:
            raise InputError(f"checkpoint {path}: missing param {name}")
        if params[name].shape != shape:
            raise InputError(
                f"checkpoint {path}: param {name} has shape {params[name].shape}, "
                f"the header's model needs {shape}"
            )
    extra = sorted(set(params) - set(built))
    if extra:
        raise InputError(f"checkpoint {path}: unexpected params {extra}")
    return config, (spec[0], spec[1]), params


def _load_dataset(path: str) -> LabeledStreamSet:
    try:
        return load_streams(path)
    except OSError as exc:
        raise InputError(f"cannot read stream file {path}: {exc}") from exc
    except StreamParseError as exc:
        raise InputError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _require_at_least(args, low: int, *names: str) -> None:
    """``InputError`` naming the first flag among ``names`` that is below ``low``."""
    for name in names:
        value = getattr(args, name)
        if value < low:
            raise InputError(f"--{name.replace('_', '-')} must be >= {low}, got {value}")


def _require_basis_size(width: int, degree: int, flags: str) -> None:
    """``InputError`` naming ``flags`` if the basis is past ``check_basis_size``'s budget."""
    try:
        check_basis_size(width, degree)
    except ValueError as exc:
        raise InputError(f"{flags}: {exc}") from exc


def _cmd_dims(args) -> tuple[RunReport, int]:
    _require_at_least(args, 1, "width", "degree")
    report = RunReport("dims", config={"width": args.width, "degree": args.degree})
    rows = []
    for m in range(1, args.degree + 1):
        s, l = sig_dim(args.width, m), logsig_dim(args.width, m)
        rows.append([m, s, l, s - l])
    report.add_table("dims", ["degree", "sig_dim", "logsig_dim", "gap"], rows)
    return report, 0


def _cmd_logsig(args) -> tuple[RunReport, int]:
    _require_at_least(args, 1, "degree", "segments")
    data = _load_dataset(args.input)
    report = RunReport(
        "logsig", config={"degree": args.degree, "segments": args.segments, "input": args.input}
    )
    paths = [
        s if isinstance(s, TimedPath) else TimedPath(s.times, s.frames.reshape(s.num_frames, -1))
        for s in data.samples
    ]
    widths = {p.width for p in paths}
    if len(widths) > 1:
        raise InputError(f"stream file mixes widths {sorted(widths)}")
    if paths:
        width = widths.pop()
        _require_basis_size(width, args.degree, f"--degree {args.degree} on width-{width} streams")
        basis = enumerate_lyndon(width, args.degree)
        labels = ["".join(str(ch) for ch in w) for w in basis.words]
        if args.basis_list:
            report.add_table("basis", ["position", "word"], [[i, w] for i, w in enumerate(labels)])
        for i, p in enumerate(paths):
            part = SegmentPartition.spanning(p, args.segments)
            try:
                rows, _ = logsig_sequence_forward(p, part, args.degree, basis)
            except FloatingPointError as exc:
                raise FloatingPointError(f"{args.input}, sample {i}: {exc}") from exc
            report.add_table(
                f"sample{i}", labels, [[float(x) for x in row] for row in rows]
            )
        report.metrics["logsig_dim"] = basis.dim
    report.metrics["samples"] = len(paths)
    return report, 0


def _cmd_gradcheck(args) -> tuple[RunReport, int]:
    _require_at_least(args, 1, "trials", "width", "degree", "segments")
    _require_at_least(args, 0, "seed")
    rng = np.random.default_rng(args.seed)
    tic = time.perf_counter()
    worst = 0.0
    rows = []
    _require_basis_size(args.width, args.degree, f"--width {args.width} --degree {args.degree}")
    basis = enumerate_lyndon(args.width, args.degree)
    for trial in range(args.trials):
        n = int(rng.integers(6, 14))
        times = np.sort(rng.uniform(0.0, 1.0, n))
        times[0], times[-1] = 0.0, 1.0
        points = rng.normal(0.0, 1.0, (n, args.width))
        path = TimedPath(times, points)
        part = SegmentPartition.uniform(0.0, 1.0, args.segments)
        rows_out, state = logsig_sequence_forward(path, part, args.degree, basis)
        upstream = rng.normal(0.0, 1.0, rows_out.shape)
        grad = backward_from_state(state, upstream)
        h = 1e-6
        err = 0.0
        for i in range(n):
            for j in range(args.width):
                shifted = points.copy()
                shifted[i, j] += h
                up = float(np.sum(upstream * logsig_sequence_forward(
                    TimedPath(times, shifted), part, args.degree, basis)[0]))
                shifted[i, j] -= 2 * h
                dn = float(np.sum(upstream * logsig_sequence_forward(
                    TimedPath(times, shifted), part, args.degree, basis)[0]))
                fd = (up - dn) / (2 * h)
                a = grad[i, j]
                denom = max(abs(a), abs(fd))
                if denom > 1e-8:
                    err = max(err, abs(a - fd) / denom)
        worst = max(worst, err)
        rows.append([trial, n, float(err)])
    elapsed = time.perf_counter() - tic
    passed = worst <= GRADCHECK_TOLERANCE
    report = RunReport(
        "gradcheck",
        seed=args.seed,
        config={
            "trials": args.trials, "width": args.width,
            "degree": args.degree, "segments": args.segments,
        },
        metrics={
            "max_rel_err": worst,
            "tolerance": GRADCHECK_TOLERANCE,
            "passed": int(passed),
        },
        timings={"total_seconds": elapsed},
    )
    report.add_table("trials", ["trial", "samples", "rel_err"], rows)
    return report, 0 if passed else 1


def _split_eval(data: LabeledStreamSet, fraction: float, seed: int):
    count = len(data)
    held = int(round(count * fraction))
    if not 0 < held < count:
        raise InputError(
            f"--eval-fraction {fraction} holds out {held} of {count} records; "
            "training and evaluation need at least one each"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(count)
    return data.subset(order[held:]), data.subset(order[:held])


def _cmd_train(args) -> tuple[RunReport, int]:
    config, settings = load_config_file(args.config)
    data = _load_dataset(args.data)
    if len(data) == 0:
        raise InputError(f"{args.data}: empty training set")
    eval_set = _load_dataset(args.eval_data) if args.eval_data else None
    # before training, so a run is not spent on a checkpoint that cannot be written
    _check_checkpoint_target(args.checkpoint)
    result = train(
        config, data.samples, data.labels, settings,
        eval_samples=eval_set.samples if eval_set else None,
        eval_labels=eval_set.labels if eval_set else None,
    )
    spec = input_spec(data.samples)
    try:
        save_checkpoint(args.checkpoint, config, spec, result.params)
    except OSError as exc:
        raise InputError(f"cannot write checkpoint {args.checkpoint}: {exc}") from exc
    # settled post-training accuracy: re-evaluating the checkpoint on the
    # same data reproduces this number exactly
    settled = evaluate_model(config, data.samples, data.labels, params=result.params)
    report = RunReport(
        "train",
        seed=settings.seed,
        config={**dataclasses.asdict(config), **dataclasses.asdict(settings),
                "data": args.data, "checkpoint": args.checkpoint},
        metrics={
            "final_loss": result.final["loss"],
            "final_accuracy": settled.accuracy,
        },
        timings={
            "prepare_seconds": result.prepare_seconds,
            "total_seconds": result.prepare_seconds + sum(r["seconds"] for r in result.trace),
        },
    )
    columns = ["epoch", "loss", "accuracy"] + (["eval_accuracy"] if eval_set else [])
    report.add_table(
        "trace", columns,
        [[r["epoch"], r["loss"], r["accuracy"]] + ([r["eval_accuracy"]] if eval_set else [])
         for r in result.trace],
    )
    if eval_set:
        report.metrics["eval_accuracy"] = result.final["eval_accuracy"]
    return report, 0


def _evaluate(model: StreamClassifier, data, data_path, checkpoint):
    """``evaluate_model`` on a loaded stream file; a rejected set names both files."""
    try:
        return evaluate_model(model, data.samples, data.labels)
    except ValueError as exc:
        raise InputError(f"{data_path} with checkpoint {checkpoint}: {exc}") from exc


def _cmd_eval(args) -> tuple[RunReport, int]:
    config, spec, params = load_checkpoint(args.checkpoint)
    data = _load_dataset(args.data)
    if len(data) == 0:
        raise InputError(f"{args.data}: empty evaluation set")
    model = StreamClassifier(config, spec, params)
    result = _evaluate(model, data, args.data, args.checkpoint)
    report = RunReport(
        "eval",
        config={"checkpoint": args.checkpoint, "data": args.data},
        metrics={"accuracy": result.accuracy, "samples": len(data)},
    )
    classes = list(range(config.num_classes))
    report.add_table(
        "confusion", ["true\\pred"] + [str(c) for c in classes],
        [[str(c)] + [int(x) for x in row] for c, row in zip(classes, result.confusion)],
    )
    return report, 0


def _parse_rates(text: str) -> list[float]:
    try:
        rates = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad --rates value {text!r}: {exc}") from exc
    if not rates or any(not 0.0 <= r < 1.0 for r in rates):
        raise InputError("rates must lie in [0, 1)")
    return rates


def _cmd_robustness(args) -> tuple[RunReport, int]:
    _require_at_least(args, 0, "seed")
    config, spec, params = load_checkpoint(args.checkpoint)
    bconfig, bspec, bparams = load_checkpoint(args.baseline_checkpoint)
    data = _load_dataset(args.data)
    if not all(isinstance(s, TimedPath) for s in data.samples):
        raise InputError("robustness study expects path records")
    rates = _parse_rates(args.rates)
    model = StreamClassifier(config, spec, params)
    baseline = StreamClassifier(bconfig, bspec, bparams)
    perturb = datasets.perturb_drop if args.mode == "drop" else datasets.perturb_insert
    base_model = _evaluate(model, data, args.data, args.checkpoint).accuracy
    base_base = _evaluate(baseline, data, args.data, args.baseline_checkpoint).accuracy
    rows = [[0.0, base_model, 0.0, base_base, 0.0]]
    for rate in rates:
        if rate == 0.0:
            continue
        rng = np.random.default_rng(args.seed)
        perturbed = [perturb(s, rate, rng) for s in data.samples]
        am = evaluate_model(model, perturbed, data.labels).accuracy
        ab = evaluate_model(baseline, perturbed, data.labels).accuracy
        rows.append([rate, am, base_model - am, ab, base_base - ab])
    report = RunReport(
        "robustness",
        seed=args.seed,
        config={
            "mode": args.mode, "rates": args.rates, "data": args.data,
            "checkpoint": args.checkpoint, "baseline_checkpoint": args.baseline_checkpoint,
        },
        metrics={"accuracy_at_zero": base_model, "baseline_accuracy_at_zero": base_base},
    )
    report.add_table(
        "accuracy",
        ["rate", "model_accuracy", "model_degradation", "baseline_accuracy", "baseline_degradation"],
        rows,
    )
    return report, 0


def _median_epoch_seconds(trace: list, warmup: int, timed: int) -> float:
    """Median wall-clock over the last ``timed`` epochs, warm-up epochs excluded."""
    spans = [r["seconds"] for r in trace[warmup:]][-timed:]
    return float(np.median(spans))


def _cmd_bench(args) -> tuple[RunReport, int]:
    _require_at_least(args, 1, "timed_epochs")
    _require_at_least(args, 0, "seed")
    if not 0 <= args.warmup_epochs <= args.epochs:
        raise InputError(f"--warmup-epochs must lie in 0..{args.epochs} (--epochs), got {args.warmup_epochs}")
    if not 0.0 < args.eval_fraction < 1.0:
        raise InputError(f"--eval-fraction must lie in (0, 1), got {args.eval_fraction}")
    config, settings = load_config_file(args.config)
    bconfig, bsettings = load_config_file(args.baseline_config)
    data = _load_dataset(args.data)
    if not all(isinstance(s, TimedPath) for s in data.samples):
        raise InputError("bench expects path records")
    try:
        factors = [int(tok) for tok in args.upsample.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad --upsample value {args.upsample!r}") from exc
    if not factors or any(f < 1 for f in factors):
        raise InputError("upsample factors must be positive integers")
    train_set, eval_set = _split_eval(data, args.eval_fraction, args.seed)
    epochs = args.epochs + args.timed_epochs
    rows = []
    for factor in factors:
        up_train = [datasets.upsample_linear(s, factor) for s in train_set.samples]
        up_eval = [datasets.upsample_linear(s, factor) for s in eval_set.samples]
        results = {}
        for tag, cfg, st in (("model", config, settings), ("baseline", bconfig, bsettings)):
            st = dataclasses.replace(st, epochs=epochs, seed=args.seed)
            res = train(cfg, up_train, train_set.labels, st)
            acc = evaluate_model(cfg, up_eval, eval_set.labels, params=res.params).accuracy
            med = _median_epoch_seconds(res.trace, args.warmup_epochs, args.timed_epochs)
            results[tag] = (med, acc, res.prepare_seconds)
        model, base = results["model"], results["baseline"]
        rows.append([factor, model[0], model[1], base[0], base[1], model[2], base[2]])
    report = RunReport(
        "bench",
        seed=args.seed,
        config={
            "upsample": args.upsample, "data": args.data,
            "config": args.config, "baseline_config": args.baseline_config,
            "epochs": epochs, "timed_epochs": args.timed_epochs,
            "warmup_epochs": args.warmup_epochs,
        },
    )
    report.add_table(
        "timing",
        ["factor", "model_epoch_seconds", "model_accuracy",
         "baseline_epoch_seconds", "baseline_accuracy",
         "model_prepare_seconds", "baseline_prepare_seconds"],
        rows,
    )
    if len(rows) > 1:
        first, last = rows[0], rows[-1]
        report.metrics["model_time_ratio"] = last[1] / first[1]
        report.metrics["baseline_time_ratio"] = last[3] / first[3]
    return report, 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logsigrnn",
        description="Log-signature sequence features and recurrent stream classifiers.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("logsig", help="per-segment log-signatures of every stream in a file")
    p.add_argument("input", help="stream file (JSON lines)")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--segments", type=int, default=1)
    p.add_argument("--basis-list", action="store_true", help="also list the Lyndon basis words")
    p.set_defaults(func=_cmd_logsig)

    p = sub.add_parser("dims", help="signature vs log-signature dimension table")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("gradcheck", help="finite-difference check of the layer adjoint")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--width", type=int, default=3)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--segments", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("train", help="train a classifier and write a checkpoint")
    p.add_argument("config", help="flat key = value config file")
    p.add_argument("data", help="training stream file")
    p.add_argument("checkpoint", help="output checkpoint path")
    p.add_argument("--eval-data", help="optional held-out stream file evaluated per epoch")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a stream file")
    p.add_argument("checkpoint")
    p.add_argument("data")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("robustness", help="accuracy under frame dropping or duplication")
    p.add_argument("checkpoint", help="trained model checkpoint")
    p.add_argument("baseline_checkpoint", help="trained frame-level baseline checkpoint")
    p.add_argument("data", help="evaluation stream file")
    p.add_argument("--rates", default="0.2,0.4,0.6")
    p.add_argument("--mode", choices=("drop", "insert"), default="drop")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser("bench", help="epoch time and accuracy as input length grows")
    p.add_argument("data")
    p.add_argument("--config", required=True)
    p.add_argument("--baseline-config", required=True)
    p.add_argument("--upsample", default="1,2,4,8")
    p.add_argument("--epochs", type=int, default=6, help="training epochs before timing")
    p.add_argument("--timed-epochs", type=int, default=3)
    p.add_argument("--warmup-epochs", type=int, default=1)
    p.add_argument("--eval-fraction", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report, code = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, RuntimeError) as exc:
        # a numerical check failed: non-finite rows or loss, inexact inverse
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render_report(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
