"""Command-line surface: signatures, dimension tables, gradient checks,
training/evaluation, and the robustness and efficiency studies.

Every subcommand prints a single structured report (see ``reports``) on
stdout.  Exit codes: 0 on success, 1 when a numerical check fails, 2 on
usage or input errors.  With a fixed seed all subcommands are
deterministic on one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
import time

import numpy as np

from . import datasets
from .datasets import LabeledStreamSet, load_streams
from .logsig_layer import SegmentPartition, backward_from_state, logsig_sequence_forward, logsig_stack_forward
from .logsig_layer import _check_shape_sizes
from .lyndon import check_array_size, check_basis_size, enumerate_lyndon, logsig_dim, sig_dim, witt_number
from .neural import ModelConfig, StreamClassifier, TrainSettings, evaluate_model, input_spec, train
from .paths import TimedPath
from .reports import RunReport, environment, render_report

GRADCHECK_TOLERANCE = 1e-5

_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
_TRAIN_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainSettings)}


class InputError(ValueError):
    """Bad file or flag contents; maps to exit code 2."""


@contextlib.contextmanager
def _naming(where: str):
    """Prefix a failure in the block with ``where``, keeping its exit code.

    ``OSError`` and ``ValueError`` (bad input, exit 2) become ``InputError``;
    ``FloatingPointError`` and ``RuntimeError`` (a failed numerical check,
    exit 1) are raised again as the same type.
    """
    try:
        yield
    except (OSError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from exc
    except (FloatingPointError, RuntimeError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# config and checkpoint files


def _coerce(key: str, value: str, typ: str):
    value = value.strip()
    with _naming(f"config key {key!r}"):
        if typ == "bool" or typ.startswith("bool"):
            if value.lower() in ("true", "1", "yes", "on"):
                return True
            if value.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"expected a boolean, got {value!r}")
        if typ == "int":
            return int(value)
        if typ == "float" or typ.startswith("float"):
            return float(value)
    return value


def _read_keys(lines, fields: dict) -> dict:
    """``{key: value}`` from numbered lines ``(lineno, "key = value  # comment")``, each key a field of ``fields``."""
    values: dict = {}
    for lineno, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in fields:
            raise InputError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _coerce(key, value, fields[key])
    return values


def parse_config_text(text: str) -> tuple[ModelConfig, TrainSettings]:
    """Flat ``key = value`` lines; keys mirror ModelConfig and TrainSettings fields."""
    values = _read_keys(enumerate(text.splitlines(), start=1), {**_CONFIG_FIELDS, **_TRAIN_FIELDS})
    config = ModelConfig(**{k: v for k, v in values.items() if k in _CONFIG_FIELDS})
    settings = TrainSettings(**{k: v for k, v in values.items() if k in _TRAIN_FIELDS})
    with _naming("config"):
        config.validate()
        settings.validate()
    return config, settings


def load_config_file(path: str) -> tuple[ModelConfig, TrainSettings]:
    with _naming(f"config file {path}"), open(path) as handle:
        return parse_config_text(handle.read())


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
        for key, value in {**dataclasses.asdict(config), "joints": spec[0], "coords": spec[1]}.items():
            handle.write(f"{key} = {value}\n")
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
    with _naming(f"checkpoint {path}"), open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != _CKPT_MAGIC:
        raise InputError(f"{path} is not a checkpoint file")
    # the header: config-file lines, plus the input shape
    i = next((i for i, line in enumerate(lines) if line.startswith("params ")), len(lines))
    with _naming(f"checkpoint {path}"):
        cfg_kwargs = _read_keys(enumerate(lines[1:i], start=2), {**_CONFIG_FIELDS, "joints": "int", "coords": "int"})
    spec = (cfg_kwargs.pop("joints", 0), cfg_kwargs.pop("coords", 0))
    try:
        count = int(lines[i].split()[1])
        i += 1
        params: dict = {}
        for _ in range(count):
            head = lines[i].split()
            if head[0] != "param":
                raise InputError(f"expected a param header, got {lines[i]!r}")
            name, ndim = head[1], int(head[2])
            if len(head) != 3 + ndim:
                raise InputError(f"param {name} declares {ndim} dimensions, {len(head) - 3} sizes follow")
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
    with _naming(f"checkpoint {path}"):
        config = ModelConfig(**cfg_kwargs)
        built = StreamClassifier(config, spec, {}).param_shapes
        for name, shape in built.items():
            if name not in params:
                raise ValueError(f"missing param {name}")
            if params[name].shape != shape:
                raise ValueError(f"param {name} has shape {params[name].shape}, the header's model needs {shape}")
        extra = sorted(set(params) - set(built))
        if extra:
            raise ValueError(f"unexpected params {extra}")
    return config, spec, params


def _load_dataset(path: str) -> LabeledStreamSet:
    with _naming(path):
        return load_streams(path)


# ---------------------------------------------------------------------------
# subcommands


def _require_at_least(args, low: int, *names: str) -> None:
    """``InputError`` naming the first flag among ``names`` that is below ``low``."""
    for name in names:
        value = getattr(args, name)
        if value < low:
            raise InputError(f"--{name.replace('_', '-')} must be >= {low}, got {value}")


def _cmd_dims(args) -> tuple[RunReport, int]:
    _require_at_least(args, 1, "width", "degree")
    # before any row: one row per level, and every entry is below 2 * width**degree
    max_degree = max_digits = 1000
    if args.degree > max_degree:
        raise InputError(f"--degree {args.degree} is past the {max_degree} levels that dims tabulates")
    digits = int(args.degree * math.log10(args.width)) + 1
    if digits > max_digits:
        raise InputError(
            f"--width {args.width} at --degree {args.degree}: width**degree has {digits} digits, "
            f"past the {max_digits} that dims prints"
        )
    report = RunReport("dims", config={"width": args.width, "degree": args.degree})
    rows, l = [], 0
    for m in range(1, args.degree + 1):
        s = sig_dim(args.width, m)
        l += witt_number(args.width, m)  # logsig_dim is the running sum of the levels' Witt numbers
        rows.append([m, s, l, s - l])
    report.add_table("dims", ["degree", "sig_dim", "logsig_dim", "gap"], rows)
    return report, 0


def _cmd_logsig(args) -> tuple[RunReport, int]:
    _require_at_least(args, 1, "degree", "segments")
    data = _load_dataset(args.input)
    report = RunReport("logsig", config={"degree": args.degree, "segments": args.segments, "input": args.input})
    widths = {p.width for p in data.samples}
    if len(widths) > 1:
        raise InputError(f"stream file mixes widths {sorted(widths)}")
    if data.samples:
        width = widths.pop()
        with _naming(f"--degree {args.degree} on width-{width} streams"):
            check_basis_size(width, args.degree)
        # before the basis is built: the rows, and the layer's checks that need no basis
        rows_shape = (args.segments, logsig_dim(width, args.degree))
        check_array_size(rows_shape, f"each {args.input} sample's rows", f"--segments {args.segments}")
        for i, p in enumerate(data.samples):
            if p.num_samples > 1:  # a path of one sample builds no kernel array
                with _naming(f"{args.input}, sample {i}"):
                    _check_shape_sizes(p.num_samples, args.segments, width, args.degree)
        basis = enumerate_lyndon(width, args.degree)
        labels = ["".join(str(ch) for ch in w) for w in basis.words]
        if args.basis_list:
            report.add_table("basis", ["position", "word"], [[i, w] for i, w in enumerate(labels)])
        partition = SegmentPartition.uniform(0.0, 1.0, args.segments)  # the layer maps it onto each sample's span
        for i, p in enumerate(data.samples):
            with _naming(f"{args.input}, sample {i}"):
                rows, _ = logsig_sequence_forward(p, partition, args.degree, basis)
            report.add_table(
                f"sample{i}", labels, [[float(x) for x in row] for row in rows]
            )
        report.metrics["logsig_dim"] = basis.dim
    report.metrics["samples"] = len(data.samples)
    return report, 0


def _cmd_gradcheck(args) -> tuple[RunReport, int]:
    _require_at_least(args, 1, "trials", "width", "degree", "segments")
    _require_at_least(args, 0, "seed")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    rows = []
    with _naming(f"--width {args.width} --degree {args.degree}"):
        check_basis_size(args.width, args.degree)
    basis = enumerate_lyndon(args.width, args.degree)
    check_array_size((args.segments, basis.dim), "each trial's rows", f"--segments {args.segments}")
    part = SegmentPartition.uniform(0.0, 1.0, args.segments)
    for trial in range(args.trials):
        n = int(rng.integers(6, 14))
        times = np.sort(rng.uniform(0.0, 1.0, n))
        times[0], times[-1] = 0.0, 1.0
        points = rng.normal(0.0, 1.0, (n, args.width))
        path = TimedPath(times, points)
        rows_out, state = logsig_sequence_forward(path, part, args.degree, basis)
        upstream = rng.normal(0.0, 1.0, rows_out.shape)
        grad = backward_from_state(state, upstream)
        h = 1e-6
        err = 0.0
        for i in range(n):
            for j in range(args.width):
                # the up and down shifted paths, p + h and (p + h) - 2h, in one layer call
                shifted = np.stack([points, points])
                shifted[:, i, j] += h
                shifted[1, i, j] -= 2 * h
                rows_up, rows_dn = logsig_stack_forward(times, shifted, part, args.degree, basis)[0]
                up, dn = float(np.sum(upstream * rows_up)), float(np.sum(upstream * rows_dn))
                fd = (up - dn) / (2 * h)
                a = grad[i, j]
                denom = max(abs(a), abs(fd))
                if denom > 1e-8:
                    err = max(err, abs(a - fd) / denom)
        worst = max(worst, err)
        rows.append([trial, n, float(err)])
    passed = worst <= GRADCHECK_TOLERANCE
    report = RunReport(
        "gradcheck",
        seed=args.seed,
        config={"trials": args.trials, "width": args.width, "degree": args.degree, "segments": args.segments},
        metrics={"max_rel_err": worst, "tolerance": GRADCHECK_TOLERANCE, "passed": int(passed)},
    )
    report.add_table("trials", ["trial", "samples", "rel_err"], rows)
    return report, 0 if passed else 1


def _split_eval(count: int, fraction: float, seed: int):
    """Indices of the training and the held-out records."""
    held = int(round(count * fraction))
    if not 0 < held < count:
        raise InputError(
            f"--eval-fraction {fraction} holds out {held} of {count} records; "
            "training and evaluation need at least one each"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(count)
    return order[held:], order[:held]


def _cmd_train(args) -> tuple[RunReport, int]:
    config, settings = load_config_file(args.config)
    data = _load_dataset(args.data)
    if len(data) == 0:
        raise InputError(f"{args.data}: empty training set")
    eval_set = _load_dataset(args.eval_data) if args.eval_data else None
    # before training, so a run is not spent on a checkpoint that cannot be written
    _check_checkpoint_target(args.checkpoint)
    with _naming(f"{args.config} on {args.data}"):
        result = train(
            config, data.samples, data.labels, settings,
            eval_samples=eval_set.samples if eval_set else None,
            eval_labels=eval_set.labels if eval_set else None,
        )
    spec = input_spec(data.samples)
    # settled post-training accuracy, taken before the checkpoint is written so
    # that a failing evaluation leaves none; re-evaluating the checkpoint on the
    # same data reproduces this number exactly
    model = StreamClassifier(config, spec, result.params)
    settled = _evaluate(model, data.samples, data.labels, args.data, args.checkpoint)
    with _naming(f"cannot write checkpoint {args.checkpoint}"):
        save_checkpoint(args.checkpoint, config, spec, result.params)
    report = RunReport(
        "train",
        seed=settings.seed,
        config={**dataclasses.asdict(config), **dataclasses.asdict(settings),
                "data": args.data, "checkpoint": args.checkpoint},
        metrics={"final_loss": result.final["loss"], "final_accuracy": settled.accuracy},
        timings={"prepare_seconds": result.prepare_seconds},
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


def _evaluate(model: StreamClassifier, samples, labels, data_path, checkpoint):
    """``evaluate_model`` on streams from a file; a rejected set or an overflow names both files."""
    with _naming(f"{data_path} with checkpoint {checkpoint}"):
        return evaluate_model(model, samples, labels)


def _cmd_eval(args) -> tuple[RunReport, int]:
    config, spec, params = load_checkpoint(args.checkpoint)
    data = _load_dataset(args.data)
    if len(data) == 0:
        raise InputError(f"{args.data}: empty evaluation set")
    model = StreamClassifier(config, spec, params)
    result = _evaluate(model, data.samples, data.labels, args.data, args.checkpoint)
    report = RunReport("eval", config={"checkpoint": args.checkpoint, "data": args.data},
                       metrics={"accuracy": result.accuracy, "samples": len(data)})
    classes = list(range(config.num_classes))
    report.add_table(
        "confusion", ["true\\pred"] + [str(c) for c in classes],
        [[str(c)] + [int(x) for x in row] for c, row in zip(classes, result.confusion)],
    )
    return report, 0


def _list_flag(text: str, flag: str, kind, valid, rule: str) -> list:
    """The comma-separated ``kind`` values of ``flag``; ``InputError`` saying ``rule`` if none or an invalid one."""
    with _naming(f"bad {flag} value {text!r}"):
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    if not values or not all(map(valid, values)):
        raise InputError(rule)
    return values


def _cmd_robustness(args) -> tuple[RunReport, int]:
    _require_at_least(args, 0, "seed")
    config, spec, params = load_checkpoint(args.checkpoint)
    bconfig, bspec, bparams = load_checkpoint(args.baseline_checkpoint)
    data = _load_dataset(args.data)
    rates = _list_flag(args.rates, "--rates", float, lambda r: 0.0 <= r < 1.0, "rates must lie in [0, 1)")
    model = StreamClassifier(config, spec, params)
    baseline = StreamClassifier(bconfig, bspec, bparams)
    perturb = datasets.perturb_drop if args.mode == "drop" else datasets.perturb_insert
    base_model = _evaluate(model, data.samples, data.labels, args.data, args.checkpoint).accuracy
    base_base = _evaluate(baseline, data.samples, data.labels, args.data, args.baseline_checkpoint).accuracy
    rows = [[0.0, base_model, 0.0, base_base, 0.0]]
    for rate in rates:
        if rate == 0.0:
            continue
        rng = np.random.default_rng(args.seed)
        perturbed = []
        for i, s in enumerate(data.samples):
            with _naming(f"{args.data}, sample {i} at rate {rate}"):
                perturbed.append(perturb(s, rate, rng))
        where = f"{args.data} at rate {rate}"
        am = _evaluate(model, perturbed, data.labels, where, args.checkpoint).accuracy
        ab = _evaluate(baseline, perturbed, data.labels, where, args.baseline_checkpoint).accuracy
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


def _median_epoch_seconds(trace: list, timed: int) -> float:
    """Median wall-clock over the last ``timed`` epochs."""
    return float(np.median([r["seconds"] for r in trace[-timed:]]))


def _cmd_bench(args) -> tuple[RunReport, int]:
    _require_at_least(args, 1, "timed_epochs")
    _require_at_least(args, 0, "seed")
    if not 0.0 < args.eval_fraction < 1.0:
        raise InputError(f"--eval-fraction must lie in (0, 1), got {args.eval_fraction}")
    config, settings = load_config_file(args.config)
    bconfig, bsettings = load_config_file(args.baseline_config)
    data = _load_dataset(args.data)
    factors = _list_flag(args.upsample, "--upsample", int, lambda f: f >= 1,
                         "upsample factors must be positive integers")
    for factor in factors:  # before any stream is upsampled
        for i, s in enumerate(data.samples):
            shape = ((s.num_samples - 1) * factor + 1, s.width)
            check_array_size(shape, f"{args.data} sample {i}", f"--upsample factor {factor}")
    train_idx, eval_idx = _split_eval(len(data), args.eval_fraction, args.seed)
    epochs = args.epochs + args.timed_epochs
    rows = []
    for factor in factors:
        up = []
        for i, s in enumerate(data.samples):
            with _naming(f"{args.data}, sample {i} at --upsample factor {factor}"):
                up.append(datasets.upsample_linear(s, factor))
        up_train, up_eval = [up[i] for i in train_idx], [up[i] for i in eval_idx]
        results = {}
        for tag, cfg, st, path in (("model", config, settings, args.config),
                                   ("baseline", bconfig, bsettings, args.baseline_config)):
            st = dataclasses.replace(st, epochs=epochs, seed=args.seed)
            with _naming(f"{path} on {args.data} at --upsample factor {factor}"):
                res = train(cfg, up_train, data.labels[train_idx], st)
                acc = evaluate_model(cfg, up_eval, data.labels[eval_idx], params=res.params).accuracy
            med = _median_epoch_seconds(res.trace, args.timed_epochs)
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
        tic = time.perf_counter()
        report, code = args.func(args)
        # every report: what its timings depend on, and the command's wall time
        report.config.update(environment())
        report.timings["total_seconds"] = time.perf_counter() - tic
        for kind, values in (("metric", report.metrics), ("timing", report.timings)):
            for key in sorted(values):
                if not np.isfinite(values[key]):
                    raise FloatingPointError(f"{report.command} report: {kind}.{key} is not finite")
    except (FloatingPointError, RuntimeError) as exc:
        # a numerical check failed: a value overflowed, a non-finite loss, an inexact inverse
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render_report(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
