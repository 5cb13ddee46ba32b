"""CLI subcommands: reports, exit codes, file formats."""

import argparse
import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from logsigrnn import cli, gen_synthetic, logsig_layer, lyndon, neural, save_streams
from logsigrnn.datasets import LabeledStreamSet
from logsigrnn.cli import (
    InputError,
    load_checkpoint,
    main,
    parse_config_text,
    save_checkpoint,
)
from logsigrnn.neural import ModelConfig, StreamClassifier
from logsigrnn.paths import TimedPath
from logsigrnn.reports import parse_report


@pytest.fixture
def capture(capsys):
    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    return run


@pytest.fixture
def stream_file(tmp_path):
    def make(name="streams.jsonl", count=6, **kwargs):
        path = tmp_path / name
        save_streams(gen_synthetic(count, seed=0, **kwargs), str(path))
        return str(path)

    return make


def run_cli(*argv):
    """``logsigrnn`` in a fresh interpreter, so that stderr holds every warning it prints."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "logsigrnn.cli", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


def assert_environment(report, **blas):
    """The report's ``config.*`` lines carry the environment: numpy, the usable CPUs and each BLAS variable as set."""
    assert report.config["numpy"] == np.__version__
    assert int(report.config["nproc"]) >= 1
    assert {var: report.config[var] for var in blas} == blas


def assert_single_error_line(stderr):
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr


SINGLE_SAMPLE_RECORD = (
    '{"kind": "header", "classes": ["a", "b", "c", "d"]}\n'
    '{"kind": "path", "label": 2, "n": 1, "d": 2, "times": [0.5], "points": [[1.0, -2.0]]}\n'
)


CORNER_RECORD = (
    '{"kind": "header", "classes": ["a"]}\n'
    '{"kind": "path", "label": 0, "n": 3, "d": 2,'
    ' "times": [0.0, 1.0, 2.0], "points": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]}\n'
)


class TestDims:
    def test_table_contents(self, capture):
        code, out = capture(["dims", "--width", "2", "--degree", "3"])
        assert code == 0
        report = parse_report(out)
        columns, rows = report.tables["dims"]
        assert columns == ["degree", "sig_dim", "logsig_dim", "gap"]
        assert [int(r[2]) for r in rows] == [2, 3, 5]
        assert [int(r[1]) for r in rows] == [3, 7, 15]

    def test_width_one_linear(self, capture):
        code, out = capture(["dims", "--width", "1", "--degree", "4"])
        report = parse_report(out)
        _, rows = report.tables["dims"]
        assert [int(r[2]) for r in rows] == [1, 1, 1, 1]

    def test_gap_nonnegative_nondecreasing(self, capture):
        _, out = capture(["dims", "--width", "4", "--degree", "6"])
        _, rows = parse_report(out).tables["dims"]
        gaps = [int(r[3]) for r in rows]
        assert all(g >= 0 for g in gaps) and gaps == sorted(gaps)

    def test_degree_zero_exits_2_naming_the_flag(self, capsys):
        assert main(["dims", "--width", "2", "--degree", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--degree" in err

    @pytest.mark.parametrize(
        "width,degree,message",
        [
            # width 1 keeps every entry small: only the row count is past the bound
            pytest.param("1", "1001", "--degree 1001 is past the 1000 levels", id="degree"),
            # once Python's "Exceeds the limit (4300 digits) for integer string conversion"
            pytest.param(
                "100000000000000000000", "300",
                "--width 100000000000000000000 at --degree 300: width**degree has 6001 digits", id="digits-wide",
            ),
            pytest.param("10", "1000", "--width 10 at --degree 1000: width**degree has 1001 digits", id="digits"),
        ],
    )
    def test_table_past_the_bounds_exits_2_naming_the_flag(self, capsys, width, degree, message):
        assert main(["dims", "--width", width, "--degree", degree]) == 2
        out, err = capsys.readouterr()
        assert_single_error_line(err)
        assert out == "" and message in err


class TestReportValues:
    @pytest.mark.parametrize("kind,value", [("metric", float("nan")), ("timing", float("inf"))])
    def test_non_finite_value_exits_1_without_a_report(self, monkeypatch, capsys, kind, value):
        original = cli._cmd_dims

        def dims(args):
            report, code = original(args)
            getattr(report, f"{kind}s")["forced"] = value
            return report, code

        monkeypatch.setattr(cli, "_cmd_dims", dims)
        assert main(["dims", "--width", "2", "--degree", "2"]) == 1
        captured = capsys.readouterr()
        assert_single_error_line(captured.err)
        assert captured.err == f"error: dims report: {kind}.forced is not finite\n"
        assert captured.out == ""


class TestLogsig:
    def test_corner_path_values(self, capture, tmp_path):
        path = tmp_path / "corner.jsonl"
        path.write_text(CORNER_RECORD)
        code, out = capture(["logsig", str(path), "--degree", "2", "--segments", "1"])
        assert code == 0
        report = parse_report(out)
        columns, rows = report.tables["sample0"]
        assert columns == ["1", "2", "12"]
        assert np.allclose([float(x) for x in rows[0]], [1.0, 1.0, 0.5])

    def test_degree_one_columns_are_letters(self, capture, stream_file):
        _, out = capture(["logsig", stream_file(), "--degree", "1"])
        columns, _ = parse_report(out).tables["sample0"]
        assert columns == ["1", "2"]

    def test_basis_list_flag(self, capture, tmp_path):
        path = tmp_path / "corner.jsonl"
        path.write_text(CORNER_RECORD)
        _, out = capture(["logsig", str(path), "--degree", "3", "--basis-list"])
        _, rows = parse_report(out).tables["basis"]
        assert [r[1] for r in rows] == ["1", "2", "12", "112", "122"]

    def test_skeleton_file_matches_its_flattened_paths(self, capture, tmp_path):
        skeletons = gen_synthetic(4, seed=2, layout="skeleton", joints=3, length_range=(5, 12))
        flat = LabeledStreamSet(
            [TimedPath(s.times, s.points) for s in skeletons.samples], skeletons.labels, skeletons.class_names, 2
        )
        reports = []
        for name, data in (("skel.jsonl", skeletons), ("flat.jsonl", flat)):
            save_streams(data, str(tmp_path / name))
            code, out = capture(["logsig", str(tmp_path / name), "--degree", "2", "--segments", "3"])
            assert code == 0
            reports.append(parse_report(out))
        assert '"kind": "skeleton"' in (tmp_path / "skel.jsonl").read_text()
        assert '"kind": "skeleton"' not in (tmp_path / "flat.jsonl").read_text()
        assert len(reports[0].tables) == 4 and reports[0].tables == reports[1].tables
        assert reports[0].metrics == reports[1].metrics

    def test_mixed_widths_exit_2(self, tmp_path, capsys):
        path = tmp_path / "mixed.jsonl"
        wide = '{"kind": "path", "label": 0, "n": 1, "d": 3, "times": [0.0], "points": [[1.0, 2.0, 3.0]]}\n'
        path.write_text(CORNER_RECORD + wide)
        assert main(["logsig", str(path)]) == 2
        assert "stream file mixes widths [2, 3]" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "path", "label": 0}\n')
        assert main(["logsig", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["logsig", "/nonexistent/file.jsonl"]) == 2
        capsys.readouterr()

    def test_overflowing_path_exits_1_naming_the_sample(self, tmp_path, capsys):
        path = tmp_path / "huge.jsonl"
        path.write_text(
            '{"kind": "path", "label": 0, "n": 3, "d": 2, "times": [0.0, 1.0, 2.0],'
            ' "points": [[0.0, 0.0], [1e200, -1e200], [-1e200, 3e200]]}\n'
        )
        result = run_cli("logsig", str(path), "--degree", "4")
        assert result.returncode == 1
        assert "nan" not in result.stdout.lower()
        assert_single_error_line(result.stderr)
        assert str(path) in result.stderr and "sample 0" in result.stderr

    def test_single_sample_stream_gives_zero_rows(self, capture, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text(SINGLE_SAMPLE_RECORD)
        code, out = capture(["logsig", str(path), "--degree", "3", "--segments", "3"])
        assert code == 0
        columns, rows = parse_report(out).tables["sample0"]
        assert columns == ["1", "2", "12", "112", "122"]
        assert [[float(x) for x in row] for row in rows] == [[0.0] * 5] * 3


def _path_record(label):
    return f'{{"kind": "path", "label": {label}, "n": 1, "d": 2, "times": [0.5], "points": [[1.0, -2.0]]}}\n'


def _skeleton_record(weight, n=2, times="[0.0, 1.0]", frames="[[[0.0], [1.0]], [[1.0], [2.0]]]"):
    return (
        f'{{"kind": "skeleton", "label": 0, "n": {n}, "joints": 2, "coords": 1, "times": {times},'
        f' "frames": {frames}, "adjacency": [[0.0, {weight}], [{weight}, 0.0]]}}\n'
    )


# a skeleton whose timestamps TimedPath's grid rule refuses
INFINITE_TIME_SKELETON = _skeleton_record(1.0, times="[0.0, Infinity]")

# every timestamp is finite, but the clock's span, last minus first, is not
OVERFLOWING_SPAN_PATH = (
    '{"kind": "path", "label": 0, "n": 3, "d": 2, "times": [-1e308, 0.0, 1e308],'
    ' "points": [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]}\n'
)

# points without coordinates: once loaded, then refused by the model's reshape naming neither line nor cause
ZERO_WIDTH_PATH = '{"kind": "path", "label": 0, "n": 2, "d": 0, "times": [0.0, 1.0], "points": [[], []]}\n'
ZERO_COORD_SKELETON = (
    '{"kind": "skeleton", "label": 0, "n": 2, "joints": 2, "coords": 0, "times": [0.0, 1.0],'
    ' "frames": [[[], []], [[], []]]}\n'
)


class TestStreamFileErrors:
    """A bad label, header or adjacency is one error line naming the file and line, and exit 2."""

    @pytest.mark.parametrize(
        "text,line",
        [
            pytest.param(_path_record("1e400"), 1, id="label-overflowing-float"),
            pytest.param(_path_record("1.5"), 1, id="label-fraction"),
            # without a header this label once asked for class names up to 1e30
            pytest.param(_path_record("1e30"), 1, id="label-huge-float"),
            pytest.param(_path_record(str(10**30)), 1, id="label-huge-integer"),
            pytest.param(_path_record("-1"), 1, id="label-negative"),
            pytest.param('{"kind": "header", "classes": 5}\n' + _path_record(0), 1, id="header-classes-number"),
            pytest.param('{"kind": "header", "classes": 0}\n' + _path_record(0), 1, id="header-classes-zero"),
            pytest.param('{"kind": "header", "classes": ["a", 1]}\n' + _path_record(0), 1, id="header-classes-mixed"),
            pytest.param('{"kind": "header", "classes": ["a", "b"]}\n' + _path_record(2), 2, id="label-past-header"),
            # a negative or infinite bone weight would make the graph normalization take sqrt of a bad row sum
            pytest.param(_skeleton_record("-3.0"), 1, id="adjacency-negative"),
            pytest.param(_skeleton_record("1e400"), 1, id="adjacency-infinite"),
            # a skeleton's grid obeys the path rule, so loading names the line
            pytest.param(INFINITE_TIME_SKELETON, 1, id="skeleton-infinite-time"),
            pytest.param(_skeleton_record(1.0, n=1, times="[NaN]", frames="[[[0.0], [1.0]]]"), 1, id="skeleton-one-nan-time"),
            # once two numpy warnings and an error naming neither file nor line
            pytest.param(OVERFLOWING_SPAN_PATH, 1, id="path-overflowing-time-span"),
            # the JSON decoder's recursion limit is a RuntimeError, once an exit 1 naming nothing
            pytest.param("[" * 100000 + "\n", 1, id="deeply-nested-json"),
        ],
    )
    def test_exits_2_naming_the_line(self, tmp_path, text, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        result = run_cli("logsig", str(path))
        assert result.returncode == 2
        assert_single_error_line(result.stderr)
        assert f"{path}: line {line}:" in result.stderr
        assert result.stdout == ""

    def test_train_on_an_infinite_time_exits_2_naming_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(INFINITE_TIME_SKELETON)
        config = _write_train_config(tmp_path, variant="gcn-logsig-rnn", epochs=1)
        result = run_cli("train", config, str(path), str(tmp_path / "m.ckpt"))
        assert result.returncode == 2
        assert_single_error_line(result.stderr)
        assert f"{path}: line 1: timestamps and points must be finite" in result.stderr
        assert not (tmp_path / "m.ckpt").exists()

    def test_train_on_an_overflowing_time_span_exits_2_naming_the_line(self, tmp_path):
        # once exit 1, naming the stream but not the file or the line
        path = tmp_path / "bad.jsonl"
        path.write_text(_path_record(0) + OVERFLOWING_SPAN_PATH)
        config = _write_train_config(tmp_path, epochs=1)
        result = run_cli("train", config, str(path), str(tmp_path / "m.ckpt"))
        assert result.returncode == 2
        assert_single_error_line(result.stderr)
        assert f"{path}: line 2: the time span -1e+308 .. 1e+308 overflows float64" in result.stderr
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "logsig"])
    @pytest.mark.parametrize("text", [ZERO_WIDTH_PATH, ZERO_COORD_SKELETON], ids=["path-d-0", "skeleton-coords-0"])
    def test_points_without_coordinates_exit_2_naming_the_line(self, tmp_path, command, text):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        ckpt = tmp_path / "m.ckpt"
        if command == "train":
            result = run_cli("train", _write_train_config(tmp_path, epochs=1), str(path), str(ckpt))
        else:
            result = run_cli("logsig", str(path))
        assert result.returncode == 2
        assert_single_error_line(result.stderr)
        assert f"{path}: line 1: a point needs at least one coordinate" in result.stderr
        assert result.stdout == "" and not ckpt.exists()


class TestGradcheck:
    def test_passes_and_reports(self, capture):
        code, out = capture(
            ["gradcheck", "--trials", "3", "--width", "2", "--degree", "2", "--seed", "1"]
        )
        assert code == 0
        report = parse_report(out)
        assert report.metrics["max_rel_err"] <= 1e-5
        assert report.metrics["passed"] == 1.0
        assert_environment(report)

    def test_degree_one_far_below_tolerance(self, capture):
        # linear map: only finite-difference roundoff remains
        _, out = capture(["gradcheck", "--trials", "3", "--degree", "1", "--seed", "2"])
        assert parse_report(out).metrics["max_rel_err"] <= 1e-6

    def test_fixed_seed_reproducible(self, capture):
        def strip_timings(text):
            return [ln for ln in text.splitlines() if not ln.startswith("timing.")]

        _, out1 = capture(["gradcheck", "--trials", "2", "--seed", "5"])
        _, out2 = capture(["gradcheck", "--trials", "2", "--seed", "5"])
        assert strip_timings(out1) == strip_timings(out2)

    def test_a_wrong_adjoint_fails_with_exit_1(self, capture, monkeypatch):
        backward = cli.backward_from_state
        monkeypatch.setattr(cli, "backward_from_state", lambda *args: 1.001 * backward(*args))
        code, out = capture(["gradcheck", "--trials", "2", "--degree", "3", "--seed", "0"])
        assert code == 1
        report = parse_report(out)
        assert report.metrics["passed"] == 0.0
        assert report.metrics["max_rel_err"] > 1e-4

    def test_no_trials_exits_2_naming_the_flag(self, capsys):
        # zero trials would check nothing and report a pass
        assert main(["gradcheck", "--trials", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--trials" in err


class TestFlags:
    @pytest.mark.parametrize(
        "argv,named",
        [
            (["dims", "--width", "0", "--degree", "2"], "--width"),
            (["gradcheck", "--degree", "0"], "--degree"),
            (["gradcheck", "--width", "0"], "--width"),
            (["gradcheck", "--segments", "0"], "--segments"),
            (["logsig", "STREAMS", "--degree", "0"], "--degree"),
            (["logsig", "STREAMS", "--segments", "0"], "--segments"),
        ],
    )
    def test_non_positive_value_exits_2_naming_the_flag(self, stream_file, argv, named):
        result = run_cli(*(stream_file() if arg == "STREAMS" else arg for arg in argv))
        assert result.returncode == 2
        assert_single_error_line(result.stderr)
        assert named in result.stderr
        assert result.stdout == ""


    @pytest.mark.parametrize(
        "argv",
        [
            ["gradcheck", "--seed", "-1"],
            ["robustness", "A.ckpt", "B.ckpt", "STREAMS", "--seed", "-1"],
            ["bench", "STREAMS", "--config", "A.txt", "--baseline-config", "B.txt", "--seed", "-1"],
        ],
        ids=["gradcheck", "robustness", "bench"],
    )
    def test_negative_seed_exits_2_naming_the_flag(self, stream_file, argv):
        result = run_cli(*(stream_file() if arg == "STREAMS" else arg for arg in argv))
        assert result.returncode == 2
        assert_single_error_line(result.stderr)
        assert "--seed must be >= 0, got -1" in result.stderr
        assert result.stdout == ""

    def test_negative_seed_in_a_train_config_exits_2_naming_the_key(self, stream_file, tmp_path):
        config = _write_train_config(tmp_path, seed=-1)
        result = run_cli("train", config, stream_file(), str(tmp_path / "model.ckpt"))
        assert result.returncode == 2
        assert_single_error_line(result.stderr)
        assert "seed must be >= 0, got -1" in result.stderr


class TestFailureNaming:
    """A file that cannot be read or used is one error line naming it, and exit 2."""

    @pytest.mark.parametrize("bad", ["stream", "config", "checkpoint", "baseline-config", "mixed-shapes"])
    def test_exits_2_naming_the_file(self, stream_file, tmp_path, bad):
        data, config = stream_file(count=8), _write_train_config(tmp_path, epochs=1)
        target = tmp_path / "bad"
        if bad in ("stream", "config", "checkpoint"):
            target.write_bytes(b"\xff\xfe\n")  # not UTF-8
            argv = {
                "stream": ["logsig", str(target)],
                "config": ["train", str(target), data, str(tmp_path / "m.ckpt")],
                "checkpoint": ["eval", str(target), data],
            }[bad]
            named = f"{target}: 'utf-8' codec can't decode"
        elif bad == "baseline-config":
            target.write_text("variant = frame-rnn\nbogus = 1\n")
            argv = ["bench", data, "--config", config, "--baseline-config", str(target)]
            named = f"config file {target}: config line 2: unknown key 'bogus'"
        else:
            target.write_text(Path(data).read_text() + Path(stream_file("skeletons.jsonl", count=2, layout="skeleton")).read_text())
            argv = ["train", config, str(target), str(tmp_path / "m.ckpt")]
            named = f"{config} on {target}: mixed input shapes"
        result = run_cli(*argv)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert_single_error_line(result.stderr)
        assert named in result.stderr
        assert result.stdout == ""


# a value for a config key or a checkpoint token: bounded integers, so no
# degree, width or segment count makes a parse slow
_FUZZ_VALUES = (
    st.integers(-3, 40).map(str)
    | st.floats().map(repr)
    | st.sampled_from(["", "true", "off", "1e400", "el-logsig-rnn", "gcn-logsig-rnn-2", "frame-rnn", "lstm", "param", "end"])
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
)


@st.composite
def _config_texts(draw):
    """Up to six ``key = value`` lines over the config keys and a few others."""
    keys = st.sampled_from(sorted(cli._CONFIG_FIELDS) + sorted(cli._TRAIN_FIELDS)) | st.text(max_size=3)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        layout = draw(st.sampled_from(["{} = {}", "{}={}", "{} {}", "{} = {}  # note"]))
        lines.append(layout.format(draw(keys), draw(_FUZZ_VALUES)))
    return "\n".join(lines)


@st.composite
def _mutated_checkpoints(draw, lines):
    """``lines`` of a checkpoint with up to three tokens replaced or lines dropped or repeated, maybe cut short."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["token", "drop", "repeat"]))
        if how == "token":
            tokens = lines[at].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_FUZZ_VALUES)
            lines[at] = " ".join(tokens)
        elif how == "drop" and len(lines) > 1:
            del lines[at]
        else:
            lines.insert(at, lines[at])
    text = "\n".join(lines) + "\n"
    cut = draw(st.none() | st.integers(0, len(text)))
    return text if cut is None else text[:cut]


@pytest.fixture(scope="module")
def checkpoint_lines(tmp_path_factory):
    cfg = ModelConfig(num_classes=2, hidden=2, embed_channels=1, embed_dim=2, num_segments=2)
    target = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(str(target), cfg, (1, 2), StreamClassifier.build(cfg, (1, 2), 0).params)
    return target.read_text().splitlines()


class TestParserFuzz:
    """Every config or checkpoint text parses or raises ``InputError``, never another exception."""

    @settings(max_examples=200, deadline=None)
    @given(_config_texts())
    def test_config_text_parses_or_raises_input_error(self, text):
        try:
            config, settings_ = parse_config_text(text)
        except InputError:
            return
        config.validate()
        settings_.validate()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_checkpoint_loads_or_raises_input_error(self, checkpoint_lines, tmp_path_factory, data):
        target = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
        target.write_text(data.draw(_mutated_checkpoints(checkpoint_lines)), encoding="utf-8")
        try:
            config, spec, params = load_checkpoint(str(target))
        except InputError:
            return
        built = StreamClassifier(config, spec, {}).param_shapes
        assert {name: p.shape for name, p in params.items()} == built


# ---------------------------------------------------------------------------
# main on generated files and flags

# inputs that the workflow's long-stream step refuses and main reads: a stream
# whose clock spans more than float64 holds, a stream of points with no
# coordinates and its config
SPAN_RECORD = (
    '{"kind": "path", "label": 0, "n": 3, "d": 2, "times": [-1e308, 0.0, 1e308], '
    '"points": [[0, 1], [1, 0], [2, 2]]}\n'
)
ZERO_RECORD = '{"kind": "path", "label": 0, "n": 2, "d": 0, "times": [0.0, 1.0], "points": [[], []]}\n'
LONG_CONFIG = "epochs = 1\nnum_segments = 2800\nhidden = 8\n"
# one 1-coordinate stream, whose rows at any degree are its increments
ONE_COORDINATE_RECORD = '{"kind": "path", "label": 0, "n": 3, "d": 1, "times": [0, 1, 2], "points": [[0], [2], [1]]}\n'
# a stream file's lines that load_streams refuses
RAW_LINES = (SPAN_RECORD, ZERO_RECORD, "{oops\n", '{"kind": "path"}\n', '{"kind": "tree"}\n')
# past the Chen factor budget at degree 15 in 4 segments, (2103, 2**14) entries,
# as the step's 20000-sample streams are
LONG_RECORD = json.dumps({
    "kind": "path", "label": 0, "n": 2100, "d": 2, "times": list(range(2100)),
    "points": [[math.sin(i / 50), math.cos(i / 70)] for i in range(2100)],
}) + "\n"


def _mostly(valid, *invalid):
    """``valid``, or in about one draw in five one of the values ``invalid``."""
    return st.sampled_from([True] * 4 + [False]).flatmap(lambda ok: valid if ok else st.sampled_from(invalid))


@st.composite
def _stream_texts(draw):
    """One to four records of one layout, mostly valid, and maybe one raw line among them."""
    joints, coords = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    skeleton = draw(st.booleans())
    scale = draw(_mostly(st.just(1.0), 1e-300, 1e300))
    values = _mostly(st.floats(-10.0, 10.0), 0.0, 1e150, 1e300, -1e300, 5e-324)
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 8))
        gaps = draw(st.lists(st.floats(0.1, 2.0), min_size=n - 1, max_size=n - 1))
        times = [scale * sum(gaps[:i]) for i in range(n)]
        flat = draw(st.lists(values, min_size=n * joints * coords, max_size=n * joints * coords))
        record = {"kind": "skeleton" if skeleton else "path", "label": draw(st.integers(0, 1)), "n": n}
        if skeleton:
            points = [flat[k * coords : (k + 1) * coords] for k in range(n * joints)]
            frames = [points[i * joints : (i + 1) * joints] for i in range(n)]
            record.update(joints=joints, coords=coords, times=times, frames=frames)
            if draw(st.booleans()):  # a chain of bones
                record["adjacency"] = [[float(abs(i - j) == 1) for j in range(joints)] for i in range(joints)]
        else:
            width = joints * coords
            record.update(d=width, times=times, points=[flat[i * width : (i + 1) * width] for i in range(n)])
        lines.append(json.dumps(record) + "\n")
    raw = draw(_mostly(st.none(), *RAW_LINES))
    if raw is not None:
        lines.insert(draw(st.integers(0, len(lines))), raw)
    return "".join(lines)


# values for each config key: small sizes, so that a run takes milliseconds;
# a few that the config checks refuse or that overflow in training
_MAIN_CONFIG_VALUES = {
    "variant": _mostly(st.sampled_from(["el-logsig-rnn", "gcn-logsig-rnn", "gcn-logsig-rnn-2", "frame-rnn"]), "rnn"),
    "degree": _mostly(st.integers(1, 3), 0),
    "num_segments": _mostly(st.integers(1, 3), 0),
    "num_segments2": st.integers(1, 3),
    "embed_channels": st.integers(1, 2),
    "embed_dim": st.integers(1, 3),
    "gcn_dim": st.integers(1, 3),
    "hidden": _mostly(st.integers(1, 4), 0),
    "cell": st.sampled_from(["vanilla", "lstm"]),
    "num_classes": _mostly(st.integers(2, 4), 1),
    "use_embedding": _mostly(st.sampled_from(["true", "false"]), "maybe"),
    "use_accumulative": st.sampled_from(["true", "false"]),
    "use_time": st.sampled_from(["true", "false"]),
    "use_start_points": st.sampled_from(["true", "false"]),
    "resample_frames": st.integers(0, 4),
    "learning_rate": _mostly(st.sampled_from(["0.1", "0.01"]), "1e300", "nan"),
    "momentum": st.sampled_from(["0.9", "0"]),
    "batch_size": _mostly(st.integers(1, 4), 0),
    "seed": _mostly(st.integers(0, 3), -1),
    "clip_norm": _mostly(st.sampled_from(["1.0", "inf"]), "0"),
}


@st.composite
def _main_configs(draw):
    """``epochs`` and ``hidden`` (their defaults train for seconds) and any of the other keys."""
    keys = draw(st.lists(st.sampled_from(sorted(_MAIN_CONFIG_VALUES)), unique=True, max_size=6))
    lines = [f"epochs = {draw(_mostly(st.integers(1, 2), 0))}", f"hidden = {draw(_MAIN_CONFIG_VALUES['hidden'])}"]
    lines += [f"{key} = {draw(_MAIN_CONFIG_VALUES[key])}" for key in keys if key != "hidden"]
    lines.append(draw(_mostly(st.just(""), "bogus = 1", "degree 2", "epochs = many")))
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _checkpoint_lines() -> tuple[str, ...]:
    """A checkpoint of a small el-logsig-rnn model on one-joint, 2-coordinate streams."""
    cfg = ModelConfig(num_classes=4, hidden=2, embed_channels=1, embed_dim=2, num_segments=2)
    with tempfile.TemporaryDirectory() as folder:
        target = os.path.join(folder, "model.ckpt")
        save_checkpoint(target, cfg, (1, 2), StreamClassifier.build(cfg, (1, 2), 0).params)
        return tuple(Path(target).read_text().splitlines())


_SMALL = _mostly(st.integers(1, 3).map(str), "0", "-1", "x")
_SIZES = _mostly(st.integers(1, 4).map(str), "0", "-1", "x", "5000", str(10**9))


@st.composite
def _main_runs(draw):
    """Files, by name, and one to three ``main`` argument lists on them (``{dir}`` is their folder)."""
    files = {"streams.jsonl": draw(_stream_texts()), "model.cfg": draw(_main_configs())}
    data = draw(_mostly(st.just("{dir}/streams.jsonl"), "{dir}/absent.jsonl", "{dir}"))
    config, ckpt = "{dir}/model.cfg", "{dir}/model.ckpt"
    command = draw(st.sampled_from(["logsig", "dims", "gradcheck", "train", "eval", "bench"]))
    if command == "logsig":
        degree = draw(_SIZES | st.just("65535"))
        runs = [["logsig", data, "--degree", degree, "--segments", draw(_SIZES)]
                + draw(st.sampled_from([[], ["--basis-list"]]))]
    elif command == "dims":
        runs = [["dims", "--width", draw(_SIZES), "--degree", draw(st.integers(-1, 6).map(str) | st.just("5000"))]]
    elif command == "gradcheck":
        runs = [["gradcheck", "--trials", draw(_SMALL), "--width", draw(_SMALL), "--degree", draw(_SMALL),
                 "--segments", draw(_SIZES), "--seed", draw(_SMALL)]]
    elif command == "eval":
        lines = _checkpoint_lines()
        files["given.ckpt"] = draw(st.just("\n".join(lines) + "\n") | _mutated_checkpoints(lines))
        runs = [["eval", "{dir}/given.ckpt", data]]
    elif command == "bench":
        files["base.cfg"] = draw(_main_configs())
        runs = [["bench", data, "--config", config, "--baseline-config", "{dir}/base.cfg",
                 "--upsample", draw(_mostly(st.sampled_from(["1", "1,2"]), "0", "x", "", "1," + str(10**9))),
                 "--epochs", draw(st.sampled_from(["0", "1"])), "--timed-epochs", "1",
                 "--eval-fraction", draw(_mostly(st.sampled_from(["0.5", "0.25"]), "0", "nan")),
                 "--seed", draw(_SMALL)]]
    else:  # train, then evaluate and perturb its checkpoint
        target = draw(_mostly(st.just(ckpt), "{dir}/missing/model.ckpt", "{dir}"))
        runs = [["train", config, data, target] + draw(st.sampled_from([[], ["--eval-data", data]])),
                ["eval", ckpt, data],
                ["robustness", ckpt, ckpt, data,
                 "--rates", draw(_mostly(st.sampled_from(["0.2", "0,0.5"]), "1.5", "x", "nan")),
                 "--mode", draw(st.sampled_from(["drop", "insert"])), "--seed", draw(_SMALL)]]
    return files, runs


def _main_in_process(argv):
    """``main(argv)``'s exit code, stdout, stderr and the warnings it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def test_every_report_records_the_environment_and_its_wall_time(capture, stream_file, tmp_path):
    data = stream_file(count=10)
    config = _write_train_config(tmp_path, epochs=1)
    baseline = _write_train_config(tmp_path, name="base.txt", variant="frame-rnn", epochs=1)
    model, base = str(tmp_path / "m.ckpt"), str(tmp_path / "b.ckpt")
    runs = [
        ["dims", "--width", "2", "--degree", "3"],
        ["logsig", data, "--degree", "2", "--segments", "2"],
        ["gradcheck", "--trials", "1", "--width", "2", "--degree", "2"],
        ["train", baseline, data, base],
        ["train", config, data, model],
        ["eval", model, data],
        ["robustness", model, base, data, "--rates", "0.3"],
        ["bench", data, "--config", config, "--baseline-config", baseline, "--upsample", "1",
         "--epochs", "1", "--timed-epochs", "1"],
    ]
    subcommands = next(a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in runs} == set(subcommands)
    for argv in runs:
        code, out = capture(argv)
        assert code == 0, argv
        report = parse_report(out)
        assert_environment(report)
        assert 0.0 < report.timings["total_seconds"] < math.inf, argv


class TestMainFuzz:
    """``main`` on small generated stream, config and checkpoint files and
    flag values exits 0, 1 or 2 with no exception and no warning, and any
    report it prints has only finite metrics and timings."""

    @settings(max_examples=100, deadline=None)
    @given(_main_runs())
    @example(({"zero.jsonl": ZERO_RECORD, "long.cfg": LONG_CONFIG},
              [["train", "{dir}/long.cfg", "{dir}/zero.jsonl", "{dir}/zero.ckpt"]]))
    @example(({"long.jsonl": LONG_RECORD}, [["logsig", "{dir}/long.jsonl", "--degree", "15", "--segments", "4"]]))
    @example(({f"{i}.jsonl": line for i, line in enumerate(RAW_LINES)},
              [["logsig", f"{{dir}}/{i}.jsonl"] for i in range(len(RAW_LINES))]))
    @example(({}, [["dims", "--width", "2", "--degree", "5000"]]))
    @example(({"one.jsonl": ONE_COORDINATE_RECORD},
              [["logsig", "{dir}/one.jsonl", "--degree", "65535", "--segments", "2"]]))
    def test_exit_codes_and_reports(self, case):
        files, runs = case
        with tempfile.TemporaryDirectory() as folder:
            for name, text in files.items():
                Path(folder, name).write_text(text)
            for argv in runs:
                code, out, err, caught = _main_in_process([arg.format(dir=folder) for arg in argv])
                assert code in (0, 1, 2), (argv, code)
                assert "Traceback" not in err and "Warning" not in err, (argv, err)
                assert not caught, (argv, [str(w.message) for w in caught])
                if code == 0:
                    report = parse_report(out)
                    values = {**report.metrics, **report.timings}
                    assert all(np.isfinite(v) for v in values.values()), (argv, values)
                elif code == 2:
                    assert (out == "" and err.startswith("error: ")) or "usage:" in err, (argv, err)


class TestConfigFiles:
    def test_parse_and_defaults(self):
        config, settings = parse_config_text(
            "variant = el-logsig-rnn\n"
            "degree = 2\n"
            "num_segments = 4  # tuned\n"
            "cell = lstm\n"
            "use_accumulative = false\n"
            "learning_rate = 0.05\n"
            "epochs = 3\n"
        )
        assert config.num_segments == 4
        assert config.use_accumulative is False
        assert settings.learning_rate == 0.05
        assert settings.momentum == 0.9

    def test_unknown_key_rejected(self):
        from logsigrnn.cli import InputError

        with pytest.raises(InputError, match="unknown key"):
            parse_config_text("not_a_key = 3\n")

    def test_bad_variant_rejected(self):
        from logsigrnn.cli import InputError

        with pytest.raises(InputError, match="variant"):
            parse_config_text("variant = transformer\n")


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        cfg = ModelConfig(num_classes=3, hidden=5, embed_channels=2, embed_dim=3)
        model = StreamClassifier.build(cfg, (1, 2), 42)
        target = str(tmp_path / "model.ckpt")
        save_checkpoint(target, cfg, (1, 2), model.params)
        config, spec, params = load_checkpoint(target)
        assert config == cfg
        assert spec == (1, 2)
        assert set(params) == set(model.params)
        for name in params:
            assert np.array_equal(params[name], model.params[name])

    def test_not_a_checkpoint_rejected(self, tmp_path):
        from logsigrnn.cli import InputError

        bad = tmp_path / "bad.ckpt"
        bad.write_text("junk\n")
        with pytest.raises(InputError, match="not a checkpoint"):
            load_checkpoint(str(bad))

    @staticmethod
    def _edited_checkpoint(tmp_path, edit):
        cfg = ModelConfig(num_classes=4, hidden=8, embed_channels=2, embed_dim=3)
        target = tmp_path / "model.ckpt"
        save_checkpoint(str(target), cfg, (1, 2), StreamClassifier.build(cfg, (1, 2), 0).params)
        target.write_text("\n".join(edit(target.read_text().splitlines())) + "\n")
        return str(target)

    @staticmethod
    def _assert_eval_exits_2(target, data, capsys):
        assert main(["eval", target, data]) == 2
        err = capsys.readouterr().err
        assert target in err and "Traceback" not in err

    def test_truncated_after_params_count_exits_2(self, tmp_path, stream_file, capsys):
        def cut(lines):
            return lines[: next(i for i, ln in enumerate(lines) if ln.startswith("params ")) + 1]

        self._assert_eval_exits_2(self._edited_checkpoint(tmp_path, cut), stream_file(), capsys)

    def test_missing_param_exits_2(self, tmp_path, stream_file, capsys):
        def drop_head_b(lines):
            at = next(i for i, ln in enumerate(lines) if ln.startswith("param head.b "))
            count = next(ln for ln in lines if ln.startswith("params "))
            lines = lines[:at] + lines[at + 2 :]
            return [f"params {int(ln.split()[1]) - 1}" if ln == count else ln for ln in lines]

        target = self._edited_checkpoint(tmp_path, drop_head_b)
        self._assert_eval_exits_2(target, stream_file(), capsys)
        from logsigrnn.cli import InputError

        with pytest.raises(InputError, match="head.b"):
            load_checkpoint(target)

    @pytest.mark.parametrize(
        "header",
        [
            pytest.param("param head.b 99999999999999999999 4", id="fewer-sizes"),
            pytest.param("param head.b 1 4 777 5", id="more-sizes"),
        ],
    )
    def test_param_line_without_ndim_sizes_exits_2(self, tmp_path, stream_file, capsys, header):
        def rewrite_head_b(lines):
            return [header if ln == "param head.b 1 4" else ln for ln in lines]

        target = self._edited_checkpoint(tmp_path, rewrite_head_b)
        self._assert_eval_exits_2(target, stream_file(), capsys)
        line = Path(target).read_text().splitlines().index(header) + 1
        with pytest.raises(InputError, match=f"checkpoint {re.escape(target)}, line {line}: param head.b"):
            load_checkpoint(target)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_param_exits_2(self, tmp_path, stream_file, capsys, value):
        def poison_head_b(lines):
            at = next(i for i, ln in enumerate(lines) if ln.startswith("param head.b ")) + 1
            values = lines[at].split()
            return lines[:at] + [" ".join([value] + values[1:])] + lines[at + 1 :]

        target = self._edited_checkpoint(tmp_path, poison_head_b)
        self._assert_eval_exits_2(target, stream_file(), capsys)
        from logsigrnn.cli import InputError

        with pytest.raises(InputError, match="head.b"):
            load_checkpoint(target)

    def test_header_disagreeing_with_param_shapes_exits_2(self, tmp_path, stream_file, capsys):
        def claim_hidden_9(lines):
            return ["hidden = 9" if ln == "hidden = 8" else ln for ln in lines]

        target = self._edited_checkpoint(tmp_path, claim_hidden_9)
        self._assert_eval_exits_2(target, stream_file(), capsys)
        from logsigrnn.cli import InputError

        with pytest.raises(InputError, match="shape"):
            load_checkpoint(target)

    @pytest.mark.parametrize(
        "line,message",
        [("bogus = 1", "unknown key 'bogus'"), ("hidden 8", "expected 'key = value', got 'hidden 8'")],
        ids=["unknown-key", "no-equals"],
    )
    def test_header_line_error_names_the_file_and_the_line(self, tmp_path, line, message):
        # the header is read as config-file lines
        target = self._edited_checkpoint(tmp_path, lambda lines: [line if ln == "hidden = 8" else ln for ln in lines])
        at = Path(target).read_text().splitlines().index(line) + 1
        with pytest.raises(InputError, match=re.escape(f"checkpoint {target}: config line {at}: {message}")):
            load_checkpoint(target)

    def test_header_with_an_invalid_config_value_exits_2(self, tmp_path, stream_file, capsys):
        def claim_hidden_0(lines):
            return ["hidden = 0" if ln == "hidden = 8" else ln for ln in lines]

        target = self._edited_checkpoint(tmp_path, claim_hidden_0)
        self._assert_eval_exits_2(target, stream_file(), capsys)
        from logsigrnn.cli import InputError

        with pytest.raises(InputError, match="hidden"):
            load_checkpoint(target)

    def test_repeated_param_exits_2(self, tmp_path, stream_file, capsys):
        # a second embed.point_w block of zeros must not replace the first
        def repeat_point_w_as_zeros(lines):
            at = next(i for i, ln in enumerate(lines) if ln.startswith("param embed.point_w "))
            zeros = " ".join(["0.0"] * len(lines[at + 1].split()))
            count = next(ln for ln in lines if ln.startswith("params "))
            lines = lines[:-1] + [lines[at], zeros, "end"]
            return [f"params {int(ln.split()[1]) + 1}" if ln == count else ln for ln in lines]

        target = self._edited_checkpoint(tmp_path, repeat_point_w_as_zeros)
        self._assert_eval_exits_2(target, stream_file(), capsys)
        from logsigrnn.cli import InputError

        with pytest.raises(InputError, match="repeated param embed.point_w"):
            load_checkpoint(target)

    def test_unexpected_param_exits_2(self, tmp_path, stream_file, capsys):
        def add_extra_block(lines):
            count = next(ln for ln in lines if ln.startswith("params "))
            lines = lines[:-1] + ["param extra.w 1 2", "0.0 0.0", "end"]
            return [f"params {int(ln.split()[1]) + 1}" if ln == count else ln for ln in lines]

        target = self._edited_checkpoint(tmp_path, add_extra_block)
        self._assert_eval_exits_2(target, stream_file(), capsys)
        from logsigrnn.cli import InputError

        with pytest.raises(InputError, match=r"unexpected params \['extra.w'\]"):
            load_checkpoint(target)

    @pytest.mark.parametrize("ending", ["file twice", "no end", "text after end"])
    def test_anything_but_end_after_the_params_exits_2(self, tmp_path, stream_file, capsys, ending):
        def edit(lines):
            return {"file twice": lines + lines, "no end": lines[:-1], "text after end": lines + ["end"]}[ending]

        target = self._edited_checkpoint(tmp_path, edit)
        self._assert_eval_exits_2(target, stream_file(), capsys)
        from logsigrnn.cli import InputError

        with pytest.raises(InputError, match=target):
            load_checkpoint(target)


def _write_train_config(tmp_path, name="cfg.txt", **overrides):
    lines = {
        "variant": "el-logsig-rnn",
        "degree": 2,
        "num_segments": 2,
        "embed_channels": 2,
        "embed_dim": 3,
        "hidden": 6,
        "cell": "vanilla",
        "num_classes": 4,
        "epochs": 2,
        "seed": 0,
    }
    lines.update(overrides)
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return str(path)


class TestTrainEval:
    def test_train_then_eval(self, capture, stream_file, tmp_path):
        data = stream_file(count=12)
        config = _write_train_config(tmp_path)
        ckpt = str(tmp_path / "model.ckpt")
        code, out = capture(["train", config, data, ckpt])
        assert code == 0
        train_report = parse_report(out)
        assert "final_accuracy" in train_report.metrics
        assert_environment(train_report)
        assert len(train_report.tables["trace"][1]) == 2

        code, out = capture(["eval", ckpt, data])
        assert code == 0
        eval_report = parse_report(out)
        assert 0.0 <= eval_report.metrics["accuracy"] <= 1.0
        assert_environment(eval_report)
        assert eval_report.timings["total_seconds"] > 0
        # confusion-matrix total matches the sample count
        _, rows = eval_report.tables["confusion"]
        assert sum(int(x) for row in rows for x in row[1:]) == 12

    def test_eval_reproduces_final_training_accuracy(self, capture, stream_file, tmp_path):
        data = stream_file(count=10)
        config = _write_train_config(tmp_path, epochs=3)
        ckpt = str(tmp_path / "model.ckpt")
        _, train_out = capture(["train", config, data, ckpt])
        final_acc = parse_report(train_out).metrics["final_accuracy"]
        _, eval_out = capture(["eval", ckpt, data])
        # same checkpoint, same data, same computation
        assert parse_report(eval_out).metrics["accuracy"] >= final_acc - 1e-9

    def test_labels_beyond_checkpoint_classes_exit_2(self, stream_file, tmp_path, capsys):
        data = stream_file(count=8)
        cfg = ModelConfig(num_classes=2, hidden=5, embed_channels=2, embed_dim=3)
        ckpt = str(tmp_path / "two-class.ckpt")
        save_checkpoint(ckpt, cfg, (1, 2), StreamClassifier.build(cfg, (1, 2), 0).params)
        for argv in (["eval", ckpt, data], ["robustness", ckpt, ckpt, data, "--rates", "0.2"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert data in err and ckpt in err and "2-class" in err

    @pytest.mark.parametrize(
        "variant,layout,overrides",
        [
            pytest.param("el-logsig-rnn", "path", {}, id="el-mapped"),
            # the embedding's matrix itself overflows
            pytest.param("el-logsig-rnn", "path", {"learning_rate": "1e300"}, id="el-mapped-1e300"),
            # 5-joint 2-D skeletons at degree 3 take the per-path route, whose
            # paths raw @ L overflow once the embedding has diverged
            pytest.param("el-logsig-rnn", "skeleton", {"degree": 3, "learning_rate": "1e300"}, id="el-per-path"),
            # a diverged embedding matrix holds infinities, so raw @ L meets 0 * inf
            pytest.param(
                "el-logsig-rnn", "skeleton",
                {"degree": 3, "embed_channels": 6, "embed_dim": 8, "learning_rate": "1e300"}, id="el-per-path-inf",
            ),
            pytest.param("gcn-logsig-rnn", "skeleton", {}, id="gcn"),
            pytest.param("gcn-logsig-rnn-2", "skeleton", {}, id="gcn-2"),
            # every path stays finite; the second block's recurrent unroll overflows
            pytest.param(
                "gcn-logsig-rnn-2", "skeleton",
                {"degree": 3, "num_segments2": 2, "epochs": 4, "learning_rate": "1e50"}, id="gcn-2-unroll",
            ),
            pytest.param("frame-rnn", "skeleton", {}, id="frame-rnn"),
        ],
    )
    def test_non_finite_loss_exits_1(self, stream_file, tmp_path, variant, layout, overrides):
        settings = {"variant": variant, "learning_rate": "1e80", "epochs": 3, **overrides}
        config = _write_train_config(tmp_path, **settings)
        result = run_cli("train", config, stream_file(count=8, layout=layout), str(tmp_path / "m.ckpt"))
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert_single_error_line(result.stderr)
        assert "non-finite loss" in result.stderr

    @pytest.mark.parametrize(
        "where,layout,scale",
        [
            # frames near 1e200 overflow the degree-3 rows of the raw path
            pytest.param("training", "path", 1e200, id="training"),
            pytest.param("eval", "path", 1e200, id="eval"),
            # finite frames near 1.7e308 overflow the accumulative layer's running sums
            pytest.param("training", "path", 1.7e308, id="training-running-sums-el"),
            pytest.param("eval", "path", 1.7e308, id="eval-running-sums-el"),
            pytest.param("training", "skeleton", 1e308, id="training-running-sums-gcn"),
            pytest.param("eval", "skeleton", 1e308, id="eval-running-sums-gcn"),
            # the gcn graph mix itself overflows
            pytest.param("training", "skeleton", 1.7e308, id="training-graph-mix-gcn"),
        ],
    )
    def test_overflowing_stream_exits_1_naming_the_set_and_stream(self, stream_file, tmp_path, where, layout, scale):
        # stream 2 overflows while the sets are prepared, once, before the first epoch
        streams = gen_synthetic(4, seed=0, layout=layout)
        times = [0.0, 1.0, 2.0]
        streams.samples[2] = (
            TimedPath(times, [[0.0, 0.0], [scale, scale], [scale, 3.0]]) if layout == "path"
            else TimedPath(times, np.full((3, 5, 2), scale), streams.samples[2].adjacency)
        )
        huge = tmp_path / "huge.jsonl"
        save_streams(streams, str(huge))
        variant = "el-logsig-rnn" if layout == "path" else "gcn-logsig-rnn"
        config = _write_train_config(tmp_path, variant=variant, degree=3)
        if where == "training":
            data, extra = str(huge), []
        else:
            data, extra = stream_file(count=8, layout=layout), ["--eval-data", str(huge)]
        target = tmp_path / "m.ckpt"
        result = run_cli("train", config, data, str(target), *extra)
        assert result.returncode == 1
        assert_single_error_line(result.stderr)
        assert f"{where} stream 2" in result.stderr
        assert result.stdout == "" and not target.exists()

    def test_overflowing_head_exits_1_naming_both_files(self, capture, stream_file, tmp_path):
        data = stream_file(count=8)
        ckpt = tmp_path / "model.ckpt"
        assert capture(["train", _write_train_config(tmp_path), data, str(ckpt)])[0] == 0
        # a head.w of alternating +-1e308 overflows the logits
        lines = ckpt.read_text().splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("param head.w ")) + 1
        lines[at] = " ".join(repr((-1) ** k * 1e308) for k in range(len(lines[at].split())))
        ckpt.write_text("\n".join(lines) + "\n")
        for argv in (["eval", str(ckpt), data], ["robustness", str(ckpt), str(ckpt), data, "--rates", "0.2"]):
            result = run_cli(*argv)
            assert result.returncode == 1
            assert_single_error_line(result.stderr)
            assert data in result.stderr and str(ckpt) in result.stderr
            assert result.stdout == ""

    def test_overflowing_settled_accuracy_exits_1_without_a_checkpoint(self, stream_file, tmp_path):
        # the last step's update overflows the parameters; the settled
        # accuracy is taken before the checkpoint would be written
        config = _write_train_config(tmp_path, epochs=1, learning_rate="1e308", momentum="1e308")
        data, ckpt = stream_file(count=8), tmp_path / "m.ckpt"
        result = run_cli("train", config, data, str(ckpt))
        assert result.returncode == 1
        assert_single_error_line(result.stderr)
        assert data in result.stderr
        assert not ckpt.exists()

    def test_overflowing_perturbed_stream_exits_1_naming_the_files_and_rate(self, capture, stream_file, tmp_path):
        ckpt = str(tmp_path / "model.ckpt")
        assert capture(["train", _write_train_config(tmp_path), stream_file(count=8), ckpt])[0] == 0
        # the running sums stay finite on the stream itself, not once samples are inserted
        edge = tmp_path / "edge.jsonl"
        edge.write_text(
            '{"kind": "path", "label": 0, "n": 3, "d": 2, "times": [0.0, 1.0, 2.0],'
            ' "points": [[0.0, 0.0], [0.9e308, 0.0], [0.0, 1.0]]}\n'
        )
        assert capture(["eval", ckpt, str(edge)])[0] == 0
        result = run_cli("robustness", ckpt, ckpt, str(edge), "--rates", "0.6", "--mode", "insert")
        assert result.returncode == 1
        assert_single_error_line(result.stderr)
        assert f"{edge} at rate 0.6 with checkpoint {ckpt}: stream 0" in result.stderr

    def test_train_report_times_the_preparation(self, capture, stream_file, tmp_path):
        data = stream_file(count=8)
        code, out = capture(["train", _write_train_config(tmp_path), data, str(tmp_path / "m.ckpt"), "--eval-data", data])
        assert code == 0
        timings = parse_report(out).timings
        assert 0 < timings["prepare_seconds"] < timings["total_seconds"]

    @pytest.mark.parametrize(
        "key,value",
        [
            ("epochs", 0), ("batch_size", 0), ("clip_norm", -1.0), ("hidden", 0), ("embed_channels", 0),
            ("embed_dim", 0), ("gcn_dim", 0), ("resample_frames", -3), ("learning_rate", "nan"),
            ("momentum", "inf"),
        ],
    )
    def test_bad_train_settings_exit_2_naming_the_key(self, stream_file, tmp_path, key, value):
        variant = "frame-rnn" if key == "resample_frames" else "el-logsig-rnn"
        config = _write_train_config(tmp_path, variant=variant, **{key: value})
        target = tmp_path / "m.ckpt"
        result = run_cli("train", config, stream_file(count=8), str(target))
        assert result.returncode == 2
        assert_single_error_line(result.stderr)
        assert key in result.stderr
        assert result.stdout == "" and not target.exists()

    def test_eval_classifies_single_sample_stream(self, capture, stream_file, tmp_path):
        for degree in (2, 3):
            config = _write_train_config(tmp_path, degree=degree)
            ckpt = str(tmp_path / "model.ckpt")
            assert capture(["train", config, stream_file(count=8), ckpt])[0] == 0
            one = tmp_path / "one.jsonl"
            one.write_text(SINGLE_SAMPLE_RECORD)
            code, out = capture(["eval", ckpt, str(one)])
            assert code == 0
            report = parse_report(out)
            assert report.metrics["samples"] == 1
            _, rows = report.tables["confusion"]
            assert sum(int(x) for x in rows[2][1:]) == 1

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_checkpoint_exits_2_before_training(self, stream_file, tmp_path, where):
        # the learning rate makes training itself fail (exit 1), so exit 2
        # shows the checkpoint was checked before any training ran
        config = _write_train_config(tmp_path, learning_rate="1e80", epochs=3)
        target = tmp_path / "missing" / "m.ckpt" if where == "missing directory" else tmp_path
        result = run_cli("train", config, stream_file(count=8), str(target))
        assert result.returncode == 2
        assert_single_error_line(result.stderr)
        assert f"checkpoint {target}" in result.stderr
        assert result.stdout == ""

    def test_eval_on_other_input_shapes_exits_2_naming_both(self, capture, stream_file, tmp_path):
        ckpt = str(tmp_path / "model.ckpt")
        assert capture(["train", _write_train_config(tmp_path), stream_file(count=8), ckpt])[0] == 0
        skeletons = stream_file("skeletons.jsonl", count=3, layout="skeleton")
        result = run_cli("eval", ckpt, skeletons)
        assert result.returncode == 2
        assert_single_error_line(result.stderr)
        for named in (ckpt, skeletons, "(5, 2)", "(1, 2)"):
            assert named in result.stderr

    def test_missing_checkpoint_exits_2(self, stream_file, capsys):
        assert main(["eval", "/nonexistent.ckpt", stream_file()]) == 2
        capsys.readouterr()

    def test_usage_error_exits_2(self, capsys):
        assert main(["train"]) == 2
        capsys.readouterr()


class TestBasisSizeBudget:
    """A degree whose basis is past ``lyndon.check_basis_size``'s budget exits 2
    naming the key or flag, before any basis is built."""

    @staticmethod
    def _refuse_basis_builds(monkeypatch):
        def refuse(*args):
            raise AssertionError("a basis build started")

        for module in (lyndon, neural, cli):
            monkeypatch.setattr(module, "enumerate_lyndon", refuse)
        monkeypatch.setattr(lyndon, "LyndonBasis", refuse)

    @staticmethod
    def _assert_exits_2_naming(argv, named, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert_single_error_line(captured.err)
        assert named in captured.err and "past the basis size budget" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("variant", ["el-logsig-rnn", "gcn-logsig-rnn"])
    def test_train_config(self, monkeypatch, stream_file, tmp_path, capsys, variant):
        data = stream_file(count=8, layout="skeleton" if variant.startswith("gcn") else "path")
        config = _write_train_config(tmp_path, variant=variant, degree=40)
        self._refuse_basis_builds(monkeypatch)
        target = tmp_path / "m.ckpt"
        self._assert_exits_2_naming(["train", config, data, str(target)], "'degree' = 40", capsys)
        assert not target.exists()

    def test_eval_of_a_checkpoint_header(self, monkeypatch, stream_file, tmp_path, capsys):
        cfg = ModelConfig(num_classes=4, hidden=8, embed_channels=2, embed_dim=3)
        target = tmp_path / "model.ckpt"
        save_checkpoint(str(target), cfg, (1, 2), StreamClassifier.build(cfg, (1, 2), 0).params)
        target.write_text(target.read_text().replace("degree = 2\n", "degree = 40\n"))
        data = stream_file()
        self._refuse_basis_builds(monkeypatch)
        self._assert_exits_2_naming(["eval", str(target), data], "'degree' = 40", capsys)

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["logsig", "STREAMS", "--degree", "40"], "--degree 40"),
            (["gradcheck", "--degree", "40"], "--degree 40"),
            (["gradcheck", "--width", "1000"], "--width 1000"),
        ],
    )
    def test_command_flags(self, monkeypatch, stream_file, capsys, argv, named):
        argv = [stream_file() if a == "STREAMS" else a for a in argv]
        self._refuse_basis_builds(monkeypatch)
        self._assert_exits_2_naming(argv, named, capsys)

    @pytest.mark.parametrize("variant,key", [("el-logsig-rnn", "embed_dim"), ("gcn-logsig-rnn", "gcn_dim")])
    def test_the_key_that_set_the_width_is_named(self, monkeypatch, stream_file, tmp_path, capsys, variant, key):
        data = stream_file(count=8, layout="skeleton" if variant.startswith("gcn") else "path")
        config = _write_train_config(tmp_path, variant=variant, **{key: 10**9})
        self._refuse_basis_builds(monkeypatch)
        self._assert_exits_2_naming(["train", config, data, str(tmp_path / "m.ckpt")], f"'{key}' = {10**9}", capsys)


class TestArraySizeBudget:
    """A config key or checkpoint header that sizes a parameter or one
    stream's array past ``lyndon.MAX_ARRAY_ENTRIES`` exits 2 naming the key,
    before any array is built."""

    @staticmethod
    def _refuse_array_builds(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an array build started")

        monkeypatch.setattr(neural, "_glorot", refuse)  # every 2-D parameter, each before its bias
        monkeypatch.setattr(neural.StreamClassifier, "_prepare", refuse)  # every stream's arrays

    @staticmethod
    def _assert_exits_2_naming(argv, named, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert_single_error_line(captured.err)
        assert named in captured.err and "past the array size budget" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"hidden": 10**8},
            {"num_classes": 10**9},
            {"num_segments": 10**9},
            {"embed_channels": 10**9},
            {"variant": "frame-rnn", "resample_frames": 10**9},
        ],
        ids=["hidden", "num_classes", "num_segments", "embed_channels", "resample_frames"],
    )
    def test_train_config(self, monkeypatch, stream_file, tmp_path, capsys, overrides):
        data = stream_file(count=8)
        config = _write_train_config(tmp_path, **overrides)
        self._refuse_array_builds(monkeypatch)
        key, value = list(overrides.items())[-1]
        target = tmp_path / "m.ckpt"
        self._assert_exits_2_naming(["train", config, data, str(target)], f"'{key}' = {value}", capsys)
        assert not target.exists()

    def test_eval_of_a_checkpoint_header(self, monkeypatch, stream_file, tmp_path, capsys):
        cfg = ModelConfig(num_classes=4, hidden=8, embed_channels=2, embed_dim=3)
        target = tmp_path / "model.ckpt"
        save_checkpoint(str(target), cfg, (1, 2), StreamClassifier.build(cfg, (1, 2), 0).params)
        target.write_text(target.read_text().replace("joints = 1\n", f"joints = {10**9}\n"))
        data = stream_file()
        self._refuse_array_builds(monkeypatch)
        self._assert_exits_2_naming(["eval", str(target), data], f"'joints' = {10**9}", capsys)

    def test_logsig_segments(self, monkeypatch, stream_file, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a layer call started")

        data = stream_file()
        monkeypatch.setattr(cli, "logsig_sequence_forward", refuse)
        # width-2 streams: 10**8 segments make rows (10**8, 3)
        self._assert_exits_2_naming(["logsig", data, "--degree", "2", "--segments", str(10**8)], f"--segments {10**8}", capsys)

    def test_gradcheck_segments(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a layer call started")

        for name in ("logsig_sequence_forward", "logsig_stack_forward", "backward_from_state"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(cli.SegmentPartition, "uniform", refuse)
        # width 3, degree 2: 10**9 segments make rows (10**9, 6)
        argv = ["gradcheck", "--trials", "1", "--segments", str(10**9)]
        self._assert_exits_2_naming(argv, f"--segments {10**9} makes each trial's rows ({10**9}, 6)", capsys)


def test_logsig_past_the_table_gather_budget_exits_2(stream_file, capsys):
    # width-2 streams of 200 samples at degree 15 in 100 segments: the Chen
    # factors (299, 2**14) and the top level (100, 2**15) are within the
    # budget, while level 15's inverse gathers 927904 entries per segment row
    data = stream_file(count=2, length_range=(200, 200))
    assert main(["logsig", data, "--degree", "15", "--segments", "100"]) == 2
    captured = capsys.readouterr()
    assert_single_error_line(captured.err)
    assert (
        f"{data}, sample 0: degree 15 on 200-sample width-2 paths in 100 segments makes each path's "
        "Lyndon table gathers (100, 927904), past the array size budget"
    ) in captured.err
    assert captured.out == ""


def test_logsig_refuses_chen_factors_before_building_the_basis(monkeypatch, stream_file, capsys):
    # width-2 streams of 2100 samples at degree 15 in 4 segments: the Chen
    # factors (2103, 2**14) are past the budget, which the shape alone shows,
    # so the file exits 2 before enumerate_lyndon(2, 15), which takes seconds
    def refuse(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(cli, "enumerate_lyndon", refuse)
    data = stream_file(count=2, length_range=(2100, 2100))
    assert main(["logsig", data, "--degree", "15", "--segments", "4"]) == 2
    captured = capsys.readouterr()
    assert_single_error_line(captured.err)
    assert (
        f"{data}, sample 0: degree 15 on 2100-sample width-2 paths in 4 segments makes each path's "
        "Chen factors (2103, 16384), past the array size budget"
    ) in captured.err
    assert captured.out == ""


class TestKernelArrayBudget:
    """A stream whose layer kernel arrays are past ``lyndon.MAX_ARRAY_ENTRIES``
    exits 2 with one error line naming the stream, before the layer augments it."""

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a stream was augmented")

        monkeypatch.setattr(lyndon, "MAX_ARRAY_ENTRIES", 200)
        monkeypatch.setattr(logsig_layer, "_augment", refuse)

    @staticmethod
    def _assert_exits_2_naming(argv, named, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert_single_error_line(captured.err)
        assert named in captured.err and "past the array size budget of 200 entries" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_logsig_names_the_file_and_the_sample(self, stream_file, capsys):
        # width-2 streams of 100+ samples at degree 2 in 4 segments: rows (4, 3), Chen factors (103+, 2)
        data = stream_file(length_range=(100, 120))
        argv = ["logsig", data, "--degree", "2", "--segments", "4"]
        self._assert_exits_2_naming(argv, f"{data}, sample 0: degree 2 on ", capsys)

    def test_per_path_train_names_the_stream(self, monkeypatch, stream_file, tmp_path, capsys):
        # 5-joint 2-D skeletons take el-logsig-rnn's per-path route at degree 3 (raw
        # width 12), whose layer runs in the forward pass: the embedded paths [time,
        # 3 channels] of 100+ samples hold Chen factors (101+, 16), past a budget of
        # 1000 entries that every parameter and stream row array stays within
        monkeypatch.setattr(lyndon, "MAX_ARRAY_ENTRIES", 1000)
        data = stream_file(count=8, layout="skeleton", length_range=(100, 120))
        config = _write_train_config(tmp_path, degree=3)
        target = tmp_path / "m.ckpt"
        assert main(["train", config, data, str(target)]) == 2
        captured = capsys.readouterr()
        assert_single_error_line(captured.err)
        assert f"{config} on {data}: stream " in captured.err and "Chen factors" in captured.err
        assert "past the array size budget of 1000 entries" in captured.err
        assert captured.out == "" and not target.exists()

    def test_train_names_the_stream(self, stream_file, tmp_path, capsys):
        # el-logsig-rnn's raw paths [time, 1, x, y] of 100+ samples: Chen factors (101+, 4),
        # while no parameter or stream row array passes 84 entries
        data = stream_file(count=8, length_range=(100, 120))
        config = _write_train_config(tmp_path)
        target = tmp_path / "m.ckpt"
        self._assert_exits_2_naming(["train", config, data, str(target)], f"{config} on {data}: stream 0: ", capsys)
        assert not target.exists()


def _clock_file(tmp_path, times, count=8):
    """``count`` 2-D paths, labels 0 and 1 in turn, on the one clock ``times``."""
    lines = ['{"kind": "header", "classes": ["a", "b"]}\n']
    for k in range(count):
        points = [[float(k + j), float(j * j - k)] for j in range(len(times))]
        record = {"kind": "path", "label": k % 2, "n": len(times), "d": 2, "times": times, "points": points}
        lines.append(json.dumps(record) + "\n")
    path = tmp_path / "clock.jsonl"
    path.write_text("".join(lines))
    return str(path)


# valid clocks at either end of float64: near its largest value, where a
# midpoint (a + b) / 2 overflows, and on its smallest subnormals, which no
# time splits
LARGE_CLOCK = [1.6e308, 1.63e308, 1.66e308, 1.7e308]
SUBNORMAL_CLOCK = [0.0, 5e-324, 1e-323]


class TestRobustnessCommand:
    def test_report_shape(self, capture, stream_file, tmp_path):
        data = stream_file(count=14)
        config = _write_train_config(tmp_path)
        baseline_cfg = _write_train_config(
            tmp_path, name="base.txt", variant="frame-rnn", epochs=1
        )
        model_ckpt = str(tmp_path / "m.ckpt")
        base_ckpt = str(tmp_path / "b.ckpt")
        assert capture(["train", config, data, model_ckpt])[0] == 0
        assert capture(["train", baseline_cfg, data, base_ckpt])[0] == 0
        code, out = capture(
            ["robustness", model_ckpt, base_ckpt, data, "--rates", "0.3", "--mode", "drop"]
        )
        assert code == 0
        report = parse_report(out)
        columns, rows = report.tables["accuracy"]
        assert columns[0] == "rate"
        assert [float(r[0]) for r in rows] == [0.0, 0.3]
        # the r=0 row echoes the plain evaluation accuracy
        assert float(rows[0][1]) == report.metrics["accuracy_at_zero"]

    @pytest.mark.parametrize("variant", ["gcn-logsig-rnn", "gcn-logsig-rnn-2"])
    def test_skeleton_file_with_a_gcn_model(self, capture, stream_file, tmp_path, variant):
        data = stream_file(count=8, layout="skeleton", joints=3)
        model_ckpt, base_ckpt = str(tmp_path / "m.ckpt"), str(tmp_path / "b.ckpt")
        config = _write_train_config(tmp_path, variant=variant, degree=3, gcn_dim=2, epochs=1)
        baseline_cfg = _write_train_config(tmp_path, name="base.txt", variant="frame-rnn", epochs=1)
        assert capture(["train", config, data, model_ckpt])[0] == 0
        assert capture(["train", baseline_cfg, data, base_ckpt])[0] == 0
        for mode in ("drop", "insert"):
            result = run_cli("robustness", model_ckpt, base_ckpt, data, "--rates", "0.3", "--mode", mode)
            assert result.returncode == 0 and "Traceback" not in result.stderr
            _, rows = parse_report(result.stdout).tables["accuracy"]
            assert [float(r[0]) for r in rows] == [0.0, 0.3]

    def test_insert_mode_runs(self, capture, stream_file, tmp_path):
        data = stream_file(count=8)
        config = _write_train_config(tmp_path, epochs=1)
        ckpt = str(tmp_path / "m.ckpt")
        capture(["train", config, data, ckpt])
        code, out = capture(
            ["robustness", ckpt, ckpt, data, "--rates", "0.2,0.4", "--mode", "insert"]
        )
        assert code == 0
        report = parse_report(out)
        assert len(report.tables["accuracy"][1]) == 3
        assert_environment(report)
        assert report.timings["total_seconds"] > 0

    def _checkpoint(self, capture, tmp_path, data):
        ckpt = str(tmp_path / "m.ckpt")
        config = _write_train_config(tmp_path, epochs=1, num_classes=2)
        assert capture(["train", config, data, ckpt])[0] == 0
        return ckpt

    def test_insert_on_a_clock_near_the_float64_limit(self, capture, tmp_path):
        data = _clock_file(tmp_path, LARGE_CLOCK)
        ckpt = self._checkpoint(capture, tmp_path, data)
        result = run_cli("robustness", ckpt, ckpt, data, "--rates", "0.5", "--mode", "insert")
        assert result.returncode == 0 and result.stderr == ""
        _, rows = parse_report(result.stdout).tables["accuracy"]
        assert [float(r[0]) for r in rows] == [0.0, 0.5]

    def test_insert_into_an_unsplittable_interval_exits_2_naming_the_sample_and_rate(self, capture, tmp_path):
        data = _clock_file(tmp_path, SUBNORMAL_CLOCK)
        ckpt = self._checkpoint(capture, tmp_path, data)
        result = run_cli("robustness", ckpt, ckpt, data, "--rates", "0.5", "--mode", "insert")
        assert result.returncode == 2
        assert_single_error_line(result.stderr)
        assert f"error: {data}, sample 0 at rate 0.5: the interval between samples " in result.stderr
        assert "too narrow to split" in result.stderr
        assert result.stdout == ""

    def test_bad_rates_exit_2(self, stream_file, tmp_path, capsys):
        data = stream_file(count=4)
        config = _write_train_config(tmp_path, epochs=1)
        ckpt = str(tmp_path / "m.ckpt")
        main(["train", config, data, ckpt])
        capsys.readouterr()
        assert main(["robustness", ckpt, ckpt, data, "--rates", "1.5"]) == 2
        capsys.readouterr()


class TestBenchCommand:
    def test_tiny_bench(self, capture, stream_file, tmp_path):
        data = stream_file(count=10)
        config = _write_train_config(tmp_path, epochs=1)
        baseline_cfg = _write_train_config(tmp_path, name="base.txt", variant="frame-rnn")
        code, out = capture(
            [
                "bench", data, "--config", config, "--baseline-config", baseline_cfg,
                "--upsample", "1,2", "--epochs", "1", "--timed-epochs", "1",
            ]
        )
        assert code == 0
        report = parse_report(out)
        columns, rows = report.tables["timing"]
        assert [int(r[0]) for r in rows] == [1, 2]
        assert all(float(r[1]) > 0 for r in rows)
        # each train call's one-time preparation, after the original columns
        assert columns[-2:] == ["model_prepare_seconds", "baseline_prepare_seconds"]
        assert all(float(x) > 0 for r in rows for x in r[-2:])

    def test_report_records_the_environment(self, capture, stream_file, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        config = _write_train_config(tmp_path, epochs=1)
        code, out = capture(["bench", stream_file(count=8), "--config", config, "--baseline-config", config,
                             "--upsample", "1", "--epochs", "1", "--timed-epochs", "1"])
        assert code == 0
        report = parse_report(out)
        assert_environment(report, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="2", MKL_NUM_THREADS="unset")
        assert set(report.config) == {
            "upsample", "data", "config", "baseline_config", "epochs", "timed_epochs",
            "numpy", "nproc", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        }

    @pytest.mark.parametrize("variant", ["gcn-logsig-rnn", "gcn-logsig-rnn-2"])
    def test_skeleton_file_with_a_gcn_model(self, stream_file, tmp_path, variant):
        data = stream_file(count=10, layout="skeleton", joints=3)
        config = _write_train_config(tmp_path, variant=variant, degree=3, gcn_dim=2, epochs=1)
        baseline_cfg = _write_train_config(tmp_path, name="base.txt", variant="frame-rnn")
        result = run_cli(
            "bench", data, "--config", config, "--baseline-config", baseline_cfg,
            "--upsample", "1,2", "--epochs", "1", "--timed-epochs", "1",
        )
        assert result.returncode == 0 and "Traceback" not in result.stderr
        _, rows = parse_report(result.stdout).tables["timing"]
        assert [int(r[0]) for r in rows] == [1, 2]
        assert all(float(r[1]) > 0 and float(r[3]) > 0 for r in rows)

    def test_upsampled_stream_past_the_budget_exits_2_before_upsampling(self, stream_file, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a stream was upsampled")

        monkeypatch.setattr(cli.datasets, "upsample_linear", refuse)
        data = stream_file(count=8)
        config = _write_train_config(tmp_path, epochs=1)
        argv = ["bench", data, "--config", config, "--baseline-config", config, "--upsample", "1,10000000"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert_single_error_line(captured.err)
        assert "--upsample factor 10000000" in captured.err and "past the array size budget" in captured.err
        assert captured.out == ""

    def test_unsplittable_interval_exits_2_naming_the_sample_and_factor(self, tmp_path):
        data = _clock_file(tmp_path, SUBNORMAL_CLOCK)
        config = _write_train_config(tmp_path, epochs=1, num_classes=2)
        result = run_cli(
            "bench", data, "--config", config, "--baseline-config", config,
            "--upsample", "1,2", "--epochs", "1", "--timed-epochs", "1",
        )
        assert result.returncode == 2
        assert_single_error_line(result.stderr)
        assert result.stderr.startswith(
            f"error: {data}, sample 0 at --upsample factor 2: the interval between samples 0 and 1 "
            "(times 0.0 and 5e-324) is too narrow to split"
        )
        assert result.stdout == ""

    def test_diverging_training_exits_1_naming_the_config_data_and_factor(self, stream_file, tmp_path):
        data = stream_file(count=8)
        config = _write_train_config(tmp_path, epochs=1, learning_rate=1e300, momentum=1e300)
        baseline = _write_train_config(tmp_path, name="base.txt", epochs=1)
        result = run_cli(
            "bench", data, "--config", config, "--baseline-config", baseline,
            "--upsample", "1", "--epochs", "1", "--timed-epochs", "1",
        )
        assert result.returncode == 1
        assert_single_error_line(result.stderr)
        assert f"{config} on {data} at --upsample factor 1: non-finite loss at epoch" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--timed-epochs", "0"], "--timed-epochs"),
            (["--timed-epochs", "-1"], "--timed-epochs"),
            (["--seed", "-1"], "--seed"),
            (["--eval-fraction", "-0.25"], "--eval-fraction"),
            (["--eval-fraction", "1"], "--eval-fraction"),
            (["--eval-fraction", "0.05"], "--eval-fraction"),  # holds out 0 of 8 records
            (["--eval-fraction", "0.95"], "--eval-fraction"),  # holds out all 8
        ],
    )
    def test_bad_arguments_exit_2_naming_the_flag(self, stream_file, tmp_path, flags, named):
        config = _write_train_config(tmp_path, epochs=1)
        result = run_cli("bench", stream_file(count=8), "--config", config, "--baseline-config", config, *flags)
        assert result.returncode == 2
        assert_single_error_line(result.stderr)
        assert named in result.stderr
        assert result.stdout == ""
