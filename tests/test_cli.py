"""CLI subcommands: reports, exit codes, file formats."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logsigrnn import cli, gen_synthetic, lyndon, neural, save_streams
from logsigrnn.cli import (
    load_checkpoint,
    main,
    parse_config_text,
    save_checkpoint,
)
from logsigrnn.neural import ModelConfig, StreamClassifier
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


class TestStreamFileErrors:
    """A bad label or header is one error line naming the file and line, and exit 2."""

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


class TestGradcheck:
    def test_passes_and_reports(self, capture):
        code, out = capture(
            ["gradcheck", "--trials", "3", "--width", "2", "--degree", "2", "--seed", "1"]
        )
        assert code == 0
        report = parse_report(out)
        assert report.metrics["max_rel_err"] <= 1e-5
        assert report.metrics["passed"] == 1.0

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
        assert len(train_report.tables["trace"][1]) == 2

        code, out = capture(["eval", ckpt, data])
        assert code == 0
        eval_report = parse_report(out)
        assert 0.0 <= eval_report.metrics["accuracy"] <= 1.0
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

    @pytest.mark.parametrize("where", ["training", "eval"])
    def test_overflowing_stream_exits_1_naming_the_set_and_stream(self, stream_file, tmp_path, where):
        # frames near 1e200 overflow the degree-3 rows of the raw path, which
        # are prepared once, before the first epoch
        huge = tmp_path / "huge.jsonl"
        huge.write_text(
            '{"kind": "header", "classes": ["a", "b", "c", "d"]}\n'
            + "".join(
                f'{{"kind": "path", "label": {k}, "n": 3, "d": 2, "times": [0.0, 1.0, 2.0],'
                f' "points": [[0.0, 0.0], [{scale}, -{scale}], [-{scale}, 3.0]]}}\n'
                for k, scale in enumerate(["1.0", "2.0", "1e200", "3.0"])
            )
        )
        config = _write_train_config(tmp_path, degree=3)
        data, extra = (str(huge), []) if where == "training" else (stream_file(count=8), ["--eval-data", str(huge)])
        target = tmp_path / "m.ckpt"
        result = run_cli("train", config, data, str(target), *extra)
        assert result.returncode == 1
        assert_single_error_line(result.stderr)
        assert f"{where} stream 2" in result.stderr
        assert result.stdout == "" and not target.exists()

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
    stream's array past ``neural.MAX_ARRAY_ENTRIES`` exits 2 naming the key,
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

    def test_insert_mode_runs(self, capture, stream_file, tmp_path):
        data = stream_file(count=8)
        config = _write_train_config(tmp_path, epochs=1)
        ckpt = str(tmp_path / "m.ckpt")
        capture(["train", config, data, ckpt])
        code, out = capture(
            ["robustness", ckpt, ckpt, data, "--rates", "0.2,0.4", "--mode", "insert"]
        )
        assert code == 0
        assert len(parse_report(out).tables["accuracy"][1]) == 3

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
                "--warmup-epochs", "0",
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

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--timed-epochs", "0"], "--timed-epochs"),
            (["--epochs", "1", "--timed-epochs", "1", "--warmup-epochs", "5"], "--warmup-epochs"),
            (["--warmup-epochs", "-1"], "--warmup-epochs"),
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
