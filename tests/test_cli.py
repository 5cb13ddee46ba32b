"""CLI subcommands: reports, exit codes, file formats."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logsigrnn import gen_synthetic, save_streams
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

    def test_non_finite_loss_exits_1(self, stream_file, tmp_path):
        config = _write_train_config(tmp_path, learning_rate="1e80", epochs=3)
        result = run_cli("train", config, stream_file(count=8), str(tmp_path / "m.ckpt"))
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert_single_error_line(result.stderr)
        assert "non-finite loss" in result.stderr

    @pytest.mark.parametrize("key,value", [("epochs", 0), ("batch_size", 0), ("clip_norm", -1.0)])
    def test_bad_train_settings_exit_2_naming_the_key(self, stream_file, tmp_path, key, value):
        config = _write_train_config(tmp_path, **{key: value})
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
