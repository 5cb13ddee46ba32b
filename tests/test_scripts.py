"""The scripts under scripts/ still import and parse their arguments, and the committed sweep matches the rules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from logsigrnn import neural
from logsigrnn.reports import parse_report

ROOT = Path(__file__).resolve().parent.parent
ROUTE_COLUMNS = ("variant joints coords dim degree samples entries route prepare_ms_mapped prepare_ms_per_path "
                 "step_ms_mapped step_ms_per_path logits_ms_mapped logits_ms_per_path logits_gap gradient_gap").split()
GROUP_COLUMNS = "degree samples joints width entries group_us stack_us singles_us".split()


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("name", ["make_dataset.py", "train_toy.py", "run_mape_study.py", "time_rules.py"])
def test_help_exits_0(name):
    result = run_script(name, "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")


def _route_rows(report):
    assert report.tables["routes"][0] == ROUTE_COLUMNS and report.tables["groups"][0] == GROUP_COLUMNS
    return [dict(zip(ROUTE_COLUMNS, row)) for row in report.tables["routes"][1]]


def test_committed_report_matches_the_rules():
    """A rule changed without a fresh report fails here."""
    report = parse_report((ROOT / "scripts" / "time_rules.report").read_text())
    routes = _route_rows(report)
    assert {report.config[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")} == {"1"}
    assert report.timings["wall_s"] > 0
    assert report.config["MAPPED_TENSOR_LIMIT"] == str(neural.MAPPED_TENSOR_LIMIT)
    assert report.config["GROUP_TENSOR_LIMIT"] == str(neural.GROUP_TENSOR_LIMIT)
    for variant in ("el", "gcn"):  # both routes timed on both sides of the limit
        assert {row["route"] for row in routes if row["variant"] == variant} == {"mapped", "per_path"}
    assert {row[0] for row in report.tables["groups"][1]} == {"2", "3", "4"}


@pytest.fixture(scope="module")
def swept():
    """One ``--reps 1`` run: el shapes on both sides of the limit (16 and 729 entries), a gcn one within it (27)."""
    result = run_script("time_rules.py", *"--shape el 1 2 2 2 --shape el 1 7 8 3 --shape gcn 5 2 2 3".split(),
                        *"--degree 2 --reps 1 --calls 1".split())
    assert result.returncode == 0, result.stderr
    return parse_report(result.stdout)


def _planned_routes(report, past_the_limit):  # rows on one side of the limit, whose two routes agree
    rows = [row for row in _route_rows(report) if (int(row["entries"]) > neural.MAPPED_TENSOR_LIMIT) == past_the_limit]
    assert all(float(row[gap]) <= 1e-9 for row in rows for gap in ("logits_gap", "gradient_gap")), rows
    return [(row["variant"], row["entries"], row["route"]) for row in rows]


def test_time_el_routes_forces_both_routes(swept):
    assert _planned_routes(swept, False) == [("el", "16", "mapped")] * 2 + [("gcn", "27", "mapped")] * 2


def test_time_el_routes_forces_both_routes_past_the_limit(swept):
    assert _planned_routes(swept, True) == [("el", "729", "per_path")] * 2


def test_time_group_widths_times_each_width(swept):
    groups = swept.tables["groups"][1]
    assert [row[:3] for row in groups] == [["2", n, str(k)] for n in ("40", "320") for k in (1, 2, 5, 10, 18, 19, 25)]
    assert all(float(us) > 0 for row in groups for us in row[5:]), groups


@pytest.mark.parametrize("args,named", [
    # a zero-joint skeleton file was once written, and refused when read
    (["--layout", "skeleton", "--joints", "0", "--count", "3"], "joints"),
    (["--count", "-1"], "count"),
], ids=["joints", "count"])
def test_make_dataset_bad_argument_exits_2_naming_it(tmp_path, args, named):
    target = tmp_path / "z.jsonl"
    result = run_script("make_dataset.py", *args, str(target))
    assert result.returncode == 2
    # the usage lines list every flag, so look at the error line alone
    error = result.stderr.splitlines()[-1]
    assert error.startswith("make_dataset.py: error: ") and named in error
    assert not target.exists()


@pytest.mark.parametrize("shape", [
    "el x 2 8 3",  # once "invalid literal for int() with base 10: 'x'"
    "el 1 0 8 3",  # once a reshape error from inside the model
    "gcn 0 2 2 3",  # once "0 point columns do not split into 0 joints"
    "el 1 2 0 3", "el 1 2 8 0", "rnn 1 2 8 3",
], ids=["joints-not-a-number", "coords-0", "joints-0", "dim-0", "degree-0", "variant"])
def test_time_rules_bad_shape_exits_2_naming_it(shape):
    result = run_script("time_rules.py", "--shape", *shape.split())
    assert result.returncode == 2 and "Traceback" not in result.stderr
    error = result.stderr.splitlines()[-1]
    assert error.startswith(f"time_rules.py: error: --shape {shape}: "), error


@pytest.mark.parametrize("args,named", [
    (["--trials", "0"], "trials"), (["--max-drop", "0"], "max_drop"), (["--degree", "0"], "degree"),
    # width 2 at degree 40 has about 5.6e10 Lyndon words: refused before any is enumerated
    (["--degree", "40"], "degree 40"),
], ids=["trials", "max-drop", "degree-0", "degree-40"])
def test_run_mape_study_bad_argument_exits_2_naming_it(args, named):
    result = run_script("run_mape_study.py", *args)
    assert result.returncode == 2 and "Traceback" not in result.stderr
    error = result.stderr.splitlines()[-1]
    assert error.startswith("run_mape_study.py: error: ") and named in error
