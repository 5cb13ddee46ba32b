"""The scripts under scripts/ still import and parse their arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "name", ["make_dataset.py", "train_toy.py", "run_mape_study.py", "time_el_routes.py", "time_group_widths.py"]
)
def test_help_exits_0(name):
    result = run_script(name, "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")


def _assert_times_both_routes(shape, raw):
    """The script times ``shape`` on both routes, which the model plans itself, and they agree."""
    result = run_script("time_el_routes.py", "--shape", *shape, "--reps", "1")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "mapped / per-path, medians over repetitions" and len(lines) == 2
    joints, coords, embed_dim, degree = shape
    assert lines[1].startswith(f"joints {joints} coords {coords} embed_dim {embed_dim} degree {degree}: {raw}")
    gaps = [float(part.split()[-1]) for part in lines[1].split(",")[-2:]]
    assert all(gap < 1e-9 for gap in gaps), lines[1]


def test_time_el_routes_forces_both_routes():
    # a shape within neural.MAPPED_TENSOR_LIMIT
    _assert_times_both_routes(("1", "2", "2", "2"), "raw width 4 (16 entries)")


def test_time_el_routes_forces_both_routes_past_the_limit():
    # a default shape whose raw path the model would send down the per-path route
    _assert_times_both_routes(("1", "7", "8", "3"), "raw width 9 (729 entries)")


def test_time_group_widths_times_each_width():
    result = run_script("time_group_widths.py", "--degree", "2", "--widths", "3", "5", "--calls", "1", "--reps", "1")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "one-path layer call, median over repetitions, 4 segments" and len(lines) == 3
    assert lines[1].startswith("degree 2 width 3 (9 entries): ") and lines[1].endswith(" 1.00x width 3")
    assert lines[2].startswith("degree 2 width 5 (25 entries): ")


@pytest.mark.parametrize(
    "args,named",
    [
        # a zero-joint skeleton file was once written, and refused when read
        (["--layout", "skeleton", "--joints", "0", "--count", "3"], "joints"),
        (["--count", "-1"], "count"),
    ],
    ids=["joints", "count"],
)
def test_make_dataset_bad_argument_exits_2_naming_it(tmp_path, args, named):
    target = tmp_path / "z.jsonl"
    result = run_script("make_dataset.py", *args, str(target))
    assert result.returncode == 2
    # the usage lines list every flag, so look at the error line alone
    error = result.stderr.splitlines()[-1]
    assert error.startswith("make_dataset.py: error: ") and named in error
    assert not target.exists()


@pytest.mark.parametrize(
    "args,named",
    [
        (["--trials", "0"], "trials"),
        (["--max-drop", "0"], "max_drop"),
        (["--degree", "0"], "degree"),
        # width 2 at degree 40 has about 5.6e10 Lyndon words: refused before any is enumerated
        (["--degree", "40"], "degree 40"),
    ],
    ids=["trials", "max-drop", "degree-0", "degree-40"],
)
def test_run_mape_study_bad_argument_exits_2_naming_it(args, named):
    result = run_script("run_mape_study.py", *args)
    assert result.returncode == 2 and "Traceback" not in result.stderr
    error = result.stderr.splitlines()[-1]
    assert error.startswith("run_mape_study.py: error: ") and named in error
