"""Self-tests of the benchmark harness, on shrunken copies of its workloads.

Run from the repository root:  python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
from logsigrnn import neural  # noqa: E402

SEED = 3


def small(name: str, **changes) -> harness.Workload:
    """The named workload with a handful of streams and one round."""
    fields = dict(n_train=4, n_predict=4, batch_size=4, epochs=2, traced_predictions=2,
                  min_rounds=1, check_streams=1)
    fields.update(changes)
    return dataclasses.replace(harness.WORKLOADS[name], **fields)


@pytest.fixture
def inputs():
    written = []

    def write(wl, seed=SEED):
        harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
        target = harness.OUT_DIR / f"selftest-{wl.name}-{seed}-{len(written)}.jsonl"
        harness.write_inputs(wl, seed, target)
        written.append(target)
        return target

    yield write
    for target in written:
        target.unlink(missing_ok=True)


def run_main(capsys, wl, *args):
    code = harness.main(["--workload", wl.name, "--seed", str(SEED), "--seconds", "0", *args],
                        workloads={wl.name: wl})
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def benchmark_names(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def test_inputs_depend_only_on_the_seed(inputs):
    wl = small("predict-gcn-d3")
    a, b, c = inputs(wl, 5).read_text(), inputs(wl, 5).read_text(), inputs(wl, 6).read_text()
    assert a == b and a != c


@pytest.mark.parametrize("name,unit", [
    ("train-el-d3", "train"), ("train-el-d3", "predict"), ("predict-gcn-d3", "predict"),
])
def test_tracing_leaves_outputs_bit_identical(inputs, name, unit):
    wl = small(name, traced_unit=unit)
    source = inputs(wl)
    ops = harness.Ops()
    _, state = harness.set_up(wl, source, ops)
    _, plain = harness.run_unit(wl, state, ops)
    original = neural.train
    tracer = tracing.Tracer("selftest")
    with tracer.installed():
        assert neural.train is not original
        _, traced_state = harness.set_up(wl, source, ops)
        _, traced = harness.run_unit(wl, traced_state, ops)
    assert neural.train is original
    assert tracer.spans
    assert ops.failed == 0, ops.errors
    if unit == "train":
        assert plain.final["loss"] == traced.final["loss"]
    assert harness.same_outputs(wl, plain, traced)


def test_layer_counts_repeat_exactly(inputs):
    wl = small("train-el-d3")
    source = inputs(wl)
    runs = []
    for run_id in ("first", "second"):
        ops = harness.Ops()
        metrics, _ = harness.trace(wl, source, SEED, ops, run_id)
        assert ops.failed == 0, ops.errors
        runs.append({k: v for k, (v, unit, _, _) in metrics.items() if unit == "count"})
    assert runs[0] == runs[1]
    assert runs[0]["datasets.records"] == wl.n_train + wl.n_predict


def test_degree_two_bypasses_the_generic_kernel(inputs):
    counts = {}
    for name in ("train-el-d2", "train-el-d3"):
        wl = small(name)
        ops = harness.Ops()
        metrics, _ = harness.trace(wl, inputs(wl), SEED, ops, name)
        counts[name] = {k: v for k, (v, _, _, _) in metrics.items()}
    kernel = [k for k in counts["train-el-d2"] if k.startswith("tensor_algebra.") and k.endswith("_calls")]
    assert len(kernel) == 6
    assert all(counts["train-el-d2"][k] == 0 for k in kernel)
    assert counts["train-el-d2"]["lyndon.level_system_calls"] == 0
    assert all(counts["train-el-d3"][k] > 0 for k in kernel)
    # one solve per level per segment per sample, forward and adjoint, every
    # training step (warm-up included) a full batch
    wl = small("train-el-d3")
    d3 = counts["train-el-d3"]
    per_step = 2 * wl.config.degree * wl.config.num_segments * wl.batch_size
    assert d3["lyndon.level_system_calls"] == per_step * d3["neural.backward_batch_calls"]


def test_reports_exactly_the_declared_metrics(capsys):
    wl = small("train-el-d2")
    code, result = run_main(capsys, wl, "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == benchmark_names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    code, result = run_main(capsys, wl, "--trace", "1")
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == benchmark_names("per_layer")


def _scaled_gradient(fn):
    return lambda state, upstream: 1.001 * fn(state, upstream)


def _shifted_rows(fn):
    def wrapper(*args, **kwargs):
        rows, state = fn(*args, **kwargs)
        return rows + 1e-9, state

    return wrapper


@pytest.mark.parametrize("attr,corrupt", [
    ("backward_from_state", _scaled_gradient),
    ("logsig_sequence_forward", _shifted_rows),
])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_corrupted_layer_fails_the_run(capsys, monkeypatch, attr, corrupt, trace):
    monkeypatch.setattr(neural, attr, corrupt(getattr(neural, attr)))
    code, result = run_main(capsys, small("train-el-d3"), "--trace", trace)
    assert code != 0
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_package_sources():
    bare = harness.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "train-el-d2", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert "package sources not found" in proc.stderr


def test_gradcheck_accepts_the_layer_at_every_workload_width():
    from logsigrnn import lyndon

    for width in (7, 9):
        for seed in range(3):
            basis = lyndon.enumerate_lyndon(width, 3)
            err = harness.layer_gradcheck(basis, 3, 4, np.random.default_rng(seed))
            assert err <= harness.cli.GRADCHECK_TOLERANCE
