"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The expensive fixtures
(trained classifiers) are shared across criteria, so the module is meant to
run as a whole.
"""

import itertools
import re
import time
from pathlib import Path

import numpy as np
import pytest

from logsigrnn import (
    ModelConfig,
    SegmentPartition,
    TimedPath,
    TrainSettings,
    TruncatedTensor,
    backward_from_state,
    enumerate_lyndon,
    evaluate_model,
    expand_from_basis,
    gen_synthetic,
    insert_sample_times,
    log_signature,
    logsig_dim,
    logsig_sequence,
    logsig_sequence_forward,
    lyndon_words,
    mape_drop_study,
    perturb_drop,
    perturb_insert,
    reparameterize,
    restrict,
    shuffle,
    sig_dim,
    signature,
    tensor_exp,
    tensor_log,
    tensor_mul,
    train,
    upsample_linear,
)
from logsigrnn.neural import StreamClassifier, cross_entropy, input_spec
from test_neural import block_inputs

RESULTS = []


def report(number, name, passed, detail):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    RESULTS.append(line)
    assert passed, line


def random_path(rng, n, d, span=(0.0, 1.0)):
    times = np.sort(rng.uniform(*span, n))
    times[0], times[-1] = span
    return TimedPath(times, rng.normal(0.0, 1.0, (n, d)))


def tensor_gap(a, b):
    return max(float(np.max(np.abs(x - y), initial=0.0)) for x, y in zip(a.levels, b.levels))


# -------------------------------------------------------------------------
# shared experiment fixtures

TOY_CONFIG = ModelConfig(
    variant="el-logsig-rnn", degree=2, num_segments=4, embed_channels=6,
    embed_dim=8, hidden=32, cell="lstm", num_classes=4,
)
BASELINE_CONFIG = ModelConfig(variant="frame-rnn", hidden=32, cell="lstm", num_classes=4)


@pytest.fixture(scope="module")
def toy_data():
    data = gen_synthetic(1000, seed=3)
    return data.subset(range(800)), data.subset(range(800, 1000))


@pytest.fixture(scope="module")
def study_data():
    # short-stream regime: random dropping bites hardest on short streams,
    # which is where degradation becomes measurable at this scale
    return gen_synthetic(400, seed=17, length_range=(20, 45))


@pytest.fixture(scope="module")
def trained_model(toy_data):
    train_set, _ = toy_data
    wall = time.perf_counter()
    cpu = time.process_time()
    result = train(
        TOY_CONFIG, train_set.samples, train_set.labels,
        TrainSettings(learning_rate=0.01, momentum=0.9, batch_size=32, epochs=40, seed=0),
    )
    timing = {"wall": time.perf_counter() - wall, "cpu": time.process_time() - cpu}
    model = StreamClassifier(TOY_CONFIG, input_spec(train_set.samples), result.params)
    return model, timing


@pytest.fixture(scope="module")
def trained_baseline(toy_data):
    train_set, _ = toy_data
    result = train(
        BASELINE_CONFIG, train_set.samples, train_set.labels,
        TrainSettings(learning_rate=0.05, epochs=30, seed=0, clip_norm=2.0),
    )
    return StreamClassifier(BASELINE_CONFIG, input_spec(train_set.samples), result.params)


# -------------------------------------------------------------------------
# 1. algebraic identity suite


def test_criterion_1_algebraic_identities():
    tic = time.perf_counter()
    rng = np.random.default_rng(100)
    cases = 120
    worst = {"chen": 0.0, "explog": 0.0, "shuffle": 0.0, "reparam": 0.0}

    for _ in range(cases):
        d = int(rng.integers(1, 5))
        M = int(rng.integers(1, 5))
        p = random_path(rng, int(rng.integers(2, 12)), d)

        mid = float(rng.uniform(0.1, 0.9))
        whole = signature(p, M)
        split = tensor_mul(signature(restrict(p, 0.0, mid), M), signature(restrict(p, mid, 1.0), M))
        worst["chen"] = max(worst["chen"], tensor_gap(whole, split) / max(1.0, whole.norm()))

        refined = insert_sample_times(p, rng.uniform(0.0, 1.0, 8))
        refined = reparameterize(refined, np.cumsum(rng.uniform(0.1, 2.0, refined.num_samples)))
        worst["reparam"] = max(
            worst["reparam"], tensor_gap(whole, signature(refined, M)) / max(1.0, whole.norm())
        )

        s4 = whole if M == 4 else signature(p, 4)
        for _ in range(2):
            u = tuple(rng.integers(1, d + 1, size=int(rng.integers(1, 3))))
            v = tuple(rng.integers(1, d + 1, size=int(rng.integers(1, 3))))
            lhs = s4.coefficient(u) * s4.coefficient(v)
            rhs = sum(c * s4.coefficient(w) for w, c in shuffle(u, v, 4).items())
            worst["shuffle"] = max(worst["shuffle"], abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))

    for _ in range(cases):
        d = int(rng.integers(2, 5))
        M = int(rng.integers(1, 5))
        basis = enumerate_lyndon(d, M)
        lie = expand_from_basis(rng.uniform(-1.0, 1.0, basis.dim), basis)
        worst["explog"] = max(worst["explog"], tensor_gap(tensor_log(tensor_exp(lie)), lie))
        grouplike = TruncatedTensor(
            d, M, [rng.uniform(-1.0, 1.0, d**k) for k in range(M + 1)]
        )
        grouplike.levels[0][0] = 1.0
        worst["explog"] = max(
            worst["explog"], tensor_gap(tensor_exp(tensor_log(grouplike)), grouplike)
        )

    elapsed = time.perf_counter() - tic
    ok = (
        worst["chen"] <= 1e-12
        and worst["explog"] <= 1e-12
        and worst["reparam"] <= 1e-12
        and worst["shuffle"] <= 1e-10
        and elapsed < 30.0
    )
    report(
        1, "algebraic identities", ok,
        f"{cases} cases each: chen {worst['chen']:.1e}, exp/log {worst['explog']:.1e}, "
        f"shuffle {worst['shuffle']:.1e}, reparam {worst['reparam']:.1e}, {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 2. dimension formulas


def test_criterion_2_dimension_formulas():
    ok = True
    for d in range(1, 6):
        for M in range(1, 7):
            lyndon_count = len(lyndon_words(d, M))
            tensor_count = sum(d**k for k in range(M + 1))
            ok &= logsig_dim(d, M) == lyndon_count
            ok &= sig_dim(d, M) == tensor_count
    gap_in_degree = all(
        sig_dim(d, M + 1) - logsig_dim(d, M + 1) > sig_dim(d, M) - logsig_dim(d, M)
        for d in range(2, 6)
        for M in range(1, 6)
    )
    gap_in_width = all(
        sig_dim(d + 1, M) - logsig_dim(d + 1, M) > sig_dim(d, M) - logsig_dim(d, M)
        for d in range(2, 5)
        for M in range(2, 7)
    )
    ok &= gap_in_degree and gap_in_width
    report(
        2, "dimension formulas", ok,
        "exact for 1<=d<=5, 1<=M<=6; dimension gap grows in both d and M",
    )


# -------------------------------------------------------------------------
# 3. gradient correctness


def _layer_fd_error(rng, n, d, M, N):
    p = random_path(rng, n, d)
    part = SegmentPartition.uniform(0.0, 1.0, N)
    basis = enumerate_lyndon(d, M)
    rows, state = logsig_sequence_forward(p, part, M, basis)
    upstream = rng.normal(0.0, 1.0, rows.shape)
    grad = backward_from_state(state, upstream)
    h = 1e-6
    worst = 0.0
    for i in range(n):
        for j in range(d):
            pts = p.points.copy()
            pts[i, j] += h
            up = float(np.sum(upstream * logsig_sequence(TimedPath(p.times, pts), part, M, basis)))
            pts[i, j] -= 2 * h
            dn = float(np.sum(upstream * logsig_sequence(TimedPath(p.times, pts), part, M, basis)))
            fd = (up - dn) / (2 * h)
            denom = max(abs(grad[i, j]), abs(fd))
            if denom > 1e-8:
                worst = max(worst, abs(grad[i, j] - fd) / denom)
    return worst


def _model_fd_error(rng, config, samples, labels):
    # central differences of the scalar loss carry ~eps/h = 2e-10 absolute
    # noise; flooring the denominator keeps the relative comparison above
    # that noise (a 1e-4 verdict then still demands |a - fd| <= 1e-9 on
    # sub-floor components)
    model = StreamClassifier.build(config, input_spec(samples), rng)
    logits, cache = model.forward_batch(samples)
    _, g_logits = cross_entropy(logits, labels)
    grads = model.backward_batch(cache, g_logits)
    h = 1e-6
    worst = 0.0
    for name, p in model.params.items():
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + h
            up, _ = cross_entropy(model.forward_batch(samples)[0], labels)
            p[ix] = orig - h
            dn, _ = cross_entropy(model.forward_batch(samples)[0], labels)
            p[ix] = orig
            fd = (up - dn) / (2 * h)
            denom = max(abs(grads[name][ix]), abs(fd), 1e-5)
            worst = max(worst, abs(grads[name][ix] - fd) / denom)
    return worst


def test_criterion_3_gradient_correctness():
    tic = time.perf_counter()
    rng = np.random.default_rng(300)

    layer_worst = 0.0
    layer_cases = 100
    for _ in range(layer_cases):
        n = int(rng.integers(5, 13))
        d = int(rng.integers(1, 5))
        M = int(rng.integers(1, 4))
        N = int(rng.integers(1, 5))
        layer_worst = max(layer_worst, _layer_fd_error(rng, n, d, M, N))

    model_worst = 0.0
    model_cases = 0
    cells = itertools.cycle(["vanilla", "lstm"])
    for variant in ("el-logsig-rnn", "frame-rnn", "gcn-logsig-rnn", "gcn-logsig-rnn-2"):
        for flags in ((True, True, True), (False, False, False), (False, True, True)):
            al, tl, sp = flags
            cell = next(cells)
            config = ModelConfig(
                variant=variant, degree=2, num_segments=2, num_segments2=2,
                embed_channels=2, embed_dim=3, gcn_dim=2, hidden=4, cell=cell,
                num_classes=3, use_accumulative=al, use_time=tl, use_start_points=sp,
            )
            if variant.startswith("gcn"):
                adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
                samples = []
                for _ in range(2):
                    n = int(rng.integers(6, 10))
                    samples.append(
                        TimedPath(
                            np.linspace(0.0, 1.0, n),
                            rng.normal(0.0, 1.0, (n, 2, 2)),
                            adjacency,
                        )
                    )
            else:
                samples = [random_path(rng, int(rng.integers(6, 10)), 2) for _ in range(2)]
            labels = rng.integers(0, 3, size=2)
            model_worst = max(model_worst, _model_fd_error(rng, config, samples, labels))
            model_cases += 1

    elapsed = time.perf_counter() - tic
    ok = layer_worst <= 1e-5 and model_worst <= 1e-4 and elapsed < 120.0
    report(
        3, "gradient correctness", ok,
        f"layer {layer_cases} configs max {layer_worst:.2e} (tol 1e-5); "
        f"model {model_cases} configs max {model_worst:.2e} (tol 1e-4); {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 4. missing-data feature error


def test_criterion_4_missing_data_mape():
    out = mape_drop_study(degree=3, trials=1000, max_drop=16, seed=0)
    ok = out["mean_logsig_mape"] <= 0.10 and out["mean_logsig_mape"] <= out["mean_sig_mape"]
    report(
        4, "missing-data MAPE", ok,
        f"n=53 polyline, 1000 trials, <=16 dropped: log-signature {out['mean_logsig_mape']:.4f} "
        f"(bound 0.10), signature {out['mean_sig_mape']:.4f}",
    )


# -------------------------------------------------------------------------
# 5. toy classification


def test_criterion_5_toy_classification(toy_data, trained_model):
    _, test_set = toy_data
    model, timing = trained_model
    result = evaluate_model(model, test_set.samples, test_set.labels)
    ok = result.accuracy >= 0.95 and timing["cpu"] < 300.0
    report(
        5, "toy classification", ok,
        f"EL-Logsig-LSTM M=2 N=4, 800 train / 200 test: accuracy {result.accuracy:.3f} "
        f"(bound 0.95), training {timing['cpu']:.0f}s CPU (bound 300s)",
    )


# -------------------------------------------------------------------------
# 6. robustness


def test_criterion_6_robustness(trained_model, trained_baseline, study_data):
    model, _ = trained_model
    baseline = trained_baseline

    def acc(classifier, samples):
        return evaluate_model(classifier, samples, study_data.labels).accuracy

    a0_model = acc(model, study_data.samples)
    a0_base = acc(baseline, study_data.samples)
    rates = (0.2, 0.4, 0.6)

    drop_ok = True
    drop_detail = []
    for r in rates:
        rng = np.random.default_rng(123)
        perturbed = [perturb_drop(s, r, rng) for s in study_data.samples]
        deg_model = a0_model - acc(model, perturbed)
        deg_base = a0_base - acc(baseline, perturbed)
        drop_ok &= deg_model < deg_base
        drop_detail.append(f"r={r}: {deg_model:+.4f} vs {deg_base:+.4f}")

    insert_ok = True
    insert_drift = 0.0
    for r in rates:
        rng = np.random.default_rng(123)
        perturbed = [perturb_insert(s, r, rng) for s in study_data.samples]
        drift = abs(a0_model - acc(model, perturbed))
        insert_drift = max(insert_drift, drift)
    insert_ok = insert_drift < 0.005

    ok = drop_ok and insert_ok
    report(
        6, "robustness", ok,
        f"drop degradation model-vs-baseline {'; '.join(drop_detail)}; "
        f"insert drift {insert_drift * 100:.2f}pp (bound 0.5pp)",
    )


# -------------------------------------------------------------------------
# 7. efficiency


def test_criterion_7_efficiency():
    data = gen_synthetic(300, seed=11)
    train_set, eval_set = data.subset(range(200)), data.subset(range(200, 300))
    config = ModelConfig(
        variant="el-logsig-rnn", degree=2, num_segments=4, embed_channels=6,
        embed_dim=8, hidden=32, cell="lstm", num_classes=4, use_accumulative=False,
    )
    baseline = ModelConfig(variant="frame-rnn", hidden=32, cell="lstm", num_classes=4)
    settings_model = TrainSettings(epochs=9, seed=0)
    settings_base = TrainSettings(learning_rate=0.05, epochs=9, seed=0, clip_norm=2.0)

    def median_epoch(trace, timed=3):
        return float(np.median([r["seconds"] for r in trace[1:]][-timed:]))

    rows = {}
    for factor in (1, 2, 4, 8):
        up_train = [upsample_linear(s, factor) for s in train_set.samples]
        up_eval = [upsample_linear(s, factor) for s in eval_set.samples]
        res = train(config, up_train, train_set.labels, settings_model)
        acc_m = evaluate_model(config, up_eval, eval_set.labels, params=res.params).accuracy
        res_b = train(baseline, up_train, train_set.labels, settings_base)
        acc_b = evaluate_model(baseline, up_eval, eval_set.labels, params=res_b.params).accuracy
        rows[factor] = (median_epoch(res.trace), acc_m, median_epoch(res_b.trace), acc_b)

    model_ratio = rows[8][0] / rows[1][0]
    base_ratio = rows[8][2] / rows[1][2]
    drift = abs(rows[8][1] - rows[1][1])
    lstm_times = [rows[k][2] for k in (1, 2, 4, 8)]
    ok = base_ratio > model_ratio and drift < 0.01 and lstm_times == sorted(lstm_times)
    report(
        7, "efficiency", ok,
        f"epoch-time growth k=1 to k=8: frame-LSTM x{base_ratio:.2f} vs Logsig-RNN "
        f"x{model_ratio:.2f}; Logsig accuracy drift {drift * 100:.2f}pp (bound 1pp)",
    )


# -------------------------------------------------------------------------
# 8. shape contract


def test_criterion_8_shape_contract(trained_model):
    model, _ = trained_model
    rng = np.random.default_rng(800)
    config = model.config
    expected = (config.num_segments, model.rnn_in)
    shapes = []
    for n in (8, 64, 256):
        p = random_path(rng, n, 2)
        _, cache = model.forward_batch([p])
        shapes.append(block_inputs(cache).shape[1:])
    shape_ok = all(s == expected for s in shapes)

    src = Path(__file__).resolve().parent.parent / "src" / "logsigrnn"
    offenders = [
        f.name
        for f in sorted(src.glob("*.py"))
        if re.search(r"pad", f.read_text(), re.IGNORECASE)
    ]
    ok = shape_ok and not offenders
    report(
        8, "shape contract", ok,
        f"recurrent input {expected} for n in (8, 64, 256); "
        f"filler-frame-free source {'confirmed' if not offenders else offenders}",
    )
