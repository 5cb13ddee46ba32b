"""Span tracing of the logsigrnn layers, installed from outside the package.

Nothing under ``src/`` knows about tracing.  A :class:`Tracer` rebinds the
module and class attributes through which one layer calls the next, so every
call into a layer's public function records a span (name, start, end,
parent, run id).  Spans and counts stay in memory; :meth:`Tracer.dump`
writes them once, at the end of a run.

A target that a later version of the package no longer binds is skipped, so
its counts read 0 instead of the benchmark failing: a refactor that routes
work around a layer shows in the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

from logsigrnn import datasets, logsig_layer, lyndon, neural

# (owner, attribute, span name).  The tensor_algebra and logsig_layer spans
# wrap the names as their caller binds them, so only calls made by the layer
# above are counted (not, e.g., the products inside tensor_log_with_tape).
SPAN_TARGETS = (
    (datasets, "load_streams", "datasets.load"),
    (neural, "train", "neural.train"),
    (neural.StreamClassifier, "forward_batch", "neural.forward_batch"),
    (neural.StreamClassifier, "backward_batch", "neural.backward_batch"),
    (neural, "logsig_sequence_forward", "logsig_layer.forward"),
    (neural, "backward_from_state", "logsig_layer.backward"),
    (neural, "evaluate", "paths.evaluate"),
    (neural, "enumerate_lyndon", "lyndon.basis_build"),
    (logsig_layer, "tensor_mul", "tensor_algebra.mul"),
    (logsig_layer, "tensor_mul_backward", "tensor_algebra.mul_backward"),
    (logsig_layer, "exp_level_one", "tensor_algebra.exp"),
    (logsig_layer, "exp_level_one_backward", "tensor_algebra.exp_backward"),
    (logsig_layer, "tensor_log_with_tape", "tensor_algebra.log"),
    (logsig_layer, "tensor_log_backward", "tensor_algebra.log_backward"),
)

# Called far too often to time without distorting it; counted only.
COUNT_TARGETS = ((lyndon.LyndonBasis, "level_system", "lyndon.level_system"),)


@contextlib.contextmanager
def rebound(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)`` for the block.

    Changes nothing when ``owner`` does not bind ``attr``.
    """
    original = vars(owner).get(attr)
    if original is None:
        yield
        return
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """In-memory span and count recorder for one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = self._next_id
            self._next_id += 1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent))

        return wrapper

    def _count(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name in SPAN_TARGETS:
                stack.enter_context(rebound(owner, attr, lambda fn, n=name: self._span(n, fn)))
            for owner, attr, name in COUNT_TARGETS:
                stack.enter_context(rebound(owner, attr, lambda fn, n=name: self._count(n, fn)))
            yield self

    def totals(self) -> tuple[Counter, dict, dict]:
        """Per span name: call count, total seconds, self seconds.

        Self time is a span's duration minus the durations of the spans it
        directly contains (calls are single-threaded, so children nest).
        """
        calls: Counter = Counter()
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        for _, name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own: dict = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            own[name] += (end - start) - child[sid]
        return calls, total, own

    def layer_metrics(self, records: int, overhead_ratio: float) -> dict:
        """The per-layer metrics, keyed by their BENCHMARK.json names."""
        calls, total, own = self.totals()
        m = {
            "logsig_layer.forward_calls": (calls["logsig_layer.forward"], "count"),
            "logsig_layer.forward_s": (total["logsig_layer.forward"], "s"),
            "logsig_layer.forward_self_s": (own["logsig_layer.forward"], "s"),
            "logsig_layer.backward_calls": (calls["logsig_layer.backward"], "count"),
            "logsig_layer.backward_s": (total["logsig_layer.backward"], "s"),
            "logsig_layer.backward_self_s": (own["logsig_layer.backward"], "s"),
        }
        for op in ("mul", "mul_backward", "exp", "exp_backward", "log", "log_backward"):
            m[f"tensor_algebra.{op}_calls"] = (calls[f"tensor_algebra.{op}"], "count")
            m[f"tensor_algebra.{op}_s"] = (total[f"tensor_algebra.{op}"], "s")
        m.update({
            "lyndon.level_system_calls": (self.counts["lyndon.level_system"], "count"),
            "lyndon.basis_build_s": (total["lyndon.basis_build"], "s"),
            "neural.forward_batch_calls": (calls["neural.forward_batch"], "count"),
            "neural.forward_batch_s": (total["neural.forward_batch"], "s"),
            "neural.forward_self_s": (own["neural.forward_batch"], "s"),
            "neural.backward_batch_calls": (calls["neural.backward_batch"], "count"),
            "neural.backward_batch_s": (total["neural.backward_batch"], "s"),
            "neural.backward_self_s": (own["neural.backward_batch"], "s"),
            # train's own span minus its forward/backward children: loss,
            # gradient clipping, the SGD update and the model build
            "neural.train_other_s": (own["neural.train"], "s"),
            "paths.evaluate_calls": (calls["paths.evaluate"], "count"),
            "paths.evaluate_s": (total["paths.evaluate"], "s"),
            "datasets.load_s": (total["datasets.load"], "s"),
            "datasets.records": (records, "count"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        })
        return m

    def dump(self, target, extra: dict) -> None:
        """Write every span and count as one JSON document."""
        doc = dict(extra)
        doc["run_id"] = self.run_id
        doc["span_fields"] = ["id", "name", "start", "end", "parent", "run_id"]
        doc["spans"] = [[*span, self.run_id] for span in self.spans]
        doc["counts"] = dict(self.counts)
        with open(target, "w") as handle:
            json.dump(doc, handle)
