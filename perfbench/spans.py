"""Span tracing for the traced run, from the benchmark's side only.

``install`` replaces each public function of the package under the name its
caller looks it up by (``physkey.protocol.extract``, ``physkey.hmm.entropy_profile_batch``
as seen by ``physkey.cli``, ...) with a wrapper that records a span:
name, start, end, parent span and the operation it belongs to.  Spans are
kept in memory; ``layer_metrics`` turns them into per-operation figures.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _dp_cells(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    experiments = _arg(args, kwargs, 1, "experiments")
    return len(experiments) * len(experiments[0]) * model.k ** 2


def _batch_dp_cells(args, kwargs, result):
    rows, n = _arg(args, kwargs, 1, "obs_matrix").shape
    return rows * n * _arg(args, kwargs, 0, "model").k ** 2


def _bit_products(args, kwargs, result):
    seed = _arg(args, kwargs, 1, "seed")
    return seed.l * seed.t


def _samples(args, kwargs, result):
    return _arg(args, kwargs, 0, "config").n


def _rows(args, kwargs, result):
    return 0 if result is None else len(result.rows)


# (module[:class], attribute, span name, (work counter, work function) or
# None).  Each entry patches the binding a caller resolves at call time:
# protocol imports coding/extract/quantize names into its own namespace,
# channel imports the estimator, cli and stats reach hmm through the module.
TARGETS = [
    ("physkey.protocol", "run_exchange", "protocol.run_exchange", None),
    ("physkey.protocol", "plan_parameters", "protocol.plan_parameters", None),
    ("physkey.protocol", "embed_trace", "quantize.embed_trace", None),
    ("physkey.protocol", "ss_sketch", "coding.ss_sketch", None),
    ("physkey.protocol", "ss_recover", "coding.ss_recover", None),
    ("physkey.protocol", "extract", "extract.extract",
     ("extract.bit_products", _bit_products)),
    ("physkey.channel", "calibrate_to_reference_rates",
     "channel.calibrate_to_reference_rates", None),
    ("physkey.channel", "measure_rates", "channel.measure_rates", None),
    ("physkey.channel", "simulate_run", "channel.simulate_run",
     ("channel.samples", _samples)),
    ("physkey.channel", "estimate_avg_conditional_min_entropy",
     "hmm.estimate_avg_conditional_min_entropy", ("hmm.dp_cells", _dp_cells)),
    ("physkey.hmm", "estimate_avg_conditional_min_entropy",
     "hmm.estimate_avg_conditional_min_entropy", ("hmm.dp_cells", _dp_cells)),
    ("physkey.hmm", "entropy_profile_batch", "hmm.entropy_profile_batch",
     ("hmm.dp_cells", _batch_dp_cells)),
    ("physkey.hmm", "fit_hmm_from_traces", "hmm.fit_hmm_from_traces", None),
    ("physkey.stats", "validate_assumptions", "stats.validate_assumptions", None),
    ("physkey.stats", "ks_two_sample", "stats.ks_two_sample", None),
    ("physkey.cli", "ingest_traces", "traces.ingest_traces", None),
    ("physkey.traces:TraceFile", "load", "traces.TraceFile.load",
     ("traces.rows", _rows)),
    ("physkey.cli", "main", "cli.main", None),
]

FUNCTIONS = list(dict.fromkeys(name for _, _, name, _ in TARGETS))
WORK_COUNTERS = list(dict.fromkeys(w[0] for *_, w in TARGETS if w))


class Tracer:
    """In-memory span recorder; records only while an operation is open."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._op: int | None = None
        self._next_id = 0

    def _open(self, name: str) -> dict:
        span = {"op": self._op, "id": self._next_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "start": time.perf_counter(), "end": None,
                "error": None, "work": None}
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one operation; spans opened inside share its id."""
        self._op = op_id
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)
            self._op = None

    def call(self, name, work, fn, args, kwargs):
        if self._op is None:
            return fn(*args, **kwargs)
        span = self._open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            if work is not None:
                span["work"] = (work[0], work[1](args, kwargs, result))
            self._close(span)


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    saved = []
    for path, attr, name, work in TARGETS:
        owner = _resolve(path)
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            fn = original.__func__

            def bound(cls, *args, _fn=fn, _name=name, _work=work, **kwargs):
                return tracer.call(_name, _work, _fn, (cls, *args), kwargs)

            replacement = classmethod(functools.wraps(fn)(bound))
        else:
            def plain(*args, _fn=original, _name=name, _work=work, **kwargs):
                return tracer.call(_name, _work, _fn, args, kwargs)

            replacement = functools.wraps(original)(plain)
        saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def layer_metrics(spans: list[dict], scales: dict, extra_counts: dict) -> dict:
    """Per-operation calls, self time and share of every traced function,
    the work counters, and the figures that account for operation time.

    Span times are scaled by their operation's host-speed scale, as the
    end-to-end times are."""
    def ms(s):
        return (s["end"] - s["start"]) * 1e3 * scales[s["op"]]

    child_ms: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + ms(s)
    roots = [s for s in spans if s["name"] == "op"]
    ops = max(1, len(roots))
    op_ms = [ms(s) for s in roots]
    total_op_ms = sum(op_ms) or 1.0

    calls = dict.fromkeys(FUNCTIONS, 0)
    self_ms = dict.fromkeys(FUNCTIONS, 0.0)
    work = dict.fromkeys(WORK_COUNTERS, 0)
    layer_self_by_op: dict[int, float] = {}
    recover_ok = uncorrectable = 0
    for s in spans:
        own = ms(s) - child_ms.get(s["id"], 0.0)
        if s["name"] == "op":
            continue
        calls[s["name"]] += 1
        self_ms[s["name"]] += own
        layer_self_by_op[s["op"]] = layer_self_by_op.get(s["op"], 0.0) + own
        if s["work"] is not None:
            work[s["work"][0]] += s["work"][1]
        if s["name"] == "coding.ss_recover":
            recover_ok += s["error"] is None
            uncorrectable += s["error"] == "UncorrectableBlockError"

    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = (calls[name] / ops, "count")
        metrics[f"{name}.self_ms"] = (self_ms[name] / ops, "ms")
        metrics[f"{name}.share"] = (100.0 * self_ms[name] / total_op_ms, "%")
    for name in WORK_COUNTERS:
        metrics[name] = (work[name] / ops, "count")
    metrics["coding.uncorrectable"] = (uncorrectable / ops, "count")
    recover_calls = calls["coding.ss_recover"]
    metrics["coding.recover_ok_ratio"] = (recover_ok / recover_calls if recover_calls else 0.0,
                                          "ratio")
    word_errors = extra_counts.get("coding.word_errors", [])
    metrics["coding.word_errors"] = (float(np.mean(word_errors)) if word_errors else 0.0,
                                     "count")
    layer_sums = [layer_self_by_op.get(s["op"], 0.0) for s in roots]
    metrics["trace.traced_op_ms_p50"] = (float(np.median(op_ms)) if op_ms else 0.0, "ms")
    metrics["trace.self_ms_sum_p50"] = (float(np.median(layer_sums)) if layer_sums else 0.0,
                                        "ms")
    metrics["trace.glue_ms"] = ((total_op_ms - sum(layer_sums)) / ops if op_ms else 0.0, "ms")
    metrics["trace.spans_per_op"] = ((len(spans) - len(roots)) / ops, "count")
    return metrics
