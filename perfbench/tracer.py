"""Per-layer spans recorded from outside zdglab.

``install`` replaces zdglab's public functions with wrappers that record a
span (name, start, end, parent) around each call. A function is replaced in
every loaded zdglab module that binds it, because modules import names
directly (``verifier`` calls its own ``gamma_ideal`` binding, ``specs`` its
own ``build_zn``). Spans stay in memory until ``write_spans``.

Instrumentation patches module attributes for the rest of the process, so it
belongs in a process of its own, such as one ``worker.py`` iteration.

A function that cannot be found is recorded as missing and every metric that
depends on it reads ``None``: code may move without the benchmark failing.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

# The ten checks of the verify report at tool_version 0.1.0.
CHECK_NAMES = (
    "cardinality_identity",
    "nonradical_not_complemented",
    "k1_quotient_inflation",
    "nonradical_complemented_iff_k2",
    "complemented_transfer",
    "classification_cases",
    "orthogonality_lifting",
    "annihilator_agreement",
    "complemented_iff_uniquely_complemented",
    "radical_equivalence_chain",
)

# (span name, module, attribute or "Class.method"). Functions sharing a span
# name form one layer metric.
TARGETS = (
    ("specs.build_ring", "zdglab.specs", "build_ring"),
    ("rings.build", "zdglab.rings", "build_zn"),
    ("rings.build", "zdglab.rings", "build_poly_quotient"),
    ("rings.build", "zdglab.rings", "direct_product"),
    ("rings.validate", "zdglab.rings", "validate_ring_axioms"),
    ("rings.vnr", "zdglab.rings", "is_von_neumann_regular"),
    ("rings.zero_divisors", "zdglab.rings", "zero_divisors"),
    ("rings.total_quotient", "zdglab.rings", "total_quotient_ring"),
    ("ideals.all_ideals", "zdglab.ideals", "all_ideals"),
    ("ideals.generate", "zdglab.ideals", "generate_ideal"),
    ("ideals.quotient", "zdglab.ideals", "quotient_ring"),
    ("ideals.radical", "zdglab.ideals", "radical"),
    ("ideals.is_prime", "zdglab.ideals", "is_prime"),
    ("graphs.gamma_ideal", "zdglab.graphs", "gamma_ideal"),
    ("graphs.gamma", "zdglab.graphs", "gamma"),
    ("graphs.is_complemented", "zdglab.graphs", "SimpleGraph.is_complemented"),
    ("graphs.is_uniquely_complemented", "zdglab.graphs", "SimpleGraph.is_uniquely_complemented"),
    ("verifier.analyze_pair", "zdglab.verifier", "analyze_pair"),
    ("verifier.evaluate_entry", "zdglab.verifier", "evaluate_entry"),
    ("verifier.run_catalogue", "zdglab.verifier", "run_catalogue"),
    ("verifier.report", "zdglab.verifier", "VerificationReport.to_json"),
)

# Self-time metrics and the span each reads.
SELF_TIME_METRICS = {
    "specs.build_ring_s": "specs.build_ring",
    "rings.build_s": "rings.build",
    "rings.validate_s": "rings.validate",
    "rings.vnr_s": "rings.vnr",
    "rings.zero_divisors_s": "rings.zero_divisors",
    "rings.total_quotient_s": "rings.total_quotient",
    "ideals.all_ideals_s": "ideals.all_ideals",
    "ideals.generate_s": "ideals.generate",
    "ideals.quotient_s": "ideals.quotient",
    "ideals.radical_s": "ideals.radical",
    "ideals.is_prime_s": "ideals.is_prime",
    "graphs.gamma_ideal_s": "graphs.gamma_ideal",
    "graphs.gamma_s": "graphs.gamma",
    "graphs.is_complemented_s": "graphs.is_complemented",
    "graphs.is_uniquely_complemented_s": "graphs.is_uniquely_complemented",
    **{f"verifier.check.{c}_s": f"verifier.check.{c}" for c in CHECK_NAMES},
    "verifier.analyze_pair_self_s": "verifier.analyze_pair",
    "verifier.evaluate_entry_self_s": "verifier.evaluate_entry",
    "verifier.merge_s": "verifier.run_catalogue",
    "verifier.report_s": "verifier.report",
}

# Metrics counting the calls of a span.
CALL_COUNT_METRICS = {
    "rings.build_calls": "rings.build",
    "rings.validate_calls": "rings.validate",
    "verifier.pairs": "verifier.analyze_pair",
}


def _count_table_bytes(tracer: "Tracer", ring) -> None:
    tracer.maximum("rings.table_bytes_max", ring.add_table.nbytes + ring.mul_table.nbytes)


def _count_ideals(tracer: "Tracer", ideals) -> None:
    tracer.add("ideals.enumerated", len(ideals))


def _count_graph(tracer: "Tracer", graph) -> None:
    tracer.add("graphs.built", 1)
    tracer.add("graphs.vertices", graph.vertex_count)
    tracer.add("graphs.edges", graph.edge_count)


def _count_skipped(tracer: "Tracer", result) -> None:
    skipped = result["skipped"] if isinstance(result, dict) else result.skipped
    tracer.add("verifier.entries_skipped", int(skipped is not None))


# Counters read from a call's result, with the metrics each one feeds.
RESULT_COUNTERS = {
    "rings.build": (_count_table_bytes, ("rings.table_bytes_max",)),
    "ideals.all_ideals": (_count_ideals, ("ideals.enumerated",)),
    "graphs.gamma_ideal": (_count_graph, ("graphs.built", "graphs.vertices", "graphs.edges")),
    "graphs.gamma": (_count_graph, ("graphs.built", "graphs.vertices", "graphs.edges")),
    "verifier.evaluate_entry": (_count_skipped, ("verifier.entries_skipped",)),
}

# Metrics that must repeat exactly from one traced run to the next.
COUNT_METRICS = tuple(dict.fromkeys(
    [*CALL_COUNT_METRICS, *(m for _, metrics in RESULT_COUNTERS.values() for m in metrics)]
))


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()  # span names or counter metrics that could not be recorded

    def add(self, metric: str, amount: float) -> None:
        self.counters[metric] = self.counters.get(metric, 0) + amount

    def maximum(self, metric: str, value: float) -> None:
        self.counters[metric] = max(self.counters.get(metric, 0), value)

    def wrap(self, fn, span: str):
        spans, stack = self.spans, self._stack
        counter = RESULT_COUNTERS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([span, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if counter is not None:
                count, metrics = counter
                try:
                    count(self, result)
                except (AttributeError, KeyError, TypeError):
                    self.missing.update(metrics)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def install(tracer: Tracer, targets=TARGETS) -> None:
    """Wrap every target in every loaded zdglab module that binds it, and
    every entry of ``zdglab.verifier.CHECKS``."""
    modules = [m for name, m in sys.modules.items() if name == "zdglab" or name.startswith("zdglab.")]
    for span, module, attr in targets:
        owner = sys.modules.get(module)
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name, None)
            fn = vars(cls).get(method) if isinstance(cls, type) else None
            if fn is None:
                tracer.missing.add(span)
            else:
                setattr(cls, method, tracer.wrap(fn, span))
            continue
        fn = getattr(owner, attr, None)
        if fn is None:
            tracer.missing.add(span)
            continue
        traced = tracer.wrap(fn, span)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, name, traced)

    verifier = sys.modules.get("zdglab.verifier")
    checks = dict(getattr(verifier, "CHECKS", ()))
    for name in CHECK_NAMES:
        if name not in checks:
            tracer.missing.add(f"verifier.check.{name}")
    if checks:
        verifier.CHECKS = tuple(
            (name, tracer.wrap(fn, f"verifier.check.{name}")) for name, fn in verifier.CHECKS
        )


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer: Tracer, phase_start: float, phase_end: float) -> dict[str, float | None]:
    """Self times, counts and entry percentiles from the recorded spans.

    A span's self time is its duration minus that of its direct children.
    ``trace.coverage_frac`` is the share of the timed phase covered by
    top-level spans; spans before ``phase_start`` (input preparation) count
    towards layer times but not towards coverage.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    entries: list[float] = []
    covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "verifier.evaluate_entry":
            entries.append(end - start)
        if parent < 0 and start >= phase_start:
            covered += end - start

    def unless_missing(span: str, value):
        return None if span in tracer.missing else value

    out: dict[str, float | None] = {}
    for metric, span in SELF_TIME_METRICS.items():
        out[metric] = unless_missing(span, self_time.get(span, 0.0))
    for metric, span in CALL_COUNT_METRICS.items():
        out[metric] = unless_missing(span, calls.get(span, 0))
    lost = set(tracer.missing)
    for span, (_, metrics) in RESULT_COUNTERS.items():
        if span in tracer.missing:
            lost.update(metrics)
    for _, metrics in RESULT_COUNTERS.values():
        for metric in metrics:
            out[metric] = None if metric in lost else tracer.counters.get(metric, 0)
    entry = "verifier.evaluate_entry"
    out["verifier.entry_p50_ms"] = unless_missing(entry, 1000 * _percentile(entries, 50))
    out["verifier.entry_p97_ms"] = unless_missing(entry, 1000 * _percentile(entries, 97))
    out["verifier.entry_max_ms"] = unless_missing(entry, 1000 * max(entries, default=0.0))
    out["verifier.entry_sum_s"] = unless_missing(entry, sum(entries))
    out["trace.coverage_frac"] = covered / (phase_end - phase_start)
    return out
