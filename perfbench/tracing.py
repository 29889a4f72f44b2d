"""Span tracing from outside the program, and the per-layer metrics derived from it.

`Tracer.install` replaces each traced nvlab function at every name its
callers bind: a module-level function is swapped in every loaded ``nvlab``
module whose namespace holds it (so ``runner.decide`` and ``agents.decide``
are both traced), and a method is swapped on its class. Each call records a
span ``(id, parent id, name, start, end)`` in memory; `Tracer.uninstall`
restores the originals. `layer_metrics` turns the spans of the traced
passes into the per-layer metrics named in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import sys
import threading
import time
from collections import Counter, defaultdict

# (span name, module under nvlab, attribute path)
TRACED = (
    ("model.optimal_quantity", "model", "optimal_quantity"),
    ("model.expected_profit", "model", "expected_profit"),
    ("model.support_pmf", "model", "support_pmf"),
    ("model.sample_sequence", "model", "sample_sequence"),
    ("prompts.render_prompt", "prompts", "render_prompt"),
    ("agents.decide", "agents", "decide"),
    ("agents.extract_order", "agents", "extract_order"),
    ("llm.chat", "llm", "ChatClient.chat"),
    ("llm.token_bucket.acquire", "llm", "TokenBucket.acquire"),
    ("runner.run_plan", "runner", "run_plan"),
    ("runner.resume", "runner", "resume"),
    ("runner.run_id", "runner", "ExperimentPlan.run_id"),
    ("store.append", "store", "RunStore.append"),
    ("store.records", "store", "RunStore.records"),
    ("store.group_trajectories", "store", "group_trajectories"),
    ("metrics.bias_stats", "metrics", "bias_stats"),
    ("metrics.anchor_stats", "metrics", "anchor_stats"),
    ("metrics.profit_efficiency", "metrics", "profit_efficiency"),
    ("metrics.classify_adjustments", "metrics", "classify_adjustments"),
    ("metrics.learning_stats", "metrics", "learning_stats"),
    ("metrics.word_frequencies", "metrics", "word_frequencies"),
    ("report.build_report", "report", "build_report"),
    ("report.load_trajectories", "report", "load_trajectories"),
    ("report.bias_rows", "report", "bias_rows"),
    ("report.mas_rows", "report", "mas_rows"),
    ("report.risk_neutral_rows", "report", "risk_neutral_rows"),
    ("report.learning_rows", "report", "learning_rows"),
    ("report.quartile_rows", "report", "quartile_rows"),
    ("report.round_trajectory_rows", "report", "round_trajectory_rows"),
    ("report.adjustment_share_rows", "report", "adjustment_share_rows"),
    ("report.word_frequency_rows", "report", "word_frequency_rows"),
)

REPORT_TABLES = (
    "bias_rows", "mas_rows", "risk_neutral_rows", "learning_rows", "quartile_rows",
    "round_trajectory_rows", "adjustment_share_rows", "word_frequency_rows",
)

SIM, REPORT, RESUME, LLM = "sim-grid", "report-grid", "resume-grid", "llm-stub"

# name -> (unit, better, what it should move). "Per pass" is one unit of a
# workload's timed work: one simulate of the grid, one report build, one
# resume of the four stores, or one run of the LLM plan.
LAYER_METRICS = {
    "store.append.calls": ("calls/pass", "lower", f"rounds_per_s on {SIM}"),
    "store.append.busy_ms": ("ms/pass", "lower", f"rounds_per_s on {SIM}"),
    "store.records.busy_ms": ("ms/pass", "lower", f"rounds_per_s on {RESUME} and {REPORT}"),
    "store.group_trajectories.busy_ms": (
        "ms/pass", "lower", f"rounds_per_s on {RESUME} and {REPORT}"),
    "runner.run_id.calls": ("calls/pass", "lower", f"rounds_per_s on {SIM}"),
    "runner.run_id.busy_ms": ("ms/pass", "lower", f"rounds_per_s on {SIM}"),
    "runner.run_plan.self_ms": ("ms/pass", "lower", f"rounds_per_s on {SIM}"),
    "runner.resume.self_ms": ("ms/pass", "lower", f"rounds_per_s on {RESUME}"),
    "model.optimal_quantity.calls": ("calls/pass", "lower", f"rounds_per_s on {SIM}"),
    "model.optimal_quantity.busy_ms": ("ms/pass", "lower", f"rounds_per_s on {SIM}"),
    "model.expected_profit.calls": ("calls/pass", "lower", f"rounds_per_s on {REPORT}"),
    "model.expected_profit.busy_ms": ("ms/pass", "lower", f"rounds_per_s on {REPORT}"),
    "model.support_pmf.calls": ("calls/pass", "lower", f"rounds_per_s on {REPORT}"),
    "model.support_pmf.hit_ratio": ("ratio", "higher", f"rounds_per_s on {REPORT}"),
    "model.sample_sequence.busy_ms": ("ms/pass", "lower", f"rounds_per_s on {SIM} and {RESUME}"),
    "prompts.render_prompt.calls": ("calls/pass", "lower", f"rounds_per_s on {RESUME}"),
    "prompts.render_prompt.busy_ms": (
        "ms/pass", "lower", f"rounds_per_s on {RESUME} and {SIM}"),
    "agents.decide.calls": ("calls/pass", "lower", f"rounds_per_s on {SIM}"),
    "agents.decide.self_ms": ("ms/pass", "lower", f"rounds_per_s on {LLM} and {SIM}"),
    "agents.extract_order.fallback_share": ("ratio", "lower", f"failed_share on {LLM}"),
    "llm.chat.calls": ("calls/pass", "lower", f"chat_requests_per_round on {LLM}"),
    "llm.chat.latency_ms.p50": ("ms", "lower", f"rounds_per_s on {LLM}"),
    "llm.chat.latency_ms.p99": ("ms", "lower", f"rounds_per_s on {LLM}"),
    "llm.chat.retries": ("count/pass", "lower", f"chat_requests_per_round on {LLM}"),
    "llm.chat.useful_ratio": ("ratio", "higher", f"chat_requests_per_round on {LLM}"),
    "llm.chat.requests_per_round": ("1/round", "lower", f"chat spend on {LLM}"),
    "llm.token_bucket.wait_ms": ("ms/pass", "lower", f"rounds_per_s on {LLM}"),
    "llm.token_bucket.acquire.busy_ms": ("ms/pass", "lower", f"rounds_per_s on {LLM}"),
    "metrics.learning_stats.busy_ms": ("ms/pass", "lower", f"rounds_per_s on {REPORT}"),
    "metrics.profit_efficiency.calls": ("calls/pass", "lower", f"rounds_per_s on {REPORT}"),
    "metrics.profit_efficiency.busy_ms": ("ms/pass", "lower", f"rounds_per_s on {REPORT}"),
    "metrics.bias_stats.busy_ms": ("ms/pass", "lower", f"rounds_per_s on {REPORT}"),
    "metrics.classify_adjustments.busy_ms": ("ms/pass", "lower", f"rounds_per_s on {REPORT}"),
    "report.build_report.self_ms": ("ms/pass", "lower", f"rounds_per_s on {REPORT}"),
    "report.load_trajectories.busy_ms": (
        "ms/pass", "lower", f"rounds_per_s and peak_rss_mb on {REPORT}"),
    **{
        f"report.{table}.busy_ms": ("ms/pass", "lower", f"rounds_per_s on {REPORT}")
        for table in REPORT_TABLES
    },
    "import.nvlab_ms": ("ms", "lower", "import_s on every workload"),
    "import.scipy.special_ms": ("ms", "lower", "import_s on every workload"),
    "import.nvlab.model_ms": ("ms", "lower", "import_s on every workload"),
    "trace.overhead_pct": ("%", "lower", "none: cost of tracing against the untraced passes"),
    "trace.spans_per_pass": ("spans/pass", "lower", "none: volume of tracing"),
}


class Tracer:
    """Wraps nvlab functions and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []
        self._caches: dict[str, tuple] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            if observe is not None:
                observe(tracer.counters, result)
            return result

        return traced

    def install(self):
        """Swap every target at each binding; a target nvlab lacks is skipped and noted
        in ``missing``, which makes the traced run incorrect."""
        for name, module_name, path in TRACED:
            module = importlib.import_module(f"nvlab.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            if hasattr(original, "cache_info"):
                self._caches[name] = (original, original.cache_info())
            wrapper = self.wrap(name, original, OBSERVERS.get(name))
            if owner_name:
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "nvlab" and not mod_name.startswith("nvlab."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for name, (original, before) in self._caches.items():
            after = original.cache_info()
            self.counters[f"{name}.hits"] += after.hits - before.hits
            self.counters[f"{name}.misses"] += after.misses - before.misses
        self._caches.clear()
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        """Write the spans out as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start": start, "end": end}, separators=(",", ":")) + "\n")


def _observe_chat(counters, result):
    counters["llm.chat.retries"] += result.retries


def _observe_extract(counters, result):
    counters["agents.extract_order.ok"] += 1
    if result[1] == "fallback":
        counters["agents.extract_order.fallback"] += 1


def _observe_acquire(counters, waited):
    counters["llm.token_bucket.wait_s"] += waited


OBSERVERS = {
    "llm.chat": _observe_chat,
    "agents.extract_order": _observe_extract,
    "llm.token_bucket.acquire": _observe_acquire,
}


def span_totals(spans) -> tuple[Counter, dict, dict]:
    """Per span name: call count, inclusive seconds, and self seconds."""
    calls: Counter = Counter()
    busy: dict = defaultdict(float)
    children: dict = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent] += end - start
    self_time: dict = defaultdict(float)
    for span_id, _, name, start, end in spans:
        calls[name] += 1
        busy[name] += end - start
        self_time[name] += end - start - children.get(span_id, 0.0)
    return calls, busy, self_time


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, rounds: int, stub_requests: int) -> dict:
    """Per-layer metrics of ``passes`` traced passes that persisted ``rounds`` rounds.

    ``stub_requests`` is the number of requests the chat endpoint received
    during those passes. Import and tracing-overhead metrics are filled in
    by the caller.
    """
    calls, busy, self_time = span_totals(tracer.spans)
    counters = tracer.counters
    per = 1.0 / passes if passes else 0.0
    out = {}
    for name in LAYER_METRICS:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls[base] * per
        elif kind == "busy_ms":
            out[name] = busy[base] * 1000.0 * per
        elif kind == "self_ms":
            out[name] = self_time[base] * 1000.0 * per
    chat = [(end - start) * 1000.0 for _, _, name, start, end in tracer.spans
            if name == "llm.chat"]
    retries = counters["llm.chat.retries"]
    out.update({
        "model.support_pmf.hit_ratio": _ratio(
            counters["model.support_pmf.hits"],
            counters["model.support_pmf.hits"] + counters["model.support_pmf.misses"]),
        "agents.extract_order.fallback_share": _ratio(
            counters["agents.extract_order.fallback"], counters["agents.extract_order.ok"]),
        "llm.chat.latency_ms.p50": percentile(chat, 50),
        "llm.chat.latency_ms.p99": percentile(chat, 99),
        "llm.chat.retries": retries * per,
        "llm.chat.useful_ratio": _ratio(rounds, len(chat) + retries) if chat else 0.0,
        "llm.chat.requests_per_round": _ratio(stub_requests, rounds),
        "llm.token_bucket.wait_ms": counters["llm.token_bucket.wait_s"] * 1000.0 * per,
        "trace.spans_per_pass": len(tracer.spans) * per,
    })
    return out
