"""Tests of the benchmark's own checks, stub endpoint and tracer.

    python3 -m pytest perfbench -q

Each correctness check is shown to accept the program's real output and to
reject a deliberately corrupted one.
"""

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stub  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import nvlab  # noqa: E402

SMALL_GRID = {"experiments": ("E1", "E3"), "distributions": ("uniform", "normal"),
              "repetitions": 1}


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """The four scripted agents' stores over a small grid."""
    root = tmp_path_factory.mktemp("grid")
    plans = workloads.grid_plans(7, **SMALL_GRID)
    for plan in plans:
        assert nvlab.run_plan(plan, root / plan.run_id()).complete
    return plans, root


def copy_stores(plans, src, dst):
    for plan in plans:
        shutil.copytree(src / plan.run_id(), dst / plan.run_id())
    return dst


def rewrite_orders(run_dir, orders: dict):
    """Set the order of the given record lines and redo the profit accounting,
    so that only an oracle (not the accounting check) can notice."""
    path = Path(run_dir) / "rounds.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    cumulative = {}
    for i, row in enumerate(rows):
        row["order"] = orders.get(i, row["order"])
        key = (row["condition_index"], row["order_condition"], row["repetition"],
               row["block_index"])
        row["profit"] = (checks.PRICE * min(row["order"], row["demand"])
                         - checks.UNIT_COST[row["margin"]] * row["order"])
        cumulative[key] = cumulative.get(key, 0) + row["profit"]
        row["cumulative_profit"] = cumulative[key]
    path.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in rows))


def test_sim_check_accepts_the_simulated_stores(grid):
    plans, root = grid
    problems, digests = workloads.check_grid_stores(plans, root)
    assert problems == []
    assert digests == [checks.stripped_digest(root / plan.run_id()) for plan in plans]


def tampered_orders(kind, rows) -> dict:
    """Orders that break one agent's oracle."""
    if kind == "optimal":
        return {0: rows[0]["order"] + 1}
    if kind == "mean-anchor":
        first = rows[0]
        return {i: r["order"] + 5 for i, r in enumerate(rows)
                if (r["experiment"], r["dist"], r["margin"])
                == (first["experiment"], first["dist"], first["margin"])}
    # demand-chaser: step away from the previous round's demand
    i = next(i for i, r in enumerate(rows)
             if r["round_index"] > 1 and rows[i - 1]["demand"] != rows[i - 1]["order"])
    prev = rows[i - 1]
    return {i: prev["order"] + (-1 if prev["demand"] > prev["order"] else 1)}


@pytest.mark.parametrize("agent", [0, 1, 2])
def test_sim_check_rejects_a_tampered_record(grid, tmp_path, agent):
    plans, root = grid
    copy = copy_stores(plans, root, tmp_path)
    target = copy / plans[agent].run_id()
    before = checks.stripped_digest(target)
    rewrite_orders(target, tampered_orders(plans[agent].conditions[0].agent.kind,
                                           checks.read_rows(target)))
    assert checks.stripped_digest(target) != before
    assert workloads.check_grid_stores(plans, copy)[0] != []


def test_sim_check_rejects_broken_accounting(grid, tmp_path):
    plans, root = grid
    copy = copy_stores(plans, root, tmp_path)
    target = copy / plans[3].run_id()
    lines = (target / "rounds.jsonl").read_text().splitlines()
    row = json.loads(lines[3])
    row["profit"] += 1
    lines[3] = json.dumps(row)
    (target / "rounds.jsonl").write_text("\n".join(lines) + "\n")
    assert any("accounting" in p for p in workloads.check_grid_stores(plans, copy)[0])


def test_report_check_rejects_a_changed_bundle_byte(grid, tmp_path):
    plans, root = grid
    stores = [root / plan.run_id() for plan in plans]
    nvlab.build_report(stores, tmp_path / "a", compare_humans=True)
    nvlab.build_report(stores, tmp_path / "b", compare_humans=True)
    assert checks.check_bundle(tmp_path / "a") == []
    assert checks.bundle_digest(tmp_path / "a") == checks.bundle_digest(tmp_path / "b")

    table = tmp_path / "b" / "word_frequencies.csv"
    data = bytearray(table.read_bytes())
    data[-2] ^= 1
    table.write_bytes(bytes(data))
    assert checks.bundle_digest(tmp_path / "a") != checks.bundle_digest(tmp_path / "b")

    bias = tmp_path / "a" / "bias_table.csv"
    lines = bias.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if ",optimal," in line)
    lines[row] = lines[row].replace(",0.00,", ",0.01,", 1)
    bias.write_text("\n".join(lines) + "\n")
    assert any("optimal agent biased" in p for p in checks.check_bundle(tmp_path / "a"))


def test_resume_check_accepts_resume_and_rejects_a_tampered_record(grid, tmp_path):
    plans, root = grid
    for plan in plans:
        removed = workloads.truncate_store(root / plan.run_id(), tmp_path / plan.run_id(),
                                           plan.conditions[0].rounds_per_block)
        assert removed == workloads.plan_trajectories(plan)
        assert nvlab.resume(tmp_path / plan.run_id()).complete
        assert checks.stripped_digest(tmp_path / plan.run_id()) == checks.stripped_digest(
            root / plan.run_id())
    target = tmp_path / plans[3].run_id()
    rewrite_orders(target, {0: checks.read_rows(target)[0]["order"] + 1})
    assert checks.stripped_digest(target) != checks.stripped_digest(root / plans[3].run_id())


@pytest.fixture
def llm(tmp_path):
    workload = workloads.LlmStub(11, tmp_path, repetitions=1, latency_ms=0.0)
    try:
        workload.setup()
        yield workload
    finally:
        workload.close()
    assert workload.stub is None


def test_llm_check_accepts_a_run_and_rejects_a_wrong_stub_order(llm, tmp_path):
    before = llm.stats()
    out = tmp_path / "run"
    assert nvlab.run_plan(llm.plan, out, client_factory=llm.client).complete
    after = llm.stats()
    delta = {k: after[k] - before.get(k, 0) for k in after}
    args = (out, 2, 15, llm.seed, before.get("round_requests", 0))
    assert checks.check_llm_store(*args, delta) == []
    assert delta["requests"] > delta["round_requests"]  # faults were injected

    short = dict(delta, requests=delta["requests"] - 1)
    assert any("requests" in p for p in checks.check_llm_store(*args, short))
    rewrite_orders(out, {4: checks.read_rows(out)[4]["order"] + 1})
    assert any("stated" in p for p in checks.check_llm_store(*args, delta))


def test_llm_pass_is_checked_and_counted(llm):
    assert llm.run_pass() > 0
    assert llm.problems == [] and llm.failed == 0
    assert llm.attempted == llm.rounds_per_pass == 30
    assert llm.extra_info()["chat_requests_per_round"] > 1.0


def test_fault_schedule_is_seeded_with_exact_shares():
    for seed in (0, 1, 2):
        for period in range(3):
            kinds = [stub.fault_kind(seed, period * stub.PERIOD + i) for i in range(stub.PERIOD)]
            assert sorted(kinds) == sorted(stub.PERIOD_KINDS)
    first = [stub.fault_kind(0, i) for i in range(40)]
    assert first == [stub.fault_kind(0, i) for i in range(40)]
    assert first != [stub.fault_kind(1, i) for i in range(40)]


def test_stub_answers_a_rate_limited_body_on_retry_and_states_pure_orders():
    endpoint = stub.StubEndpoint(seed=5)
    for i in range(stub.PERIOD):
        prompt = f"round prompt {i}"
        body = json.dumps({"messages": [{"role": "user", "content": prompt}]}).encode()
        status, payload = endpoint.respond(body)
        if status == 429:
            status, payload = endpoint.respond(body)
            assert status == 200
        text = payload["choices"][0]["message"]["content"]
        if text == stub.NO_ORDER_REPLY:
            follow = json.dumps({"messages": [
                {"role": "user", "content": prompt},
                {"role": "assistant", "content": text},
                {"role": "user", "content": "please state a number"}]}).encode()
            status, payload = endpoint.respond(follow)
            text = payload["choices"][0]["message"]["content"]
        order = stub.stated_order(hashlib.sha256(prompt.encode()).hexdigest())
        assert str(order) in text
    stats = endpoint.stats
    assert stats["round_requests"] == stub.PERIOD
    assert stats["requests"] == stub.PERIOD + stats[stub.RATE_LIMIT] + stats[stub.NUDGE]
    assert stats[stub.RATE_LIMIT] == 2 and stats[stub.NUDGE] == 1 and stats[stub.FALLBACK] == 2


def test_tracer_records_spans_at_every_binding_and_restores(tmp_path):
    original_decide = nvlab.agents.decide
    plan = workloads.grid_plans(3, experiments=("E1",), distributions=("uniform",),
                                repetitions=1)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert nvlab.runner.decide is not original_decide
        nvlab.run_plan(plan, tmp_path / "run")
    finally:
        tracer.uninstall()
    assert nvlab.runner.decide is original_decide and nvlab.agents.decide is original_decide
    assert tracer.missing == []
    calls, busy, self_time = tracing.span_totals(tracer.spans)
    assert calls["store.append"] == calls["agents.decide"] == workloads.plan_rounds(plan)
    assert calls["runner.run_plan"] == 1
    assert all(0 <= self_time[name] <= busy[name] + 1e-9 for name in calls)
    by_id = {span[0]: span for span in tracer.spans}
    decide_parents = {by_id[s[1]][2] for s in tracer.spans if s[2] == "agents.decide"}
    assert decide_parents == {"runner.run_plan"}
    metrics = tracing.layer_metrics(tracer, 1, workloads.plan_rounds(plan), 0)
    assert metrics["store.append.calls"] == workloads.plan_rounds(plan)
    assert set(metrics) | set(run.IMPORTTIME_MODULES.values()) | {"trace.overhead_pct"} == set(
        tracing.LAYER_METRICS)
    tracer.write(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == len(tracer.spans)


class SmallSimGrid(workloads.SimGrid):
    def setup(self):
        self.plans = workloads.grid_plans(self.seed, **SMALL_GRID)
        self.rounds_per_pass = self.attempted_per_pass = sum(map(workloads.plan_rounds,
                                                                 self.plans))
        return [0.0]


def test_a_traced_function_missing_from_nvlab_makes_the_run_incorrect(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "TRACED",
                        tracing.TRACED + (("model.gone", "model", "no_such_function"),))
    monkeypatch.setitem(workloads.WORKLOADS, "sim-grid", SmallSimGrid)
    args = argparse.Namespace(workload="sim-grid", seed=7, seconds=0.0, trace=1,
                              work=str(tmp_path / "work"))
    result = workloads.measure(args)
    assert not result["correct"]
    assert any("model.gone" in p for p in result["problems"])
    assert result["metrics"]["store.append.calls"] > 0


def test_gauge_scales_a_sample_by_the_reference_around_it(monkeypatch):
    references = iter([3.0 * speed.REFERENCE_S, 1.0 * speed.REFERENCE_S])
    monkeypatch.setattr(speed, "reference_s", lambda: next(references))
    gauge = speed.Gauge()
    result, seconds = gauge.time(lambda x: time.sleep(0.05) or x, 7)
    assert result == 7
    assert gauge.slowdowns == [pytest.approx(2.0)]
    assert 0.025 <= seconds < 0.5
    assert gauge.summary() == {"slowdown": (pytest.approx(2.0), 1), "import_slowdown": (None, 0)}


def test_self_time_excludes_children():
    spans = [(1, None, "a", 0.0, 10.0), (2, 1, "b", 1.0, 4.0), (3, 1, "b", 5.0, 6.0)]
    calls, busy, self_time = tracing.span_totals(spans)
    assert calls == {"a": 1, "b": 2}
    assert busy["a"] == 10.0 and self_time["a"] == 6.0 and self_time["b"] == 4.0
    assert tracing.percentile([3, 1, 2, 4], 50) == 2 and tracing.percentile([], 99) == 0.0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in tracing.LAYER_METRICS.items()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) == set(
        run.WORKLOADS)
    traced = {name for name, _, _ in tracing.TRACED}
    for name in tracing.LAYER_METRICS:
        base, _, kind = name.rpartition(".")
        if kind in ("calls", "busy_ms", "self_ms"):
            assert base in traced, name


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy2(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
