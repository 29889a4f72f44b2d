"""Exit criteria for the whole artifact, one test per criterion.

Tolerances are pinned here, not calibrated later:

1. optimal-quantity fidelity: exact integers
2. profit accounting: exact
3. expected-profit oracle equivalence: 1e-9 relative over the full support
4. exhaustive optimality: exact for uniform, within 1 unit otherwise
5. prompt golden files: byte-exact
6. metric recovery on synthetic agents: MAS +/- 0.02; >= 99% toward;
   optimal agent exact zeros; delta R^2 > 0.5
7. determinism: byte-identical records (timestamps excluded) and reports
8. fixture replay of reported aggregates: two decimals
9. resilience: one retry per injected rate-limit failure, no data loss
"""

import csv

import numpy as np
import pytest

from conftest import strip_timestamps, write_replay_store
from test_model import oracle_expected_profit

from nvlab import metrics, model
from nvlab.agents import AgentSpec
from nvlab.cli import main
from nvlab.config import RunConfig, build_plan
from nvlab.llm import ChatClient
from nvlab.metrics import (
    anchor_stats,
    bias_stats,
    learning_stats,
    profit_efficiency,
    quartile_thresholds,
)
from nvlab.model import expected_profit, optimal_quantity, profit, scenario, support_pmf
from nvlab.report import build_report
from nvlab.runner import ExperimentPlan, PlanCondition, run_plan
from nvlab.store import RunStore

TABLE_OPTIMA = [
    ("E1-baseline", "uniform", 225, 75),
    ("E3-risk-neutral", "uniform", 1125, 975),
    ("E1-baseline", "truncated-normal", 184, 117),
    ("E3-risk-neutral", "truncated-normal", 1084, 1017),
    ("E1-baseline", "lognormal", 165, 135),
]

REPORTED_MEAN_ORDERS = [
    # (distribution, label, mean high, mean low, deviation high, deviation low)
    ("uniform", "model-a", 182.42, 175.25, "-42.58", "100.25"),
    ("uniform", "model-b", 176.03, 168.89, "-48.97", "93.89"),
    ("uniform", "model-c", 147.72, 158.45, "-77.28", "83.45"),
    ("truncated-normal", "model-a", 181.07, 175.58, "-2.93", "58.58"),
    ("truncated-normal", "model-b", 169.55, 157.88, "-14.45", "40.88"),
    ("truncated-normal", "model-c", 154.38, 153.61, "-29.62", "36.61"),
    ("lognormal", "model-a", 168.08, 163.50, "3.08", "28.50"),
    ("lognormal", "model-b", 165.58, 138.88, "0.58", "3.88"),
    ("lognormal", "model-c", 144.87, 146.55, "-20.13", "11.55"),
]


def grid_plan(agent, experiments=("E1-baseline", "E2-formula", "E3-risk-neutral"),
              dists=("uniform", "truncated-normal"), reps=10, rounds=15, seed=1):
    config = RunConfig(experiments=experiments, distributions=dists,
                       repetitions=reps, rounds=rounds, base_seed=seed)
    return build_plan(config, [agent])


def by_condition(trajectories):
    groups = {}
    for t in trajectories:
        sc = t.scenario
        key = (sc.experiment, sc.demand.kind, t.order_condition, sc.margin)
        groups.setdefault(key, []).append(t)
    return groups


def test_criterion_1_optimal_quantity_fidelity():
    for experiment, dist, q_high, q_low in TABLE_OPTIMA:
        assert optimal_quantity(scenario(experiment, "high", dist)) == q_high
        assert optimal_quantity(scenario(experiment, "low", dist)) == q_low


def test_criterion_2_profit_accounting_fidelity():
    assert profit(185, 210, model.CostStructure(12, 3)) == 1665


def test_criterion_3_expected_profit_oracle_equivalence():
    for dist in model.DIST_KINDS:
        for margin in ("high", "low"):
            sc = scenario("E1-baseline", margin, dist)
            support, _ = support_pmf(sc.demand)
            for q in support:
                got = expected_profit(int(q), sc)
                want = oracle_expected_profit(int(q), sc)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_criterion_4_exhaustive_optimality():
    tol = 1e-6  # exact break-even ties exist at the critical fractile
    for experiment, kinds in (("E1-baseline", model.DIST_KINDS),
                              ("E3-risk-neutral", ("uniform", "truncated-normal"))):
        for dist in kinds:
            for margin in ("high", "low"):
                sc = scenario(experiment, margin, dist)
                support, _ = support_pmf(sc.demand)
                values = [expected_profit(int(q), sc) for q in support]
                best = max(values)
                q_star = optimal_quantity(sc)
                assert expected_profit(q_star, sc) >= best - tol
                maximizers = [int(q) for q, v in zip(support, values) if v >= best - tol]
                allowed = 0 if dist == "uniform" else 1
                assert min(abs(q_star - q) for q in maximizers) <= allowed


def test_criterion_5_prompt_golden_fidelity(capsys):
    assert main(["validate-prompts"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok:") == 3 and "MISMATCH" not in out


def test_criterion_6a_mean_anchor_recovery(tmp_path):
    for w in (0.0, 0.25, 0.5, 0.75, 1.0):
        agent = AgentSpec("mean-anchor", anchor_weight=w)
        plan = grid_plan(agent, experiments=("E1-baseline",), reps=2)
        outcome = run_plan(plan, tmp_path / f"w{w}")
        assert outcome.complete
        for key, group in by_condition(outcome.trajectories).items():
            score = anchor_stats(group)
            assert score == pytest.approx(w, abs=0.02), (key, w, score)


def test_criterion_6b_demand_chaser_direction(tmp_path):
    agent = AgentSpec("demand-chaser", chase_rate=1.0)
    outcome = run_plan(grid_plan(agent), tmp_path / "chaser")
    assert outcome.complete
    groups = {}
    for t in outcome.trajectories:
        sc = t.scenario
        groups.setdefault((sc.experiment, sc.demand.kind, t.agent, t.order_condition), []).append(t)
    toward = moved = 0
    for key, group in groups.items():
        # the calls report.quartile_rows makes for one table group
        _, _, errors, codes = metrics.classify_adjustments(group)
        abs_errors = np.abs(errors)
        buckets = metrics.quartile_buckets(abs_errors, quartile_thresholds(abs_errors))
        toward += int((codes[errors != 0] == 1).sum())
        moved += int((errors != 0).sum())
        q1_toward, q4_toward = ((codes[buckets == b] == 1).mean() for b in (0, 3))
        assert q4_toward >= q1_toward, key
    assert toward / moved >= 0.99


def test_criterion_6c_optimal_agent_exact_zeros(tmp_path):
    outcome = run_plan(grid_plan(AgentSpec("optimal")), tmp_path / "optimal")
    assert outcome.complete
    total_rounds = sum(len(t.records) for t in outcome.trajectories)
    assert total_rounds == 3600  # 6 conditions x 2 orders x 10 reps x 15 rounds x 2 blocks
    for key, group in by_condition(outcome.trajectories).items():
        stats = bias_stats(group)
        assert stats.order_bias == 0.0 and stats.normalized_bias == 0.0, key
        assert profit_efficiency(stats.mean_order, group[0].scenario) == pytest.approx(100.0)
        for t in group:
            learning = learning_stats([t])[0]
            assert learning.convergence_slope == 0.0
            assert learning.efficiency_slope == 0.0
            _, _, _, codes = metrics.classify_adjustments([t])
            assert (codes == 0).all()  # every adjustment is no-change


def test_criterion_6d_chase_switch_delta_r2(tmp_path):
    agent = AgentSpec("demand-chaser", chase_rate=1.0, switch_round=8)
    plan = grid_plan(agent, experiments=("E1-baseline",), dists=("uniform",), reps=10)
    outcome = run_plan(plan, tmp_path / "switch")
    assert outcome.complete
    for t in outcome.trajectories:
        assert learning_stats([t])[0].delta_r2 > 0.5


def _stripped(path):
    with open(path, encoding="utf-8") as handle:
        return [strip_timestamps(line) for line in handle if line.strip()]


def test_criterion_7_simulate_determinism(tmp_path, capsys):
    args = ["simulate", "--experiment", "E1", "--dist", "uniform", "--dist", "normal",
            "--agent", "demand-chaser", "--chase-rate", "0.5", "--reps", "2", "--seed", "42"]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--out", str(tmp_path / "b")]) == 0
    runs_a = sorted(p for p in (tmp_path / "a").iterdir())
    runs_b = sorted(p for p in (tmp_path / "b").iterdir())
    assert [p.name for p in runs_a] == [p.name for p in runs_b]
    for run_a, run_b in zip(runs_a, runs_b):
        assert _stripped(run_a / "rounds.jsonl") == _stripped(run_b / "rounds.jsonl")
        assert (run_a / "manifest.json").read_bytes() == (run_b / "manifest.json").read_bytes()
    assert main(["report", *map(str, runs_a), "--out", str(tmp_path / "ra")]) == 0
    assert main(["report", *map(str, runs_b), "--out", str(tmp_path / "rb")]) == 0
    files_a = sorted(p.name for p in (tmp_path / "ra").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "rb").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "ra" / name).read_bytes() == (tmp_path / "rb" / name).read_bytes()


def test_criterion_8_fixture_replay_of_reported_aggregates(tmp_path):
    rows = [(dist, label, high, low) for dist, label, high, low, _, _ in REPORTED_MEAN_ORDERS]
    write_replay_store(tmp_path / "fixture", rows)
    files = build_report([tmp_path / "fixture"], tmp_path / "report", compare_humans=True)
    with open(files["bias_table.csv"], newline="", encoding="utf-8") as handle:
        table = {(r["distribution"], r["agent"]): r for r in csv.DictReader(handle)}
    for dist, label, _, _, dev_high, dev_low in REPORTED_MEAN_ORDERS:
        row = table[(dist, label)]
        assert row["deviation_high"] == dev_high, (dist, label)
        assert row["deviation_low"] == dev_low, (dist, label)
    human = table[("uniform", "humans")]
    assert human["deviation_high"] == "-48.17"
    assert human["deviation_low"] == "59.06"


def test_criterion_9_resilience_one_retry_per_injected_failure(tmp_path, stub_server):
    stub_server.mode = "flaky"
    agent = AgentSpec("llm", model_name="test-model")
    plan = ExperimentPlan((
        PlanCondition("E1-baseline", "uniform", agent, "high-first",
                      repetitions=10, rounds_per_block=15, base_seed=3),
    ))

    def factory(spec):
        return ChatClient(stub_server.url, spec.model_name, api_key="k",
                          max_retries=3, backoff_base=0.001)

    # the stub alternates 429 / 200 over all requests, which is one failure
    # per logical request only when requests are sent one at a time
    outcome = run_plan(plan, tmp_path / "run", client_factory=factory, workers=1)
    assert outcome.complete
    records = RunStore(tmp_path / "run").records()
    assert len(records) == 300  # 10 repetitions x 2 blocks x 15 rounds
    assert all(record.retries == 1 for record in records)
    assert len(stub_server.requests) == 600
    assert sum(t.complete for t in outcome.trajectories) == 20
