import itertools
import json
from collections import Counter
import os
import shutil
import signal
import sys
import threading
import time

import numpy as np
import pytest

from conftest import TOO_LONG_BODY, strip_timestamps
from nvlab import agents
from nvlab import runner as runner_module
from nvlab.agents import AgentSpec
from nvlab.config import RunConfig, build_plan
from nvlab.llm import ChatClient, ChatResult
from nvlab.model import (BASE_RANGE, DIST_KINDS, E3, EXPERIMENTS, LOGNORMAL, RISK_NEUTRAL_RANGE,
                         ScenarioConfig, sample_sequence)
from nvlab.prompts import render_prompt
from nvlab.report import build_report
from nvlab.runner import (
    ExperimentPlan,
    PlanCondition,
    derive_seed,
    load_plan,
    replay,
    resume,
    run_plan,
)
from nvlab.store import IntegrityError, RoundRecord, RunStore, Trajectory, sha256_text

OPTIMAL = AgentSpec("optimal")
CHASER = AgentSpec("demand-chaser", chase_rate=0.5)


def small_plan(agent=OPTIMAL, experiment="E1-baseline", dist="uniform",
               orders=("high-first", "low-first"), reps=2, rounds=15, seed=7):
    conditions = tuple(
        PlanCondition(experiment, dist, agent, oc, repetitions=reps,
                      rounds_per_block=rounds, base_seed=seed)
        for oc in orders
    )
    return ExperimentPlan(conditions)


def stripped_lines(run_dir):
    with open(run_dir / "rounds.jsonl", encoding="utf-8") as handle:
        return [strip_timestamps(line) for line in handle if line.strip()]


def test_optimal_agent_blocks_order_at_respective_optima(tmp_path):
    plan = small_plan(orders=("high-first",), reps=1)
    outcome = run_plan(plan, tmp_path / "run")
    blocks = {t.block_index: t for t in outcome.trajectories}
    assert set(blocks[1].orders) == {225}
    assert set(blocks[2].orders) == {75}


def test_low_first_reverses_margins(tmp_path):
    plan = small_plan(orders=("low-first",), reps=1)
    outcome = run_plan(plan, tmp_path / "run")
    blocks = {t.block_index: t for t in outcome.trajectories}
    assert blocks[1].scenario.margin == "low" and set(blocks[1].orders) == {75}
    assert blocks[2].scenario.margin == "high" and set(blocks[2].orders) == {225}


def test_default_grid_shape_counts(tmp_path):
    plan = build_plan(RunConfig(repetitions=10, rounds=15), [OPTIMAL])
    # 6 (experiment x distribution) conditions x 2 presentation orders
    assert len(plan.conditions) == 12
    blocks = sum(2 * c.repetitions for c in plan.conditions)
    rounds = sum(2 * c.repetitions * c.rounds_per_block for c in plan.conditions)
    assert blocks == 240
    assert rounds == 3600


def test_scripted_runs_are_bit_identical_apart_from_timestamps(tmp_path):
    plan = small_plan(agent=CHASER, reps=2)
    run_plan(plan, tmp_path / "a")
    run_plan(plan, tmp_path / "b")
    assert stripped_lines(tmp_path / "a") == stripped_lines(tmp_path / "b")
    raw_a = (tmp_path / "a" / "rounds.jsonl").read_text()
    raw_b = (tmp_path / "b" / "rounds.jsonl").read_text()
    assert raw_a != raw_b  # timestamps differ; everything else matches


def test_cumulative_profit_is_running_sum(tmp_path):
    outcome = run_plan(small_plan(agent=CHASER, reps=1), tmp_path / "run")
    for trajectory in outcome.trajectories:
        running = 0
        for record in trajectory.records:
            running += record.profit
            assert record.cumulative_profit == running


def test_demand_streams_are_agent_independent(tmp_path):
    a = run_plan(small_plan(agent=OPTIMAL, reps=2), tmp_path / "a")
    b = run_plan(small_plan(agent=CHASER, reps=2), tmp_path / "b")
    demands_a = {(t.order_condition, t.repetition, t.block_index): t.demands
                 for t in a.trajectories}
    demands_b = {(t.order_condition, t.repetition, t.block_index): t.demands
                 for t in b.trajectories}
    assert demands_a == demands_b


def test_blocks_draw_fresh_sequences(tmp_path):
    outcome = run_plan(small_plan(reps=2), tmp_path / "run")
    by_key = {(t.order_condition, t.repetition, t.block_index): t.demands
              for t in outcome.trajectories}
    assert by_key[("high-first", 0, 1)] != by_key[("high-first", 0, 2)]
    assert by_key[("high-first", 0, 1)] != by_key[("high-first", 1, 1)]
    # seeds depend only on (repetition, block), not on the condition
    assert by_key[("high-first", 0, 1)] == by_key[("low-first", 0, 1)]


def test_demand_sequences_match_derived_seeds(tmp_path):
    plan = small_plan(orders=("high-first",), reps=1, seed=99)
    outcome = run_plan(plan, tmp_path / "run")
    for trajectory in outcome.trajectories:
        seed = derive_seed(99, trajectory.repetition, trajectory.block_index)
        assert trajectory.demands == sample_sequence(trajectory.scenario.demand, 15, seed)


def test_prompt_hashes_re_render(tmp_path):
    run_plan(small_plan(agent=CHASER, reps=1), tmp_path / "run")
    before = (tmp_path / "run" / "rounds.jsonl").read_bytes()
    outcome = resume(tmp_path / "run")  # re-renders every stored prompt, decides nothing
    assert outcome.complete and sum(len(t.records) for t in outcome.trajectories) == 60
    assert (tmp_path / "run" / "rounds.jsonl").read_bytes() == before


def test_a_resume_pays_for_scenario_lookups_per_block_not_per_round(tmp_path, monkeypatch):
    counts = Counter()
    scenario_hash, scenario_eq = ScenarioConfig.__hash__, ScenarioConfig.__eq__

    def counted_hash(self):
        counts["hash"] += 1
        return scenario_hash(self)

    def counted_eq(self, other):
        counts["eq"] += 1
        return scenario_eq(self, other)

    per_rounds = {}
    for rounds in (3, 12):
        run_dir = tmp_path / f"rounds-{rounds}"
        run_plan(small_plan(agent=CHASER, reps=2, rounds=rounds), run_dir)
        counts.clear()
        monkeypatch.setattr(ScenarioConfig, "__hash__", counted_hash)
        monkeypatch.setattr(ScenarioConfig, "__eq__", counted_eq)
        assert resume(run_dir).complete  # re-renders every stored round, decides none
        monkeypatch.undo()
        per_rounds[rounds] = Counter(counts)  # a count never made reads 0
    blocks = 2 * 2 * 2  # conditions x repetitions x blocks
    assert 0 < per_rounds[3]["hash"] <= blocks and per_rounds[3]["eq"] <= blocks
    assert per_rounds[12] == per_rounds[3]


def test_a_fresh_scripted_run_looks_up_at_most_one_optimum_per_block(tmp_path, monkeypatch):
    counts = Counter()
    optimal_quantity = agents.optimal_quantity

    def counted_optimal_quantity(sc):
        counts["optimum"] += 1
        return optimal_quantity(sc)

    plan = ExperimentPlan(tuple(
        PlanCondition("E1-baseline", "uniform", agent, "high-first", repetitions=2,
                      rounds_per_block=6, base_seed=5)
        for agent in (OPTIMAL, AgentSpec("mean-anchor", anchor_weight=0.5), CHASER,
                      AgentSpec("random"))))
    monkeypatch.setattr(agents, "optimal_quantity", counted_optimal_quantity)
    assert run_plan(plan, tmp_path / "run").complete
    blocks = 4 * 2 * 2  # conditions x repetitions x blocks
    assert 0 < counts["optimum"] <= blocks


def test_an_llm_run_sends_one_request_per_round(tmp_path, stub_server):
    """An LLM round is decided from its block's scenario, as a scripted round is."""
    stub_server.reply_fn = order_from_prompt
    plan = small_plan(AgentSpec("llm", model_name="m"), reps=1, rounds=3)
    assert run_plan(plan, tmp_path / "run", client_factory=stub_factory(stub_server)).complete
    assert len(stub_server.requests) == 2 * 2 * 3  # conditions x blocks x rounds


# the risk-neutral demand range has no lognormal calibration
EVERY_SCENARIO = [(exp, kind) for exp in EXPERIMENTS for kind in DIST_KINDS
                  if (exp, kind) != (E3, LOGNORMAL)]


def public_prompts(plan, records):
    """Each record's prompt rendered by the public API: identity -> prompt."""
    last = {}
    prompts = {}
    for record in sorted(records, key=lambda r: (r.identity(), r.round_index)):
        block = record.identity()[:2] + (record.block_index,)
        condition = plan.conditions[record.condition_index]
        sc = condition.scenario_for_margin(record.margin)
        previous = last.get(block)
        feedback = () if record.round_index == 1 else (
            previous.order, previous.demand, previous.profit, previous.cumulative_profit)
        prompts[record.identity() + (record.round_index,)] = render_prompt(sc, *feedback)
        last[block] = record
    return prompts


def every_scenario_plan(agent, rounds):
    return ExperimentPlan(tuple(
        PlanCondition(exp, kind, agent, order, repetitions=1, rounds_per_block=rounds,
                      base_seed=3)
        for exp, kind in EVERY_SCENARIO for order in ("high-first", "low-first")))


def test_a_scripted_run_stores_the_hashes_of_the_public_prompts(tmp_path):
    plan = every_scenario_plan(AgentSpec("random"), rounds=4)
    outcome = run_plan(plan, tmp_path / "run")
    assert outcome.complete
    records = RunStore(tmp_path / "run").records()
    assert {(r.experiment, r.dist, r.margin) for r in records} == {
        (exp, kind, margin) for exp, kind in EVERY_SCENARIO for margin in ("high", "low")}
    prompts = public_prompts(plan, records)
    assert len(prompts) == len(records) == len(plan.conditions) * 2 * 4
    for record in records:
        expected = prompts[record.identity() + (record.round_index,)]
        assert record.prompt_sha256 == sha256_text(expected), record


def test_an_llm_run_sends_the_public_prompts(tmp_path, stub_server):
    stub_server.reply_fn = order_from_prompt
    plan = every_scenario_plan(AgentSpec("llm", model_name="m"), rounds=3)
    outcome = run_plan(plan, tmp_path / "run", client_factory=stub_factory(stub_server))
    assert outcome.complete
    records = RunStore(tmp_path / "run").records()
    prompts = public_prompts(plan, records)
    assert len(stub_server.requests) == len(records) == len(prompts)
    sent = [m["content"] for body in stub_server.requests for m in body["messages"]
            if m["role"] == "user"]
    assert set(sent) == set(prompts.values())
    last_sent = {sha256_text(body["messages"][-1]["content"]) for body in stub_server.requests}
    assert last_sent == {sha256_text(p) for p in prompts.values()}


def test_a_clock_stepped_back_mid_round_stores_no_inverted_timestamps(tmp_path, monkeypatch):
    # each round starts at 100.0 and would end at 40.0
    readings = itertools.cycle([100.0, 40.0])
    monkeypatch.setattr(time, "time", lambda: next(readings))
    outcome = run_plan(small_plan(reps=1), tmp_path / "run")
    monkeypatch.undo()
    assert outcome.complete
    assert {(r.ts_start, r.ts_end) for r in RunStore(tmp_path / "run").records()} == {
        (100.0, 100.0)}
    assert resume(tmp_path / "run").complete


def test_resume_of_completed_run_is_noop(tmp_path):
    plan = small_plan(reps=1)
    run_plan(plan, tmp_path / "run")
    before = (tmp_path / "run" / "rounds.jsonl").read_text()
    outcome = resume(tmp_path / "run")
    assert outcome.complete
    assert (tmp_path / "run" / "rounds.jsonl").read_text() == before


def test_resume_refuses_mismatched_plan_hash(tmp_path):
    run_plan(small_plan(reps=1), tmp_path / "run")
    manifest_path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["plan"]["conditions"][0]["repetitions"] = 5
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(IntegrityError, match="plan hash"):
        resume(tmp_path / "run")


def test_corrupted_round_is_named(tmp_path):
    run_plan(small_plan(reps=1), tmp_path / "run")
    rounds_path = tmp_path / "run" / "rounds.jsonl"
    lines = rounds_path.read_text().splitlines()
    record = json.loads(lines[3])
    record["profit"] += 1
    lines[3] = json.dumps(record)
    rounds_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IntegrityError, match="round=4"):
        resume(tmp_path / "run")


def test_resume_completes_interrupted_llm_run(tmp_path, stub_server):
    agent = AgentSpec("llm", model_name="test-model")
    plan = small_plan(agent=agent, orders=("high-first",), reps=1, rounds=10)

    def factory_with_budget(budget):
        def factory(spec):
            return ChatClient(stub_server.url, spec.model_name, api_key="k",
                              max_retries=0, backoff_base=0.001, request_budget=budget)
        return factory

    interrupted = run_plan(plan, tmp_path / "run", client_factory=factory_with_budget(7))
    assert not interrupted.complete
    partial = RunStore(tmp_path / "run").records()
    assert len(partial) == 7

    resumed = resume(tmp_path / "run", client_factory=factory_with_budget(None))
    assert resumed.complete
    records = RunStore(tmp_path / "run").records()
    assert len(records) == 20

    # demand draws 8..10 of the resumed block equal a fresh uninterrupted run
    fresh = run_plan(plan, tmp_path / "fresh", client_factory=factory_with_budget(None))
    resumed_demands = {(t.repetition, t.block_index): t.demands for t in resumed.trajectories}
    fresh_demands = {(t.repetition, t.block_index): t.demands for t in fresh.trajectories}
    assert resumed_demands == fresh_demands


def test_transcript_spans_both_blocks(tmp_path, stub_server):
    agent = AgentSpec("llm", model_name="test-model")
    plan = small_plan(agent=agent, orders=("high-first",), reps=1, rounds=3)

    def factory(spec):
        return ChatClient(stub_server.url, spec.model_name, api_key="k",
                          max_retries=0, backoff_base=0.001)

    run_plan(plan, tmp_path / "run", client_factory=factory)
    message_counts = [len(body["messages"]) for body in stub_server.requests]
    # rounds 1..3 of block 1, then block 2 continues the same conversation
    assert message_counts == [1, 3, 5, 7, 9, 11]


def test_transcript_continuity_can_be_disabled(tmp_path, stub_server):
    agent = AgentSpec("llm", model_name="test-model")
    conditions = (PlanCondition("E1-baseline", "uniform", agent, "high-first",
                                repetitions=1, rounds_per_block=3, base_seed=7),)
    plan = ExperimentPlan(conditions, transcript_continuity=False)

    def factory(spec):
        return ChatClient(stub_server.url, spec.model_name, api_key="k",
                          max_retries=0, backoff_base=0.001)

    run_plan(plan, tmp_path / "run", client_factory=factory)
    message_counts = [len(body["messages"]) for body in stub_server.requests]
    assert message_counts == [1, 3, 5, 1, 3, 5]


def test_unresolved_round_marks_trajectory_incomplete_and_excluded(tmp_path, stub_server):
    stub_server.reply_fn = lambda body: "I refuse to give a number."
    agent = AgentSpec("llm", model_name="test-model")
    plan = small_plan(agent=agent, orders=("high-first",), reps=1, rounds=3)

    def factory(spec):
        return ChatClient(stub_server.url, spec.model_name, api_key="k",
                          max_retries=0, backoff_base=0.001)

    outcome = run_plan(plan, tmp_path / "run", client_factory=factory)
    assert not outcome.complete
    assert outcome.failures and outcome.failures[0].kind == "parse"
    assert all(not t.complete for t in outcome.trajectories) or not outcome.trajectories


def test_a_reply_of_a_digit_run_past_the_int_limit_is_a_parse_failure(tmp_path, stub_server):
    stub_server.reply_fn = lambda body: "I keep thinking: " + "9" * 5000
    agent = AgentSpec("llm", model_name="test-model")
    plan = small_plan(agent=agent, orders=("high-first",), reps=1, rounds=2)

    def factory(spec):
        return ChatClient(stub_server.url, spec.model_name, api_key="k", max_retries=0)

    outcome = run_plan(plan, tmp_path / "run", client_factory=factory)
    assert [(f.block_index, f.round_index, f.kind) for f in outcome.failures] == [
        (1, 1, "parse")]
    assert RunStore(tmp_path / "run").records() == []


def test_store_refuses_double_create(tmp_path):
    plan = small_plan(reps=1)
    run_plan(plan, tmp_path / "run")
    with pytest.raises(IntegrityError):
        run_plan(plan, tmp_path / "run")


def test_unreadable_response_is_a_transport_failure(tmp_path, stub_server):
    stub_server.mode = "garbage"
    agent = AgentSpec("llm", model_name="test-model")
    plan = small_plan(agent=agent, orders=("high-first",), reps=1, rounds=3)

    def factory(spec):
        return ChatClient(stub_server.url, spec.model_name, api_key="k",
                          max_retries=2, backoff_base=0.001)

    outcome = run_plan(plan, tmp_path / "run", client_factory=factory)
    assert [(f.block_index, f.round_index, f.kind) for f in outcome.failures] == [
        (1, 1, "transport")]
    assert RunStore(tmp_path / "run").records() == []


RANDOM_ROUNDS = 6


@pytest.fixture(scope="module")
def random_store(tmp_path_factory):
    """A complete store of the random agent: 2 conditions x 2 repetitions x 2 blocks."""
    run_dir = tmp_path_factory.mktemp("random") / "full"
    assert run_plan(small_plan(agent=AgentSpec("random"), reps=2, rounds=RANDOM_ROUNDS),
                    run_dir).complete
    return run_dir


@pytest.mark.parametrize("block_1, block_2",
                         list(itertools.product(range(RANDOM_ROUNDS + 1), repeat=2)))
def test_resume_of_truncated_random_run_matches_uninterrupted_run(tmp_path, random_store,
                                                                  block_1, block_2):
    """Repetition 0 of condition 0 keeps the first ``block_1`` and ``block_2`` rounds of its
    blocks; the rest of the store is whole. The random agent's rule, built for a block's first
    decided round, must order each round's own seeded draw, whatever was stored before it:
    the resume orders what the uninterrupted run ordered, each block's rng drawing one at a
    time from round 1."""
    kept = {1: block_1, 2: block_2}
    cut = tmp_path / "cut"
    shutil.copytree(random_store, cut)
    lines = (cut / "rounds.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    (cut / "rounds.jsonl").write_text("".join(
        line for line, r in zip(lines, map(json.loads, lines))
        if (r["condition_index"], r["repetition"]) != (0, 0)
        or r["round_index"] <= kept[r["block_index"]]), encoding="utf-8")
    assert len(stripped_lines(cut)) == len(lines) - 2 * RANDOM_ROUNDS + block_1 + block_2

    outcome = resume(cut)
    assert outcome.complete
    assert sorted(stripped_lines(cut)) == sorted(stripped_lines(random_store))
    plan = load_plan(RunStore(cut))
    assert [list(t.orders) for t in outcome.trajectories] == [
        seeded_random_orders(plan, t.records[0].identity()) for t in outcome.trajectories]


def seeded_random_orders(plan, identity):
    """The orders of a block of the random agent: its seeded rng's draws, one per round."""
    condition_index, repetition, block_index = identity
    condition = plan.conditions[condition_index]
    demand = condition.scenario_for_margin(condition.margin_for_block(block_index)).demand
    rng = np.random.default_rng(
        derive_seed(condition.base_seed, repetition, block_index, salt="agent"))
    return [int(rng.integers(demand.lower, demand.upper + 1))
            for _ in range(condition.rounds_per_block)]


@pytest.mark.parametrize("lower, upper", [BASE_RANGE, RISK_NEUTRAL_RANGE])
def test_one_sized_draw_leaves_an_agent_rng_where_scalar_draws_do(lower, upper):
    """A block's random orders are one sized draw; a store an earlier nvlab wrote with one
    scalar draw per round resumes to the same orders. The sized draw gives the k scalar
    draws' values and the same next draw, for each range a block can have and k up to 29:
    a numpy that breaks this fails here before such a resume diverges from its store."""
    for k in range(1, 30):
        for base_seed in range(10):
            seed = derive_seed(base_seed, k, 1, salt="agent")
            scalar, sized = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = [int(scalar.integers(lower, upper + 1)) for _ in range(k)]
            assert sized.integers(lower, upper + 1, size=k).tolist() == drawn, (k, seed)
            assert sized.integers(lower, upper + 1) == scalar.integers(lower, upper + 1)


def test_replay_of_a_complete_random_store_builds_no_agent_rng(random_store):
    store = RunStore(random_store)
    blocks = replay(load_plan(store), store.records()).values()
    assert [len(b.records) for b in blocks] == [RANDOM_ROUNDS] * 8
    assert all(b.rule is None for b in blocks)


@pytest.mark.parametrize("agent, rules", [
    (OPTIMAL, 4), (AgentSpec("mean-anchor", anchor_weight=0.5), 4), (CHASER, 4),
    (AgentSpec("random"), 8)], ids=["optimal", "mean-anchor", "demand-chaser", "random"])
def test_a_scripted_rule_is_built_once_per_condition_block_and_per_random_block(
        tmp_path, monkeypatch, agent, rules):
    """2 conditions x 2 blocks x 2 repetitions: the repetitions of a condition-block share
    its rule, a random block draws its own orders, and a replay or resume builds none."""
    built = []

    def counted(*args):
        built.append(args)
        return scripted_rule(*args)

    scripted_rule = runner_module.scripted_rule
    monkeypatch.setattr(runner_module, "scripted_rule", counted)
    plan = small_plan(agent, reps=2, rounds=3)
    assert run_plan(plan, tmp_path / "run").complete
    assert len(built) == rules
    built.clear()
    store = RunStore(tmp_path / "run")
    assert [len(b.records) for b in replay(plan, store.records()).values()] == [3] * 8
    assert resume(tmp_path / "run").complete
    assert built == []


@pytest.mark.parametrize("agent, builders", [(CHASER, 4), (AgentSpec("random"), 12)],
                         ids=["demand-chaser", "random"])
def test_the_blocks_of_a_condition_block_share_its_prompts_and_rule_builder(
        monkeypatch, agent, builders):
    """2 conditions x 2 blocks x 3 repetitions: prompts are set up once per condition-block
    and shared by its blocks, and so is its rule builder, but a random block has its own."""
    prompts = []
    scenario_prompts = runner_module.scenario_prompts
    monkeypatch.setattr(runner_module, "scenario_prompts",
                        lambda sc: prompts.append(scenario_prompts(sc)) or prompts[-1])
    blocks = replay(small_plan(agent, reps=3, rounds=2), [])
    assert len(prompts) == 4
    setups = {}
    for (condition, _, block_index), block in blocks.items():
        setups.setdefault((condition, block_index), []).append(block)
    for (condition, block_index), group in setups.items():
        assert len(group) == 3
        assert all(b.prompts is prompts[2 * condition + block_index - 1] for b in group)
        assert len({id(b.build_rule) for b in group}) == builders // 4
    assert len({id(b.build_rule) for b in blocks.values()}) == builders


# --- a torn final line after a crash mid-append -----------------------------

def torn_store(tmp_path, cut=40, agent=CHASER):
    """A 10-round store whose last append stopped ``cut`` bytes short of its newline."""
    plan = small_plan(agent=agent, orders=("high-first",), reps=1, rounds=5)
    run_plan(plan, tmp_path / "full")
    run_plan(plan, tmp_path / "run")
    rounds_path = tmp_path / "run" / "rounds.jsonl"
    data = rounds_path.read_bytes()
    rounds_path.write_bytes(data[:len(data) - 1 - cut])
    return tmp_path / "run", data[data.rindex(b"\n", 0, len(data) - 1) + 1:len(data) - 1 - cut]


@pytest.mark.parametrize("cut", [0, 1, 40])
def test_records_leave_out_an_unterminated_final_line(tmp_path, cut):
    run_dir, _ = torn_store(tmp_path, cut)
    records = RunStore(run_dir).records()
    assert [(r.block_index, r.round_index) for r in records] == [
        (b, r) for b in (1, 2) for r in range(1, 6)][:9]


@pytest.mark.parametrize("line", [b'{"run_id": "run-', b"null", b"5", b"[1, 2]", b'"text"',
                                  b"{}"])
def test_a_malformed_line_before_the_last_stays_fatal(tmp_path, line):
    run_dir, _ = torn_store(tmp_path)
    rounds_path = run_dir / "rounds.jsonl"
    lines = rounds_path.read_bytes().split(b"\n")
    lines[2] = line
    rounds_path.write_bytes(b"\n".join(lines))
    with pytest.raises(IntegrityError, match="line 3"):
        RunStore(run_dir).records()


def test_a_record_without_a_field_names_the_field(tmp_path):
    run_dir, _ = torn_store(tmp_path)
    rounds_path = run_dir / "rounds.jsonl"
    lines = rounds_path.read_bytes().split(b"\n")
    record = json.loads(lines[2])
    del record["demand"]
    lines[2] = json.dumps(record).encode()
    rounds_path.write_bytes(b"\n".join(lines))
    with pytest.raises(IntegrityError, match=r"line 3: missing fields \['demand'\]"):
        RunStore(run_dir).records()


def test_resume_sets_a_torn_final_line_aside_and_completes_the_run(tmp_path):
    run_dir, torn = torn_store(tmp_path)
    assert resume(run_dir).complete
    assert stripped_lines(run_dir) == stripped_lines(tmp_path / "full")
    assert (run_dir / "rounds.jsonl.torn").read_bytes() == torn + b"\n"


def test_replay_and_report_leave_a_torn_store_as_it_is(tmp_path):
    run_dir, _ = torn_store(tmp_path)
    before = (run_dir / "rounds.jsonl").read_bytes()
    store = RunStore(run_dir)
    assert sum(len(b.records) for b in replay(load_plan(store), store.records()).values()) == 9
    build_report([run_dir], tmp_path / "report")
    assert (run_dir / "rounds.jsonl").read_bytes() == before
    assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json", "rounds.jsonl"]


def test_resume_of_a_corrupt_torn_store_writes_nothing(tmp_path):
    run_dir, _ = torn_store(tmp_path)
    rounds_path = run_dir / "rounds.jsonl"
    lines = rounds_path.read_bytes().split(b"\n")
    record = json.loads(lines[1])
    record["prompt_sha256"] = "0" * 64
    lines[1] = json.dumps(record).encode()
    rounds_path.write_bytes(b"\n".join(lines))
    before = rounds_path.read_bytes()
    with pytest.raises(IntegrityError, match="round=2"):
        resume(run_dir)
    assert rounds_path.read_bytes() == before
    assert not (run_dir / "rounds.jsonl.torn").exists()


def test_manifest_is_never_left_half_written(tmp_path, monkeypatch):
    plan = small_plan(reps=1)
    run_plan(plan, tmp_path / "run")
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "manifest.json", "rounds.jsonl"]

    def crash(self, target):
        raise OSError("crashed before the rename")

    monkeypatch.setattr(type(tmp_path), "replace", crash)
    with pytest.raises(OSError):
        run_plan(plan, tmp_path / "crashed")
    assert not RunStore(tmp_path / "crashed").exists()


def test_resume_refuses_a_corrupt_store_before_deciding_anything(tmp_path):
    run_plan(small_plan(orders=("high-first",), reps=2, rounds=5), tmp_path / "run")
    rounds_path = tmp_path / "run" / "rounds.jsonl"
    records = [json.loads(line) for line in rounds_path.read_text(encoding="utf-8").splitlines()]
    key = [(r["repetition"], r["block_index"], r["round_index"]) for r in records]
    records[key.index((1, 1, 2))]["prompt_sha256"] = "0" * 64
    del records[key.index((0, 2, 5))]  # rep 0 is left with a round to decide
    rounds_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    with pytest.raises(IntegrityError, match=r"rep=1, block=1, round=2\b"):
        resume(tmp_path / "run")
    assert len(rounds_path.read_text(encoding="utf-8").splitlines()) == 19


# --- LLM repetitions on a worker pool ----------------------------------------

LLM_AGENT = AgentSpec("llm", model_name="test-model")


def order_from_prompt(body):
    """A reply that depends on the round prompt only, not on the transcript."""
    prompt = body["messages"][-1]["content"]
    return f"I will order {60 + int(sha256_text(prompt)[:8], 16) % 181} wodgets."


def stub_factory(server, budget=None):
    def factory(spec):
        return ChatClient(server.url, spec.model_name, api_key="k", max_retries=0,
                          backoff_base=0.001, request_budget=budget)
    return factory


def test_a_rejected_request_fails_its_round_with_the_reason_the_endpoint_gave(
        tmp_path, stub_server):
    """A 400 is not retried; the round fails as rejected, keeping the first 300 bytes of the
    body that says why."""
    stub_server.mode = "too-long"
    plan = small_plan(agent=LLM_AGENT, orders=("high-first",), reps=1, rounds=5)
    outcome = run_plan(plan, tmp_path / "run", client_factory=stub_factory(stub_server))
    (failure,) = outcome.failures
    assert (failure.block_index, failure.kind) == (1, "rejected")
    assert 1 < failure.round_index == len(RunStore(tmp_path / "run").records()) + 1
    assert "maximum context length exceeded" in failure.message
    assert failure.message == f"HTTP 400 from {stub_server.url}: {TOO_LONG_BODY[:300].decode()}"


def test_concurrent_llm_run_matches_a_serial_run(tmp_path, stub_server):
    stub_server.reply_fn = order_from_prompt
    plan = small_plan(agent=LLM_AGENT, reps=3, rounds=4)
    for name, workers in (("serial", 1), ("pool", 4)):
        outcome = run_plan(plan, tmp_path / name, client_factory=stub_factory(stub_server),
                           workers=workers)
        assert outcome.complete
        build_report([tmp_path / name], tmp_path / f"{name}-report")
    assert sorted(stripped_lines(tmp_path / "pool")) == sorted(stripped_lines(tmp_path / "serial"))
    serial_report = {p.name: p.read_bytes() for p in (tmp_path / "serial-report").iterdir()}
    pool_report = {p.name: p.read_bytes() for p in (tmp_path / "pool-report").iterdir()}
    assert pool_report == serial_report


def test_budget_exhausted_under_a_pool_stops_the_run_and_resume_completes_it(
        tmp_path, stub_server):
    stub_server.reply_fn = order_from_prompt
    plan = small_plan(agent=LLM_AGENT, orders=("high-first",), reps=4, rounds=5)
    interrupted = run_plan(plan, tmp_path / "run", client_factory=stub_factory(stub_server, 25),
                           workers=4)
    records = RunStore(tmp_path / "run").records()
    assert len(records) == 25
    # every repetition left unfinished stops at its first unpaid round
    stored = {rep: sum(r.repetition == rep for r in records) for rep in range(4)}
    assert [f.repetition for f in interrupted.failures] == [
        rep for rep, count in stored.items() if count < 10]
    assert [(f.block_index, f.round_index) for f in interrupted.failures] == [
        (stored[f.repetition] // 5 + 1, stored[f.repetition] % 5 + 1)
        for f in interrupted.failures]
    assert {f.kind for f in interrupted.failures} == {"transport"}

    assert resume(tmp_path / "run", client_factory=stub_factory(stub_server), workers=4).complete
    run_plan(plan, tmp_path / "fresh", client_factory=stub_factory(stub_server), workers=1)
    assert sorted(stripped_lines(tmp_path / "run")) == sorted(stripped_lines(tmp_path / "fresh"))


class FailingClient:
    """Answers after ``delay`` seconds; call number ``fail_at`` raises instead, or
    with ``interrupt`` sends the process SIGINT and answers."""

    def __init__(self, fail_at, interrupt=False, delay=0.02):
        self.fail_at = fail_at
        self.interrupt = interrupt
        self.delay = delay
        self.calls = 0
        self.answered = 0
        self.answered_before_failure = None
        self.lock = threading.Lock()

    def chat(self, messages):
        with self.lock:
            self.calls += 1
            if self.calls == self.fail_at:
                if self.interrupt:
                    os.kill(os.getpid(), signal.SIGINT)
                else:
                    self.answered_before_failure = self.answered
                    raise RuntimeError("endpoint client bug")
        time.sleep(self.delay)
        with self.lock:
            self.answered += 1
        return ChatResult("I will order 150 wodgets.", None, 0)


def test_exception_in_one_unit_stops_the_pool_and_propagates(tmp_path):
    workers = 4
    client = FailingClient(fail_at=10)
    plan = small_plan(agent=LLM_AGENT, reps=6, rounds=5)
    threads_before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="endpoint client bug"):
        run_plan(plan, tmp_path / "run", client_factory=lambda spec: client, workers=workers)
    stored = len(RunStore(tmp_path / "run").records())
    assert stored == client.answered
    # only the rounds already in flight were finished and stored
    assert stored - client.answered_before_failure <= workers - 1
    assert client.calls == client.answered + 1
    assert set(threading.enumerate()) <= threads_before


def test_interrupt_in_the_caller_stops_the_pool_and_propagates(tmp_path):
    workers = 4
    client = FailingClient(fail_at=10, interrupt=True)
    plan = small_plan(agent=LLM_AGENT, reps=6, rounds=5)

    def interrupted(signum, frame):
        # counted when the caller sees the interrupt, not when it was sent
        client.answered_before_failure = client.answered
        raise KeyboardInterrupt

    threads_before = set(threading.enumerate())
    previous = signal.signal(signal.SIGINT, interrupted)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_plan(plan, tmp_path / "run", client_factory=lambda spec: client,
                     workers=workers)
    finally:
        signal.signal(signal.SIGINT, previous)
    stored = len(RunStore(tmp_path / "run").records())
    assert stored == client.answered == client.calls
    # only the rounds in flight, the interrupting one among them, were stored
    assert stored - client.answered_before_failure <= workers
    assert set(threading.enumerate()) <= threads_before


class InstantClient:
    """Answers every request at once with an order derived from the round prompt."""

    def chat(self, messages):
        return ChatResult(order_from_prompt({"messages": messages}), None, 0)


def test_pool_wider_than_the_cores_loses_no_round_or_progress_line(tmp_path):
    plan = small_plan(agent=LLM_AGENT, reps=8, rounds=6)
    run_plan(plan, tmp_path / "serial", client_factory=lambda spec: InstantClient(), workers=1)
    blocks_seen = [0]

    def progress(message):
        seen = blocks_seen[0]  # a read-modify-write that interleaved calls would tear
        time.sleep(0)
        blocks_seen[0] = seen + 1

    outcome = []
    runner = threading.Thread(target=lambda: outcome.append(run_plan(
        plan, tmp_path / "pool", client_factory=lambda spec: InstantClient(),
        progress=progress, workers=16)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert outcome[0].complete
    assert blocks_seen[0] == 2 * 2 * 8
    assert sorted(stripped_lines(tmp_path / "pool")) == sorted(stripped_lines(tmp_path / "serial"))


# --- the outcome is what the store holds ---------------------------------------

def assert_outcome_matches_the_store(outcome):
    """The in-memory trajectories equal a fresh read of the store, record for record."""
    store = RunStore(outcome.store.run_dir)
    blocks = replay(load_plan(store), store.records()).values()
    assert outcome.trajectories == [Trajectory(b.scenario, b.records) for b in blocks if b.records]


def test_outcome_of_a_fresh_scripted_run_matches_the_store(tmp_path):
    outcome = run_plan(small_plan(agent=AgentSpec("random"), reps=2, rounds=6), tmp_path / "run")
    assert outcome.complete and len(outcome.trajectories) == 8
    assert_outcome_matches_the_store(outcome)


def test_outcome_of_an_llm_run_with_unresolved_rounds_matches_the_store(tmp_path, stub_server):
    stub_server.reply_fn = order_from_prompt
    plan = small_plan(agent=LLM_AGENT, orders=("high-first",), reps=3, rounds=4)
    outcome = run_plan(plan, tmp_path / "run", client_factory=stub_factory(stub_server, 9),
                       workers=2)
    assert outcome.failures and not outcome.complete
    assert_outcome_matches_the_store(outcome)
    stub_server.mode = "garbage"
    outcome = resume(tmp_path / "run", client_factory=stub_factory(stub_server), workers=2)
    assert {f.kind for f in outcome.failures} == {"transport"}
    assert sum(len(t.records) for t in outcome.trajectories) == 9
    assert_outcome_matches_the_store(outcome)


def test_outcome_of_a_resumed_torn_store_matches_the_store(tmp_path):
    run_dir, _ = torn_store(tmp_path)
    outcome = resume(run_dir)
    assert outcome.complete
    assert_outcome_matches_the_store(outcome)


SCRIPTED_AGENTS = {
    "optimal": OPTIMAL, "mean-anchor": AgentSpec("mean-anchor", anchor_weight=0.3),
    "random": AgentSpec("random"), "demand-chaser": CHASER,
    "demand-chaser-switch": AgentSpec("demand-chaser", chase_rate=0.5, switch_round=4,
                                      chase_rate_before=0.25),
}


def assert_lines_are_the_outcomes_records(outcome):
    """Each stored line, timestamps included, is `to_line` of the outcome's record in its
    place (a scripted run writes its blocks in identity order), and reads back to itself."""
    lines = outcome.store.rounds_path.read_text(encoding="utf-8").splitlines()
    records = [record for t in outcome.trajectories for record in t.records]
    assert lines == [record.to_line() for record in records]
    for lineno, line in enumerate(lines, 1):
        assert RoundRecord.from_line(line, lineno).to_line() == line
        assert json.dumps(json.loads(line), separators=(",", ":")) == line


@pytest.mark.parametrize("agent", SCRIPTED_AGENTS.values(), ids=SCRIPTED_AGENTS)
def test_a_scripted_block_writes_each_line_as_its_record_encodes(tmp_path, agent):
    outcome = run_plan(every_scenario_plan(agent, rounds=6), tmp_path / "run")
    assert outcome.complete and len(outcome.trajectories) == len(EVERY_SCENARIO) * 2 * 2
    assert_lines_are_the_outcomes_records(outcome)


@pytest.mark.parametrize("agent", SCRIPTED_AGENTS.values(), ids=SCRIPTED_AGENTS)
def test_a_resume_of_a_store_cut_mid_block_writes_each_line_as_its_record_encodes(
        tmp_path, agent):
    plan = small_plan(agent=agent, reps=2, rounds=6)
    run_plan(plan, tmp_path / "full")
    run_plan(plan, tmp_path / "run")
    rounds_path = tmp_path / "run" / "rounds.jsonl"
    lines = rounds_path.read_text(encoding="utf-8").splitlines(keepends=True)
    rounds_path.write_text("".join(lines[:6 * 5 + 4]), encoding="utf-8")  # block 6, round 4
    outcome = resume(tmp_path / "run")
    assert outcome.complete
    assert_lines_are_the_outcomes_records(outcome)
    assert stripped_lines(tmp_path / "run") == stripped_lines(tmp_path / "full")


def assert_decided_records_are_their_lines_records(outcome):
    """Each record the run holds is a whole `RoundRecord`, its line's record, exact types
    included, and a fresh read of the store gives the same records."""
    records = [record for t in outcome.trajectories for record in t.records]
    assert records
    for record in records:
        assert type(record) is RoundRecord and len(record) == 21
        read = RoundRecord.from_line(record.to_line(), 1)
        assert record == read and tuple(map(type, record)) == tuple(map(type, read))
    assert_outcome_matches_the_store(outcome)


@pytest.mark.parametrize("agent", SCRIPTED_AGENTS.values(), ids=SCRIPTED_AGENTS)
def test_a_decided_scripted_record_is_its_lines_record(tmp_path, agent):
    plan = small_plan(agent=agent, reps=2, rounds=4)
    outcome = run_plan(plan, tmp_path / "run")
    assert outcome.complete
    assert_decided_records_are_their_lines_records(outcome)
    first = outcome.trajectories[0]  # condition 0, repetition 0, block 1
    rule = agents.scripted_rule(agent, first.scenario, derive_seed(7, 0, 1, salt="agent"))
    last = ()  # the previous round's order and demand
    for record in first.records:
        decision = agents.decide(agent, None, first.scenario, record.round_index, *last,
                                 rule=rule)
        assert type(decision) is agents.Decision
        assert decision == (record.order, record.raw_response, record.parse_confidence,
                            record.retries, record.token_usage)
        last = record.order, record.demand


def test_a_decided_llm_record_is_its_lines_record(tmp_path, stub_server):
    """Every round of an LLM run, each retried once after a 429, stores a token usage
    object, and about half of them take the fallback parse."""
    stub_server.mode = "flaky"
    stub_server.reply_fn = lambda body: (
        "I will order 150 wodgets." if int(sha256_text(body["messages"][-1]["content"])[:8], 16)
        % 2 else "Somewhere near 120 seems fine.")

    def factory(spec):
        return ChatClient(stub_server.url, spec.model_name, api_key="k", max_retries=1,
                          backoff_base=0.001)

    plan = small_plan(agent=LLM_AGENT, orders=("high-first",), reps=2, rounds=4)
    outcome = run_plan(plan, tmp_path / "run", client_factory=factory, workers=1)
    assert outcome.complete
    assert_decided_records_are_their_lines_records(outcome)
    records = [record for t in outcome.trajectories for record in t.records]
    assert {r.parse_confidence for r in records} == {"exact", "fallback"}
    assert all(r.retries == 1 and r.token_usage == {"prompt_tokens": 42, "completion_tokens": 17,
                                                    "total_tokens": 59} for r in records)
    decision = agents.decide(LLM_AGENT, "How many wodgets?", outcome.trajectories[0].scenario,
                             client=factory(LLM_AGENT))
    assert type(decision) is agents.Decision and decision.retries == 1


def test_a_rule_whose_order_is_not_an_int_stores_nothing_of_its_round(tmp_path, monkeypatch):
    """A float order is refused by `decide`, before its round's line is spelled or stored:
    the store keeps the blocks before it and reads, and a resume with the real rule
    finishes it as an uninterrupted run."""
    plan = small_plan(reps=1, rounds=4)
    run_plan(plan, tmp_path / "full")
    real_rule = runner_module.scripted_rule

    def float_in_block_2(agent, sc, *seed):
        rule = real_rule(agent, sc, *seed)
        return lambda t, *last: (float(rule(t, *last)[0]), "a float order") if (
            sc.margin == "low" and t == 3) else rule(t, *last)

    monkeypatch.setattr(runner_module, "scripted_rule", float_in_block_2)
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        run_plan(plan, tmp_path / "run")
    monkeypatch.undo()
    assert [r.order for r in RunStore(tmp_path / "run").records()] == [225] * 4 + [75] * 2
    assert resume(tmp_path / "run").complete
    assert stripped_lines(tmp_path / "run") == stripped_lines(tmp_path / "full")


def test_each_append_is_on_disk_before_it_returns(tmp_path):
    run_plan(small_plan(reps=1, rounds=2), tmp_path / "run")
    records = RunStore(tmp_path / "run").records()
    with RunStore(tmp_path / "copy") as store:
        store.create(RunStore(tmp_path / "run").manifest())
        for count, record in enumerate(records, start=1):
            store.append(record.to_line())
            assert RunStore(tmp_path / "copy").records() == records[:count]


def lines_on_disk(run_dir):
    return (run_dir / "rounds.jsonl").read_bytes().count(b"\n")


def test_each_llm_round_is_on_disk_before_the_next_chat_request(tmp_path, stub_server):
    on_disk = []

    def reply(body):
        on_disk.append(lines_on_disk(tmp_path / "run"))
        return order_from_prompt(body)

    stub_server.reply_fn = reply
    outcome = run_plan(small_plan(agent=LLM_AGENT, reps=2, rounds=3), tmp_path / "run",
                       client_factory=stub_factory(stub_server), workers=1)
    assert outcome.complete
    # one request per round, one worker: request k finds the k rounds decided before it
    assert on_disk == list(range(2 * 2 * 2 * 3))


def test_each_scripted_block_is_on_disk_before_the_next_block_starts(tmp_path):
    on_disk = []
    outcome = run_plan(small_plan(reps=2, rounds=4), tmp_path / "run",
                       progress=lambda message: on_disk.append(lines_on_disk(tmp_path / "run")))
    assert outcome.complete
    assert on_disk == [4 * block for block in range(2 * 2 * 2)]
    assert lines_on_disk(tmp_path / "run") == 4 * 2 * 2 * 2


def test_a_run_that_raises_mid_block_leaves_the_rounds_it_decided_on_disk(tmp_path, monkeypatch):
    calls = itertools.count(1)

    def decide_until_the_sixth_round(*args, **kwargs):
        if next(calls) == 6:  # round 2 of the second block
            raise RuntimeError("stopped mid-block")
        return agents.decide(*args, **kwargs)

    monkeypatch.setattr(runner_module, "decide", decide_until_the_sixth_round)
    with pytest.raises(RuntimeError, match="stopped mid-block"):
        run_plan(small_plan(reps=1, rounds=4), tmp_path / "run")
    assert lines_on_disk(tmp_path / "run") == 5
    assert len(RunStore(tmp_path / "run").records()) == 5


def drop_lines(run_dir, dropped):
    """Rewrite rounds.jsonl without the records for which ``dropped`` is true."""
    rounds_path = run_dir / "rounds.jsonl"
    kept = [line for line in rounds_path.read_text(encoding="utf-8").splitlines(keepends=True)
            if not dropped(json.loads(line))]
    rounds_path.write_text("".join(kept), encoding="utf-8")


@pytest.mark.parametrize("dropped", [
    lambda r: r["round_index"] == 4,  # every block's final round
    lambda r: r["repetition"] == 1 or (r["order_condition"], r["block_index"]) == ("low-first", 2),
], ids=["final-rounds", "whole-blocks"])
def test_outcome_of_a_resumed_store_matches_the_store(tmp_path, dropped):
    plan = small_plan(agent=AgentSpec("random"), reps=2, rounds=4)
    run_plan(plan, tmp_path / "full")
    run_plan(plan, tmp_path / "run")
    drop_lines(tmp_path / "run", dropped)
    outcome = resume(tmp_path / "run")
    assert outcome.complete
    assert_outcome_matches_the_store(outcome)
    assert sorted(stripped_lines(tmp_path / "run")) == sorted(stripped_lines(tmp_path / "full"))


@pytest.mark.parametrize("kept, continuation, refusal", [
    (4, lambda rounds: [rounds[3]], r"round=4\): expected round 5,"),
    (3, lambda rounds: [rounds[4]], r"round=5\): expected round 4,"),
    (4, lambda rounds: [rounds[4]._replace(cumulative_profit=rounds[4].cumulative_profit + 1)],
     r"round=5\): stored cumulative profit .* != running sum"),
    (4, lambda rounds: [rounds[1]], r"round=2\): expected round 3,"),
], ids=["repeats-the-last-stored-round", "skips-a-round", "cumulative-profit-off-by-1",
        "goes-back-to-an-earlier-round"])
def test_a_continuation_is_refused_as_a_fresh_read_of_the_store_refuses_it(
        tmp_path, kept, continuation, refusal):
    plan = small_plan(agent=CHASER, orders=("high-first",), reps=1, rounds=5)
    run_plan(plan, tmp_path / "run")
    records = RunStore(tmp_path / "run").records()
    block_1 = [r for r in records if r.block_index == 1]
    stored = block_1[:kept] + [r for r in records if r.block_index == 2]
    appended = continuation(block_1)
    with pytest.raises(IntegrityError, match=refusal):
        replay(plan, stored + appended)

    def read(rounds):
        return {identity: block.records for identity, block in replay(plan, rounds).items()}

    # the stored rounds' own continuation is accepted, wherever its lines stand
    assert read(stored + block_1[kept:]) == read(records)
