"""Correctness checks on the outputs of each workload.

Every check reads the files the program wrote (``rounds.jsonl`` and report
CSVs) and recomputes what it needs from the paper's constants, so a defect
in nvlab's own metrics code cannot hide itself. Each check returns a list
of problems; an empty list means the output is correct.

The workloads call the checks through `isolated`, in a child process, so
that the memory a check uses never counts toward the peak memory of the
process being measured.
"""

from __future__ import annotations

import csv
import hashlib
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import stub

TIMESTAMP_FIELDS = ("ts_start", "ts_end")
PRICE = 12
UNIT_COST = {"high": 3, "low": 9}
RISK_NEUTRAL = "E3-risk-neutral"
# critical-fractile optima of the paper's scenarios: (risk-neutral range?, dist, margin)
OPTIMA = {
    (False, "uniform", "high"): 225, (False, "uniform", "low"): 75,
    (False, "truncated-normal", "high"): 184, (False, "truncated-normal", "low"): 117,
    (True, "uniform", "high"): 1125, (True, "uniform", "low"): 975,
    (True, "truncated-normal", "high"): 1084, (True, "truncated-normal", "low"): 1017,
}
ANCHOR_WEIGHT = 0.5  # w of the scripted mean-anchor agent the workloads run
MAS_TOLERANCE = 0.02  # integer rounding of the mean-anchor order, as in the acceptance tests
BUNDLE_FILES = (
    "bias_table.csv", "mas_table.csv", "risk_neutral_table.csv", "learning_table.csv",
    "quartile_table.csv", "round_trajectories.csv", "adjustment_shares_by_round.csv",
    "word_frequencies.csv", "report.md",
)


def read_rows(run_dir) -> list[dict]:
    path = Path(run_dir) / "rounds.jsonl"
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def stripped_lines(run_dir) -> list[str]:
    """Record lines without timestamps, sorted, in canonical JSON."""
    out = []
    for row in read_rows(run_dir):
        for key in TIMESTAMP_FIELDS:
            row.pop(key, None)
        out.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
    return sorted(out)


def stripped_digest(run_dir) -> str:
    return hashlib.sha256("\n".join(stripped_lines(run_dir)).encode("utf-8")).hexdigest()


def _optimum(row) -> int:
    return OPTIMA[(row["experiment"] == RISK_NEUTRAL, row["dist"], row["margin"])]


def _anchor(row) -> float:
    return 1050.5 if row["experiment"] == RISK_NEUTRAL else 150.5


def trajectories(rows, rounds: int) -> tuple[dict, list[str]]:
    """Rows grouped per trajectory in round order, with accounting problems."""
    groups = defaultdict(list)
    for row in rows:
        key = (row["condition_index"], row["order_condition"], row["repetition"],
               row["block_index"])
        groups[key].append(row)
    problems = []
    for key, group in groups.items():
        group.sort(key=lambda r: r["round_index"])
        if [r["round_index"] for r in group] != list(range(1, rounds + 1)):
            problems.append(f"trajectory {key}: rounds are not 1..{rounds}")
        cumulative = 0
        for r in group:
            expected = PRICE * min(r["order"], r["demand"]) - UNIT_COST[r["margin"]] * r["order"]
            cumulative += expected
            if r["profit"] != expected or r["cumulative_profit"] != cumulative:
                problems.append(f"trajectory {key} round {r['round_index']}: profit accounting")
    return groups, problems


def check_sim_store(kind: str, run_dir, trajectories_expected: int, rounds: int) -> list[str]:
    """One scripted agent's store: complete, accounted, and its oracle recovered.

    optimal: every order is the optimum, so the bias is exactly 0.
    mean-anchor: per scenario, (mean order - anchor) / (optimum - anchor) is w.
    demand-chaser: no move away from the previous demand.
    """
    groups, problems = trajectories(read_rows(run_dir), rounds)
    if len(groups) != trajectories_expected:
        problems.append(f"{kind}: {len(groups)} trajectories, expected {trajectories_expected}")
    if kind == "optimal":
        wrong = sum(r["order"] != _optimum(r) for g in groups.values() for r in g)
        if wrong:
            problems.append(f"optimal: {wrong} orders differ from the optimum")
    elif kind == "mean-anchor":
        by_scenario = defaultdict(list)
        for group in groups.values():
            by_scenario[(group[0]["experiment"], group[0]["dist"], group[0]["margin"])] += group
        for key, scenario_rows in sorted(by_scenario.items()):
            mean = sum(r["order"] for r in scenario_rows) / len(scenario_rows)
            score = (mean - _anchor(scenario_rows[0])) / (
                _optimum(scenario_rows[0]) - _anchor(scenario_rows[0]))
            if abs(score - ANCHOR_WEIGHT) > MAS_TOLERANCE:
                problems.append(f"mean-anchor {key}: adjustment score {score:.4f} != w")
    elif kind == "demand-chaser":
        away = toward = 0
        for group in groups.values():
            for prev, cur in zip(group, group[1:]):
                move = (cur["order"] - prev["order"]) * (prev["demand"] - prev["order"])
                away += move < 0
                toward += move > 0
        if away or not toward:
            problems.append(f"demand-chaser: {away} away moves, {toward} toward moves")
    return problems


def bundle_digest(out_dir) -> str:
    digest = hashlib.sha256()
    for name in sorted(p.name for p in Path(out_dir).iterdir()):
        digest.update(name.encode("utf-8") + b"\0")
        digest.update((Path(out_dir) / name).read_bytes())
    return digest.hexdigest()


def _csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_bundle(out_dir) -> list[str]:
    """A report over the four scripted stores: all files, and the oracles in the tables."""
    out_dir = Path(out_dir)
    problems = [f"missing {name}" for name in BUNDLE_FILES if not (out_dir / name).is_file()]
    if problems:
        return problems
    bias = [r for r in _csv(out_dir / "bias_table.csv") if r["agent"] == "optimal"]
    if not bias:
        problems.append("bias_table.csv: no optimal-agent rows")
    for row in bias:
        if row["deviation_high"] != "0.00" or row["deviation_low"] != "0.00":
            problems.append(f"bias_table.csv: optimal agent biased in {row['experiment']}, "
                            f"{row['distribution']}")
    mas = [r for r in _csv(out_dir / "mas_table.csv") if r["agent"].startswith("mean-anchor")]
    if not mas:
        problems.append("mas_table.csv: no mean-anchor rows")
    for row in mas:
        for cell in (row["mas_high"], row["mas_low"]):
            if abs(float(cell) - ANCHOR_WEIGHT) > MAS_TOLERANCE:
                problems.append(f"mas_table.csv: score {cell} != w in {row['experiment']}, "
                                f"{row['distribution']}, {row['order_condition']}")
    return problems


def check_llm_store(run_dir, trajectories_expected: int, rounds: int, seed: int,
                    first_position: int, stats_delta: dict) -> list[str]:
    """An LLM run against the stub: every order is the stated one, every trajectory
    complete, and the requests the stub saw match its fault schedule.

    ``first_position`` is the stub's round-request counter when the run
    started and ``stats_delta`` the change in the stub's counters over it.
    """
    rows = read_rows(run_dir)
    groups, problems = trajectories(rows, rounds)
    if len(groups) != trajectories_expected:
        problems.append(f"{len(groups)} trajectories, expected {trajectories_expected}")
    wrong = sum(r["order"] != stub.stated_order(r["prompt_sha256"]) for r in rows)
    if wrong:
        problems.append(f"{wrong} stored orders differ from the order the stub stated")
    kinds = [stub.fault_kind(seed, first_position + i) for i in range(len(rows))]
    expected = {kind: kinds.count(kind) for kind in stub.PERIOD_KINDS}
    observed = {
        stub.RATE_LIMIT: sum(r["retries"] for r in rows),
        stub.FALLBACK: sum(r["parse_confidence"] == "fallback" for r in rows),
        stub.NUDGE: sum((r["token_usage"] or {}).get("total_tokens")
                        == 2 * stub.USAGE["total_tokens"] for r in rows),
    }
    for kind, count in observed.items():
        if count != expected[kind] or stats_delta.get(kind, 0) != expected[kind]:
            problems.append(f"{kind}: schedule {expected[kind]}, store {count}, "
                            f"stub {stats_delta.get(kind, 0)}")
    want_requests = len(rows) + expected[stub.RATE_LIMIT] + expected[stub.NUDGE]
    if stats_delta.get("requests", 0) != want_requests:
        problems.append(f"stub received {stats_delta.get('requests', 0)} requests, "
                        f"schedule gives {want_requests}")
    return problems


def isolated(calls: list[tuple[str, dict]]) -> list:
    """Results of ``(function name, keyword arguments)`` calls made in a child process."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())],
                          input=json.dumps(calls), capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(proc.stdout)


if __name__ == "__main__":
    print(json.dumps([globals()[name](**kwargs) for name, kwargs in json.load(sys.stdin)]))
