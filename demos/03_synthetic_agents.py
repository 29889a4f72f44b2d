"""Scripted agents with known ground truth, and the metrics that recover it.

The mean-anchor agent orders A + w * (q* - A); the measured adjustment score
must come back as w. The demand-chaser always moves toward the last demand;
the direction classifier must call 100% of those moves "toward". This is the
validation path for the whole metrics pipeline, no network involved.

Run:  python demos/03_synthetic_agents.py
"""

import tempfile
from pathlib import Path

from nvlab import AgentSpec, ExperimentPlan, PlanCondition, run_plan
from nvlab.metrics import (
    DIRECTIONS,
    anchor_stats,
    bias_stats,
    classify_adjustments,
    learning_stats,
    profit_efficiency,
)


def run_agent(workdir, agent, reps=3, seed=11):
    plan = ExperimentPlan(tuple(
        PlanCondition("E1-baseline", "uniform", agent, order, repetitions=reps, base_seed=seed)
        for order in ("high-first", "low-first")
    ))
    return run_plan(plan, workdir / agent.label.replace("/", "_"))


def pool(trajectories, margin):
    return [t for t in trajectories if t.scenario.margin == margin]


# the run stores live in a temporary directory removed at the end
with tempfile.TemporaryDirectory(prefix="nvlab-demo-") as tmp:
    workdir = Path(tmp)

    # --- the optimal agent is the all-zeros baseline --------------------------
    outcome = run_agent(workdir, AgentSpec("optimal"))
    high = pool(outcome.trajectories, "high")
    print("optimal agent, high-margin blocks:")
    stats = bias_stats(high)
    print("  order bias:", stats.order_bias)
    print("  profit efficiency:", profit_efficiency(stats.mean_order, high[0].scenario), "%")
    codes = classify_adjustments(high)[3]  # code % 3 is the direction's place in DIRECTIONS
    print("  adjustment shares:", {direction: float((codes % 3 == place).mean() * 100)
                                   for place, direction in enumerate(DIRECTIONS)})
    print()

    # --- the mean-anchor agent's w is recovered as the adjustment score -------
    print("mean-anchor agents: measured adjustment score vs configured w")
    for w in (0.0, 0.25, 0.5, 0.75, 1.0):
        outcome = run_agent(workdir, AgentSpec("mean-anchor", anchor_weight=w))
        measured_high = anchor_stats(pool(outcome.trajectories, "high"))
        measured_low = anchor_stats(pool(outcome.trajectories, "low"))
        print(f"  w={w:<5} recovered high={measured_high:+.3f} low={measured_low:+.3f}")
    print()

    # --- the demand-chaser is pure demand-chasing -----------------------------
    outcome = run_agent(workdir, AgentSpec("demand-chaser", chase_rate=1.0))
    _, _, errors, codes = classify_adjustments(outcome.trajectories)
    toward = (codes[errors != 0] == 1).mean() * 100
    print(f"demand-chaser (alpha=1): {toward:.1f}% of nonzero-error rounds move toward demand")
    print()

    # --- a chase-rate switch shows up as a jump in error responsiveness -------
    outcome = run_agent(workdir, AgentSpec("demand-chaser", chase_rate=1.0, switch_round=8))
    stats = learning_stats(outcome.trajectories)[0]  # one per trajectory, in order
    print("chase switch at round 8, one trajectory:")
    print(f"  early-stage R^2 = {stats.early_r2:.2f}, late-stage R^2 = {stats.late_r2:.2f}, "
          f"delta = {stats.delta_r2:+.2f}")
