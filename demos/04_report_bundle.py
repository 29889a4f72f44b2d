"""End-to-end offline pipeline: simulate a grid, then build the report bundle.

Equivalent CLI session:

    nvlab simulate --agent optimal --agent mean-anchor --agent demand-chaser \
        --reps 3 --seed 7 --out runs/
    nvlab report runs/run-* --out report/ --compare-humans

Run:  python demos/04_report_bundle.py
"""

import tempfile
from pathlib import Path

from nvlab import AgentSpec, RunConfig, build_plan, build_report, run_plan

# the stores and the report live in a temporary directory removed at the end
with tempfile.TemporaryDirectory(prefix="nvlab-demo-") as tmp:
    workdir = Path(tmp)
    config = RunConfig(experiments=("E1", "E3"), distributions=("uniform", "normal"),
                       repetitions=3, base_seed=7)

    agents = [
        AgentSpec("optimal"),
        AgentSpec("mean-anchor", anchor_weight=0.4),
        AgentSpec("demand-chaser", chase_rate=1.0),
    ]

    run_dirs = []
    for agent in agents:
        plan = build_plan(config, [agent])
        run_dir = workdir / "runs" / plan.run_id()
        outcome = run_plan(plan, run_dir)
        rounds = sum(len(t.records) for t in outcome.trajectories)
        print(f"simulated {agent.label}: {rounds} rounds -> {run_dir}")
        run_dirs.append(run_dir)

    files = build_report(run_dirs, workdir / "report", compare_humans=True)
    print()
    print("report bundle:")
    for name in sorted(files):
        print("  ", files[name])

    print()
    print("ordering-bias table (first lines):")
    for line in (workdir / "report" / "bias_table.csv").read_text().splitlines()[:8]:
        print("  ", line)

    print()
    print("adjustment-score table (first lines):")
    for line in (workdir / "report" / "mas_table.csv").read_text().splitlines()[:6]:
        print("  ", line)
