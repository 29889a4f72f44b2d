"""Render the experiment prompts and check them against the golden files.

Run:  python demos/02_prompt_rendering.py
"""

from nvlab import render_prompt, scenario, validate_golden

# Round 1: context and instructions only, no feedback, no formula.
print("=" * 72)
print("ROUND 1 PROMPT (baseline, high margin, uniform demand)")
print("=" * 72)
print(render_prompt(scenario("E1-baseline", "high", "uniform")))

# From round 2 on, the previous round's order, demand, profit and cumulative
# profit (exact ints) are embedded in the prompt. With the formula variant,
# the critical-fractile guidance block is appended too.
print("=" * 72)
print("ROUND 5 PROMPT (formula variant, low margin, normal demand)")
print("=" * 72)
print(render_prompt(scenario("E2-formula", "low", "truncated-normal"),
                    last_order=120, last_demand=85, last_profit=255, cumulative_profit=1450))

# Byte-for-byte fidelity against the three stored golden prompts.
print("golden-file checks:")
for check in validate_golden():
    print(f"  {'ok ' if check.ok else 'FAIL'} {check.name}")
