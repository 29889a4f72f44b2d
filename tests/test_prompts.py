import random
import re
from dataclasses import replace

import numpy as np
import pytest

from nvlab import prompts
from nvlab.model import (DIST_KINDS, E2, E3, EXPERIMENTS, HIGH, LOGNORMAL, LOW, CostStructure,
                         DemandDistribution, ScenarioConfig, scenario)
from nvlab.prompts import (
    TemplateError,
    default_templates,
    fmt_number,
    golden_contexts,
    load_templates,
    render_prompt,
    scenario_prompts,
    validate_golden,
)
from nvlab.store import sha256_text

RENDERED_FORMULA = "F(q*) = (p - c) / p"


def test_golden_prompts_match_byte_for_byte():
    for check in validate_golden():
        assert check.ok, f"{check.name}:\n{check.diff}"


def test_rendering_is_deterministic():
    _, _, sc, feedback = golden_contexts()[1]
    assert render_prompt(sc, *feedback) == render_prompt(sc, *feedback)


def test_round_one_has_no_feedback_text():
    for exp in ("E1-baseline", "E2-formula"):
        for kind in ("uniform", "truncated-normal", "lognormal"):
            prompt = render_prompt(scenario(exp, "high", kind))
            assert "In the previous round" not in prompt


def test_later_rounds_embed_feedback():
    prompt = render_prompt(scenario("E1-baseline", "high", "uniform"), 225, 40, -195, -195)
    assert "In the previous round:" in prompt
    assert "- Your order quantity: 225 wodgets" in prompt
    assert "- Actual demand: 40 wodgets" in prompt
    assert "- This round's profit: -195 francs" in prompt
    assert "Current cumulative profit: -195 francs" in prompt


def test_formula_block_membership_by_experiment():
    for kind in ("uniform", "truncated-normal", "lognormal"):
        assert RENDERED_FORMULA not in render_prompt(scenario("E1-baseline", "high", kind))
        assert RENDERED_FORMULA in render_prompt(scenario("E2-formula", "high", kind))
    assert RENDERED_FORMULA in render_prompt(scenario("E3-risk-neutral", "high", "uniform"))


def test_no_thousands_separators_in_risk_neutral_numbers():
    sc = scenario("E3-risk-neutral", "high", "uniform")
    prompt = render_prompt(sc)
    assert "between 901 and 1200" in prompt
    assert "1,200" not in prompt
    prompt = render_prompt(sc, 1125, 1117, 10029, 20175)
    assert "1125 wodgets" in prompt
    assert "10029 francs" in prompt
    assert not re.search(r"\d,\d", prompt)


def test_normal_std_renders_one_decimal():
    prompt = render_prompt(scenario("E1-baseline", "high", "truncated-normal"))
    assert "standard deviation approximately 49.8," in prompt
    assert "49.83" not in prompt
    prompt = render_prompt(scenario("E3-risk-neutral", "high", "truncated-normal"))
    assert "mean 1050.5 and standard deviation approximately 49.8" in prompt


def test_lognormal_description_mentions_skew():
    prompt = render_prompt(scenario("E1-baseline", "low", "lognormal"))
    assert "right-skewed" in prompt
    assert "mean approximately 150.5" in prompt


def test_missing_template_variable_is_named(monkeypatch):
    templates = default_templates()
    broken = replace(
        templates,
        distribution_descriptions={**templates.distribution_descriptions,
                                   "uniform": "demand between {a} and {b_upper}"},
    )
    monkeypatch.setattr(prompts, "default_templates", lambda: broken)
    with pytest.raises(TemplateError, match="b_upper"):
        render_prompt(scenario("E1-baseline", "high", "uniform"))


HISTORY_FIELDS = ("last_order", "last_demand", "last_profit", "cumulative_profit")


def reference_prompt(sc, feedback, templates):
    """The whole base template filled in one call, history slot included."""
    dist = sc.demand
    demand = {"a": str(dist.lower), "b": str(dist.upper),
              "mean": fmt_number(dist.midpoint), "std": f"{dist.sd_normal:.1f}"}
    history = formula = ""
    if feedback:
        history = templates.history_block.format(**dict(zip(HISTORY_FIELDS, feedback))
                                                 ).strip() + "\n"
    if sc.experiment in templates.formula_blocks:
        dist_formula = templates.distribution_formulas[dist.kind].format(**demand).strip()
        formula = templates.formula_blocks[sc.experiment].format(
            distribution_formula=dist_formula).strip() + "\n\n"
    return templates.base.format(
        cost=str(sc.cost.cost),
        demand_description=templates.distribution_descriptions[dist.kind].format(**demand).strip(),
        history_block=history,
        helpful_info=templates.helpful_info[sc.experiment].strip(),
        formula_block=formula,
    )


def assert_renders_as_the_reference(sc, feedback, templates):
    """`render_prompt` is the one-call fill, and `sha256` its hash."""
    expected = reference_prompt(sc, feedback, templates)
    assert render_prompt(sc, *feedback) == expected, feedback
    assert scenario_prompts(sc).sha256(*feedback) == sha256_text(expected), feedback


BIG = 2**53 + 1  # the first integer a float cannot hold


# the risk-neutral demand range has no lognormal calibration
@pytest.mark.parametrize("exp, margin, kind", [
    (exp, margin, kind) for exp in EXPERIMENTS for margin in (HIGH, LOW) for kind in DIST_KINDS
    if (exp, kind) != (E3, LOGNORMAL)
])
def test_cached_halves_render_the_whole_template_fill(exp, margin, kind):
    sc = scenario(exp, margin, kind)
    for feedback in [(), (120, 85, 255, 1450), (0, 5, 0, 0), (225, 40, -195, -390),
                     (BIG, -BIG, 10**30, -60)]:
        assert_renders_as_the_reference(sc, feedback, default_templates())
        assert_renders_as_the_reference(sc, feedback, default_templates())  # from the cache


@pytest.mark.parametrize("base", [
    "Cost {cost}.\n{helpful_info}\n{formula_block}",
    "{history_block}Cost {cost}.\n{history_block}{helpful_info}\n{formula_block}",
], ids=["no-history-slot", "two-history-slots"])
def test_base_template_needs_exactly_one_history_slot(base, monkeypatch):
    broken = replace(default_templates(), base=base)
    monkeypatch.setattr(prompts, "default_templates", lambda: broken)
    with pytest.raises(TemplateError, match=re.escape("needs one {history_block} slot")):
        render_prompt(scenario("E1-baseline", "high", "uniform"))


def round_two_prompt(order, demand, profit, cumulative_profit):
    """The prompt after a round with these outcomes: its history block is the feedback text."""
    return render_prompt(scenario("E1-baseline", "high", "uniform"), order, demand, profit,
                         cumulative_profit)


def test_render_feedback_uses_history_format():
    text = round_two_prompt(185, 210, 1665, 1665)
    assert "\n\nIn the previous round:\n" in text
    assert "- Your order quantity: 185 wodgets" in text
    assert "- Actual demand: 210 wodgets" in text
    assert "- This round's profit: 1665 francs" in text
    assert "\nCurrent cumulative profit: 1665 francs\nHere is some information" in text


def test_render_feedback_degenerate_round():
    text = round_two_prompt(0, 5, 0, 0)
    assert "- Your order quantity: 0 wodgets" in text
    assert "- This round's profit: 0 francs" in text


def test_render_feedback_matches_history_block_example():
    text = round_two_prompt(120, 85, 255, 1450)
    assert "- Your order quantity: 120 wodgets" in text
    assert "- Actual demand: 85 wodgets" in text
    assert "- This round's profit: 255 francs" in text
    assert "Current cumulative profit: 1450 francs" in text


@pytest.mark.parametrize("slot", range(4), ids=HISTORY_FIELDS)
@pytest.mark.parametrize("value", [True, 150.0, 255.25, np.int64(150), None], ids=repr)
def test_a_feedback_value_that_is_not_an_exact_int_is_refused(slot, value):
    """Render and hash refuse it alike: no value is formatted through a float."""
    feedback = [120, 85, 255, 1450]
    feedback[slot] = value
    sc = scenario("E1-baseline", "high", "uniform")
    with pytest.raises(TemplateError, match="feedback values must be four exact ints") as refused:
        render_prompt(sc, *feedback)
    with pytest.raises(TemplateError, match=re.escape(str(refused.value))):
        scenario_prompts(sc).sha256(*feedback)


@pytest.mark.parametrize("lower", [-60, 150, BIG], ids=repr)
def test_a_library_built_range_renders_its_exact_int_bounds(lower):
    """Bounds and cost render with `str`: exact past 2**53 (their constructors take only ints)."""
    sc = ScenarioConfig(CostStructure(12, 3), DemandDistribution("uniform", lower, lower + 300),
                        E2, HIGH)
    for feedback in [(), (120, 85, 255, 1450)]:
        assert_renders_as_the_reference(sc, feedback, default_templates())
    assert f"U[{lower}, {lower + 300}]" in render_prompt(sc)


SCENARIOS = [scenario(exp, margin, kind) for exp in EXPERIMENTS for margin in (HIGH, LOW)
             for kind in DIST_KINDS if (exp, kind) != (E3, LOGNORMAL)]  # the default grid's among them
INT_BANK = [0, 7, -60, 150, BIG, -BIG, 10**30, -(10**30)]  # past 2**53 and past 2**64 too


def sweep_feedback(seed, draws=60):
    """Round 1, four plain ints, then ``draws`` seeded picks of four ints from the bank."""
    rng = random.Random(seed)
    return [(), (120, 85, 255, 1450)] + [tuple(rng.choice(INT_BANK) for _ in range(4))
                                         for _ in range(draws)]


def test_the_shipped_history_block_is_hashed_by_its_format():
    expected = ("In the previous round:\n- Your order quantity: %d wodgets\n"
                "- Actual demand: %d wodgets\n- This round's profit: %d francs\n\n"
                "Current cumulative profit: %d francs\n")
    assert all(scenario_prompts(sc).history == expected for sc in SCENARIOS)


@pytest.mark.parametrize("reload", [False, True], ids=["default-set", "reloaded-set"])
def test_prompt_hash_is_that_of_the_rendered_prompt(reload, monkeypatch):
    templates = default_templates()
    if reload:  # another set of the same texts, cached apart from the default one
        default_set = scenario_prompts(SCENARIOS[0])
        templates = load_templates()
        monkeypatch.setattr(prompts, "default_templates", lambda: templates)
        assert scenario_prompts(SCENARIOS[0]) is not default_set
        assert scenario_prompts(SCENARIOS[0]) == default_set
    for index, sc in enumerate(SCENARIOS):
        for feedback in sweep_feedback(seed=index):
            assert_renders_as_the_reference(sc, feedback, templates)


@pytest.mark.parametrize("history, compiled", [
    ("Profit up 100%: {last_order} % {last_demand} %d {last_profit} %% {cumulative_profit} %s",
     True),
    ("{{braces}} {last_order} {{ {last_demand} }} {last_profit}{{}} {cumulative_profit}}}", True),
    ("  \n\nPériode précédente : {last_order} — {last_demand} — {last_profit} — "
     "{cumulative_profit} ✓\n\n", True),
    ("{last_order}{last_demand}{last_profit}{cumulative_profit}", True),
    ("{cumulative_profit} first, then {last_order} {last_demand} {last_profit}", False),
    ("{last_order} {last_order} {last_demand} {last_profit} {cumulative_profit}", False),
    ("{last_order:>6} {last_demand} {last_profit} {cumulative_profit}", False),
    ("{last_order!r} {last_demand} {last_profit} {cumulative_profit} 5%", False),
    ("{last_order} {last_demand} {last_profit}", False),
], ids=["percent-signs", "escaped-braces", "padding-and-non-ascii", "no-literal-text",
        "reordered", "repeated", "format-spec", "conversion", "missing-value"])
def test_prompt_hash_is_that_of_the_rendered_prompt_under_any_history_block(
        history, compiled, monkeypatch):
    """A block naming the four values once each, in order and plain, renders as the
    reference; any other block is refused at first use, by render and hash alike."""
    templates = replace(default_templates(), history_block=history)
    monkeypatch.setattr(prompts, "default_templates", lambda: templates)
    for index, sc in enumerate(SCENARIOS[::5]):
        if not compiled:
            for first_use in (render_prompt, scenario_prompts):
                with pytest.raises(TemplateError, match="the history block must name"):
                    first_use(sc)
            continue
        for feedback in sweep_feedback(seed=100 + index, draws=30):
            assert_renders_as_the_reference(sc, feedback, templates)


def test_a_malformed_history_block_is_refused_by_hash_as_by_render(monkeypatch):
    templates = replace(default_templates(), history_block="{last_order} {last_demand")
    monkeypatch.setattr(prompts, "default_templates", lambda: templates)
    for first_use in (render_prompt, scenario_prompts):
        with pytest.raises(TemplateError, match="malformed template placeholder"):
            first_use(SCENARIOS[0])
