import random
import re
from dataclasses import replace

import numpy as np
import pytest

from nvlab import prompts
from nvlab.model import DIST_KINDS, E3, EXPERIMENTS, HIGH, LOGNORMAL, LOW, scenario
from nvlab.prompts import (
    RoundContext,
    TemplateError,
    default_templates,
    fmt_francs,
    fmt_int,
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
    _, _, ctx = golden_contexts()[1]
    assert render_prompt(ctx) == render_prompt(ctx)


def test_round_one_has_no_feedback_text():
    for exp in ("E1-baseline", "E2-formula"):
        for kind in ("uniform", "truncated-normal", "lognormal"):
            prompt = render_prompt(RoundContext(scenario(exp, "high", kind), 1))
            assert "In the previous round" not in prompt


def test_later_rounds_embed_feedback():
    ctx = RoundContext(scenario("E1-baseline", "high", "uniform"), 2,
                       last_order=225, last_demand=40, last_profit=-195,
                       cumulative_profit=-195)
    prompt = render_prompt(ctx)
    assert "In the previous round:" in prompt
    assert "- Your order quantity: 225 wodgets" in prompt
    assert "- Actual demand: 40 wodgets" in prompt
    assert "- This round's profit: -195 francs" in prompt
    assert "Current cumulative profit: -195 francs" in prompt


def test_formula_block_membership_by_experiment():
    for kind in ("uniform", "truncated-normal", "lognormal"):
        assert RENDERED_FORMULA not in render_prompt(
            RoundContext(scenario("E1-baseline", "high", kind), 1))
        assert RENDERED_FORMULA in render_prompt(
            RoundContext(scenario("E2-formula", "high", kind), 1))
    assert RENDERED_FORMULA in render_prompt(
        RoundContext(scenario("E3-risk-neutral", "high", "uniform"), 1))


def test_no_thousands_separators_in_risk_neutral_numbers():
    prompt = render_prompt(RoundContext(scenario("E3-risk-neutral", "high", "uniform"), 1))
    assert "between 901 and 1200" in prompt
    assert "1,200" not in prompt
    ctx = RoundContext(scenario("E3-risk-neutral", "high", "uniform"), 3,
                       last_order=1125, last_demand=1117, last_profit=10029,
                       cumulative_profit=20175)
    prompt = render_prompt(ctx)
    assert "1125 wodgets" in prompt
    assert "10029 francs" in prompt
    assert not re.search(r"\d,\d", prompt)


def test_normal_std_renders_one_decimal():
    prompt = render_prompt(RoundContext(scenario("E1-baseline", "high", "truncated-normal"), 1))
    assert "standard deviation approximately 49.8," in prompt
    assert "49.83" not in prompt
    prompt = render_prompt(RoundContext(scenario("E3-risk-neutral", "high", "truncated-normal"), 1))
    assert "mean 1050.5 and standard deviation approximately 49.8" in prompt


def test_lognormal_description_mentions_skew():
    prompt = render_prompt(RoundContext(scenario("E1-baseline", "low", "lognormal"), 1))
    assert "right-skewed" in prompt
    assert "mean approximately 150.5" in prompt


def test_round_context_validates_feedback_fields():
    sc = scenario("E1-baseline", "high", "uniform")
    with pytest.raises(ValueError):
        RoundContext(sc, 1, last_order=100, last_demand=90, last_profit=780)
    with pytest.raises(ValueError):
        RoundContext(sc, 2)


def test_missing_template_variable_is_named(monkeypatch):
    templates = default_templates()
    broken = replace(
        templates,
        distribution_descriptions={**templates.distribution_descriptions,
                                   "uniform": "demand between {a} and {b_upper}"},
    )
    monkeypatch.setattr(prompts, "default_templates", lambda: broken)
    ctx = RoundContext(scenario("E1-baseline", "high", "uniform"), 1)
    with pytest.raises(TemplateError, match="b_upper"):
        render_prompt(ctx)


def reference_prompt(ctx, templates):
    """The whole base template filled in one call, history slot included."""
    sc, dist = ctx.scenario, ctx.scenario.demand
    demand = {"a": fmt_int(dist.lower), "b": fmt_int(dist.upper),
              "mean": fmt_number(dist.midpoint), "std": f"{dist.sd_normal:.1f}"}
    history = formula = ""
    if ctx.round_index > 1:
        history = templates.history_block.format(
            last_order=fmt_int(ctx.last_order), last_demand=fmt_int(ctx.last_demand),
            last_profit=fmt_francs(ctx.last_profit),
            cumulative_profit=fmt_francs(ctx.cumulative_profit),
        ).strip() + "\n"
    if sc.experiment in templates.formula_blocks:
        dist_formula = templates.distribution_formulas[dist.kind].format(**demand).strip()
        formula = templates.formula_blocks[sc.experiment].format(
            distribution_formula=dist_formula).strip() + "\n\n"
    return templates.base.format(
        cost=fmt_int(sc.cost.cost),
        demand_description=templates.distribution_descriptions[dist.kind].format(**demand).strip(),
        history_block=history,
        helpful_info=templates.helpful_info[sc.experiment].strip(),
        formula_block=formula,
    )


# the risk-neutral demand range has no lognormal calibration
@pytest.mark.parametrize("exp, margin, kind", [
    (exp, margin, kind) for exp in EXPERIMENTS for margin in (HIGH, LOW) for kind in DIST_KINDS
    if (exp, kind) != (E3, LOGNORMAL)
])
def test_cached_halves_render_the_whole_template_fill(exp, margin, kind):
    sc = scenario(exp, margin, kind)
    contexts = [
        RoundContext(sc, 1),
        RoundContext(sc, 2, last_order=120, last_demand=85, last_profit=255,
                     cumulative_profit=1450),
        RoundContext(sc, 3, last_order=120, last_demand=85, last_profit=255.25,
                     cumulative_profit=1705.25),
        RoundContext(sc, 4, last_order=225, last_demand=40, last_profit=-195,
                     cumulative_profit=-390.5),
    ]
    for ctx in contexts:
        expected = reference_prompt(ctx, default_templates())
        assert render_prompt(ctx) == expected
        assert render_prompt(ctx) == expected  # served from the cache this time


@pytest.mark.parametrize("base", [
    "Cost {cost}.\n{helpful_info}\n{formula_block}",
    "{history_block}Cost {cost}.\n{history_block}{helpful_info}\n{formula_block}",
], ids=["no-history-slot", "two-history-slots"])
def test_base_template_needs_exactly_one_history_slot(base, monkeypatch):
    broken = replace(default_templates(), base=base)
    monkeypatch.setattr(prompts, "default_templates", lambda: broken)
    with pytest.raises(TemplateError, match=re.escape("needs one {history_block} slot")):
        render_prompt(RoundContext(scenario("E1-baseline", "high", "uniform"), 1))


def round_two_prompt(order, demand, profit, cumulative_profit):
    """The prompt after a round with these outcomes: its history block is the feedback text."""
    return render_prompt(RoundContext(scenario("E1-baseline", "high", "uniform"), 2, order,
                                      demand, profit, cumulative_profit))


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


def test_francs_formatting():
    assert fmt_francs(1665) == "1665"
    assert fmt_francs(1665.0) == "1665"
    assert fmt_francs(255.5) == "255.5"
    assert fmt_francs(255.25) == "255.25"
    assert fmt_francs(255.333) == "255.33"
    assert fmt_francs(-60) == "-60"


BIG = 2**53 + 1  # the first integer a float cannot hold


@pytest.mark.parametrize("fmt, value, expected", [
    (fmt_int, 150, "150"),
    (fmt_int, -60, "-60"),
    (fmt_int, True, "1"),
    (fmt_int, np.int64(150), "150"),
    (fmt_int, 150.0, "150"),
    (fmt_int, BIG, "9007199254740993"),
    (fmt_francs, 1665, "1665"),
    (fmt_francs, True, "1"),
    (fmt_francs, np.int64(-60), "-60"),
    (fmt_francs, 1665.0, "1665"),
    (fmt_francs, 255.25, "255.25"),
    (fmt_francs, 255.333, "255.33"),
    (fmt_francs, BIG, "9007199254740993"),
    # only an int is formatted exactly; any other type goes through a float as before
    (fmt_francs, float(BIG), "9007199254740992"),
    (fmt_francs, np.int64(BIG), "9007199254740992"),
], ids=lambda v: repr(v) if not callable(v) else v.__name__)
def test_formatters_render_each_type_as_pinned(fmt, value, expected):
    assert fmt(value) == expected


@pytest.mark.parametrize("value, error, message", [
    (150.5, TemplateError, "expected an integer value, got 150.5"),
    (255.25, TemplateError, "expected an integer value, got 255.25"),
    (np.int64(BIG), TemplateError, f"expected an integer value, got {np.int64(BIG)!r}"),
    (float("nan"), ValueError, "cannot convert float NaN to integer"),
    (float("inf"), OverflowError, "cannot convert float infinity to integer"),
], ids=repr)
def test_fmt_int_refuses_what_it_cannot_render_exactly(value, error, message):
    with pytest.raises(error, match=re.escape(message)) as refused:
        fmt_int(value)
    assert type(refused.value) is error


SCENARIOS = [scenario(exp, margin, kind) for exp in EXPERIMENTS for margin in (HIGH, LOW)
             for kind in DIST_KINDS if (exp, kind) != (E3, LOGNORMAL)]  # the default grid's among them
# ints (0, negative, past 2**53, past 2**64), integral and non-integral floats, a bool and a
# numpy integer: exact ints take the %-format, the rest `render`'s own formatting
VALUE_BANK = [0, 7, -60, 150, BIG, -BIG, 10**30, 150.0, -60.0, 1e30, 255.25, -0.5, True,
              np.int64(150), np.int64(-60)]


def assert_hash_matches_render(prompt_set, feedback):
    """``sha256(*feedback)`` is the hash of ``render(*feedback)``, or refused as it is."""
    try:
        expected = sha256_text(prompt_set.render(*feedback))
    except TemplateError as exc:
        with pytest.raises(TemplateError, match=re.escape(str(exc))):
            prompt_set.sha256(*feedback)
    else:
        assert prompt_set.sha256(*feedback) == expected, feedback


def sweep_feedback(seed, draws=60):
    """Round 1, four exact ints, then ``draws`` seeded picks of four values from the bank."""
    rng = random.Random(seed)
    return [(), (120, 85, 255, 1450)] + [tuple(rng.choice(VALUE_BANK) for _ in range(4))
                                         for _ in range(draws)]


def test_the_shipped_history_block_is_hashed_by_its_format():
    assert default_templates().history_format is not None
    assert load_templates().history_format == default_templates().history_format


@pytest.mark.parametrize("reload", [False, True], ids=["default-set", "reloaded-set"])
def test_prompt_hash_is_that_of_the_rendered_prompt(reload, monkeypatch):
    if reload:  # another set of the same texts, cached apart from the default one
        templates = load_templates()
        monkeypatch.setattr(prompts, "default_templates", lambda: templates)
        assert scenario_prompts(SCENARIOS[0]).templates is templates
    for index, sc in enumerate(SCENARIOS):
        prompt_set = scenario_prompts(sc)
        for feedback in sweep_feedback(seed=index):
            assert_hash_matches_render(prompt_set, feedback)
        # round 1 and a later round, through the public renderer too
        assert prompt_set.sha256() == sha256_text(render_prompt(RoundContext(sc, 1)))
        assert prompt_set.sha256(120, 85, 255, 1450) == sha256_text(render_prompt(
            RoundContext(sc, 2, 120, 85, 255, 1450)))


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
    templates = replace(default_templates(), history_block=history)
    monkeypatch.setattr(prompts, "default_templates", lambda: templates)
    assert (templates.history_format is not None) == compiled
    for index, sc in enumerate(SCENARIOS[::5]):
        prompt_set = scenario_prompts(sc)
        for feedback in sweep_feedback(seed=100 + index, draws=30):
            assert_hash_matches_render(prompt_set, feedback)


def test_a_malformed_history_block_is_refused_by_hash_as_by_render(monkeypatch):
    templates = replace(default_templates(), history_block="{last_order} {last_demand")
    monkeypatch.setattr(prompts, "default_templates", lambda: templates)
    assert templates.history_format is None
    assert_hash_matches_render(scenario_prompts(SCENARIOS[0]), (120, 85, 255, 1450))
    with pytest.raises(TemplateError, match="malformed template placeholder"):
        scenario_prompts(SCENARIOS[0]).sha256(120, 85, 255, 1450)
