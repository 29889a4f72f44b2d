import numpy as np
import pytest

from nvlab import agents
from nvlab.agents import (
    AgentSpec,
    AmbiguousDecisionError,
    decide,
    extract_order,
    round_half_up,
    scripted_rule,
)
from nvlab.llm import ChatResult
from nvlab.model import anchor, optimal_quantity, scenario

SC_HIGH = scenario("E1-baseline", "high", "uniform")
SC_LOW = scenario("E1-baseline", "low", "uniform")


# --- order extraction --------------------------------------------------------

def test_extract_order_explicit_pattern():
    text = "After some thought, I will order 185 wodgets because..."
    assert extract_order(text, SC_HIGH) == (185, "exact")


def test_extract_order_quantity_colon_pattern():
    assert extract_order("Order quantity: 120", SC_HIGH) == (120, "exact")
    assert extract_order("My order quantity is 240 this round.", SC_HIGH) == (240, "exact")


def test_extract_order_last_integer_fallback():
    value, confidence = extract_order(
        "Demand averages 150, price 12, cost 3. Decision: 225.", SC_HIGH)
    assert (value, confidence) == (225, "fallback")


def test_extract_order_line_with_order_keyword():
    text = "Expected demand is 150.\nFinal order: 210"
    assert extract_order(text, SC_HIGH) == (210, "exact")


def test_extract_order_ambiguous():
    with pytest.raises(AmbiguousDecisionError):
        extract_order("I cannot decide.", SC_HIGH)


def test_extract_order_ignores_out_of_range():
    # 2 * upper = 600 is the sanity bound; 9999 is implausible but the
    # in-range integer on the same "order" line still counts as explicit
    value, confidence = extract_order("I will order 9999 wodgets. Well, maybe 300.", SC_HIGH)
    assert (value, confidence) == (300, "exact")
    with pytest.raises(AmbiguousDecisionError):
        extract_order("I will order 9999 wodgets.", SC_HIGH)


def test_extract_order_skips_a_digit_run_past_the_int_limit():
    # int() refuses more than 4,300 digits; such a run is out of range, its leading zeros aside
    nines, zeros = "9" * 5000, "0" * 5000
    assert extract_order(f"I will order {nines} wodgets. Well, maybe 300.", SC_HIGH) == (
        300, "exact")
    assert extract_order(f"I will order {zeros}150 wodgets.", SC_HIGH) == (150, "exact")
    with pytest.raises(AmbiguousDecisionError):
        extract_order(f"I keep thinking: {nines}", SC_HIGH)


def test_extract_order_handles_grouped_digits():
    sc = scenario("E3-risk-neutral", "high", "uniform")
    assert extract_order("I will order 1,125 wodgets.", sc) == (1125, "exact")


def test_extract_order_skips_decimals():
    value, confidence = extract_order("The mean is 150.5 so my order is 151", SC_HIGH)
    assert (value, confidence) == (151, "exact")


def test_extract_order_is_idempotent():
    text = "Balancing both risks, I will order 225 wodgets."
    assert extract_order(text, SC_HIGH) == extract_order(text, SC_HIGH)


def test_parse_policy_first_in_range_match_wins():
    # "order quantity is" (the second pattern) is tried before "I will order" (the third),
    # whatever their place in the text; an out-of-range match is passed over
    text = "I will order 100. My order quantity is 9999, no: order quantity is 200."
    assert extract_order(text, SC_HIGH) == (200, "exact")


# --- scripted agents ---------------------------------------------------------

def test_optimal_agent_orders_the_optimum_every_round():
    agent = AgentSpec("optimal")
    for sc in (SC_HIGH, SC_LOW):
        q_star = optimal_quantity(sc)
        for t in (1, 2, 9):
            decision = decide(agent, "", sc, t, 10, 20)
            assert decision.order == q_star
            assert decision.parse_confidence == "exact"
            assert decision.raw_response


def test_mean_anchor_endpoints():
    # w = 0 stays on the anchor (round-half-up -> 151); w = 1 reaches q*
    no_adjust = decide(AgentSpec("mean-anchor", anchor_weight=0.0), "", SC_HIGH)
    assert no_adjust.order == 151
    full_adjust = decide(AgentSpec("mean-anchor", anchor_weight=1.0), "", SC_HIGH)
    assert full_adjust.order == optimal_quantity(SC_HIGH)


def test_mean_anchor_interpolates():
    agent = AgentSpec("mean-anchor", anchor_weight=0.5)
    decision = decide(agent, "", SC_HIGH)
    expected = round_half_up(anchor(SC_HIGH) + 0.5 * (225 - anchor(SC_HIGH)))
    assert decision.order == expected == 188


def test_demand_chaser_full_chase():
    agent = AgentSpec("demand-chaser", chase_rate=1.0)
    decision = decide(agent, "", SC_HIGH, 2, last_order=100, last_demand=130)
    assert decision.order == 130


def test_demand_chaser_moves_toward_demand_for_small_alpha():
    agent = AgentSpec("demand-chaser", chase_rate=0.1)
    up = decide(agent, "", SC_HIGH, 2, last_order=100, last_demand=102)
    down = decide(agent, "", SC_HIGH, 2, last_order=100, last_demand=98)
    assert up.order == 101 and down.order == 99


def test_demand_chaser_round_one_starts_at_anchor():
    agent = AgentSpec("demand-chaser", chase_rate=0.5)
    assert decide(agent, "", SC_HIGH).order == 151


def test_demand_chaser_switch_round():
    agent = AgentSpec("demand-chaser", chase_rate=1.0, switch_round=8)
    before = decide(agent, "", SC_HIGH, 5, last_order=151, last_demand=290)
    after = decide(agent, "", SC_HIGH, 8, last_order=151, last_demand=290)
    assert before.order == 151
    assert after.order == 290


SCRIPTED_AGENTS = [
    AgentSpec("optimal"),
    AgentSpec("mean-anchor", anchor_weight=0.3),
    AgentSpec("demand-chaser", chase_rate=0.25),
    AgentSpec("demand-chaser", chase_rate=1.0, chase_rate_before=0.1, switch_round=4),
    AgentSpec("random"),
]
# (round, last order, last demand): rounds before and after the switch, each direction of
# error, the order ceiling, and no previous order
RULE_CASES = [(1, None, None), (2, 140, 200), (3, 200, 120), (4, 150, 151), (5, 151, 150),
              (9, 600, 2), (12, 1, 1200), (6, None, None)]


@pytest.mark.parametrize(
    "sc", [SC_HIGH, SC_LOW, scenario("E3-risk-neutral", "high", "truncated-normal")],
    ids=["high", "low", "risk-neutral"])
@pytest.mark.parametrize("agent", SCRIPTED_AGENTS, ids=lambda agent: agent.label)
def test_a_scripted_rule_decides_as_decide_does(agent, sc):
    rule = scripted_rule(agent, sc, 11)
    held = scripted_rule(agent, sc, 11)  # passed to decide, as a block does
    for round_index, last_order, last_demand in RULE_CASES:
        decision = decide(agent, "", sc, round_index, last_order, last_demand,
                          rule=scripted_rule(agent, sc, 11))
        assert decision.parse_confidence == "exact"
        assert rule(round_index, last_order, last_demand) == (
            decision.order, decision.raw_response), (round_index, last_order, last_demand)
        assert decide(agent, "", sc, round_index, last_order, last_demand, rule=held) == decision


def test_a_scripted_rule_refuses_what_decide_refuses():
    with pytest.raises(ValueError, match="random agent needs a seed"):
        scripted_rule(AgentSpec("random"), SC_HIGH)
    with pytest.raises(ValueError, match="not a scripted kind: llm"):
        scripted_rule(AgentSpec("llm", model_name="m"), SC_HIGH)


def test_decide_refuses_a_negative_order():
    # a Decision checks nothing itself: decide checks the order a rule gives
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        decide(AgentSpec("optimal"), None, SC_HIGH, rule=lambda *_: (-1, "below zero"))


NOT_INTS = {"float": 225.0, "bool": True, "numpy-int64": np.int64(225), "str": "225"}


@pytest.mark.parametrize("order", NOT_INTS.values(), ids=NOT_INTS)
def test_decide_refuses_an_order_that_is_not_an_exact_int(order, monkeypatch):
    """Such an order would be stored through the JSON encoder (``"order":225.0``), which
    both readers then refuse; a scripted and an LLM decision are checked alike."""
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        decide(AgentSpec("optimal"), None, SC_HIGH, rule=lambda *_: (order, "not an int"))
    monkeypatch.setattr(agents, "extract_order", lambda text, sc: (order, "exact"))
    with pytest.raises(ValueError, match="order must be a nonnegative integer"):
        decide(AgentSpec("llm", model_name="m"), "the prompt", SC_HIGH,
               client=FakeClient(["I will order 225 wodgets."]))


def test_random_agent_deterministic_given_rng_seed():
    agent = AgentSpec("random")
    orders_a = [decide(agent, "", SC_HIGH, t, rule=scripted_rule(agent, SC_HIGH, 3)).order
                for t in range(1, 6)]
    rule = scripted_rule(agent, SC_HIGH, 3)
    orders_b = [decide(agent, "", SC_HIGH, t, rule=rule).order for t in range(1, 6)]
    assert orders_a == orders_b
    assert all(1 <= order <= 300 for order in orders_b)


def test_random_rule_orders_its_seeds_draw_for_the_round_asked():
    """A random rule's order depends on the round alone: asked for rounds 5, 3 and 5, it
    gives its seed's uniform draws 5, 3 and 5, however often it was called before."""
    rule = scripted_rule(AgentSpec("random"), SC_HIGH, 7)
    draws = np.random.default_rng(7).integers(1, 301, size=SC_HIGH.rounds).tolist()
    assert [rule(t, None, None)[0] for t in (5, 3, 5)] == [draws[4], draws[2], draws[4]]


def test_agent_spec_validation():
    with pytest.raises(ValueError):
        AgentSpec("mean-anchor")
    with pytest.raises(ValueError):
        AgentSpec("mean-anchor", anchor_weight=1.5)
    with pytest.raises(ValueError):
        AgentSpec("demand-chaser", chase_rate=-1)
    with pytest.raises(ValueError):
        AgentSpec("llm")
    with pytest.raises(ValueError):
        AgentSpec("unknown-kind")


def test_agent_spec_dict_round_trip():
    specs = [
        AgentSpec("optimal"),
        AgentSpec("mean-anchor", anchor_weight=0.25),
        AgentSpec("demand-chaser", chase_rate=0.5, chase_rate_before=0.1, switch_round=4),
    ]
    for spec in specs:
        assert AgentSpec.from_dict(spec.to_dict()) == spec
    assert AgentSpec("optimal").to_dict() == {"kind": "optimal"}
    assert AgentSpec("llm", model_name="m").to_dict() == {
        "kind": "llm", "model_name": "m", "temperature": 1.0}
    with pytest.raises(ValueError, match="colour"):
        AgentSpec.from_dict({"kind": "optimal", "colour": "red"})
    with pytest.raises(ValueError):
        AgentSpec.from_dict({"anchor_weight": 0.5})


# --- llm decide path (fake client) -------------------------------------------

class FakeClient:
    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = []

    def chat(self, messages):
        self.calls.append(messages)
        return ChatResult(text=self.replies.pop(0), usage={"total_tokens": 10}, retries=0)


def test_llm_decide_extracts_order_and_keeps_transcript_unmutated():
    agent = AgentSpec("llm", model_name="test-model")
    client = FakeClient(["I think carefully and order 185 wodgets."])
    transcript = [{"role": "user", "content": "earlier"}, {"role": "assistant", "content": "145"}]
    decision = decide(agent, "the prompt", SC_HIGH, client=client, transcript=transcript)
    assert decision.order == 185
    assert decision.parse_confidence == "exact"
    assert len(transcript) == 2
    assert client.calls[0][-1] == {"role": "user", "content": "the prompt"}


def test_llm_decide_reprompts_on_unparseable_reply():
    agent = AgentSpec("llm", model_name="test-model")
    client = FakeClient(["Hmm, let me think about that.", "Fine: I will order 140 wodgets."])
    decision = decide(agent, "the prompt", SC_HIGH, client=client)
    assert decision.order == 140
    assert len(client.calls) == 2
    # the clarification turn is sent to the model but the stored response is final
    assert "single integer" in client.calls[1][-1]["content"]
    assert decision.raw_response == "Fine: I will order 140 wodgets."


def test_llm_decide_gives_up_after_max_retries():
    agent = AgentSpec("llm", model_name="test-model")
    client = FakeClient(["no numbers here", "still no numbers", "none at all"])
    with pytest.raises(AmbiguousDecisionError):
        decide(agent, "the prompt", SC_HIGH, client=client)
    assert len(client.calls) == 3
