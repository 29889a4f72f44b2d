"""Decision agents: one remote LLM kind plus four scripted oracles.

The scripted agents exist to validate the metrics pipeline -- each one has a
known ground truth the metrics must recover:

* optimal       -- orders the critical-fractile optimum every round
* mean-anchor   -- order = A + w * (q* - A); the measured adjustment score
                   must come back as w
* demand-chaser -- moves the order toward the previous demand realization by
                   a fraction alpha of the prior forecast error; every such
                   move must classify as "toward demand"
* random        -- uniform order on the demand range, for null baselines

`decide` is the one way to decide a round, given its prompt and scenario.
Scripted kinds ignore the prompt text and decide by a rule built once per
scenario (`scripted_rule`); the llm kind sends one chat request and extracts an
integer order from the reply.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import NamedTuple

from .model import (
    UNIFORM,
    DemandDistribution,
    ScenarioConfig,
    anchor,
    optimal_quantity,
    sample_sequence,
)

LLM = "llm"
OPTIMAL = "optimal"
MEAN_ANCHOR = "mean-anchor"
DEMAND_CHASER = "demand-chaser"
RANDOM = "random"
AGENT_KINDS = (LLM, OPTIMAL, MEAN_ANCHOR, DEMAND_CHASER, RANDOM)
SCRIPTED_KINDS = (OPTIMAL, MEAN_ANCHOR, DEMAND_CHASER, RANDOM)

EXACT = "exact"
FALLBACK = "fallback"


class AmbiguousDecisionError(ValueError):
    """No plausible order quantity could be extracted from a response."""


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _round_away_from_zero(x: float) -> int:
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


# extraction rules, tried in order; each captures the integer in its one group
ORDER_PATTERNS = (
    r"(?i)order\s+(?:about\s+|around\s+|approximately\s+)?(\d[\d,]*)\s+wodgets",
    r"(?i)order\s+quantity\s*(?:is|of|:|=)?\s*\**\s*(\d[\d,]*)",
    r"(?i)(?:\bwill order|\bi order|decide to order|ordering)\s*:?\s*\**\s*(\d[\d,]*)",
)
MAX_REPROMPTS = 2  # clarification turns after a reply with no plausible order


def _to_int(token: str, hi: int) -> int:
    """The token's value, or ``hi + 1`` (out of range) if it has more digits than ``hi``."""
    digits = token.replace(",", "").lstrip("0")  # int() refuses a run past its digit limit
    return int(digits or 0) if len(digits) <= len(str(hi)) else hi + 1


def extract_order(raw: str, sc: ScenarioConfig) -> tuple[int, str]:
    """Pull an integer order in [0, 2 x the demand range's upper end] out of free text.

    Pass 1 tries `ORDER_PATTERNS` in order, then the last standalone integer
    on a line mentioning "order"; any in-range hit is tagged exact. Pass 2
    falls back to the last in-range integer anywhere. Pure and idempotent;
    raises AmbiguousDecisionError when nothing qualifies.
    """
    lo, hi = 0, sc.max_order
    for pattern in ORDER_PATTERNS:
        for match in re.finditer(pattern, raw):
            value = _to_int(match.group(1), hi)
            if lo <= value <= hi:
                return value, EXACT
    standalone = r"(?<![\d.,])(\d[\d,]*)(?!\.?\d)"
    for line in reversed(raw.splitlines()):
        if "order" not in line.lower():
            continue
        hits = [_to_int(t, hi) for t in re.findall(standalone, line)]
        hits = [v for v in hits if lo <= v <= hi]
        if hits:
            return hits[-1], EXACT
    all_hits = [_to_int(t, hi) for t in re.findall(standalone, raw)]
    all_hits = [v for v in all_hits if lo <= v <= hi]
    if all_hits:
        return all_hits[-1], FALLBACK
    raise AmbiguousDecisionError(f"no plausible order in range [{lo}, {hi}] found in response")


@dataclass(frozen=True)
class AgentSpec:
    """Configuration of one decision agent.

    ``anchor_weight`` applies to mean-anchor, ``chase_rate`` (with the
    optional ``switch_round`` / ``chase_rate_before`` schedule) to the
    demand-chaser, ``model_name`` / ``temperature`` to the llm kind.
    Temperature defaults to 1.0.
    """

    kind: str
    model_name: str | None = None
    temperature: float = 1.0
    anchor_weight: float | None = None
    chase_rate: float | None = None
    chase_rate_before: float = 0.0
    switch_round: int | None = None

    def __post_init__(self):
        if self.kind not in AGENT_KINDS:
            raise ValueError(f"unknown agent kind {self.kind!r}")
        if self.kind == LLM and not self.model_name:
            raise ValueError("llm agent needs a model_name")
        if self.kind == MEAN_ANCHOR:
            if self.anchor_weight is None or not 0 <= self.anchor_weight <= 1:
                raise ValueError("mean-anchor agent needs anchor_weight in [0, 1]")
        if self.kind == DEMAND_CHASER:
            if self.chase_rate is None or not 0 <= self.chase_rate < math.inf:
                raise ValueError("demand-chaser agent needs a finite chase_rate >= 0")
        if not math.isfinite(self.chase_rate_before):
            raise ValueError("chase_rate_before must be finite")

    @property
    def label(self) -> str:
        if self.kind == LLM:
            return self.model_name
        if self.kind == MEAN_ANCHOR:
            return f"mean-anchor(w={self.anchor_weight:g})"
        if self.kind == DEMAND_CHASER:
            if self.switch_round is not None:
                return (
                    f"demand-chaser(alpha={self.chase_rate:g},"
                    f"switch@{self.switch_round}from{self.chase_rate_before:g})"
                )
            return f"demand-chaser(alpha={self.chase_rate:g})"
        return self.kind

    def to_dict(self) -> dict:
        """Manifest form: the kind plus the fields that kind uses."""
        data = {"kind": self.kind}
        if self.kind == LLM:
            data.update(model_name=self.model_name, temperature=self.temperature)
        if self.anchor_weight is not None:
            data["anchor_weight"] = self.anchor_weight
        if self.chase_rate is not None:
            data.update(chase_rate=self.chase_rate, chase_rate_before=self.chase_rate_before)
            if self.switch_round is not None:
                data["switch_round"] = self.switch_round
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "AgentSpec":
        """Inverse of `to_dict`; absent optional fields take the dataclass defaults.

        Raises ValueError when the kind is missing or a key is not a field.
        """
        if "kind" not in data or not set(data) <= {f.name for f in fields(cls)}:
            raise ValueError(f"agent needs a kind and only AgentSpec fields, got {sorted(data)}")
        return cls(**data)


class Decision(NamedTuple):
    """One round's decision: the order (`decide` checks it), the raw reply, and provenance."""

    order: int
    raw_response: str
    parse_confidence: str
    retries: int = 0
    token_usage: dict | None = None


RETRY_NUDGE = (
    "I could not find a clear order quantity in your reply. "
    "Please state your final decision as a single integer, for example: I will order 150 wodgets."
)


def scripted_rule(agent: AgentSpec, scenario: ScenarioConfig, seed=None):
    """A scripted ``agent``'s ``rule(round_index, last_order, last_demand) -> (order, rationale)``.

    What is fixed on ``scenario`` (optimum, anchor, bounds, fixed rationales) is worked out once.
    The random kind's orders are the ``seed``'s uniform draws over the demand range, one per
    round, drawn once; round t orders draw t.
    """
    q_star = optimal_quantity(scenario)
    mean = anchor(scenario)
    if agent.kind == OPTIMAL:
        decision = q_star, f"Scripted rule: always order the critical-fractile optimum {q_star}."
    elif agent.kind == MEAN_ANCHOR:
        w = agent.anchor_weight
        decision = round_half_up(mean + w * (q_star - mean)), (
            f"Scripted rule: anchor on the demand mean {mean:g} and adjust a fraction "
            f"w={w:g} of the way toward the optimum {q_star}."
        )
    elif agent.kind == DEMAND_CHASER:
        rate, rate_before, switch = agent.chase_rate, agent.chase_rate_before, agent.switch_round
        ceiling = scenario.max_order
        spelled = (rate, f"{rate:g}"), (rate_before, f"{rate_before:g}")  # formatted once
        opening = round_half_up(mean), (
            f"Scripted rule: start at the demand mean {mean:g}, then chase the previous "
            f"demand with rate alpha={rate:g}."
        )

        def chase(round_index, last_order, last_demand):
            if round_index == 1 or last_order is None:
                return opening
            alpha, alpha_text = spelled[switch is not None and round_index < switch]
            error = last_demand - last_order
            step = _round_away_from_zero(alpha * error)
            if alpha > 0 and error != 0 and step == 0:
                # always move at least one unit toward the observed demand
                step = 1 if error > 0 else -1
            return max(0, min(last_order + step, ceiling)), (
                f"Scripted rule: previous error {error:+d}, chasing with alpha={alpha_text} "
                f"moves the order by {step:+d}."
            )
        return chase
    elif agent.kind == RANDOM:
        if seed is None:
            raise ValueError("random agent needs a seed")
        uniform = DemandDistribution(UNIFORM, scenario.demand.lower, scenario.demand.upper)
        orders = sample_sequence(uniform, scenario.rounds, seed)
        return lambda round_index, *_: (
            orders[round_index - 1],
            "Scripted rule: order uniformly at random over the demand range.")
    else:
        raise ValueError(f"not a scripted kind: {agent.kind}")
    return lambda *_: decision


def decide(
    agent: AgentSpec,
    prompt: str | None,
    scenario: ScenarioConfig,
    round_index: int = 1,
    last_order: int | None = None,
    last_demand: int | None = None,
    client=None,
    transcript: list[dict] | None = None,
    rule=None,
) -> Decision:
    """Produce round ``round_index``'s decision in ``scenario``.

    Scripted kinds are deterministic given the round, the previous order and
    demand, and ``rule``, never read ``prompt`` (the runner passes None) and
    never error; a caller deciding many rounds of one scenario passes the
    agent's `scripted_rule` as ``rule`` (a random agent needs one: its rule
    is built from a seed). The llm kind appends ``prompt`` to ``transcript``
    (not mutated), sends one chat request via ``client`` and extracts the
    order; unparseable replies are re-prompted up to `MAX_REPROMPTS` times
    with a clarification turn that stays out of the persistent transcript. An order that
    is not a nonnegative exact ``int`` (a float, a bool, a numpy integer) raises ValueError.
    """
    if agent.kind != LLM:
        order, text = (rule or scripted_rule(agent, scenario))(round_index, last_order, last_demand)
        decision = order, text, EXACT, 0, None
    else:
        if client is None:
            raise ValueError("llm agent needs a chat client")
        messages = list(transcript or []) + [{"role": "user", "content": prompt}]
        attempts = 0
        retries = 0
        usage = None
        while True:
            result = client.chat(messages)
            retries += result.retries
            usage = _merge_usage(usage, result.usage)
            try:
                order, confidence = extract_order(result.text, scenario)
                break
            except AmbiguousDecisionError:
                attempts += 1
                if attempts > MAX_REPROMPTS:
                    raise
                messages = messages + [
                    {"role": "assistant", "content": result.text},
                    {"role": "user", "content": RETRY_NUDGE},
                ]
        decision = order, result.text, confidence, retries, usage
    if type(order) is not int or order < 0:
        raise ValueError("order must be a nonnegative integer")
    return tuple.__new__(Decision, decision)


def _merge_usage(acc: dict | None, new: dict | None) -> dict | None:
    if not new:
        return acc
    if not acc:
        return dict(new)
    merged = dict(acc)
    for key, value in new.items():
        if isinstance(value, (int, float)) and isinstance(merged.get(key), (int, float)):
            merged[key] = merged[key] + value
        else:
            merged[key] = value
    return merged
