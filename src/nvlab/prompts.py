"""Prompt rendering for the ordering experiment.

Templates live as UTF-8 text assets (LF endings, one trailing newline) under
``assets/templates`` and are filled with named ``{placeholder}`` slots. Three
golden prompts under ``assets/golden`` pin the rendered output byte-for-byte;
`validate_golden` diffs the renderer against them.

`render_prompt(ctx)` renders with `default_templates` through the
`ScenarioPrompts` that the runner looks up once per block: the base template
split at its one ``{history_block}`` slot, both halves filled once per
scenario and template set (cost, demand description, helpful info, formula
block) and cached. Its `render`, the reference spelling of the feedback text, joins a
round's prompt: the head, that round's history block (none in round 1) and the
tail. So the goldens pin the bytes the runner sends to a chat endpoint and hashes.

The runner hashes every round with `ScenarioPrompts.sha256`, the hash of
`render`'s bytes without joining them: a cached sha256 state over the head is
copied and fed the history block, filled by the template set's one %-format
(`PromptTemplateSet.history_format`) when all four values are exact ints, then
the tail. Only a block that keeps a transcript (an LLM block) renders text.

Formatting rules the goldens rely on:

* integers render plain, no thousands separators; a Python ``int`` renders
  exactly, even past 2**53, while a bool, a numpy integer or a float is
  formatted through a float;
* the truncated-normal standard deviation renders to one decimal ("49.8")
  even though the internal value is 49.8333...;
* the advertised demand mean is the range midpoint ("150.5" / "1050.5");
* profit values render as integers when integral, else with up to two
  decimals;
* the baseline variant uses a slightly shorter wording of the helpful-info
  lines, and the risk-neutral formula legend omits the cost clause -- both
  wordings are intentional and pinned by the golden files.
"""

from __future__ import annotations

import difflib
import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from string import Formatter

from .model import (
    E1,
    E2,
    E3,
    HIGH,
    LOW,
    LOGNORMAL,
    TRUNCATED_NORMAL,
    UNIFORM,
    ScenarioConfig,
    scenario,
)


class TemplateError(ValueError):
    """A template placeholder could not be resolved."""


def _asset_root() -> Path:
    return Path(__file__).resolve().parent / "assets"


def fmt_int(value) -> str:
    if type(value) is int:  # exact; a float round trip loses digits past 2**53
        return str(value)
    n = int(round(float(value)))
    if n != value:
        raise TemplateError(f"expected an integer value, got {value!r}")
    return str(n)


def fmt_number(value) -> str:
    """Plain decimal rendering: 150.5 -> '150.5', 150.0 -> '150'."""
    x = float(value)
    if x == int(x):
        return str(int(x))
    return repr(x)


def fmt_francs(value) -> str:
    """Integral francs render as integers, otherwise up to two decimals."""
    if type(value) is int:
        return str(value)
    x = float(value)
    if x == int(x):
        return str(int(x))
    return f"{x:.2f}".rstrip("0").rstrip(".")


_HISTORY_FIELDS = ("last_order", "last_demand", "last_profit", "cumulative_profit")


@dataclass(frozen=True, eq=False)
class PromptTemplateSet:
    """The full template bundle, loaded from text assets; equal and hashed by identity."""

    base: str
    history_block: str
    formula_blocks: dict[str, str]        # experiment -> block (E2/E3 only)
    helpful_info: dict[str, str]          # experiment -> bullet lines
    distribution_descriptions: dict[str, str]
    distribution_formulas: dict[str, str]

    def digest_inputs(self) -> dict[str, str]:
        """Stable name -> text map used for manifest digests."""
        out = {"base": self.base, "history": self.history_block}
        for exp, text in sorted(self.formula_blocks.items()):
            out[f"formula:{exp}"] = text
        for exp, text in sorted(self.helpful_info.items()):
            out[f"helpful:{exp}"] = text
        for kind, text in sorted(self.distribution_descriptions.items()):
            out[f"description:{kind}"] = text
        for kind, text in sorted(self.distribution_formulas.items()):
            out[f"dist_formula:{kind}"] = text
        return out

    @cached_property
    def history_format(self) -> str | None:
        """A %-format of the history block as `_history` fills and strips it, ``%d`` per value.

        None unless the block names the four values once each, in `_HISTORY_FIELDS`
        order, without a conversion or format spec; a literal ``%`` is escaped.
        """
        try:
            parts = list(Formatter().parse(self.history_block))
        except ValueError:  # malformed: `_history` words the refusal
            return None
        if [(name, spec, conversion) for _, name, spec, conversion in parts
                if name is not None] != [(name, "", None) for name in _HISTORY_FIELDS]:
            return None
        return "".join(literal.replace("%", "%%") + ("" if name is None else "%d")
                       for literal, name, _, _ in parts).strip()


def load_templates() -> PromptTemplateSet:
    root = _asset_root() / "templates"

    def read(name: str) -> str:
        path = root / name
        if not path.exists():
            raise TemplateError(f"missing template asset {path}")
        return path.read_text(encoding="utf-8")

    return PromptTemplateSet(
        base=read("base.txt"),
        history_block=read("history.txt"),
        formula_blocks={
            E2: read("formula_guidance.txt"),
            E3: read("formula_guidance_risk_neutral.txt"),
        },
        helpful_info={
            E1: read("helpful_info_baseline.txt"),
            E2: read("helpful_info_full.txt"),
            E3: read("helpful_info_full.txt"),
        },
        distribution_descriptions={
            UNIFORM: read("dist_uniform.txt"),
            TRUNCATED_NORMAL: read("dist_normal.txt"),
            LOGNORMAL: read("dist_lognormal.txt"),
        },
        distribution_formulas={
            UNIFORM: read("dist_formula_uniform.txt"),
            TRUNCATED_NORMAL: read("dist_formula_normal.txt"),
            LOGNORMAL: read("dist_formula_lognormal.txt"),
        },
    )


@lru_cache(maxsize=1)
def default_templates() -> PromptTemplateSet:
    return load_templates()


@dataclass(frozen=True)
class RoundContext:
    """Everything the renderer needs for one round's prompt.

    Round 1 carries no feedback fields; from round 2 on, the previous round's
    order, demand, and profit must all be present. The renderer does not
    recompute profit -- values are formatted as given.
    """

    scenario: ScenarioConfig
    round_index: int
    last_order: int | None = None
    last_demand: int | None = None
    last_profit: float | None = None
    cumulative_profit: float = 0

    def __post_init__(self):
        if self.round_index < 1:
            raise ValueError("round_index is 1-based")
        feedback = (self.last_order, self.last_demand, self.last_profit)
        if self.round_index == 1 and any(v is not None for v in feedback):
            raise ValueError("round 1 must not carry feedback fields")
        if self.round_index > 1 and any(v is None for v in feedback):
            raise ValueError("rounds >= 2 need last_order, last_demand and last_profit")


class _Substitutions(dict):
    def __missing__(self, key):
        raise TemplateError(f"missing template variable '{key}'")


def _fill(template: str, values: dict[str, str]) -> str:
    try:
        return template.format_map(_Substitutions(values))
    except (IndexError, ValueError) as exc:
        raise TemplateError(f"malformed template placeholder: {exc}") from exc


# keyed on the scenario and the template set's identity, so a reloaded set is filled anew
@lru_cache(maxsize=64)
def _scenario_prompts(sc: ScenarioConfig, templates: PromptTemplateSet) -> "ScenarioPrompts":
    """``sc``'s prompts: the base template filled with its values, split at the history slot."""
    head, *tail = templates.base.split("{history_block}")
    if len(tail) != 1:
        raise TemplateError(
            f"the base template needs one {{history_block}} slot, it has {len(tail)}")
    dist = sc.demand
    values = {
        "a": fmt_int(dist.lower),
        "b": fmt_int(dist.upper),
        "mean": fmt_number(dist.midpoint),
        "std": f"{dist.sd_normal:.1f}",
    }
    description = _fill(templates.distribution_descriptions[dist.kind], values).strip()
    formula = ""
    if sc.experiment in templates.formula_blocks:
        dist_formula = _fill(templates.distribution_formulas[dist.kind], values).strip()
        formula = _fill(
            templates.formula_blocks[sc.experiment], {"distribution_formula": dist_formula}
        ).strip() + "\n\n"
    values = {
        "cost": fmt_int(sc.cost.cost),
        "demand_description": description,
        "helpful_info": templates.helpful_info[sc.experiment].strip(),
        "formula_block": formula,
    }
    return ScenarioPrompts(_fill(head, values), _fill(tail[0], values), templates)


def _history(templates: PromptTemplateSet, order, demand, profit, cumulative_profit) -> str:
    values = {"last_order": fmt_int(order), "last_demand": fmt_int(demand),
              "last_profit": fmt_francs(profit), "cumulative_profit": fmt_francs(cumulative_profit)}
    return _fill(templates.history_block, values).strip()


@dataclass(frozen=True)
class ScenarioPrompts:
    """One scenario's round prompts: its filled template halves and their template set."""

    head: str
    tail: str
    templates: PromptTemplateSet

    def render(self, last_order=None, last_demand=None, last_profit=None,
               cumulative_profit=None) -> str:
        """Round 1's prompt without ``last_order``, else one reporting the last round as given."""
        if last_order is None:
            return self.head + self.tail
        return self.head + _history(self.templates, last_order, last_demand, last_profit,
                                    cumulative_profit) + "\n" + self.tail

    @cached_property
    def _hashing(self) -> tuple:
        """A sha256 state over the head, the encoded newline and tail, and round 1's digest."""
        head = hashlib.sha256(self.head.encode("utf-8"))
        first = head.copy()
        first.update(self.tail.encode("utf-8"))
        return head, ("\n" + self.tail).encode("utf-8"), first.hexdigest()

    def sha256(self, last_order=None, last_demand=None, last_profit=None,
               cumulative_profit=None) -> str:
        """``sha256_text(self.render(...))`` of the same values, without joining the prompt."""
        head, tail, first = self._hashing
        if last_order is None:
            return first
        history_format = self.templates.history_format
        # exact ints only: `_history` formats a bool, a numpy integer or a float through a float
        if history_format is not None and (type(last_order) is type(last_demand)
                                           is type(last_profit) is type(cumulative_profit) is int):
            history = history_format % (last_order, last_demand, last_profit, cumulative_profit)
        else:
            history = _history(self.templates, last_order, last_demand, last_profit,
                                cumulative_profit)
        state = head.copy()
        state.update(history.encode("utf-8"))
        state.update(tail)
        return state.hexdigest()


def scenario_prompts(sc: ScenarioConfig) -> ScenarioPrompts:
    """``sc``'s round prompts under `default_templates`, filled once per scenario."""
    return _scenario_prompts(sc, default_templates())


def render_prompt(ctx: RoundContext) -> str:
    """Render one round's prompt; deterministic and locale-independent."""
    # a round-1 context carries no last_order, a later one carries all four values
    return scenario_prompts(ctx.scenario).render(ctx.last_order, ctx.last_demand,
                                                 ctx.last_profit, ctx.cumulative_profit)


@dataclass(frozen=True)
class GoldenCheck:
    name: str
    golden_file: str
    ok: bool
    diff: str


def golden_contexts() -> list[tuple[str, str, RoundContext]]:
    """The three pinned rendering contexts and their golden file names."""
    return [
        (
            "baseline high-margin uniform, round 1",
            "e1_high_uniform_round1.txt",
            RoundContext(scenario(E1, HIGH, UNIFORM), 1),
        ),
        (
            "formula low-margin normal, round 5",
            "e2_low_normal_round5.txt",
            RoundContext(
                scenario(E2, LOW, TRUNCATED_NORMAL),
                5,
                last_order=120,
                last_demand=85,
                last_profit=255,
                cumulative_profit=1450,
            ),
        ),
        (
            "risk-neutral high-margin uniform, round 1",
            "e3_high_uniform_round1.txt",
            RoundContext(scenario(E3, HIGH, UNIFORM), 1),
        ),
    ]


def validate_golden() -> list[GoldenCheck]:
    """Render the pinned contexts and diff byte-for-byte against the goldens."""
    golden_root = _asset_root() / "golden"
    checks = []
    for name, filename, ctx in golden_contexts():
        path = golden_root / filename
        if not path.exists():
            checks.append(GoldenCheck(name, filename, False, f"missing golden file {path}"))
            continue
        expected = path.read_text(encoding="utf-8")
        actual = render_prompt(ctx)
        if actual == expected:
            checks.append(GoldenCheck(name, filename, True, ""))
        else:
            diff = "\n".join(
                difflib.unified_diff(
                    expected.splitlines(),
                    actual.splitlines(),
                    fromfile=f"golden/{filename}",
                    tofile="rendered",
                    lineterm="",
                )
            )
            checks.append(GoldenCheck(name, filename, False, diff))
    return checks
