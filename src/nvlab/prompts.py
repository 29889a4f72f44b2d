"""Prompt rendering for the ordering experiment.

Templates live as UTF-8 text assets (LF endings, one trailing newline) under
``assets/templates`` and are filled with named ``{placeholder}`` slots. Three
golden prompts under ``assets/golden`` pin the rendered output byte-for-byte;
`validate_golden` diffs the renderer against them.

`render_prompt(sc, last_order, last_demand, last_profit, cumulative_profit)`
is the one renderer: round 1's prompt without feedback values, else the one
after a round with those outcomes, which must be exact ints. It joins the
`ScenarioPrompts` that the runner looks up once per block: the base template
split at its one ``{history_block}`` slot, both halves filled once per
scenario and template set (cost, demand description, helpful info, formula
block) and cached, and the history block as a ``%d`` format between them.
`ScenarioPrompts.sha256` hashes the same bytes without joining them: a copy of a
cached state over the head takes the history, then the tail (round 1: cached).
So the goldens pin the bytes the runner sends to a chat endpoint and hashes.

Formatting rules the goldens rely on:

* integers render plain (`str`), no thousands separators, exactly even past
  2**53; a scenario's bounds, price and cost are exact ints by construction;
* the truncated-normal standard deviation renders to one decimal ("49.8")
  even though the internal value is 49.8333...;
* the advertised demand mean is the range midpoint ("150.5" / "1050.5");
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


def fmt_number(value) -> str:
    """Plain decimal rendering: 150.5 -> '150.5', 150.0 -> '150'."""
    x = float(value)
    if x == int(x):
        return str(int(x))
    return repr(x)


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


class _Substitutions(dict):
    def __missing__(self, key):
        raise TemplateError(f"missing template variable '{key}'")


def _fill(template: str, values: dict[str, str]) -> str:
    try:
        return template.format_map(_Substitutions(values))
    except (IndexError, ValueError) as exc:
        raise TemplateError(f"malformed template placeholder: {exc}") from exc


def _history_format(block: str) -> str:
    """``block`` as a %-format, ``%d`` per value, stripped and newline-ended as prompts hold it.

    Refused unless the block names the four values once each, in `_HISTORY_FIELDS`
    order, without a conversion or format spec; a literal ``%`` is escaped.
    """
    try:
        parts = list(Formatter().parse(block))
    except ValueError as exc:
        raise TemplateError(f"malformed template placeholder: {exc}") from exc
    if [(name, spec, conversion) for _, name, spec, conversion in parts
            if name is not None] != [(name, "", None) for name in _HISTORY_FIELDS]:
        raise TemplateError("the history block must name {last_order}, {last_demand}, "
                            "{last_profit} and {cumulative_profit} once each, in that order, "
                            "without a conversion or format spec")
    return "".join(literal.replace("%", "%%") + ("" if name is None else "%d")
                   for literal, name, _, _ in parts).strip() + "\n"


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
        "a": str(dist.lower),
        "b": str(dist.upper),
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
        "cost": str(sc.cost.cost),
        "demand_description": description,
        "helpful_info": templates.helpful_info[sc.experiment].strip(),
        "formula_block": formula,
    }
    return ScenarioPrompts(_fill(head, values), _history_format(templates.history_block),
                           _fill(tail[0], values))


@dataclass(frozen=True)
class ScenarioPrompts:
    """One scenario's round prompts: its filled template halves and history %-format."""

    head: str
    history: str
    tail: str

    def fill_history(self, last_order=None, last_demand=None, last_profit=None,
                     cumulative_profit=None) -> str:
        """The history text after a round with these outcomes; round 1 (no values) has none."""
        if last_order is last_demand is last_profit is cumulative_profit is None:
            return ""
        # one chained test, cheaper than all(...) on the path every round's hash takes
        if type(last_order) is type(last_demand) is type(last_profit) is type(
                cumulative_profit) is int:
            return self.history % (last_order, last_demand, last_profit, cumulative_profit)
        raise TemplateError("feedback values must be four exact ints or none, got "
                            f"{(last_order, last_demand, last_profit, cumulative_profit)!r}")

    @cached_property
    def _hashing(self) -> tuple:
        """A sha256 state over the head, the encoded tail, and round 1's digest."""
        head = hashlib.sha256(self.head.encode("utf-8"))
        first = head.copy()
        first.update(self.tail.encode("utf-8"))
        return head, self.tail.encode("utf-8"), first.hexdigest()

    def sha256(self, last_order=None, last_demand=None, last_profit=None,
               cumulative_profit=None) -> str:
        """``sha256_text(render_prompt(sc, ...))`` of the same values, without joining it."""
        head, tail, first = self._hashing
        if type(last_order) is type(last_demand) is type(last_profit) is type(
                cumulative_profit) is int:  # `fill_history`'s test, without its call
            state = head.copy()
            state.update((self.history % (last_order, last_demand, last_profit,
                                          cumulative_profit)).encode("utf-8"))
            state.update(tail)
            return state.hexdigest()
        # round 1 (no values) has no history; any other values raise TemplateError
        return self.fill_history(last_order, last_demand, last_profit, cumulative_profit) or first


def scenario_prompts(sc: ScenarioConfig) -> ScenarioPrompts:
    """``sc``'s round prompts under `default_templates`, filled once per scenario."""
    return _scenario_prompts(sc, default_templates())


def render_prompt(sc: ScenarioConfig, last_order=None, last_demand=None, last_profit=None,
                  cumulative_profit=None) -> str:
    """One round's prompt: round 1's without feedback values, else the one after those outcomes.

    Deterministic and locale-independent; a feedback value that is not an exact
    ``int`` raises TemplateError.
    """
    prompts = scenario_prompts(sc)
    return prompts.head + prompts.fill_history(last_order, last_demand, last_profit,
                                               cumulative_profit) + prompts.tail


@dataclass(frozen=True)
class GoldenCheck:
    name: str
    golden_file: str
    ok: bool
    diff: str


def golden_contexts() -> list[tuple[str, str, ScenarioConfig, tuple]]:
    """The three pinned renderings: name, golden file, scenario and feedback values."""
    return [
        ("baseline high-margin uniform, round 1", "e1_high_uniform_round1.txt",
         scenario(E1, HIGH, UNIFORM), ()),
        ("formula low-margin normal, round 5", "e2_low_normal_round5.txt",
         scenario(E2, LOW, TRUNCATED_NORMAL), (120, 85, 255, 1450)),
        ("risk-neutral high-margin uniform, round 1", "e3_high_uniform_round1.txt",
         scenario(E3, HIGH, UNIFORM), ()),
    ]


def validate_golden() -> list[GoldenCheck]:
    """Render the pinned contexts and diff byte-for-byte against the goldens."""
    golden_root = _asset_root() / "golden"
    checks = []
    for name, filename, sc, feedback in golden_contexts():
        path = golden_root / filename
        if not path.exists():
            checks.append(GoldenCheck(name, filename, False, f"missing golden file {path}"))
            continue
        expected = path.read_text(encoding="utf-8")
        actual = render_prompt(sc, *feedback)
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
