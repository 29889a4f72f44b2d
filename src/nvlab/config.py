"""Run configuration: a single JSON file, env-var override for the secret.

The defaults reproduce the full condition grid -- every experiment variant
crossed with the uniform and truncated-normal demand models, both
presentation orders, 10 repetitions of two 15-round blocks. The lognormal
model is opt-in (its baseline-range calibration does not extend to the
risk-neutral range). The credential itself never lives in the config file,
only the name of the environment variable that holds it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

from . import model
from .agents import AgentSpec
from .runner import LLM_WORKERS, ORDER_CONDITIONS, ExperimentPlan, PlanCondition
from .store import mistyped

# short names; a full name (model.EXPERIMENTS, model.DIST_KINDS) stands for itself
EXPERIMENT_ALIASES = {"E1": model.E1, "E2": model.E2, "E3": model.E3}
DIST_ALIASES = {"normal": model.TRUNCATED_NORMAL}

DEFAULT_DISTRIBUTIONS = (model.UNIFORM, model.TRUNCATED_NORMAL)


class ConfigError(ValueError):
    """A configuration field is missing or invalid; the message names it."""


def _refuse_repeats(name: str, values, label=repr):
    """Raise ConfigError naming ``name`` and the first of ``values`` given twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{name}: {label(value)} is given twice")


@dataclass
class RunConfig:
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    models: tuple[str, ...] = ("gpt-4",)
    credential_env: str = "OPENAI_API_KEY"
    experiments: tuple[str, ...] = model.EXPERIMENTS
    distributions: tuple[str, ...] = DEFAULT_DISTRIBUTIONS
    order_conditions: tuple[str, ...] = ORDER_CONDITIONS
    repetitions: int = 10
    rounds: int = 15
    base_seed: int = 0
    output_dir: str = "runs"
    temperature: float = 1.0
    transcript_continuity: bool = True
    max_retries: int = 3
    backoff_base: float = 0.5
    request_budget: int | None = None  # chat requests per run directory, over all its conditions
    rate_limit_per_minute: float | None = None
    # repetitions decided at once; providers cap concurrent requests per key
    concurrency: int = LLM_WORKERS

    def __post_init__(self):
        if problem := mistyped(RunConfig, vars(self)):
            raise ConfigError("{0}: must be {2}, got {1!r}".format(*problem))
        self.models = tuple(self.models)
        self.experiments = tuple(EXPERIMENT_ALIASES.get(e, e) for e in self.experiments)
        self.distributions = tuple(DIST_ALIASES.get(d, d) for d in self.distributions)
        self.order_conditions = tuple(self.order_conditions)
        for exp in self.experiments:
            if exp not in model.EXPERIMENTS:
                raise ConfigError(f"experiments: unknown experiment {exp!r}")
        for dist in self.distributions:
            if dist not in model.DIST_KINDS:
                raise ConfigError(f"distributions: unknown distribution {dist!r}")
        for order in self.order_conditions:
            if order not in ORDER_CONDITIONS:
                raise ConfigError(f"order_conditions: unknown order condition {order!r}")
        for name in ("models", "experiments", "distributions", "order_conditions"):
            _refuse_repeats(name, getattr(self, name))  # an alias and its name are one value
        for name in ("models", "experiments", "distributions", "order_conditions", "endpoint",
                     "credential_env"):
            if not getattr(self, name):
                raise ConfigError(f"{name}: must not be empty")
        try:  # urlsplit refuses an unclosed IPv6 literal
            url = urlsplit(self.endpoint)
        except ValueError:
            url = None
        if url is None or url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigError(f"endpoint: must be an http or https URL with a host, "
                              f"got {self.endpoint!r}")
        for name, low in (("repetitions", 1), ("rounds", 1), ("temperature", 0),
                          ("max_retries", 0), ("concurrency", 1), ("backoff_base", 0)):
            if not low <= (value := getattr(self, name)) < math.inf:  # a NaN fails too
                raise ConfigError(f"{name}: must be >= {low} and finite, got {value}")
        if not 0 <= self.base_seed < 2**63:  # `derive_seed` keeps 63 bits: no two alias
            raise ConfigError(f"base_seed: must be >= 0 and < 2**63, got {self.base_seed}")
        for name in ("request_budget", "rate_limit_per_minute"):  # None: no limit
            if (value := getattr(self, name)) is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name}: must be > 0 and finite, or null, got {value}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"the config must be a JSON object, got {type(data).__name__}")
        if unknown := sorted(data.keys() - cls.__dataclass_fields__.keys()):
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: Path | str) -> "RunConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (ValueError, RecursionError) as exc:  # bad bytes, too deep or too many digits
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def build_plan(config: RunConfig, agents: list[AgentSpec]) -> ExperimentPlan:
    """Expand the config grid for the given agents into an executable plan."""
    if not agents:
        raise ConfigError("agents: at least one agent is required")
    _refuse_repeats("agents", agents, lambda agent: repr(agent.label))
    conditions = []
    for agent in agents:
        for experiment in config.experiments:
            for dist in config.distributions:
                # no defined scenario: lognormal has no risk-neutral calibration
                if experiment == model.E3 and dist == model.LOGNORMAL:
                    continue
                for order_condition in config.order_conditions:
                    conditions.append(
                        PlanCondition(
                            experiment=experiment,
                            dist_kind=dist,
                            agent=agent,
                            order_condition=order_condition,
                            repetitions=config.repetitions,
                            rounds_per_block=config.rounds,
                            base_seed=config.base_seed,
                        )
                    )
    if not conditions:
        raise ConfigError("experiments/distributions: the grid is empty")
    return ExperimentPlan(tuple(conditions), config.transcript_continuity)
