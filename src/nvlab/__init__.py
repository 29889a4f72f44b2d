"""Dynamic newsvendor ordering experiments for LLM and scripted agents.

The package splits into:

* `nvlab.model`   -- exact newsvendor economics and demand distributions
* `nvlab.prompts` -- byte-stable prompt rendering from text templates
* `nvlab.agents`  -- the LLM agent and four scripted metric oracles
* `nvlab.llm`     -- chat-completions HTTP client with retry and rate limits
* `nvlab.runner`  -- multi-round feedback sessions, persistence, resume
* `nvlab.metrics` -- bias, anchoring, efficiency, dynamics, learning measures
* `nvlab.report`  -- tables and figure data emitted as CSV + Markdown
* `nvlab.cli`     -- the ``nvlab`` command (run, simulate, report,
  validate-prompts)
"""

from .model import (
    CostStructure,
    DemandDistribution,
    InvalidScenarioError,
    ScenarioConfig,
    anchor,
    critical_fractile,
    expected_profit,
    optimal_quantity,
    profit,
    sample_sequence,
    scenario,
    support_pmf,
)
from .prompts import (
    PromptTemplateSet,
    TemplateError,
    default_templates,
    load_templates,
    render_prompt,
    validate_golden,
)
from .agents import (
    AgentSpec,
    AmbiguousDecisionError,
    Decision,
    decide,
    extract_order,
)
from .llm import AuthError, BudgetExceededError, ChatClient, ChatResult, TokenBucket, TransportError
from .runner import ExperimentPlan, PlanCondition, RunOutcome, derive_seed, resume, run_plan
from .store import IntegrityError, RoundRecord, RunStore, Trajectory
from .metrics import (
    BiasStats,
    LearningStats,
    bias_stats,
    classify_adjustments,
    learning_stats,
    mas,
    profit_efficiency,
    quartile_thresholds,
    word_frequencies,
)
from .report import build_report
from .config import ConfigError, RunConfig, build_plan

__version__ = "0.1.0"
