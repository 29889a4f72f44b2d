"""Quantitative measures over persisted trajectories.

All functions here are pure: recomputing them from the stored JSONL
reproduces a report bit-for-bit.

Conventions worth knowing before reading the code:

* Order bias OB = q_bar - q*, normalized bias NB = OB / q* * 100.
* The adjustment score is (q_bar - A) / (q* - A) with A the demand-mean
  anchor: 1 means the mean order fully traversed the anchor-to-optimum
  distance, 0 means it never left the anchor. The reciprocal form
  (q* - A) / (q_bar - A) is available behind ``reciprocal`` for
  audits; it diverges as q_bar approaches A, so it is not the default.
* Profit efficiency PE = E[pi(q*)] / E[pi(q)] * 100, so values above 100
  mean the chosen order earns less than the optimum. PE is undefined
  (None) when the denominator is not positive.
* A round-to-round adjustment is classified by sign(delta * prior_error):
  toward demand when positive, away when negative. A zero delta -- and the
  zero-prior-error case, which makes the product zero -- counts as
  no-change, so the three shares always partition the rounds.
* Learning is summarized by the OLS slope of |q_t - q*| on t, the OLS slope
  of PE_t on t, and the change in error responsiveness: R^2 of (delta_t on
  prior error) over the late rounds (8-15) minus the same over the early
  rounds (1-7). A zero-variance regressor or response pins R^2 to 0 and
  sets a flag.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import ScenarioConfig, anchor, expected_profit, optimal_quantity
from .store import Trajectory

TOWARD = "toward"
AWAY = "away"
NO_CHANGE = "no-change"
DIRECTIONS = (NO_CHANGE, TOWARD, AWAY)

QUARTILES = ("Q1", "Q2", "Q3", "Q4")

EARLY_LATE_SPLIT_ROUND = 8  # early stage: rounds < 8; late stage: rounds >= 8


class MetricsError(ValueError):
    """Inputs do not support the requested metric."""


def _check_same_scenario(trajectories: list[Trajectory]) -> ScenarioConfig:
    if not trajectories:
        raise MetricsError("no trajectories given")
    sc = trajectories[0].scenario
    for t in trajectories[1:]:
        if t.scenario != sc:
            raise MetricsError("trajectories mix different scenarios")
    return sc


# ---------------------------------------------------------------------------
# core bias measures


@dataclass(frozen=True)
class BiasStats:
    mean_order: float
    optimal: int
    order_bias: float
    normalized_bias: float
    n_orders: int


def bias_stats(trajectories: list[Trajectory]) -> BiasStats:
    """Mean order across all rounds and repetitions of one scenario block."""
    sc = _check_same_scenario(trajectories)
    orders = [o for t in trajectories for o in t.orders]
    if not orders:
        raise MetricsError("trajectories contain no rounds")
    q_star = optimal_quantity(sc)
    mean_order = float(np.mean(orders))
    ob = mean_order - q_star
    return BiasStats(mean_order, q_star, ob, ob / q_star * 100.0, len(orders))


@dataclass(frozen=True)
class AnchorStats:
    anchor: float
    mas: float | None
    undefined: bool
    margin: str | None = None


def mas(mean_order: float, anchor_value: float, optimal: float,
        margin: str | None = None, reciprocal: bool = False) -> AnchorStats:
    """Adjustment score from the anchor toward the optimum.

    Default orientation: (q_bar - A) / (q* - A); identical algebra covers
    both margins (for low margin both numerator and denominator flip sign).
    Undefined when q* equals A (or, for the reciprocal audit form, when
    q_bar equals A).
    """
    if reciprocal:
        if mean_order == anchor_value:
            return AnchorStats(anchor_value, None, True, margin)
        return AnchorStats(
            anchor_value, (optimal - anchor_value) / (mean_order - anchor_value), False, margin
        )
    if optimal == anchor_value:
        return AnchorStats(anchor_value, None, True, margin)
    return AnchorStats(
        anchor_value, (mean_order - anchor_value) / (optimal - anchor_value), False, margin
    )


def anchor_stats(trajectories: list[Trajectory], reciprocal: bool = False) -> AnchorStats:
    sc = _check_same_scenario(trajectories)
    stats = bias_stats(trajectories)
    return mas(stats.mean_order, anchor(sc), stats.optimal, sc.margin, reciprocal)


def profit_efficiency(order: float, sc: ScenarioConfig) -> float | None:
    """Optimal over actual expected profit, in percent; None when undefined.

    Values exceed 100% for suboptimal orders (when both expectations are
    positive); a nonpositive denominator -- possible in the low-margin
    baseline for extreme orders -- yields None.
    """
    denominator = expected_profit(order, sc)
    if denominator <= 0:
        return None
    return expected_profit(optimal_quantity(sc), sc) / denominator * 100.0


def mean_order_profit_efficiency(trajectories: list[Trajectory]) -> float | None:
    sc = _check_same_scenario(trajectories)
    return profit_efficiency(bias_stats(trajectories).mean_order, sc)


# ---------------------------------------------------------------------------
# adjustment dynamics


@dataclass(frozen=True)
class AdjustmentEvent:
    round_index: int
    delta: int
    prior_error: int
    direction: str
    magnitude: int
    quartile: str | None = None


def classify_adjustments(trajectory: Trajectory) -> list[AdjustmentEvent]:
    """One event per round t >= 2, classified by sign(delta * prior_error)."""
    orders, demands = trajectory.orders, trajectory.demands
    if len(orders) < 2:
        raise MetricsError("need at least two rounds to classify adjustments")
    events = []
    for t in range(1, len(orders)):
        delta = orders[t] - orders[t - 1]
        error = demands[t - 1] - orders[t - 1]
        if delta == 0 or error == 0:
            direction = NO_CHANGE
        elif delta * error > 0:
            direction = TOWARD
        else:
            direction = AWAY
        events.append(AdjustmentEvent(t + 1, delta, error, direction, abs(delta)))
    return events


def quartile_thresholds(abs_errors) -> tuple[float, float, float]:
    """25th/50th/75th percentile cuts (linear interpolation) of |prior error|."""
    values = np.asarray(list(abs_errors), dtype=float)
    if values.size < 4:
        raise MetricsError(f"need at least 4 pooled errors for quartiles, got {values.size}")
    c1, c2, c3 = np.percentile(values, [25.0, 50.0, 75.0])
    return float(c1), float(c2), float(c3)


def assign_quartiles(events: list[AdjustmentEvent],
                     thresholds: tuple[float, float, float]) -> list[AdjustmentEvent]:
    """Bucket events by |prior error|; ties go to the lower quartile."""
    c1, c2, c3 = thresholds
    out = []
    for event in events:
        magnitude = abs(event.prior_error)
        if magnitude <= c1:
            quartile = "Q1"
        elif magnitude <= c2:
            quartile = "Q2"
        elif magnitude <= c3:
            quartile = "Q3"
        else:
            quartile = "Q4"
        out.append(AdjustmentEvent(event.round_index, event.delta, event.prior_error,
                                   event.direction, event.magnitude, quartile))
    return out


def direction_shares(events: list[AdjustmentEvent]) -> dict[str, float]:
    """Percent shares of the three directions; always sums to 100."""
    if not events:
        raise MetricsError("no adjustment events")
    counts = Counter(e.direction for e in events)
    total = len(events)
    return {d: counts.get(d, 0) / total * 100.0 for d in DIRECTIONS}


# ---------------------------------------------------------------------------
# learning over rounds


def ols_line(x, y) -> tuple[float, float, float, bool]:
    """Least-squares fit with intercept: (slope, intercept, r_squared, degenerate).

    A zero-variance regressor or response cannot support the fit; slope and
    r_squared are reported as 0 with the degenerate flag set.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise MetricsError("need two equal-length samples of size >= 2")
    sxx = float(np.var(x))
    syy = float(np.var(y))
    if sxx == 0.0:
        return 0.0, float(np.mean(y)), 0.0, True
    sxy = float(np.mean((x - x.mean()) * (y - y.mean())))
    slope = sxy / sxx
    intercept = float(y.mean() - slope * x.mean())
    if syy == 0.0:
        return slope, intercept, 0.0, True
    r2 = sxy * sxy / (sxx * syy)
    return slope, intercept, float(min(r2, 1.0)), False


@dataclass(frozen=True)
class LearningStats:
    convergence_slope: float
    efficiency_slope: float | None
    delta_r2: float
    early_r2: float
    late_r2: float
    early_degenerate: bool
    late_degenerate: bool


def learning_stats(trajectory: Trajectory) -> LearningStats:
    """Per-trajectory learning summary.

    The convergence slope regresses |q_t - q*| on t and the efficiency slope
    regresses the per-round PE_t on t (rounds whose PE is undefined are
    dropped; the slope is None when fewer than two remain). Delta R^2
    contrasts the error-responsiveness fits of the late and early stages.
    """
    sc = trajectory.scenario
    orders = trajectory.orders
    if len(orders) < 3:
        raise MetricsError("need at least three rounds for learning statistics")
    demands = trajectory.demands
    rounds = np.arange(1, len(orders) + 1)
    q_star = optimal_quantity(sc)

    convergence_slope, _, _, _ = ols_line(rounds, [abs(q - q_star) for q in orders])

    pe_points = [(t, profit_efficiency(q, sc)) for t, q in zip(rounds, orders)]
    pe_points = [(t, pe) for t, pe in pe_points if pe is not None]
    if len(pe_points) >= 2:
        efficiency_slope, _, _, _ = ols_line([t for t, _ in pe_points], [pe for _, pe in pe_points])
    else:
        efficiency_slope = None

    deltas = np.diff(orders)                      # delta for rounds 2..n
    errors = np.array(demands[:-1]) - np.array(orders[:-1])
    t_index = np.arange(2, len(orders) + 1)
    early = t_index < EARLY_LATE_SPLIT_ROUND
    late = ~early

    def stage_r2(mask):
        if mask.sum() < 3:
            raise MetricsError("need at least three rounds per stage for delta R^2")
        _, _, r2, degenerate = ols_line(errors[mask], deltas[mask])
        return r2, degenerate

    early_r2, early_degenerate = stage_r2(early)
    late_r2, late_degenerate = stage_r2(late)
    return LearningStats(
        convergence_slope=convergence_slope,
        efficiency_slope=efficiency_slope,
        delta_r2=late_r2 - early_r2,
        early_r2=early_r2,
        late_r2=late_r2,
        early_degenerate=early_degenerate,
        late_degenerate=late_degenerate,
    )


def average_learning_stats(trajectories: list[Trajectory]) -> dict:
    """Per-trajectory learning statistics averaged across the repetitions of one condition."""
    stats = [learning_stats(t) for t in trajectories]
    efficiency = [s.efficiency_slope for s in stats if s.efficiency_slope is not None]
    return {
        "convergence_slope": float(np.mean([s.convergence_slope for s in stats])),
        "efficiency_slope": float(np.mean(efficiency)) if efficiency else None,
        "delta_r2": float(np.mean([s.delta_r2 for s in stats])),
        "n_trajectories": len(stats),
    }


# ---------------------------------------------------------------------------
# rationale text


_WORD = re.compile(r"[a-z]+(?:'[a-z]+)?")


def default_stopwords() -> frozenset[str]:
    path = Path(__file__).resolve().parent / "assets" / "stopwords.txt"
    return frozenset(w.strip() for w in path.read_text(encoding="utf-8").split() if w.strip())


def word_frequencies(texts, stopwords=None) -> list[tuple[str, int]]:
    """Case-folded unigram counts minus stopwords, ranked by count then term."""
    if stopwords is None:
        stopwords = default_stopwords()
    counts: Counter = Counter()
    for text in texts:
        for token in _WORD.findall(text.lower()):
            if token not in stopwords:
                counts[token] += 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))
