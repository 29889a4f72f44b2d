"""Quantitative measures over persisted trajectories.

All functions here are pure: recomputing them from the stored JSONL
reproduces a report bit-for-bit.

Conventions worth knowing before reading the code:

* Order bias OB = q_bar - q*, normalized bias NB = OB / q* * 100.
* The adjustment score is (q_bar - A) / (q* - A) with A the demand-mean
  anchor: 1 means the mean order fully traversed the anchor-to-optimum
  distance, 0 means it never left the anchor. It is undefined (None) when
  q* equals A. (The reciprocal (q* - A) / (q_bar - A) diverges as q_bar
  approaches A, so it is not offered.)
* Profit efficiency PE = E[pi(q*)] / E[pi(q)] * 100, so values above 100
  mean the chosen order earns less than the optimum. PE is undefined
  (None) when the denominator is not positive. A group's PE is its mean
  order's; `bias_stats` checks a group's scenario, `anchor_stats` reuses it.
* A round-to-round adjustment is classified by sign(delta * prior_error):
  toward demand when positive, away when negative, no-change when either is
  zero. A group's adjustments are classified at once (`adjustment_arrays`
  masks out round 1 of each trajectory, so lengths may mix and a 1-round
  trajectory adds none). `quartile_buckets` places each |prior error|
  among the `quartile_thresholds` cuts; one equal to a cut goes to the
  lower quartile. `classify_adjustments` is the one-trajectory view.
* Learning is summarized by the OLS slope of |q_t - q*| on t, the OLS slope
  of PE_t on t, and the change in error responsiveness: R^2 of (delta_t on
  prior error) over the late rounds (8-15) minus the same over the early
  rounds (1-7). A zero-variance regressor or response pins R^2 to 0 and
  sets a flag.
* Learning fits run row-wise, once per (scenario, length) over what they
  are given: the trajectories that share both are stacked into arrays, and
  each measure is one row-wise OLS over them. ``ols_line`` is that fit on
  one row. Row-wise numpy reductions give the same bits as the 1-D ones, so
  a report, which fits all its trajectories at once, does not change.
* Per-round PE is memoised per (scenario, order), each entry the exact
  ``profit_efficiency`` value, so a report computes each distinct order's
  expected profit once.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
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
    if not trajectories:
        raise MetricsError("no trajectories given")
    sc = trajectories[0].scenario
    for t in trajectories[1:]:
        # trajectories of different lengths (runs with different rounds) pool
        if t.scenario != sc and replace(t.scenario, rounds=sc.rounds) != sc:
            raise MetricsError("trajectories mix different scenarios")
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
    mas: float | None  # None when undefined


def mas(mean_order: float, anchor_value: float, optimal: float) -> AnchorStats:
    """Adjustment score (q_bar - A) / (q* - A) from the anchor toward the optimum.

    Identical algebra covers both margins (for low margin both numerator and
    denominator flip sign). Undefined (None) when q* equals A.
    """
    if optimal == anchor_value:
        return AnchorStats(anchor_value, None)
    return AnchorStats(anchor_value, (mean_order - anchor_value) / (optimal - anchor_value))


def anchor_stats(trajectories: list[Trajectory]) -> AnchorStats:
    """`mas` of one scenario block's mean order (`bias_stats` checks the scenario)."""
    stats = bias_stats(trajectories)
    return mas(stats.mean_order, anchor(trajectories[0].scenario), stats.optimal)


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


# ---------------------------------------------------------------------------
# adjustment dynamics


@dataclass(frozen=True)
class AdjustmentEvent:
    round_index: int
    delta: int
    prior_error: int
    direction: str
    magnitude: int


def adjustment_arrays(trajectories: list[Trajectory]) -> tuple[np.ndarray, ...]:
    """(round index, delta, prior error, direction code) of each round t >= 2 of a group.

    The code is sign(delta) * sign(prior error): 1 toward, -1 away, 0 no-change,
    so ``DIRECTIONS[code]`` names it and ``code % 3`` is its place in ``DIRECTIONS``.
    """
    round_index = np.concatenate([np.arange(1, len(t.orders) + 1) for t in trajectories])
    orders = np.array([q for t in trajectories for q in t.orders])
    demands = np.array([d for t in trajectories for d in t.demands])
    # round 1 of a trajectory has no prior round; the pair before it spans two trajectories
    later = round_index[1:] > 1
    delta = np.diff(orders)[later]
    error = (demands[:-1] - orders[:-1])[later]
    return round_index[1:][later], delta, error, (np.sign(delta) * np.sign(error)).astype(int)


def classify_adjustments(trajectory: Trajectory) -> list[AdjustmentEvent]:
    """One event per round t >= 2: the one-trajectory view of `adjustment_arrays`."""
    columns = (column.tolist() for column in adjustment_arrays([trajectory]))
    return [AdjustmentEvent(round_index, delta, error, DIRECTIONS[code], abs(delta))
            for round_index, delta, error, code in zip(*columns)]


def quartile_thresholds(abs_errors) -> tuple[float, float, float]:
    """25th/50th/75th percentile cuts (linear interpolation) of |prior error|."""
    values = np.asarray(list(abs_errors), dtype=float)
    if values.size < 4:
        raise MetricsError(f"need at least 4 pooled errors for quartiles, got {values.size}")
    c1, c2, c3 = np.percentile(values, [25.0, 50.0, 75.0])
    return float(c1), float(c2), float(c3)


def quartile_buckets(abs_errors, thresholds: tuple[float, float, float]) -> np.ndarray:
    """Quartile position (0 for Q1 .. 3 for Q4) of each |prior error|; ties go low."""
    return np.searchsorted(np.asarray(thresholds, dtype=float), abs_errors, side="left")


def direction_shares(events: list[AdjustmentEvent]) -> dict[str, float]:
    """Percent shares of the three directions; always sums to 100."""
    if not events:
        raise MetricsError("no adjustment events")
    counts = Counter(e.direction for e in events)
    total = len(events)
    return {d: counts.get(d, 0) / total * 100.0 for d in DIRECTIONS}


# ---------------------------------------------------------------------------
# learning over rounds


def _ols_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """`ols_line` on each row of two C-contiguous float arrays of equal shape.

    Row-wise reductions give the same bits as the 1-D calls on each row.
    """
    x_mean = x.mean(axis=1)
    y_mean = y.mean(axis=1)
    sxx = np.var(x, axis=1)
    syy = np.var(y, axis=1)
    sxy = np.mean((x - x_mean[:, None]) * (y - y_mean[:, None]), axis=1)
    flat_x = sxx == 0.0
    degenerate = flat_x | (syy == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(flat_x, 0.0, sxy / sxx)
        r2 = np.where(degenerate, 0.0, np.minimum(sxy * sxy / (sxx * syy), 1.0))
    intercept = np.where(flat_x, y_mean, y_mean - slope * x_mean)
    return slope, intercept, r2, degenerate


def ols_line(x, y) -> tuple[float, float, float, bool]:
    """Least-squares fit with intercept: (slope, intercept, r_squared, degenerate).

    A zero-variance regressor or response cannot support the fit; slope and
    r_squared are reported as 0 with the degenerate flag set.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise MetricsError("need two equal-length samples of size >= 2")
    slope, intercept, r2, degenerate = _ols_rows(x.reshape(1, -1), y.reshape(1, -1))
    return float(slope[0]), float(intercept[0]), float(r2[0]), bool(degenerate[0])


@dataclass(frozen=True)
class LearningStats:
    convergence_slope: float
    efficiency_slope: float | None
    delta_r2: float
    early_r2: float
    late_r2: float
    early_degenerate: bool
    late_degenerate: bool


@lru_cache(maxsize=64)
def _efficiency_memo(sc: ScenarioConfig) -> dict:
    """order -> `profit_efficiency(order, sc)`, filled as orders are met.

    Kept, like `optimal_quantity`, for the 64 scenarios used last; an entry
    holds at most one value per integer order.
    """
    return {}


def _learning_block(trajectories: list[Trajectory]) -> list[LearningStats] | None:
    """`learning_stats` of trajectories that share a scenario and a length, row by row."""
    sc = trajectories[0].scenario
    n = len(trajectories[0].orders)
    early = np.arange(2, n + 1) < EARLY_LATE_SPLIT_ROUND
    if min(early.sum(), (~early).sum()) < 3:
        return None  # too short: each stage needs three adjustments
    orders = np.array([t.orders for t in trajectories])
    demands = np.array([t.demands for t in trajectories])
    rounds = np.arange(1, n + 1, dtype=float)
    every_row = np.tile(rounds, (len(trajectories), 1))
    convergence = _ols_rows(every_row, np.abs(orders - optimal_quantity(sc)).astype(float))[0]

    memo = _efficiency_memo(sc)
    for q in {q for t in trajectories for q in t.orders} - memo.keys():
        memo[q] = profit_efficiency(q, sc)
    # an undefined PE (None) becomes nan; its round is left out of the row's fit
    pe = np.array([[memo[q] for q in t.orders] for t in trajectories], dtype=float)
    defined = ~np.isnan(pe)
    full = defined.all(axis=1)
    efficiency = [None] * len(trajectories)
    slopes = _ols_rows(every_row[full], pe[full])[0]
    for row, slope in zip(np.flatnonzero(full).tolist(), slopes.tolist()):
        efficiency[row] = slope
    for row in np.flatnonzero(~full).tolist():
        if defined[row].sum() >= 2:
            efficiency[row] = ols_line(rounds[defined[row]], pe[row, defined[row]])[0]

    deltas = np.diff(orders, axis=1).astype(float)     # delta for rounds 2..n
    errors = (demands[:, :-1] - orders[:, :-1]).astype(float)
    stages = []
    for mask in (early, ~early):
        _, _, r2, degenerate = _ols_rows(errors[:, mask], deltas[:, mask])
        stages += [r2.tolist(), degenerate.tolist()]
    early_r2, early_degenerate, late_r2, late_degenerate = stages
    return [
        LearningStats(convergence_slope, efficiency_slope, late - early, early, late,
                      early_flat, late_flat)
        for convergence_slope, efficiency_slope, early, late, early_flat, late_flat in zip(
            convergence.tolist(), efficiency, early_r2, late_r2, early_degenerate, late_degenerate)
    ]


def _learning(trajectories: list[Trajectory]) -> list[LearningStats | None]:
    """`learning_stats` of each trajectory in input order (None if too short), once per block."""
    blocks: dict = {}
    for position, t in enumerate(trajectories):
        blocks.setdefault((t.scenario, len(t.orders)), []).append(position)
    out: list = [None] * len(trajectories)
    for positions in blocks.values():
        for position, stats in zip(positions,
                                   _learning_block([trajectories[p] for p in positions]) or ()):
            out[position] = stats
    return out


def _fitted(stats: list) -> list[LearningStats]:
    if None in stats:
        raise MetricsError("need three adjustments per stage for learning statistics")
    return stats


def learning_stats(trajectory: Trajectory) -> LearningStats:
    """Per-trajectory learning summary.

    The convergence slope regresses |q_t - q*| on t and the efficiency slope
    regresses the per-round PE_t on t (rounds whose PE is undefined are
    dropped; the slope is None when fewer than two remain). Delta R^2
    contrasts the error-responsiveness fits of the late and early stages.
    """
    return _fitted(_learning([trajectory]))[0]


def average_learning_stats(trajectories: list[Trajectory]) -> dict:
    """Per-trajectory learning statistics averaged across the repetitions of one condition:
    the per-group reference, fitted alone, that tests hold `report.learning_rows` to."""
    return mean_learning_stats(_learning(trajectories))


def mean_learning_stats(stats: list) -> dict:
    """The mean of `_learning` fits, in their order; MetricsError if one is None."""
    stats = _fitted(stats)
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
    # runs repeat their rationales, so each distinct text is tokenised once
    for text, repeats in Counter(texts).items():
        for token in _WORD.findall(text.lower()):
            if token not in stopwords:
                counts[token] += repeats
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))
