from collections import Counter

import numpy as np
import pytest

from conftest import make_trajectory
from nvlab import metrics, report
from nvlab.agents import AgentSpec
from nvlab.metrics import (
    MetricsError,
    anchor_stats,
    bias_stats,
    classify_adjustments,
    learning_stats,
    mas,
    ols_line,
    profit_efficiency,
    quartile_thresholds,
    word_frequencies,
)
from nvlab.model import anchor, expected_profit, optimal_quantity, scenario
from nvlab.runner import ExperimentPlan, PlanCondition, run_plan

SC_HIGH = scenario("E1-baseline", "high", "uniform")
SC_LOW = scenario("E1-baseline", "low", "uniform")


def constant_traj(sc, order, rounds=15, demand=None):
    demands = [demand if demand is not None else min(order, sc.demand.upper)] * rounds
    return make_trajectory(sc, [order] * rounds, demands)


# --- bias --------------------------------------------------------------------

def test_bias_zero_for_optimal_orders():
    stats = bias_stats([constant_traj(SC_HIGH, 225)])
    assert stats.order_bias == 0.0
    assert stats.normalized_bias == 0.0


def test_bias_pools_rounds_and_repetitions():
    trajs = [make_trajectory(SC_HIGH, [180, 190], [100, 100]),
             make_trajectory(SC_HIGH, [200, 210], [100, 100], repetition=1)]
    stats = bias_stats(trajs)
    assert stats.mean_order == pytest.approx(195.0)
    assert stats.order_bias == pytest.approx(-30.0)
    assert stats.n_orders == 4


def test_bias_reported_deviation_high_margin():
    # mean order 182.42 against the optimum 225 -> deviation -42.58
    trajs = [make_trajectory(SC_HIGH, [182] * 58 + [183] * 42, [150] * 100)]
    stats = bias_stats(trajs)
    assert stats.mean_order == pytest.approx(182.42)
    assert stats.order_bias == pytest.approx(-42.58)


def test_bias_reported_deviation_low_margin_with_nb():
    trajs = [make_trajectory(SC_LOW, [175] * 75 + [176] * 25, [150] * 100)]
    stats = bias_stats(trajs)
    assert stats.order_bias == pytest.approx(100.25)
    assert stats.normalized_bias == pytest.approx(133.7, abs=0.05)


def test_bias_requires_consistent_scenarios():
    with pytest.raises(MetricsError):
        bias_stats([constant_traj(SC_HIGH, 200), constant_traj(SC_LOW, 200)])
    with pytest.raises(MetricsError):
        bias_stats([])


def test_bias_pools_scenarios_that_differ_only_in_length():
    short = scenario("E1-baseline", "high", "uniform", 3)
    stats = bias_stats([constant_traj(SC_HIGH, 200), constant_traj(short, 230, rounds=3)])
    assert stats.mean_order == pytest.approx((15 * 200 + 3 * 230) / 18)
    with pytest.raises(MetricsError):
        bias_stats([constant_traj(SC_HIGH, 200), constant_traj(SC_LOW, 200, rounds=3)])


# --- adjustment score --------------------------------------------------------

def test_mas_full_and_no_adjustment():
    assert mas(225, 150.5, 225) == pytest.approx(1.0)
    assert mas(150.5, 150.5, 225) == pytest.approx(0.0)
    assert mas(75, 150.5, 75) == pytest.approx(1.0)


def test_mas_recomputed_from_reported_means():
    assert mas(182.42, 150.5, 225) == pytest.approx(0.4284, abs=5e-4)


def test_mas_negative_when_adjusting_away():
    # low margin: optimum below the anchor, mean order above it
    assert mas(160, 150.5, 75) < 0


def test_mas_undefined_when_optimum_equals_anchor():
    assert mas(180, 150.5, 150.5) is None


def test_mas_shift_invariance():
    base = mas(182.42, 150.5, 225)
    shifted = mas(182.42 + 900, 150.5 + 900, 225 + 900)
    assert shifted == pytest.approx(base)


def test_anchor_stats_from_trajectories():
    assert anchor(SC_HIGH) == 150.5
    assert anchor_stats([constant_traj(SC_HIGH, 188)]) == pytest.approx(
        (188 - 150.5) / (225 - 150.5))


# --- profit efficiency -------------------------------------------------------

def test_pe_identity_at_optimum():
    assert profit_efficiency(225, SC_HIGH) == pytest.approx(100.0)


def test_pe_exceeds_100_for_suboptimal_order():
    pe = profit_efficiency(150, SC_HIGH)
    assert pe == pytest.approx(expected_profit(225, SC_HIGH) / expected_profit(150, SC_HIGH) * 100)
    assert pe > 100.0


def test_pe_undefined_for_nonpositive_expected_profit():
    # low-margin baseline: ordering the full range loses money in expectation
    assert expected_profit(300, SC_LOW) < 0
    assert profit_efficiency(300, SC_LOW) is None


# --- adjustment classification -----------------------------------------------

def test_classification_sign_rule():
    traj = make_trajectory(SC_HIGH, [90, 100, 95, 95], [120, 80, 95, 200])
    _, deltas, errors, codes = classify_adjustments([traj])
    directions = [metrics.DIRECTIONS[code] for code in codes.tolist()]
    assert directions == ["toward", "toward", "no-change"]
    assert deltas.tolist() == [10, -5, 0]
    assert errors.tolist() == [30, -20, 0]
    assert np.abs(deltas).tolist() == [10, 5, 0]


def test_classification_away_and_zero_error():
    traj = make_trajectory(SC_HIGH, [100, 90, 95], [120, 90, 90])
    codes = classify_adjustments([traj])[3]
    # order moved down after a shortage -> away; error zero -> no-change
    assert [metrics.DIRECTIONS[code] for code in codes.tolist()] == ["away", "no-change"]


def test_classification_partitions_all_rounds():
    rng = np.random.default_rng(0)
    orders = list(rng.integers(1, 301, size=15))
    demands = list(rng.integers(1, 301, size=15))
    _, _, _, codes = classify_adjustments([make_trajectory(SC_HIGH, orders, demands)])
    assert len(codes) == 14
    assert set(codes.tolist()) <= {-1, 0, 1}  # each round in exactly one of the DIRECTIONS


def test_quartile_thresholds_textbook_values():
    cuts = quartile_thresholds(range(1, 101))
    assert cuts == pytest.approx((25.75, 50.5, 75.25))


def test_quartile_constant_pool_is_all_q1():
    errors = classify_adjustments([make_trajectory(SC_HIGH, [100] * 5, [110] * 5)])[2]
    buckets = metrics.quartile_buckets(np.abs(errors), quartile_thresholds([10, 10, 10, 10]))
    assert buckets.tolist() == [0] * 4


def test_quartile_ties_go_low():
    buckets = metrics.quartile_buckets([5, 10, 15, 20], (10.0, 15.0, 18.0))
    assert [metrics.QUARTILES[b] for b in buckets.tolist()] == ["Q1", "Q1", "Q2", "Q4"]


def test_quartile_thresholds_need_four_values():
    with pytest.raises(MetricsError):
        quartile_thresholds([1, 2, 3])


def reference_events(trajectory):
    """(round, |prior error|, direction) of each adjustment, by the rule written out."""
    orders, demands = trajectory.orders, trajectory.demands
    out = []
    for t in range(1, len(orders)):
        delta = orders[t] - orders[t - 1]
        error = demands[t - 1] - orders[t - 1]
        if delta == 0 or error == 0:
            direction = "no-change"
        elif delta * error > 0:
            direction = "toward"
        else:
            direction = "away"
        out.append((t + 1, abs(error), direction))
    return out


def reference_quartile(value, cuts):
    c1, c2, c3 = cuts
    return "Q1" if value <= c1 else "Q2" if value <= c2 else "Q3" if value <= c3 else "Q4"


def random_group(seed):
    """Trajectories of one report group: mixed lengths, few distinct values, many ties."""
    rng = np.random.default_rng(seed)
    group = []
    for repetition in range(int(rng.integers(2, 7))):
        n = int(rng.integers(1, 9))
        orders = [int(q) for q in rng.integers(100, 104, size=n)]
        demands = [int(d) for d in rng.integers(98, 106, size=n)]
        group.append(make_trajectory(SC_HIGH, orders, demands, repetition=repetition))
    return group


def expected_cells(counts, key, total):
    """Percent cells of one table row from reference counts keyed (key, direction)."""
    return [f"{counts[key, d] / total * 100.0:.1f}" for d in ("no-change", "toward", "away")]


@pytest.mark.parametrize("seed", range(40))
def test_array_path_counts_match_the_event_path(seed):
    group = random_group(seed)
    events = [e for t in group for e in reference_events(t)]
    rounds, _, errors, codes = classify_adjustments(group)
    directions = [metrics.DIRECTIONS[c] for c in codes.tolist()]
    by_round = Counter((r, d) for r, _, d in events)
    assert Counter(zip(rounds.tolist(), directions)) == by_round
    round_totals = Counter(r for r, _, _ in events)
    rows = report.adjustment_share_rows(group)[1]
    assert [int(row[6]) for row in rows] == sorted(round_totals)
    for row in rows:
        total = round_totals[int(row[6])]
        assert row[7:] == [*expected_cells(by_round, int(row[6]), total), str(total)]

    if len(events) < 4:
        with pytest.raises(MetricsError):
            quartile_thresholds(np.abs(errors))
        assert report.quartile_rows(group)[1] == []
        return
    cuts = quartile_thresholds(e for _, e, _ in events)
    by_quartile = Counter((reference_quartile(e, cuts), d) for _, e, d in events)
    buckets = metrics.quartile_buckets(np.abs(errors), quartile_thresholds(np.abs(errors)))
    quartiles = [metrics.QUARTILES[b] for b in buckets.tolist()]
    assert Counter(zip(quartiles, directions)) == by_quartile
    quartile_totals = Counter(reference_quartile(e, cuts) for _, e, _ in events)
    rows = report.quartile_rows(group)[1]
    assert [row[4] for row in rows] == list(metrics.QUARTILES)
    for row in rows:
        total = quartile_totals[row[4]]
        cells = expected_cells(by_quartile, row[4], total) if total else ["", "", ""]
        assert row[5:9] == [*cells, str(total)]


def test_random_groups_cover_the_edge_cases():
    """The seeds above mix lengths, hit cuts exactly, and hold zero deltas and errors."""
    mixed = ties = zero_delta = zero_error = 0
    for seed in range(40):
        group = random_group(seed)
        mixed += len({len(t.orders) for t in group}) > 1
        _, deltas, errors, _ = classify_adjustments(group)
        zero_delta += int((deltas == 0).sum())
        zero_error += int((errors == 0).sum())
        if errors.size >= 4:
            cuts = quartile_thresholds(np.abs(errors))
            ties += bool(np.isin(np.abs(errors), cuts).any())
    assert mixed >= 30 and ties >= 20 and zero_delta and zero_error


def test_chaser_simulation_is_all_toward_with_rising_share(tmp_path):
    agent = AgentSpec("demand-chaser", chase_rate=0.5)
    plan = ExperimentPlan(tuple(
        PlanCondition("E1-baseline", "uniform", agent, oc, repetitions=3, base_seed=3)
        for oc in ("high-first", "low-first")
    ))
    outcome = run_plan(plan, tmp_path / "run")
    _, _, errors, codes = classify_adjustments(outcome.trajectories)
    assert (errors != 0).any()
    assert (codes[errors != 0] == 1).all()
    abs_errors = np.abs(errors)
    buckets = metrics.quartile_buckets(abs_errors, quartile_thresholds(abs_errors))
    q1_toward, q4_toward = ((codes[buckets == b] == 1).mean() for b in (0, 3))
    assert q4_toward >= q1_toward


# --- regression helpers and learning -----------------------------------------

def test_ols_recovers_exact_line():
    slope, intercept, r2, degenerate = ols_line([1, 2, 3, 4], [3, 5, 7, 9])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)
    assert not degenerate


def test_ols_r2_bounded():
    rng = np.random.default_rng(1)
    for _ in range(25):
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        _, _, r2, _ = ols_line(x, y)
        assert 0.0 <= r2 <= 1.0


def test_ols_flags_zero_variance():
    slope, _, r2, degenerate = ols_line([1, 1, 1], [1, 2, 3])
    assert (slope, r2, degenerate) == (0.0, 0.0, True)
    slope, _, r2, degenerate = ols_line([1, 2, 3], [4, 4, 4])
    assert (slope, r2, degenerate) == (0.0, 0.0, True)


def test_learning_flat_series_has_zero_slopes():
    stats = learning_stats([constant_traj(SC_HIGH, 225, rounds=15, demand=150)])[0]
    assert stats.convergence_slope == 0.0
    assert stats.efficiency_slope == 0.0
    assert stats.delta_r2 == 0.0
    assert stats.early_degenerate and stats.late_degenerate


def test_learning_exact_linear_convergence():
    # |q_t - q*| = 100 - 2t
    orders = [225 - (100 - 2 * t) for t in range(1, 16)]
    stats = learning_stats([make_trajectory(SC_HIGH, orders, [150] * 15)])[0]
    assert stats.convergence_slope == pytest.approx(-2.0)


def test_learning_chase_switch_delta_r2(tmp_path):
    agent = AgentSpec("demand-chaser", chase_rate=1.0, switch_round=8)
    plan = ExperimentPlan((
        PlanCondition("E1-baseline", "uniform", agent, "high-first",
                      repetitions=2, base_seed=5),
    ))
    outcome = run_plan(plan, tmp_path / "run")
    for traj in outcome.trajectories:
        stats = learning_stats([traj])[0]
        assert stats.early_degenerate and stats.early_r2 == 0.0
        assert stats.late_r2 == pytest.approx(1.0)
        assert stats.delta_r2 > 0.5


def test_learning_needs_three_rounds():
    assert learning_stats([make_trajectory(SC_HIGH, [1, 2], [1, 2])]) == [None]


def reference_ols_line(x, y):
    """The one-sample fit written out with 1-D numpy calls."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sxx = float(np.var(x))
    syy = float(np.var(y))
    if sxx == 0.0:
        return 0.0, float(np.mean(y)), 0.0, True
    sxy = float(np.mean((x - x.mean()) * (y - y.mean())))
    slope = sxy / sxx
    intercept = float(y.mean() - slope * x.mean())
    if syy == 0.0:
        return slope, intercept, 0.0, True
    return slope, intercept, float(min(sxy * sxy / (sxx * syy), 1.0)), False


def reference_learning_stats(trajectory):
    """`learning_stats` of one trajectory, one 1-D fit and one PE call at a time."""
    sc, orders, demands = trajectory.scenario, trajectory.orders, trajectory.demands
    rounds = np.arange(1, len(orders) + 1)
    q_star = optimal_quantity(sc)
    convergence, _, _, _ = reference_ols_line(rounds, [abs(q - q_star) for q in orders])
    points = [(t, profit_efficiency(q, sc)) for t, q in zip(rounds, orders)]
    points = [(t, pe) for t, pe in points if pe is not None]
    efficiency = (reference_ols_line([t for t, _ in points], [pe for _, pe in points])[0]
                  if len(points) >= 2 else None)
    deltas = np.diff(orders)
    errors = np.array(demands[:-1]) - np.array(orders[:-1])
    early = np.arange(2, len(orders) + 1) < metrics.EARLY_LATE_SPLIT_ROUND
    _, _, early_r2, early_degenerate = reference_ols_line(errors[early], deltas[early])
    _, _, late_r2, late_degenerate = reference_ols_line(errors[~early], deltas[~early])
    return metrics.LearningStats(convergence, efficiency, late_r2 - early_r2, early_r2, late_r2,
                                 early_degenerate, late_degenerate)


def mixed_learning_group():
    """Low-margin trajectories: one constant, two with PE-undefined rounds, three ordinary."""
    rng = np.random.default_rng(7)
    demands = [int(d) for d in rng.integers(1, 301, size=15)]
    # orders near 300 have a nonpositive expected profit at c=9, so their PE is undefined
    partly_undefined = [80, 300, 120, 290, 100, 300, 95, 60, 300, 110, 70, 295, 90, 85, 75]
    one_defined = [300] * 14 + [100]
    ordinary = [[int(q) for q in rng.integers(40, 200, size=15)] for _ in range(3)]
    orders = [[150] * 15, partly_undefined, *ordinary[:2], one_defined, ordinary[2]]
    return [make_trajectory(SC_LOW, o, demands, repetition=r) for r, o in enumerate(orders)]


def test_learning_matches_the_one_dimensional_fits_bit_for_bit():
    group = mixed_learning_group()
    stats = [learning_stats([t])[0] for t in group]
    assert stats == [reference_learning_stats(t) for t in group]
    assert stats[0].early_degenerate and stats[0].late_degenerate
    assert stats[0].delta_r2 == 0.0
    assert stats[4].efficiency_slope is None
    assert profit_efficiency(300, SC_LOW) is None
    assert stats[1].efficiency_slope is not None  # fitted on the defined rounds only
    assert all(s.efficiency_slope is not None for s in (stats[2], stats[3], stats[5]))


def mean_learning_stats(stats):
    efficiency = [s.efficiency_slope for s in stats if s.efficiency_slope is not None]
    return {
        "convergence_slope": float(np.mean([s.convergence_slope for s in stats])),
        "efficiency_slope": float(np.mean(efficiency)) if efficiency else None,
        "delta_r2": float(np.mean([s.delta_r2 for s in stats])),
        "n_trajectories": len(stats),
    }


def test_average_learning_stats_is_the_mean_of_the_per_trajectory_stats():
    group = mixed_learning_group()
    assert metrics.average_learning_stats(group) == mean_learning_stats(
        [learning_stats([t])[0] for t in group])


def test_average_learning_stats_of_mixed_scenarios_and_lengths_keeps_input_order():
    group = mixed_learning_group()
    short = make_trajectory(SC_HIGH, [200, 210, 190, 225, 230, 220, 224, 226, 225, 225],
                            [150, 260, 40, 210, 280, 120, 90, 250, 230, 200])
    mixed = [group[1], short, group[0], group[2]]
    reference = [reference_learning_stats(t) for t in mixed]
    assert metrics.learning_stats(mixed) == reference  # fitted in two blocks, returned in order
    assert metrics.average_learning_stats(mixed) == mean_learning_stats(reference)


def test_learning_group_with_a_short_trajectory_raises():
    group = mixed_learning_group() + [make_trajectory(SC_LOW, [100] * 9, [100] * 9)]
    with pytest.raises(MetricsError):  # nine rounds leave two in the late stage
        metrics.average_learning_stats(group)


def test_ols_line_degenerate_cases_are_unchanged():
    assert ols_line([1, 1, 1], [1, 2, 3]) == (0.0, 2.0, 0.0, True)
    assert ols_line([1, 2, 3], [4, 4, 4]) == (0.0, 4.0, 0.0, True)
    assert ols_line([2, 2], [5, 5]) == (0.0, 5.0, 0.0, True)
    assert ols_line([1, 2, 4], [3, 3, 3]) == (0.0, 3.0, 0.0, True)
    for fit in (ols_line([1, 1, 1], [1, 2, 3]), ols_line([1, 2, 3], [1, 3, 2])):
        assert [type(v) for v in fit] == [float, float, float, bool]
    rng = np.random.default_rng(3)
    for n in (2, 6, 8, 14, 15, 30):
        x, y = rng.normal(size=n), rng.normal(size=n)
        assert ols_line(x, y) == reference_ols_line(x, y)
    for x, y in (([1], [1]), ([1, 2], [1, 2, 3]), ([], [])):
        with pytest.raises(MetricsError):
            ols_line(x, y)


# --- word frequencies ---------------------------------------------------------

def test_word_frequencies_counts_and_ranks():
    ranked = word_frequencies(["balance risk", "balance profit"])
    assert ranked[0] == ("balance", 2)
    assert dict(ranked)["risk"] == 1
    assert dict(ranked)["profit"] == 1


def test_word_frequencies_empty_and_stopword_only():
    assert word_frequencies([]) == []
    assert word_frequencies(["the and of", "a an the"]) == []


def test_word_frequencies_of_repeated_texts_match_a_per_text_count():
    texts = ["Order 120, balance the risk.", "balance profit", "Order 120, balance the risk.",
             "risk, risk", "profit balance", "Order 120, balance the risk.", "zeta alpha", ""]
    stopwords = metrics.default_stopwords()
    naive: dict = {}
    for text in texts:
        for token in metrics._WORD.findall(text.lower()):
            if token not in stopwords:
                naive[token] = naive.get(token, 0) + 1
    expected = sorted(naive.items(), key=lambda item: (-item[1], item[0]))
    assert word_frequencies(texts) == expected
    assert expected[:3] == [("balance", 5), ("risk", 5), ("order", 3)]  # a tie ranks by term
    assert expected[-2:] == [("alpha", 1), ("zeta", 1)] and "the" not in dict(expected)
    assert word_frequencies(iter(texts)) == expected


def test_word_frequencies_case_folds_and_strips_punctuation():
    ranked = word_frequencies(["Balance, BALANCE; balance!"])
    assert ranked == [("balance", 3)]
