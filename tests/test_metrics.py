import numpy as np
import pytest

from conftest import make_trajectory
from nvlab import metrics
from nvlab.agents import AgentSpec
from nvlab.metrics import (
    MetricsError,
    anchor_stats,
    bias_stats,
    classify_adjustments,
    direction_shares,
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


# --- adjustment score --------------------------------------------------------

def test_mas_full_and_no_adjustment():
    assert mas(225, 150.5, 225).mas == pytest.approx(1.0)
    assert mas(150.5, 150.5, 225).mas == pytest.approx(0.0)
    assert mas(75, 150.5, 75, margin="low").mas == pytest.approx(1.0)


def test_mas_recomputed_from_reported_means():
    stats = mas(182.42, 150.5, 225)
    assert stats.mas == pytest.approx(0.4284, abs=5e-4)


def test_mas_negative_when_adjusting_away():
    # low margin: optimum below the anchor, mean order above it
    assert mas(160, 150.5, 75, margin="low").mas < 0


def test_mas_undefined_when_optimum_equals_anchor():
    stats = mas(180, 150.5, 150.5)
    assert stats.undefined and stats.mas is None


def test_mas_shift_invariance():
    base = mas(182.42, 150.5, 225).mas
    shifted = mas(182.42 + 900, 150.5 + 900, 225 + 900).mas
    assert shifted == pytest.approx(base)


def test_mas_reciprocal_orientation_for_audits():
    default = mas(182.42, 150.5, 225).mas
    audit = mas(182.42, 150.5, 225, reciprocal=True).mas
    assert audit == pytest.approx(1.0 / default)
    assert mas(150.5, 150.5, 225, reciprocal=True).undefined


def test_anchor_stats_from_trajectories():
    stats = anchor_stats([constant_traj(SC_HIGH, 188)])
    assert stats.anchor == 150.5
    assert stats.mas == pytest.approx((188 - 150.5) / (225 - 150.5))


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
    events = classify_adjustments(traj)
    assert [e.direction for e in events] == ["toward", "toward", "no-change"]
    assert [e.delta for e in events] == [10, -5, 0]
    assert [e.prior_error for e in events] == [30, -20, 0]
    assert [e.magnitude for e in events] == [10, 5, 0]


def test_classification_away_and_zero_error():
    traj = make_trajectory(SC_HIGH, [100, 90, 95], [120, 90, 90])
    events = classify_adjustments(traj)
    # order moved down after a shortage -> away; error zero -> no-change
    assert [e.direction for e in events] == ["away", "no-change"]


def test_classification_partitions_all_rounds():
    rng = np.random.default_rng(0)
    orders = list(rng.integers(1, 301, size=15))
    demands = list(rng.integers(1, 301, size=15))
    events = classify_adjustments(make_trajectory(SC_HIGH, orders, demands))
    assert len(events) == 14
    shares = direction_shares(events)
    assert sum(shares.values()) == pytest.approx(100.0)


def test_quartile_thresholds_textbook_values():
    cuts = quartile_thresholds(range(1, 101))
    assert cuts == pytest.approx((25.75, 50.5, 75.25))


def test_quartile_constant_pool_is_all_q1():
    events = classify_adjustments(make_trajectory(SC_HIGH, [100] * 5, [110] * 5))
    tagged = metrics.assign_quartiles(events, quartile_thresholds([10, 10, 10, 10]))
    assert all(e.quartile == "Q1" for e in tagged)


def test_quartile_ties_go_low():
    events = [metrics.AdjustmentEvent(2, 1, err, "toward", 1) for err in (5, 10, 15, 20)]
    tagged = metrics.assign_quartiles(events, (10.0, 15.0, 18.0))
    assert [e.quartile for e in tagged] == ["Q1", "Q1", "Q2", "Q4"]


def test_quartile_thresholds_need_four_values():
    with pytest.raises(MetricsError):
        quartile_thresholds([1, 2, 3])


def test_chaser_simulation_is_all_toward_with_rising_share(tmp_path):
    agent = AgentSpec("demand-chaser", chase_rate=0.5)
    plan = ExperimentPlan(tuple(
        PlanCondition("E1-baseline", "uniform", agent, oc, repetitions=3, base_seed=3)
        for oc in ("high-first", "low-first")
    ))
    outcome = run_plan(plan, tmp_path / "run")
    events = []
    for traj in outcome.trajectories:
        events.extend(classify_adjustments(traj))
    nonzero = [e for e in events if e.prior_error != 0]
    assert nonzero
    assert all(e.direction == "toward" for e in nonzero)
    cuts = quartile_thresholds([abs(e.prior_error) for e in events])
    tagged = metrics.assign_quartiles(events, cuts)
    q1 = direction_shares([e for e in tagged if e.quartile == "Q1"])
    q4 = direction_shares([e for e in tagged if e.quartile == "Q4"])
    assert q4["toward"] >= q1["toward"]


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
    stats = learning_stats(constant_traj(SC_HIGH, 225, rounds=15, demand=150))
    assert stats.convergence_slope == 0.0
    assert stats.efficiency_slope == 0.0
    assert stats.delta_r2 == 0.0
    assert stats.early_degenerate and stats.late_degenerate


def test_learning_exact_linear_convergence():
    # |q_t - q*| = 100 - 2t
    orders = [225 - (100 - 2 * t) for t in range(1, 16)]
    stats = learning_stats(make_trajectory(SC_HIGH, orders, [150] * 15))
    assert stats.convergence_slope == pytest.approx(-2.0)


def test_learning_chase_switch_delta_r2(tmp_path):
    agent = AgentSpec("demand-chaser", chase_rate=1.0, switch_round=8)
    plan = ExperimentPlan((
        PlanCondition("E1-baseline", "uniform", agent, "high-first",
                      repetitions=2, base_seed=5),
    ))
    outcome = run_plan(plan, tmp_path / "run")
    for traj in outcome.trajectories:
        stats = learning_stats(traj)
        assert stats.early_degenerate and stats.early_r2 == 0.0
        assert stats.late_r2 == pytest.approx(1.0)
        assert stats.delta_r2 > 0.5


def test_learning_needs_three_rounds():
    with pytest.raises(MetricsError):
        learning_stats(make_trajectory(SC_HIGH, [1, 2], [1, 2]))


# --- word frequencies ---------------------------------------------------------

def test_word_frequencies_counts_and_ranks():
    ranked = word_frequencies(["balance risk", "balance profit"], stopwords=frozenset())
    assert ranked[0] == ("balance", 2)
    assert dict(ranked)["risk"] == 1
    assert dict(ranked)["profit"] == 1


def test_word_frequencies_empty_and_stopword_only():
    assert word_frequencies([]) == []
    assert word_frequencies(["the and of", "a an the"]) == []


def test_word_frequencies_case_folds_and_strips_punctuation():
    ranked = word_frequencies(["Balance, BALANCE; balance!"], stopwords=frozenset())
    assert ranked == [("balance", 3)]
