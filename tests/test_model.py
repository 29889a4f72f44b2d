import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nvlab
from nvlab import model
from nvlab.model import (
    DEFAULT_LOGNORMAL_LOG_MEAN,
    DEFAULT_LOGNORMAL_LOG_SD,
    CostStructure,
    DemandDistribution,
    InvalidScenarioError,
    anchor,
    critical_fractile,
    expected_profit,
    optimal_quantity,
    profit,
    sample_sequence,
    scenario,
    support_pmf,
)

HIGH_COST = CostStructure(12, 3)
LOW_COST = CostStructure(12, 9)
UNIFORM = DemandDistribution("uniform", 1, 300)
NORMAL = DemandDistribution("truncated-normal", 1, 300)
LOGNORMAL = DemandDistribution("lognormal", 1, 300)


# --- independent oracles (math.erf only, no scipy, pure-python loops) -------

def phi(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def oracle_truncated_cdf(dist, x):
    if dist.kind == "truncated-normal":
        raw = lambda v: phi((v - dist.midpoint) / dist.sd_normal)
    else:
        raw = lambda v: (phi((math.log(v) - DEFAULT_LOGNORMAL_LOG_MEAN) / DEFAULT_LOGNORMAL_LOG_SD)
                         if v > 0 else 0.0)
    lo, hi = raw(dist.lower), raw(dist.upper)
    if x < dist.lower:
        return 0.0
    if x >= dist.upper:
        return 1.0
    return (raw(x) - lo) / (hi - lo)


def oracle_pmf(dist):
    if dist.kind == "uniform":
        n = dist.upper - dist.lower + 1
        return {d: 1.0 / n for d in range(dist.lower, dist.upper + 1)}
    out = {}
    for d in range(dist.lower, dist.upper + 1):
        hi = 1.0 if d == dist.upper else oracle_truncated_cdf(dist, d + 0.5)
        lo = 0.0 if d == dist.lower else oracle_truncated_cdf(dist, d - 0.5)
        out[d] = hi - lo
    return out


def oracle_expected_profit(q, sc):
    total = 0.0
    for d, p in oracle_pmf(sc.demand).items():
        total += p * (sc.cost.price * min(q, d) - sc.cost.cost * q)
    return total


# --- profit and critical fractile -------------------------------------------

def test_profit_matches_feedback_example():
    assert profit(185, 210, HIGH_COST) == 1665


def test_profit_zero_order():
    assert profit(0, 100, HIGH_COST) == 0


def test_profit_direct_formula_low_margin():
    assert profit(100, 50, LOW_COST) == 12 * 50 - 9 * 100 == -300


def test_profit_rejects_negative_inputs():
    with pytest.raises(ValueError):
        profit(-1, 10, HIGH_COST)
    with pytest.raises(ValueError):
        profit(10, -1, HIGH_COST)


def test_profit_kink_at_demand():
    # piecewise-linear in q with the kink at q = d; profit(d, d) = (p - c) d
    for d in (1, 57, 300):
        assert profit(d, d, HIGH_COST) == (12 - 3) * d
        assert profit(d + 1, d, HIGH_COST) - profit(d, d, HIGH_COST) == -3
        assert profit(d, d, HIGH_COST) - profit(d - 1, d, HIGH_COST) == 9


def test_critical_fractile_values():
    assert critical_fractile(HIGH_COST) == 0.75
    assert critical_fractile(LOW_COST) == 0.25
    assert critical_fractile(CostStructure(12, 6)) == 0.5


def test_critical_fractile_decreases_in_cost():
    fractiles = [critical_fractile(CostStructure(12, c)) for c in range(1, 12)]
    assert all(a > b for a, b in zip(fractiles, fractiles[1:]))


def test_cost_structure_rejects_invalid():
    with pytest.raises(InvalidScenarioError):
        CostStructure(12, 12)
    with pytest.raises(InvalidScenarioError):
        CostStructure(12, 0)
    with pytest.raises(InvalidScenarioError):
        CostStructure(0, 3)


@pytest.mark.parametrize("value", [150.0, True, np.int64(150), 150.5, 255.25,
                                   np.int64(2**53 + 1), math.nan, math.inf], ids=repr)
def test_a_bound_price_or_cost_that_is_not_an_exact_int_is_refused(value):
    """The prompts spell bounds, price and cost with `str`, so each must be an exact int."""
    builds = {
        "lower": lambda v: DemandDistribution("uniform", v, 300),
        "upper": lambda v: DemandDistribution("uniform", 1, v),
        "price": lambda v: CostStructure(v, 3),
        "cost": lambda v: CostStructure(12, v),
    }
    for field, build in builds.items():
        with pytest.raises(InvalidScenarioError,
                           match=re.escape(f"{field} must be an exact int, got {value!r}")):
            build(value)


# --- optimal quantities ------------------------------------------------------

def test_optimal_quantity_uniform_baseline():
    assert optimal_quantity(scenario("E1-baseline", "high", "uniform")) == 225
    assert optimal_quantity(scenario("E1-baseline", "low", "uniform")) == 75


def test_optimal_quantity_uniform_risk_neutral():
    assert optimal_quantity(scenario("E3-risk-neutral", "high", "uniform")) == 1125
    assert optimal_quantity(scenario("E3-risk-neutral", "low", "uniform")) == 975


def test_optimal_quantity_truncated_normal():
    assert optimal_quantity(scenario("E1-baseline", "high", "truncated-normal")) == 184
    assert optimal_quantity(scenario("E1-baseline", "low", "truncated-normal")) == 117
    assert optimal_quantity(scenario("E3-risk-neutral", "high", "truncated-normal")) == 1084
    assert optimal_quantity(scenario("E3-risk-neutral", "low", "truncated-normal")) == 1017


def test_optimal_quantity_lognormal_from_fitted_quantiles():
    assert optimal_quantity(scenario("E1-baseline", "high", "lognormal")) == 165
    assert optimal_quantity(scenario("E1-baseline", "low", "lognormal")) == 135


def test_lognormal_fit_mean_near_midpoint():
    mean = math.exp(DEFAULT_LOGNORMAL_LOG_MEAN + DEFAULT_LOGNORMAL_LOG_SD**2 / 2)
    assert mean == pytest.approx(150.9, abs=0.05)


def test_lognormal_has_no_default_fit_outside_base_range():
    with pytest.raises(InvalidScenarioError, match=re.escape("calibration for [901, 1200]")):
        DemandDistribution("lognormal", 901, 1200)
    with pytest.raises(InvalidScenarioError, match="calibration"):
        scenario("E3-risk-neutral", "high", "lognormal")


def test_scenario_is_built_once_per_argument_types_and_a_refused_one_raises_every_time():
    assert scenario("E1-baseline", "low", "uniform", 3) is scenario("E1-baseline", "low",
                                                                     "uniform", 3)
    # 1, True and 1.0 are equal keys; each still gets its own scenario
    assert [type(scenario("E1-baseline", "low", "uniform", rounds).rounds)
            for rounds in (1, True, 1.0)] == [int, bool, float]
    for _ in range(3):
        with pytest.raises(InvalidScenarioError, match="calibration"):
            scenario("E3-risk-neutral", "high", "lognormal")
        with pytest.raises(InvalidScenarioError, match="rounds must be >= 1"):
            scenario("E1-baseline", "high", "uniform", 0)


def test_scenario_rejects_margin_fractile_mismatch():
    with pytest.raises(InvalidScenarioError):
        model.ScenarioConfig(HIGH_COST, UNIFORM, "E1-baseline", "low")


def test_scenario_risk_neutral_requires_shifted_range():
    with pytest.raises(InvalidScenarioError):
        model.ScenarioConfig(HIGH_COST, UNIFORM, "E3-risk-neutral", "high")


def test_anchor_is_range_midpoint():
    assert anchor(scenario("E1-baseline", "high", "uniform")) == 150.5
    assert anchor(scenario("E3-risk-neutral", "low", "uniform")) == 1050.5


# --- expected profit ---------------------------------------------------------

def test_expected_profit_order_covers_max_demand():
    sc = scenario("E1-baseline", "high", "uniform")
    assert expected_profit(300, sc) == pytest.approx(12 * 150.5 - 900)


def test_expected_profit_one_unit_always_sells():
    sc = scenario("E1-baseline", "high", "uniform")
    assert expected_profit(1, sc) == pytest.approx(9.0)


def test_expected_profit_uniform_matches_summation_oracle():
    sc = scenario("E1-baseline", "high", "uniform")
    assert expected_profit(225, sc) == pytest.approx(oracle_expected_profit(225, sc), rel=1e-12)


def test_expected_profit_agrees_with_oracle_across_support():
    for dist_kind in model.DIST_KINDS:
        for margin in ("high", "low"):
            sc = scenario("E1-baseline", margin, dist_kind)
            # spot-check a spread of orders; the acceptance suite sweeps all
            for q in (1, 50, 117, 150, 184, 225, 299, 300):
                got = expected_profit(q, sc)
                want = oracle_expected_profit(q, sc)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_expected_profit_monte_carlo_agreement():
    sc = scenario("E1-baseline", "high", "truncated-normal")
    draws = np.array(sample_sequence(sc.demand, 200_000, 3))
    for q in (117, 184, 250):
        mc = float(np.mean(12 * np.minimum(q, draws) - 3 * q))
        assert expected_profit(q, sc) == pytest.approx(mc, rel=5e-3)


def test_optimal_attains_exhaustive_scan_max():
    # exact ties exist at the critical fractile (the marginal unit there is
    # break-even), so compare against the scan max with float-noise slack
    tol = 1e-6
    for exp, kinds in (("E1-baseline", model.DIST_KINDS),
                       ("E3-risk-neutral", ("uniform", "truncated-normal"))):
        for kind in kinds:
            for margin in ("high", "low"):
                sc = scenario(exp, margin, kind)
                support, _ = support_pmf(sc.demand)
                values = [expected_profit(q, sc) for q in support]
                best_value = max(values)
                q_star = optimal_quantity(sc)
                assert expected_profit(q_star, sc) >= best_value - tol
                maximizers = [int(q) for q, v in zip(support, values) if v >= best_value - tol]
                if kind == "uniform":
                    assert q_star in maximizers
                else:
                    assert min(abs(q_star - q) for q in maximizers) <= 1


# --- discretized CDF ---------------------------------------------------------
# P(D <= q) of the integer-discretized distribution is the running sum of
# `support_pmf`; for the continuous kinds it is the truncated CDF at q + 0.5.

def discretized_cdf(dist, q):
    _, pmf = support_pmf(dist)
    return float(np.cumsum(pmf)[q - dist.lower])


def test_discretize_cdf_uniform():
    assert discretized_cdf(UNIFORM, 225) == pytest.approx(0.75)
    assert discretized_cdf(UNIFORM, 300) == pytest.approx(1.0)
    assert UNIFORM.cdf(225) == pytest.approx(0.75)
    assert UNIFORM.cdf(0) == 0.0


def test_discretize_cdf_truncated_normal_against_oracle():
    # mass up to 184 is the truncated CDF at 184.5 (oracle computed with math.erf)
    want = oracle_truncated_cdf(NORMAL, 184.5)
    assert discretized_cdf(NORMAL, 184) == pytest.approx(want, rel=1e-12)
    assert discretized_cdf(NORMAL, 184) == pytest.approx(0.7532, abs=5e-4)


def test_discretize_cdf_hits_edges_and_is_monotone():
    for dist in (UNIFORM, NORMAL, LOGNORMAL):
        assert dist.cdf(dist.lower - 1) == 0.0
        assert dist.cdf(dist.upper) == 1.0
        values = dist.cdf(np.arange(dist.lower, dist.upper + 1) + 0.5)
        assert np.all(np.diff(values) >= -1e-12)
        _, pmf = support_pmf(dist)
        assert np.all(pmf >= 0) and pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_discretize_cdf_matches_pmf_cumsum():
    for dist in (NORMAL, LOGNORMAL):
        for q in (1, 11, 151, 299):
            want = oracle_truncated_cdf(dist, q + 0.5)
            assert discretized_cdf(dist, q) == pytest.approx(float(dist.cdf(q + 0.5)), abs=1e-12)
            assert discretized_cdf(dist, q) == pytest.approx(want, abs=1e-12)


def test_quantile_inverts_cdf_within_one_step():
    for dist in (UNIFORM, NORMAL, LOGNORMAL):
        for x in (5, 60, 150, 151, 222, 280):
            assert abs(dist.quantile(discretized_cdf(dist, x)) - x) <= 1.0


# --- sampling ----------------------------------------------------------------

def test_sample_sequence_deterministic():
    assert sample_sequence(UNIFORM, 15, 123) == sample_sequence(UNIFORM, 15, 123)
    assert sample_sequence(UNIFORM, 15, 123) != sample_sequence(UNIFORM, 15, 124)


def test_sample_sequence_draws_in_range():
    for dist in (UNIFORM, NORMAL, LOGNORMAL):
        draws = sample_sequence(dist, 2000, 9)
        assert isinstance(draws, tuple) and len(draws) == 2000
        assert all(dist.lower <= d <= dist.upper for d in draws)
        assert all(isinstance(d, int) for d in draws)


def test_sample_sequence_uniform_mean_within_one_percent():
    assert np.mean(sample_sequence(UNIFORM, 100_000, 5)) == pytest.approx(150.5, rel=0.01)


def test_sample_sequence_truncated_normal_boundary_mass():
    draws = np.array(sample_sequence(NORMAL, 100_000, 5))
    boundary = np.mean((draws == 1) | (draws == 300))
    assert boundary <= 0.003


def test_sample_sequence_mean_tracks_pmf_mean():
    for dist in (NORMAL, LOGNORMAL):
        support, pmf = support_pmf(dist)
        assert np.mean(sample_sequence(dist, 100_000, 17)) == pytest.approx(float(support.dot(pmf)), rel=0.01)


def test_import_loads_no_scipy():
    code = "import sys, nvlab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(nvlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"
