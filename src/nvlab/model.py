"""Newsvendor economics and demand models.

Single-period inventory problem: pick an integer order quantity q before a
random integer demand d realizes. Unsold units are worthless, unmet demand is
lost, so realized profit is ``p * min(q, d) - c * q``. The optimal order sits
at the critical fractile eta = (p - c) / p of the demand distribution.

Three demand families are supported on an integer range [a, b]:

* uniform      -- equal mass on every integer in {a..b}
* truncated-normal -- normal with mean (a+b)/2 and sd (b-a)/6, renormalized
                  over [a, b], then discretized by rounding to the nearest
                  integer
* lognormal    -- right-skewed; log-space parameters are fixed so the
                  25th/75th percentiles land on 135 and 165 (mean ~= 150.9).
                  That calibration exists for the [1, 300] range only;
                  renormalized and discretized the same way

A distribution is named by its kind and range, ``DemandDistribution(kind,
lower, upper)``, and a standard condition by `scenario`. `sample_sequence`
returns a block's seeded demand draws as a tuple of ints, drawn once per process.

Everything here is pure and immutable; values are safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

UNIFORM = "uniform"
TRUNCATED_NORMAL = "truncated-normal"
LOGNORMAL = "lognormal"
DIST_KINDS = (UNIFORM, TRUNCATED_NORMAL, LOGNORMAL)

E1 = "E1-baseline"
E2 = "E2-formula"
E3 = "E3-risk-neutral"
EXPERIMENTS = (E1, E2, E3)

HIGH = "high"
LOW = "low"

PRICE = 12
COST_HIGH_MARGIN = 3
COST_LOW_MARGIN = 9
BASE_RANGE = (1, 300)
RISK_NEUTRAL_RANGE = (901, 1200)
DEFAULT_ROUNDS = 15


def ndtr(z):
    """Standard normal CDF, elementwise. erfc keeps its precision deep in the lower tail."""
    return 0.5 * _elementwise(math.erfc, -np.asarray(z, dtype=float) / math.sqrt(2.0))


def ndtri(p):
    """Inverse of `ndtr`, elementwise."""
    return _elementwise(NormalDist().inv_cdf, p)


def _elementwise(fn, x):
    x = np.asarray(x, dtype=float)
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


class InvalidScenarioError(ValueError):
    """Raised when economic or demand parameters are inconsistent."""


def _require_ints(**values):
    """Refuse a value that is not an exact int; the prompts spell these values with `str`."""
    for name, value in values.items():
        if type(value) is not int:
            raise InvalidScenarioError(f"{name} must be an exact int, got {value!r}")


@dataclass(frozen=True)
class CostStructure:
    """Unit price and cost in francs. Salvage is fixed at zero."""

    price: int
    cost: int

    def __post_init__(self):
        _require_ints(price=self.price, cost=self.cost)
        if self.price <= 0:
            raise InvalidScenarioError(f"price must be positive, got {self.price}")
        if not 0 < self.cost < self.price:
            raise InvalidScenarioError(
                f"cost must lie strictly between 0 and price, got cost={self.cost} price={self.price}"
            )


def critical_fractile(cs: CostStructure) -> float:
    """Service-level quantile (p - c) / p at which the optimal order sits."""
    return (cs.price - cs.cost) / cs.price


def profit(order: int, demand: int, cs: CostStructure) -> int:
    """Realized profit p * min(q, d) - c * q for one round."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if demand < 0:
        raise ValueError(f"demand must be nonnegative, got {demand}")
    return cs.price * min(order, demand) - cs.cost * order


# Default lognormal calibration for the [1, 300] range: the log-space mean and sd
# that put the quartiles at 135 and 165, ln(165) = mu + z * sd and ln(135) = mu - z * sd.
DEFAULT_LOGNORMAL_LOG_MEAN = (math.log(165.0) + math.log(135.0)) / 2.0
DEFAULT_LOGNORMAL_LOG_SD = (math.log(165.0) - math.log(135.0)) / (2.0 * ndtri(0.75))


@dataclass(frozen=True)
class DemandDistribution:
    """Integer demand on [lower, upper] under one of the three families.

    The lognormal kind exists only on [1, 300], where ln-demand before
    truncation is normal with ``DEFAULT_LOGNORMAL_LOG_MEAN``/``_SD``.
    """

    kind: str
    lower: int
    upper: int

    def __post_init__(self):
        _require_ints(lower=self.lower, upper=self.upper)
        if self.kind not in DIST_KINDS:
            raise InvalidScenarioError(f"unknown distribution kind {self.kind!r}")
        if not self.lower < self.upper:
            raise InvalidScenarioError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if self.kind == LOGNORMAL and (self.lower, self.upper) != BASE_RANGE:
            raise InvalidScenarioError(
                f"no default lognormal calibration for [{self.lower}, {self.upper}]")

    @property
    def sd_normal(self) -> float:
        """Scale (b - a) / 6, putting ~99.7% of the untruncated mass in range."""
        return (self.upper - self.lower) / 6.0

    @property
    def midpoint(self) -> float:
        """(a + b) / 2: the demand-mean anchor and the truncated-normal location."""
        return (self.lower + self.upper) / 2.0

    @property
    def size(self) -> int:
        return self.upper - self.lower + 1

    def _raw_cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == TRUNCATED_NORMAL:
            return ndtr((x - self.midpoint) / self.sd_normal)
        if self.kind == LOGNORMAL:
            logx = np.where(x > 0, np.log(np.maximum(x, 1e-300)), -np.inf)
            return ndtr((logx - DEFAULT_LOGNORMAL_LOG_MEAN) / DEFAULT_LOGNORMAL_LOG_SD)
        raise InvalidScenarioError("uniform kind has no continuous CDF")

    def cdf(self, x) -> float | np.ndarray:
        """Continuous CDF after truncation to [lower, upper] (renormalized).

        For the uniform kind this is the discrete CDF (q - a + 1) / (b - a + 1)
        evaluated at floor(x).
        """
        if self.kind == UNIFORM:
            q = np.floor(np.asarray(x, dtype=float))
            out = np.clip((q - self.lower + 1) / self.size, 0.0, 1.0)
            return float(out) if out.ndim == 0 else out
        lo, hi = self._raw_cdf(self.lower), self._raw_cdf(self.upper)
        raw = np.clip((self._raw_cdf(x) - lo) / (hi - lo), 0.0, 1.0)
        x = np.asarray(x, dtype=float)
        raw = np.where(x < self.lower, 0.0, np.where(x >= self.upper, 1.0, raw))
        return float(raw) if raw.ndim == 0 else raw

    def quantile(self, p) -> float | np.ndarray:
        """Inverse CDF. Integer-valued for uniform, continuous otherwise."""
        p = np.asarray(p, dtype=float)
        if np.any((p < 0) | (p > 1)):
            raise ValueError("quantile argument must lie in [0, 1]")
        if self.kind == UNIFORM:
            # smallest q in {a..b} with discrete CDF >= p (tiny slack for float fuzz)
            k = np.ceil(p * self.size - 1e-12)
            q = self.lower - 1 + np.clip(k, 1, self.size)
            return float(q) if q.ndim == 0 else q
        lo, hi = self._raw_cdf(self.lower), self._raw_cdf(self.upper)
        target = lo + p * (hi - lo)
        z = ndtri(np.clip(target, 1e-300, 1 - 1e-16))
        if self.kind == TRUNCATED_NORMAL:
            x = self.midpoint + self.sd_normal * z
        else:
            x = np.exp(DEFAULT_LOGNORMAL_LOG_MEAN + DEFAULT_LOGNORMAL_LOG_SD * z)
        x = np.clip(x, self.lower, self.upper)
        return float(x) if x.ndim == 0 else x


@lru_cache(maxsize=64)
def support_pmf(dist: DemandDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Integer support {a..b} and its probability mass under ``dist``.

    Continuous kinds are discretized by rounding: integer d gets the truncated
    CDF mass of [d - 0.5, d + 0.5], with the end bins absorbing the half-step
    beyond the range so the mass sums to exactly one.
    """
    support = np.arange(dist.lower, dist.upper + 1)
    if dist.kind == UNIFORM:
        return support, np.full(dist.size, 1.0 / dist.size)
    hi = dist.cdf(support + 0.5)
    lo = dist.cdf(support - 0.5)
    pmf = np.where(support == dist.lower, hi, np.where(support == dist.upper, 1.0 - lo, hi - lo))
    return support, pmf


@dataclass(frozen=True)
class ScenarioConfig:
    """One experimental condition: cost structure, demand model, variant, margin."""

    cost: CostStructure
    demand: DemandDistribution
    experiment: str
    margin: str
    rounds: int = DEFAULT_ROUNDS

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidScenarioError(f"unknown experiment {self.experiment!r}")
        if self.margin not in (HIGH, LOW):
            raise InvalidScenarioError(f"margin must be 'high' or 'low', got {self.margin!r}")
        eta = critical_fractile(self.cost)
        if (self.margin == HIGH) != (eta >= 0.5):
            raise InvalidScenarioError(
                f"margin label {self.margin!r} inconsistent with critical fractile {eta}"
            )
        if self.experiment == E3 and (self.demand.lower, self.demand.upper) != RISK_NEUTRAL_RANGE:
            raise InvalidScenarioError(
                f"risk-neutral variant uses the demand range {RISK_NEUTRAL_RANGE}, "
                f"got [{self.demand.lower}, {self.demand.upper}]"
            )
        if self.rounds < 1:
            raise InvalidScenarioError("rounds must be >= 1")

    @property
    def max_order(self) -> int:
        """The largest order a round decides or stores: 2 x the demand range's upper end."""
        return 2 * self.demand.upper


@lru_cache(maxsize=64, typed=True)  # frozen values; rounds 1, True and 1.0 stay apart
def scenario(experiment: str, margin: str, dist_kind: str, rounds: int = DEFAULT_ROUNDS) -> ScenarioConfig:
    """Build a standard condition: p=12, c=3 (high) or 9 (low), range by variant."""
    cost = CostStructure(PRICE, COST_HIGH_MARGIN if margin == HIGH else COST_LOW_MARGIN)
    lower, upper = RISK_NEUTRAL_RANGE if experiment == E3 else BASE_RANGE
    demand = DemandDistribution(dist_kind, lower, upper)
    return ScenarioConfig(cost, demand, experiment, margin, rounds)


def anchor(sc: ScenarioConfig) -> float:
    """Demand-mean anchor: the midpoint of the demand range (150.5 or 1050.5)."""
    return sc.demand.midpoint


@lru_cache(maxsize=64)
def optimal_quantity(sc: ScenarioConfig) -> int:
    """Integer order quantity maximizing expected profit.

    Uniform kind uses the discrete critical-fractile rule
    min{q in {a..b} : (q - a + 1)/(b - a + 1) >= eta}; continuous kinds round
    the continuous truncated quantile to the nearest integer.
    """
    eta = critical_fractile(sc.cost)
    dist = sc.demand
    if dist.kind == UNIFORM:
        return int(dist.quantile(eta))
    q = dist.quantile(eta)
    return int(min(max(round(q), dist.lower), dist.upper))


def expected_profit(order: float, sc: ScenarioConfig) -> float:
    """Exact expected profit: sum over the integer demand support."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    support, pmf = support_pmf(sc.demand)
    sales = np.minimum(order, support)
    return float(sc.cost.price * pmf.dot(sales) - sc.cost.cost * order)


@lru_cache(maxsize=4096)
def sample_sequence(dist: DemandDistribution, rounds: int, seed: int) -> tuple[int, ...]:
    """Draw ``rounds`` integer demands, bit-identical for a fixed seed.

    Uniform draws come straight from the integer range. Continuous kinds use
    the inverse-CDF transform of the truncated distribution, rounded to the
    nearest integer and clipped to [a, b], so samples and `support_pmf` agree.
    A process draws each stream once (the default grid: 80 demand, 40 random-agent);
    a plan cycling through more than 4096 distinct streams gets no cache hits.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    rng = np.random.default_rng(seed)
    if dist.kind == UNIFORM:
        draws = rng.integers(dist.lower, dist.upper + 1, size=rounds)
    else:
        u = rng.random(rounds)
        draws = np.clip(np.rint(dist.quantile(u)), dist.lower, dist.upper).astype(np.int64)
    return tuple(int(d) for d in draws)
