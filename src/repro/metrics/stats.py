"""Replication statistics: means, confidence intervals, fairness.

The paper reports every figure "with 95% confidence level and < 0.1
confidence interval", estimated over independent simulation
replications — the standard Mobius simulator workflow.  This module
provides the estimators:

* :class:`RunningStats` — Welford's online mean/variance (numerically
  stable, single pass);
* :func:`confidence_interval` — Student-t interval over a sample;
* :class:`ConvergenceMonitor` — the one-pass (Welford) multi-metric
  stopping rule the experiment runner and sweep scheduler use; exact
  same values as :func:`confidence_interval` over every prefix;
* :func:`jain_fairness` — Jain's fairness index, used by the fairness
  analyses around Figure 8.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError, StatisticsError


class RunningStats:
    """Welford's online algorithm for mean and variance.

    Example:
        >>> rs = RunningStats()
        >>> for x in [1.0, 2.0, 3.0]:
        ...     rs.push(x)
        >>> rs.mean
        2.0
        >>> round(rs.variance, 6)
        1.0
    """

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, value: float) -> None:
        """Add one observation."""
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)

    @property
    def n(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        if self._n == 0:
            raise StatisticsError("mean of zero observations")
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (n-1 denominator)."""
        if self._n < 2:
            raise StatisticsError("variance needs at least two observations")
        return self._m2 / (self._n - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def standard_error(self) -> float:
        """Standard error of the mean."""
        return self.stddev / math.sqrt(self._n)


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iterations, eps, fpmin = 300, 3e-16, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b))
    # Use the continued fraction on whichever side converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _t_cdf(x: float, df: int) -> float:
    """Student-t CDF via the incomplete beta identity."""
    if x == 0.0:
        return 0.5
    tail = 0.5 * _betainc(df / 2.0, 0.5, df / (df + x * x))
    return 1.0 - tail if x > 0.0 else tail


def _t_ppf(p: float, df: int) -> float:
    """Inverse Student-t CDF.

    Expands a bracket by doubling, then bisects the incomplete-beta CDF
    to the last representable float: within 2e-9 relative of a reference
    double-precision inverse up to df 10**6, in at most a few
    milliseconds per call.
    """
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -_t_ppf(1.0 - p, df)
    lo, hi = 0.0, 1.0
    while _t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e300:
            return math.inf
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def t_quantile(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value for the given confidence level.

    Pure stdlib: bisection on the incomplete-beta CDF (:func:`_t_ppf`),
    so every stopping decision is the same arithmetic on every install.
    """
    if not 0 < confidence < 1:
        raise StatisticsError(f"confidence must be in (0, 1), got {confidence}")
    if df < 1:
        raise StatisticsError(f"degrees of freedom must be >= 1, got {df}")
    return _t_ppf(0.5 + confidence / 2.0, df)


@lru_cache(maxsize=256)
def _t_quantile_cached(confidence: float, df: int) -> float:
    """Memoized :func:`t_quantile` — the stopping rule asks for the same
    (confidence, df) pairs over and over, and the bisection is by far
    the most expensive term of a half-width."""
    return t_quantile(confidence, df)


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Student-t confidence interval over a sample.

    Returns:
        ``(mean, half_width)`` — the interval is mean +/- half_width.

    Raises:
        StatisticsError: with fewer than two observations (no variance
            estimate exists).
    """
    if len(values) < 2:
        raise StatisticsError(
            f"a confidence interval needs >= 2 replications, got {len(values)}"
        )
    rs = RunningStats()
    for value in values:
        rs.push(value)
    half_width = _t_quantile_cached(confidence, rs.n - 1) * rs.standard_error()
    return rs.mean, half_width


class ConvergenceMonitor:
    """Single-pass replication stopping rule over many metrics at once.

    The experiment runner used to recompute :func:`confidence_interval`
    from scratch over *all* samples after every replication — an O(n²)
    stopping check.  This monitor is the one-pass replacement: one
    Welford :class:`RunningStats` per watched metric, fed each
    replication's metrics exactly once, in replication order.  Because
    :func:`confidence_interval` itself is Welford-based, the half-width
    the monitor sees at prefix length *k* is bit-identical to
    ``confidence_interval(values[:k])`` — the stopping decisions (and
    therefore the included sample sets) cannot drift.

    ``cut`` is the smallest prefix length >= ``min_replications`` whose
    watched half-widths all drop below the target; each prefix length
    is judged exactly once, when its last sample arrives, which is
    sound because a prefix's samples never change after the fact.

    The sweep scheduler also reads :meth:`distance` — how far the
    worst watched metric currently is from the half-width target — to
    rank unconverged points for the next replication grant.
    """

    def __init__(
        self,
        watch_metrics: Sequence[str],
        confidence: float = 0.95,
        target_half_width: float = 0.1,
        min_replications: int = 2,
    ) -> None:
        if not 0 < confidence < 1:
            raise StatisticsError(f"confidence must be in (0, 1), got {confidence}")
        if target_half_width <= 0:
            raise StatisticsError(
                f"target_half_width must be > 0, got {target_half_width}"
            )
        self.watch_metrics = list(watch_metrics)
        self.confidence = confidence
        self.target_half_width = target_half_width
        self.min_replications = max(2, min_replications)
        self._stats: Dict[str, RunningStats] = {
            name: RunningStats() for name in self.watch_metrics
        }
        self._n = 0
        self._cut: Optional[int] = None

    @property
    def n(self) -> int:
        """Samples consumed so far."""
        return self._n

    @property
    def cut(self) -> Optional[int]:
        """Smallest converged prefix length, or None if none yet."""
        return self._cut

    def push(self, metrics: Mapping[str, float]) -> Optional[int]:
        """Consume one replication's metrics; returns the cut, if any."""
        for name in self.watch_metrics:
            if name not in metrics:
                raise ConfigurationError(
                    f"watched metric {name!r} is not produced by this system; "
                    f"available: {sorted(metrics)}"
                )
            self._stats[name].push(metrics[name])
        self._n += 1
        if self._cut is None and self._n >= self.min_replications:
            if all(
                half_width < self.target_half_width
                for half_width in self.half_widths().values()
            ):
                self._cut = self._n
        return self._cut

    def half_widths(self) -> Dict[str, float]:
        """Current CI half-width per watched metric (inf below 2 samples)."""
        if self._n < 2:
            return {name: math.inf for name in self.watch_metrics}
        t = _t_quantile_cached(self.confidence, self._n - 1)
        return {
            name: t * rs.standard_error() for name, rs in self._stats.items()
        }

    def distance(self) -> float:
        """How far the worst watched metric is from the target (>= 0).

        Infinite until a variance estimate exists; 0.0 once converged.
        The sweep scheduler dispatches the next replication to the point
        with the largest distance.
        """
        if self._cut is not None:
            return 0.0
        if self._n < 2:
            return math.inf
        return max(
            max(half_width - self.target_half_width, 0.0)
            for half_width in self.half_widths().values()
        )


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1].

    Equal allocations score 1; the index degrades toward 1/n as the
    allocation concentrates on a single party.  Used to quantify the
    scheduling fairness the paper eyeballs in Figure 8.
    """
    if not values:
        raise StatisticsError("fairness index of zero allocations")
    if any(v < 0 for v in values):
        raise StatisticsError("fairness index needs non-negative allocations")
    peak = max(values)
    if peak == 0:
        # All-zero allocations are trivially fair.
        return 1.0
    # The index is scale-invariant, so normalise to the largest share
    # before squaring: squares of tiny allocations would otherwise fall
    # into the denormal range and lose precision (or underflow to zero).
    shares = [v / peak for v in values]
    total = sum(shares)
    squares = sum(s * s for s in shares)
    return min(1.0, (total * total) / (len(values) * squares))
