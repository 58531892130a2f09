"""Unit tests for replication statistics."""

import math
import random

import pytest

from repro.errors import ConfigurationError, StatisticsError
from repro.metrics import (
    ConvergenceMonitor,
    RunningStats,
    confidence_interval,
    jain_fairness,
    t_quantile,
)


class TestRunningStats:
    def test_mean_and_variance(self):
        rs = RunningStats()
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            rs.push(x)
        assert rs.mean == pytest.approx(5.0)
        assert rs.variance == pytest.approx(32 / 7)
        assert rs.stddev == pytest.approx(math.sqrt(32 / 7))

    def test_matches_naive_computation(self):
        rng = random.Random(8)
        values = [rng.gauss(10, 2) for _ in range(500)]
        rs = RunningStats()
        for value in values:
            rs.push(value)
        naive_mean = sum(values) / len(values)
        naive_var = sum((v - naive_mean) ** 2 for v in values) / (len(values) - 1)
        assert rs.mean == pytest.approx(naive_mean)
        assert rs.variance == pytest.approx(naive_var)

    def test_errors_on_insufficient_data(self):
        rs = RunningStats()
        with pytest.raises(StatisticsError):
            rs.mean
        rs.push(1.0)
        with pytest.raises(StatisticsError):
            rs.variance

    def test_standard_error_shrinks_with_n(self):
        a, b = RunningStats(), RunningStats()
        for i in range(10):
            a.push(float(i))
        for i in range(1000):
            b.push(float(i % 10))
        assert b.standard_error() < a.standard_error()


class TestTQuantile:
    def test_matches_known_values(self):
        # t_{0.975, 9} = 2.262...
        assert t_quantile(0.95, 9) == pytest.approx(2.2622, abs=1e-3)
        # Large df converges to the normal quantile 1.96.
        assert t_quantile(0.95, 10000) == pytest.approx(1.96, abs=0.01)

    def test_validation(self):
        with pytest.raises(StatisticsError):
            t_quantile(1.5, 9)
        with pytest.raises(StatisticsError):
            t_quantile(0.95, 0)


class TestConfidenceInterval:
    def test_known_sample(self):
        mean, half = confidence_interval([1.0, 2.0, 3.0], confidence=0.95)
        assert mean == pytest.approx(2.0)
        # s = 1, se = 1/sqrt(3), t_{0.975,2} = 4.3027
        assert half == pytest.approx(4.3027 / math.sqrt(3), abs=1e-3)

    def test_single_value_rejected(self):
        with pytest.raises(StatisticsError):
            confidence_interval([1.0])

    def test_zero_variance_gives_zero_width(self):
        _, half = confidence_interval([5.0, 5.0, 5.0])
        assert half == 0.0


class TestConvergenceMonitor:
    """The one-pass stopping rule must be *bit-identical* to rescanning."""

    def test_half_widths_match_confidence_interval_exactly(self):
        rng = random.Random(3)
        values = [rng.gauss(0.5, 0.2) for _ in range(40)]
        monitor = ConvergenceMonitor(
            ["m"], target_half_width=1e-12, min_replications=2
        )
        for k, value in enumerate(values, start=1):
            monitor.push({"m": value})
            if k >= 2:
                _, half = confidence_interval(values[:k])
                assert monitor.half_widths()["m"] == half  # exact, not approx

    def test_cut_matches_prefix_rescan(self):
        rng = random.Random(7)
        values = [rng.gauss(0.5, 0.3) for _ in range(60)]
        target = 0.15
        monitor = ConvergenceMonitor(["m"], target_half_width=target)
        for value in values:
            monitor.push({"m": value})
        expected = None
        for k in range(2, len(values) + 1):
            if confidence_interval(values[:k])[1] < target:
                expected = k
                break
        assert monitor.cut == expected

    def test_cut_is_sticky(self):
        monitor = ConvergenceMonitor(["m"], target_half_width=0.5)
        for value in (1.0, 1.0, 100.0, -100.0):
            monitor.push({"m": value})
        assert monitor.cut == 2  # later noise never reopens the decision

    def test_watches_every_metric(self):
        monitor = ConvergenceMonitor(["a", "b"], target_half_width=0.5)
        monitor.push({"a": 1.0, "b": 0.0})
        assert monitor.push({"a": 1.0, "b": 50.0}) is None  # b still wide
        assert monitor.distance() > 0

    def test_missing_watched_metric_rejected(self):
        monitor = ConvergenceMonitor(["tail_latency"])
        with pytest.raises(ConfigurationError, match="not produced"):
            monitor.push({"pcpu_utilization": 0.5})

    def test_min_replications_floor(self):
        monitor = ConvergenceMonitor(
            ["m"], target_half_width=10.0, min_replications=4
        )
        monitor.push({"m": 1.0})
        assert monitor.push({"m": 1.0}) is None  # converged but below floor
        monitor.push({"m": 1.0})
        assert monitor.push({"m": 1.0}) == 4

    def test_min_replications_clamped_to_two(self):
        monitor = ConvergenceMonitor(["m"], min_replications=0)
        assert monitor.min_replications == 2

    def test_distance_semantics(self):
        monitor = ConvergenceMonitor(["m"], target_half_width=0.1)
        assert monitor.distance() == math.inf
        monitor.push({"m": 0.0})
        assert monitor.distance() == math.inf
        monitor.push({"m": 10.0})
        assert monitor.distance() > 0
        for _ in range(30):
            monitor.push({"m": 5.0})
        if monitor.cut is not None:
            assert monitor.distance() == 0.0

    def test_validation(self):
        with pytest.raises(StatisticsError):
            ConvergenceMonitor(["m"], confidence=1.5)
        with pytest.raises(StatisticsError):
            ConvergenceMonitor(["m"], target_half_width=0.0)


class TestJainFairness:
    def test_equal_allocation_scores_one(self):
        assert jain_fairness([0.5, 0.5, 0.5]) == pytest.approx(1.0)

    def test_single_winner_scores_one_over_n(self):
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_intermediate(self):
        value = jain_fairness([1.0, 0.5])
        assert 0.5 < value < 1.0

    def test_all_zero_is_fair(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_validation(self):
        with pytest.raises(StatisticsError):
            jain_fairness([])
        with pytest.raises(StatisticsError):
            jain_fairness([-0.1, 0.5])


class TestTQuantileWithoutScipy:
    """The stdlib inverse-t: close to a reference, and pinned bit for bit."""

    def test_t_ppf_matches_scipy_over_the_grid(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        from repro.metrics.stats import _t_ppf

        for confidence in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
            p = 0.5 + confidence / 2.0
            for df in list(range(1, 31)) + [50, 100, 1000]:
                want = float(scipy_stats.t.ppf(p, df))
                got = _t_ppf(p, df)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (
                    confidence, df, got, want,
                )

    def test_fallback_symmetry_and_median(self):
        from repro.metrics.stats import _t_ppf

        assert _t_ppf(0.5, 7) == 0.0
        assert _t_ppf(0.25, 7) == -_t_ppf(0.75, 7)

    def test_t_cdf_round_trip(self):
        from repro.metrics.stats import _t_cdf, _t_ppf

        for p in (0.6, 0.9, 0.975, 0.995):
            for df in (1, 4, 29):
                assert abs(_t_cdf(_t_ppf(p, df), df) - p) < 1e-12

    # Bits of t_quantile(c, df); any drift in the bisection, the
    # incomplete beta or the platform's libm changes a stopping cut.
    PINNED = {
        (0.90, 1): "0x1.9414813ba6618p+2",
        (0.90, 4): "0x1.10e05b01ad864p+1",
        (0.90, 500): "0x1.a5dd393c7c23cp+0",
        (0.95, 1): "0x1.96993aacc4d0ap+3",
        (0.95, 2): "0x1.135ea98e146b2p+2",
        (0.95, 4): "0x1.63628d9efb5d8p+1",
        (0.95, 29): "0x1.05ca15bce286cp+1",
        (0.95, 500): "0x1.f6f7e117b9708p+0",
        (0.99, 1): "0x1.fd410182c3bc8p+5",
        (0.99, 29): "0x1.60d140d7b5d74p+1",
    }
    # sha256 of the newline-joined float.hex strings for every
    # confidence in (0.90, 0.95, 0.99) and df 1..500, in that order.
    GRID_SHA256 = (
        "b623e9be6e51b2ae4b2559103dc67d2d253979cb6573441be6e5c1779dee7678"
    )

    def test_spot_values_are_pinned(self):
        got = {key: float.hex(t_quantile(*key)) for key in self.PINNED}
        assert got == self.PINNED

    def test_grid_digest_is_pinned(self):
        import hashlib

        digest = hashlib.sha256(
            "\n".join(
                float.hex(t_quantile(confidence, df))
                for confidence in (0.90, 0.95, 0.99)
                for df in range(1, 501)
            ).encode()
        ).hexdigest()
        assert digest == self.GRID_SHA256
