"""Unit tests for the trace invariant checker (hand-built bad traces)."""

from __future__ import annotations

from repro.observability import (
    ExclusivePCPU,
    MonotoneTime,
    SkewBound,
    StrictCoScheduling,
    TimesliceAccounting,
    TraceChecker,
    check_trace,
    standard_invariants,
)
from repro.observability import trace as trace_mod


def rec(kind, t, seq, **data):
    d = {"kind": kind, "t": t, "seq": seq}
    d.update(data)
    return d


def sched_in(t, seq, vcpu, pcpu, vm=0, vcpu_index=0, timeslice=30):
    return rec(trace_mod.SCHED_IN, t, seq, vcpu=vcpu, vm=vm,
               vcpu_index=vcpu_index, pcpu=pcpu, timeslice=timeslice)


def sched_out(t, seq, vcpu, pcpu, vm=0, vcpu_index=0, reason="decision"):
    return rec(trace_mod.SCHED_OUT, t, seq, vcpu=vcpu, vm=vm,
               vcpu_index=vcpu_index, pcpu=pcpu, reason=reason)


def run_start(seq=0, **over):
    data = dict(scheduler="rrs", topology=[2, 1], pcpus=2, replication=0,
                root_seed=0, sim_time=100, warmup=0,
                params={"timeslice": 30}, pcpu_failures=False, guard=None,
                chaos=False, engine="compiled")
    data.update(over)
    return rec(trace_mod.RUN_START, 0.0, seq, **data)


def names(violations):
    return {v.invariant for v in violations}


def check(invariant, records):
    return TraceChecker([invariant]).check(records)


class TestMonotoneTime:
    def test_accepts_monotone(self):
        assert not check(MonotoneTime(), [sched_in(1, 0, 0, 0),
                                         sched_out(2, 1, 0, 0)])

    def test_flags_backwards_time(self):
        v = check(MonotoneTime(), [sched_in(5, 0, 0, 0), sched_out(3, 1, 0, 0)])
        assert names(v) == {"monotone-time"}

    def test_run_start_resets_clock_floor(self):
        records = [run_start(0), sched_in(90, 1, 0, 0), sched_out(95, 2, 0, 0),
                   run_start(3), sched_in(1, 4, 0, 0)]
        assert not check(MonotoneTime(), records)

    def test_flags_non_increasing_seq(self):
        v = check(MonotoneTime(), [sched_in(1, 5, 0, 0), sched_out(2, 5, 0, 0)])
        assert names(v) == {"monotone-time"}


class TestExclusivePCPU:
    def test_flags_double_assignment(self):
        v = check(ExclusivePCPU(), [sched_in(1, 0, 0, 0), sched_in(1, 1, 1, 0)])
        assert names(v) == {"exclusive-pcpu"}

    def test_flags_schedule_onto_failed_pcpu(self):
        records = [rec(trace_mod.PCPU_FAIL, 1, 0, pcpu=0, victim=None),
                   sched_in(2, 1, 0, 0)]
        assert names(check(ExclusivePCPU(), records)) == {"exclusive-pcpu"}

    def test_flags_mismatched_out(self):
        v = check(ExclusivePCPU(), [sched_in(1, 0, 0, 0),
                                    sched_out(2, 1, 0, 1)])
        assert names(v) == {"exclusive-pcpu"}

    def test_flags_fail_while_hosting(self):
        records = [sched_in(1, 0, 0, 0),
                   rec(trace_mod.PCPU_FAIL, 2, 1, pcpu=0, victim=0)]
        assert names(check(ExclusivePCPU(), records)) == {"exclusive-pcpu"}

    def test_accepts_clean_rotation(self):
        records = [sched_in(1, 0, 0, 0), sched_out(2, 1, 0, 0),
                   sched_in(2, 2, 1, 0), sched_out(3, 3, 1, 0)]
        assert not check(ExclusivePCPU(), records)


class TestStrictCoScheduling:
    def test_flags_partial_gang(self):
        # VM 0 has 2 VCPUs; only one is running across a time boundary.
        records = [sched_in(1, 0, 0, 0, vm=0), sched_in(2, 1, 2, 1, vm=1)]
        inv = StrictCoScheduling([2, 1])
        assert names(check(inv, records)) == {"strict-co-scheduling"}

    def test_accepts_all_or_none(self):
        records = [sched_in(1, 0, 0, 0, vm=0), sched_in(1, 1, 1, 1, vm=0),
                   sched_out(4, 2, 0, 0, vm=0), sched_out(4, 3, 1, 1, vm=0)]
        assert not check(StrictCoScheduling([2]), records)

    def test_mid_instant_mix_is_legal(self):
        # Co-stop then co-start within one timestamp never trips it.
        records = [sched_in(1, 0, 0, 0, vm=0), sched_in(1, 1, 1, 1, vm=0),
                   sched_out(4, 2, 0, 0, vm=0), sched_out(4, 3, 1, 1, vm=0),
                   sched_in(4, 4, 0, 0, vm=0), sched_in(4, 5, 1, 1, vm=0)]
        assert not check(StrictCoScheduling([2]), records)

    def test_quarantine_disables_the_gang_check(self):
        records = [rec(trace_mod.GUARD_QUARANTINE, 1, 0, scheduler="scs",
                       faults=3),
                   sched_in(2, 1, 0, 0, vm=0), sched_in(5, 2, 2, 1, vm=1)]
        assert not check(StrictCoScheduling([2, 1]), records)


class TestSkewBound:
    def test_accepts_lag_within_bound(self):
        records = [rec(trace_mod.SCHED_SKEW, 1, 0, vm=0, max_lag=10.0,
                       catching_up=False)]
        assert not check(SkewBound(10, 5), records)

    def test_flags_lag_beyond_bound(self):
        records = [rec(trace_mod.SCHED_SKEW, 1, 0, vm=0, max_lag=18.0,
                       catching_up=True)]
        assert names(check(SkewBound(10, 5), records)) == {"skew-bound"}


class TestTimesliceAccounting:
    def test_flags_overlong_residency(self):
        records = [sched_in(0, 0, 0, 0, timeslice=30),
                   sched_out(31, 1, 0, 0, reason="decision")]
        v = check(TimesliceAccounting(), records)
        assert names(v) == {"timeslice-accounting"}

    def test_flags_early_expiry(self):
        records = [sched_in(0, 0, 0, 0, timeslice=30),
                   sched_out(20, 1, 0, 0, reason="expire")]
        v = check(TimesliceAccounting(), records)
        assert names(v) == {"timeslice-accounting"}

    def test_accepts_exact_expiry(self):
        records = [sched_in(0, 0, 0, 0, timeslice=30),
                   sched_out(30, 1, 0, 0, reason="expire")]
        assert not check(TimesliceAccounting(), records)

    def test_flags_busy_exceeding_elapsed(self):
        # Two VCPUs claim the same PCPU back to back without overlap
        # being flagged here (that's exclusive-pcpu's job), but their
        # total busy time exceeds the segment's elapsed time.
        records = [run_start(0),
                   sched_in(0, 1, 0, 0), sched_out(10, 2, 0, 0),
                   sched_in(2, 3, 1, 0), sched_out(10, 4, 1, 0)]
        v = check(TimesliceAccounting(), records)
        assert names(v) == {"timeslice-accounting"}


class TestStandardInvariants:
    def test_configures_from_run_start(self):
        base = {type(i).__name__ for i in standard_invariants([run_start()])}
        assert base == {"MonotoneTime", "ExclusivePCPU", "TimesliceAccounting"}
        scs = {type(i).__name__
               for i in standard_invariants([run_start(scheduler="scs")])}
        assert "StrictCoScheduling" in scs
        rcs = {type(i).__name__
               for i in standard_invariants([run_start(scheduler="rcs")])}
        assert "SkewBound" in rcs

    def test_scs_gang_check_skipped_under_pcpu_failures(self):
        invs = standard_invariants(
            [run_start(scheduler="scs", pcpu_failures=True)])
        assert "StrictCoScheduling" not in {type(i).__name__ for i in invs}

    def test_check_trace_end_to_end(self):
        bad = [run_start(0, scheduler="scs"),
               sched_in(1, 1, 0, 0, vm=0), sched_in(5, 2, 2, 1, vm=1)]
        violations = check_trace(bad)
        assert names(violations) == {"strict-co-scheduling"}
        assert "VM 0" in str(violations[0])
