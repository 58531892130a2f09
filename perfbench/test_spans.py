"""Checks of the span analysis: ``python3 -m pytest perfbench``."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def _span(sid, parent, name, start, end, job=None, **attrs):
    return spans.Span(sid, parent, name, start, end, job, attrs)


def test_self_time_subtracts_the_union_of_overlapping_children():
    tree = [
        _span("r", None, "sweep.run", 0.0, 10.0),
        _span("a", "r", "sweep.dispatch", 1.0, 5.0),
        _span("b", "r", "sweep.dispatch", 3.0, 7.0),  # overlaps a
    ]
    totals = spans.self_times(tree)
    assert totals["sweep"] == (10.0 - 6.0) + 4.0 + 4.0


def test_profiled_gate_and_algorithm_seconds_leave_the_engine():
    run = _span("s", None, "san.run", 0.0, 5.0,
                profile_seconds={"vmm.scheduling_func": 2.0, "vmm.algorithm": 0.5})
    totals = spans.self_times([run])
    assert (totals["san"], totals["vmm"], totals["schedulers"]) == (3.0, 1.5, 0.5)


def test_link_hangs_worker_replications_and_job_threads_under_their_cause():
    tree = [
        _span("j", None, "loadgen.job", 0.0, 9.0, job="bench-1"),
        _span("w", None, "sweep.run", 1.0, 8.0, job="bench-1"),
        _span("d", "w", "sweep.dispatch", 2.0, 7.0, key="k/0/3/0"),
        _span("x", None, "framework.replication", 2.5, 6.5, key="k/0/3/0"),
    ]
    spans.link(tree)
    parents = {record.sid: record.parent for record in tree}
    assert parents == {"j": None, "w": "j", "d": "w", "x": "d"}
    assert spans.coverage(tree, tree[0]) == 7.0 / 9.0
