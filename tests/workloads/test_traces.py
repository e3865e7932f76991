"""Tests for trace-driven workloads."""

import numpy as np
import pytest

from repro.experiments.runner import build_env, run_workloads
from repro.gpu.request import RequestKind
from repro.workloads.traces import (
    TraceEntry,
    TraceWorkload,
    load_trace_csv,
    save_trace_csv,
    synthesize_poisson_trace,
)


def _simple_trace():
    return [
        TraceEntry(0.0, 50.0),
        TraceEntry(100.0, 50.0),
        TraceEntry(200.0, 50.0),
    ]


def test_open_loop_submits_at_recorded_times():
    env = build_env("direct")
    workload = TraceWorkload(_simple_trace(), open_loop=True)
    run_workloads(env, [workload], 10_000.0, 0.0)
    submits = [request.submit_time for request in workload.requests]
    assert submits == pytest.approx([0.0, 100.0, 200.0], abs=2.0)


def test_open_loop_rounds_measure_latency_under_contention():
    from repro.workloads.throttle import Throttle

    entries = [TraceEntry(i * 100.0, 50.0) for i in range(50)]
    env = build_env("direct")
    trace = TraceWorkload(entries, open_loop=True)
    hog = Throttle(400.0, name="hog")
    run_workloads(env, [trace, hog], 30_000.0, 0.0)
    stats = trace.rounds.stats()
    # Queueing behind the hog's 400us requests shows up in the latency,
    # and open-loop arrivals cannot back off to avoid it.
    assert stats.count > 30
    assert stats.mean_us > 120.0


def test_open_loop_waits_for_stragglers_before_exiting():
    # The last entry is submitted long before the earlier requests finish;
    # exiting then would abort them and record cut-short rounds.
    entries = [TraceEntry(at_us, 200.0) for at_us in (0.0, 10.0, 20.0)]
    env = build_env("direct")
    workload = TraceWorkload(entries, open_loop=True)
    run_workloads(env, [workload], 10_000.0, 0.0)
    assert [request.aborted for request in workload.requests] == [False] * 3
    assert all(request.done for request in workload.requests)
    assert len(workload.rounds) == 3
    assert min(workload.rounds._ends[i] - workload.rounds._starts[i]
               for i in range(3)) >= 200.0
    # Then it exits normally, releasing its channel.
    assert not workload.task.alive and not workload.killed
    assert env.device.live_channel_count == 0


def test_closed_loop_uses_gaps_as_think_time():
    env = build_env("direct")
    workload = TraceWorkload(_simple_trace(), open_loop=False)
    run_workloads(env, [workload], 10_000.0, 0.0)
    # Closed-loop: 0 gap, then 100us gaps after each 50us request.
    assert len(workload.rounds) == 3
    assert workload.rounds.stats().mean_us == pytest.approx(50.0, rel=0.05)


def test_repeat_loops_the_trace():
    env = build_env("direct")
    workload = TraceWorkload(_simple_trace(), open_loop=True, repeat=True)
    run_workloads(env, [workload], 2_000.0, 0.0)
    assert len(workload.requests) > 10


def test_unordered_trace_rejected():
    with pytest.raises(ValueError):
        TraceWorkload([TraceEntry(100.0, 1.0), TraceEntry(0.0, 1.0)])


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        TraceWorkload([])


def test_invalid_entries_rejected():
    with pytest.raises(ValueError):
        TraceWorkload([TraceEntry(-1.0, 1.0)])
    with pytest.raises(ValueError):
        TraceWorkload([TraceEntry(0.0, 0.0)])


def test_poisson_synthesis_statistics():
    rng = np.random.default_rng(0)
    entries = synthesize_poisson_trace(
        rng, rate_per_ms=2.0, mean_size_us=100.0, duration_us=500_000.0
    )
    assert 700 < len(entries) < 1300  # ~1000 expected
    mean_size = sum(e.size_us for e in entries) / len(entries)
    assert 80.0 < mean_size < 120.0
    times = [e.at_us for e in entries]
    assert times == sorted(times)


def test_csv_round_trip(tmp_path):
    entries = [
        TraceEntry(0.0, 50.0, RequestKind.COMPUTE),
        TraceEntry(10.5, 120.25, RequestKind.GRAPHICS),
    ]
    path = tmp_path / "trace.csv"
    save_trace_csv(entries, path)
    loaded = load_trace_csv(path)
    assert loaded == entries


def test_trace_under_dfq_is_schedulable(quick_costs):
    rng = np.random.default_rng(1)
    entries = synthesize_poisson_trace(
        rng, rate_per_ms=1.0, mean_size_us=200.0, duration_us=80_000.0
    )
    env = build_env("dfq", costs=quick_costs)
    workload = TraceWorkload(entries, open_loop=True)
    run_workloads(env, [workload], 120_000.0, 0.0)
    assert len(workload.rounds) > len(entries) * 0.8
