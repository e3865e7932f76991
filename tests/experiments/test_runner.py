"""Tests for the experiment runner scaffolding."""

import pytest

from repro.experiments.runner import build_env, measure, run_workloads, solo_baseline
from repro.workloads.throttle import Throttle


def test_unknown_scheduler_rejected():
    with pytest.raises(KeyError, match="unknown scheduler"):
        build_env("no-such-scheduler")


def test_scheduler_instance_accepted():
    from repro.core.direct import DirectAccess

    env = build_env(DirectAccess())
    assert isinstance(env.scheduler, DirectAccess)


def test_measure_returns_result_per_workload():
    results = measure(
        "direct",
        [lambda: Throttle(50.0, name="a"), lambda: Throttle(100.0, name="b")],
        duration_us=20_000.0,
        warmup_us=2_000.0,
    )
    assert set(results) == {"a", "b"}
    for result in results.values():
        assert result.rounds.count > 0
        assert result.requests_submitted > 0
        assert not result.killed
        assert result.ground_truth_usage_us > 0


def test_solo_baseline_runs_direct():
    result = solo_baseline(
        lambda: Throttle(100.0), duration_us=20_000.0, warmup_us=2_000.0
    )
    assert 100.0 <= result.rounds.mean_us < 101.0


def test_trace_kinds_enable_recording():
    env = build_env("direct", trace_kinds=["request_submit"])
    workload = Throttle(100.0)
    run_workloads(env, [workload], 5_000.0, 0.0)
    assert len(env.trace) > 10
    assert all(r.kind == "request_submit" for r in env.trace.records())


def test_single_device_run_does_not_import_the_fleet_layer():
    # Plain runs must not pay for the fleet's placement, policy, share or
    # migration modules; checked in a fresh interpreter.
    import os
    import subprocess
    import sys

    import repro

    code = (
        "import sys, repro\n"
        "from repro.experiments.runner import build_env, run_workloads\n"
        "from repro.workloads.throttle import Throttle\n"
        "env = build_env('dfq')\n"
        "run_workloads(env, [Throttle(50.0)], 5_000.0, 1_000.0)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.fleet')))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    output = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    for module in ("placement", "policies", "share", "migration"):
        assert f"repro.fleet.{module}" not in output
