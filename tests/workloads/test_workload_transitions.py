"""Pinned traces of every workload transition.

The golden output covers the figure grids, which never kill a workload
mid-wait, never contend for a finite CPU pool, never hit a ``kernel.*``
fault point and never run the adversarial, trace-driven, syscall-mode or
fleet workloads together with a retaining trace.  Each scenario here
drives some of those paths and hashes the full trace JSONL, each
workload's round log and every request's submit, start and finish
times, so any change in what a workload does, or in the order it does it
relative to other callbacks at the same instant, changes the digest.

Channel and task ids come from process-global counters, so ids in trace
payloads are renumbered in order of first appearance before hashing.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.runner import build_env, run_workloads
from repro.experiments.section3_throughput import (
    _DriverWorkThrottle,
    _SyscallThrottle,
)
from repro.faults import registry as fault_points
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet.experiment import device_loss_plan
from repro.fleet.tenants import FleetTenant
from repro.gpu.params import GpuParams
from repro.gpu.request import RequestKind
from repro.osmodel.costs import CostParams
from repro.osmodel.kernel import ChannelQuotaPolicy, MemoryQuotaPolicy
from repro.sim.trace import TraceRecorder
from repro.workloads.adversarial import (
    ChannelHog,
    GreedyBatcher,
    InfiniteKernel,
    MemoryHog,
)
from repro.workloads.apps import ProfiledApp, make_app
from repro.workloads.profiles import AppProfile, RequestBurst
from repro.workloads.throttle import Throttle
from repro.workloads.traces import TraceEntry, TraceWorkload
from tests.gpu.test_engine_transitions import digest

#: A profile exercising every step of a round: think time, a pre-gap
#: before each request, blocking and pipelined bursts on two channels,
#: and a drain at the round's end.
MIXED = AppProfile(
    name="mixed", area="test",
    bursts=(
        RequestBurst(RequestKind.COMPUTE, (30.0, 5.0), pre_gap_us=3.0),
        RequestBurst(RequestKind.GRAPHICS, (40.0, 40.0, 12.0, 60.0),
                     blocking=False),
        RequestBurst(RequestKind.DMA, (20.0, 20.0), blocking=False,
                     pre_gap_us=1.5),
    ),
    think_us=25.0,
    pipeline_depth=2,
    drain_each_round=True,
)


def workload_log(workloads, env):
    """Round logs, request times and end states of ``workloads``."""
    log = []
    for workload in workloads:
        log.append((
            "rounds", workload.name,
            workload.rounds._starts, workload.rounds._ends,
        ))
        log.append((
            "requests", workload.name,
            [(request.kind.value, request.size_us, request.blocking,
              request.submit_time, request.start_time, request.finish_time,
              request.aborted)
             for request in workload.requests],
        ))
        log.append((
            "state", workload.name, workload.killed,
            None if workload.setup_error is None else str(workload.setup_error),
            None if workload.task is None else workload.task.state.value,
            None if workload.task is None else workload.task.kill_reason,
        ))
    log.append((
        "kernel", env.sim.now,
        [(stack.kernel.fault_count, stack.kernel.submit_count)
         for stack in env.stacks],
    ))
    return log


def run_pinned(workloads, duration_us, warmup_us=0.0, kills=(), moves=(),
               **env_options):
    """Run ``workloads`` with a retaining trace; kill as listed.

    ``kills`` holds ``(at_us, workload index, how)``: ``how`` is
    ``"task"`` for a protective kernel kill and ``"process"`` for a bare
    kill of the task's process (its device state left alone).
    """
    env = build_env(trace=TraceRecorder(), **env_options)
    for at_us, index, how in kills:
        env.sim.schedule_at(at_us, _kill, env, workloads[index], how)
    run_workloads(env, workloads, duration_us, warmup_us, moves=moves)
    return env.trace, workload_log(workloads, env)


def _kill(env, workload, how):
    if how == "task":
        env.kernel.kill_task(workload.task, "pinned kill")
    else:
        workload.task.process.kill("pinned kill")


def combined(*runs):
    """One digest over several (trace, log) runs."""
    parts = [digest(trace, log) for trace, log in runs]
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def throttle_dfq():
    # Fault path, DFQ denial while blocked in the handler, think time.
    workloads = [
        Throttle(400.0, name="big"),
        Throttle(60.0, sleep_ratio=0.3, name="sleepy", jitter_sigma=0.1),
        Throttle(25.0, name="small"),
    ]
    return combined(run_pinned(workloads, 60_000.0, 5_000.0,
                               scheduler="dfq", seed=1))


def timeslice_denial():
    workloads = [Throttle(300.0, name="a"), Throttle(90.0, name="b"),
                 make_app("BitonicSort")]
    costs = CostParams()
    costs.timeslice_us = 2_000.0
    return combined(
        run_pinned(workloads, 30_000.0, scheduler="timeslice", seed=2,
                   costs=costs),
        run_pinned([Throttle(300.0, name="a"), Throttle(90.0, name="b")],
                   30_000.0, scheduler="disengaged-timeslice", seed=2,
                   costs=costs),
    )


def profiled_apps():
    # Think time, pre-gaps, pipelined bursts, per-round drain, the
    # no-drain pipelined graphics app and an app with DMA bursts.
    return combined(
        run_pinned([ProfiledApp(MIXED), make_app("oclParticles"),
                    make_app("simpleTexture3D")],
                   40_000.0, scheduler="direct", seed=3),
        run_pinned([ProfiledApp(MIXED), make_app("glxgears"),
                    make_app("MatrixMultiplication")],
                   40_000.0, scheduler="dfq", seed=4),
    )


def cpu_contention():
    costs = CostParams()
    costs.cpu_cores = 1
    return combined(
        run_pinned([ProfiledApp(MIXED), make_app("BinarySearch"),
                    Throttle(50.0, sleep_ratio=0.2, name="t")],
                   30_000.0, scheduler="dfq", seed=5, costs=costs),
        run_pinned([Throttle(80.0, name="a"), make_app("glxgears")],
                   20_000.0, scheduler="timeslice", seed=5, costs=costs),
    )


def kernel_fault_points():
    plan = FaultPlan(
        name="kernel-faults",
        specs=(
            FaultSpec(fault_points.KERNEL_SUBMIT_LATENCY, magnitude_us=7.0,
                      probability=0.3),
            FaultSpec(fault_points.KERNEL_FAULT_DROP, magnitude_us=11.0,
                      probability=0.4),
            FaultSpec(fault_points.KERNEL_FAULT_DELAY, magnitude_us=5.0,
                      probability=0.5),
        ),
        seed=7,
    )
    costs = CostParams()
    costs.timeslice_us = 3_000.0
    return combined(
        run_pinned([Throttle(200.0, name="a"), Throttle(50.0, name="b"),
                    ProfiledApp(MIXED)],
                   30_000.0, scheduler="dfq", seed=6, fault_plan=plan),
        run_pinned([Throttle(200.0, name="a"), Throttle(50.0, name="b")],
                   20_000.0, scheduler="timeslice", seed=6, costs=costs,
                   fault_plan=plan),
    )


def adversarial():
    costs = CostParams()
    costs.max_request_us = 3_000.0
    few_channels = GpuParams()
    few_channels.total_channels = 2
    return combined(
        # The runaway is killed by the watchdog while its victim waits.
        run_pinned([InfiniteKernel(normal_size_us=80.0, normal_requests=6),
                    GreedyBatcher(work_unit_us=40.0, batch_factor=5),
                    Throttle(100.0, name="victim")],
                   40_000.0, scheduler="dfq", seed=7, costs=costs),
        run_pinned([MemoryHog(chunk_mib=300.0), ChannelHog(),
                    Throttle(50.0, name="late")],
                   5_000.0, scheduler="direct", seed=7,
                   quota=ChannelQuotaPolicy(channels_per_task=4),
                   memory_quota=MemoryQuotaPolicy(max_fraction=0.5)),
        # The hog takes both channels first: the Throttle's setup fails.
        run_pinned([ChannelHog(), Throttle(50.0, name="locked-out")],
                   5_000.0, scheduler="direct", seed=7,
                   gpu_params=few_channels),
    )


def syscall_modes():
    return combined(
        run_pinned([_SyscallThrottle(20.0), _DriverWorkThrottle(50.0),
                    Throttle(30.0, name="mmio")],
                   10_000.0, scheduler="direct", seed=8),
    )


def traces():
    entries = [
        TraceEntry(0.0, 120.0),
        TraceEntry(10.0, 30.0, RequestKind.GRAPHICS),
        TraceEntry(35.0, 60.0),
        TraceEntry(300.0, 15.0, RequestKind.DMA),
        TraceEntry(310.0, 200.0),
    ]
    return combined(
        run_pinned([TraceWorkload(entries, name="open", repeat=True),
                    TraceWorkload(entries, name="closed", open_loop=False,
                                  repeat=True),
                    TraceWorkload(entries, name="once", open_loop=False)],
                   20_000.0, scheduler="dfq", seed=9),
    )


#: Kill instants: a sweep dense enough to land in every kind of wait of
#: the workloads below (think sleep, submit cost, fault-handler block,
#: CPU wait, pipeline wait, completion wait, drain).
KILL_TIMES = [4_000.0 + 13.7 * step for step in range(24)]


def kills():
    runs = []
    costs = CostParams()
    costs.cpu_cores = 1
    for index, at_us in enumerate(KILL_TIMES):
        how = "task" if index % 3 else "process"
        runs.append(run_pinned(
            [ProfiledApp(MIXED), Throttle(300.0, name="hog"),
             Throttle(40.0, sleep_ratio=0.4, name="sleepy")],
            at_us + 3_000.0, kills=[(at_us, index % 3, how)],
            scheduler="timeslice" if index % 2 else "dfq", seed=10,
            costs=costs if index % 4 == 3 else None,
        ))
    # Killed before the first step, and killed twice in one instant.
    runs.append(run_pinned([Throttle(50.0, name="early"),
                            Throttle(50.0, name="twice")],
                           2_000.0,
                           kills=[(0.0, 0, "process"), (500.0, 1, "task"),
                                  (500.0, 1, "process")],
                           scheduler="dfq", seed=11))
    return combined(*runs)


def fleet_migration():
    workloads = [
        FleetTenant(f"t{i:03d}", request_size_us=size, sleep_ratio=ratio)
        for i, (size, ratio) in enumerate(
            [(800.0, 0.0), (300.0, 0.2), (500.0, 0.0), (200.0, 0.1)]
        )
    ]
    moves = ((15_000.0, "t000", 1), (22_000.0, "t001", 0),
             (30_000.0, "t002", 1))
    return combined(run_pinned(workloads, 60_000.0, 5_000.0, moves=moves,
                               devices=2, scheduler="dfq", seed=12))


def fleet_device_loss():
    workloads = [
        FleetTenant(f"t{i:03d}", request_size_us=400.0 + 100.0 * i)
        for i in range(5)
    ]
    costs = CostParams()
    costs.migration_cost_us = 250.0
    return combined(
        run_pinned(workloads, 50_000.0, 5_000.0, devices=3,
                   scheduler="dfq", seed=13, costs=costs,
                   fault_plan=device_loss_plan(0, 20_000.0)),
        run_pinned([FleetTenant("solo", request_size_us=300.0)], 30_000.0,
                   devices=1, scheduler="dfq", seed=13,
                   fault_plan=device_loss_plan(0, 10_000.0)),
    )


SCENARIOS = {
    "throttle_dfq": (throttle_dfq,
        "fc5406084e2b3aeeb898daf96ff23c940f604a81df276591cf6e4d2a3f13d913"),
    "timeslice_denial": (timeslice_denial,
        "e85e794a9899e312b1abe6e59dbf4abb32f00e8b073f0c550db17823f2f3518c"),
    "profiled_apps": (profiled_apps,
        "e670eeadb8ca1538f264f9b6fbc88cc67cd4c9cfcb25d0737f006b3453381d27"),
    "cpu_contention": (cpu_contention,
        "6ee3876a017860799031c561dc5e4cb2e87edbe09747b812f2e3bb8a7af75265"),
    "kernel_fault_points": (kernel_fault_points,
        "d1fb6582c9cb574b75f183da2654c0171e217820556910ee05a2c7d15ae5a46b"),
    "adversarial": (adversarial,
        "d98fd8ae8163d094a648a343c2c2dda99cc20947f669619068f33c79da7a8a9a"),
    "syscall_modes": (syscall_modes,
        "b06aa4110ee5e6963a52d3f3b0f95beaecf5d752bc7a824a827642ac2c457fc9"),
    "traces": (traces,
        "35874aabd4cf14a899f6683889874f55cbd2261b1a2ed85635cea1bce6be6401"),
    "kills": (kills,
        "50b8edf3c16be31b49b3e1e6556c4840d06addb2eba1febb7012ef7a19d2364b"),
    "fleet_migration": (fleet_migration,
        "0a8e693864f0d9577c2ca48f29dc53f3cf5fcbd4e2e514c41fce114e053c449c"),
    "fleet_device_loss": (fleet_device_loss,
        "b5f2692e7bb31091160c203a33bc75859d6d2ec9ea3a0f7031e1695e054174a1"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_workload_transition_trace_is_pinned(name):
    scenario, expected = SCENARIOS[name]
    assert scenario() == expected
