"""Pinned traces of every execution-engine transition.

The figure grids never stall, abort, preempt or hit a GPU fault point, so
the golden output cannot catch a change in how those engine paths order
their work against other callbacks at the same instant.  Each scenario
here drives one of them and hashes its full trace JSONL, followed by a
log of probes that read the engine state at fixed instants and at the
instants some requests finish service, and a closing line of engine
counters.  Any
change in what the engine does, or in the order it does it relative to
other same-instant callbacks, changes the digest.

Channel and task ids come from process-global counters, so the ids in
trace payloads are renumbered in order of first appearance before hashing.
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from repro.experiments.chaos import (
    BYSTANDER,
    VICTIM,
    WARMUP_US,
    builtin_plans,
    chaos_costs,
)
from repro.experiments.runner import build_env, run_workloads
from repro.faults import registry as fault_points
from repro.faults.injector import Injector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.gpu.device import GpuDevice
from repro.gpu.params import GpuParams
from repro.gpu.request import Request, RequestKind
from repro.obs import events
from repro.obs.export import write_jsonl
from repro.osmodel.costs import CostParams
from repro.osmodel.task import Task
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecord, TraceRecorder
from repro.workloads.adversarial import InfiniteKernel
from repro.workloads.apps import make_app
from repro.workloads.throttle import Throttle

PROBE_EVERY_US = 5.0


class Probes:
    """A log of the engine state, read at fixed instants and at the
    instant each odd-ref request finishes service.  The latter probes are
    queued behind the request's completion timer, so they see whatever
    the engine has done by then at that instant."""

    def __init__(self, sim, device):
        self.sim = sim
        self.device = device
        self.log = []
        device.trace.add_sink(self._on_record)

    def every(self, period_us, until_us):
        for step in range(int(until_us / period_us)):
            self.sim.schedule_at(step * period_us, self.probe)

    def probe(self):
        engine = self.device.main_engine
        channels = list(self.device.channels.values())
        current = engine.current
        self.log.append((
            "probe", self.sim.now,
            None if current is None else current.ref,
            None if current is None else channels.index(
                engine.current_channel),
            engine.busy_us, engine.switch_us, engine.wakeups,
            [channel.refcounter for channel in channels],
            [len(channel.queue) for channel in channels],
        ))

    def _on_record(self, record):
        if record.kind != events.EXEC_BEGIN or not record.payload["ref"] % 2:
            return
        engine = next(engine for engine in self.device.engines
                      if record.source == f"gpu.{engine.name}")
        if not engine.current.never_completes:
            self.sim.schedule(engine.current.remaining_us, self.probe)


class Rig:
    """A bare device with a retaining trace, closed-loop submitters and
    probes of the engine state."""

    def __init__(self, params=None, plan=None):
        self.sim = Simulator()
        self.trace = TraceRecorder()
        faults = None
        if plan is not None:
            faults = Injector(plan, self.sim, trace=self.trace)
        self.device = GpuDevice(self.sim, params, trace=self.trace,
                                faults=faults)
        self.engine = self.device.main_engine
        self.probes = Probes(self.sim, self.device)

    def channel(self, name, kind=RequestKind.COMPUTE, context=None):
        if context is None:
            context = self.device.create_context(Task(name))
        return self.device.create_channel(context, kind)

    def submit(self, channel, size_us):
        request = Request(channel.kind, size_us, True)
        self.device.submit(channel, request)
        return request

    def loop(self, channel, sizes, think_us=0.0, start_us=0.0):
        """Submit ``sizes`` one after another, each ``think_us`` after the
        previous one completes (a blocking application's closed loop)."""
        pending = list(sizes)

        def submit_next(*_):
            if pending and not channel.dead:
                request = self.submit(channel, pending.pop(0))
                request.completion.add_callback(
                    lambda _event: self.sim.schedule(think_us, submit_next)
                )

        self.sim.schedule(start_us, submit_next)

    def at(self, time_us, fn, *args):
        self.sim.schedule_at(time_us, lambda: self.probes.log.append(
            ("call", self.sim.now, fn.__name__, fn(*args))
        ))

    def run(self, until_us):
        self.probes.every(PROBE_EVERY_US, until_us)
        self.sim.run(until=until_us)
        return digest(self.trace, self.probes.log,
                      engine_counters(self.device))


def engine_counters(device):
    return [
        (engine.name, engine.busy_us, engine.switch_us, engine.wakeups,
         engine.preemptions, engine.completed_requests)
        for engine in device.engines
    ]


def digest(trace, probes=(), counters=()):
    channel_ids: dict = {}
    task_ids: dict = {}

    def local(ids, value):
        return ids.setdefault(value, len(ids))

    def renumber(payload):
        payload = dict(payload)
        if "channel" in payload:
            payload["channel"] = local(channel_ids, payload["channel"])
        if "offenders" in payload:
            payload["offenders"] = [
                local(channel_ids, value) for value in payload["offenders"]
            ]
        if "allowed" in payload:
            payload["allowed"] = [
                local(task_ids, value) for value in payload["allowed"]
            ]
        return payload

    normalized = TraceRecorder()
    for record in trace.records():
        normalized.append(TraceRecord(
            record.time, record.source, record.kind, renumber(record.payload)
        ))
    stream = io.StringIO()
    write_jsonl(normalized, stream)
    for probe in probes:
        stream.write(json.dumps(probe) + "\n")
    stream.write(json.dumps(counters) + "\n")
    return hashlib.sha256(stream.getvalue().encode()).hexdigest()


# ----------------------------------------------------------------------
# Device-level scenarios
# ----------------------------------------------------------------------
def context_switch_stall():
    rig = Rig()
    a = rig.channel("a")
    a2 = rig.channel("a2", context=a.context)
    b = rig.channel("b")
    rig.loop(a, [10.0, 7.5, 12.0, 5.0] * 6)
    rig.loop(a2, [3.0, 20.0] * 8, think_us=2.0)
    rig.loop(b, [15.0, 4.0, 9.0] * 6, think_us=1.0, start_us=3.0)
    rig.at(103.0, rig.engine.inject_stall, 40.0)
    rig.at(103.0, rig.engine.inject_stall, 5.0)
    rig.at(310.0, rig.engine.inject_stall, 25.0)
    return rig.run(700.0)


def kill_abort():
    rig = Rig()
    a = rig.channel("a")
    b = rig.channel("b")
    c = rig.channel("c")
    rig.submit(a, 1000.0)
    rig.submit(a, 50.0)
    rig.loop(b, [20.0] * 40, think_us=5.0)
    rig.loop(c, [30.0] * 10, think_us=10.0, start_us=60.0)
    rig.at(130.0, rig.device.kill_context, a.context)
    rig.at(130.0, rig.engine.abort_current, a.context)
    # A second kill, of a context whose closed loop is in flight.
    rig.at(250.0, rig.device.kill_context, c.context)
    rig.at(400.0, rig.engine.abort_current, b.context)
    # y's context dies while the engine is switching to it.
    x = rig.channel("x")
    y = rig.channel("y")

    def kill_during_switch():
        rig.submit(x, 10.0).completion.add_callback(
            lambda _event: rig.sim.schedule(
                1.0, rig.device.kill_context, y.context)
        )
        rig.submit(y, 10.0)

    rig.at(1600.0, kill_during_switch)
    return rig.run(1800.0)


def preempt_restore():
    params = GpuParams()
    params.preemption_supported = True
    rig = Rig(params)
    a = rig.channel("a")
    b = rig.channel("b")
    c = rig.channel("c")
    rig.loop(a, [300.0] * 8, think_us=1.0)
    rig.loop(b, [50.0] * 12, think_us=3.0, start_us=2.0)
    rig.submit(c, 400.0)
    preempt = rig.engine.preempt_current
    rig.at(120.0, preempt)
    rig.at(121.0, preempt)  # during the save: nothing is running
    rig.at(200.0, preempt, b.context)
    rig.at(200.0, preempt, a.context)
    rig.at(360.0, preempt)
    for time_us in range(500, 1400, 37):
        rig.at(float(time_us), preempt)
    rig.at(1450.0, rig.device.kill_context, c.context)
    rig.at(1451.0, preempt, c.context)
    return rig.run(3000.0)


def _graphics_rig():
    rig = Rig()
    graphics = rig.channel("gfx", RequestKind.GRAPHICS)
    compute = rig.channel("cmp")
    return rig, graphics, compute


def cooldown_wins():
    # One compute request, then graphics alone: each graphics request
    # served within the competition window waits out its penalty gap.
    rig, graphics, compute = _graphics_rig()
    rig.loop(compute, [40.0, 40.0])
    rig.loop(graphics, [30.0] * 12, start_us=1.0)
    return rig.run(1200.0)


def wake_wins():
    # Compute work keeps arriving while the graphics channel cools down:
    # the wake ends the wait before the cooldown timer does.
    rig, graphics, compute = _graphics_rig()
    rig.loop(compute, [12.0] * 30, think_us=20.0)
    rig.loop(graphics, [30.0] * 15, start_us=1.0)
    return rig.run(1500.0)


def fault_points_scenario():
    plan = FaultPlan(
        name="engine-faults",
        specs=(
            FaultSpec(fault_points.GPU_REFCOUNTER_STALL, magnitude_us=30.0,
                      probability=0.4),
            FaultSpec(fault_points.GPU_CONTEXT_SWITCH_SPIKE,
                      magnitude_us=15.0, probability=0.5),
        ),
        seed=5,
    )
    rig = Rig(plan=plan)
    a = rig.channel("a")
    b = rig.channel("b")
    a2 = rig.channel("a2", context=a.context)
    rig.loop(a, [10.0, 25.0] * 10)
    rig.loop(b, [8.0] * 20, think_us=3.0)
    rig.loop(a2, [5.0] * 20, think_us=7.0, start_us=4.0)
    return rig.run(1500.0)


# ----------------------------------------------------------------------
# Whole-environment scenarios
# ----------------------------------------------------------------------
def run_probed(env, workloads, duration_us, warmup_us):
    probes = Probes(env.sim, env.device)
    run_workloads(env, workloads, duration_us, warmup_us)
    return digest(env.trace, probes.log, engine_counters(env.device))


def chaos_mixed():
    # dfq under the chaos "mixed" plan: a hung request killed by the
    # runaway watchdog (abort + cleanup stall), refcounter stalls and
    # context-switch spikes, with the scheduler's drains in between.
    env = build_env("dfq", seed=3, costs=chaos_costs(),
                    trace=TraceRecorder(),
                    fault_plan=builtin_plans()["mixed"])
    workloads = [Throttle(800.0, name=VICTIM), Throttle(800.0, name=BYSTANDER)]
    return run_probed(env, workloads, 220_000.0, WARMUP_US)


def preemptive_timeslice():
    params = GpuParams()
    params.preemption_supported = True
    costs = CostParams()
    costs.timeslice_us = 5_000.0
    env = build_env("timeslice", seed=1, gpu_params=params, costs=costs,
                    trace=TraceRecorder())
    workloads = [InfiniteKernel(normal_size_us=50.0, normal_requests=3),
                 Throttle(100.0, name="victim")]
    return run_probed(env, workloads, 60_000.0, 10_000.0)


def graphics_direct():
    env = build_env("direct", seed=2, trace=TraceRecorder())
    workloads = [make_app("glxgears"), make_app("BitonicSort")]
    return run_probed(env, workloads, 40_000.0, 5_000.0)


SCENARIOS = {
    "context_switch_stall": (context_switch_stall,
        "4d1d427bc4cfae18c537d285446efce5c1044348bb4c2fd3def53a4f77b3add4"),
    "kill_abort": (kill_abort,
        "7e0d7e09770e0d38d265a3f479d6287dbff08bb145ad0cc83b90e87e446a873b"),
    "preempt_restore": (preempt_restore,
        "e8837c8b4371b83bf2caee7e2dfec51e14892354016f1e09a7fe4946e3eff277"),
    "cooldown_wins": (cooldown_wins,
        "9cdbddb1bd11f1bcbb95178ba736d56f2649ef2af35d9ad3b60450c12f84d289"),
    "wake_wins": (wake_wins,
        "2d45e3b1c7b3c7aa3b6bf7b2d322ada8b0cfc745591535c726fe1fa52de588f6"),
    "fault_points": (fault_points_scenario,
        "6ca4efe6d3733217ec395d46d6d4f16b59a615c3ac53b6e8fca8be5b389d8bb6"),
    "chaos_mixed": (chaos_mixed,
        "4e68e482d7ace2e0b4b914fff2cfd9e43154459f2410878fe0dbbd99f65501ae"),
    "preemptive_timeslice": (preemptive_timeslice,
        "0bb9c2aeca57c520d9f362839574595992b78f5d007f6376e156e371d6d05e01"),
    "graphics_direct": (graphics_direct,
        "9d55251cd9e5f4456b216aca4ae8210325d3e25c3583d9c07397bd3ce81ef5dd"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_engine_transition_trace_is_pinned(name):
    scenario, expected = SCENARIOS[name]
    assert scenario() == expected
