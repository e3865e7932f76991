"""Kills that land in each kind of wait of a callback workload.

A workload waits in one of a few ways: a sleep (think time, a submit or
trap cost), an event (a scheduler verdict inside the fault handler, a
free CPU core), or a request's completion (blocking submit, a full
pipeline, a drain).  A kill in any of them must stop the workload for
good: ``killed`` is set, no request reaches the device and no round is
recorded afterwards, and every continuation queued before the kill runs
as a no-op.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import build_env
from repro.gpu.params import GpuParams
from repro.gpu.request import Request, RequestKind
from repro.osmodel.costs import CostParams
from repro.osmodel.task import TaskState
from repro.sim.events import Event
from repro.workloads.apps import ProfiledApp
from repro.workloads.profiles import AppProfile, RequestBurst
from repro.workloads.throttle import Throttle
from repro.workloads.traces import TraceEntry, TraceWorkload

PIPELINED = AppProfile(
    name="pipelined", area="test",
    bursts=(
        RequestBurst(RequestKind.COMPUTE, (40.0,)),
        RequestBurst(RequestKind.GRAPHICS, (80.0,) * 4, blocking=False),
    ),
    think_us=20.0,
    pipeline_depth=2,
    drain_each_round=True,
)


class Watch:
    """Kills ``workload`` right after it enters the first wait that
    ``matches``, and records every continuation it runs."""

    def __init__(self, env, workload, helper, matches=lambda *args: True,
                 how="task"):
        self.env = env
        self.workload = workload
        self.kill_time = None
        self.live_after_kill = []
        original = getattr(workload, helper)

        def hooked(*args, **kwargs):
            result = original(*args, **kwargs)
            if self.kill_time is None and matches(*args):
                self.kill_time = env.sim.now
                self.args = args
                self.snapshot = (len(workload.rounds), self.reached())
                env.sim.schedule_now(self.kill, how)
            return result

        setattr(workload, helper, hooked)
        tick = workload._tick

        def watched_tick(gen, fn, args):
            if self.kill_time is not None and gen == workload._gen:
                self.live_after_kill.append((env.sim.now, fn.__name__))
            tick(gen, fn, args)

        workload._tick = watched_tick

    def kill(self, how):
        if how == "task":
            self.env.kernel.kill_task(self.workload.task, "test kill")
        else:
            self.workload.task.process.kill("test kill")
        # What the matched wait left registered, read right after the kill.
        wait = self.args[0]
        if isinstance(wait, Request):
            self.left_behind = wait.waiter
        elif isinstance(wait, Event):
            self.left_behind = list(wait._callbacks)

    def reached(self):
        """Requests of the workload that reached the device."""
        return sum(
            1 for request in self.workload.requests
            if request.submit_time is not None
        )

    def run(self, others=(), until_us=20_000.0):
        """Start ``others``, then the watched workload; run; check."""
        for workload in (*others, self.workload):
            workload.start(self.env.sim, self.env.kernel, self.env.rng)
        self.env.sim.run(until=until_us)
        assert self.kill_time is not None, "the wait was never reached"
        assert self.workload.killed
        assert not self.workload.alive
        assert (len(self.workload.rounds), self.reached()) == self.snapshot
        assert self.live_after_kill == []


def test_kill_during_think_sleep():
    env = build_env("direct")
    throttle = Throttle(50.0, sleep_ratio=0.5, name="sleepy")
    Watch(env, throttle, "sleep").run()


@pytest.mark.parametrize("how", ["task", "process"])
def test_kill_during_submit_cost(how):
    env = build_env("direct")
    throttle = Throttle(50.0, name="t")
    watch = Watch(env, throttle, "submit", how=how)
    watch.run()
    # The request whose submission was cut short never reached the device.
    assert throttle.requests[-1].submit_time is None


@pytest.mark.parametrize("how", ["task", "process"])
def test_kill_while_blocked_in_fault_handler(how):
    costs = CostParams()
    costs.timeslice_us = 5_000.0
    env = build_env("timeslice", costs=costs)
    blocked = Throttle(60.0, name="blocked")
    holder = Throttle(60.0, name="holder")
    watch = Watch(env, blocked, "wait", how=how)
    watch.run(others=(holder,))
    # The kill withdrew the waiter from the scheduler's verdict event.
    assert watch.left_behind == []
    assert blocked._event_wait is None
    if how == "task":
        assert blocked.task.state is TaskState.DEAD


def test_kill_while_waiting_for_a_core():
    costs = CostParams()
    costs.cpu_cores = 1
    env = build_env("direct", costs=costs)
    waiter = ProfiledApp(PIPELINED, name="waiter")
    hog = ProfiledApp(PIPELINED, name="hog")
    Watch(env, waiter, "wait").run(others=(hog,))
    assert waiter._event_wait is None  # withdrawn from the core's event
    assert len(hog.rounds) > 0


def test_kill_while_holding_a_core_releases_it():
    costs = CostParams()
    costs.cpu_cores = 1
    env = build_env("direct", costs=costs)
    app = ProfiledApp(PIPELINED, name="thinker")
    Watch(env, app, "cpu_work").run(until_us=5_000.0)
    pool = env.kernel.cpu
    assert app.core is None
    assert pool.idle_cores == pool.cores


def _waits_on(step_name):
    return lambda request, fn, *args: fn.__name__ == step_name


@pytest.mark.parametrize("how", ["task", "process"])
def test_kill_during_completion_wait(how):
    env = build_env("direct")
    app = ProfiledApp(PIPELINED, name="app")
    watch = Watch(env, app, "wait_request", _waits_on("_next"), how=how)
    watch.run()
    # The kill emptied the request's waiter slot (a task kill aborts it).
    assert watch.left_behind is None
    assert watch.args[0].aborted == (how == "task")


def test_kill_during_pipeline_wait():
    env = build_env("direct")
    app = ProfiledApp(PIPELINED, name="app")
    Watch(env, app, "wait_request", _waits_on("submit_pipelined")).run()


def test_kill_during_drain():
    env = build_env("direct")
    app = ProfiledApp(PIPELINED, name="app")
    Watch(env, app, "wait_request", _waits_on("_drain")).run()


@pytest.mark.parametrize("how", ["task", "process"])
def test_kill_with_open_loop_requests_in_flight(how):
    env = build_env("direct")
    trace = TraceWorkload(
        [TraceEntry(at_us=at, size_us=200.0) for at in (0.0, 10.0, 20.0)],
        name="replay",
    )
    # Killed while waiting for the third entry's turn, two requests out.
    watch = Watch(env, trace, "sleep",
                  lambda delay, fn, *args: fn.__name__ == "_submit_open"
                  and args[0].at_us == 20.0, how=how)
    watch.run()
    in_flight = trace.requests[:2]
    # Both settle after the kill -- aborted by a task kill, completed
    # after a bare process kill -- and neither records a round.
    assert all(request.done for request in in_flight)
    assert all(request.aborted == (how == "task") for request in in_flight)
    assert len(trace.rounds) == 0


def test_out_of_resources_at_setup_sets_error_and_exits():
    params = GpuParams()
    params.total_channels = 1
    env = build_env("direct", gpu_params=params)
    first = Throttle(50.0, name="first")
    second = Throttle(50.0, name="second")
    for workload in (first, second):
        workload.start(env.sim, env.kernel, env.rng)
    env.sim.run(until=1_000.0)
    assert second.setup_error is not None
    assert "channels" in str(second.setup_error)
    assert second.task.state is TaskState.DEAD
    assert not second.alive and not second.killed
    assert second.requests == []
    assert first.setup_error is None and len(first.rounds) > 0
    # A kill after the exit is a no-op.
    pending = env.sim.pending_events
    second.kill("late")
    assert env.sim.pending_events == pending
