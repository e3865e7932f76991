"""Tests for the workload base class."""

import math

import pytest

from repro.experiments.runner import build_env, run_workloads
from repro.gpu.request import RequestKind
from repro.workloads.base import Workload


class TwoRequestApp(Workload):
    """Submits one blocking pair per round, forever."""

    def __init__(self, sizes=(10.0, 30.0)):
        super().__init__("two-request")
        self.sizes = sizes

    def run(self):
        self.channel = self.open_channel(RequestKind.COMPUTE)
        self.round()

    def round(self):
        self.start = self.sim.now
        self.next_size(0)

    def next_size(self, index):
        if index == len(self.sizes):
            self.rounds.record(self.start, self.sim.now)
            self.round()
            return
        self.submit(self.channel, self.sizes[index], self.next_size, index + 1)


class PipelinedApp(Workload):
    def __init__(self, depth):
        super().__init__("pipelined")
        self.depth = depth

    def run(self):
        self.channel = self.open_channel(RequestKind.COMPUTE)
        self.issue(0)

    def issue(self, count):
        if count == 20:
            self.drain_pipelines(self.drained)
            return
        self.submit_pipelined(self.channel, 50.0, self.depth, self.issue,
                              count + 1)

    def drained(self):
        self.rounds.record(0.0, self.sim.now)
        self.finish()


def test_rounds_and_requests_recorded():
    env = build_env("direct")
    app = TwoRequestApp()
    run_workloads(env, [app], 10_000.0, 0.0)
    assert len(app.rounds) > 100
    assert abs(len(app.requests) - 2 * len(app.rounds)) <= 2


def test_mean_request_size_excludes_dma():
    app = TwoRequestApp()
    app.requests = []
    from repro.gpu.request import Request

    app.requests.append(Request(RequestKind.COMPUTE, 100.0))
    app.requests.append(Request(RequestKind.DMA, 999.0))
    assert app.mean_request_size() == 100.0


def test_mean_request_size_ignores_infinite():
    from repro.gpu.request import Request

    app = TwoRequestApp()
    app.requests = [
        Request(RequestKind.COMPUTE, 100.0),
        Request(RequestKind.COMPUTE, math.inf),
    ]
    assert app.mean_request_size() == 100.0


def test_pipelining_overlaps_cpu_and_gpu():
    env = build_env("direct")
    deep = PipelinedApp(depth=4)
    run_workloads(env, [deep], 50_000.0, 0.0)
    depth1_env = build_env("direct")
    shallow = PipelinedApp(depth=1)
    run_workloads(depth1_env, [shallow], 50_000.0, 0.0)
    # Both drain 20 x 50us of work; deeper pipelining cannot be slower.
    assert deep.rounds._ends[0] <= shallow.rounds._ends[0] + 1.0


def test_jittered_is_mean_preserving():
    env = build_env("direct")
    app = TwoRequestApp()
    app.start(env.sim, env.kernel, env.rng)
    draws = [app.jittered(100.0, 0.1) for _ in range(4000)]
    assert abs(sum(draws) / len(draws) - 100.0) < 2.0


def test_jittered_zero_sigma_is_identity():
    env = build_env("direct")
    app = TwoRequestApp()
    app.start(env.sim, env.kernel, env.rng)
    assert app.jittered(100.0, 0.0) == 100.0


def test_normal_exit_releases_resources():
    class OneShot(Workload):
        def run(self):
            channel = self.open_channel(RequestKind.COMPUTE)
            self.submit(channel, 10.0, self.finish)

    env = build_env("direct")
    app = OneShot("oneshot")
    run_workloads(env, [app], 5_000.0, 0.0)
    assert not app.task.alive
    assert env.device.live_channel_count == 0
