"""Workload-level batched submission (submit_burst)."""

from repro.experiments.runner import build_env, run_workloads
from repro.gpu.request import RequestKind
from repro.workloads.base import Workload


class _BurstWorkload(Workload):
    """Submits its requests in fixed-size bursts, then drains."""

    def __init__(self, bursts=4, burst_size=8):
        super().__init__("burster")
        self.bursts = bursts
        self.burst_size = burst_size
        self.completions = []

    def run(self):
        self.channel = self.open_channel(RequestKind.COMPUTE)
        self.burst(0)

    def burst(self, sent):
        if sent == self.bursts:
            self.await_all(0)
            return
        self.in_flight = self.submit_burst(
            self.channel, [25.0] * self.burst_size, self.think, sent + 1
        )

    def think(self, sent):
        self.completions.extend(
            request.completion for request in self.in_flight
        )
        self.sleep(500.0, self.burst, sent)  # think time between bursts

    def await_all(self, index):
        for position in range(index, len(self.completions)):
            event = self.completions[position]
            if not event.triggered:
                self.wait(event, self.await_all, position + 1)
                return
        self.finish()


def test_burst_workload_completes_all_requests():
    env = build_env("direct")
    workload = _BurstWorkload(bursts=4, burst_size=8)
    run_workloads(env, [workload], 60_000.0, 0.0)
    assert len(workload.requests) == 32
    assert all(event.triggered for event in workload.completions)
    # Each burst of 8 wakes the engine at most once (plus teardown);
    # far below the 32 wakes an unbatched submit loop could cost.
    assert env.kernel.device.main_engine.wakeups <= 5
