"""Execution of Table 1 application profiles."""

from __future__ import annotations

from typing import Optional

from repro.workloads.base import Workload
from repro.workloads.profiles import APP_PROFILES, AppProfile


class ProfiledApp(Workload):
    """Runs an :class:`~repro.workloads.profiles.AppProfile` in a loop.

    Each round: CPU think time, then the profile's bursts in order.
    Blocking requests wait for completion; non-blocking ones flow through a
    bounded per-channel pipeline (graphics frame queues).  Combined
    compute/graphics applications naturally end up with one channel per
    request kind, which is what trips Disengaged Fair Queueing's
    single-queue assumption (Section 5.3).
    """

    def __init__(self, profile: AppProfile, name: Optional[str] = None) -> None:
        super().__init__(name or profile.name)
        self.profile = profile

    def body(self):
        profile = self.profile
        channels = {kind: self.open_channel(kind) for kind in profile.kinds()}
        # Resolved once: a per-round lookup would hash the kind through
        # ``enum.py``.
        bursts = [(burst, channels[burst.kind]) for burst in profile.bursts]
        while True:
            start = self.sim.now
            if profile.think_us > 0:
                yield from self.cpu_work(self.jittered(profile.think_us))
            for burst, channel in bursts:
                for size in burst.sizes:
                    if burst.pre_gap_us > 0:
                        yield from self.cpu_work(self.jittered(burst.pre_gap_us))
                    drawn = self.jittered(size, burst.jitter)
                    if burst.blocking:
                        yield from self.submit(channel, drawn)
                    else:
                        yield from self.submit_pipelined(
                            channel, drawn, profile.pipeline_depth
                        )
            if profile.drain_each_round:
                yield from self.drain_pipeline()
            self.rounds.record(start, self.sim.now)


def make_app(name: str, instance: Optional[str] = None) -> ProfiledApp:
    """Construct a Table 1 application by name.

    ``instance`` overrides the workload label so the same benchmark can
    appear multiple times in one experiment.
    """
    try:
        profile = APP_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(APP_PROFILES))
        raise KeyError(f"unknown application {name!r}; known: {known}") from None
    return ProfiledApp(profile, name=instance)
