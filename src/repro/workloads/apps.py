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

    def run(self) -> None:
        profile = self.profile
        channels = {kind: self.open_channel(kind) for kind in profile.kinds()}
        # One round as a flat list of requests, resolved once: a per-round
        # lookup would hash the kind through ``enum.py``.
        self._plan = [
            (channels[burst.kind], size, burst.jitter, burst.blocking,
             burst.pre_gap_us)
            for burst in profile.bursts
            for size in burst.sizes
        ]
        self._round()

    def _round(self) -> None:
        self._start = self.sim.now
        self._index = 0
        think_us = self.profile.think_us
        if think_us > 0:
            self.cpu_work(self.jittered(think_us), self._next)
        else:
            self._next()

    def _next(self) -> None:
        """Issue the round's next request, or end the round."""
        index = self._index
        if index == len(self._plan):
            if self.profile.drain_each_round:
                self.drain_pipelines(self._end_round)
            else:
                self._end_round()
            return
        self._index = index + 1
        channel, size, jitter, blocking, pre_gap_us = self._plan[index]
        if pre_gap_us > 0:
            self.cpu_work(self.jittered(pre_gap_us), self._issue, channel,
                          size, jitter, blocking)
        else:
            self._issue(channel, size, jitter, blocking)

    def _issue(self, channel, size: float, jitter: float, blocking: bool) -> None:
        drawn = self.jittered(size, jitter)
        if blocking:
            self.submit(channel, drawn, self._next)
        else:
            self.submit_pipelined(channel, drawn, self.profile.pipeline_depth,
                                  self._next)

    def _end_round(self) -> None:
        self.rounds.record(self._start, self.sim.now)
        self._round()


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
