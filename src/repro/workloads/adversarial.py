"""Adversarial and misbehaving workloads for the protection experiments.

These exercise the paper's safety claims: an infinite-loop compute request
(the Section 3.1 denial-of-service), a greedy batcher that inflates its
request sizes to hog a work-conserving device, and a channel hog mounting
the Section 6.3 channel-exhaustion attack.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.gpu.device import OutOfResourcesError
from repro.gpu.request import RequestKind
from repro.workloads.base import Workload


class InfiniteKernel(Workload):
    """Behaves normally for a while, then submits a request that never
    completes.  A fair-and-safe scheduler must detect and kill it."""

    def __init__(
        self,
        normal_size_us: float = 100.0,
        normal_requests: int = 20,
        name: str = "infinite-kernel",
    ) -> None:
        super().__init__(name)
        self.normal_size_us = normal_size_us
        self.normal_requests = normal_requests

    def run(self) -> None:
        self._channel = self.open_channel(RequestKind.COMPUTE)
        self._sent = 0
        self._next()

    def _next(self) -> None:
        if self._sent == self.normal_requests:
            # The attack: a compute kernel with an infinite loop.
            self.submit(self._channel, math.inf, self.finish)
            return
        self._sent += 1
        self._start = self.sim.now
        self.submit(self._channel, self.normal_size_us, self._completed)

    def _completed(self) -> None:
        self.rounds.record(self._start, self.sim.now)
        self._next()


class GreedyBatcher(Workload):
    """A selfish application that batches work into outsized requests to
    grab a larger share of a work-conserving device (Section 1)."""

    def __init__(
        self,
        work_unit_us: float = 50.0,
        batch_factor: int = 20,
        name: str = "greedy-batcher",
    ) -> None:
        super().__init__(name)
        self.work_unit_us = work_unit_us
        self.batch_factor = batch_factor

    def run(self) -> None:
        self._channel = self.open_channel(RequestKind.COMPUTE)
        self._round()

    def _round(self) -> None:
        self._start = self.sim.now
        self.submit(self._channel, self.work_unit_us * self.batch_factor,
                    self._completed)

    def _completed(self) -> None:
        # One round is one batch = batch_factor units of useful work.
        self.rounds.record(self._start, self.sim.now)
        self._round()


class MemoryHog(Workload):
    """Allocates device memory in large chunks until refused — the memory
    half of Section 6.3's abuse scenarios."""

    def __init__(self, chunk_mib: float = 128.0, name: str = "memory-hog") -> None:
        super().__init__(name)
        self.chunk_mib = chunk_mib
        self.allocated_mib = 0.0
        self.denied: Optional[str] = None

    def run(self) -> None:
        self._context = self.kernel.open_context(self.task)
        self._allocate()

    def _allocate(self) -> None:
        try:
            self.kernel.allocate_memory(self.task, self._context, self.chunk_mib)
        except OutOfResourcesError as error:
            self.denied = str(error)
            return  # hold the memory and idle forever
        self.allocated_mib += self.chunk_mib
        self.sleep(5.0, self._allocate)  # an allocation syscall's worth


class ChannelHog(Workload):
    """Opens contexts and channels until the device (or the quota policy)
    refuses, then sits on them — the Section 6.3 DoS."""

    def __init__(self, name: str = "channel-hog") -> None:
        super().__init__(name)
        self.contexts_opened = 0
        self.channels_opened = 0
        self.denied: Optional[str] = None

    def run(self) -> None:
        self._open_more()

    def _open_more(self) -> None:
        try:
            context = self.kernel.open_context(self.task)
            self.contexts_opened += 1
            for kind in (RequestKind.COMPUTE, RequestKind.DMA):
                self.kernel.open_channel(self.task, context, kind)
                self.channels_opened += 1
        except OutOfResourcesError as error:
            self.denied = str(error)
            return  # hold everything and idle forever
        self.sleep(1.0, self._open_more)  # a syscall's worth of setup
