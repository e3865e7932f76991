"""Acceleration requests — the unit of work submitted to a channel."""

from __future__ import annotations

import enum
import itertools
import math
from typing import TYPE_CHECKING, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.channel import Channel


class RequestKind(enum.Enum):
    """The engine class a request executes on."""

    COMPUTE = "compute"
    GRAPHICS = "graphics"
    DMA = "dma"


_request_ids = itertools.count(1)


class Request:
    """One request as seen at the hardware/software interface.

    ``size_us`` is the GPU service time the request will consume;
    ``math.inf`` models a malicious/buggy request that never completes
    (Section 3.1's denial-of-service scenario).

    A request's ``ref`` is the per-channel reference-counter value the
    hardware writes upon its completion — the completion-detection handle
    both the user-level library and the NEON polling service rely on.

    Software learns of completion through :meth:`settle`: it sets ``done``
    and pushes the request's one ``waiter`` continuation, if any.
    Callers that prefer an :class:`~repro.sim.events.Event` read
    :attr:`completion`, which is created on first use.
    """

    __slots__ = (
        "request_id",
        "kind",
        "size_us",
        "remaining_us",
        "blocking",
        "channel",
        "ref",
        "submit_time",
        "start_time",
        "finish_time",
        "aborted",
        "preemptions",
        "done",
        "waiter",
        "_completion",
    )

    def __init__(
        self,
        kind: RequestKind,
        size_us: float,
        blocking: bool = True,
    ) -> None:
        if size_us < 0:
            raise ValueError(f"request size must be non-negative: {size_us}")
        self.request_id = next(_request_ids)
        self.kind = kind
        self.size_us = float(size_us)
        #: Unserved work; shrinks across preempted execution segments.
        self.remaining_us = float(size_us)
        self.blocking = blocking
        self.preemptions = 0
        # Assigned at submission:
        self.channel: Optional["Channel"] = None
        self.ref: Optional[int] = None
        self.submit_time: Optional[float] = None
        # Assigned at service:
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.aborted = False
        #: Set once the request completed or was aborted.
        self.done = False
        #: ``(fn, args)`` pushed at the current instant when the request
        #: settles; one waiter at most.
        self.waiter: Optional[tuple] = None
        self._completion: Optional["Event"] = None

    @property
    def completion(self) -> "Event":
        """A one-shot event triggered (with the request) when it settles.

        Created on first read, so requests nobody waits on this way cost
        no event.  Needs the request to have been enqueued on a device
        channel (the channel carries the simulator).
        """
        event = self._completion
        if event is None:
            event = self._completion = Event(self.channel.sim)
            if self.done:
                event.triggered = True
                event.value = self
        return event

    def settle(self) -> None:
        """Mark the request done and wake its waiter (complete or abort).

        The waiter is pushed at the current instant, where triggering a
        completion event would have pushed it; settling twice is a no-op.
        """
        if self.done:
            return
        self.done = True
        waiter = self.waiter
        if waiter is not None:
            self.waiter = None
            sim = self.channel.sim
            sim._queue.push_now((sim.now, sim._seq, None, waiter[0], waiter[1]))
            sim._seq += 1
        event = self._completion
        if event is not None:
            event.trigger(self)

    @property
    def never_completes(self) -> bool:
        """True for infinite (runaway) requests."""
        return math.isinf(self.size_us)

    @property
    def service_time(self) -> Optional[float]:
        """Actual engine time consumed, once finished or aborted."""
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"ch{self.channel.channel_id}" if self.channel else "unsubmitted"
        return (
            f"Request(#{self.request_id}, {self.kind.value}, "
            f"{self.size_us:.1f}us, {where})"
        )
