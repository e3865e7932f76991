"""The discrete-event simulator core.

A :class:`Simulator` owns the virtual clock and a queue of scheduled
callbacks.  Callbacks scheduled for the same instant fire in the order they
were scheduled (FIFO tie-breaking by a monotonically increasing sequence
number), which makes every simulation deterministic.

The callbacks live in a binary-heap :class:`~repro.sim.queues.HeapEventQueue`.
Scheduling goes through the queue's ``push``/``push_now``; :meth:`Simulator.run`
is the one place that pops, and it does so inline on the queue's heap list.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, Optional

from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.queues import COMPACT_MIN_CANCELLED, HeapEventQueue


class TimerHandle:
    """A cancellable handle for a scheduled callback.

    Returned by :meth:`Simulator.schedule`.  Calling :meth:`cancel` before
    the deadline prevents the callback from running; cancelling after it has
    fired is a harmless no-op.
    """

    __slots__ = ("time", "seq", "_cancelled", "_queue", "_popped")

    def __init__(self, time: float, seq: int, queue=None):
        self.time = time
        self.seq = seq
        self._cancelled = False
        self._queue = queue
        self._popped = False

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        if self._cancelled:
            return
        self._cancelled = True
        if self._queue is not None and not self._popped:
            self._queue.note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "armed"
        return f"TimerHandle(t={self.time:.3f}, seq={self.seq}, {state})"


class Simulator:
    """Event-driven simulator with a microsecond-resolution virtual clock.

    Typical use::

        sim = Simulator()

        def worker():
            yield 5.0            # sleep 5 microseconds
            done.trigger("ok")

        done = sim.event()
        sim.spawn(worker(), name="worker")
        sim.run(until=100.0)
    """

    #: Compaction threshold (kept here for introspection; the queue owns
    #: the policy — see :mod:`repro.sim.queues`).
    COMPACT_MIN_CANCELLED = COMPACT_MIN_CANCELLED

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue = HeapEventQueue()
        self._seq = 0
        self._running = False

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` after ``delay`` microseconds of virtual time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        queue = self._queue
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = TimerHandle(time, seq, queue)
        entry = (time, seq, handle, fn, args)
        if delay == 0.0:
            queue.push_now(entry)
        else:
            queue.push(entry)
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        now = self.now
        if time < now:
            raise ValueError(f"cannot schedule in the past: {time} < {now}")
        queue = self._queue
        handle = TimerHandle(time, self._seq, queue)
        entry = (time, self._seq, handle, fn, args)
        self._seq += 1
        if time == now:
            queue.push_now(entry)
        else:
            queue.push(entry)
        return handle

    def defer(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` microseconds, with no handle.

        Same queue position as ``schedule(delay, ...)``, minus the
        :class:`TimerHandle`: for callback state machines that make their
        own stale callbacks inert (a generation token) instead of
        cancelling them.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        entry = (self.now + delay, self._seq, None, fn, args)
        self._seq += 1
        if delay == 0.0:
            self._queue.push_now(entry)
        else:
            self._queue.push(entry)

    def schedule_now(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at the current instant (internal fast path).

        Identical ordering semantics to ``schedule(0.0, ...)`` but without
        a cancellation handle — used by the event/process machinery, where
        stale wakeups are already guarded by tokens or trigger flags.
        """
        self._queue.push_now((self.now, self._seq, None, fn, args))
        self._seq += 1

    def event(self) -> Event:
        """Create a fresh one-shot :class:`Event` bound to this simulator."""
        return Event(self)

    def spawn(
        self, generator: Generator, name: Optional[str] = None
    ) -> Process:
        """Start a new coroutine process.

        The generator is stepped for the first time via a zero-delay
        callback, so spawning inside a running callback is safe.
        """
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue is empty, or the clock passes ``until``.

        When ``until`` is given, the clock is left exactly at ``until`` even
        if later events remain queued (they stay queued and a subsequent
        ``run`` call may continue).
        """
        if self._running:
            raise RuntimeError("Simulator.run is not reentrant")
        self._running = True
        queue = self._queue
        # The queue's list itself: compaction rewrites it in place, so it
        # stays valid while callbacks cancel timers.
        heap = queue._heap
        limit = inf if until is None else until
        try:
            while heap:
                entry = heappop(heap)
                handle = entry[2]
                if handle is not None:
                    handle._popped = True
                    if handle._cancelled:
                        queue._cancelled -= 1
                        continue
                if entry[0] > limit:
                    # Past the horizon: put it back, still cancellable.
                    heappush(heap, entry)
                    if handle is not None:
                        handle._popped = False
                    break
                self.now = entry[0]
                entry[3](*entry[4])
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) scheduled callbacks."""
        return len(self._queue)

    @property
    def queued_entries(self) -> int:
        """Total stored queue entries, cancelled ones included."""
        return self._queue.allocated

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.3f}, pending={self.pending_events})"
