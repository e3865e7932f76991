"""The simulator's event queue.

The simulator stores scheduled callbacks as plain tuples::

    (time, seq, handle, fn, args)

ordered by the total order ``(time, seq)`` — ``seq`` is the global
scheduling sequence number, so callbacks scheduled for the same instant
fire in FIFO order.  ``handle`` is a :class:`~repro.sim.engine.TimerHandle`
for cancellable entries and ``None`` for the internal fast path (event
callbacks, process wakeups) that nothing ever cancels.  Tuple entries keep
every ordering comparison inside the C tuple-compare path; ``seq`` values
are unique, so the comparison never reaches the non-orderable tail.

:class:`HeapEventQueue` keeps them in a single binary heap (``heapq``).
The pending set is small — tens of entries — so a push or pop is a few
C-level tuple compares.  Entries go in through :meth:`HeapEventQueue.push`
and :meth:`HeapEventQueue.push_now`; :meth:`Simulator.run
<repro.sim.engine.Simulator.run>` pops ``_heap`` directly.

The queue owns the cancelled-entry bookkeeping: cancelling marks the
handle and bumps a counter; once cancelled entries are the majority (and
at least ``COMPACT_MIN_CANCELLED`` of them exist) the queue compacts,
bounding memory under schedule/cancel churn (watchdog timeout patterns).
Compaction cannot reorder live entries — the order is total — and it
rewrites ``_heap`` in place, because a running simulator holds that list.
"""

from __future__ import annotations

from heapq import heapify, heappush

#: Never compact below this many cancelled entries (tiny queues are cheap
#: to scan); only once cancelled entries are the majority is the O(n)
#: rebuild amortized.
COMPACT_MIN_CANCELLED = 64

Entry = tuple  # (time, seq, handle_or_None, fn, args)


class HeapEventQueue:
    """Binary-heap event queue with lazy cancellation."""

    __slots__ = ("_heap", "_cancelled")

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._cancelled = 0

    # -- scheduling ----------------------------------------------------
    def push(self, entry: Entry) -> None:
        heappush(self._heap, entry)

    #: Entries at exactly the current instant: same heap, own name, so
    #: the two kinds of scheduling can be told apart from outside.
    push_now = push

    # -- inspection ----------------------------------------------------
    def due(self, now: float) -> bool:
        """True when a stored entry, live or cancelled, is at or before
        ``now``."""
        heap = self._heap
        return bool(heap) and heap[0][0] <= now

    # -- cancellation bookkeeping --------------------------------------
    def note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= len(self._heap)
        ):
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors in place."""
        live = []
        for entry in self._heap:
            handle = entry[2]
            if handle is not None and handle._cancelled:
                handle._popped = True
            else:
                live.append(entry)
        heapify(live)
        self._heap[:] = live
        self._cancelled = 0

    # -- accounting ----------------------------------------------------
    def __len__(self) -> int:
        """Live (non-cancelled) entries."""
        return len(self._heap) - self._cancelled

    @property
    def allocated(self) -> int:
        """Total stored entries, cancelled ones included."""
        return len(self._heap)


#: Event-queue classes by name.  The simulator uses only the heap; the
#: registry stays so code that instruments the queue's ``push`` and
#: ``push_now`` from outside can find every queue class.
QUEUE_BACKENDS = {"heap": HeapEventQueue}
