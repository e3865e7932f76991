"""Event-queue backends for the simulator core.

The simulator stores scheduled callbacks as plain tuples::

    (time, seq, handle, fn, args)

ordered by the total order ``(time, seq)`` — ``seq`` is the global
scheduling sequence number, so callbacks scheduled for the same instant
fire in FIFO order.  ``handle`` is a :class:`~repro.sim.engine.TimerHandle`
for cancellable entries and ``None`` for the internal fast path (event
callbacks, process wakeups) that nothing ever cancels.  Tuple entries keep
every ordering comparison inside the C tuple-compare path; ``seq`` values
are unique, so the comparison never reaches the non-orderable tail.

Two interchangeable backends implement the same pop order:

``HeapEventQueue``
    The classic single binary heap (``heapq``).  Simple, allocation-free,
    and the reference implementation the property tests compare against.

``CalendarEventQueue``
    A bucketed calendar queue: entries hash into fixed-width time buckets
    (small per-bucket heaps) indexed by a heap of non-empty bucket ids,
    plus a dedicated FIFO lane for entries scheduled at exactly the
    current instant.  Zero-delay callbacks — the bulk of all scheduling
    (event triggers, process wakeups) — bypass heap ordering entirely:
    within one instant they are FIFO by construction.  Pop compares the
    FIFO head with the head of the earliest bucket, so the merged order
    is exactly the heap backend's ``(time, seq)`` order.

Both backends own the cancelled-entry bookkeeping: cancelling marks the
handle and bumps a counter; once cancelled entries are the majority (and
at least ``COMPACT_MIN_CANCELLED`` of them exist) the queue compacts,
bounding memory under schedule/cancel churn (watchdog timeout patterns).
Compaction cannot reorder live entries — the order is total.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Optional

#: Never compact below this many cancelled entries (tiny queues are cheap
#: to scan); only once cancelled entries are the majority is the O(n)
#: rebuild amortized.
COMPACT_MIN_CANCELLED = 64

Entry = tuple  # (time, seq, handle_or_None, fn, args)


class HeapEventQueue:
    """Single binary-heap backend (the reference implementation)."""

    __slots__ = ("_heap", "_cancelled")

    name = "heap"

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._cancelled = 0

    # -- scheduling ----------------------------------------------------
    def push(self, entry: Entry) -> None:
        heappush(self._heap, entry)

    #: Entries at exactly the current instant take the same path here;
    #: the calendar backend overrides this with a FIFO lane.
    push_now = push

    # -- popping -------------------------------------------------------
    def due(self, now: float) -> bool:
        """True when a stored entry, live or cancelled, is at or before
        ``now``."""
        heap = self._heap
        return bool(heap) and heap[0][0] <= now

    def pop_live(self, limit: Optional[float] = None) -> Optional[Entry]:
        """Pop the earliest live entry; discard cancelled ones en route.

        With ``limit`` given, an entry scheduled after ``limit`` is left
        in place and ``None`` is returned.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            handle = head[2]
            if handle is not None and handle._cancelled:
                heappop(heap)
                handle._popped = True
                self._cancelled -= 1
                continue
            if limit is not None and head[0] > limit:
                return None
            return heappop(heap)
        return None

    # -- cancellation bookkeeping --------------------------------------
    def note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= len(self._heap)
        ):
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors."""
        live = []
        for entry in self._heap:
            handle = entry[2]
            if handle is not None and handle._cancelled:
                handle._popped = True
            else:
                live.append(entry)
        heapify(live)
        self._heap = live
        self._cancelled = 0

    # -- accounting ----------------------------------------------------
    def __len__(self) -> int:
        """Live (non-cancelled) entries."""
        return len(self._heap) - self._cancelled

    @property
    def allocated(self) -> int:
        """Total stored entries, cancelled ones included."""
        return len(self._heap)


class CalendarEventQueue:
    """Bucketed calendar-queue backend with a current-instant FIFO lane."""

    __slots__ = (
        "_width_inv",
        "_buckets",
        "_bucket_ids",
        "_fifo",
        "_cancelled",
        "_head",
        "_head_id",
    )

    name = "calendar"

    #: Default bucket width (µs).  Wide enough that a typical pending set
    #: (tens of events over a few ms) spreads over few-entry buckets;
    #: narrow enough that per-bucket heaps stay nearly sorted lists.
    DEFAULT_BUCKET_US = 16.0

    def __init__(self, bucket_us: float = DEFAULT_BUCKET_US) -> None:
        if bucket_us <= 0:
            raise ValueError("bucket width must be positive")
        self._width_inv = 1.0 / bucket_us
        #: bucket id -> small heap of entries whose time falls in
        #: [id * width, (id + 1) * width).
        self._buckets: dict[int, list[Entry]] = {}
        #: Min-heap of (possibly stale) non-empty bucket ids.
        self._bucket_ids: list[int] = []
        #: FIFO of entries scheduled at exactly the current instant; their
        #: seq numbers exceed every same-time entry already bucketed, so
        #: FIFO order is (time, seq) order within the lane.
        self._fifo: deque[Entry] = deque()
        self._cancelled = 0
        #: Cache of the earliest non-empty bucket (and its id), so runs of
        #: pops against one bucket skip the id-heap scan.  While cached,
        #: every other bucket has a strictly larger id; creating a bucket
        #: below the cached id invalidates the cache.
        self._head: Optional[list[Entry]] = None
        self._head_id: Optional[int] = None

    # -- scheduling ----------------------------------------------------
    def push(self, entry: Entry) -> None:
        bucket_id = int(entry[0] * self._width_inv)
        bucket = self._buckets.get(bucket_id)
        if bucket is None:
            self._buckets[bucket_id] = [entry]
            heappush(self._bucket_ids, bucket_id)
            head_id = self._head_id
            if head_id is not None and bucket_id < head_id:
                self._head = None
                self._head_id = None
        else:
            heappush(bucket, entry)

    def push_now(self, entry: Entry) -> None:
        """Append an entry scheduled at exactly the current instant."""
        self._fifo.append(entry)

    # -- popping -------------------------------------------------------
    def due(self, now: float) -> bool:
        """True when a stored entry, live or cancelled, is at or before
        ``now`` (the current instant of the simulator popping this queue).

        O(1): nothing stored is earlier than the entry last popped, so an
        entry at or before ``now`` is in the FIFO lane or at the head of
        the bucket holding ``now``.
        """
        if self._fifo:
            return True
        bucket = self._buckets.get(int(now * self._width_inv))
        return bool(bucket) and bucket[0][0] <= now

    def pop_live(self, limit: Optional[float] = None) -> Optional[Entry]:
        """Pop the earliest live entry across the FIFO lane and buckets.

        With ``limit`` given, an entry scheduled after ``limit`` is left
        in place and ``None`` is returned.
        """
        fifo = self._fifo
        while True:
            # Locate the earliest non-empty bucket: the cached head when
            # still valid, otherwise rescan the id heap, dropping stale
            # ids (a bucket emptied by popping leaves its id behind until
            # the scan reaches it again).
            bucket = self._head
            if not bucket:
                buckets = self._buckets
                ids = self._bucket_ids
                bucket = None
                head_id = None
                while ids:
                    head_id = ids[0]
                    bucket = buckets.get(head_id)
                    if bucket:
                        break
                    heappop(ids)
                    if bucket is not None:
                        del buckets[head_id]
                    bucket = None
                self._head = bucket
                self._head_id = head_id if bucket is not None else None
            # The earlier of bucket head and FIFO head is the global
            # minimum: the FIFO holds current-instant entries, and a
            # bucketed entry at that same time always has a lower seq
            # (it was scheduled before the clock reached that instant) —
            # so comparing times alone decides, ties going to the bucket.
            from_fifo = False
            if fifo:
                if bucket is not None and bucket[0][0] <= fifo[0][0]:
                    head = bucket[0]
                else:
                    head = fifo[0]
                    from_fifo = True
            elif bucket is not None:
                head = bucket[0]
            else:
                return None
            handle = head[2]
            if handle is not None and handle._cancelled:
                if from_fifo:
                    fifo.popleft()
                else:
                    heappop(bucket)
                handle._popped = True
                self._cancelled -= 1
                continue
            if limit is not None and head[0] > limit:
                return None
            return fifo.popleft() if from_fifo else heappop(bucket)

    # -- cancellation bookkeeping --------------------------------------
    def note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= self.allocated
        ):
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries; rebuild buckets and the id heap."""
        survivors: dict[int, list[Entry]] = {}
        for bucket in self._buckets.values():
            for entry in bucket:
                handle = entry[2]
                if handle is not None and handle._cancelled:
                    handle._popped = True
                    continue
                survivors.setdefault(int(entry[0] * self._width_inv), []).append(entry)
        for bucket in survivors.values():
            heapify(bucket)
        self._buckets = survivors
        self._bucket_ids = list(survivors)
        heapify(self._bucket_ids)
        self._head = None
        self._head_id = None
        live_fifo = deque()
        for entry in self._fifo:
            handle = entry[2]
            if handle is not None and handle._cancelled:
                handle._popped = True
            else:
                live_fifo.append(entry)
        self._fifo = live_fifo
        self._cancelled = 0

    # -- accounting ----------------------------------------------------
    def __len__(self) -> int:
        """Live (non-cancelled) entries."""
        return self.allocated - self._cancelled

    @property
    def allocated(self) -> int:
        """Total stored entries, cancelled ones included."""
        return sum(map(len, self._buckets.values())) + len(self._fifo)


QUEUE_BACKENDS = {
    HeapEventQueue.name: HeapEventQueue,
    CalendarEventQueue.name: CalendarEventQueue,
}


def make_queue(backend: str) -> Any:
    """Instantiate an event-queue backend by name."""
    try:
        factory = QUEUE_BACKENDS[backend]
    except KeyError:
        known = ", ".join(sorted(QUEUE_BACKENDS))
        raise ValueError(
            f"unknown event-queue backend {backend!r}; known: {known}"
        ) from None
    return factory()
