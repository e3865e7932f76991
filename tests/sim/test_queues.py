"""Property tests: the simulator pops in exactly ``(time, seq)`` order.

The heap-backed :class:`~repro.sim.engine.Simulator` is compared with a
brute-force reference backend — a plain list from which each step removes
the live entry with the smallest ``(time, seq)`` — under arbitrary
schedule/cancel traces: zero-delay chains, same-instant ties,
cancellations from inside callbacks, and compaction.  The traces are
randomized but seeded: both backends replay the identical program, so any
divergence is a real ordering bug, not test noise.
"""

import itertools
from heapq import heappop

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator, TimerHandle
from repro.sim.queues import COMPACT_MIN_CANCELLED, HeapEventQueue


class _ReferenceHandle:
    __slots__ = ("_cancelled",)

    def __init__(self):
        self._cancelled = False

    def cancel(self):
        self._cancelled = True


class ReferenceSimulator:
    """The scheduling surface of :class:`Simulator`, by brute force."""

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._entries = []  # (time, seq, handle, fn, args), unordered

    def schedule(self, delay, fn, *args):
        handle = _ReferenceHandle()
        self._entries.append((self.now + delay, self._seq, handle, fn, args))
        self._seq += 1
        return handle

    def run(self, until=None):
        while True:
            live = [e for e in self._entries if not e[2]._cancelled]
            self._entries = live
            if not live:
                break
            entry = min(live, key=lambda e: (e[0], e[1]))
            if until is not None and entry[0] > until:
                break
            live.remove(entry)
            self.now = entry[0]
            entry[3](*entry[4])
        if until is not None and self.now < until:
            self.now = until

    @property
    def pending_events(self):
        return sum(not e[2]._cancelled for e in self._entries)


BACKENDS = {"heap": Simulator, "reference": ReferenceSimulator}


def _replay_random_program(backend: str, seed: int, n: int = 300):
    """Run a deterministic pseudo-random schedule/cancel program.

    Callbacks fire, log ``(now, index)``, and — steered by a shared
    pre-drawn table — spawn zero-delay work, spawn delayed work, or
    cancel the oldest still-pending handle.  Returns the firing log plus
    final clock state.
    """
    rng = np.random.default_rng(seed)
    delays = np.round(rng.uniform(0.0, 50.0, n), 1)  # coarse → many ties
    delays[rng.random(n) < 0.2] = 0.0
    modes = rng.integers(0, 4, size=4 * n)
    spawn_limit = 4 * n

    sim = BACKENDS[backend]()
    log = []
    handles = {}
    counter = itertools.count(n)

    def make_callback(index):
        def callback():
            log.append((sim.now, index))
            handles.pop(index, None)
            mode = modes[index % len(modes)]
            if mode == 0:
                child = next(counter)
                if child < spawn_limit:
                    handles[child] = sim.schedule(0.0, make_callback(child))
            elif mode == 1:
                child = next(counter)
                if child < spawn_limit:
                    handles[child] = sim.schedule(
                        float(delays[child % n]), make_callback(child)
                    )
            elif mode == 2 and handles:
                oldest = min(handles)
                handles.pop(oldest).cancel()

        return callback

    for index in range(n):
        handles[index] = sim.schedule(float(delays[index]), make_callback(index))
    for index in range(0, n, 7):  # up-front cancellations
        handle = handles.pop(index, None)
        if handle is not None:
            handle.cancel()

    sim.run(until=40.0)  # leave some events pending past the limit
    mid = (sim.now, sim.pending_events, list(log))
    sim.run()
    return mid, (sim.now, sim.pending_events, log)


@pytest.mark.parametrize("seed", range(8))
def test_backends_pop_identical_order(seed):
    reference = _replay_random_program("reference", seed)
    candidate = _replay_random_program("heap", seed)
    assert candidate == reference


def test_zero_delay_chains_are_fifo_across_backends():
    for backend, make_sim in BACKENDS.items():
        sim = make_sim()
        order = []

        def chain(label, depth=0, sim=sim, order=order):
            order.append(label)
            if depth < 3:
                sim.schedule(0.0, chain, f"{label}.{depth}", depth + 1)

        sim.schedule(1.0, chain, "a")
        sim.schedule(1.0, chain, "b")
        sim.run()
        assert order == [
            "a", "b",
            "a.0", "b.0", "a.0.1", "b.0.1", "a.0.1.2", "b.0.1.2",
        ], backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_cancel_inside_callback_suppresses_same_instant_entry(backend):
    sim = BACKENDS[backend]()
    fired = []
    # FIFO tie-break: a same-instant canceller scheduled *after* the
    # victim runs too late; one scheduled *before* it must suppress it.
    victim = sim.schedule(5.0, fired.append, "victim")
    sim.schedule(5.0, victim.cancel)
    sim.run()
    assert fired == ["victim"]  # canceller ran after the victim

    sim = BACKENDS[backend]()
    fired = []
    holder = {}
    sim.schedule(5.0, lambda: holder["victim"].cancel())
    holder["victim"] = sim.schedule(5.0, fired.append, "victim")
    sim.run()
    assert fired == []  # canceller ran first


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_until_leaves_future_entries_queued(backend):
    sim = BACKENDS[backend]()
    fired = []
    sim.schedule(10.0, fired.append, "early")
    sim.schedule(99.0, fired.append, "late")
    sim.run(until=50.0)
    assert fired == ["early"]
    assert sim.now == 50.0
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["early", "late"]


def test_compaction_bounds_queue_growth():
    sim = Simulator()
    for _ in range(5_000):
        sim.schedule(1_000.0, lambda: None).cancel()
    assert sim.pending_events == 0
    assert sim.queued_entries <= 2 * COMPACT_MIN_CANCELLED


def test_compaction_inside_run_keeps_surviving_entries():
    # A callback cancels enough pending timers to compact the queue while
    # the run loop holds it; every survivor — and the follow-up work each
    # survivor schedules after the compaction — must still fire, in order.
    sim = Simulator()
    fired = []

    def follow_up(i):
        fired.append(i)
        sim.schedule(0.5, fired.append, ("after", i))

    timers = [
        sim.schedule(10.0 + i, fired.append if i % 3 else follow_up, i)
        for i in range(3 * COMPACT_MIN_CANCELLED)
    ]
    sizes = []

    def cancel_most():
        for i, handle in enumerate(timers):
            if i % 3:
                handle.cancel()
        sizes.append(sim.queued_entries)

    sim.schedule(1.0, cancel_most)
    sim.run()

    survivors = range(0, len(timers), 3)
    assert sizes[0] < len(timers)  # compacted mid-run
    assert fired == [x for i in survivors for x in (i, ("after", i))]
    assert sim.pending_events == 0
    assert sim.queued_entries == 0
    sim.run()
    assert len(fired) == 2 * len(survivors)


def test_run_until_entry_stays_cancellable():
    # The first entry past ``until`` is put back: cancelling it afterwards
    # must count as a cancellation, and the next run must not fire it.
    sim = Simulator()
    fired = []
    late = sim.schedule(99.0, fired.append, "late")
    sim.run(until=50.0)
    assert sim.pending_events == 1
    late.cancel()
    assert sim.pending_events == 0
    sim.run()
    assert fired == []
    assert sim.pending_events == 0
    assert sim.queued_entries == 0


_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 15.99, 16.0, 16.01, 32.0]),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("pop"), st.none()),
    ),
    max_size=200,
)


@given(_OPS)
@settings(max_examples=200, deadline=None)
def test_due_matches_brute_force(ops):
    """Drive one queue the way the simulator does and check ``due`` at
    the current instant after every step against a brute-force scan of
    every stored entry, cancelled ones included."""
    queue = HeapEventQueue()
    heap = queue._heap
    now = 0.0
    stored = []
    for seq, (op, arg) in enumerate(ops):
        if op == "schedule":
            handle = TimerHandle(now + arg, seq, queue)
            entry = (now + arg, seq, handle, None, ())
            stored.append(entry)
            if arg == 0.0:
                queue.push_now(entry)
            else:
                queue.push(entry)
        elif op == "cancel" and stored:
            stored[arg % len(stored)][2].cancel()
        elif op == "pop":
            while heap:
                entry = heappop(heap)
                entry[2]._popped = True
                if not entry[2]._cancelled:
                    now = entry[0]
                    break
                queue._cancelled -= 1
        # Entries the queue discarded (cancelled ones passed over or
        # compacted away) are marked popped too.
        stored = [entry for entry in stored if not entry[2]._popped]
        assert queue.due(now) == any(entry[0] <= now for entry in stored)
        assert len(queue) == sum(not e[2]._cancelled for e in stored)
