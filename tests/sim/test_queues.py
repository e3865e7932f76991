"""Property tests: the event-queue backends are order-equivalent.

The calendar queue must pop in exactly the heap backend's ``(time, seq)``
order under arbitrary schedule/cancel traces — including zero-delay
chains (the FIFO lane), same-instant ties, cancellations from inside
callbacks, and compaction.  The traces here are randomized but seeded:
every backend replays the identical program, so any divergence is a real
ordering bug, not test noise.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator, TimerHandle
from repro.sim.queues import (
    COMPACT_MIN_CANCELLED,
    CalendarEventQueue,
    HeapEventQueue,
    make_queue,
)

BACKENDS = ("heap", "calendar")


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

    sim = Simulator(queue=backend)
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
    reference = _replay_random_program("heap", seed)
    candidate = _replay_random_program("calendar", seed)
    assert candidate == reference


def test_zero_delay_chains_are_fifo_across_backends():
    for backend in BACKENDS:
        sim = Simulator(queue=backend)
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
    sim = Simulator(queue=backend)
    fired = []
    # FIFO tie-break: a same-instant canceller scheduled *after* the
    # victim runs too late; one scheduled *before* it must suppress it.
    victim = sim.schedule(5.0, fired.append, "victim")
    sim.schedule(5.0, victim.cancel)
    sim.run()
    assert fired == ["victim"]  # canceller ran after the victim

    sim = Simulator(queue=backend)
    fired = []
    holder = {}
    sim.schedule(5.0, lambda: holder["victim"].cancel())
    holder["victim"] = sim.schedule(5.0, fired.append, "victim")
    sim.run()
    assert fired == []  # canceller ran first


@pytest.mark.parametrize("backend", BACKENDS)
def test_compaction_bounds_queue_growth(backend):
    sim = Simulator(queue=backend)
    for _ in range(5_000):
        sim.schedule(1_000.0, lambda: None).cancel()
    assert sim.pending_events == 0
    assert sim.queued_entries <= 2 * COMPACT_MIN_CANCELLED


def test_make_queue_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown event-queue backend"):
        make_queue("btree")


def test_backend_classes_expose_names():
    assert HeapEventQueue.name == "heap"
    assert CalendarEventQueue.name == "calendar"
    assert isinstance(make_queue("heap"), HeapEventQueue)
    assert isinstance(make_queue("calendar"), CalendarEventQueue)


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_until_leaves_future_entries_queued(backend):
    sim = Simulator(queue=backend)
    fired = []
    sim.schedule(10.0, fired.append, "early")
    sim.schedule(99.0, fired.append, "late")
    sim.run(until=50.0)
    assert fired == ["early"]
    assert sim.now == 50.0
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["early", "late"]


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


def _due_answers(backend: str, ops) -> list[bool]:
    """Drive one queue the way the simulator does and check ``due`` at
    the current instant after every step against a brute-force scan of
    every stored entry, cancelled ones included."""
    queue = make_queue(backend)
    now = 0.0
    stored = []
    answers = []
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
            entry = queue.pop_live(None)
            if entry is not None:
                entry[2]._popped = True
                now = entry[0]
        # Entries the queue discarded (cancelled ones passed over or
        # compacted away) are marked popped too.
        stored = [entry for entry in stored if not entry[2]._popped]
        expected = any(entry[0] <= now for entry in stored)
        assert queue.due(now) == expected
        answers.append(expected)
    return answers


@given(_OPS)
@settings(max_examples=200, deadline=None)
def test_due_matches_brute_force_on_both_backends(ops):
    assert _due_answers("heap", ops) == _due_answers("calendar", ops)
