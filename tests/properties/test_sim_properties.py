"""Property-based tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


@given(delays)
@settings(deadline=None)
def test_events_fire_in_nondecreasing_time_order(delay_list):
    sim = Simulator()
    fired = []
    for delay in delay_list:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delay_list)


@given(delays)
@settings(deadline=None)
def test_equal_times_preserve_schedule_order(delay_list):
    sim = Simulator()
    fired = []
    for index, delay in enumerate(delay_list):
        sim.schedule(delay, fired.append, (delay, index))
    sim.run()
    # Stable sort by time: indexes at equal times stay in schedule order.
    assert fired == sorted(fired, key=lambda pair: (pair[0], pair[1]))


@given(delays, st.integers(min_value=0, max_value=59))
@settings(deadline=None)
def test_cancellation_removes_exactly_one(delay_list, cancel_index):
    sim = Simulator()
    fired = []
    handles = [
        sim.schedule(delay, fired.append, index)
        for index, delay in enumerate(delay_list)
    ]
    victim = handles[cancel_index % len(handles)]
    victim.cancel()
    sim.run()
    assert len(fired) == len(delay_list) - 1
    assert (cancel_index % len(delay_list)) not in fired


@given(delays)
@settings(deadline=None, max_examples=30)
def test_process_sleep_accumulates_delays(delay_list):
    sim = Simulator()
    ends = []

    def body():
        for delay in delay_list:
            yield delay
        ends.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert ends[0] == sum(delay_list) or abs(ends[0] - sum(delay_list)) < 1e-6


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(deadline=None, max_examples=30)
def test_deterministic_replay(script):
    def execute():
        sim = Simulator()
        log = []
        for delay, kind in script:
            sim.schedule(delay, log.append, (round(delay, 6), kind))
        sim.run()
        return log

    assert execute() == execute()
