"""Property-based tests for virtual-time invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.virtual_time import VirtualTimeTable

TASKS = [1, 2, 3, 4]

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("advance"),
            st.sampled_from(TASKS),
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        ),
        st.tuples(st.just("lift"), st.sampled_from(TASKS), st.just(0.0)),
        st.tuples(
            st.just("system"),
            st.sampled_from(TASKS),
            st.just(0.0),
        ),
    ),
    min_size=1,
    max_size=120,
)


@given(operations)
@settings(deadline=None, max_examples=60)
def test_invariants_hold_under_any_operation_sequence(ops):
    table = VirtualTimeTable()
    previous_system = table.system_vt
    for op, task_id, amount in ops:
        if op == "advance":
            before = table.get(task_id)
            table.advance(task_id, amount)
            assert table.get(task_id) >= before  # vts never regress
        elif op == "lift":
            table.lift_inactive(task_id)
            assert table.get(task_id) >= table.system_vt - 1e-9
        else:
            table.update_system([task_id])
        assert table.system_vt >= previous_system  # system vt monotonic
        previous_system = table.system_vt


@given(operations)
@settings(deadline=None, max_examples=60)
def test_system_vt_never_exceeds_max_task_vt(ops):
    table = VirtualTimeTable()
    touched = set()
    for op, task_id, amount in ops:
        touched.add(task_id)
        if op == "advance":
            table.advance(task_id, amount)
        elif op == "lift":
            table.lift_inactive(task_id)
        else:
            table.update_system([task_id])
    if touched:
        assert table.system_vt <= max(table.get(t) for t in touched) + 1e-9


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_newcomer_has_zero_lag(initial_usage):
    table = VirtualTimeTable()
    table.advance(1, initial_usage)
    table.update_system([1])
    table.ensure(2)
    assert table.lag(2) == 0.0
