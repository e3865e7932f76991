"""Property-based tests for estimators, meters, and CDFs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.cdf import Cdf, log2_bin_histogram
from repro.metrics.fairness import jain_index
from repro.neon.stats import ObservedServiceMeter, RequestSizeEstimator

samples = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=200,
)


@given(samples, st.integers(min_value=1, max_value=64))
@settings(deadline=None)
def test_estimator_mean_bounded_by_window_extremes(values, window):
    estimator = RequestSizeEstimator(window)
    for value in values:
        estimator.record(value)
    recent = values[-window:]
    assert min(recent) - 1e-9 <= estimator.mean <= max(recent) + 1e-9
    assert estimator.sample_count == min(len(values), window)
    assert estimator.total_observed == len(values)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=100,
    )
)
@settings(deadline=None, max_examples=50)
def test_meter_services_sum_to_at_most_elapsed(events):
    """Measured services can never total more than the observed span —
    the whole point of the serialization-aware meter."""
    meter = ObservedServiceMeter()
    now = 0.0
    total = 0.0
    slack = 0.0
    for channel_id, gap in events:
        submit = now
        now += gap
        total += meter.measure(channel_id, submit, now)
        slack += 0.05  # the per-measurement clamp floor
    assert total <= now + slack + 1e-6


@given(samples)
@settings(deadline=None)
def test_cdf_fraction_below_is_monotone(values):
    cdf = Cdf(values)
    thresholds = sorted({0.0, min(values), max(values), max(values) * 2 + 1})
    fractions = [cdf.fraction_below(t) for t in thresholds]
    assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))


@given(samples)
@settings(deadline=None)
def test_log2_histogram_ends_at_100(values):
    bins = log2_bin_histogram(values)
    assert abs(bins[-1] - 100.0) < 1e-9
    assert all(a <= b + 1e-9 for a, b in zip(bins, bins[1:]))


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
@settings(deadline=None)
def test_jain_index_bounds(shares):
    index = jain_index(shares)
    assert 1.0 / len(shares) - 1e-9 <= index <= 1.0 + 1e-9
