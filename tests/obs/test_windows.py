"""Tests for the streaming window aggregator (repro.obs.windows)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.windows import (
    FixedBinLatency,
    WindowAggregator,
    WindowConfig,
    aggregate_trace,
)
from repro.sim.trace import TraceRecord, TraceRecorder


def _rec(time, kind, **payload):
    return TraceRecord(time, "test", kind, payload)


def _completion(time, task, latency_us, service_us=10.0):
    return _rec(
        time, "request_complete",
        task=task, latency_us=latency_us, service_us=service_us,
    )


# ----------------------------------------------------------------------
# WindowConfig
# ----------------------------------------------------------------------

def test_config_validates_window():
    with pytest.raises(ValueError):
        WindowConfig(0.0)
    with pytest.raises(ValueError):
        WindowConfig(100.0, slide_us=30.0)  # not an integer multiple
    config = WindowConfig(100.0, slide_us=25.0)
    assert config.buckets_per_window == 4
    assert WindowConfig(100.0).effective_slide_us == 100.0


# ----------------------------------------------------------------------
# FixedBinLatency: deterministic quantiles vs exact sorted quantiles
# ----------------------------------------------------------------------

def _exact_quantile(values, q):
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def test_fixed_bin_quantiles_within_bin_width_of_exact():
    # A deterministic but irregular stream of latencies.
    values = [((i * 7919) % 997) / 2.0 + 1.0 for i in range(500)]
    bin_us = 25.0
    histogram = FixedBinLatency(bin_us, max_us=10_000.0)
    for value in values:
        histogram.observe(value)
    for q in (0.5, 0.9, 0.95, 0.99, 1.0):
        exact = _exact_quantile(values, q)
        binned = histogram.quantile(q)
        # Upper-edge convention: never understates, overshoots by < 1 bin.
        assert exact <= binned <= exact + bin_us
    assert histogram.mean() == pytest.approx(sum(values) / len(values))


def test_fixed_bin_overflow_reports_exact_maximum():
    histogram = FixedBinLatency(50.0, max_us=100.0)
    histogram.observe(10.0)
    histogram.observe(12_345.0)
    assert histogram.quantile(1.0) == 12_345.0
    assert histogram.max == 12_345.0


def test_fixed_bin_empty_quantile_is_none():
    histogram = FixedBinLatency(50.0, max_us=100.0)
    assert histogram.quantile(0.5) is None
    assert histogram.mean() is None


def test_fixed_bin_merge_matches_combined_stream():
    left = FixedBinLatency(10.0, 1_000.0)
    right = FixedBinLatency(10.0, 1_000.0)
    combined = FixedBinLatency(10.0, 1_000.0)
    for i in range(40):
        value = float((i * 13) % 700)
        (left if i % 2 else right).observe(value)
        combined.observe(value)
    left.merge(right)
    assert left.counts == combined.counts
    assert left.count == combined.count
    assert left.quantile(0.95) == combined.quantile(0.95)


class DenseBinLatency:
    """Reference: the dense list-of-counts histogram the sparse
    :class:`FixedBinLatency` replaced, one slot per configured bin."""

    def __init__(self, bin_us, max_us):
        self.bin_us = float(bin_us)
        self.max_us = float(max_us)
        self.counts = [0] * (int(math.ceil(max_us / bin_us)) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value):
        index = int(value // self.bin_us)
        if value < 0:
            index = 0
        elif index >= len(self.counts) - 1:
            index = len(self.counts) - 1
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other):
        for index, bucket in enumerate(other.counts):
            self.counts[index] += bucket
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    def mean(self):
        if self.count == 0:
            return None
        return self.total / self.count

    def quantile(self, q):
        if self.count == 0:
            return None
        rank = max(1, int(math.ceil(q * self.count)))
        seen = 0
        for index, bucket in enumerate(self.counts):
            seen += bucket
            if seen >= rank:
                if index == len(self.counts) - 1:
                    return self.max
                return (index + 1) * self.bin_us
        return self.max

    def copy(self):
        out = DenseBinLatency(self.bin_us, self.max_us)
        out.merge(self)
        return out


#: (bin_us, max_us): widths that divide the range and widths that do not.
HISTOGRAM_SHAPES = [
    (50.0, 1_000.0),
    (25.0, 100.0),
    (30.0, 1_000.0),
    (7.5, 200.0),
    (0.3, 10.0),
    (1_000.0, 1_000.0),
]


@st.composite
def histogram_programs(draw):
    bin_us, max_us = draw(st.sampled_from(HISTOGRAM_SHAPES))
    edges = int(math.ceil(max_us / bin_us))
    value = st.one_of(
        st.floats(min_value=-1e3, max_value=-1e-9),
        st.floats(min_value=0.0, max_value=max_us),
        # Bin edges, including those at and past the overflow bin's.
        st.integers(0, edges + 2).map(lambda k: k * bin_us),
        st.just(max_us),
        st.floats(min_value=max_us, max_value=max_us + 3 * bin_us),
        st.floats(min_value=max_us, max_value=1e7),
    )
    slot = st.integers(0, 2)
    op = st.one_of(
        st.tuples(st.just("observe"), slot, value),
        st.tuples(st.just("merge"), slot, slot),
        st.tuples(st.just("copy"), slot, slot),
    )
    return bin_us, max_us, draw(st.lists(op, max_size=60))


def _assert_same_histogram(sparse, dense):
    assert sparse.counts == {
        index: bucket for index, bucket in enumerate(dense.counts) if bucket
    }
    assert sparse.count == dense.count
    assert sparse.total == dense.total
    assert sparse.min == dense.min
    assert sparse.max == dense.max
    assert sparse.mean() == dense.mean()
    for q in (0.0, 0.5, 0.95, 0.99, 1.0):
        assert sparse.quantile(q) == dense.quantile(q)


@given(histogram_programs())
@settings(max_examples=200, deadline=None)
def test_sparse_histogram_matches_dense_reference(program):
    bin_us, max_us, ops = program
    sparse = [FixedBinLatency(bin_us, max_us) for _ in range(3)]
    dense = [DenseBinLatency(bin_us, max_us) for _ in range(3)]
    for name, target, arg in ops:
        if name == "observe":
            sparse[target].observe(arg)
            dense[target].observe(arg)
        elif name == "merge":
            sparse[target].merge(sparse[arg])
            dense[target].merge(dense[arg])
        else:
            sparse[target] = sparse[arg].copy()
            dense[target] = dense[arg].copy()
        _assert_same_histogram(sparse[target], dense[target])
    for left, right in zip(sparse, dense):
        _assert_same_histogram(left, right)


def test_fixed_bin_merge_rejects_different_bins():
    with pytest.raises(ValueError):
        FixedBinLatency(50.0, 1_000.0).merge(FixedBinLatency(25.0, 1_000.0))
    with pytest.raises(ValueError):
        FixedBinLatency(50.0, 1_000.0).merge(FixedBinLatency(50.0, 2_000.0))


# ----------------------------------------------------------------------
# Tumbling windows
# ----------------------------------------------------------------------

def test_tumbling_windows_close_on_time():
    aggregator = WindowAggregator(WindowConfig(100.0))
    for t in (10.0, 50.0, 120.0, 250.0):
        aggregator(_completion(t, "a", latency_us=t))
    # Records at 120 and 250 crossed boundaries at 100 and 200.
    assert aggregator.windows_closed == 2
    aggregator.finish(300.0)
    assert aggregator.windows_closed == 3
    first, second, third = aggregator.snapshots
    assert (first.start_us, first.end_us) == (0.0, 100.0)
    assert first.tenants["a"].completions == 2
    assert second.tenants["a"].completions == 1
    assert third.tenants["a"].completions == 1
    # finish() landed exactly on a window boundary: the window is full.
    assert not third.partial


def test_finish_is_idempotent():
    aggregator = WindowAggregator(WindowConfig(100.0))
    aggregator(_completion(10.0, "a", latency_us=5.0))
    aggregator.finish(50.0)
    aggregator.finish(50.0)
    assert aggregator.windows_closed == 1
    assert aggregator.snapshots[0].partial


def test_share_samples_feed_jain():
    aggregator = WindowAggregator(WindowConfig(100.0))
    aggregator(_rec(40.0, "share_sample", task="a", usage_us=30.0,
                    interval_us=40.0))
    aggregator(_rec(40.0, "share_sample", task="b", usage_us=30.0,
                    interval_us=40.0))
    aggregator.finish(100.0)
    snapshot = aggregator.snapshots[0]
    assert snapshot.share_basis == "share_usage_us"
    assert snapshot.jain == pytest.approx(1.0)


def test_jain_falls_back_to_service_time():
    aggregator = WindowAggregator(WindowConfig(100.0))
    aggregator(_completion(10.0, "a", latency_us=5.0, service_us=30.0))
    aggregator(_completion(20.0, "b", latency_us=5.0, service_us=30.0))
    aggregator.finish(100.0)
    snapshot = aggregator.snapshots[0]
    assert snapshot.share_basis == "service_us"
    assert snapshot.jain == pytest.approx(1.0)


def test_empty_window_jain_is_nan():
    aggregator = WindowAggregator(WindowConfig(100.0))
    aggregator(_rec(10.0, "request_submit", task="a"))
    aggregator.finish(100.0)
    assert math.isnan(aggregator.snapshots[0].jain)


def test_engagement_ledger_splits_spans_across_buckets():
    aggregator = WindowAggregator(WindowConfig(100.0))
    aggregator(_rec(20.0, "channel_engaged", task="a", channel=1))
    aggregator(_rec(150.0, "channel_disengaged", task="a", channel=1))
    aggregator.finish(200.0)
    first, second = aggregator.snapshots
    assert first.tenants["a"].engaged_us == pytest.approx(80.0)
    assert second.tenants["a"].engaged_us == pytest.approx(50.0)
    assert second.tenants["a"].disengaged_us == pytest.approx(50.0)


def test_monitor_emits_are_ignored_by_the_sink():
    aggregator = WindowAggregator(WindowConfig(100.0))
    aggregator(_rec(500.0, "window.close", window=0))
    aggregator(_rec(500.0, "slo.violation", rule="r", task="a"))
    # Neither advanced the clock nor created tenants.
    assert aggregator.windows_closed == 0
    assert aggregator._bucket.start_us == 0.0


# ----------------------------------------------------------------------
# Sliding windows
# ----------------------------------------------------------------------

def test_sliding_windows_overlap():
    aggregator = WindowAggregator(WindowConfig(100.0, slide_us=50.0))
    aggregator(_completion(10.0, "a", latency_us=5.0))
    aggregator(_completion(60.0, "a", latency_us=5.0))
    aggregator(_completion(110.0, "a", latency_us=5.0))
    aggregator.finish(200.0)
    # Windows: [0,100), [50,150), [100,200) — the middle one sees the
    # completions at 60 and 110.
    spans = [(s.start_us, s.end_us) for s in aggregator.snapshots]
    assert spans == [(0.0, 100.0), (50.0, 150.0), (100.0, 200.0)]
    counts = [s.tenants["a"].completions for s in aggregator.snapshots]
    assert counts == [2, 2, 1]


# ----------------------------------------------------------------------
# Streaming-sink equivalence + eviction independence (the tentpole
# acceptance property)
# ----------------------------------------------------------------------

def _synthetic_stream(n=4_000, horizon_us=200_000.0):
    """A deterministic multi-tenant stream with all interesting kinds."""
    records = []
    step = horizon_us / n
    for i in range(n):
        t = (i + 1) * step
        task = "a" if i % 3 else "b"
        records.append(_rec(t, "request_submit", task=task))
        records.append(_completion(
            t, task, latency_us=float((i * 37) % 900),
            service_us=float(i % 50),
        ))
        if i % 7 == 0:
            records.append(_rec(
                t, "share_sample", task=task, usage_us=float(i % 20),
                interval_us=step,
            ))
        if i % 11 == 0:
            records.append(_rec(t, "channel_engaged", task=task, channel=i % 5))
        if i % 11 == 5:
            records.append(_rec(
                t, "channel_disengaged", task=task, channel=i % 5
            ))
    return records, horizon_us


def _snapshot_fingerprint(snapshot):
    return (
        snapshot.index, snapshot.start_us, snapshot.end_us, snapshot.partial,
        None if math.isnan(snapshot.jain) else snapshot.jain,
        snapshot.share_basis,
        {name: snapshot.tenants[name].to_dict(snapshot.span_us)
         for name in sorted(snapshot.tenants)},
    )


def test_live_sink_equals_replay_aggregation():
    records, horizon = _synthetic_stream()
    # Live: records pass through a recorder with the aggregator attached.
    recorder = TraceRecorder()
    live = WindowAggregator(WindowConfig(5_000.0))
    recorder.add_sink(live)
    for record in records:
        recorder.append(record)
    live.finish(horizon)
    # Replay: reconstruct from the recorder's retained ring buffer.
    replayed = aggregate_trace(
        recorder.records(), WindowConfig(5_000.0), end_us=horizon
    )
    assert len(live.snapshots) == len(replayed)
    for left, right in zip(live.snapshots, replayed):
        assert _snapshot_fingerprint(left) == _snapshot_fingerprint(right)


def test_eviction_does_not_affect_live_aggregates():
    records, horizon = _synthetic_stream()
    config = WindowConfig(5_000.0)

    uncapped = TraceRecorder()
    full = WindowAggregator(config)
    uncapped.add_sink(full)
    for record in records:
        uncapped.append(record)
    full.finish(horizon)

    capped = TraceRecorder(max_records=100)  # evicts nearly everything
    windowed = WindowAggregator(config)
    capped.add_sink(windowed)
    for record in records:
        capped.append(record)
    windowed.finish(horizon)

    assert capped.dropped > 0
    assert len(full.snapshots) == len(windowed.snapshots)
    for left, right in zip(full.snapshots, windowed.snapshots):
        assert _snapshot_fingerprint(left) == _snapshot_fingerprint(right)


def test_long_horizon_thousand_windows():
    # 1000 windows over a long horizon with a tiny ring buffer: aggregates
    # must still report every window with per-tenant quantiles intact.
    horizon = 1_000_000.0
    config = WindowConfig(1_000.0, latency_bin_us=20.0)
    recorder = TraceRecorder(max_records=64)
    aggregator = WindowAggregator(config)
    aggregator.keep_snapshots = 1_000
    recorder.add_sink(aggregator)
    n = 20_000
    step = horizon / n
    for i in range(n):
        t = (i + 1) * step
        task = "a" if i % 2 else "b"
        recorder.emit(
            t, "test", "request_complete",
            task=task, latency_us=float((i * 13) % 500), service_us=25.0,
        )
    aggregator.finish(horizon)
    assert recorder.dropped == n - 64
    assert aggregator.windows_closed == 1_000
    assert len(aggregator.snapshots) == 1_000
    for snapshot in aggregator.snapshots:
        assert set(snapshot.tenants) == {"a", "b"}
        for stats in snapshot.tenants.values():
            assert stats.latency is not None
            assert stats.latency.quantile(0.99) is not None
        assert not math.isnan(snapshot.jain)


@pytest.mark.parametrize("slide_us", [None, 250.0])
def test_window_histograms_hold_only_occupied_bins(slide_us):
    # Default latency range: 1e6 / 50 + 1 = 20,001 configured bins.  A
    # window's storage must follow the bins its latencies hit, through
    # bucket close and (with a slide) the k-bucket merge.
    config = WindowConfig(1_000.0, slide_us=slide_us)
    assert int(math.ceil(config.latency_max_us / config.latency_bin_us)) + 1 == 20_001
    aggregator = WindowAggregator(config)
    aggregator.keep_snapshots = 1_000
    latencies = [float((i * 13) % 500) for i in range(20_000)]
    step = 1_000_000.0 / len(latencies)
    for i, latency in enumerate(latencies):
        aggregator(_completion((i + 1) * step, "a" if i % 2 else "b", latency))
    aggregator.finish(1_000_000.0)
    observed_bins = {int(v // config.latency_bin_us) for v in latencies}
    assert len(observed_bins) == 10
    assert len(aggregator.snapshots) == 1_000
    for snapshot in aggregator.snapshots:
        for stats in snapshot.tenants.values():
            assert 0 < len(stats.latency.counts) <= len(observed_bins)
            assert all(bucket > 0 for bucket in stats.latency.counts.values())


def test_keep_snapshots_caps_memory():
    aggregator = WindowAggregator(WindowConfig(10.0))
    aggregator.keep_snapshots = 3
    for i in range(10):
        aggregator(_completion(float(i * 10 + 5), "a", latency_us=1.0))
    assert aggregator.windows_closed >= 8
    assert len(aggregator.snapshots) == 3
    # windows_closed keeps counting even though old snapshots dropped.
    assert aggregator.snapshots[-1].index == aggregator.windows_closed - 1
