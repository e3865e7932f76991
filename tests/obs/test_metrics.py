"""Counters, histograms, and the registry's task view."""

from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Counter, Histogram, MetricsRegistry


def test_counter_increments_per_label():
    counter = Counter("faults")
    counter.inc("a")
    counter.inc("a", 2.0)
    counter.inc("b")
    assert counter.value("a") == 3.0
    assert counter.value("b") == 1.0
    assert counter.value("missing") == 0.0
    assert counter.total == 4.0


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("x").inc("a", -1.0)


def test_counter_snapshot_sorted():
    counter = Counter("x")
    counter.inc("zeta")
    counter.inc("alpha")
    assert list(counter.snapshot()) == ["alpha", "zeta"]


def test_histogram_stats():
    histogram = Histogram("lat", buckets=(10.0, 100.0, 1000.0))
    for value in (5.0, 50.0, 500.0, 5000.0):
        histogram.observe("t", value)
    assert histogram.count("t") == 4
    assert histogram.mean("t") == pytest.approx(1388.75)
    snapshot = histogram.snapshot()["t"]
    assert snapshot["count"] == 4
    assert snapshot["min"] == 5.0
    assert snapshot["max"] == 5000.0
    assert snapshot["buckets"] == [1, 1, 1, 1]  # one per bucket + overflow


def test_histogram_quantile_bucket_resolution():
    histogram = Histogram("lat", buckets=(10.0, 100.0))
    for _ in range(9):
        histogram.observe("t", 5.0)
    histogram.observe("t", 50.0)
    assert histogram.quantile("t", 0.5) == 10.0
    assert histogram.quantile("t", 1.0) == 100.0
    histogram.observe("t", 1e9)
    assert histogram.quantile("t", 1.0) == float("inf")
    assert histogram.quantile("t", 0.5) == 10.0
    assert histogram.mean("missing") is None
    assert histogram.quantile("missing", 0.5) is None


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        Histogram("x", buckets=())
    with pytest.raises(ValueError):
        Histogram("x", buckets=(10.0, 5.0))
    with pytest.raises(ValueError):
        Histogram("x", buckets=(10.0,)).quantile("t", 1.5)


def test_registry_reuses_instruments():
    registry = MetricsRegistry()
    assert registry.counter("faults") is registry.counter("faults")
    assert registry.histogram("lat") is registry.histogram("lat")
    registry.inc("faults", "a")
    registry.inc("faults", "a")
    assert registry.counter("faults").value("a") == 2.0


def test_registry_snapshot_shape():
    registry = MetricsRegistry()
    registry.inc("faults", "a")
    registry.observe("lat", "a", 42.0)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["faults"] == {"a": 1.0}
    assert snapshot["histograms"]["lat"]["labels"]["a"]["count"] == 1
    # Snapshot must be JSON-able as-is.
    import json

    json.dumps(snapshot)


def test_task_view_flat_and_uniform():
    registry = MetricsRegistry()
    registry.inc("faults", "a", 3.0)
    registry.observe("lat", "a", 100.0)
    view_a = registry.task_view("a")
    assert view_a["faults"] == 3.0
    assert view_a["lat_count"] == 1.0
    assert view_a["lat_mean"] == 100.0
    assert view_a["lat_p95"] > 0.0
    # A task with no data gets the same keys, all zeros.
    view_b = registry.task_view("b")
    assert set(view_b) == set(view_a)
    assert all(value == 0.0 for value in view_b.values())


# ----------------------------------------------------------------------
# Registry completeness: the KNOWN_* catalogs cannot silently drift from
# the instrument names the source tree actually bumps.
# ----------------------------------------------------------------------

def _instrument_names(pattern):
    import re
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    regex = re.compile(pattern)
    found = {}
    for path in sorted(src.rglob("*.py")):
        if path.name == "metrics.py":
            continue  # the catalog itself
        for name in regex.findall(path.read_text()):
            found.setdefault(name, str(path.relative_to(src)))
    return found


def test_every_counter_site_is_cataloged():
    from repro.obs.metrics import KNOWN_COUNTERS

    sites = _instrument_names(
        r"""metrics\.(?:inc|counter)\(\s*["']([a-z_]+)["']"""
    )
    assert sites, "the scan found no counter sites at all (regex broken?)"
    unknown = {n: f for n, f in sites.items() if n not in KNOWN_COUNTERS}
    assert not unknown, f"counters bumped but not in KNOWN_COUNTERS: {unknown}"


def test_every_histogram_site_is_cataloged():
    from repro.obs.metrics import KNOWN_HISTOGRAMS

    sites = _instrument_names(
        r"""metrics\.(?:observe|histogram)\(\s*["']([a-z_]+)["']"""
    )
    assert sites, "the scan found no histogram sites at all (regex broken?)"
    unknown = {n: f for n, f in sites.items() if n not in KNOWN_HISTOGRAMS}
    assert not unknown, (
        f"histograms observed but not in KNOWN_HISTOGRAMS: {unknown}"
    )


def test_monitor_counters_are_cataloged():
    from repro.obs.metrics import KNOWN_COUNTERS

    for name in ("windows_closed", "slo_violations", "slo_recoveries"):
        assert name in KNOWN_COUNTERS


class FiveDictHistogram:
    """The histogram as it was before each label kept one record: five
    dicts, each read per observation.  The reference for the test below."""

    def __init__(self, buckets):
        self.buckets = tuple(float(bound) for bound in buckets)
        self._counts = {}
        self._sum = {}
        self._count = {}
        self._min = {}
        self._max = {}

    def observe(self, label, value):
        counts = self._counts.get(label)
        if counts is None:
            counts = [0] * (len(self.buckets) + 1)
            self._counts[label] = counts
            self._sum[label] = 0.0
            self._count[label] = 0
            self._min[label] = value
            self._max[label] = value
        counts[bisect_left(self.buckets, value)] += 1
        self._sum[label] += value
        self._count[label] += 1
        if value < self._min[label]:
            self._min[label] = value
        elif value > self._max[label]:
            self._max[label] = value

    def count(self, label=""):
        return self._count.get(label, 0)

    def mean(self, label=""):
        count = self._count.get(label, 0)
        if count == 0:
            return None
        return self._sum[label] / count

    def quantile(self, label, q):
        counts = self._counts.get(label)
        total = self._count.get(label, 0)
        if not counts or total == 0:
            return None
        rank = q * total
        seen = 0
        for position, bucket_count in enumerate(counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if position < len(self.buckets):
                    return self.buckets[position]
                return float("inf")
        return float("inf")

    def snapshot(self):
        return {
            label: {
                "count": self._count[label],
                "sum": self._sum[label],
                "min": self._min[label],
                "max": self._max[label],
                "buckets": list(self._counts[label]),
            }
            for label in sorted(self._counts)
        }


@settings(deadline=None, max_examples=200)
@given(
    buckets=st.lists(
        st.floats(-50.0, 5_000.0, allow_nan=False), min_size=1, max_size=8,
    ).map(sorted),
    observations=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", ""]),
            st.one_of(
                st.floats(-100.0, 10_000.0, allow_nan=False),
                st.sampled_from([0.0, 1.0, 100.0, 1e9, -1e9]),
            ),
        ),
        max_size=60,
    ),
)
def test_histogram_matches_five_dict_reference(buckets, observations):
    histogram = Histogram("h", buckets)
    reference = FiveDictHistogram(buckets)
    for label, value in observations:
        histogram.observe(label, value)
        reference.observe(label, value)
    assert histogram.snapshot() == reference.snapshot()
    for label in ("a", "b", "", "never"):
        assert histogram.count(label) == reference.count(label)
        assert histogram.mean(label) == reference.mean(label)
        for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
            assert histogram.quantile(label, q) == reference.quantile(label, q)
