"""Streaming windowed metrics over the trace stream.

A :class:`WindowAggregator` subscribes to a :class:`~repro.sim.trace.
TraceRecorder` as a live sink (:meth:`TraceRecorder.add_sink`) and
maintains incremental per-tenant aggregates over tumbling or sliding
time windows:

* device shares — integrated from ``share_sample`` events the schedulers
  emit at engagement boundaries (episode settlement, slice end);
* engaged / disengaged channel-time — integrated from the interception
  layer's ``channel_engaged`` / ``channel_disengaged`` flips with a
  per-window mini-ledger (same settle-on-flip scheme as
  :class:`~repro.obs.engagement.EngagementLedger`);
* completion throughput and service time — from ``request_complete``;
* deterministic fixed-bin latency quantiles (p50/p95/p99) — from the
  ``latency_us`` payload, binned by :class:`FixedBinLatency`;
* per-window Jain's fairness index — reusing
  :func:`repro.metrics.fairness.jain_index` over the tenants' shares.

Windows are built from *slide*-width buckets kept in a bounded deque
(``window / slide`` of them), so memory is O(tenants × window/slide)
regardless of run length: ring-buffer eviction in the recorder never
affects window aggregates because sinks see the full stream.

Everything here is deterministic and import-free with respect to the
simulation: the aggregator consumes :class:`TraceRecord` values only, so
the same records produce bit-identical windows whether delivered live or
replayed from a buffer (see :func:`aggregate_trace` and the
streaming-sink equivalence tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.metrics.fairness import jain_index
from repro.obs import events
from repro.sim.trace import TraceRecord

#: Latency quantiles every window reports.
REPORT_QUANTILES = (0.50, 0.95, 0.99)


def tenant_key(payload: dict) -> str:
    """Window/SLO tenant key for a record's payload.

    Single-device runs carry no ``device`` field and key tenants by bare
    task name — unchanged byte-for-byte.  Fleet runs tag every record
    with a device id (:class:`~repro.sim.trace.DeviceTraceView`), and the
    same task name on different devices aggregates separately as
    ``name@dN`` (a migrated tenant's service is attributed per device).
    """
    task = payload["task"]
    device = payload.get("device")
    if device is None:
        return task
    return f"{task}@d{device}"


@dataclass(frozen=True)
class WindowConfig:
    """Shape of the streaming windows.

    ``slide_us is None`` gives tumbling windows (slide == window);
    otherwise the window must be an integer multiple of the slide.
    """

    window_us: float
    slide_us: Optional[float] = None
    #: Fixed latency bin width; quantiles are deterministic to this
    #: resolution (a quantile is the upper edge of its bin).
    latency_bin_us: float = 50.0
    #: Start of the overflow bin, rounded up to a whole bin: values from
    #: ``ceil(max / bin) * bin`` up go there and are reported as the
    #: exact tracked maximum.
    latency_max_us: float = 1_000_000.0

    def __post_init__(self) -> None:
        if self.window_us <= 0:
            raise ValueError("window_us must be > 0")
        slide = self.slide_us
        if slide is not None:
            if slide <= 0:
                raise ValueError("slide_us must be > 0")
            ratio = self.window_us / slide
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise ValueError(
                    "window_us must be a positive integer multiple of slide_us"
                )
        if self.latency_bin_us <= 0:
            raise ValueError("latency_bin_us must be > 0")
        if self.latency_max_us < self.latency_bin_us:
            raise ValueError("latency_max_us must be >= latency_bin_us")

    @property
    def effective_slide_us(self) -> float:
        return self.window_us if self.slide_us is None else self.slide_us

    @property
    def buckets_per_window(self) -> int:
        return int(round(self.window_us / self.effective_slide_us))


class FixedBinLatency:
    """Deterministic fixed-width-bin latency distribution.

    Bins are ``[i*bin_us, (i+1)*bin_us)``; a quantile is the *upper edge*
    of the bin holding the ``ceil(q*n)``-th observation, so it
    over-estimates by at most one bin width (the tolerance the tests
    assert against exact sorted quantiles).  Bin ``ceil(max_us / bin_us)``
    is the overflow bin: it holds everything from its lower edge up
    (``>= max_us`` when ``bin_us`` divides ``max_us``) and reports the
    exact tracked maximum instead, so extreme tails are never
    under-stated.  Mergeable, for sliding windows.

    ``counts`` is sparse (occupied bin index -> count): storage, merge
    and quantile cost follow the occupied bins, not the configured range
    ``max_us / bin_us``.
    """

    __slots__ = (
        "bin_us", "max_us", "overflow", "counts", "count", "total", "min", "max",
    )

    def __init__(self, bin_us: float, max_us: float) -> None:
        self.bin_us = float(bin_us)
        self.max_us = float(max_us)
        #: Index of the overflow bin (the last one).
        self.overflow = int(math.ceil(max_us / bin_us))
        self.counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        index = int(value // self.bin_us)
        if value < 0:
            index = 0
        elif index >= self.overflow:
            index = self.overflow
        counts = self.counts
        counts[index] = counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "FixedBinLatency") -> None:
        if (other.bin_us, other.max_us) != (self.bin_us, self.max_us):
            raise ValueError("cannot merge histograms with different bins")
        counts = self.counts
        for index, bucket in other.counts.items():
            counts[index] = counts.get(index, 0) + bucket
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def quantile(self, q: float) -> Optional[float]:
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return None
        rank = max(1, int(math.ceil(q * self.count)))
        counts = self.counts
        seen = 0
        for index in sorted(counts):
            seen += counts[index]
            if seen >= rank:
                if index == self.overflow:
                    return self.max  # overflow: exact tracked maximum
                return (index + 1) * self.bin_us
        return self.max

    def copy(self) -> "FixedBinLatency":
        out = FixedBinLatency(self.bin_us, self.max_us)
        out.merge(self)
        return out


@dataclass
class TenantWindow:
    """One tenant's aggregates over one bucket (or one merged window)."""

    submits: int = 0
    completions: int = 0
    service_us: float = 0.0
    share_usage_us: float = 0.0
    engaged_us: float = 0.0
    disengaged_us: float = 0.0
    overuse_us: float = 0.0
    faults: int = 0
    denials: int = 0
    escalations: int = 0
    kills: int = 0
    #: Last virtual time observed for the tenant (``vt_update``); not
    #: additive — merged windows keep the most recent value.
    vt: Optional[float] = None
    latency: Optional[FixedBinLatency] = None

    def merge(self, other: "TenantWindow") -> None:
        self.submits += other.submits
        self.completions += other.completions
        self.service_us += other.service_us
        self.share_usage_us += other.share_usage_us
        self.engaged_us += other.engaged_us
        self.disengaged_us += other.disengaged_us
        self.overuse_us += other.overuse_us
        self.faults += other.faults
        self.denials += other.denials
        self.escalations += other.escalations
        self.kills += other.kills
        if other.vt is not None:
            self.vt = other.vt
        if other.latency is not None:
            if self.latency is None:
                self.latency = other.latency.copy()
            else:
                self.latency.merge(other.latency)

    def to_dict(self, span_us: float) -> dict:
        out = {
            "submits": self.submits,
            "completions": self.completions,
            "service_us": self.service_us,
            "share_usage_us": self.share_usage_us,
            "engaged_us": self.engaged_us,
            "disengaged_us": self.disengaged_us,
            "overuse_us": self.overuse_us,
            "faults": self.faults,
            "denials": self.denials,
            "escalations": self.escalations,
            "kills": self.kills,
            "throughput_per_s": (
                self.completions / (span_us / 1e6) if span_us > 0 else 0.0
            ),
        }
        if self.vt is not None:
            out["vt"] = self.vt
        latency = self.latency
        if latency is not None and latency.count:
            out["latency"] = {
                "count": latency.count,
                "mean_us": latency.mean(),
                "p50_us": latency.quantile(0.50),
                "p95_us": latency.quantile(0.95),
                "p99_us": latency.quantile(0.99),
                "max_us": latency.max,
            }
        return out


@dataclass
class _Bucket:
    start_us: float
    end_us: float
    tenants: dict[str, TenantWindow] = field(default_factory=dict)


@dataclass(frozen=True)
class WindowSnapshot:
    """One closed window: merged tenant aggregates plus fairness."""

    index: int
    start_us: float
    end_us: float
    tenants: dict[str, TenantWindow]
    #: Jain's index over the active tenants' shares (NaN when nothing
    #: was attributable this window).
    jain: float
    #: Which per-tenant quantity the Jain computation used.
    share_basis: str
    partial: bool = False

    @property
    def span_us(self) -> float:
        return self.end_us - self.start_us

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "partial": self.partial,
            "jain": None if math.isnan(self.jain) else self.jain,
            "share_basis": self.share_basis,
            "tenants": {
                name: self.tenants[name].to_dict(self.span_us)
                for name in sorted(self.tenants)
            },
        }


@dataclass
class _ChannelLedger:
    task: str
    engaged: bool
    since: float


class WindowAggregator:
    """The live sink: consumes trace records, closes windows on time.

    Register with ``trace.add_sink(aggregator)``; records advance the
    window clock and update the current bucket.  Call :meth:`finish` at
    end of run to flush the final (possibly partial) window.  Closed
    windows are handed to every callback registered via
    :meth:`on_window`.
    """

    def __init__(self, config: WindowConfig, start_us: float = 0.0) -> None:
        self.config = config
        self.start_us = start_us
        slide = config.effective_slide_us
        self._bucket = _Bucket(start_us, start_us + slide)
        self._pending: list[_Bucket] = []
        self._channels: dict[int, _ChannelLedger] = {}
        self._callbacks: list[Callable[[WindowSnapshot], None]] = []
        self.windows_closed = 0
        self.snapshots: list[WindowSnapshot] = []
        #: Retain at most this many closed snapshots (None = unbounded);
        #: long-running monitors cap it to keep memory flat.
        self.keep_snapshots: Optional[int] = None
        self._finished = False

    def on_window(
        self, callback: Callable[[WindowSnapshot], None]
    ) -> Callable[[WindowSnapshot], None]:
        self._callbacks.append(callback)
        return callback

    # -- sink protocol -------------------------------------------------
    def __call__(self, record: TraceRecord) -> None:
        kind = record.kind
        # Never consume our own monitor output (re-entrant emits).
        if kind.startswith("window.") or kind.startswith("slo."):
            return
        self._advance(record.time)
        self._consume(record)

    # -- time machinery ------------------------------------------------
    def _advance(self, now: float) -> None:
        while now >= self._bucket.end_us:
            self._close_bucket(self._bucket.end_us)

    def _close_bucket(self, boundary: float) -> None:
        self._settle_engagement(boundary)
        self._pending.append(self._bucket)
        slide = self.config.effective_slide_us
        self._bucket = _Bucket(boundary, boundary + slide)
        k = self.config.buckets_per_window
        if len(self._pending) > k:
            del self._pending[0]
        if len(self._pending) == k:
            self._emit_window(self._pending, partial=False)

    def _emit_window(self, buckets: list[_Bucket], partial: bool) -> None:
        merged: dict[str, TenantWindow] = {}
        for bucket in buckets:
            for name, stats in bucket.tenants.items():
                into = merged.get(name)
                if into is None:
                    into = merged[name] = TenantWindow()
                into.merge(stats)
        shares = {
            name: stats.share_usage_us
            for name, stats in merged.items()
            if stats.share_usage_us > 0
        }
        basis = "share_usage_us"
        if not shares:
            shares = {
                name: stats.service_us
                for name, stats in merged.items()
                if stats.service_us > 0
            }
            basis = "service_us"
        snapshot = WindowSnapshot(
            index=self.windows_closed,
            start_us=buckets[0].start_us,
            end_us=buckets[-1].end_us,
            tenants=merged,
            jain=jain_index(shares.values()),
            share_basis=basis,
            partial=partial,
        )
        self.windows_closed += 1
        self.snapshots.append(snapshot)
        if (
            self.keep_snapshots is not None
            and len(self.snapshots) > self.keep_snapshots
        ):
            del self.snapshots[0]
        for callback in self._callbacks:
            callback(snapshot)

    def finish(self, end_us: float) -> None:
        """Flush: close every full window up to ``end_us``, then a final
        partial window covering whatever remains.  Idempotent."""
        if self._finished:
            return
        self._finished = True
        self._advance(end_us)
        bucket = self._bucket
        if end_us > bucket.start_us:
            self._settle_engagement(end_us)
            partial = _Bucket(bucket.start_us, end_us, bucket.tenants)
            tail = (self._pending + [partial])[-self.config.buckets_per_window:]
            self._emit_window(tail, partial=True)
        elif self._pending and self.windows_closed == 0:
            # Run shorter than one window: report what we have.
            self._emit_window(list(self._pending), partial=True)

    # -- record dispatch -----------------------------------------------
    def _tenant(self, name: str) -> TenantWindow:
        stats = self._bucket.tenants.get(name)
        if stats is None:
            stats = self._bucket.tenants[name] = TenantWindow()
        return stats

    def _consume(self, record: TraceRecord) -> None:
        kind = record.kind
        payload = record.payload
        if kind == events.REQUEST_COMPLETE:
            stats = self._tenant(tenant_key(payload))
            stats.completions += 1
            stats.service_us += payload.get("service_us", 0.0)
            latency = payload.get("latency_us")
            if latency is not None:
                if stats.latency is None:
                    stats.latency = FixedBinLatency(
                        self.config.latency_bin_us, self.config.latency_max_us
                    )
                stats.latency.observe(latency)
        elif kind == events.REQUEST_SUBMIT:
            self._tenant(tenant_key(payload)).submits += 1
        elif kind == events.SHARE_SAMPLE:
            self._tenant(tenant_key(payload)).share_usage_us += payload[
                "usage_us"
            ]
        elif kind == events.VT_UPDATE:
            self._tenant(tenant_key(payload)).vt = payload.get("vt")
        elif kind == events.OVERUSE_CHARGE:
            self._tenant(tenant_key(payload)).overuse_us += payload.get(
                "excess_us", 0.0
            )
        elif kind == events.FAULT:
            self._tenant(tenant_key(payload)).faults += 1
        elif kind == events.DENIAL:
            self._tenant(tenant_key(payload)).denials += 1
        elif kind == events.FAULT_ESCALATED:
            self._tenant(tenant_key(payload)).escalations += 1
        elif kind == events.TASK_KILLED:
            self._tenant(tenant_key(payload)).kills += 1
        elif kind == events.CHANNEL_ENGAGED:
            self._flip(payload, engaged=True, now=record.time)
        elif kind == events.CHANNEL_DISENGAGED:
            self._flip(payload, engaged=False, now=record.time)
        elif kind == events.TASK_EXIT:
            self._drop_task(tenant_key(payload), record.time)
        # Everything else carries no per-tenant window quantity.

    # -- engagement mini-ledger ----------------------------------------
    def _flip(self, payload: dict, engaged: bool, now: float) -> None:
        channel_id = payload.get("channel")
        if channel_id is None:
            return
        state = self._channels.get(channel_id)
        if state is None:
            self._channels[channel_id] = _ChannelLedger(
                tenant_key(payload), engaged, now
            )
            return
        if state.engaged != engaged:
            self._settle_channel(state, now)
            state.engaged = engaged

    def _settle_channel(self, state: _ChannelLedger, now: float) -> None:
        elapsed = now - state.since
        if elapsed > 0:
            stats = self._tenant(state.task)
            if state.engaged:
                stats.engaged_us += elapsed
            else:
                stats.disengaged_us += elapsed
        state.since = now

    def _settle_engagement(self, boundary: float) -> None:
        # The current bucket is about to close: account every channel's
        # open span into it so spans crossing buckets split correctly.
        for channel_id in sorted(self._channels):
            self._settle_channel(self._channels[channel_id], boundary)

    def _drop_task(self, task: str, now: float) -> None:
        for channel_id in sorted(self._channels):
            state = self._channels[channel_id]
            if state.task == task:
                self._settle_channel(state, now)
                del self._channels[channel_id]


def aggregate_trace(
    records: Iterable[TraceRecord],
    config: WindowConfig,
    start_us: float = 0.0,
    end_us: Optional[float] = None,
) -> list[WindowSnapshot]:
    """Replay recorded (or imported) records through a fresh aggregator.

    Produces exactly the snapshots a live sink would have produced for
    the same stream — the property the streaming-sink equivalence test
    pins.  ``end_us`` defaults to the last record's time.
    """
    aggregator = WindowAggregator(config, start_us=start_us)
    last = start_us
    for record in records:
        aggregator(record)
        last = record.time
    aggregator.finish(last if end_us is None else end_us)
    return aggregator.snapshots
