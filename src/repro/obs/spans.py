"""Causal request-lifecycle spans reconstructed from the trace stream.

The trace (:mod:`repro.sim.trace`) is a flat event stream; this module
rebuilds *causality* from it: every request becomes a lifecycle span —
submit → scheduler wait → device queue → execute → complete/abort — with
an **exact** decomposition of its latency into labeled components.  The
reconstruction is a pure function of the record stream, so it runs in
two interchangeable modes:

* as a **live sink** registered with
  :meth:`~repro.sim.trace.TraceRecorder.add_sink`, which sees the
  complete stream before ring-buffer eviction (like the PR-8 windows,
  the result is independent of ``max_records``); or
* as **replay** over a buffered or JSONL-imported trace
  (:func:`build_spans`), in which case the result covers whatever the
  buffer retained.

Both modes feed the identical state machine, so a live-sink build and a
replay over the exported JSONL of the same run serialize byte-identically.

Decomposition components (integer microseconds, summing exactly to the
span duration):

``sched_wait``
    Scheduler queue-wait: the fault handler held the task blocked on the
    scheduler's verdict (disengaged denial wait, fair-queue token wait).
``handler``
    Interception handler overhead outside the blocked wait: trap,
    fault-handling CPU, single-step, the submit path itself.
``queue``
    Device queue contention: the request sat enqueued while the engine
    served other work (including re-queue time after a preemption).
``exec``
    Engine execution (as observed through completion publication, so a
    stalled reference counter inflates it exactly as software sees it).
``stall``
    Fault-recovery stall: wait time overlapping a watchdog
    detect→recover/escalate window on the span's device.
``migration``
    Fleet migration cost: wait time overlapping the task's own
    ``fleet.migrate_begin``→``end`` window.

Spans carry the fleet ``device`` tag (0 when the trace has none) and
survive migrations as *linked* cross-device segments: each span records
the task's migration epoch, and the span set lists the
:class:`MigrationLink` joining epoch *n* on the source device to epoch
*n+1* on the target.

The module also owns the **span-pair registry**: which event kinds open
a span and which kinds terminate it.  neonlint rule NEON406 checks
span-boundary emit sites against this registry, the same way NEON401/402
check event kinds against :mod:`repro.obs.events`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Union

from repro.obs import events
from repro.sim.trace import TraceRecord, TraceRecorder

SPANS_FORMAT = "repro-spans"
SPANS_VERSION = 1

#: Decomposition component labels, in display order.
COMPONENTS = ("sched_wait", "handler", "queue", "exec", "stall", "migration")

#: Human description per component (the ``repro why`` vocabulary).
COMPONENT_LABELS = {
    "sched_wait": "scheduler-induced delay (blocked on token / engagement)",
    "handler": "interception handler overhead (trap, single-step, submit)",
    "queue": "scheduler queue-wait (device busy with other tenants' work)",
    "exec": "engine execution",
    "stall": "fault-recovery stall (watchdog retry/quarantine window)",
    "migration": "fleet migration cost (boundary drain + re-create)",
}

#: Wait-side labels eligible for stall/migration carve-outs and for
#: interference blame (everything that is not execution).
_WAIT_LABELS = frozenset(("sched_wait", "handler", "queue"))

#: Terminal tags a span can close with.
TERMINALS = (
    "complete", "aborted", "killed", "exited", "migrated", "truncated",
)


# ----------------------------------------------------------------------
# Span-pair registry (NEON406's source of truth)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpanPairSpec:
    """One registered begin/end event-kind pairing."""

    name: str
    begin: str
    ends: tuple[str, ...]
    #: Payload fields forming the correlation key between begin and end.
    key: tuple[str, ...]


#: pair name -> spec.  Populated by :func:`register_span_pair`.
SPAN_PAIRS: dict[str, SpanPairSpec] = {}


def register_span_pair(
    name: str, begin: str, ends: tuple[str, ...], key: tuple[str, ...]
) -> SpanPairSpec:
    """Register a pairing; every kind must exist in the event registry."""
    if name in SPAN_PAIRS:
        raise ValueError(f"span pair {name!r} registered twice")
    for kind in (begin, *ends):
        if kind not in events.EVENT_KINDS:
            raise ValueError(
                f"span pair {name!r} references unregistered kind {kind!r}"
            )
    spec = SpanPairSpec(name, begin, tuple(ends), tuple(key))
    SPAN_PAIRS[name] = spec
    return spec


BARRIER = register_span_pair(
    "barrier", events.BARRIER_BEGIN, (events.BARRIER_END,), ("episode",),
)
SAMPLE_WINDOW = register_span_pair(
    "sample_window",
    events.SAMPLE_WINDOW_BEGIN, (events.SAMPLE_WINDOW_END,), ("task",),
)
SCHED_WAIT = register_span_pair(
    "sched.wait",
    events.SCHED_WAIT_BEGIN, (events.SCHED_WAIT_END,), ("task", "channel"),
)
EXEC = register_span_pair(
    "exec",
    events.EXEC_BEGIN,
    (events.REQUEST_COMPLETE, events.REQUEST_ABORTED,
     events.REQUEST_PREEMPTED),
    ("channel", "ref"),
)
FLEET_MIGRATE = register_span_pair(
    "fleet.migrate",
    events.FLEET_MIGRATE_BEGIN, (events.FLEET_MIGRATE_END,), ("task",),
)

#: Pairs rebuilt generically as :class:`SystemSpan` timeline entries
#: (request-lifecycle pairs are consumed by the span state machine).
_SYSTEM_PAIRS = (BARRIER, SAMPLE_WINDOW, FLEET_MIGRATE)


def span_kinds() -> frozenset[str]:
    """Every event kind participating in a registered span pair."""
    out: set[str] = set()
    for spec in SPAN_PAIRS.values():
        out.add(spec.begin)
        out.update(spec.ends)
    return frozenset(out)


def span_constant_names() -> frozenset[str]:
    """Names of :mod:`repro.obs.events` constants holding span-pair
    kinds — what neonlint's NEON406 resolves identifiers against."""
    kinds = span_kinds()
    return frozenset(
        name
        for name in events.constant_names()
        if getattr(events, name) in kinds
    )


# ----------------------------------------------------------------------
# Result model
# ----------------------------------------------------------------------

def _us(t: float) -> int:
    """Integer-microsecond cut point (round-half-even, monotone)."""
    return int(round(t))


@dataclass(frozen=True)
class Segment:
    """One labeled, contiguous slice of a span's timeline."""

    label: str
    start_us: int
    end_us: int

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


@dataclass
class Span:
    """One request's reconstructed lifecycle."""

    span_id: int
    task: str
    device: int
    channel: Optional[int]
    ref: Optional[int]
    start_us: float
    end_us: float
    terminal: str
    migration_epoch: int
    segments: tuple[Segment, ...]
    components: dict[str, int]
    #: Device-observed latency from the completion event, when present
    #: (enqueue → completion; excludes the handler/scheduler wait).
    latency_us: Optional[float] = None

    @property
    def duration_us(self) -> int:
        """Integer span duration; equals ``sum(components.values())``."""
        return sum(self.components.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "task": self.task,
            "device": self.device,
            "channel": self.channel,
            "ref": self.ref,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "terminal": self.terminal,
            "migration_epoch": self.migration_epoch,
            "segments": [
                [seg.label, seg.start_us, seg.end_us] for seg in self.segments
            ],
            "components": dict(self.components),
            "latency_us": self.latency_us,
        }


@dataclass(frozen=True)
class SystemSpan:
    """A non-request paired interval (barrier, sampling window, migration)."""

    pair: str
    key: tuple
    device: int
    start_us: float
    end_us: float
    payload: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "pair": self.pair,
            "key": list(self.key),
            "device": self.device,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "payload": dict(self.payload),
        }


@dataclass(frozen=True)
class ExecInterval:
    """Engine occupancy: who held a device engine over an interval."""

    device: int
    task: str
    start_us: int
    end_us: int


#: One device's blame lookup: interval starts, running max of their
#: ends, and the intervals themselves (all in ``exec_intervals`` order).
_DeviceTable = tuple[list[int], list[int], list[ExecInterval]]


@dataclass(frozen=True)
class MigrationLink:
    """The join between a task's pre- and post-migration span epochs."""

    task: str
    src: int
    dst: int
    start_us: float
    end_us: float
    cost_us: float
    epoch: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "task": self.task,
            "src": self.src,
            "dst": self.dst,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "cost_us": self.cost_us,
            "epoch": self.epoch,
        }


# ----------------------------------------------------------------------
# Builder internals
# ----------------------------------------------------------------------

class _OpenSpan:
    """Mutable span under construction: a list of (cut, label) phases."""

    __slots__ = (
        "task", "device", "channel", "ref", "start_us", "cuts", "epoch",
    )

    def __init__(
        self,
        task: str,
        device: int,
        channel: Optional[int],
        start_us: float,
        label: str,
        epoch: int,
    ) -> None:
        self.task = task
        self.device = device
        self.channel = channel
        self.ref: Optional[int] = None
        self.start_us = start_us
        #: (time, label active from that time); times are non-decreasing.
        self.cuts: list[tuple[int, str]] = [(_us(start_us), label)]
        self.epoch = epoch

    def cut(self, t: float, label: str) -> None:
        at = _us(t)
        last_at, last_label = self.cuts[-1]
        if at < last_at:
            at = last_at
        if label == last_label:
            return
        if at == last_at:
            # Zero-length phase: replace, collapsing with the predecessor
            # when the replacement matches it.
            if len(self.cuts) >= 2 and self.cuts[-2][1] == label:
                self.cuts.pop()
            else:
                self.cuts[-1] = (at, label)
        else:
            self.cuts.append((at, label))


@dataclass
class _ClosedSpan:
    open: _OpenSpan
    end_us: float
    end_at: int
    terminal: str
    latency_us: Optional[float]


def _carve(
    segments: list[Segment],
    windows: list[tuple[int, int]],
    label: str,
) -> list[Segment]:
    """Relabel the overlap of wait segments with ``windows`` as ``label``.

    A pure sub-partition: total duration is preserved exactly."""
    if not windows:
        return segments
    out: list[Segment] = []
    for seg in segments:
        if seg.label not in _WAIT_LABELS:
            out.append(seg)
            continue
        pieces = [seg]
        for win_start, win_end in windows:
            next_pieces: list[Segment] = []
            for piece in pieces:
                if piece.label not in _WAIT_LABELS:
                    next_pieces.append(piece)
                    continue
                lo = max(piece.start_us, win_start)
                hi = min(piece.end_us, win_end)
                if lo >= hi:
                    next_pieces.append(piece)
                    continue
                if piece.start_us < lo:
                    next_pieces.append(Segment(piece.label, piece.start_us, lo))
                next_pieces.append(Segment(label, lo, hi))
                if hi < piece.end_us:
                    next_pieces.append(Segment(label=piece.label,
                                               start_us=hi,
                                               end_us=piece.end_us))
            pieces = next_pieces
        out.extend(pieces)
    return _merge(out)


def _merge(segments: list[Segment]) -> list[Segment]:
    """Drop empty segments and fuse adjacent same-label ones."""
    merged: list[Segment] = []
    for seg in segments:
        if seg.start_us >= seg.end_us:
            continue
        if merged and merged[-1].label == seg.label \
                and merged[-1].end_us == seg.start_us:
            merged[-1] = Segment(seg.label, merged[-1].start_us, seg.end_us)
        else:
            merged.append(seg)
    return merged


class SpanBuilder:
    """The reconstruction state machine (live sink or replay driver).

    Register an instance with ``trace.add_sink(builder)`` for live
    builds, or feed records through :meth:`observe`; call
    :meth:`finish` once to obtain the immutable :class:`SpanSet`.
    """

    def __init__(self) -> None:
        #: Pre-submit groups per (device, channel): faults whose request
        #: has no device ``ref`` yet; married FIFO to the next
        #: ``request_submit`` on the same channel.
        self._presubmit: dict[tuple[int, int], deque[_OpenSpan]] = {}
        #: Post-submit spans keyed by (device, channel, ref).
        self._inflight: dict[tuple[int, Optional[int], Any], _OpenSpan] = {}
        self._closed: list[_ClosedSpan] = []
        #: Open engine occupancy per (device, source).
        self._busy: dict[tuple[int, str], list] = {}
        self._exec: list[ExecInterval] = []
        #: Open watchdog stall per (device, task) -> start cut.
        self._stall_open: dict[tuple[int, str], int] = {}
        self._stalls: dict[int, list[tuple[int, int]]] = {}
        #: Open migration per task -> (src, dst, begin time).
        self._migration_open: dict[str, tuple[int, int, float]] = {}
        self._migrations: list[MigrationLink] = []
        self._mig_windows: dict[str, list[tuple[int, int]]] = {}
        self._epoch: dict[str, int] = {}
        self._system_open: dict[tuple, tuple[float, int, dict]] = {}
        self._system: list[SystemSpan] = []
        self._end_us = 0.0
        self._result: Optional["SpanSet"] = None

    # -- sink protocol --------------------------------------------------
    def __call__(self, record: TraceRecord) -> None:
        self.observe(record)

    # -- record dispatch ------------------------------------------------
    def observe(self, record: TraceRecord) -> None:
        if self._result is not None:
            raise RuntimeError("SpanBuilder already finished")
        t = record.time
        if t > self._end_us:
            self._end_us = t
        kind = record.kind
        payload = record.payload
        device = payload.get("device", 0)
        if not isinstance(device, int):
            device = 0

        if kind == events.FAULT:
            task = payload.get("task")
            channel = payload.get("channel")
            if isinstance(task, str):
                span = _OpenSpan(
                    task, device, channel, t, "handler",
                    self._epoch.get(task, 0),
                )
                self._presubmit.setdefault((device, channel), deque()) \
                    .append(span)
        elif kind == events.SCHED_WAIT_BEGIN:
            span = self._presubmit_tail(device, payload.get("channel"))
            if span is not None:
                span.cut(t, "sched_wait")
        elif kind == events.SCHED_WAIT_END:
            span = self._presubmit_tail(device, payload.get("channel"))
            if span is not None:
                span.cut(t, "handler")
        elif kind == events.REQUEST_SUBMIT:
            task = payload.get("task")
            channel = payload.get("channel")
            ref = payload.get("ref")
            if not isinstance(task, str):
                return
            queue = self._presubmit.get((device, channel))
            if queue:
                span = queue.popleft()
            else:
                # Direct (unprotected) submit: the doorbell write is the
                # first observable point of this request's life.
                span = _OpenSpan(
                    task, device, channel, t, "queue",
                    self._epoch.get(task, 0),
                )
            span.ref = ref
            span.cut(t, "queue")
            self._inflight[(device, channel, ref)] = span
        elif kind == events.EXEC_BEGIN:
            channel = payload.get("channel")
            ref = payload.get("ref")
            span = self._inflight.get((device, channel, ref))
            if span is not None:
                span.cut(t, "exec")
            self._busy_begin(
                device, record.source, payload.get("task"), channel, ref, t
            )
        elif kind == events.REQUEST_PREEMPTED:
            channel = payload.get("channel")
            ref = payload.get("ref")
            span = self._inflight.get((device, channel, ref))
            if span is not None:
                span.cut(t, "queue")
            self._busy_end(device, record.source, channel, ref, t)
        elif kind in (events.REQUEST_COMPLETE, events.REQUEST_ABORTED):
            channel = payload.get("channel")
            ref = payload.get("ref")
            span = self._inflight.pop((device, channel, ref), None)
            if span is not None:
                terminal = (
                    "complete" if kind == events.REQUEST_COMPLETE
                    else "aborted"
                )
                latency = payload.get("latency_us")
                self._close(
                    span, t, terminal,
                    latency if isinstance(latency, (int, float)) else None,
                )
            self._busy_end(device, record.source, channel, ref, t)
        elif kind == events.CONTEXT_KILLED:
            task = payload.get("task")
            if isinstance(task, str):
                terminal = (
                    "migrated" if task in self._migration_open else "killed"
                )
                self._close_task(task, t, terminal, device=device)
        elif kind in (events.TASK_EXIT, events.TASK_KILLED):
            task = payload.get("task")
            if isinstance(task, str):
                terminal = "exited" if kind == events.TASK_EXIT else "killed"
                self._close_task(task, t, terminal)
        elif kind == events.FAULT_DETECTED:
            task = payload.get("task")
            if isinstance(task, str):
                self._stall_open.setdefault((device, task), _us(t))
        elif kind in (events.FAULT_RECOVERED, events.FAULT_ESCALATED):
            task = payload.get("task")
            start = self._stall_open.pop((device, task), None)
            if start is not None:
                self._stalls.setdefault(device, []).append((start, _us(t)))

        spec, is_begin = _PAIR_BY_KIND.get(kind, (None, False))
        if spec is not None:
            self._system_boundary(spec, is_begin, record, device, t)
        if kind == events.FLEET_MIGRATE_BEGIN:
            task = payload.get("task")
            if isinstance(task, str):
                self._migration_open[task] = (
                    payload.get("src", device), payload.get("dst", device), t,
                )
        elif kind == events.FLEET_MIGRATE_END:
            task = payload.get("task")
            entry = self._migration_open.pop(task, None)
            if entry is not None:
                src, dst, begin = entry
                epoch = self._epoch.get(task, 0)
                cost = payload.get("cost_us", 0.0)
                self._migrations.append(MigrationLink(
                    task, src, dst, begin, t,
                    cost if isinstance(cost, (int, float)) else 0.0, epoch,
                ))
                self._mig_windows.setdefault(task, []) \
                    .append((_us(begin), _us(t)))
                self._epoch[task] = epoch + 1

    # -- helpers --------------------------------------------------------
    def _presubmit_tail(
        self, device: int, channel: Optional[int]
    ) -> Optional[_OpenSpan]:
        queue = self._presubmit.get((device, channel))
        return queue[-1] if queue else None

    def _busy_begin(self, device, source, task, channel, ref, t) -> None:
        key = (device, source)
        open_entry = self._busy.get(key)
        if open_entry is not None:
            # The engine moved on without this builder seeing a terminal
            # (e.g. a completion publication stalled past the next
            # dispatch): close the occupancy at the successor's start.
            self._busy_record(open_entry, t)
        self._busy[key] = [task, channel, ref, _us(t), device]

    def _busy_end(self, device, source, channel, ref, t) -> None:
        key = (device, source)
        entry = self._busy.get(key)
        if entry is not None and entry[1] == channel and entry[2] == ref:
            del self._busy[key]
            self._busy_record(entry, t)

    def _busy_record(self, entry: list, t: float) -> None:
        task, _channel, _ref, start, device = entry
        end = max(_us(t), start)
        if isinstance(task, str) and end > start:
            self._exec.append(ExecInterval(device, task, start, end))

    def _system_boundary(self, spec, is_begin, record, device, t) -> None:
        payload = record.payload
        key = (spec.name, device,
               tuple(payload.get(name) for name in spec.key))
        if is_begin:
            self._system_open[key] = (t, _us(t), dict(payload))
        else:
            entry = self._system_open.pop(key, None)
            if entry is None:
                return
            begin_t, _begin_at, begin_payload = entry
            merged = dict(begin_payload)
            merged.update(payload)
            self._system.append(SystemSpan(
                spec.name, key[2], device, begin_t, t, merged,
            ))

    def _close(
        self,
        span: _OpenSpan,
        t: float,
        terminal: str,
        latency_us: Optional[float] = None,
    ) -> None:
        end_at = max(_us(t), span.cuts[-1][0])
        self._closed.append(_ClosedSpan(span, t, end_at, terminal, latency_us))

    def _close_task(
        self,
        task: str,
        t: float,
        terminal: str,
        device: Optional[int] = None,
    ) -> None:
        for key in [k for k, q in self._presubmit.items()
                    if q and (device is None or k[0] == device)]:
            queue = self._presubmit[key]
            keep: deque[_OpenSpan] = deque()
            for span in queue:
                if span.task == task:
                    self._close(span, t, terminal)
                else:
                    keep.append(span)
            if keep:
                self._presubmit[key] = keep
            else:
                del self._presubmit[key]
        for key in [k for k, s in self._inflight.items()
                    if s.task == task and (device is None or k[0] == device)]:
            self._close(self._inflight.pop(key), t, terminal)
        for key in [k for k, entry in self._busy.items()
                    if entry[0] == task and (device is None or k[0] == device)]:
            entry = self._busy.pop(key)
            self._busy_record(entry, t)

    # -- finalization ---------------------------------------------------
    def finish(self, end_us: Optional[float] = None) -> "SpanSet":
        """Close everything still open (terminal ``truncated``) and build
        the immutable result.  Idempotent: later calls return the same
        :class:`SpanSet`."""
        if self._result is not None:
            return self._result
        end = self._end_us if end_us is None else max(end_us, self._end_us)
        for queue in self._presubmit.values():
            for span in queue:
                self._close(span, end, "truncated")
        self._presubmit.clear()
        for span in list(self._inflight.values()):
            self._close(span, end, "truncated")
        self._inflight.clear()
        for entry in list(self._busy.values()):
            self._busy_record(entry, end)
        self._busy.clear()
        for (device, _task), start in sorted(self._stall_open.items()):
            self._stalls.setdefault(device, []).append((start, _us(end)))
        self._stall_open.clear()

        stalls = {
            device: sorted(windows)
            for device, windows in self._stalls.items()
        }
        spans: list[Span] = []
        for index, closed in enumerate(self._closed):
            spans.append(self._materialize(index, closed, stalls))
        exec_intervals = sorted(
            self._exec,
            key=lambda iv: (iv.device, iv.start_us, iv.end_us, iv.task),
        )
        self._result = SpanSet(
            spans=spans,
            system_spans=list(self._system),
            migrations=list(self._migrations),
            exec_intervals=exec_intervals,
            end_us=end,
        )
        return self._result

    def _materialize(
        self,
        span_id: int,
        closed: _ClosedSpan,
        stalls: dict[int, list[tuple[int, int]]],
    ) -> Span:
        span = closed.open
        segments: list[Segment] = []
        cuts = span.cuts
        for position, (at, label) in enumerate(cuts):
            until = (
                cuts[position + 1][0] if position + 1 < len(cuts)
                else closed.end_at
            )
            segments.append(Segment(label, at, until))
        segments = _merge(segments)
        segments = _carve(segments, stalls.get(span.device, []), "stall")
        segments = _carve(
            segments, self._mig_windows.get(span.task, []), "migration"
        )
        components = {label: 0 for label in COMPONENTS}
        for seg in segments:
            components[seg.label] = (
                components.get(seg.label, 0) + seg.duration_us
            )
        return Span(
            span_id=span_id,
            task=span.task,
            device=span.device,
            channel=span.channel,
            ref=span.ref,
            start_us=span.start_us,
            end_us=closed.end_us,
            terminal=closed.terminal,
            migration_epoch=span.epoch,
            segments=tuple(segments),
            components=components,
            latency_us=closed.latency_us,
        )


# ----------------------------------------------------------------------
# The result set
# ----------------------------------------------------------------------

@dataclass
class SpanSet:
    """Immutable reconstruction result: spans + the context to read them."""

    spans: list[Span]
    system_spans: list[SystemSpan]
    migrations: list[MigrationLink]
    exec_intervals: list[ExecInterval]
    end_us: float
    #: Per-device blame tables, built on first :meth:`blame` call.
    _blame_tables: Optional[dict[int, _DeviceTable]] = field(
        default=None, init=False, compare=False, repr=False
    )

    # -- selection ------------------------------------------------------
    def select(
        self,
        task: Optional[str] = None,
        device: Optional[int] = None,
        start_us: Optional[float] = None,
        end_us: Optional[float] = None,
        terminal: Optional[str] = None,
    ) -> list[Span]:
        """Spans filtered by task/device/terminal and *ending* inside
        ``[start_us, end_us)`` — the same binning the windowed monitor
        applies to completions."""
        out = []
        for span in self.spans:
            if task is not None and span.task != task:
                continue
            if device is not None and span.device != device:
                continue
            if terminal is not None and span.terminal != terminal:
                continue
            if start_us is not None and span.end_us < start_us:
                continue
            if end_us is not None and span.end_us >= end_us:
                continue
            out.append(span)
        return out

    def tasks(self) -> list[str]:
        return sorted({span.task for span in self.spans})

    # -- decomposition --------------------------------------------------
    @staticmethod
    def decompose(spans: Iterable[Span]) -> dict[str, int]:
        """Aggregate components over a span subset (integer µs)."""
        totals = {label: 0 for label in COMPONENTS}
        for span in spans:
            for label, value in span.components.items():
                totals[label] = totals.get(label, 0) + value
        return totals

    def _device_tables(self) -> dict[int, _DeviceTable]:
        if self._blame_tables is None:
            by_device: dict[int, list[ExecInterval]] = {}
            for interval in self.exec_intervals:
                by_device.setdefault(interval.device, []).append(interval)
            tables: dict[int, _DeviceTable] = {}
            for device, intervals in by_device.items():
                starts = [iv.start_us for iv in intervals]
                max_end: list[int] = []
                running = 0
                for interval in intervals:
                    running = max(running, interval.end_us)
                    max_end.append(running)
                tables[device] = (starts, max_end, intervals)
            self._blame_tables = tables
        return self._blame_tables

    def blame(self, spans: Iterable[Span]) -> dict[str, int]:
        """Interference: µs of other tenants' engine occupancy
        overlapping the given spans' wait segments, per occupant.

        The per-victim rows of the tenant×tenant blame matrix come from
        calling this once per victim's span subset."""
        prepared = self._device_tables()
        out: dict[str, int] = {}
        for span in spans:
            entry = prepared.get(span.device)
            if entry is None:
                continue
            starts, max_end, intervals = entry
            for seg in span.segments:
                if seg.label == "exec":
                    continue
                index = bisect_right(starts, seg.end_us) - 1
                while index >= 0 and max_end[index] > seg.start_us:
                    interval = intervals[index]
                    index -= 1
                    if interval.task == span.task:
                        continue
                    overlap = (
                        min(seg.end_us, interval.end_us)
                        - max(seg.start_us, interval.start_us)
                    )
                    if overlap > 0:
                        out[interval.task] = (
                            out.get(interval.task, 0) + overlap
                        )
        return dict(sorted(out.items(), key=lambda kv: (-kv[1], kv[0])))

    def blame_matrix(self) -> dict[str, dict[str, int]]:
        """Full tenant×tenant interference matrix (victim -> occupant)."""
        matrix: dict[str, dict[str, int]] = {}
        for task in self.tasks():
            row = self.blame(self.select(task=task))
            if row:
                matrix[task] = row
        return matrix

    def critical_path(self, task: str) -> dict[str, Any]:
        """Per-tenant critical path: the aggregate decomposition plus the
        single longest span's segment chain (where the worst request's
        time actually went)."""
        spans = self.select(task=task)
        totals = self.decompose(spans)
        worst = max(spans, key=lambda span: span.duration_us, default=None)
        return {
            "task": task,
            "spans": len(spans),
            "total_us": sum(totals.values()),
            "components": totals,
            "critical_span": worst.to_dict() if worst is not None else None,
        }

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "format": SPANS_FORMAT,
            "version": SPANS_VERSION,
            "end_us": self.end_us,
            "spans": [span.to_dict() for span in self.spans],
            "system_spans": [span.to_dict() for span in self.system_spans],
            "migrations": [link.to_dict() for link in self.migrations],
            "exec_intervals": [
                [iv.device, iv.task, iv.start_us, iv.end_us]
                for iv in self.exec_intervals
            ],
        }


#: kind -> (pair spec, is_begin) for the generic system-span boundaries.
_PAIR_BY_KIND: dict[str, tuple[SpanPairSpec, bool]] = {}
for _spec in _SYSTEM_PAIRS:
    _PAIR_BY_KIND[_spec.begin] = (_spec, True)
    for _end in _spec.ends:
        _PAIR_BY_KIND[_end] = (_spec, False)


def build_spans(
    trace: Union[TraceRecorder, Iterable[TraceRecord]],
    end_us: Optional[float] = None,
) -> SpanSet:
    """Replay a trace (recorder or record iterable) into a span set.

    Replay over a ring-buffered recorder covers what the buffer
    retained; feed the builder as a live sink for eviction-independent
    reconstruction."""
    builder = SpanBuilder()
    records: Iterable[TraceRecord]
    if isinstance(trace, TraceRecorder):
        records = trace.records()
    else:
        records = trace
    for record in records:
        builder.observe(record)
    return builder.finish(end_us)
