"""The traced run: spans and work counts at the program's layer boundaries.

A :class:`Tracer` patches the program's classes from the outside, for the
duration of one ``with tracer:`` block, and restores every attribute on
exit.  Nothing in ``src/`` knows it exists.

Spans.  Every callback the simulator dispatches and every process
resumption becomes a span, attributed to the ``repro`` package that
defines the callback or the process's generator (dispatch is intercepted
where entries enter the event queue, so ``Event.trigger``'s inlined
fan-out is covered too).  The entry points patched in
:meth:`Tracer.__enter__` become child spans of whatever span calls them;
generator entry points (``Kernel.submit``, ``InterceptionManager.drain``
...) become one span per resumed step.  A layer's self time is the time
its spans cover minus the time their child spans cover.  Spans are folded
in memory into per (parent, name) edges -- a call tree with counts,
inclusive and self seconds -- which :meth:`Tracer.edge_table` returns
when the run ends.

Counts.  Integer tallies kept at the same boundaries (queue pushes,
triggers, resumptions, submissions, flips, drains ...).  They do not
depend on host speed, so two traced runs at one seed repeat them exactly.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from typing import Any, Callable, Iterator, Optional

from repro.core.base import SchedulerBase
from repro.experiments import cells, runner
from repro.gpu.device import GpuDevice
from repro.gpu.engine import ExecutionEngine
from repro.neon.interception import InterceptionManager
from repro.obs import export, overhead, spans, summary, why, windows
from repro.osmodel.kernel import Kernel
from repro.osmodel.polling import PollingService
from repro.sim.engine import Simulator, TimerHandle
from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.queues import QUEUE_BACKENDS
from repro.sim.trace import TraceRecorder

#: The layers whose self time is reported, named after ``src/repro``
#: packages.  Spans of any other package are kept in the edge table only.
LAYERS = ("sim", "gpu", "workloads", "osmodel", "neon", "core", "obs",
          "experiments")

#: Span names whose inclusive time is the obs write / read / fold time.
WRITE_SPANS = frozenset({"obs:save_trace"})
READ_SPANS = frozenset({"obs:load_trace"})
FOLD_SPANS = frozenset({
    "obs:summarize", "obs:build_spans", "obs:aggregate_trace",
    "obs:overhead_breakdown", "obs:worst_window", "obs:attribute_window",
    "obs:SpanSet.blame_matrix", "obs:SpanBuilder.finish",
})
#: Span names whose inclusive time is the experiments build time.
BUILD_SPANS = frozenset({
    "experiments:build_env", "experiments:WorkloadSpec.build",
})

_RESUME = Process._resume


def _package(module: Optional[str]) -> str:
    parts = (module or "").split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return parts[1]
    return "other"


def _package_of_file(filename: str) -> str:
    parts = filename.replace("\\", "/").split("/")
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            return parts[index + 1]
    return "other"


class Tracer:
    """Collects spans and counts while installed (``with tracer: ...``)."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: (parent span name, span name) -> [calls, inclusive s, self s].
        self.edges: dict[tuple[str, str], list] = {}
        #: Every environment built while installed, in build order.
        self.envs: list[runner.SimulationEnv] = []
        self._stack: list[list] = [["root", 0.0]]
        self._saved: list[tuple[Any, str, Any]] = []
        self._dispatch_names: dict[Any, tuple[str, str]] = {}

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _close(self, frame: list, layer: str, duration: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        parent[1] += duration
        own = duration - frame[1]
        self.self_s[layer] += own
        key = (parent[0], frame[0])
        edge = self.edges.get(key)
        if edge is None:
            self.edges[key] = [1, duration, own]
        else:
            edge[0] += 1
            edge[1] += duration
            edge[2] += own

    def spanned(
        self,
        layer: str,
        name: str,
        fn: Callable,
        count: Optional[str] = None,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """``fn`` wrapped so that each call is one span (and one count)."""
        stack = self._stack
        close = self._close
        counts = self.counts
        clock = time.perf_counter
        name = f"{layer}:{name}"

        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, layer, clock() - start)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def spanned_generator(
        self,
        layer: str,
        name: str,
        fn: Callable,
        count: Optional[str] = None,
        on_return: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """A generator function wrapped so each resumed step is a span."""
        tracer = self
        counts = self.counts
        name = f"{layer}:{name}"

        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            return tracer._drive(fn(*args, **kwargs), name, layer, on_return)

        return wrapper

    def _drive(
        self,
        inner: Iterator,
        name: str,
        layer: str,
        on_return: Optional[Callable[[Any], None]],
    ):
        """``yield from inner``, spelled out so each step can be timed."""
        stack = self._stack
        clock = time.perf_counter
        value: Any = None
        thrown: Optional[BaseException] = None
        while True:
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                if thrown is not None:
                    error, thrown = thrown, None
                    target = inner.throw(error)
                else:
                    target = inner.send(value)
            except StopIteration as stop:
                self._close(frame, layer, clock() - start)
                if on_return is not None:
                    on_return(stop.value)
                return stop.value
            except BaseException:
                self._close(frame, layer, clock() - start)
                raise
            self._close(frame, layer, clock() - start)
            try:
                value = yield target
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as error:  # delivered into ``inner``
                thrown = error

    def _dispatch(self, fn: Callable, args: tuple) -> None:
        """Run one dequeued simulator callback as a span."""
        func = getattr(fn, "__func__", fn)
        resume = func is _RESUME
        if resume:
            code = fn.__self__._generator.gi_code
        else:
            code = getattr(func, "__code__", None)
        key = code if code is not None else type(func)
        named = self._dispatch_names.get(key)
        if named is None:
            if code is None:
                named = (f"other:call {type(func).__qualname__}", "other")
            else:
                layer = _package_of_file(code.co_filename)
                verb = "resume" if resume else "call"
                named = (f"{layer}:{verb} {code.co_qualname}", layer)
            self._dispatch_names[key] = named
        if resume:
            self.counts["sim.resume"] += 1
            if named[1] == "workloads":
                self.counts["workloads.resume"] += 1
        frame = [named[0], 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            fn(*args)
        finally:
            self._close(frame, named[1], time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Installing and removing the patches
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner: Any, attr: str, layer: str, **options: Any) -> None:
        original = owner.__dict__[attr]
        label = attr if inspect.ismodule(owner) else f"{owner.__name__}.{attr}"
        self._patch(owner, attr, self.spanned(layer, label, original, **options))

    def _wrap_generator(
        self, owner: Any, attr: str, layer: str, **options: Any
    ) -> None:
        original = owner.__dict__[attr]
        self._patch(owner, attr, self.spanned_generator(
            layer, f"{owner.__name__}.{attr}", original, **options,
        ))

    def __enter__(self) -> "Tracer":
        counts = self.counts
        dispatch = self._dispatch

        # sim: scheduling calls, triggers, cancels, and queue entries.
        self._wrap(Simulator, "run", "sim")
        self._wrap(Simulator, "schedule", "sim", count="sim.schedule")
        self._wrap(Simulator, "schedule_at", "sim", count="sim.schedule")
        self._wrap(Simulator, "schedule_now", "sim")
        self._wrap(Simulator, "spawn", "sim")
        self._wrap(Event, "trigger", "sim", count="sim.trigger")
        cancel = TimerHandle.cancel

        def counted_cancel(handle: TimerHandle) -> None:
            if not handle._cancelled:
                counts["sim.cancel"] += 1
            cancel(handle)

        self._patch(TimerHandle, "cancel", counted_cancel)
        for queue_class in QUEUE_BACKENDS.values():
            for attr, key in (("push", "sim.timed_push"),
                              ("push_now", "sim.now_push")):
                self._patch(queue_class, attr, _dispatching_push(
                    queue_class.__dict__[attr], key, counts, dispatch,
                ))

        # gpu
        self._wrap(GpuDevice, "submit", "gpu", count="gpu.submit_calls")
        self._wrap(GpuDevice, "submit_batch", "gpu", count="gpu.submit_calls")
        self._wrap(ExecutionEngine, "notify", "gpu", count="gpu.notify")
        for attr in ("abort_current", "preempt_current"):
            self._wrap(ExecutionEngine, attr, "gpu",
                       on_result=_count_true(counts, "gpu.abort_preempt"))

        # osmodel
        for attr in ("submit", "submit_batch"):
            self._wrap_generator(Kernel, attr, "osmodel",
                                 count="osmodel.submit_calls")
        self._wrap(PollingService, "_pass", "osmodel", count="osmodel.poll_pass")

        # neon
        for attr in ("engage_channel", "disengage_channel"):
            self._wrap(InterceptionManager, attr, "neon",
                       on_result=_count_sum(counts, "neon.flips"))
        for attr in ("engage_task", "disengage_task", "engage_all"):
            self._wrap(InterceptionManager, attr, "neon")
        self._wrap_generator(
            InterceptionManager, "drain", "neon", count="neon.drains",
            on_return=lambda result: _bump(
                counts, "neon.drain_timeouts", result.timed_out),
        )
        self._wrap_generator(InterceptionManager, "scan_channel", "neon",
                             count="neon.scans")

        # core: the kernel's two scheduler hooks, per attached instance
        # (so a hook calling its superclass counts once).
        attach = Kernel.attach_scheduler
        tracer = self

        def attach_traced(kernel: Kernel, scheduler: SchedulerBase) -> None:
            for hook in ("on_fault", "on_submit"):
                setattr(scheduler, hook, tracer.spanned(
                    "core", f"{type(scheduler).__name__}.{hook}",
                    getattr(scheduler, hook), count="core.hook_calls",
                ))
            attach(kernel, scheduler)

        self._patch(Kernel, "attach_scheduler", attach_traced)

        # obs: the record stream, its sinks, export and folds.
        emit = TraceRecorder.emit

        def counted_emit(recorder: TraceRecorder, time_us, source, kind,
                         **payload):
            counts["obs.emit"] += 1
            if recorder._kinds is None or kind in recorder._kinds:
                counts["obs.sink_calls"] += len(recorder._sinks)
            emit(recorder, time_us, source, kind, **payload)

        self._patch(TraceRecorder, "emit",
                    self.spanned("obs", "TraceRecorder.emit", counted_emit))
        append = TraceRecorder.append

        def counted_append(recorder: TraceRecorder, record) -> None:
            if recorder._kinds is None or record.kind in recorder._kinds:
                counts["obs.sink_calls"] += len(recorder._sinks)
            append(recorder, record)

        self._patch(TraceRecorder, "append", counted_append)
        self._wrap(export, "save_trace", "obs")
        self._wrap(export, "load_trace", "obs")
        self._wrap(summary, "summarize", "obs")
        self._wrap(spans, "build_spans", "obs")
        self._wrap(windows, "aggregate_trace", "obs")
        self._wrap(overhead, "overhead_breakdown", "obs")
        self._wrap(why, "worst_window", "obs")
        self._wrap(why, "attribute_window", "obs")
        self._wrap(spans.SpanSet, "blame_matrix", "obs")
        self._wrap(spans.SpanBuilder, "finish", "obs",
                   on_result=lambda span_set: _bump(
                       counts, "obs.spans", len(span_set.spans)))

        # experiments: the cell entry point, environment build, collection.
        build_env = runner.build_env

        def build_and_keep(*args, **kwargs):
            env = build_env(*args, **kwargs)
            self.envs.append(env)
            return env

        self._patch(runner, "build_env",
                    self.spanned("experiments", "build_env", build_and_keep))
        self._wrap(runner, "run_workloads", "experiments")
        self._wrap(runner, "measure", "experiments")
        self._wrap(cells.CellSpec, "run", "experiments")
        self._wrap(cells.WorkloadSpec, "build", "experiments")
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def inclusive_s(self, names: frozenset) -> float:
        """Inclusive seconds of the named spans, outermost calls only."""
        return sum(
            edge[1] for (parent, name), edge in self.edges.items()
            if name in names and parent not in names
        )

    def span_self_s(self, name: str) -> float:
        return sum(edge[2] for (_, child), edge in self.edges.items()
                   if child == name)

    def edge_table(self) -> list[dict]:
        """The folded spans, heaviest self time first."""
        rows = [
            {"parent": parent, "span": name, "calls": edge[0],
             "inclusive_s": edge[1], "self_s": edge[2]}
            for (parent, name), edge in self.edges.items()
        ]
        rows.sort(key=lambda row: (-row["self_s"], row["parent"], row["span"]))
        return rows


def _dispatching_push(push: Callable, key: str, counts: dict,
                      dispatch: Callable) -> Callable:
    """A queue ``push``/``push_now`` that counts the entry and routes its
    callback through ``dispatch``.  Entries order by ``(time, seq)`` alone,
    so replacing the callback cannot change the pop order."""

    def traced_push(queue, entry: tuple) -> None:
        counts[key] += 1
        push(queue, (entry[0], entry[1], entry[2], dispatch,
                     (entry[3], entry[4])))

    return traced_push


def _bump(counts: dict, key: str, amount: int) -> None:
    counts[key] += int(amount)


def _count_true(counts: dict, key: str) -> Callable[[Any], None]:
    return lambda result: _bump(counts, key, bool(result))


def _count_sum(counts: dict, key: str) -> Callable[[Any], None]:
    return lambda result: _bump(counts, key, result)
