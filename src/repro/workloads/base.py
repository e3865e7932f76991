"""Workload base class.

A workload owns one :class:`~repro.osmodel.task.Task` and runs as a
small state machine: every wait (a sleep, an event, a request's
completion, a CPU core) is one queued call of the bound method that
continues it, and nothing stays suspended in a coroutine.  It submits
requests through the kernel's callback submission core, paying the
appropriate virtual-time costs, records round boundaries (for the
paper's user-visible performance metric) and keeps the submitted
requests for post-run statistics (Table 1, Figure 2).

A subclass implements :meth:`Workload.run`, the first step, and chains
its later steps through the helpers :meth:`~Workload.sleep`,
:meth:`~Workload.wait`, :meth:`~Workload.wait_request`,
:meth:`~Workload.submit`, :meth:`~Workload.submit_pipelined`,
:meth:`~Workload.submit_burst`, :meth:`~Workload.drain_pipelines` and
:meth:`~Workload.cpu_work`; each takes the continuation as ``fn, *args``.

The workload is also its task's ``process``: :meth:`Workload.kill`
withdraws the current wait and queues the kill at the current instant,
as :meth:`repro.sim.process.Process.kill` does for a generator.  Every
continuation is queued with the workload's generation, which a kill
bumps, so callbacks queued before the kill run as no-ops.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

import math

from repro.errors import OutOfResourcesError
from repro.gpu.request import Request, RequestKind
from repro.metrics.rounds import RoundLog, RoundStats
from repro.sim.process import ProcessCrashed

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.channel import Channel
    from repro.osmodel.kernel import Kernel
    from repro.sim.engine import Simulator
    from repro.sim.events import Event
    from repro.sim.rng import RngRegistry


class Workload:
    """Base class for all workload models."""

    #: How requests reach the device: "mmio" (direct-mapped interface,
    #: possibly intercepted), "syscall" (trap per request, Section 3's
    #: comparison stack), or "syscall+driver" (trap plus nontrivial driver
    #: routine work).
    submit_mode = "mmio"

    def __init__(self, name: str) -> None:
        self.name = name
        self.sim: Optional["Simulator"] = None
        self.kernel: Optional["Kernel"] = None
        self.task = None
        self.rounds = RoundLog()
        self.requests: list[Request] = []
        self.killed = False
        self.setup_error: Optional[Exception] = None
        self._pipelines: dict[int, deque] = {}
        #: True from start until the workload exits or is killed.
        self.alive = False
        #: Generation of live continuations; bumped by kills and exits.
        self._gen = 0
        #: False until :meth:`run` has been entered (a kill before that
        #: ends the task without running :meth:`on_killed`).
        self._started = False
        #: (event, waiter) backing the current event wait.
        self._event_wait: Optional[tuple] = None
        #: The request whose waiter slot holds the current continuation.
        self._awaited: Optional[Request] = None
        #: (pool, owner, start time) of a held CPU core; released by a kill.
        self.core: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, sim: "Simulator", kernel: "Kernel", rng: "RngRegistry") -> None:
        """Create the task and queue the first step."""
        self.sim = sim
        self.kernel = kernel
        self.rng = rng.stream(f"workload.{self.name}")
        self._normals = rng.normals(f"workload.{self.name}")
        self.task = kernel.create_task(self.name)
        self.task.workload = self
        self.task.process = self
        self.launch(self._enter)

    def launch(self, fn: Callable[..., Any], *args: Any) -> None:
        """(Re)start the state machine with ``fn(*args)`` at this instant."""
        self.alive = True
        self._started = False
        self.sim.schedule_now(self._tick, self._gen, fn, args)

    def _enter(self) -> None:
        self._started = True
        self.run()

    def run(self) -> None:
        """The first step: set up, then chain the workload's behaviour."""
        raise NotImplementedError

    def finish(self) -> None:
        """Exit normally: the task releases its device resources."""
        self.alive = False
        self._gen += 1
        self.kernel.exit_task(self.task)

    def kill(self, reason: str = "") -> None:
        """Kill the workload (the task's process).

        Withdraws the registration backing the current wait and queues
        the kill at the current instant; a no-op once the workload has
        ended.
        """
        if not self.alive:
            return
        wait = self._event_wait
        if wait is not None:
            self._event_wait = None
            wait[0].discard_callback(wait[1])
        request = self._awaited
        if request is not None:
            self._awaited = None
            if not request.done:
                request.waiter = None
        self._gen += 1
        self.sim.schedule_now(self._kill, self._gen, reason)

    def _kill(self, gen: int, reason: str) -> None:
        if gen != self._gen or not self.alive:
            return
        self._gen += 1
        self.alive = False
        core = self.core
        if core is not None:
            self.core = None
            core[0].release(core[1], core[2])
        if self._started:
            try:
                self.on_killed(reason)
            except Exception as error:
                raise ProcessCrashed(
                    f"task.{self.name}", self.sim.now, error
                ) from error

    def on_killed(self, reason: str) -> None:
        """The kill reached a running workload (subclasses may recover)."""
        self.killed = True

    def _tick(self, gen: int, fn: Callable[..., Any], args: tuple) -> None:
        """Run one continuation unless a kill or exit made it stale."""
        if gen != self._gen:
            return
        try:
            fn(*args)
        except OutOfResourcesError as error:
            # A real application would die with an allocation error;
            # record it so experiments can observe the lock-out (§6.3).
            self.setup_error = error
            self.finish()
        except Exception as error:
            self.alive = False
            raise ProcessCrashed(
                f"task.{self.name}", self.sim.now, error
            ) from error

    def _on_event(self, wake: tuple, _value: Any, _exc: Any) -> None:
        if wake[0] == self._gen:
            self._event_wait = None
        self._tick(*wake)

    # ------------------------------------------------------------------
    # Waits
    # ------------------------------------------------------------------
    def sleep(self, delay_us: float, fn: Callable[..., Any], *args: Any) -> None:
        """Continue with ``fn(*args)`` after ``delay_us`` of virtual time."""
        self.sim.defer(delay_us, self._tick, self._gen, fn, args)

    def wait(self, event: "Event", fn: Callable[..., Any], *args: Any) -> None:
        """Continue with ``fn(*args)`` once ``event`` has triggered."""
        waiter = (self._on_event, (self._gen, fn, args))
        self._event_wait = (event, waiter)
        event.add_waiter(waiter)

    def wait_request(
        self, request: Request, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Continue with ``fn(*args)`` once ``request`` has settled."""
        if request.done:
            self.sim.schedule_now(self._tick, self._gen, fn, args)
            return
        request.waiter = (self._tick, (self._gen, fn, args))
        self._awaited = request

    # ------------------------------------------------------------------
    # Submission helpers
    # ------------------------------------------------------------------
    def open_channel(self, kind: RequestKind, context=None) -> "Channel":
        """Open (and lazily create) a context plus one channel."""
        if context is None:
            if not self.task.contexts:
                self.kernel.open_context(self.task)
            context = self.task.contexts[0]
        return self.kernel.open_channel(self.task, context, kind)

    def submit(
        self,
        channel: "Channel",
        size_us: float,
        fn: Callable[..., Any],
        *args: Any,
        blocking: bool = True,
    ) -> Request:
        """Submit one request, then continue with ``fn(*args)``.

        A blocking request continues once it has completed, a
        non-blocking one as soon as it has reached the device.  Returns
        the request.
        """
        request = Request(channel.kind, size_us, blocking)
        self.requests.append(request)
        if blocking:
            then, then_args = self.wait_request, (request, fn, *args)
        else:
            then, then_args = fn, args
        mode = self.submit_mode
        if mode == "mmio":
            self.kernel.start_submit(self, channel, request, then, then_args)
        else:
            self.kernel.start_syscall_submit(
                self, channel, request, mode == "syscall+driver", then,
                then_args,
            )
        return request

    def submit_burst(
        self,
        channel: "Channel",
        sizes_us: list,
        fn: Callable[..., Any],
        *args: Any,
    ) -> list[Request]:
        """Submit a burst of non-blocking requests as one batch.

        Uses the kernel's batched doorbell path, so the back-to-back
        enqueues coalesce into a single engine wake event; continues with
        ``fn(*args)`` once the burst has reached the device.  Returns the
        requests in submission order.
        """
        requests = [Request(channel.kind, size_us, False) for size_us in sizes_us]
        self.requests.extend(requests)
        self.kernel.start_submit_batch(self, channel, requests, fn, args)
        return requests

    def submit_pipelined(
        self,
        channel: "Channel",
        size_us: float,
        depth: int,
        fn: Callable[..., Any],
        *args: Any,
    ) -> None:
        """Submit a non-blocking request, bounding outstanding ones.

        Models the user-level library's asynchronous pipelining: up to
        ``depth`` requests per channel may be in flight; beyond that the
        submitter waits for the oldest.
        """
        pipeline = self._pipelines.setdefault(channel.channel_id, deque())
        while len(pipeline) >= depth:
            oldest = pipeline.popleft()
            if not oldest.done:
                self.wait_request(
                    oldest, self.submit_pipelined, channel, size_us, depth,
                    fn, *args,
                )
                return
        pipeline.append(
            self.submit(channel, size_us, fn, *args, blocking=False)
        )

    def drain_pipelines(
        self,
        fn: Callable[..., Any],
        *args: Any,
        channel: Optional["Channel"] = None,
    ) -> None:
        """Wait for all in-flight pipelined requests (one channel or all),
        then continue with ``fn(*args)``."""
        if channel is not None:
            pipelines = [self._pipelines.get(channel.channel_id, deque())]
        else:
            pipelines = list(self._pipelines.values())
        self._drain(pipelines, fn, args)

    def _drain(self, pipelines: list, fn: Callable[..., Any], args: tuple) -> None:
        for pipeline in pipelines:
            while pipeline:
                oldest = pipeline.popleft()
                if not oldest.done:
                    self.wait_request(oldest, self._drain, pipelines, fn, args)
                    return
        fn(*args)

    def cpu_work(self, duration_us: float, fn: Callable[..., Any], *args: Any) -> None:
        """Consume CPU time (think/compute), then continue with
        ``fn(*args)``; contends for cores when the kernel is configured
        with a finite pool."""
        if duration_us <= 0:
            fn(*args)
            return
        self.kernel.cpu_work(self, duration_us, fn, args)

    def jittered(self, mean_us: float, sigma: float = 0.08) -> float:
        """A mean-preserving lognormal jitter around ``mean_us``."""
        if mean_us <= 0 or sigma <= 0:
            return max(mean_us, 0.0)
        # Batched standard normals scaled by sigma: bit-identical to
        # ``self.rng.normal(0.0, sigma)`` one call at a time, without the
        # per-draw numpy dispatch (see repro.sim.rng.BatchedNormals).
        draw = self._normals.draw() * sigma
        return mean_us * math.exp(draw - sigma * sigma / 2.0)

    # ------------------------------------------------------------------
    # Post-run statistics
    # ------------------------------------------------------------------
    def round_stats(
        self, warmup_us: float = 0.0, until_us: Optional[float] = None
    ) -> RoundStats:
        return self.rounds.stats(warmup_us, until_us)

    def mean_request_size(self, kinds: Optional[Iterable] = None) -> float:
        """Mean submitted request size (µs), optionally filtered by kind.

        DMA requests are excluded by default, matching Table 1's
        compute/graphics request sizes.
        """
        # A tuple tests membership by identity; a set would hash every
        # request's kind through ``enum.py``.
        if kinds is None:
            kinds = (RequestKind.COMPUTE, RequestKind.GRAPHICS)
        else:
            kinds = tuple(kinds)
        sizes = [
            request.size_us
            for request in self.requests
            if request.kind in kinds and not math.isinf(request.size_us)
        ]
        if not sizes:
            return float("nan")
        return sum(sizes) / len(sizes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}, rounds={len(self.rounds)})"
