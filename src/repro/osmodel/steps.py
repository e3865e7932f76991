"""Driving a continuation-passing core from a generator process.

The kernel's submission core and the CPU pool take a *runner*: an object
with ``task``, ``sleep(delay, fn, *args)``, ``wait(event, fn, *args)``
and a ``core`` slot for a held CPU core.  Workloads are runners
themselves.  :class:`Steps` is the runner for a hand-written generator
process: the core records each wait it asks for, and :meth:`Steps.drive`
yields that wait (a delay or an event) and then runs the continuation,
until the core calls :meth:`Steps.finish`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.osmodel.task import Task
    from repro.sim.engine import Simulator


class Steps:
    """A runner that hands each wait of a callback core to a generator."""

    __slots__ = ("task", "pending", "core", "finished")

    def __init__(self, task: Optional["Task"] = None) -> None:
        self.task = task
        self.pending: Optional[tuple] = None
        self.core: Optional[tuple] = None
        self.finished = False

    def sleep(self, delay_us: float, fn, *args) -> None:
        self.pending = (delay_us, fn, args)

    def wait(self, event, fn, *args) -> None:
        self.pending = (event, fn, args)

    def finish(self) -> None:
        self.finished = True

    def drive(self, sim: "Simulator", result: Optional[Callable[[], Any]] = None):
        """Yield the core's waits until it finished (``yield from`` it);
        its value is ``result()``, if given.

        A core that stops short without finishing (the task was torn
        down) leaves the process waiting for its kill.  A held CPU core
        is released however the process ends, killed mid-wait included.
        """
        try:
            while not self.finished:
                pending, self.pending = self.pending, None
                if pending is None:
                    yield sim.event()
                    continue
                target, fn, args = pending
                yield target
                fn(*args)
        finally:
            core, self.core = self.core, None
            if core is not None:
                core[0].release(core[1], core[2])
        return result() if result is not None else None
