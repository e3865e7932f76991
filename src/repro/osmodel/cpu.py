"""Host CPU model.

By default the simulation assumes one core per runnable entity (the
paper's 4-core Xeon against at most four tasks), so CPU time is charged
as plain virtual-time delays.  Setting ``CostParams.cpu_cores`` to a
positive number instead routes CPU work — application think time, fault
handler execution, polling passes — through a finite :class:`CpuPool`,
making kernel-side management load visible as application slowdown.
This is what lets us test the paper's §5.2 claim that the polling thread
is "not enough to impose a noticeable load even for single-CPU systems".
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.osmodel.steps import Steps

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.events import Event


class CpuPool:
    """A fixed number of cores shared by tasks and kernel services."""

    def __init__(self, sim: "Simulator", cores: int) -> None:
        if cores < 1:
            raise ValueError("a CPU pool needs at least one core")
        self.sim = sim
        self.cores = cores
        self._in_use = 0
        self._waiters: deque["Event"] = deque()
        #: Cumulative CPU microseconds per owner label.
        self.usage_us: dict[str, float] = {}
        #: Total time spent waiting for a core (queueing delay).
        self.contention_wait_us = 0.0

    @property
    def idle_cores(self) -> int:
        return self.cores - self._in_use

    def execute(self, duration_us: float, owner: str = "anon"):
        """Run ``duration_us`` of CPU work (generator; ``yield from`` it).

        :meth:`run` driven from a generator process: waits for a free
        core first (accounted as contention), and releases the core even
        if the caller is killed mid-execution.
        """
        steps = Steps()
        self.run(steps, duration_us, owner, steps.finish, ())
        yield from steps.drive(self.sim)

    def run(self, runner, duration_us: float, owner: str, fn, args: tuple) -> None:
        """Run ``duration_us`` of CPU work for ``runner``, then call
        ``fn(*args)``.

        Waits for a free core first; the wait is accounted as contention.
        ``runner`` supplies the waits (``sleep``/``wait``) and records the
        held core in ``runner.core``, so a kill can release it.
        """
        if duration_us < 0:
            raise ValueError("negative CPU work")
        self._admit(runner, duration_us, owner, fn, args, self.sim.now)

    def _admit(self, runner, duration_us: float, owner: str, fn, args: tuple,
               wait_start: float) -> None:
        sim = self.sim
        if self._in_use >= self.cores:
            event = sim.event()
            self._waiters.append(event)
            runner.wait(event, self._admit, runner, duration_us, owner, fn,
                        args, wait_start)
            return
        self.contention_wait_us += sim.now - wait_start
        self._in_use += 1
        runner.core = (self, owner, sim.now)
        if duration_us > 0:
            runner.sleep(duration_us, self._done, runner, fn, args)
        else:
            self._done(runner, fn, args)

    def _done(self, runner, fn, args: tuple) -> None:
        _pool, owner, started = runner.core
        runner.core = None
        self.release(owner, started)
        fn(*args)

    def release(self, owner: str, started: float) -> None:
        """Give back a core held since ``started``, waking one waiter."""
        executed = self.sim.now - started
        self.usage_us[owner] = self.usage_us.get(owner, 0.0) + executed
        self._in_use -= 1
        while self._waiters and self._in_use < self.cores:
            waiter = self._waiters.popleft()
            if not waiter.triggered:
                waiter.trigger()
                break

    def owner_usage(self, owner: str) -> float:
        return self.usage_us.get(owner, 0.0)
