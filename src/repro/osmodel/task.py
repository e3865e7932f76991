"""Tasks — the resource principals the schedulers arbitrate among."""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.context import GpuContext

_task_ids = itertools.count(1)


class TaskState(enum.Enum):
    RUNNING = "running"
    BLOCKED = "blocked"  # delayed inside the fault handler by the scheduler
    DEAD = "dead"


class Task:
    """An OS process (or VM) using the accelerator.

    The schedulers see tasks only as opaque principals; all per-scheduler
    state lives in the scheduler's own tables keyed by ``task_id``.
    """

    def __init__(self, name: str) -> None:
        self.task_id = next(_task_ids)
        self.name = name
        self.state = TaskState.RUNNING
        self.contexts: list["GpuContext"] = []
        #: What runs the task, with a ``kill(reason)`` method: its
        #: workload's state machine (set when the workload starts) or a
        #: generator :class:`~repro.sim.process.Process`.
        self.process: Optional[Any] = None
        #: Reason string recorded when the kernel kills the task.
        self.kill_reason: Optional[str] = None
        #: Free-form slot for workload models to attach themselves.
        self.workload: Any = None

    @property
    def alive(self) -> bool:
        return self.state is not TaskState.DEAD

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task(#{self.task_id} {self.name}, {self.state.value})"
