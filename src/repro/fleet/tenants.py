"""Fleet-aware tenant workloads.

A :class:`FleetTenant` is a Throttle-style request generator that
cooperates with the fleet's migration protocol:

* **planned migration** — the :class:`~repro.fleet.migration.
  MigrationManager` flags a pending move; the tenant *parks* at its next
  round boundary (nothing in flight, channel quiescent) and waits.  The
  move commits at the source scheduler's next engagement boundary —
  barrier up, every channel drained — where the manager tears the
  source task down, charges the migration cost, and rebinds the tenant
  to the target kernel.  The tenant then reopens its channel there.
* **device loss** — the env marks the tenant for reincarnation and
  kills its task with the rest of the lost device.  The overridden
  ``_run`` catches the kill and, instead of dying, restarts the body as
  a fresh task on the surviving device the env chose.  Without a
  survivor the kill stands (escalation), exactly like any other
  protective kill.

Round logs and request statistics span incarnations, so per-tenant
results aggregate across every device the tenant lived on.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import OutOfResourcesError
from repro.gpu.request import RequestKind
from repro.sim.process import ProcessKilled
from repro.workloads.base import Workload


class FleetTenant(Workload):
    """Controlled request generator that can move between devices."""

    def __init__(
        self,
        name: str,
        request_size_us: float = 25.0,
        sleep_ratio: float = 0.0,
        jitter_sigma: float = 0.0,
        request_kind: RequestKind = RequestKind.COMPUTE,
        partition: Optional[str] = None,
    ) -> None:
        if request_size_us <= 0:
            raise ValueError("request size must be positive")
        if not 0.0 <= sleep_ratio < 1.0:
            raise ValueError("sleep ratio must be in [0, 1)")
        super().__init__(name)
        self.request_size_us = request_size_us
        self.sleep_ratio = sleep_ratio
        self.jitter_sigma = jitter_sigma
        self.request_kind = request_kind
        #: Partition key for partition-affinity placement and the
        #: partitioned global policy (defaults to the name's '.'-prefix).
        self.partition = (
            partition if partition is not None else name.partition(".")[0]
        )
        #: The owning env, set at placement time.
        self.fleet = None
        #: Pending planned move (repro.fleet.migration.PendingMove).
        self._move = None
        #: Surviving device stack chosen at device loss, if any.
        self._reincarnation = None
        #: Completed moves, by reason ("rebalance" / "device_loss").
        self.migrations: list = []

    @property
    def sleep_us(self) -> float:
        """Idle time per request achieving the configured off ratio."""
        if self.sleep_ratio == 0.0:
            return 0.0
        return self.request_size_us * self.sleep_ratio / (1.0 - self.sleep_ratio)

    # ------------------------------------------------------------------
    # Body: Throttle loop with a park point at each round top
    # ------------------------------------------------------------------
    def body(self):
        channel = self.open_channel(self.request_kind)
        while True:
            move = self._move
            if move is not None:
                channel = yield from self._park(move)
                continue
            start = self.sim.now
            size = (
                self.jittered(self.request_size_us, self.jitter_sigma)
                if self.jitter_sigma > 0
                else self.request_size_us
            )
            yield from self.submit(channel, size)
            self.rounds.record(start, self.sim.now)
            if self.sleep_us > 0:
                yield self.sleep_us

    def _park(self, move):
        """Quiesce for a planned move; resumes on the target device."""
        move.parked = True
        yield move.resumed
        self._move = None
        return self.open_channel(self.request_kind)

    # ------------------------------------------------------------------
    # Lifecycle: reincarnate on device loss
    # ------------------------------------------------------------------
    def _run(self):
        try:
            yield from self.body()
        except ProcessKilled:
            destination = self._reincarnation
            if destination is None or self.fleet is None:
                self.killed = True
                return
            self._reincarnation = None
            self._move = None
            # The env rebinds us to the surviving device and spawns
            # a fresh process running this generator again.
            self.fleet.reincarnate(self, destination)
            return
        except OutOfResourcesError as error:
            self.setup_error = error
        self.kernel.exit_task(self.task)
