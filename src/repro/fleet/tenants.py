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
  ``on_killed`` catches the kill and, instead of dying, restarts the
  state machine as a fresh task on the surviving device the env chose.  Without a
  survivor the kill stands (escalation), exactly like any other
  protective kill.

Round logs and request statistics span incarnations, so per-tenant
results aggregate across every device the tenant lived on.
"""

from __future__ import annotations

from typing import Optional

from repro.gpu.request import RequestKind
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
    # Steps: a Throttle loop with a park point at each round top
    # ------------------------------------------------------------------
    def run(self) -> None:
        self._channel = self.open_channel(self.request_kind)
        self._round()

    def _round(self) -> None:
        move = self._move
        if move is not None:
            # Quiesce for a planned move; resume on the target device.
            move.parked = True
            self.wait(move.resumed, self._unpark)
            return
        self._start = self.sim.now
        size = (
            self.jittered(self.request_size_us, self.jitter_sigma)
            if self.jitter_sigma > 0
            else self.request_size_us
        )
        self.submit(self._channel, size, self._completed)

    def _unpark(self) -> None:
        self._move = None
        self._channel = self.open_channel(self.request_kind)
        self._round()

    def _completed(self) -> None:
        self.rounds.record(self._start, self.sim.now)
        if self.sleep_us > 0:
            self.sleep(self.sleep_us, self._round)
        else:
            self._round()

    # ------------------------------------------------------------------
    # Lifecycle: reincarnate on device loss
    # ------------------------------------------------------------------
    def on_killed(self, reason: str) -> None:
        destination = self._reincarnation
        if destination is None or self.fleet is None:
            self.killed = True
            return
        self._reincarnation = None
        self._move = None
        # The env rebinds us to the surviving device and restarts the
        # state machine there.
        self.fleet.reincarnate(self, destination)

    def restart(self, cost_us: float) -> None:
        """Start over on a fresh task, ``cost_us`` of migration later."""
        self._pipelines.clear()
        self.launch(self._migrated, cost_us)

    def _migrated(self, cost_us: float) -> None:
        if cost_us > 0:
            self.sleep(cost_us, self._enter)
        else:
            self._enter()
