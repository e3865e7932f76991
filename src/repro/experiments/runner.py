"""Shared experiment scaffolding.

Builds a complete simulated system — one simulator driving one or more
device stacks (GPU, kernel, scheduler) — runs a set of workloads for a
fixed virtual duration, and extracts per-workload results.  The paper's
system is the one-device case; ``devices=N`` wires N independent stacks
sharing one simulator, RNG registry, metrics registry and trace recorder
(the multi-GPU fleet, docs/FLEET.md).  All runs are deterministic given
the seed.

A single-device run stays exactly the paper's system: its stack writes
the base recorder directly (no ``device`` tags), and it carries no
placement, no global fair-share sink, no ``fleet.*`` events and no
``fleet_*`` metric keys unless its device was lost.  The fleet modules
are imported only when a run needs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.base import SchedulerBase, scheduler_registry
from repro.faults.injector import Injector
from repro.faults.plan import FaultPlan
from repro.faults.registry import FLEET_DEVICE_LOSS
from repro.gpu.device import GpuDevice
from repro.gpu.params import GpuParams
from repro.metrics.rounds import RoundStats
from repro.obs import events
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import active_monitor
from repro.osmodel.costs import CostParams
from repro.osmodel.kernel import ChannelQuotaPolicy, Kernel, MemoryQuotaPolicy
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import DeviceTraceView, NullRecorder, TraceRecorder
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.placement import PlacementPolicy
    from repro.fleet.policies import GlobalPolicy
    from repro.fleet.share import GlobalFairShare

#: Default measurement horizon (µs of virtual time) and warmup.
DEFAULT_DURATION_US = 400_000.0
DEFAULT_WARMUP_US = 60_000.0

WorkloadFactory = Callable[[], Workload]
#: A registry name, a ready instance (one device only), or a factory
#: called once per device.
SchedulerSpec = Union[str, SchedulerBase, Callable[[], SchedulerBase]]
#: Planned migrations: ``(at_us, tenant, dst_device)`` requests.
Moves = Sequence[Tuple[float, str, int]]


def _lookup(registry: Mapping[str, Callable], name: str, what: str):
    """Instantiate ``registry[name]``, naming the known keys on a miss."""
    try:
        return registry[name]()
    except KeyError:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown {what} {name!r}; known: {known}") from None


@dataclass
class DeviceStack:
    """One device's full stack: GPU model, kernel, local scheduler."""

    device_id: int
    device: GpuDevice
    kernel: Kernel
    scheduler: SchedulerBase
    #: The stack's trace handle — the base recorder for a single-device
    #: run, a :class:`DeviceTraceView` tagging ``device`` otherwise.
    trace: TraceRecorder
    lost: bool = False


class SimulationEnv:
    """One fully wired simulated system: device stacks in one simulator.

    ``device``, ``kernel`` and ``scheduler`` name stack 0 — the whole
    system for a single-device run.  Multi-device runs add a placement
    policy, an optional global fair-share sink (``share``), and planned
    migrations (``migrations``, built on first use).
    """

    def __init__(
        self,
        sim: Simulator,
        rng: RngRegistry,
        trace: TraceRecorder,
        metrics: MetricsRegistry,
        faults: Optional[Injector],
        stacks: List[DeviceStack],
        costs: CostParams,
        placement: Optional[PlacementPolicy] = None,
        share: Optional[GlobalFairShare] = None,
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.trace = trace
        self.metrics = metrics
        #: Fault injector, when a fault plan is installed (repro.faults).
        self.faults = faults
        self.stacks = stacks
        self.costs = costs
        #: Placement policy; None for a single device (everything on 0).
        self.placement = placement
        #: Global fair-share sink (repro.fleet.share), if attached.
        self.share = share
        self._migrations = None
        #: Tenants in placement order.
        self.tenants: List[Workload] = []
        #: Tenant name -> current device id.
        self.tenant_device: Dict[str, int] = {}
        #: Tenant name -> every (device, task) incarnation, in order;
        #: ground-truth usage sums over these at the end of a run.
        self.tenant_tasks: Dict[str, List[Tuple[int, object]]] = {}
        #: Devices lost to fault injection, in loss order.
        self.lost_devices: List[int] = []

    @property
    def device(self) -> GpuDevice:
        return self.stacks[0].device

    @property
    def kernel(self) -> Kernel:
        return self.stacks[0].kernel

    @property
    def scheduler(self) -> SchedulerBase:
        return self.stacks[0].scheduler

    @property
    def migrations(self):
        """The planned-migration manager (repro.fleet.migration)."""
        if self._migrations is None:
            from repro.fleet.migration import MigrationManager

            self._migrations = MigrationManager(self)
        return self._migrations

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def device_of(self, tenant: Workload) -> int:
        return self.tenant_device[tenant.name]

    def live_stacks(self) -> List[DeviceStack]:
        return [stack for stack in self.stacks if not stack.lost]

    def place(
        self, tenant: Workload, device_id: Optional[int] = None
    ) -> int:
        """Assign a device (via the placement policy) and start the tenant."""
        if tenant.name in self.tenant_device:
            raise ValueError(f"tenant {tenant.name!r} already placed")
        placement = self.placement
        if device_id is None:
            lost = [stack.device_id for stack in self.stacks if stack.lost]
            device_id = (
                placement.assign(tenant.name, exclude=lost)
                if placement is not None
                else 0
            )
        stack = self.stacks[device_id]
        if stack.lost:
            raise ValueError(f"device {device_id} was lost")
        self.tenants.append(tenant)
        self.tenant_device[tenant.name] = device_id
        tenant.fleet = self
        if placement is not None:
            placement.placed(device_id)
            if stack.trace.enabled:
                stack.trace.emit(
                    self.sim.now, "fleet", events.FLEET_PLACE,
                    task=tenant.name, policy=placement.name,
                )
        tenant.start(self.sim, stack.kernel, self.rng)
        self.tenant_tasks.setdefault(tenant.name, []).append(
            (device_id, tenant.task)
        )
        return device_id

    def note_move(self, tenant: Workload, src: int, dst: int, task) -> None:
        """Bookkeeping for a committed planned migration."""
        self.tenant_device[tenant.name] = dst
        self.placement.departed(src)
        self.placement.placed(dst)
        self.tenant_tasks.setdefault(tenant.name, []).append((dst, task))

    # ------------------------------------------------------------------
    # Device loss and recovery
    # ------------------------------------------------------------------
    def lose_device(self, device_id: int) -> None:
        """Drop a device: tear its tenants down, migrate or escalate."""
        stack = self.stacks[device_id]
        if stack.lost:
            return
        stack.lost = True
        self.lost_devices.append(device_id)
        survivors = self.live_stacks()
        victims = [
            tenant
            for tenant in self.tenants
            if self.tenant_device.get(tenant.name) == device_id
            and tenant.task is not None
            and tenant.task.alive
        ]
        if stack.trace.enabled:
            stack.trace.emit(
                self.sim.now, "fleet", events.FLEET_DEVICE_LOST,
                tenants=[tenant.name for tenant in victims],
            )
        self.metrics.inc("fleet_device_losses")
        lost_ids = [s.device_id for s in self.stacks if s.lost]
        for tenant in victims:
            if survivors and hasattr(tenant, "_reincarnation"):
                # Migration-based recovery: pick a survivor now; the
                # tenant rebinds there when the kill reaches it.
                dst = self.placement.assign(tenant.name, exclude=lost_ids)
                tenant._reincarnation = self.stacks[dst]
            elif self.placement is not None:
                # No survivor (or a non-fleet workload): the kill stands.
                self.placement.departed(device_id)
            stack.kernel.kill_task(tenant.task, "device lost")

    def reincarnate(self, tenant, dst_stack: DeviceStack) -> None:
        """Restart a tenant of a lost device on the chosen survivor.

        Called from the tenant's own kill handler; restarts the tenant
        (charged the migration cost up front) on a fresh task on the
        destination kernel.
        """
        from repro.fleet.migration import MigrationRecord

        src = self.tenant_device[tenant.name]
        dst = dst_stack.device_id
        cost = self.costs.migration_cost_us
        if dst_stack.trace.enabled:
            dst_stack.trace.emit(
                self.sim.now, "fleet", events.FLEET_MIGRATE_BEGIN,
                task=tenant.name, src=src, dst=dst, reason="device_loss",
            )
        task = dst_stack.kernel.create_task(tenant.name)
        task.workload = tenant
        tenant.kernel = dst_stack.kernel
        tenant.task = task
        task.process = tenant
        tenant.restart(cost)
        self.tenant_device[tenant.name] = dst
        self.placement.departed(src)
        self.placement.placed(dst)
        self.tenant_tasks.setdefault(tenant.name, []).append((dst, task))
        record = MigrationRecord(
            self.sim.now, tenant.name, src, dst, "device_loss", cost
        )
        self.migrations.records.append(record)
        tenant.migrations.append(record)
        self.metrics.inc("fleet_migrations", tenant.name)
        if dst_stack.trace.enabled:
            dst_stack.trace.emit(
                self.sim.now, "fleet", events.FLEET_MIGRATE_END,
                task=tenant.name, src=src, dst=dst, reason="device_loss",
                cost_us=cost,
            )

    def _loss_controller(self):
        """Poll the injector for armed ``fleet.device_loss`` specs."""
        period = self.costs.poll_interval_us
        while True:
            yield period
            for stack in self.stacks:
                if stack.lost:
                    continue
                spec = self.faults.arm(
                    FLEET_DEVICE_LOSS, f"device{stack.device_id}"
                )
                if spec is not None:
                    self.lose_device(stack.device_id)
            if all(stack.lost for stack in self.stacks):
                return


def build_env(
    scheduler: SchedulerSpec = "direct",
    seed: int = 0,
    costs: Optional[CostParams] = None,
    gpu_params: Optional[GpuParams] = None,
    quota: Optional[ChannelQuotaPolicy] = None,
    memory_quota: Optional[MemoryQuotaPolicy] = None,
    trace_kinds: Optional[Iterable[str]] = None,
    trace: Optional[TraceRecorder] = None,
    metrics: Optional[MetricsRegistry] = None,
    fault_plan: Optional[FaultPlan] = None,
    devices: int = 1,
    placement: Union[str, PlacementPolicy] = "least-loaded",
    policy: Union[str, GlobalPolicy, None] = "fleet-fair",
) -> SimulationEnv:
    """Wire up a simulator and ``devices`` device/kernel/scheduler stacks.

    ``trace`` (a ready-made recorder, e.g. a capped ring buffer) takes
    precedence over ``trace_kinds`` (record only the listed kinds).
    Without either, a single device gets the null recorder, keeping
    tracing cost off the run, and a fleet gets a non-retaining streaming
    recorder (the global share layer consumes the stream live).
    ``fault_plan`` installs a :class:`repro.faults.Injector` at every
    registered injection point; without one the injector simply does not
    exist (zero cost, like tracing).

    ``placement`` and ``policy`` (None: no global re-weighting) only
    apply when ``devices >= 2``.
    """
    if devices < 1:
        raise ValueError("a fleet needs at least one device")
    if devices > 1 and isinstance(scheduler, SchedulerBase):
        raise ValueError("a scheduler instance drives one device only")
    sim = Simulator()
    rng = RngRegistry(seed)
    if trace is None:
        if trace_kinds is not None:
            trace = TraceRecorder(trace_kinds)
        elif devices == 1:
            trace = NullRecorder()
        else:
            trace = TraceRecorder(retain=False)
    if metrics is None:
        metrics = MetricsRegistry()
    faults = (
        Injector(fault_plan, sim, trace=trace, metrics=metrics)
        if fault_plan is not None
        else None
    )
    if costs is None:
        costs = CostParams()
    stacks: List[DeviceStack] = []
    for device_id in range(devices):
        view = trace if devices == 1 else DeviceTraceView(trace, device_id)
        device = GpuDevice(sim, gpu_params, view, metrics, faults=faults)
        kernel = Kernel(
            sim, device, costs, view, quota, memory_quota, metrics,
            faults=faults,
        )
        if isinstance(scheduler, str):
            local = _lookup(scheduler_registry, scheduler, "scheduler")
        elif isinstance(scheduler, SchedulerBase):
            local = scheduler
        else:
            local = scheduler()
        kernel.attach_scheduler(local)
        stacks.append(DeviceStack(device_id, device, kernel, local, view))
    if devices > 1:
        placement, share = _fleet_layer(placement, policy, trace, stacks)
    else:
        placement = share = None
    env = SimulationEnv(
        sim, rng, trace, metrics, faults, stacks, costs, placement, share
    )
    if faults is not None and FLEET_DEVICE_LOSS in faults.plan.points():
        # Only when the plan touches device loss; otherwise the run has
        # zero extra simulator events, like every absent-injector path.
        sim.spawn(env._loss_controller(), name="fleet.loss-controller")
    return env


def _fleet_layer(placement, policy, trace, stacks: List[DeviceStack]):
    """Placement policy and global fair-share sink for a multi-device env."""
    from repro.fleet.placement import placement_registry
    from repro.fleet.policies import global_policy_registry
    from repro.fleet.share import GlobalFairShare

    if isinstance(placement, str):
        placement = _lookup(placement_registry, placement, "placement")
    placement.bind(range(len(stacks)))
    if isinstance(policy, str):
        policy = _lookup(global_policy_registry, policy, "global policy")
    share = None
    if policy is not None and trace.enabled:
        share = GlobalFairShare(policy, trace)
        trace.add_sink(share)
        for stack in stacks:
            share.watch(stack.device_id, stack.scheduler)
    return placement, share


@dataclass(frozen=True)
class WorkloadResult:
    """Per-workload outcome of one simulation run."""

    name: str
    rounds: RoundStats
    killed: bool
    kill_reason: Optional[str]
    mean_request_us: float
    requests_submitted: int
    ground_truth_usage_us: float
    #: Flat per-task metrics snapshot (counters, histogram summaries, and
    #: engaged/disengaged channel time) taken at the end of the run.
    metrics: dict = field(default_factory=dict)

    @property
    def mean_round_us(self) -> float:
        return self.rounds.mean_us


def _move_controller(env: SimulationEnv, moves: Moves):
    """Request planned migrations at their scheduled virtual times."""
    last = 0.0
    for at_us, tenant_name, dst in sorted(moves):
        delay = at_us - last
        if delay > 0:
            yield delay
        last = max(last, at_us)
        tenant = next(
            (t for t in env.tenants if t.name == tenant_name), None
        )
        if tenant is None or env.tenant_device.get(tenant_name) == dst:
            continue
        try:
            env.migrations.request(tenant, dst)
        except ValueError:
            # Target lost, tenant dead, or a move already pending; the
            # scheduled move simply lapses.
            pass


def run_workloads(
    env: SimulationEnv,
    workloads: Sequence[Workload],
    duration_us: float = DEFAULT_DURATION_US,
    warmup_us: float = DEFAULT_WARMUP_US,
    moves: Moves = (),
) -> dict[str, WorkloadResult]:
    """Place and start the workloads, run the clock, summarize.

    A multi-device run (or one that lost its device) adds ``fleet_*``
    keys to each workload's metrics snapshot — current/initial device,
    migration counts, fleet size, devices lost — so farm-cached results
    carry enough to render fleet tables.  ``moves`` schedules planned
    migrations as ``(at_us, tenant, dst_device)`` requests; each commits
    at its source's next engagement boundary.
    """
    for workload in workloads:
        env.place(workload)
    if moves:
        env.sim.spawn(
            _move_controller(env, moves), name="fleet.move-controller"
        )
    env.sim.run(until=duration_us)
    monitor = getattr(env.trace, "monitor", None)
    if monitor is not None:
        # Close the final (possibly partial) streaming window before the
        # per-task metric snapshots below, so windows_closed / slo_*
        # counters cover the whole run.
        monitor.finalize(env.sim.now)
    dropped = getattr(env.trace, "dropped", 0)
    if dropped:
        # Ring-buffer evictions make the trace partial; surface that in
        # the cross-run record when one is being collected.
        from repro.obs.store import active_collector

        collector = active_collector()
        if collector is not None:
            collector.note_trace_dropped(dropped)
    engagement = [
        stack.scheduler.neon.engagement.snapshot(env.sim.now)
        for stack in env.stacks
    ]
    fleet_size = len(env.stacks)
    results = {}
    for workload in workloads:
        final_device = env.tenant_device[workload.name]
        task_metrics = env.metrics.task_view(workload.task.name)
        task_metrics.update(
            engagement[final_device].get(workload.task.name, {})
        )
        history = env.tenant_tasks[workload.name]
        if fleet_size > 1 or env.lost_devices:
            migrations = getattr(workload, "migrations", ())
            task_metrics.update(
                fleet_device=float(final_device),
                fleet_device_initial=float(history[0][0]),
                fleet_moves=float(len(migrations)),
                fleet_loss_moves=float(
                    sum(1 for m in migrations if m.reason == "device_loss")
                ),
                fleet_devices=float(fleet_size),
                fleet_devices_lost=float(len(env.lost_devices)),
            )
        results[workload.name] = WorkloadResult(
            name=workload.name,
            rounds=workload.round_stats(warmup_us, duration_us),
            killed=workload.killed,
            kill_reason=workload.task.kill_reason,
            mean_request_us=workload.mean_request_size(),
            requests_submitted=len(workload.requests),
            ground_truth_usage_us=sum(
                env.stacks[device_id].device.task_usage(task)
                for device_id, task in history
            ),
            metrics=task_metrics,
        )
    return results


def measure(
    scheduler: SchedulerSpec,
    factories: Sequence[WorkloadFactory],
    duration_us: float = DEFAULT_DURATION_US,
    warmup_us: float = DEFAULT_WARMUP_US,
    seed: int = 0,
    costs: Optional[CostParams] = None,
    gpu_params: Optional[GpuParams] = None,
    fault_plan: Optional[FaultPlan] = None,
    devices: int = 1,
    placement: Union[str, PlacementPolicy] = "least-loaded",
    policy: Union[str, GlobalPolicy, None] = "fleet-fair",
    moves: Moves = (),
) -> dict[str, WorkloadResult]:
    """Build a fresh system, run the workload mix, return results.

    Under an active monitor session the simulation shares the monitor's
    live-sink trace recorder and metrics registry, so streaming windows
    see every event regardless of ring-buffer capacity.
    """
    session = active_monitor()
    monitor = session.begin_run() if session is not None else None
    env = build_env(
        scheduler, seed=seed, costs=costs, gpu_params=gpu_params,
        fault_plan=fault_plan, devices=devices, placement=placement,
        policy=policy,
        trace=monitor.trace if monitor is not None else None,
        metrics=monitor.metrics if monitor is not None else None,
    )
    workloads = [factory() for factory in factories]
    try:
        return run_workloads(env, workloads, duration_us, warmup_us, moves)
    finally:
        if monitor is not None:
            session.end_run(monitor)


def solo_baseline(
    factory: WorkloadFactory,
    duration_us: float = DEFAULT_DURATION_US,
    warmup_us: float = DEFAULT_WARMUP_US,
    seed: int = 0,
    costs: Optional[CostParams] = None,
    gpu_params: Optional[GpuParams] = None,
) -> WorkloadResult:
    """Run one workload alone under direct device access."""
    results = measure(
        "direct", [factory], duration_us, warmup_us, seed, costs, gpu_params
    )
    return next(iter(results.values()))


@dataclass(frozen=True)
class SeedSweepStats:
    """Mean and spread of a metric across seeds."""

    metric: str
    seeds: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def relative_spread(self) -> float:
        """(max - min) / mean; how seed-sensitive the result is."""
        if self.mean == 0:
            return float("nan")
        return (self.maximum - self.minimum) / self.mean


def sweep_seeds(
    metric_fn: Callable[[int], float],
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    metric: str = "metric",
) -> SeedSweepStats:
    """Evaluate ``metric_fn(seed)`` across seeds and summarize the spread.

    Every simulation is deterministic per seed, so this is the honest way
    to put error bars on a reported number.
    """
    values = [metric_fn(seed) for seed in seeds]
    count = len(values)
    mean = sum(values) / count
    variance = sum((value - mean) ** 2 for value in values) / count
    return SeedSweepStats(
        metric=metric,
        seeds=count,
        mean=mean,
        std=variance**0.5,
        minimum=min(values),
        maximum=max(values),
    )
