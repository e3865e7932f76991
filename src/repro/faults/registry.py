"""The typed injection-point registry.

Every place the fault injector can perturb the simulated stack is a
*point* registered here, with the layer that hosts it and the
:class:`~repro.faults.plan.FaultSpec` knobs it honors.  Injection sites
reference the module-level constants (``registry.GPU_REQUEST_HANG``,
never the string ``"gpu.request_hang"``); neonlint rule NEON403 rejects
literal point names and NEON404 rejects constants this registry does not
know, so — exactly like the trace event-kind registry — the catalog
below is the single source of truth for where faults can strike.

The registry is deliberately flat and import-free so the fault-plan
validator, the docs, and the static analyzer can all read it without
touching the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class InjectionPointSpec:
    """One registered injection point."""

    point: str
    #: Layer that hosts it: "gpu", "kernel", "neon", or "fleet".
    layer: str
    description: str
    #: FaultSpec knobs the site honors ("magnitude_us" and/or "factor").
    knobs: tuple[str, ...] = ()


#: point string -> spec.  Populated by :func:`register_injection_point`.
INJECTION_POINTS: dict[str, InjectionPointSpec] = {}


def register_injection_point(
    point: str, layer: str, description: str, knobs: tuple[str, ...] = ()
) -> str:
    """Register a point; returns the point string (assign it to a constant)."""
    if point in INJECTION_POINTS:
        raise ValueError(f"injection point {point!r} registered twice")
    if layer not in ("gpu", "kernel", "neon", "fleet"):
        raise ValueError(f"unknown layer {layer!r} for injection point {point!r}")
    INJECTION_POINTS[point] = InjectionPointSpec(point, layer, description, knobs)
    return point


def registered_points() -> tuple[str, ...]:
    """All registered point strings, sorted."""
    return tuple(sorted(INJECTION_POINTS))


def constant_names() -> frozenset[str]:
    """Names of the module-level constants holding registered points.

    This is what neonlint's NEON404 checks injection sites against:
    ``faults.arm(registry.GPU_REQUEST_HANG, ...)`` passes because
    ``GPU_REQUEST_HANG`` is listed here; a constant defined elsewhere
    does not.
    """
    module = globals()
    return frozenset(
        name
        for name, value in module.items()
        if name.isupper()
        and isinstance(value, str)
        and value in INJECTION_POINTS
    )


# ----------------------------------------------------------------------
# GPU engine/device (repro.gpu.engine, repro.gpu.device)
# ----------------------------------------------------------------------
GPU_REQUEST_HANG = register_injection_point(
    "gpu.request_hang", "gpu",
    "a request never completes once started (hardware hang / driver bug)",
)
GPU_REQUEST_SLOWDOWN = register_injection_point(
    "gpu.request_slowdown", "gpu",
    "a request's service time is multiplied by `factor` (thermal "
    "throttling, ECC scrubbing, pathological memory traffic)",
    ("factor",),
)
GPU_SPURIOUS_COMPLETION = register_injection_point(
    "gpu.spurious_completion", "gpu",
    "the channel's reference counter reports completion for work still "
    "in flight (counter written early / out of order)",
)
GPU_REFCOUNTER_STALL = register_injection_point(
    "gpu.refcounter_stall", "gpu",
    "the reference-counter write (and completion visibility) for a "
    "retired request lags the hardware by `magnitude_us`",
    ("magnitude_us",),
)
GPU_CONTEXT_SWITCH_SPIKE = register_injection_point(
    "gpu.context_switch_spike", "gpu",
    "one context/channel switch costs an extra `magnitude_us`",
    ("magnitude_us",),
)

# ----------------------------------------------------------------------
# Kernel / OS model (repro.osmodel.kernel, repro.osmodel.polling)
# ----------------------------------------------------------------------
KERNEL_FAULT_DELAY = register_injection_point(
    "kernel.fault_delay", "kernel",
    "a protected-page fault's delivery to the handler is delayed by "
    "`magnitude_us` (IRQ pressure, scheduling latency)",
    ("magnitude_us",),
)
KERNEL_FAULT_DROP = register_injection_point(
    "kernel.fault_drop", "kernel",
    "a trap is lost and the faulting store re-executes: an extra trap "
    "cost plus a `magnitude_us` retry delay",
    ("magnitude_us",),
)
KERNEL_POLL_STALL = register_injection_point(
    "kernel.poll_stall", "kernel",
    "one polling pass runs `magnitude_us` late (the poll thread was "
    "preempted or stuck on a lock)",
    ("magnitude_us",),
)
KERNEL_SUBMIT_LATENCY = register_injection_point(
    "kernel.submit_latency", "kernel",
    "the submission path charges an extra `magnitude_us` before the "
    "doorbell write lands",
    ("magnitude_us",),
)

# ----------------------------------------------------------------------
# NEON interception (repro.neon.interception, repro.osmodel.kernel setup)
# ----------------------------------------------------------------------
NEON_BARRIER_STALL = register_injection_point(
    "neon.barrier_stall", "neon",
    "an engagement barrier's page flips cost an extra `magnitude_us` "
    "(TLB shootdown storm)",
    ("magnitude_us",),
)
NEON_STALE_SCAN = register_injection_point(
    "neon.stale_scan", "neon",
    "a ring-buffer scan returns the previous scan's stale reference "
    "number instead of the current one",
)
NEON_DISCOVERY_CORRUPTION = register_injection_point(
    "neon.discovery_corruption", "neon",
    "channel discovery fails at setup; the kernel retries it after "
    "`magnitude_us`, leaving the channel untracked until then",
    ("magnitude_us",),
)

# ----------------------------------------------------------------------
# Fleet device loss (repro.experiments.runner)
# ----------------------------------------------------------------------
FLEET_DEVICE_LOSS = register_injection_point(
    "fleet.device_loss", "fleet",
    "a whole device drops off the fleet: every context on it is torn "
    "down and its tenants migrate to a survivor or are escalated; "
    "`target_task` selects the device as 'device<N>'",
)
