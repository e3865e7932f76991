"""Timing loop, set-up probe and metric assembly.

Untraced run (``--trace 0``): pass after pass over the workload's cells,
one cell at a time, until ``seconds`` have passed and at least one whole
pass is done.  Each cell's host time is the CPU time of the benchmark
process, minimum over the passes that reached it: noise only ever adds
time.  ``req_per_s`` is the pass's simulated requests over the sum of
those minima, in calibrated seconds.

Calibrated seconds.  On a shared host the speed of the same Python code
drifts by 25 % and more within minutes, as neighbours load the machine.
Between cells (and before every set-up probe) a :class:`Calibration`
times fixed work that runs no code of the program, for about
``CALIBRATION_SHARE`` of the time the cells take.  Measured seconds are
scaled by ``REFERENCE_CAL_S`` over the mean sample time: a calibrated
second is what the host would have taken at the speed it had when
``REFERENCE_CAL_S`` was measured.

Traced run (``--trace 1``): one untraced pass, then one pass with the
:class:`~hostbench.layers.Tracer` installed.  The traced pass must
reproduce the untraced pass's outputs exactly; its counts are divided by
the pass's simulated requests.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from hostbench.layers import (
    BUILD_SPANS, FOLD_SPANS, LAYERS, READ_SPANS, WRITE_SPANS, Tracer,
)
from hostbench.workloads import Workload, check_results, claims_met

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5

#: Scale of calibrated seconds: the CPU seconds one
#: :meth:`Calibration.sample` took on the development host (Intel Xeon,
#: 2 vCPUs, Python 3.11).
REFERENCE_CAL_S = 0.016

#: Calibration time per second of cell time, so that the samples cover
#: the run evenly whatever the cells' lengths.
CALIBRATION_SHARE = 0.05

#: Run in a fresh interpreter by the set-up probe.
SETUP_CODE = """\
import sys
sys.path[:0] = [{src!r}, {root!r}]
import repro
from repro.experiments import runner
from hostbench.workloads import WORKLOADS
spec = WORKLOADS[{workload!r}].cells({seed!r})[0]
env = runner.build_env(spec.scheduler, seed=spec.seed, costs=spec.costs,
                       gpu_params=spec.gpu_params)
workloads = [workload.build() for workload in spec.workloads]
"""


def _noop(*_args) -> None:
    pass


def _accumulate():
    total = 0
    while True:
        total += yield total


class Calibration:
    """Follows the host's speed by timing fixed work that runs no code of
    the program.

    One sample is an interpreter loop (heap pushes and pops of tuples,
    dict updates, generator sends and calls: core-bound, like the
    simulator's event loop) and a walk of ``WALK_STEP`` floats through a
    shuffled table of ``TABLE_SIZE`` (memory-bound, like the trace codecs
    and the obs folds; about 17 MiB resident, counted in ``peak_rss_mb``
    alike on every commit).  The workloads mix both kinds of work, and the
    host's neighbours slow the two by different amounts.
    """

    LOOP_STEPS = 10_000
    TABLE_SIZE = 400_000
    WALK_STEP = 100_000

    def __init__(self) -> None:
        self.table = [index * 0.5 for index in range(self.TABLE_SIZE)]
        random.Random(0).shuffle(self.table)
        self.position = 0
        #: CPU seconds of each sample.
        self.samples: list[float] = []
        self._owed = 0.0

    def sample(self) -> float:
        began = time.process_time()
        heap: list = []
        counts: dict = {}
        accumulator = _accumulate()
        next(accumulator)
        for step in range(self.LOOP_STEPS):
            heapq.heappush(heap, ((step * 7919) % 1009 * 0.5, step, None,
                                  _noop, (step,)))
            key = step & 127
            counts[key] = counts.get(key, 0) + 1
            accumulator.send(1)
            if len(heap) > 48:
                entry = heapq.heappop(heap)
                entry[3](*entry[4])
        stop = self.position + self.WALK_STEP
        total = 0.0
        for value in self.table[self.position:stop]:
            total += value
        self.position = stop % self.TABLE_SIZE
        elapsed = time.process_time() - began
        self.samples.append(elapsed)
        return elapsed

    def after(self, busy_s: float) -> None:
        """Sample for ``CALIBRATION_SHARE`` of ``busy_s`` seconds, carrying
        any remainder over to the next call."""
        self._owed += CALIBRATION_SHARE * busy_s
        while self._owed > 0.0 or not self.samples:
            self._owed -= self.sample()

    def speed(self) -> float:
        """Calibrated seconds per CPU second."""
        return REFERENCE_CAL_S / statistics.fmean(self.samples)


@dataclass
class Pass:
    """Outcomes of one or more passes over a workload's cells."""

    #: First outcome of each cell, in cell order (None if it raised).
    outcomes: list
    #: Each cell's minimum CPU seconds over the passes that reached it.
    best_s: list
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return all(outcome is not None for outcome in self.outcomes)

    @property
    def requests(self) -> int:
        return sum(outcome.requests for outcome in self.outcomes)


def run_passes(workload: Workload, specs: list, scratch: Path,
               seconds: float, calibration: Calibration,
               tracer: Optional[Tracer] = None) -> Pass:
    """Run whole passes (the first always completes) until ``seconds``."""
    count = len(specs)
    result = Pass(outcomes=[None] * count, best_s=[math.inf] * count)
    start = time.perf_counter()
    index = 0
    elapsed = 0.0
    while index < count or time.perf_counter() - start < seconds:
        cell = index % count
        index += 1
        spec = specs[cell]
        result.attempted += 1
        gc.collect()
        calibration.after(elapsed)
        began = time.process_time()
        try:
            if tracer is None:
                outcome = workload.run_cell(spec, scratch)
            else:
                outcome = tracer.spanned(
                    "hostbench", f"cell {workload.name}", workload.run_cell
                )(spec, scratch)
        except Exception:
            result.failed += 1
            result.problems.append(f"{spec.label()} raised")
            traceback.print_exc(file=sys.stderr)
            continue
        elapsed = time.process_time() - began
        problems = check_results(spec, outcome.results)
        if outcome.checks is not None:
            problems += outcome.checks()
            outcome.checks = None
        first = result.outcomes[cell]
        if first is not None and first.digest != outcome.digest:
            problems.append("output differs from the cell's first run")
        if problems:
            result.failed += 1
            result.problems.extend(f"{spec.label()}: {p}" for p in problems)
        result.best_s[cell] = min(result.best_s[cell], elapsed)
        if first is None:
            result.outcomes[cell] = outcome
    return result


def probe_setup(root: Path, workload: str, seed: int,
                calibration: Calibration) -> float:
    """Minimum wall seconds of a fresh interpreter that imports ``repro``
    and builds the workload's first cell's environment and workloads.
    Wall, not CPU time: importing numpy starts threads whose CPU time is
    spinning, not set-up."""
    code = SETUP_CODE.format(src=str(root / "src"), root=str(root),
                             workload=workload, seed=seed)
    samples: list = []
    for _ in range(SETUP_PROBES):
        calibration.after(samples[-1] if samples else 0.0)
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=root)
        samples.append(time.perf_counter() - began)
    return min(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_checks(workload: Workload, seed: int, specs: list, measured: Pass,
                golden: str) -> tuple[list[str], dict[str, float]]:
    """Whole-pass checks; a failure counts every cell of the pass."""
    if not measured.complete:
        return ["pass incomplete: golden tables and claims not checked"], {}
    problems = list(workload.check_pass(seed, specs, measured.outcomes, golden))
    claims = workload.claims(seed, specs, measured.outcomes)
    if seed == 0:
        problems.extend(
            f"claim {key} out of band at seed 0: {value}"
            for key, value in claims.items()
            if claims_met({key: value}) == 0
        )
    return problems, claims


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_metrics(measured: Pass, setup_wall_s: float,
                     calibration: Calibration) -> dict:
    """The end-to-end metrics, in calibrated seconds."""
    host = calibration.speed()
    raw_req_per_s = measured.requests / sum(measured.best_s)
    print(f"hostbench: {raw_req_per_s:.0f} req per CPU second, host speed "
          f"{host:.3f} of reference", file=sys.stderr)
    return {
        "req_per_s": _metric(raw_req_per_s / host, "req/s"),
        "setup_s": _metric(setup_wall_s * host, "s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MiB"),
    }


def traced_metrics(tracer: Tracer, untraced: Pass, traced: Pass,
                   claims: dict[str, float]) -> dict:
    """The per-layer metrics of one traced pass."""
    requests = traced.requests
    counts = tracer.counts
    envs = tracer.envs
    first_extras = [outcome.extras for outcome in untraced.outcomes]

    def per_req(key: str) -> dict:
        return _metric(counts[key] / requests, "1/req")

    def share(part: float, whole: float) -> dict:
        return _metric(part / whole if whole else 0.0, "share")

    def counter_total(name: str) -> int:
        return int(sum(
            sum(env.metrics.snapshot()["counters"].get(name, {}).values())
            for env in envs
        ))

    busy = sum(env.device.total_busy_us for env in envs)
    capacity = sum(env.sim.now * len(env.device.engines) for env in envs)
    records = sum(extras.get("records", 0) for extras in first_extras)
    trace_bytes = sum(extras.get("trace_bytes", 0) for extras in first_extras)
    metrics = {
        "sim.timed_push_per_req": per_req("sim.timed_push"),
        "sim.now_push_per_req": per_req("sim.now_push"),
        "sim.trigger_per_req": per_req("sim.trigger"),
        "sim.resume_per_req": per_req("sim.resume"),
        "sim.cancel_frac": share(counts["sim.cancel"], counts["sim.schedule"]),
        "gpu.submit_calls_per_req": per_req("gpu.submit_calls"),
        "gpu.notify_per_req": per_req("gpu.notify"),
        "gpu.abort_preempt_per_req": per_req("gpu.abort_preempt"),
        "gpu.sim_busy_frac": share(busy, capacity),
        "workloads.resume_per_req": per_req("workloads.resume"),
        "osmodel.submit_calls_per_req": per_req("osmodel.submit_calls"),
        "osmodel.faults_per_req": _metric(
            sum(env.kernel.fault_count for env in envs) / requests, "1/req"),
        "osmodel.poll_pass_per_req": per_req("osmodel.poll_pass"),
        "neon.flips_per_req": per_req("neon.flips"),
        "neon.drains_per_req": per_req("neon.drains"),
        "neon.drain_timeout_frac": share(
            counts["neon.drain_timeouts"], counts["neon.drains"]),
        "neon.scan_per_req": per_req("neon.scans"),
        "core.hook_calls_per_req": per_req("core.hook_calls"),
        "core.episodes": _metric(counter_total("episodes"), "count"),
        "core.denials": _metric(counter_total("denials"), "count"),
        "core.token_passes": _metric(counter_total("token_passes"), "count"),
        "obs.emit_per_req": per_req("obs.emit"),
        "obs.sink_calls_per_req": per_req("obs.sink_calls"),
        "obs.spans_per_req": per_req("obs.spans"),
        "obs.windows_closed": _metric(sum(
            outcome.extras.get("windows_closed", 0)
            for outcome in traced.outcomes), "count"),
        "obs.write_s": _metric(tracer.inclusive_s(WRITE_SPANS), "s"),
        "obs.read_s": _metric(tracer.inclusive_s(READ_SPANS), "s"),
        "obs.fold_s": _metric(tracer.inclusive_s(FOLD_SPANS), "s"),
        "obs.bytes_per_record": _metric(
            trace_bytes / records if records else 0.0, "B/record"),
        "obs.trace_mb": _metric(trace_bytes / 2**20, "MiB"),
        "experiments.build_s": _metric(tracer.inclusive_s(BUILD_SPANS), "s"),
        "experiments.collect_s": _metric(
            tracer.span_self_s("experiments:run_workloads"), "s"),
        "analysis.paper_claims_met": _metric(claims_met(claims), "count"),
        "trace_overhead_x": _metric(
            sum(traced.best_s) / sum(untraced.best_s), "x"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _metric(tracer.self_s[layer], "s")
    return metrics


def write_spans(path: Path, tracer: Tracer) -> None:
    """Write the traced pass's folded spans (call-tree edges) as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(tracer.edge_table(), indent=1) + "\n")


def report(correct: bool, attempted: int, failed: int, metrics: dict,
           problems: Optional[list] = None) -> dict:
    """The result line's object; each problem goes to stderr."""
    for problem in problems or ():
        print(f"hostbench: {problem}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def untraced(root: Path, workload: Workload, specs: list, seed: int,
             seconds: float, scratch: Path, golden: str) -> dict:
    """One untraced run: set-up probes, timed passes, checks."""
    calibration = Calibration()
    setup_wall_s = probe_setup(root, workload.name, seed, calibration)
    measured = run_passes(workload, specs, scratch, seconds, calibration)
    problems, _claims = pass_checks(workload, seed, specs, measured, golden)
    failed = measured.failed + (len(specs) if problems else 0)
    return report(
        correct=failed == 0,
        attempted=measured.attempted,
        failed=min(failed, measured.attempted),
        metrics=untraced_metrics(measured, setup_wall_s, calibration),
        problems=measured.problems + problems,
    )


def traced(root: Path, workload: Workload, specs: list, seed: int,
           scratch: Path, golden: str) -> dict:
    """One traced run: an untraced pass, then a traced pass; the spans go
    to ``.hostbench-out/`` under ``root``."""
    calibration = Calibration()
    plain = run_passes(workload, specs, scratch, 0.0, calibration)
    problems, claims = pass_checks(workload, seed, specs, plain, golden)
    tracer = Tracer()
    with tracer:
        observed = run_passes(workload, specs, scratch, 0.0, calibration,
                              tracer)
    for spec, before, after in zip(specs, plain.outcomes, observed.outcomes):
        if before is not None and after is not None \
                and before.digest != after.digest:
            problems.append(f"{spec.label()}: traced output differs")
    write_spans(
        root / ".hostbench-out" / f"spans-{workload.name}-seed{seed}.json",
        tracer,
    )
    attempted = plain.attempted + observed.attempted
    failed = plain.failed + observed.failed + (len(specs) if problems else 0)
    complete = plain.complete and observed.complete
    return report(
        correct=failed == 0,
        attempted=attempted,
        failed=min(failed, attempted),
        metrics=(traced_metrics(tracer, plain, observed, claims)
                 if complete else {}),
        problems=plain.problems + observed.problems + problems,
    )
