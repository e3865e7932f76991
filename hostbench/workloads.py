"""The benchmark's four workloads: cell lists, cell execution, output checks.

Each workload's inputs are a paper figure's own cell list at the
figure's default horizons, built at the benchmark's seed.  A workload
runs one cell at a time (closed loop, one process, no result cache) and
returns a :class:`CellOutcome`; the harness times each call.

=============  ==============================================  ==========
workload       cells                                           entry
=============  ==============================================  ==========
solo-grid      Figure 4: 18 apps x {direct, TS, DTS, DFQ}      CellSpec.run
pair-grid      Figure 6: 4 apps x 4 Throttle sizes x 4 scheds  CellSpec.run
observed-live  Figure 8 cells under a live MonitorSession      CellSpec.run
trace-replay   Figure 8 scheduled cells, recorded + replayed   build_env +
                                                               run_workloads
=============  ==============================================  ==========

``trace-replay`` cannot go through ``CellSpec.run``: that entry point
builds its environment with the null recorder, and this workload needs a
retaining :class:`TraceRecorder`.  It calls the two runner functions
``CellSpec.run`` itself calls, with the cell's own fields.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.analysis.reference import PAPER
from repro.experiments import figure4, figure6, figure7, figure8, runner
from repro.experiments.cells import CellSpec
from repro.experiments.parallel import ResultCache, result_to_jsonable
from repro.obs import export, overhead, spans, summary, why, windows
from repro.obs.monitor import Monitor, MonitorSession, monitoring
from repro.obs.slo import SloRule
from repro.sim.trace import TraceRecorder
from repro.workloads.profiles import APP_PROFILES

#: Streaming windows of the monitored and replayed runs: tumbling 10 ms.
WINDOW = windows.WindowConfig(window_us=10_000.0)
#: The live monitor's rules: one tail-latency and one fairness rule.
RULES = (
    SloRule("p99-ceiling", "tail_latency", 5_000.0),
    SloRule("jain-floor", "fairness_floor", 0.9),
)


def _default(fn: Callable, parameter: str) -> Any:
    return inspect.signature(fn).parameters[parameter].default


@dataclass
class CellOutcome:
    """What one cell produced."""

    #: Per-workload results, as ``CellSpec.run`` returns them.
    results: dict
    #: Simulated requests submitted by every tenant of the cell.
    requests: int
    #: Canonical JSON of every output the cell produced; two runs of one
    #: cell must produce the same digest.
    digest: str
    #: Per-cell tallies the traced run reports (records, bytes, windows).
    extras: dict = field(default_factory=dict)
    #: The workload's own output checks, run after the cell is timed;
    #: returns the problems found.
    checks: Optional[Callable[[], list]] = None


def results_json(results: dict) -> dict:
    return {
        name: result_to_jsonable(result)
        for name, result in sorted(results.items())
    }


def check_results(spec: CellSpec, results: dict) -> list[str]:
    """The seed-independent checks every cell's results must pass."""
    problems = []
    for name, result in sorted(results.items()):
        rounds = result.rounds
        if result.requests_submitted <= 0:
            problems.append(f"{name}: submitted no requests")
        if result.killed:
            problems.append(f"{name}: killed ({result.kill_reason})")
        stats = (rounds.mean_us, rounds.median_us, rounds.p95_us)
        if rounds.count <= 0 or not all(map(math.isfinite, stats)):
            problems.append(f"{name}: round stats not finite: {rounds}")
        if not 0.0 <= result.ground_truth_usage_us <= spec.duration_us:
            problems.append(
                f"{name}: usage {result.ground_truth_usage_us} us outside "
                f"the {spec.duration_us} us horizon"
            )
    return problems


def golden_section(golden: str, name: str) -> str:
    """The body of ``== name ==`` in the committed experiment output."""
    lines = golden.splitlines()
    start = lines.index(f"== {name} ==") + 1
    end = next(
        (i for i in range(start, len(lines)) if lines[i].startswith("== ")),
        len(lines),
    )
    return "\n".join(lines[start:end]).rstrip("\n")


def compare_golden(name: str, table: str, golden: str) -> list[str]:
    expected = golden_section(golden, name).splitlines()
    actual = table.rstrip("\n").splitlines()
    if actual == expected:
        return []
    for number, (want, got) in enumerate(zip(expected, actual), start=1):
        if want != got:
            return [f"{name} line {number}: expected {want!r}, got {got!r}"]
    return [f"{name}: {len(actual)} lines, expected {len(expected)}"]


def _from_cache(fn: Callable, specs: list[CellSpec],
                outcomes: list[CellOutcome], **kwargs: Any) -> Any:
    """Call a figure's ``run``/``main`` on the pass's own results."""
    cache = ResultCache()
    for spec, outcome in zip(specs, outcomes):
        cache.put(spec.content_key(), outcome.results)
    with contextlib.redirect_stdout(io.StringIO()):
        value = fn(cache=cache, **kwargs)
    if cache.misses:
        raise RuntimeError(f"{fn.__module__} needed cells the pass did not run")
    return value


class Workload:
    """A named cell list plus how to run and check it."""

    name = ""

    def cells(self, seed: int) -> list[CellSpec]:
        raise NotImplementedError

    def run_cell(self, spec: CellSpec, scratch: Path) -> CellOutcome:
        results = spec.run()
        return CellOutcome(
            results=results,
            requests=sum(r.requests_submitted for r in results.values()),
            digest=json.dumps(results_json(results), sort_keys=True),
        )

    def check_pass(self, seed: int, specs: list[CellSpec],
                   outcomes: list[CellOutcome], golden: str) -> list[str]:
        """Checks over a whole pass (golden tables at seed 0)."""
        return []

    def claims(self, seed: int, specs: list[CellSpec],
               outcomes: list[CellOutcome]) -> dict[str, float]:
        """Measured values of the ``analysis.reference`` claims."""
        return {}


class SoloGrid(Workload):
    name = "solo-grid"

    def cells(self, seed: int) -> list[CellSpec]:
        return figure4.cell_specs(
            _default(figure4.run, "duration_us"),
            _default(figure4.run, "warmup_us"),
            seed, sorted(APP_PROFILES), figure4.SCHEDULERS,
        )

    def check_pass(self, seed, specs, outcomes, golden):
        if seed != 0:
            return []
        table = _from_cache(figure4.main, specs, outcomes, seed=seed)
        return compare_golden("figure4", table, golden)

    def claims(self, seed, specs, outcomes):
        rows = _from_cache(figure4.run, specs, outcomes, seed=seed)
        return {
            "fig4_dts_max_overhead": max(
                row.slowdowns["disengaged-timeslice"] for row in rows),
            "fig4_dfq_max_overhead": max(row.slowdowns["dfq"] for row in rows),
        }


class PairGrid(Workload):
    name = "pair-grid"

    def cells(self, seed: int) -> list[CellSpec]:
        return figure6.cell_specs(seed=seed)

    def check_pass(self, seed, specs, outcomes, golden):
        if seed != 0:
            return []
        problems = []
        for name, main in (("figure6", figure6.main), ("figure7", figure7.main)):
            table = _from_cache(main, specs, outcomes, seed=seed)
            problems.extend(compare_golden(name, table, golden))
        return problems

    def claims(self, seed, specs, outcomes):
        pairs, summaries = _from_cache(figure7.run, specs, outcomes, seed=seed)
        dfq = next(s for s in summaries if s.scheduler == "dfq")

        def pair(app: str, size: float, scheduler: str) -> figure6.PairOutcome:
            return next(
                o for o in pairs
                if (o.app, o.throttle_size_us, o.scheduler) == (app, size, scheduler)
            )

        fair = [
            slowdown
            for o in pairs
            if o.app in ("DCT", "FFT") and o.scheduler != "direct"
            for slowdown in (o.app_slowdown, o.throttle_slowdown)
        ]
        gears = pair("glxgears", min(figure6.THROTTLE_SIZES_US), "dfq")
        return {
            "fig6_fair_pair_slowdown": sum(fair) / len(fair),
            "fig6_direct_dct_large_throttle": pair(
                "DCT", max(figure6.THROTTLE_SIZES_US), "direct").app_slowdown,
            "fig7_dfq_mean_loss": dfq.mean_loss_vs_direct,
            "fig7_dfq_max_loss": dfq.max_loss_vs_direct,
            "gears_anomaly_disparity": gears.app_slowdown / gears.throttle_slowdown,
        }


def figure8_cells(seed: int) -> list[CellSpec]:
    return figure8.cell_specs(
        _default(figure8.run, "duration_us"),
        _default(figure8.run, "warmup_us"),
        seed, figure8.SCHEDULERS,
    )[1]


def check_span_sums(span_set: spans.SpanSet) -> list[str]:
    """Each span's components must sum exactly to its duration."""
    for span in span_set.spans:
        segments = sum(seg.duration_us for seg in span.segments)
        total = sum(span.components.values())
        length = span.segments[-1].end_us - span.segments[0].start_us \
            if span.segments else 0
        if not total == segments == length:
            return [f"span {span.span_id} of {span.task}: components {total} "
                    f"us, segments {segments} us, extent {length} us"]
    return []


class _SpanSession(MonitorSession):
    """A monitor session that also feeds each run's stream to a live
    :class:`SpanBuilder`."""

    def begin_run(self, label: Optional[str] = None) -> Monitor:
        monitor = super().begin_run(label)
        self.builder = spans.SpanBuilder()
        monitor.trace.add_sink(self.builder)
        return monitor


class ObservedLive(Workload):
    name = "observed-live"

    def cells(self, seed: int) -> list[CellSpec]:
        return figure8_cells(seed)

    def run_cell(self, spec, scratch):
        session = _SpanSession(WINDOW, RULES)
        with monitoring(session):
            results = spec.run()
        (monitor,) = session.monitors
        span_set = session.builder.finish(spec.duration_us)
        blame = span_set.blame_matrix()
        worst = why.worst_window(span_set, WINDOW.window_us)
        attribution = (
            why.attribute_window(span_set, worst[0], worst[1], worst[2])
            if worst is not None else None
        )
        if attribution is not None and attribution["critical_span"]:
            # Channel ids come from a process-global counter, so they
            # depend on how many cells this process has already run.
            attribution["critical_span"].pop("channel")
        observed = {
            "windows_closed": monitor.aggregator.windows_closed,
            "violations": monitor.violations,
            "recoveries": monitor.recoveries,
            "spans": len(span_set.spans),
        }
        digest = {
            "results": results_json(results), "observed": observed,
            "blame": blame, "worst": worst, "attribution": attribution,
        }
        return CellOutcome(
            results=results,
            requests=sum(r.requests_submitted for r in results.values()),
            digest=json.dumps(digest, sort_keys=True),
            extras={"windows_closed": observed["windows_closed"]},
            checks=lambda: check_span_sums(span_set),
        )

    def check_pass(self, seed, specs, outcomes, golden):
        if seed != 0:
            return []
        table = _from_cache(figure8.main, specs, outcomes, seed=seed)
        return compare_golden("figure8", table, golden)


class TraceReplay(Workload):
    name = "trace-replay"

    def cells(self, seed: int) -> list[CellSpec]:
        return [spec for spec in figure8_cells(seed) if len(spec.workloads) > 1]

    def run_cell(self, spec, scratch):
        recorder = TraceRecorder()
        env = runner.build_env(
            spec.scheduler, seed=spec.seed, costs=spec.costs,
            gpu_params=spec.gpu_params, trace=recorder,
        )
        results = runner.run_workloads(
            env, [workload.build() for workload in spec.workloads],
            spec.duration_us, spec.warmup_us,
        )
        end = env.sim.now
        path = scratch / "trace.jsonl"
        written = export.save_trace(recorder, str(path))
        trace_bytes = path.stat().st_size
        loaded = export.load_trace(str(path))
        path.unlink()
        digest_summary = summary.summarize(loaded, end_us=end)
        span_set = spans.build_spans(loaded, end)
        snapshots = windows.aggregate_trace(loaded.records(), WINDOW, end_us=end)
        breakdown = overhead.overhead_breakdown(loaded, end_us=end)
        worst = why.worst_window(span_set, WINDOW.window_us)
        recorded = len(recorder)
        read_back = len(loaded)
        live = getattr(env.scheduler, "time_breakdown", None)

        def checks() -> list[str]:
            problems = check_span_sums(span_set)
            if not written == recorded == read_back:
                problems.append(f"wrote {written} of {recorded} records, "
                                f"read back {read_back}")
            if live is not None and breakdown != live:
                problems.append(f"replayed breakdown {breakdown} != live {live}")
            return problems

        digest = {
            "results": results_json(results),
            "records": written,
            "kinds": digest_summary.kind_counts,
            "tasks": sorted(digest_summary.tasks),
            "breakdown": breakdown,
            "spans": len(span_set.spans),
            "windows": len(snapshots),
            "worst": worst,
        }
        return CellOutcome(
            results=results,
            requests=sum(r.requests_submitted for r in results.values()),
            digest=json.dumps(digest, sort_keys=True),
            extras={"records": written, "trace_bytes": trace_bytes,
                    "windows_closed": len(snapshots)},
            checks=checks,
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (SoloGrid(), PairGrid(), ObservedLive(), TraceReplay())
}


def claims_met(measured: dict[str, float]) -> int:
    return sum(PAPER[key].accepts(value) for key, value in measured.items())
