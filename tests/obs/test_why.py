"""``repro why``: window selection, attribution, report mode, compare."""

import json
import math
import random

import pytest

from repro.cli import main as repro_main
from repro.obs.monitor import main as monitor_main
from repro.obs.spans import Span, SpanSet
from repro.obs.why import _quantile, _span_latency, blame_line, worst_window
from repro.obs.why import main as why_main

#: Deliberately overloaded figure4-style tenant: glxgears contending
#: with three BitonicSort instances under DFQ (the acceptance scenario).
OVERLOAD_ARGS = [
    "--scheduler", "dfq",
    "--apps", "glxgears,BitonicSort,BitonicSort,BitonicSort",
    "--duration-ms", "120",
]


@pytest.fixture(scope="module")
def monitored(tmp_path_factory):
    """One monitored overload run: (trace.jsonl, report.json)."""
    root = tmp_path_factory.mktemp("why")
    trace = root / "trace.jsonl"
    report = root / "report.json"
    monitor_main([
        "run", *OVERLOAD_ARGS, "--slo-p99-us", "400", "--quiet",
        "--report", str(report), "--trace-out", str(trace),
    ])
    return trace, report


def test_inline_attribution_emits_blame_line(capsys):
    assert why_main([*OVERLOAD_ARGS, "--task", "glxgears"]) == 0
    out = capsys.readouterr().out
    assert "decomposition:" in out
    assert "dominant:" in out
    assert "top interfering tenants:" in out
    lines = out.strip().splitlines()
    assert lines[-1].startswith("WHY dominant=")
    assert "task=glxgears" in lines[-1]


def test_overloaded_tenant_blames_queue_wait_on_interferers(monitored, capsys):
    """The acceptance scenario: >=80% of the violated p99 window goes to
    scheduler queue-wait, blamed on a BitonicSort instance."""
    trace, report = monitored
    assert why_main(
        [str(trace), "--report", str(report), "--task", "glxgears", "--json"]
    ) == 0
    attribution = json.loads(capsys.readouterr().out)
    assert attribution["dominant"] == "queue"
    assert attribution["dominant_share_pct"] >= 80.0
    assert attribution["interference"][0]["task"].startswith("BitonicSort")


def test_report_mode_without_task_uses_first_violation(monitored, capsys):
    trace, report = monitored
    assert why_main([str(trace), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "attributing SLO violation rule=p99-ceiling" in out
    assert out.strip().splitlines()[-1].startswith("WHY dominant=")


def test_report_without_violation_exits_2(monitored, tmp_path, capsys):
    trace, _report = monitored
    empty = tmp_path / "empty-report.json"
    empty.write_text(json.dumps({"slo_events": [], "runs": []}))
    assert why_main([str(trace), "--report", str(empty)]) == 2
    assert "no fired SLO violation" in capsys.readouterr().err


def test_json_mode_is_machine_readable(capsys):
    assert why_main([*OVERLOAD_ARGS, "--task", "glxgears", "--json"]) == 0
    attribution = json.loads(capsys.readouterr().out)
    for key in ("task", "window", "components", "dominant",
                "dominant_share_pct", "interference", "critical_span"):
        assert key in attribution
    assert attribution["total_us"] == sum(attribution["components"].values())


def test_attribution_is_deterministic(capsys):
    why_main([*OVERLOAD_ARGS, "--task", "glxgears"])
    first = capsys.readouterr().out
    why_main([*OVERLOAD_ARGS, "--task", "glxgears"])
    assert capsys.readouterr().out == first


def test_blame_line_shape():
    line = blame_line({
        "window": [10_000.0, 20_000.0],
        "dominant": "queue",
        "dominant_share_pct": 87.6,
        "task": "glxgears",
        "interference": [{"task": "BitonicSort.2", "overlap_us": 1493}],
    })
    assert line == (
        "WHY dominant=queue share=87.6% task=glxgears "
        "window=10000-20000us top=BitonicSort.2"
    )


def test_top_level_cli_delegates(capsys):
    assert repro_main([
        "why", "--scheduler", "dfq", "--apps", "glxgears,BitonicSort",
        "--duration-ms", "40",
    ]) == 0
    assert "WHY dominant=" in capsys.readouterr().out


# ----------------------------------------------------------------------
# worst_window vs a brute-force per-window scan
# ----------------------------------------------------------------------

def _brute_force_worst_window(span_set, window_us, task=None, device=None):
    """Reference: one ``select`` per window, in window order."""
    worst = None
    windows = max(1, math.ceil(span_set.end_us / window_us))
    for index in range(windows):
        start = index * window_us
        end = start + window_us
        by_task = {}
        for span in span_set.select(
            task=task, device=device, start_us=start, end_us=end,
            terminal="complete",
        ):
            by_task.setdefault(span.task, []).append(_span_latency(span))
        for name in sorted(by_task):
            p99 = _quantile(by_task[name], 0.99)
            if worst is None or p99 > worst[3]:
                worst = (name, start, end, p99)
    return worst


def _random_span_set(seed, window_us):
    rng = random.Random(seed)
    windows = rng.randint(1, 40)
    end_us = windows * window_us - rng.choice([0.0, window_us / 3])
    spans = []
    for span_id in range(rng.randint(0, 120)):
        k = rng.randint(0, windows)
        end = rng.choice([
            rng.uniform(0.0, end_us),
            k * window_us,  # exactly a window start
            (k - 1) * window_us + window_us,  # the previous window's end
            k / (1.0 / window_us),  # the same edge, rounded differently
            end_us,
        ])
        duration = rng.choice([5, 5, 40, 400, rng.randint(1, 900)])
        spans.append(Span(
            span_id=span_id,
            task=rng.choice(["a", "b", "c"]),
            device=rng.randint(0, 1),
            channel=None,
            ref=None,
            start_us=max(0.0, end - duration),
            end_us=end,
            terminal=rng.choice(["complete", "complete", "complete", "killed"]),
            migration_epoch=0,
            segments=(),
            components={"exec": duration},
        ))
    return SpanSet(spans, [], [], [], end_us)


@pytest.mark.parametrize("window_us", [1_000.0, 333.3, 0.1, 7.0 / 3.0])
@pytest.mark.parametrize("seed", range(12))
def test_worst_window_matches_brute_force(seed, window_us):
    span_set = _random_span_set(seed, window_us)
    for task, device in [(None, None), ("a", None), (None, 1), ("b", 0)]:
        assert worst_window(span_set, window_us, task=task, device=device) == (
            _brute_force_worst_window(span_set, window_us, task, device)
        )


def test_worst_window_span_on_boundary_opens_next_window():
    spans = [
        Span(i, "a", 0, None, None, 0.0, end, "complete", 0, (), {"exec": d})
        for i, (end, d) in enumerate([(50.0, 10), (100.0, 90), (150.0, 20)])
    ]
    span_set = SpanSet(spans, [], [], [], 200.0)
    assert worst_window(span_set, 100.0) == ("a", 100.0, 200.0, 90)
    assert worst_window(SpanSet([], [], [], [], 200.0), 100.0) is None


# ----------------------------------------------------------------------
# repro why compare
# ----------------------------------------------------------------------

@pytest.fixture()
def run_store(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    from repro.obs.perf import main as perf_main

    assert perf_main(["record", "figure4", "--duration-ms", "20"]) == 0
    assert perf_main(["record", "figure4", "--duration-ms", "30"]) == 0
    return tmp_path


def test_compare_diffs_phases_and_metrics(run_store, capsys):
    assert why_main(["compare", "-2", "last"]) == 0
    out = capsys.readouterr().out
    assert "why compare:" in out
    assert "host phases by |delta|:" in out
    assert "cell-execute" in out
    assert out.strip().splitlines()[-1].startswith("WHY-COMPARE dominant_phase=")


def test_compare_json(run_store, capsys):
    assert why_main(["compare", "-2", "last", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dominant_phase"]
    assert len(payload["wall_s"]) == 2
    assert payload["phases"]


def test_compare_identical_runs_has_no_metric_diffs(run_store, capsys):
    from repro.obs.perf import main as perf_main

    assert perf_main(["record", "figure4", "--duration-ms", "30"]) == 0
    capsys.readouterr()  # drain the record's own figure output
    assert why_main(["compare", "-2", "last", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metric_diffs"] == {}
