"""Self-tests of the benchmark: exact counts, seeded inputs, failing checks.

Run from the repository root with ``python3 -m pytest hostbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hostbench import harness  # noqa: E402
from hostbench.layers import Tracer  # noqa: E402
from hostbench.workloads import WORKLOADS, check_results, golden_section  # noqa: E402

GOLDEN = (ROOT / "experiment_results.txt").read_text(encoding="utf-8")
#: The DFQ row of the committed Figure 8 table.
FIGURE8_DFQ_ROW = next(
    line for line in golden_section(GOLDEN, "figure8").splitlines()
    if line.startswith("dfq ")
)


@pytest.fixture(scope="module")
def figure8_pass(tmp_path_factory):
    """One untraced pass of observed-live at seed 0 (the Figure 8 cells)."""
    workload = WORKLOADS["observed-live"]
    specs = workload.cells(0)
    scratch = tmp_path_factory.mktemp("scratch")
    return workload, specs, harness.run_passes(
        workload, specs, scratch, 0.0, harness.Calibration())


def traced_counts(specs, scratch):
    workload = WORKLOADS["trace-replay"]
    tracer = Tracer()
    with tracer:
        measured = harness.run_passes(workload, specs, scratch, 0.0,
                                      harness.Calibration(), tracer)
    assert measured.failed == 0, measured.problems
    return dict(tracer.counts), [o.digest for o in measured.outcomes]


def test_traced_counts_repeat_exactly(tmp_path):
    # The DFQ cell of Figure 8: scheduler, interception and obs all work.
    specs = [s for s in WORKLOADS["trace-replay"].cells(0) if s.scheduler == "dfq"]
    first_counts, first_digests = traced_counts(specs, tmp_path)
    second_counts, second_digests = traced_counts(specs, tmp_path)
    assert first_counts == second_counts
    assert first_digests == second_digests
    for key in ("sim.timed_push", "sim.resume", "osmodel.submit_calls",
                "neon.drains", "core.hook_calls", "obs.emit"):
        assert first_counts[key] > 0, key


def test_tracer_restores_every_patch(tmp_path):
    from repro.sim.engine import Simulator
    from repro.sim.events import Event

    before = (Simulator.schedule, Event.trigger)
    with Tracer():
        pass
    assert (Simulator.schedule, Event.trigger) == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_give_different_inputs(name):
    workload = WORKLOADS[name]
    zero = [spec.content_key() for spec in workload.cells(0)]
    one = [spec.content_key() for spec in workload.cells(1)]
    assert len(zero) == len(one)
    assert not set(zero) & set(one)


def test_seeds_give_different_outputs(tmp_path):
    workload = WORKLOADS["pair-grid"]
    runs = [workload.run_cell(workload.cells(seed)[-1], tmp_path)
            for seed in (0, 1)]
    assert runs[0].digest != runs[1].digest


def test_golden_tables_pass_at_seed_0(figure8_pass):
    workload, specs, measured = figure8_pass
    assert measured.failed == 0, measured.problems
    assert workload.check_pass(0, specs, measured.outcomes, GOLDEN) == []


def test_tampered_golden_row_fails(figure8_pass):
    workload, specs, measured = figure8_pass
    tampered = GOLDEN.replace(FIGURE8_DFQ_ROW, FIGURE8_DFQ_ROW.replace("3.22", "3.23"))
    assert tampered != GOLDEN
    problems = workload.check_pass(0, specs, measured.outcomes, tampered)
    assert problems and "figure8" in problems[0]


def test_perturbed_cell_result_fails(figure8_pass):
    workload, specs, measured = figure8_pass
    outcomes = list(measured.outcomes)
    last = outcomes[-1]
    name, result = next(iter(last.results.items()))
    rounds = dataclasses.replace(result.rounds, mean_us=result.rounds.mean_us * 1.1)
    perturbed = dict(last.results, **{name: dataclasses.replace(result, rounds=rounds)})
    outcomes[-1] = dataclasses.replace(last, results=perturbed)
    assert workload.check_pass(0, specs, outcomes, GOLDEN)


def test_cell_checks_catch_bad_results(figure8_pass):
    _, specs, measured = figure8_pass
    spec, outcome = specs[-1], measured.outcomes[-1]
    assert check_results(spec, outcome.results) == []
    name, result = next(iter(outcome.results.items()))
    for bad in (
        dataclasses.replace(result, killed=True, kill_reason="test"),
        dataclasses.replace(result, requests_submitted=0),
        dataclasses.replace(result, ground_truth_usage_us=spec.duration_us + 1),
        dataclasses.replace(
            result, rounds=dataclasses.replace(result.rounds, mean_us=float("nan"))
        ),
    ):
        assert check_results(spec, {name: bad}), bad


def _copy_benchmark(tmp_path: Path, golden: str) -> Path:
    """A checkout holding the benchmark, the program and ``golden``."""
    shutil.copytree(ROOT / "hostbench", tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    (tmp_path / "experiment_results.txt").write_text(golden, encoding="utf-8")
    return tmp_path


def _run(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "hostbench/run.py", *args],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )


def test_command_exits_nonzero_on_tampered_golden(tmp_path):
    tampered = GOLDEN.replace(FIGURE8_DFQ_ROW, FIGURE8_DFQ_ROW.replace("3.22", "3.23"))
    checkout = _copy_benchmark(tmp_path, tampered)
    done = _run(checkout, "--workload", "trace-replay", "--seconds", "0")
    assert done.returncode == 0, done.stderr  # no golden table in this one
    done = _run(checkout, "--workload", "observed-live", "--seconds", "0")
    assert done.returncode == 1
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 8


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "hostbench", tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = _run(tmp_path, "--workload", "solo-grid", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""
