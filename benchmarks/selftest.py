"""Self-test of the benchmark. It is kept out of the default test collection
because it starts benchmark processes; run it with

    python3 -m pytest -q benchmarks/selftest.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from run import harness, noirsim  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=cwd,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_reports_every_metric(trace, section):
    out = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    # The step count follows from the workload and --seconds alone.
    count = run.trial_count(run.WORKLOADS["smoke"], 1)
    trials = 2 * -(-count // 2) if trace else count
    assert line["attempted"] == trials * run.WORKLOADS["smoke"].steps >= run.MIN_STEPS
    assert line["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_broken_budget_trips_the_output_check():
    graph = noirsim.generate_grid_noir(seed=1, **harness.GRID_PRESET)
    log = noirsim.run_simulation(graph, noirsim.SimConfig(steps=3, seed=1, d0=10.0))
    assert run.check_log(log) == {}
    bad = dataclasses.replace(log.records[1], sum_u=log.records[1].sum_u + 1e-3)
    broken = dataclasses.replace(log, records=(log.records[0], bad, log.records[2]))
    problems = run.check_log(broken)
    assert list(problems) == [bad.step]
    assert "boundary budget" in problems[bad.step][0]


def test_missing_hook_fails_loudly_and_restores_the_rest():
    original = harness.sample_matrices
    with pytest.raises(tracing.MissingHook, match="no_such_layer"):
        with tracing.patched(
            [("harness", "sample_matrices", lambda fn: None), ("mpc", "no_such_layer", None)]
        ):
            pass
    assert harness.sample_matrices is original


def test_layer_without_calls_reports_zero():
    spans = [
        tracing.Span(0, -1, "harness.run_simulation", 0.0, 1.0),
        tracing.Span(1, 0, "dynamics.sample", 0.1, 0.2),
    ]
    metrics = tracing.layer_metrics(spans)
    for name in ("qp.solve_ms", "qp.solves_per_step", "qp.trivial_frac", "qp.phase_one_calls"):
        assert metrics[name] == 0


def test_bare_directory_fails_without_a_result():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "benchmarks")
    out = _bench("--workload", "phila", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
