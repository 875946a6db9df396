"""Closed-loop benchmark of noirsim.

    python3 benchmarks/run.py --workload overload --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

Each workload fixes its network; ``--seed`` seeds the simulation, that is the
initial densities and every sampled state matrix. A run drives the library
the way ``noirsim simulate`` does: the network is loaded from its canonical
bytes, ``run_simulation`` runs the closed loop and ``emit_report`` writes the
three reports. One trial is one such simulation plus
its reports. The number of trials is fixed by the workload and ``--seconds``
alone (see ``trial_count``), never by the clock, so that one seed always
attempts, and fails, the same steps; it is at least enough for ``MIN_STEPS``
steps, so that ten steps lie beyond the 90th percentile.

Every trial's output is checked (boundary budget, nonnegative flows and KKT
residuals on optimal steps, identical report hashes across trials). One
operation is one closed-loop step; a step fails when its status is not
``optimal`` or it fails a check. A failed check makes the run incorrect and
the exit code 1.

``--trace 0`` reports the end-to-end metrics. Its only hook is a step clock
on ``noirsim.harness.sample_matrices``. ``--trace 1`` alternates untraced and
traced trials and reports the per-layer split of the traced ones (see
``tracing.py``), plus the tracing overhead. The last line of standard output
is one JSON object; ``.bench_out/<workload>-seed<n>-trace<t>/`` receives the
full result, the environment, the report hashes and, for traced runs, the
spans.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: on a 2-core machine two
# threads made the dense-prediction workload swing by about 15% between runs,
# one by 2.5%.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import noirsim  # noqa: E402
from noirsim import harness  # noqa: E402

from tracing import StepClock, Tracer, layer_metrics, patched  # noqa: E402

if Path(noirsim.__file__).resolve().parent != ROOT / "src" / "noirsim":
    raise ImportError(f"noirsim came from {noirsim.__file__}, not from {ROOT / 'src'}")


# The network does not follow --seed: across network seeds some philadelphia
# networks reach the HiGHS phase one at d0=100 and some never do, which moves
# peak memory by about 65 MB and the step time with it.
NETWORK_SEED = 1


@dataclass(frozen=True)
class Workload:
    grid: dict  # generate_grid_noir arguments besides the seed
    d0: float
    n_tau: int
    steps: int  # closed-loop steps per trial
    trial_s: float  # nominal seconds of one untraced trial on a 2-vCPU host


WORKLOADS = {
    # The paper's city-scale experiment: every QP is trivial and the time is
    # spread over sampling, prediction and solve; G+H fit in L2. It is not a
    # workload of BENCHMARK.json: on a shared 2-vCPU host its mean step time
    # spread by 0.24-0.30 of the median across runs of one build, at the
    # regression bound, about twice as much as the other two workloads.
    "phila": Workload(harness.PHILADELPHIA_PRESET, d0=100.0, n_tau=5, steps=150, trial_s=2.1),
    # 914 interior roads at the same demand per boundary road, horizon 10:
    # the dense condensed prediction (G+H about 128 MB) dominates.
    "grid914-h10": Workload(
        {"rows": 16, "cols": 30, "inlet_count": 40, "outlet_count": 44},
        d0=200.0,
        n_tau=10,
        steps=10,
        trial_s=4.6,
    ),
    # Capacity binds: real active-set iterations, HiGHS phase one and
    # infeasible steps, about half of them.
    "overload": Workload(
        harness.PHILADELPHIA_PRESET, d0=1000.0, n_tau=5, steps=100, trial_s=9.4
    ),
    # For selftest.py only.
    "smoke": Workload(harness.GRID_PRESET, d0=10.0, n_tau=5, steps=5, trial_s=0.05),
}
MAIN_WORKLOADS = ("phila", "grid914-h10", "overload")

MIN_STEPS = 100
SETUP_REPEATS = 7
BUDGET_TOL = 1e-6
FLOW_TOL = 1e-9
KKT_TOL = 1e-8

# On a shared 2-vCPU virtual machine the speed alternates between two levels
# about 1.35x apart, for stretches of seconds to a minute, so step times are
# bimodal and their median jumps between the modes from run to run. The mean moves in
# proportion to the time spent in each, so it is the bounded metric; the
# median is printed and recorded beside it. For the same reason ``run_s`` is
# the mean over a run's trials, not their median.
E2E_UNITS = {
    "step_ms_mean": "ms",
    "step_ms_p90": "ms",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Exact per seed but different from seed to seed, and zero on some
# workloads, so they are printed with every run and reported as per-layer
# figures of the plant rather than as bounded end-to-end metrics.
QUALITY_UNITS = {
    "dynamics.overflow_max_veh": "veh",
    "dynamics.underflow_max_veh": "veh",
}
LAYER_UNITS = {
    "dynamics.sample_ms": "ms/step",
    "dynamics.assemble_state_ms": "ms/step",
    "dynamics.assemble_state_calls_per_step": "count/step",
    "dynamics.assemble_input_ms": "ms/step",
    "dynamics.assemble_input_calls_per_run": "count/run",
    "dynamics.plant_step_ms": "ms/step",
    **QUALITY_UNITS,
    "mpc.build_prediction_ms": "ms/step",
    "mpc.prediction_bytes": "bytes",
    "mpc.build_qp_ms": "ms/step",
    "mpc.build_qp_calls_per_step": "count/step",
    "mpc.qp_rows": "count",
    "mpc.control_self_ms": "ms/step",
    "qp.solve_ms": "ms/step",
    "qp.solves_per_step": "count/step",
    "qp.iterations_per_solve": "count",
    "qp.trivial_frac": "ratio",
    "qp.optimal_frac": "ratio",
    "qp.kkt_rejects": "count/run",
    "qp.phase_one_ms": "ms/step",
    "qp.phase_one_calls": "count/run",
    "harness.loop_self_ms": "ms/step",
    "harness.report_ms": "ms/run",
    "harness.report_bytes": "bytes",
    "formats.parse_ms": "ms",
    "graph.validate_ms": "ms",
    "trace.overhead_s": "s",
    "trace.step_coverage": "ratio",
}


def check_log(log) -> dict[int, list[str]]:
    """Output checks of one simulation: ``{step: [problem, ...]}`` for every
    step that fails one."""
    problems: dict[int, list[str]] = {}
    for rec in log.records:
        found = []
        off = abs(rec.sum_u + rec.sum_v - rec.d0_applied)
        if not off <= BUDGET_TOL:
            found.append(f"boundary budget off by {off:.3g}")
        if rec.status == "optimal":
            if not rec.flows.min() >= -FLOW_TOL:
                found.append(f"negative flow {rec.flows.min():.3g} on an optimal step")
            if rec.kkt_worst is None or not rec.kkt_worst <= KKT_TOL:
                found.append(f"KKT residual {rec.kkt_worst} on an optimal step")
        if found:
            problems[rec.step] = found
    return problems


@dataclass
class Trial:
    traced: bool
    run_s: float
    step_ms: list[float]
    failed: int
    problems: dict[int, list[str]]
    hashes: dict[str, str]
    report_bytes: int
    quality: dict[str, float]
    spans: list


def trial_count(wl: Workload, seconds: int) -> int:
    """Trials of one untraced run: about ``seconds`` of work on the host that
    ``trial_s`` was measured on, and at least ``MIN_STEPS`` steps. A traced run
    makes half as many pairs (rounded up) of an untraced and a traced trial."""
    return max(-(-MIN_STEPS // wl.steps), round(seconds / wl.trial_s))


def run_trial(graph, config, out_dir: Path, traced: bool) -> Trial:
    clock = StepClock()
    tracer = Tracer()
    hooks = clock.hooks() + (tracer.hooks() if traced else [])
    with patched(hooks):
        log = harness.run_simulation(graph, config)
        sim_end = time.perf_counter()
        paths = harness.emit_report(log, out_dir)
        end = time.perf_counter()

    ticks = clock.ticks + [sim_end]
    problems = check_log(log)
    blobs = {path.name: path.read_bytes() for path in paths.values()}
    return Trial(
        traced=traced,
        run_s=end - ticks[0],
        step_ms=[(b - a) * 1e3 for a, b in zip(ticks, ticks[1:])],
        failed=sum(1 for r in log.records if r.status != "optimal" or r.step in problems),
        problems=problems,
        hashes={name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()},
        report_bytes=sum(len(blob) for blob in blobs.values()),
        quality={
            "dynamics.overflow_max_veh": max(r.slack_capacity for r in log.records),
            "dynamics.underflow_max_veh": max(r.slack_negative for r in log.records),
        },
        spans=tracer.spans,
    )


def load_graph(data: bytes):
    return noirsim.graph_from_document(noirsim.parse_network(data))


def measure_setup(network_path: Path) -> float:
    """Median over ``SETUP_REPEATS`` fresh processes of import + parse + build + validate."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(network_path)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def trace_setup(data: bytes):
    """Parse and validate ``SETUP_REPEATS`` times in process, under spans."""
    tracer = Tracer()
    load = tracer.wrap("formats.parse", load_graph)
    validate = tracer.wrap("graph.validate", harness.validate_structure)
    for _ in range(SETUP_REPEATS):
        graph = load(data)
        report = validate(graph)

    def median_ms(name):
        return statistics.median((s.end - s.start) * 1e3 for s in tracer.spans if s.name == name)

    return graph, report, {
        "formats.parse_ms": median_ms("formats.parse"),
        "graph.validate_ms": median_ms("graph.validate"),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_caches() -> dict[str, int]:
    """Cache sizes of CPU 0 in bytes, read from sysfs."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[label] = int(size.rstrip("KM")) * scale
    return caches


def environment() -> dict:
    def blas(show_config):
        deps = show_config(mode="dicts").get("Build Dependencies", {})
        return deps.get("blas", {}).get("version", "unknown")

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_openblas": blas(np.show_config),
        "scipy": scipy.__version__,
        "scipy_openblas": blas(scipy.show_config),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(),
        "cpu_cache_bytes": cpu_caches(),
    }


def span_records(trials: list[Trial]):
    """Spans of the traced trials, tagged with their trial and step. Spans in
    ``run_simulation`` before the first step get step -1; spans outside it
    (the run itself, the report) get none."""
    for number, trial in enumerate(trials):
        run = next(s for s in trial.spans if s.name == "harness.run_simulation")
        step = -1
        for span in trial.spans:
            if span.name == "dynamics.sample":
                step += 1
            inside = span is not run and run.start <= span.start <= run.end
            yield {
                "trial": number,
                "step": step if inside else None,
                "id": span.id,
                "parent": span.parent,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                **span.attrs,
            }


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = WORKLOADS[name]
    out_dir = ROOT / ".bench_out" / f"{name}-seed{seed}-trace{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    data = noirsim.serialize_network(
        noirsim.document_from_graph(noirsim.generate_grid_noir(seed=NETWORK_SEED, **wl.grid))
    )
    network_path = out_dir / "network.json"
    network_path.write_bytes(data)
    config = noirsim.SimConfig(steps=wl.steps, seed=seed, d0=wl.d0, n_tau=wl.n_tau)

    metrics: dict[str, float] = {}
    if trace:
        graph, report, setup_layers = trace_setup(data)
        metrics.update(setup_layers)
    else:
        metrics["setup_s"] = measure_setup(network_path)
        graph = load_graph(data)
        report = harness.validate_structure(graph)
    if not report.all_passed:
        raise ValueError(f"generated {name} network fails structural validation")

    count = trial_count(wl, seconds)
    plan = [False, True] * -(-count // 2) if trace else [False] * count
    trials = [run_trial(graph, config, out_dir / "reports", traced) for traced in plan]

    if trace:
        traced = [t for t in trials if t.traced]
        per_trial = [
            {**layer_metrics(t.spans), **t.quality, "harness.report_bytes": t.report_bytes}
            for t in traced
        ]
        for key in per_trial[0]:
            metrics[key] = statistics.median(m[key] for m in per_trial)
        untraced_s = statistics.mean(t.run_s for t in trials if not t.traced)
        metrics["trace.overhead_s"] = statistics.mean(t.run_s for t in traced) - untraced_s
    else:
        step_ms = [ms for t in trials for ms in t.step_ms]
        p50, p90 = np.percentile(step_ms, [50, 90])
        metrics.update(
            step_ms_mean=float(np.mean(step_ms)),
            step_ms_p50=float(p50),
            step_ms_p90=float(p90),
            run_s=statistics.mean(t.run_s for t in trials),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        )
        metrics.update(trials[0].quality)

    hash_sets = {tuple(sorted(t.hashes.items())) for t in trials}
    problems = [
        f"trial {n} step {step}: {msg}"
        for n, t in enumerate(trials)
        for step, msgs in sorted(t.problems.items())
        for msg in msgs
    ]
    if len(hash_sets) != 1:
        problems.append(f"report hashes differ between trials: {sorted(hash_sets)}")

    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "steps_per_trial": wl.steps,
        "trials": len(trials),
        "steps_attempted": sum(len(t.step_ms) for t in trials),
        "steps_failed": sum(t.failed for t in trials),
        "problems": problems,
        "report_sha256": trials[0].hashes,
        "per_trial": [
            {
                "traced": t.traced,
                "run_s": t.run_s,
                "step_ms_p50": float(np.percentile(t.step_ms, 50)),
                "step_ms_p90": float(np.percentile(t.step_ms, 90)),
            }
            for t in trials
        ],
        "metrics": metrics,
        "environment": environment(),
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    if trace:
        with (out_dir / "spans.jsonl").open("w") as fh:
            for record in span_records([t for t in trials if t.traced]):
                fh.write(json.dumps(record) + "\n")
    return result


def print_summary(result: dict) -> None:
    m = result["metrics"]
    print(
        f"{result['workload']} seed {result['seed']} trace {int(result['trace'])}: "
        f"{result['trials']} trials of {result['steps_per_trial']} steps"
    )
    units = {**E2E_UNITS, **LAYER_UNITS, "step_ms_p50": "ms"}
    for key, value in m.items():
        label = key.removeprefix("dynamics.") if key in QUALITY_UNITS else key
        print(f"  {label:40s} {value:>14.6g} {units[key]}")
    print(f"  {'steps_attempted':40s} {result['steps_attempted']:>14d}")
    print(f"  {'steps_failed':40s} {result['steps_failed']:>14d}")
    env = result["environment"]
    print(
        f"  nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']} "
        f"(OpenBLAS {env['numpy_openblas']}), scipy {env['scipy']} "
        f"(OpenBLAS {env['scipy_openblas']}), BLAS threads {env['blas_threads']}, "
        f"commit {env['git_commit']}"
    )
    if result["trace"]:
        caches = env["cpu_cache_bytes"]
        print(
            f"  G+H {m['mpc.prediction_bytes'] / 1e6:.1f} MB computed; "
            + ", ".join(f"{k} {v / 2**20:g} MiB" for k, v in caches.items() if k[1] in "23")
        )
    for name, digest in result["report_sha256"].items():
        print(f"  sha256 {name} {digest}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {result['workload']}: {problem}", file=sys.stderr)


def contract_line(result: dict) -> dict:
    units = LAYER_UNITS if result["trace"] else E2E_UNITS
    return {
        "correct": not result["problems"],
        "attempted": result["steps_attempted"],
        "failed": result["steps_failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }


def run_all(args) -> int:
    """Run each main workload in its own process, so that peak memory is its own."""
    lines = {}
    for name in MAIN_WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        *summary, last = out.stdout.splitlines() or [""]
        print("\n".join(summary), flush=True)
        lines[name] = json.loads(last) if out.returncode in (0, 1) and last.startswith("{") else None
    print(json.dumps(lines))
    return 0 if all(line is not None and line["correct"] for line in lines.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(result)
    line = contract_line(result)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
