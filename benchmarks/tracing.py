"""Layer spans recorded from outside the program.

The benchmark times each layer by replacing, for the length of one trial, the
module-level names through which ``noirsim.harness`` and ``noirsim.mpc`` reach
the next layer down. Nothing under ``src/`` knows about it. A name that has
disappeared from its module raises ``MissingHook`` instead of being skipped,
so a refactor cannot silently drop a layer from the trace; a layer that is
still there but never called reports zero.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

# (module under noirsim, attribute, span name). One span name may cover the
# same function reached through two modules.
HOOKS = (
    ("harness", "run_simulation", "harness.run_simulation"),
    ("harness", "emit_report", "harness.emit_report"),
    ("harness", "validate_structure", "graph.validate"),
    ("harness", "sample_matrices", "dynamics.sample"),
    ("harness", "assemble_state_matrix", "dynamics.assemble_state"),
    ("mpc", "assemble_state_matrix", "dynamics.assemble_state"),
    ("harness", "assemble_input_matrix", "dynamics.assemble_input"),
    ("mpc", "assemble_input_matrix", "dynamics.assemble_input"),
    ("harness", "step", "dynamics.plant_step"),
    ("harness", "control_step", "mpc.control"),
    ("mpc", "build_prediction", "mpc.build_prediction"),
    ("mpc", "build_qp", "mpc.build_qp"),
    ("mpc", "solve_qp", "qp.solve"),
    ("qp", "linprog", "qp.phase_one"),
)


def _prediction_attrs(result) -> dict:
    return {"bytes": int(result.G.nbytes + result.H.nbytes)}


def _qp_attrs(result) -> dict:
    return {"rows": int(result.eq_matrix.shape[0] + result.ineq_matrix.shape[0])}


def _solve_attrs(result) -> dict:
    return {
        "status": result.status.value,
        "iterations": int(result.n_iterations),
        "active": len(result.active_set),
    }


ATTRS = {
    "mpc.build_prediction": _prediction_attrs,
    "mpc.build_qp": _qp_attrs,
    "qp.solve": _solve_attrs,
}


class MissingHook(RuntimeError):
    """A name the benchmark wraps is no longer where the benchmark expects it."""


def resolve(module: str, attr: str):
    mod = importlib.import_module(f"noirsim.{module}")
    fn = getattr(mod, attr, None)
    if not callable(fn):
        raise MissingHook(
            f"noirsim.{module}.{attr} is gone or not callable; update the hooks in benchmarks/"
        )
    return mod, fn


@contextlib.contextmanager
def patched(replacements):
    """Apply ``(module, attr, factory)`` replacements in order, where
    ``factory(fn)`` returns the wrapper of the current ``fn``; a later entry for
    the same name wraps the earlier one. Every original is restored on exit."""
    done = []
    try:
        for module, attr, factory in replacements:
            mod, fn = resolve(module, attr)
            setattr(mod, attr, factory(fn))
            done.append((mod, attr, fn))
        yield
    finally:
        for mod, attr, fn in reversed(done):
            setattr(mod, attr, fn)


class StepClock:
    """One ``perf_counter`` per closed-loop step, taken as the step samples."""

    def __init__(self) -> None:
        self.ticks: list[float] = []

    def hooks(self):
        def factory(fn):
            def ticking(*args, **kwargs):
                self.ticks.append(time.perf_counter())
                return fn(*args, **kwargs)

            return ticking

        return [("harness", "sample_matrices", factory)]


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Keeps the spans of one traced trial in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(result)
            return result

        return traced

    def hooks(self):
        return [
            (module, attr, lambda fn, name=name: self.wrap(name, fn))
            for module, attr, name in HOOKS
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced trial (one ``run_simulation`` plus its
    report). Self time is a span's duration minus that of its children."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    self_ms: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s in spans:
        self_ms[s.name] += (s.end - s.start - child_time[s.id]) * 1e3
        calls[s.name] += 1

    runs = [s for s in spans if s.name == "harness.run_simulation"]
    if len(runs) != 1:
        raise ValueError(f"expected one run_simulation span per trial, got {len(runs)}")
    run = runs[0]
    steps = calls["dynamics.sample"]
    in_run = [s for s in spans if s.parent == run.id]
    samples = [s for s in in_run if s.name == "dynamics.sample"]
    first = samples[0].start if samples else run.end
    covered = sum(s.end - s.start for s in in_run if s.start >= first)

    solves = [s.attrs for s in spans if s.name == "qp.solve"]
    n_solves = len(solves)
    rows = [s.attrs["rows"] for s in spans if s.name == "mpc.build_qp"]
    sizes = [s.attrs["bytes"] for s in spans if s.name == "mpc.build_prediction"]

    def per_step(x: float) -> float:
        return _ratio(x, steps)

    return {
        "dynamics.sample_ms": per_step(self_ms["dynamics.sample"]),
        "dynamics.assemble_state_ms": per_step(self_ms["dynamics.assemble_state"]),
        "dynamics.assemble_state_calls_per_step": per_step(calls["dynamics.assemble_state"]),
        "dynamics.assemble_input_ms": per_step(self_ms["dynamics.assemble_input"]),
        "dynamics.assemble_input_calls_per_run": calls["dynamics.assemble_input"],
        "dynamics.plant_step_ms": per_step(self_ms["dynamics.plant_step"]),
        "mpc.build_prediction_ms": per_step(self_ms["mpc.build_prediction"]),
        "mpc.prediction_bytes": max(sizes, default=0),
        "mpc.build_qp_ms": per_step(self_ms["mpc.build_qp"]),
        "mpc.build_qp_calls_per_step": per_step(calls["mpc.build_qp"]),
        "mpc.qp_rows": max(rows, default=0),
        "mpc.control_self_ms": per_step(self_ms["mpc.control"]),
        "qp.solve_ms": per_step(self_ms["qp.solve"]),
        "qp.solves_per_step": per_step(n_solves),
        "qp.iterations_per_solve": _ratio(sum(a["iterations"] for a in solves), n_solves),
        "qp.trivial_frac": _ratio(
            sum(1 for a in solves if a["iterations"] == 1 and a["active"] == 0), n_solves
        ),
        "qp.optimal_frac": _ratio(sum(1 for a in solves if a["status"] == "optimal"), n_solves),
        "qp.kkt_rejects": sum(1 for a in solves if a["status"] == "max_iterations"),
        "qp.phase_one_ms": per_step(self_ms["qp.phase_one"]),
        "qp.phase_one_calls": calls["qp.phase_one"],
        "harness.loop_self_ms": per_step(self_ms["harness.run_simulation"]),
        "harness.report_ms": self_ms["harness.emit_report"],
        "trace.step_coverage": _ratio(covered, run.end - first),
    }
