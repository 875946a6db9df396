"""Closed-loop simulation harness: generate a network, run sample/control/step
loops, and write plot-ready reports.

The synthetic generator lays out a Manhattan-style grid of one-way road
elements: a clockwise ring road around the perimeter with alternating-
direction streets inside, inlets merging into the ring and outlets branching
off it. The ``philadelphia`` preset reproduces the 259-element partition
used by the bundled experiment (20 inlets, 22 outlets, 217 interior roads).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from numbers import Real
from pathlib import Path

import numpy as np

from .dynamics import (
    TrafficState,
    assemble_input_matrix,
    assemble_state_matrix,
    sample_matrices,
    step,
)
from .graph import (
    GraphBuildError,
    NoirGraph,
    RoadAttributes,
    RoadClass,
    build_graph,
    validate_structure,
)
from .mpc import ControlDiagnostics, MpcConfig, control_step
from .qp import SolveStatus

PHILADELPHIA_PRESET = {"rows": 8, "cols": 15, "inlet_count": 20, "outlet_count": 22}
GRID_PRESET = {"rows": 4, "cols": 4, "inlet_count": 4, "outlet_count": 4}

INITIAL_DENSITY_MODES = ("zero", "uniform")

# What each field annotation of SimConfig admits; bool is an int, so the
# numeric types exclude it by hand. JSON admits Infinity and NaN, which no
# real-valued field can take.
_FIELD_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": (
        "a finite real number",
        lambda v: isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v),
    ),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


@dataclass(frozen=True)
class SimConfig:
    """Closed-loop experiment parameters, mirroring the JSON config schema.
    A field of the wrong type (an ``int`` counts as a ``float`` and is stored
    as one) or out of range raises ``ValueError``."""

    steps: int = 150
    dt_seconds: float = 20.0
    seed: int = 0
    d0: float = 100.0
    n_tau: int = 5
    p_max: float = 0.9
    l_veh_m: float = 4.5
    enforce_density_lower_bound: bool = False
    initial_density: str = "uniform"

    def __post_init__(self) -> None:
        for f in fields(self):
            noun, admits = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if not admits(value):
                raise ValueError(f"{f.name} must be {noun}, got {value!r}")
            if f.type == "float":
                object.__setattr__(self, f.name, float(value))
        modes = INITIAL_DENSITY_MODES
        for name, ok, rule in (
            ("steps", self.steps >= 1, "positive"),
            ("dt_seconds", self.dt_seconds > 0, "positive"),
            ("seed", self.seed >= 0, "nonnegative"),
            ("d0", self.d0 > 0, "positive"),
            ("n_tau", self.n_tau >= 1, "positive"),
            ("p_max", 0.0 < self.p_max < 1.0, "strictly between 0 and 1"),
            ("l_veh_m", self.l_veh_m > 0, "positive"),
            ("initial_density", self.initial_density in modes, f"one of {modes}"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class StepRecord:
    """One closed-loop step: applied flows, resulting state, and solve health."""

    step: int
    sum_u: float
    sum_v: float
    cost: float | None
    status: str
    kkt_worst: float | None
    active_set_size: int
    d0_applied: float
    fallback_used: bool
    slack_capacity: float
    slack_negative: float
    total_density: float
    densities: np.ndarray
    flows: np.ndarray


@dataclass(frozen=True)
class TimeSeriesLog:
    config: SimConfig
    n_total: int
    n_inlets: int
    n_outlets: int
    initial_densities: np.ndarray
    records: tuple[StepRecord, ...]

    @property
    def n_interior(self) -> int:
        return self.n_total - self.n_inlets - self.n_outlets


def generate_grid_noir(
    rows: int, cols: int, inlet_count: int, outlet_count: int, seed: int
) -> NoirGraph:
    """Build a seeded Manhattan-style grid network that passes validation.

    Intersections form a ``rows x cols`` lattice. Perimeter streets make a
    clockwise one-way ring; inner streets alternate direction row by row and
    column by column, so every interior element drains to the ring and hence
    to every outlet. Inlets and outlets attach to ring segments at distinct
    perimeter intersections chosen by the seed; road lengths (80-200 m) and
    lane counts (1-3) are seeded as well.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid must be at least 2x2 intersections")
    if inlet_count < 1 or outlet_count < 1:
        raise ValueError("need at least one inlet and one outlet")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")

    # perimeter intersections, clockwise from the top-left corner
    perimeter: list[tuple[int, int]] = []
    perimeter += [(0, c) for c in range(cols)]
    perimeter += [(r, cols - 1) for r in range(1, rows)]
    perimeter += [(rows - 1, c) for c in range(cols - 2, -1, -1)]
    perimeter += [(r, 0) for r in range(rows - 2, 0, -1)]
    n_perimeter = len(perimeter)
    if inlet_count > n_perimeter or outlet_count > n_perimeter:
        raise ValueError(
            f"boundary counts ({inlet_count} inlets, {outlet_count} outlets) exceed the "
            f"{n_perimeter} perimeter intersections"
        )

    rng = np.random.default_rng(seed)

    # one-way street segments between adjacent intersections
    segments: list[tuple[tuple[int, int], tuple[int, int]]] = []
    ring_in: dict[tuple[int, int], int] = {}
    for idx in range(n_perimeter):
        tail = perimeter[idx]
        head = perimeter[(idx + 1) % n_perimeter]
        ring_in[head] = len(segments)
        segments.append((tail, head))
    for r in range(1, rows - 1):  # inner horizontal streets
        eastbound = r % 2 == 1
        for c in range(cols - 1):
            tail, head = ((r, c), (r, c + 1)) if eastbound else ((r, c + 1), (r, c))
            segments.append((tail, head))
    for c in range(1, cols - 1):  # inner vertical streets
        southbound = c % 2 == 1
        for r in range(rows - 1):
            tail, head = ((r, c), (r + 1, c)) if southbound else ((r + 1, c), (r, c))
            segments.append((tail, head))

    inlet_slots = sorted(int(i) for i in rng.choice(n_perimeter, size=inlet_count, replace=False))
    outlet_slots = sorted(int(i) for i in rng.choice(n_perimeter, size=outlet_count, replace=False))

    n_interior = len(segments)
    n_boundary = inlet_count + outlet_count
    n_total = n_boundary + n_interior
    interior_id = lambda seg_idx: n_boundary + 1 + seg_idx  # noqa: E731

    edges: list[tuple[int, int]] = []
    by_tail: dict[tuple[int, int], list[int]] = {}
    for seg_idx, (tail, _head) in enumerate(segments):
        by_tail.setdefault(tail, []).append(seg_idx)
    for seg_idx, (_tail, head) in enumerate(segments):
        for nxt in by_tail.get(head, ()):
            edges.append((interior_id(seg_idx), interior_id(nxt)))
    # An inlet merges into every street leaving its intersection (its inflow
    # lands on each); an outlet branches off the ring segment arriving there.
    for inlet_idx, slot in enumerate(inlet_slots):
        for seg in by_tail[perimeter[slot]]:
            edges.append((inlet_idx + 1, interior_id(seg)))
    for outlet_idx, slot in enumerate(outlet_slots):
        edges.append((interior_id(ring_in[perimeter[slot]]), inlet_count + 1 + outlet_idx))

    nodes: list[tuple[RoadClass, RoadAttributes]] = []
    classes = (
        [RoadClass.INLET] * inlet_count
        + [RoadClass.OUTLET] * outlet_count
        + [RoadClass.INTERIOR] * n_interior
    )
    # The ring carries all drainage toward the outlets, so ring segments are
    # sized as arterials; inner blocks give capacities of roughly 89-200
    # vehicles. Capacities need headroom above typical per-road loads: the
    # horizon model holds each step's sampled drain probabilities fixed, so
    # a road that samples a near-zero drain is predicted to accumulate its
    # whole inflow for several steps, and a tight capacity would leave the
    # boundary program with no feasible flow at all.
    for node_idx, cls in enumerate(classes):
        seg_idx = node_idx - n_boundary
        if 0 <= seg_idx < n_perimeter:
            length = round(float(rng.uniform(250.0, 300.0)), 1)
            lanes = 3
        else:
            length = round(float(rng.uniform(200.0, 300.0)), 1)
            lanes = int(rng.integers(2, 4))
        nodes.append((cls, RoadAttributes(length_m=length, lane_count=lanes)))

    graph = build_graph(nodes, edges)
    assert graph.n_total == n_total
    return graph


def philadelphia_noir(seed: int = 0) -> NoirGraph:
    """Desk-scale network with the 259-element / 20-inlet / 22-outlet split."""
    return generate_grid_noir(seed=seed, **PHILADELPHIA_PRESET)


def run_simulation(graph: NoirGraph, config: SimConfig) -> TimeSeriesLog:
    """Run the closed loop for ``config.steps`` steps.

    Each step samples fresh outflow probabilities and turn fractions,
    solves the boundary-flow program, and advances the plant with the same
    sampled matrices. Identical seeds give identical logs. Infeasible steps
    are recorded (with the relaxed demand actually applied), never raised.
    A graph that fails structural validation raises ``GraphBuildError``.
    """
    report = validate_structure(graph)
    if not report.all_passed:
        failed = [name for name, res in report.items() if not res.passed]
        raise GraphBuildError(f"graph fails structural validation: {', '.join(failed)}")

    rng = np.random.default_rng(config.seed)
    x_max = graph.capacity_vector(config.l_veh_m)
    if config.initial_density == "zero":
        x0 = np.zeros(graph.n_interior)
    else:
        # 0.1 of capacity rather than 0.5: several neighbors can route into
        # the same road in one step, so a start near half capacity keeps the
        # boundary program infeasible for a long transient and the network
        # takes far longer than the run to settle.
        x0 = rng.uniform(0.0, 0.1 * x_max)

    mpc_cfg = MpcConfig(
        d0=config.d0,
        x_max=x_max,
        n_tau=config.n_tau,
        enforce_density_lower_bound=config.enforce_density_lower_bound,
    )
    b = assemble_input_matrix(graph)
    state = TrafficState(densities=x0, step=0)
    records: list[StepRecord] = []
    for _ in range(config.steps):
        probs, fractions = sample_matrices(rng, graph, state, config.p_max)
        a = assemble_state_matrix(probs, fractions)
        s_star, diag = control_step(state, a, b, mpc_cfg)
        state = step(state, a, b, s_star)
        records.append(_make_record(graph, state, s_star, diag, x_max))

    return TimeSeriesLog(
        config=config,
        n_total=graph.n_total,
        n_inlets=graph.n_inlets,
        n_outlets=graph.n_outlets,
        initial_densities=x0,
        records=tuple(records),
    )


def _make_record(
    graph: NoirGraph,
    state: TrafficState,
    s_star: np.ndarray,
    diag: ControlDiagnostics,
    x_max: np.ndarray,
) -> StepRecord:
    x = state.densities
    sol = diag.solution
    return StepRecord(
        step=state.step,
        sum_u=float(s_star[: graph.n_inlets].sum()),
        sum_v=float(s_star[graph.n_inlets :].sum()),
        cost=sol.cost,
        status=sol.status.value,
        kkt_worst=None if sol.kkt is None else sol.kkt.worst(),
        active_set_size=len(sol.active_set),
        d0_applied=diag.d0_applied,
        fallback_used=diag.fallback_used,
        slack_capacity=float(max(0.0, (x - x_max).max())),
        slack_negative=float(max(0.0, -x.min())),
        total_density=float(x.sum()),
        densities=x.copy(),
        flows=np.asarray(s_star, dtype=float).copy(),
    )


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _rounded(obj):
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _json_numbers(values: list) -> list[str]:
    """Each number of ``values`` as ``json.dumps`` writes it after
    ``_rounded``, from one call of the C encoder (``indent`` selects the
    pure-Python one)."""
    if not values:
        return []
    return json.dumps(_rounded(values), separators=(",", ":"))[1:-1].split(",")


def _write_rows(path: Path, header: str, row_format: str, records) -> None:
    """Write ``header``, then each ``(step, values)`` record by one ``%`` on
    ``row_format``, which holds a ``%s`` for the step and a ``%.12g`` for
    the value on each of its lines."""
    with path.open("w", encoding="utf-8") as fh:
        fh.write(header)
        for step, values in records:
            args = [step] * (2 * len(values))
            args[1::2] = values.tolist()
            fh.write(row_format % tuple(args))


def emit_report(log: TimeSeriesLog, out_dir: str | Path) -> dict[str, Path]:
    """Write run_summary.json, densities.csv, and boundary_flows.csv.

    Numbers carry 12 significant digits, as ``{:.12g}`` writes them;
    identical logs serialize to byte-identical files, and an existing file
    is rewritten in full. Each CSV record is formatted by one ``%`` on a
    row format built once per run, and the summary's two long lists go
    through the C JSON encoder and are laid out as ``json.dumps(...,
    indent=2)`` lays them out.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    statuses = [rec.status for rec in log.records]
    sum_u = [rec.sum_u for rec in log.records]
    sum_v = [rec.sum_v for rec in log.records]
    head = {
        "config": asdict(log.config),
        "network": {
            "n_total": log.n_total,
            "n_in": log.n_inlets,
            "n_boundary": log.n_inlets + log.n_outlets,
            "n_interior": log.n_interior,
        },
        "aggregates": {
            "steps": len(log.records),
            "sum_u_mean": float(np.mean(sum_u)),
            "sum_v_mean": float(np.mean(sum_v)),
            "sum_u_final": sum_u[-1],
            "sum_v_final": sum_v[-1],
            "total_density_final": log.records[-1].total_density,
            "max_slack_capacity": max(rec.slack_capacity for rec in log.records),
            "max_slack_negative": max(rec.slack_negative for rec in log.records),
            "steps_optimal": statuses.count(SolveStatus.OPTIMAL.value),
            "steps_fallback": sum(1 for rec in log.records if rec.fallback_used),
            "steps_infeasible": statuses.count(SolveStatus.INFEASIBLE.value),
        },
    }
    # indent=2's layout of the two long lists, one level deep in the summary
    final_state = _json_numbers(log.records[-1].densities.tolist())
    per_step = _json_numbers([v for rec in log.records for v in (rec.step, rec.sum_u, rec.sum_v)])
    step_lines = '    {\n      "step": %s,\n      "sum_u": %s,\n      "sum_v": %s\n    }'
    lists = {
        "final_state": ["    " + number for number in final_state],
        "per_step": [step_lines % tuple(per_step[i : i + 3]) for i in range(0, len(per_step), 3)],
    }
    text = json.dumps(_rounded(head), indent=2)[: -len("\n}")]
    for key, lines in lists.items():
        text += f',\n  "{key}": ' + ("[\n" + ",\n".join(lines) + "\n  ]" if lines else "[]")
    summary_path = out / "run_summary.json"
    summary_path.write_text(text + "\n}\n", encoding="utf-8")

    n_boundary = log.n_inlets + log.n_outlets
    densities_path = out / "densities.csv"
    _write_rows(
        densities_path,
        "step,road_id,density\n",
        "".join(f"%s,{n_boundary + 1 + i},%.12g\n" for i in range(log.n_interior)),
        ((rec.step, rec.densities) for rec in log.records),
    )
    flows_path = out / "boundary_flows.csv"
    classes = ["inlet"] * log.n_inlets + ["outlet"] * log.n_outlets
    _write_rows(
        flows_path,
        "step,road_id,class,flow\n",
        "".join(f"%s,{i + 1},{cls},%.12g\n" for i, cls in enumerate(classes)),
        ((rec.step, rec.flows) for rec in log.records),
    )

    return {
        "run_summary": summary_path,
        "densities": densities_path,
        "boundary_flows": flows_path,
    }
