"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the library's own code paths: QP
reference solutions come from enumerating active sets, prediction checks
from explicit step-by-step iteration, reachability from a boolean
transitive closure, and turn fractions from one Dirichlet draw per node.
The stability oracles, a power-iteration spectral radius and the squared-norm
bound it implies, check the plant's contraction and bounded trajectories.
The report oracle writes one ``{:.12g}`` value per ``write`` call and the
summary through ``json.dumps(..., indent=2)``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from noirsim.dynamics import TrafficState
from noirsim.graph import NoirGraph, RoadAttributes, RoadClass, build_graph
from noirsim.harness import TimeSeriesLog, generate_grid_noir
from noirsim.qp import QpProblem, SolveStatus

ATTR = RoadAttributes(length_m=100.0, lane_count=1)


def tiny_graph(attr: RoadAttributes = ATTR) -> NoirGraph:
    """Smallest legal network: inlet 1 -> interior 3 (``attr``) -> outlet 2."""
    return build_graph(
        [(RoadClass.INLET, None), (RoadClass.OUTLET, None), (RoadClass.INTERIOR, attr)],
        [(1, 3), (3, 2)],
    )


def chain_graph() -> NoirGraph:
    """Four-node chain 1 -> 4 -> 3 -> 2 (inlet, two interiors, outlet)."""
    return build_graph(
        [
            (RoadClass.INLET, None),
            (RoadClass.OUTLET, None),
            (RoadClass.INTERIOR, ATTR),
            (RoadClass.INTERIOR, ATTR),
        ],
        [(1, 4), (4, 3), (3, 2)],
    )


def random_valid_grid(rng: np.random.Generator) -> NoirGraph:
    """A seeded grid of 2-5 by 2-5 intersections with 1 to all perimeter
    slots as inlets and as outlets; every such grid passes validation."""
    rows = int(rng.integers(2, 6))
    cols = int(rng.integers(2, 6))
    perimeter = 2 * (rows + cols) - 4
    n_in = int(rng.integers(1, perimeter + 1))
    n_out = int(rng.integers(1, perimeter + 1))
    return generate_grid_noir(rows, cols, n_in, n_out, int(rng.integers(0, 1_000_000)))


def reach_closure(n: int, edges) -> np.ndarray:
    """Boolean reachability matrix (including trivial self-reachability)."""
    adj = np.eye(n, dtype=bool)
    for u, v in edges:
        adj[u - 1, v - 1] = True
    for _ in range(n):
        new = adj @ adj
        if (new == adj).all():
            break
        adj = new
    return adj


def reference_sample_matrices(
    rng: np.random.Generator, graph: NoirGraph, state: TrafficState, p_max: float = 0.9
) -> tuple[np.ndarray, dict[tuple[int, int], float], np.ndarray]:
    """Per-node sampler that ``sample_matrices`` must match bit for bit.

    Draws the outflow probabilities, then visits the inlets and interior
    nodes in ascending id order and splits each node's outflow over its
    out-neighbors (ascending) with one ``Generator.dirichlet`` call; a node
    with a single out-neighbor sends it everything without drawing. Returns
    the probabilities, the fraction of every routed edge keyed by
    ``(tail, head)``, and the interior fraction matrix in state order.
    """
    n_i, nb = graph.n_interior, graph.n_boundary
    p = rng.uniform(0.0, p_max, size=n_i)
    p[np.abs(state.densities) <= 1e-9] = 0.0

    outs_of: dict[int, list[int]] = {}
    for u, v in sorted(graph.edges):
        outs_of.setdefault(u, []).append(v)
    per_edge: dict[tuple[int, int], float] = {}
    matrix = np.zeros((n_i, n_i))
    for j in itertools.chain(graph.inlet_ids, graph.interior_ids):
        outs = outs_of.get(j, [])
        if not outs:
            continue
        parts = np.array([1.0]) if len(outs) == 1 else rng.dirichlet(np.ones(len(outs)))
        for t, frac in zip(outs, parts):
            per_edge[(j, t)] = float(frac)
            if j > nb and t > nb:
                matrix[t - nb - 1, j - nb - 1] = frac
    return p, per_edge, matrix


def _reference_rounded(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _reference_rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_rounded(v) for v in obj]
    return obj


def reference_emit_report(log: TimeSeriesLog, out_dir: str | Path) -> dict[str, Path]:
    """Report writer that ``emit_report`` must match byte for byte: one
    ``fh.write`` of an f-string per CSV value, and the whole summary through
    ``json.dumps(..., indent=2)`` after rounding every float to 12
    significant digits."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    statuses = [rec.status for rec in log.records]
    sum_u = [rec.sum_u for rec in log.records]
    sum_v = [rec.sum_v for rec in log.records]
    summary = {
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
        "final_state": list(log.records[-1].densities),
        "per_step": [
            {"step": rec.step, "sum_u": rec.sum_u, "sum_v": rec.sum_v}
            for rec in log.records
        ],
    }
    summary_path = out / "run_summary.json"
    summary_path.write_text(
        json.dumps(_reference_rounded(summary), indent=2) + "\n", encoding="utf-8"
    )

    n_boundary = log.n_inlets + log.n_outlets
    densities_path = out / "densities.csv"
    with densities_path.open("w", encoding="utf-8") as fh:
        fh.write("step,road_id,density\n")
        for rec in log.records:
            for idx, value in enumerate(rec.densities):
                fh.write(f"{rec.step},{n_boundary + 1 + idx},{value:.12g}\n")

    flows_path = out / "boundary_flows.csv"
    with flows_path.open("w", encoding="utf-8") as fh:
        fh.write("step,road_id,class,flow\n")
        for rec in log.records:
            for idx, value in enumerate(rec.flows):
                cls = "inlet" if idx < log.n_inlets else "outlet"
                fh.write(f"{rec.step},{idx + 1},{cls},{value:.12g}\n")

    return {
        "run_summary": summary_path,
        "densities": densities_path,
        "boundary_flows": flows_path,
    }


def spectral_radius_estimate(a: np.ndarray, iters: int = 300) -> float:
    """Power-iteration estimate of the spectral radius of a nonnegative matrix.

    Runs the iteration from a positive start vector and returns the
    geometric mean of the per-step l1 growth ratios over the second half of
    the run, which is robust to the oscillations of periodic structures.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 0:
        return 0.0
    v = np.full(n, 1.0 / n)
    ratios = []
    for _ in range(iters):
        w = np.abs(a @ v)
        total = w.sum()
        if total <= 1e-300:
            return 0.0
        ratios.append(total)
        v = w / total
    tail = ratios[len(ratios) // 2 :]
    return float(np.exp(np.mean(np.log(tail))))


def bibo_bound(z_max: float, n_interior: int, r: float) -> float:
    """Bound on the squared density norm under inputs bounded by ``z_max``.

    For a contraction factor r < 1 the squared l2 norm of the state stays
    below z_max**2 * n_interior / (1 - r) for all time.
    """
    if z_max < 0:
        raise ValueError(f"z_max must be nonnegative, got {z_max}")
    if n_interior < 0:
        raise ValueError(f"n_interior must be nonnegative, got {n_interior}")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"contraction factor must lie in [0, 1), got {r}")
    return z_max**2 * n_interior / (1.0 - r)


def iterate_prediction(a: np.ndarray, b: np.ndarray, x0: np.ndarray, controls) -> np.ndarray:
    """Stacked predicted states from explicit one-step iteration."""
    x = np.asarray(x0, dtype=float).copy()
    out = []
    for s in controls:
        x = a @ x + b @ np.asarray(s, dtype=float)
        out.append(x.copy())
    return np.concatenate(out)


def enumerate_qp(problem: QpProblem, feas_tol: float = 1e-7) -> np.ndarray | None:
    """Reference QP solution by enumerating candidate active sets.

    For every subset of inequality rows, solve the equality-constrained
    first-order system with those rows tight, then keep the feasible
    candidate with nonnegative multipliers and minimal cost. Intended for
    small problems only.
    """
    hess, lin = problem.hessian, problem.linear
    a, b = problem.eq_matrix, problem.eq_rhs
    g, h = problem.ineq_matrix, problem.ineq_rhs
    n = problem.n_variables
    m_eq, m_i = a.shape[0], g.shape[0]

    best = None
    best_cost = np.inf
    for size in range(m_i + 1):
        for subset in itertools.combinations(range(m_i), size):
            rows = np.vstack([a, g[list(subset)]]) if (m_eq or subset) else np.zeros((0, n))
            rhs_rows = np.concatenate([b, h[list(subset)]])
            m = rows.shape[0]
            kkt = np.block([[hess, rows.T], [rows, np.zeros((m, m))]])
            rhs = np.concatenate([-lin, rhs_rows])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            if np.abs(kkt @ sol - rhs).max(initial=0.0) > 1e-7:
                continue
            u = sol[:n]
            lam = sol[n + m_eq :]
            if m_i and (g @ u - h).max(initial=0.0) > feas_tol:
                continue
            if m_eq and np.abs(a @ u - b).max(initial=0.0) > feas_tol:
                continue
            if lam.size and lam.min(initial=0.0) < -1e-7:
                continue
            cost = 0.5 * u @ hess @ u + lin @ u
            if cost < best_cost - 1e-12:
                best, best_cost = u, cost
    return best


def random_feasible_qp(
    rng: np.random.Generator,
    n_max: int = 6,
    m_ineq_max: int = 4,
    identity_hessian: bool = False,
) -> QpProblem:
    """Random QP that is feasible by construction (a witness point exists)."""
    n = int(rng.integers(2, n_max + 1))
    m_eq = int(rng.integers(0, min(2, n - 1) + 1))
    m_i = int(rng.integers(0, m_ineq_max + 1))

    if identity_hessian:
        hess = np.eye(n)
    else:
        m = rng.normal(size=(n, n))
        hess = m.T @ m + 0.5 * np.eye(n)
    lin = rng.normal(size=n)

    witness = rng.uniform(-1.0, 1.0, size=n)
    if m_eq:
        while True:
            a = rng.normal(size=(m_eq, n))
            if np.linalg.matrix_rank(a) == m_eq:
                break
        b = a @ witness
    else:
        a, b = None, None
    if m_i:
        g = rng.normal(size=(m_i, n))
        slack = rng.uniform(0.0, 1.0, size=m_i)
        slack[rng.random(m_i) < 0.3] = 0.0  # some rows tight at the witness
        h = g @ witness + slack
    else:
        g, h = None, None
    return QpProblem(hess, lin, a, b, g, h)
