"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np

from noirsim.dynamics import (
    TrafficState,
    assemble_input_matrix,
    assemble_state_matrix,
    sample_matrices,
    step,
)
from noirsim.formats import document_from_graph, parse_network, serialize_network
from noirsim.graph import RoadClass
from noirsim.harness import (
    SimConfig,
    emit_report,
    generate_grid_noir,
    philadelphia_noir,
    run_simulation,
)
from noirsim.mpc import build_prediction
from noirsim.qp import QpProblem, SolveStatus, solve_qp

from helpers import (
    bibo_bound,
    enumerate_qp,
    iterate_prediction,
    random_feasible_qp,
    random_valid_grid,
    spectral_radius_estimate,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_state_matrix_properties():
    """1,000 sampled state matrices on 20 random grids: nonnegative entries,
    column-sum trichotomy within 1e-12, contraction estimate below 1."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    failures = []
    samples = 0
    for g_idx in range(20):
        g = random_valid_grid(rng)
        outlet_adjacent = np.array(
            [
                any(g.road_class(t) is RoadClass.OUTLET for t in g.out_neighbors(i))
                for i in g.interior_ids
            ]
        )
        for s_idx in range(50):
            state = TrafficState(rng.uniform(0.1, 30.0, size=g.n_interior))
            probs, fractions = sample_matrices(rng, g, state)
            a = assemble_state_matrix(probs, fractions).toarray()
            samples += 1
            if not (a >= 0.0).all():
                failures.append(f"graph {g_idx} sample {s_idx}: negative entry")
                continue
            col = a.sum(axis=0)
            ok_closed = np.all(np.abs(col[~outlet_adjacent] - 1.0) <= 1e-12)
            ok_open = np.all((col[outlet_adjacent] > 0.0) & (col[outlet_adjacent] < 1.0))
            if not (ok_closed and ok_open):
                failures.append(f"graph {g_idx} sample {s_idx}: column sums broke trichotomy")
                continue
            if spectral_radius_estimate(a) >= 1.0:
                failures.append(f"graph {g_idx} sample {s_idx}: radius >= 1")
    elapsed = time.perf_counter() - start
    ok = not failures and samples == 1000 and elapsed < 10.0
    _report(
        "criterion-1",
        ok,
        f"{samples} samples, {len(failures)} failures, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_bounded_trajectories():
    """50 random 150-step runs with bounded inputs stay below the squared-norm
    bound computed from the run's product-column-sum contraction estimate."""
    rng = np.random.default_rng(2002)
    start = time.perf_counter()
    violations = 0
    for _ in range(50):
        g = random_valid_grid(rng)
        b = assemble_input_matrix(g)
        state = TrafficState(rng.uniform(0.0, 20.0, size=g.n_interior))
        z_terms = [float(np.abs(state.densities).max())]
        gamma = np.eye(g.n_interior)
        norms = [float(state.densities @ state.densities)]
        for k in range(150):
            probs, fractions = sample_matrices(rng, g, state)
            a = assemble_state_matrix(probs, fractions)
            s = rng.uniform(0.0, 1.5, size=g.n_boundary)
            z_terms.append(float(np.abs(b @ s).max()))
            state = step(state, a, b, s)
            if k == 0:
                z_terms.append(float(np.abs(state.densities).max()))
            gamma = a @ gamma
            norms.append(float(state.densities @ state.densities))
        max_col = float(gamma.sum(axis=0).max())
        r = max_col ** (1.0 / 150.0) if max_col > 0.0 else 0.0
        bound = bibo_bound(max(z_terms), g.n_interior, r)
        violations += sum(1 for n in norms if n > bound)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    _report("criterion-2", ok, f"{violations} violations over 50 runs, {elapsed:.1f}s (< 30s)")


def test_criterion_3_autonomous_nonnegativity():
    """10,000 randomized autonomous updates keep the state exactly nonnegative."""
    rng = np.random.default_rng(3003)
    start = time.perf_counter()
    bad = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        p = rng.uniform(0.0, 1.0, size=n)
        p[rng.random(n) < 0.1] = 0.0
        q = rng.uniform(0.0, 1.0, size=(n, n))
        x = rng.uniform(0.0, 100.0, size=n)
        x[rng.random(n) < 0.15] = 0.0
        a = assemble_state_matrix(p, q)
        if not (a @ x >= 0.0).all():
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 5.0
    _report("criterion-3", ok, f"{bad} negative results in 10000 instances, {elapsed:.1f}s (< 5s)")


def test_criterion_4_qp_correctness():
    """Exact minimum-norm example, agreement with the enumeration oracle on
    200 random problems, and KKT residuals at most 1e-8 on every solve."""
    start = time.perf_counter()
    problem = QpProblem(
        np.eye(2), np.zeros(2), [[1.0, 1.0]], [100.0], -np.eye(2), np.zeros(2)
    )
    sol = solve_qp(problem)
    exact_ok = (
        sol.status is SolveStatus.OPTIMAL
        and abs(sol.u_star[0] - 50.0) <= 1e-9
        and abs(sol.u_star[1] - 50.0) <= 1e-9
    )

    rng = np.random.default_rng(4004)
    oracle_misses = 0
    kkt_misses = 0
    for trial in range(200):
        p = random_feasible_qp(rng, identity_hessian=trial % 2 == 0)
        s = solve_qp(p)
        if s.status is not SolveStatus.OPTIMAL or not s.kkt.within(1e-8):
            kkt_misses += 1
            continue
        reference = enumerate_qp(p)
        if reference is None or np.abs(s.u_star - reference).max() > 1e-8:
            oracle_misses += 1
    elapsed = time.perf_counter() - start
    ok = exact_ok and oracle_misses == 0 and kkt_misses == 0 and elapsed < 20.0
    _report(
        "criterion-4",
        ok,
        f"exact example {'ok' if exact_ok else 'bad'}, {oracle_misses} oracle misses, "
        f"{kkt_misses} kkt misses over 200 problems, {elapsed:.1f}s (< 20s)",
    )


def test_criterion_5_prediction_consistency():
    """Stacked prediction equals explicit step-by-step iteration to 1e-10."""
    rng = np.random.default_rng(5005)
    worst = 0.0
    for trial in range(100):
        n_tau = trial % 6 + 1
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a /= max(1.0, np.abs(np.linalg.eigvals(a)).max() * 1.1)
        b = rng.uniform(-1.0, 1.0, size=(n, m))
        x = rng.uniform(0.0, 10.0, size=n)
        controls = rng.uniform(0.0, 5.0, size=(n_tau, m))
        pm = build_prediction(a, b, n_tau)
        stacked = pm.G @ x + pm.H @ controls.reshape(-1)
        expected = iterate_prediction(a, b, x, controls)
        worst = max(worst, float(np.abs(stacked - expected).max()))
    ok = worst <= 1e-10
    _report("criterion-5", ok, f"max deviation {worst:.2e} over 100 tuples (<= 1e-10)")


def test_criterion_6_city_scale_closed_loop():
    """Preset network, demand 100, 150 steps, horizon 5, seeds 1-3: the
    boundary split settles into [40, 60] after step 30, the per-step budget
    holds to 1e-6, and the monitored density level stabilizes."""
    graph = philadelphia_noir(seed=1)
    problems = []
    for seed in (1, 2, 3):
        start = time.perf_counter()
        log = run_simulation(graph, SimConfig(steps=150, seed=seed))
        elapsed = time.perf_counter() - start
        if elapsed >= 120.0:
            problems.append(f"seed {seed}: runtime {elapsed:.0f}s")
        for rec in log.records:
            if rec.step > 30 and not (40.0 <= rec.sum_u <= 60.0 and 40.0 <= rec.sum_v <= 60.0):
                problems.append(f"seed {seed} step {rec.step}: split {rec.sum_u:.2f}/{rec.sum_v:.2f}")
            if rec.status == "optimal":
                budget = rec.d0_applied if rec.fallback_used else 100.0
                if abs(rec.sum_u + rec.sum_v - budget) > 1e-6:
                    problems.append(f"seed {seed} step {rec.step}: budget off")
        totals = np.array([rec.total_density for rec in log.records])
        first_half = float(totals[100:125].mean())
        second_half = float(totals[125:150].mean())
        change = abs(second_half - first_half) / abs(first_half)
        if change >= 0.02:
            problems.append(f"seed {seed}: density level changed {change:.1%} over final 50 steps")
    ok = not problems
    _report("criterion-6", ok, "; ".join(problems) if problems else "3 seeds within bands, budgets, stability")


def test_criterion_7_determinism_and_io(tmp_path):
    """Identical seeds give byte-identical summaries; network file round-trips
    are byte-identical on both presets."""
    g = generate_grid_noir(4, 4, 4, 4, seed=2)
    cfg = SimConfig(steps=10, seed=3, d0=12.0)
    p1 = emit_report(run_simulation(g, cfg), tmp_path / "a")
    p2 = emit_report(run_simulation(g, cfg), tmp_path / "b")
    summaries_match = (
        p1["run_summary"].read_bytes() == p2["run_summary"].read_bytes()
        and p1["densities"].read_bytes() == p2["densities"].read_bytes()
        and p1["boundary_flows"].read_bytes() == p2["boundary_flows"].read_bytes()
    )

    round_trips = True
    for preset_graph in (generate_grid_noir(4, 4, 4, 4, seed=0), philadelphia_noir(seed=0)):
        blob = serialize_network(document_from_graph(preset_graph))
        round_trips = round_trips and serialize_network(parse_network(blob)) == blob

    ok = summaries_match and round_trips
    _report(
        "criterion-7",
        ok,
        f"summaries byte-identical: {summaries_match}, preset round-trips byte-identical: {round_trips}",
    )
