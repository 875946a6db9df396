import numpy as np
import pytest

from noirsim.dynamics import (
    TrafficState,
    assemble_input_matrix,
    assemble_state_matrix,
    sample_matrices,
    step,
)
from noirsim.mpc import MpcConfig, build_prediction, build_qp, control_step
from noirsim.qp import SolveStatus, solve_qp

from helpers import chain_graph, iterate_prediction, tiny_graph


def chain_ab(p_values=(0.5, 0.5)):
    """State and input matrices of the chain network: road 4 routes all of
    its outflow to road 3, which drains to the outlet."""
    a = assemble_state_matrix(
        np.array(p_values, dtype=float), np.array([[0.0, 1.0], [0.0, 0.0]])
    )
    return a, assemble_input_matrix(chain_graph())


class TestMpcConfig:
    def test_rejects_infinite_demand(self):
        for d0 in (np.inf, np.nan):
            with pytest.raises(ValueError, match="d0"):
                MpcConfig(d0=d0, x_max=np.array([60.0, 60.0]))

    def test_rejects_infinite_capacity(self):
        with pytest.raises(ValueError, match="x_max"):
            MpcConfig(d0=100.0, x_max=np.array([np.inf, 60.0]))


class TestBuildPrediction:
    def test_single_step_horizon(self):
        a = np.array([[0.5, 0.5], [0.0, 0.5]])
        b = np.array([[0.0, -1.0], [1.0, 0.0]])
        pm = build_prediction(a, b, 1)
        assert np.array_equal(pm.G, a)
        assert np.array_equal(pm.H, b)

    def test_identity_dynamics(self):
        b = np.array([[1.0], [-1.0]])
        pm = build_prediction(np.eye(2), b, 3)
        for r in range(3):
            for c in range(r + 1):
                block = pm.H[r * 2 : (r + 1) * 2, c : c + 1]
                assert np.array_equal(block, b)

    def test_matches_iteration_oracle(self):
        rng = np.random.default_rng(2)
        a = np.array([[0.5, 0.5], [0.0, 0.5]])
        b = np.array([[0.0, -1.0], [1.0, 0.0]])
        pm = build_prediction(a, b, 3)
        for _ in range(10):
            x = rng.uniform(0.0, 5.0, size=2)
            controls = rng.uniform(0.0, 3.0, size=(3, 2))
            stacked = pm.G @ x + pm.H @ controls.reshape(-1)
            expected = iterate_prediction(a, b, x, controls)
            assert np.abs(stacked - expected).max() < 1e-10

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            build_prediction(np.eye(2), np.zeros((2, 1)), 0)


class TestBuildQp:
    def test_minimum_norm_split(self):
        g = tiny_graph()
        probs, fractions = np.zeros(1), np.zeros((1, 1))
        cfg = MpcConfig(d0=100.0, x_max=np.array([1e6]), n_tau=1)
        pm = build_prediction(assemble_state_matrix(probs, fractions), assemble_input_matrix(g), 1)
        problem = build_qp(pm, TrafficState(np.zeros(1)), cfg)
        sol = solve_qp(problem)
        assert sol.u_star == pytest.approx([50.0, 50.0], abs=1e-9)

    def test_equality_rows_sum_each_step_to_demand(self):
        a = np.array([[0.5, 0.5], [0.0, 0.5]])
        b = np.array([[0.0, -1.0], [1.0, 0.0]])
        pm = build_prediction(a, b, 3)
        cfg = MpcConfig(d0=100.0, x_max=np.array([50.0, 50.0]), n_tau=3)
        problem = build_qp(pm, TrafficState(np.zeros(2)), cfg)
        assert problem.eq_matrix.shape == (3, 6)
        assert np.array_equal(problem.eq_rhs, np.full(3, 100.0))
        u = np.arange(6, dtype=float)
        sums = problem.eq_matrix @ u
        assert sums == pytest.approx([0 + 1, 2 + 3, 4 + 5])

    def test_matches_grid_search_oracle(self):
        # chain network, horizon 2, capacities tight enough to bind
        a = np.array([[0.5, 0.5], [0.0, 0.5]])
        b = np.array([[0.0, -1.0], [1.0, 0.0]])
        pm = build_prediction(a, b, 2)
        x0 = np.array([5.0, 6.0])
        cfg = MpcConfig(d0=10.0, x_max=np.array([8.0, 9.0]), n_tau=2)
        problem = build_qp(pm, TrafficState(x0), cfg)
        sol = solve_qp(problem)
        assert sol.status is SolveStatus.OPTIMAL

        # dense enumeration over the two free variables (u per step; v = d0 - u)
        pitch = 10.0 / 400
        grid = np.arange(0.0, 10.0 + pitch / 2, pitch)
        best, best_cost = None, np.inf
        for u1 in grid:
            for u2 in grid:
                cand = np.array([u1, 10.0 - u1, u2, 10.0 - u2])
                if (problem.ineq_matrix @ cand - problem.ineq_rhs).max() > 1e-9:
                    continue
                cost = 0.5 * cand @ cand
                if cost < best_cost:
                    best, best_cost = cand, cost
        assert best is not None
        assert np.abs(sol.u_star - best).max() <= 2 * pitch

    def test_capacity_dimension_mismatch(self):
        a = np.eye(2)
        b = np.ones((2, 2))
        pm = build_prediction(a, b, 2)
        cfg = MpcConfig(d0=1.0, x_max=np.ones(3), n_tau=2)
        with pytest.raises(ValueError, match="capacity"):
            build_qp(pm, TrafficState(np.zeros(2)), cfg)

    def test_lower_bound_rows_appended(self):
        a = np.array([[0.5, 0.5], [0.0, 0.5]])
        b = np.array([[0.0, -1.0], [1.0, 0.0]])
        pm = build_prediction(a, b, 2)
        cfg_off = MpcConfig(d0=10.0, x_max=np.full(2, 100.0), n_tau=2)
        cfg_on = MpcConfig(
            d0=10.0, x_max=np.full(2, 100.0), n_tau=2, enforce_density_lower_bound=True
        )
        state = TrafficState(np.array([1.0, 1.0]))
        rows_off = build_qp(pm, state, cfg_off).ineq_matrix.shape[0]
        rows_on = build_qp(pm, state, cfg_on).ineq_matrix.shape[0]
        assert rows_on == rows_off + pm.n_tau * pm.n_state


class TestControlStep:
    def test_empty_network_spreads_demand_evenly(self):
        a, b = chain_ab()
        cfg = MpcConfig(d0=100.0, x_max=np.full(2, 1e6), n_tau=3)
        s, diag = control_step(TrafficState(np.zeros(2)), a, b, cfg)
        assert diag.status is SolveStatus.OPTIMAL
        assert s == pytest.approx([50.0, 50.0], abs=1e-8)

    def test_city_scale_even_split(self):
        # 42 boundary roads at demand 100: every entry is 100/42
        from noirsim.harness import philadelphia_noir

        g = philadelphia_noir(seed=0)
        rng = np.random.default_rng(0)
        state = TrafficState(np.zeros(g.n_interior))
        a = assemble_state_matrix(*sample_matrices(rng, g, state))
        cfg = MpcConfig(d0=100.0, x_max=np.full(g.n_interior, 1e6), n_tau=5)
        s, diag = control_step(state, a, assemble_input_matrix(g), cfg)
        assert diag.status is SolveStatus.OPTIMAL
        assert s == pytest.approx(np.full(42, 100.0 / 42.0), abs=1e-6)
        assert s[0] == pytest.approx(2.381, abs=1e-3)

    def test_returned_flow_contract(self):
        g = chain_graph()
        rng = np.random.default_rng(5)
        state = TrafficState(np.array([3.0, 4.0]))
        a = assemble_state_matrix(*sample_matrices(rng, g, state))
        b = assemble_input_matrix(g)
        cfg = MpcConfig(d0=8.0, x_max=np.array([60.0, 60.0]), n_tau=4)
        s, diag = control_step(state, a, b, cfg)
        assert diag.status is SolveStatus.OPTIMAL
        assert (s >= 0.0).all()
        assert abs(s.sum() - 8.0) <= 1e-6
        # predicted densities respect capacity across the horizon
        pm = build_prediction(a, b, 4)
        problem = build_qp(pm, state, cfg)
        sol = solve_qp(problem, initial_point=None)
        predicted = pm.G @ state.densities + pm.H @ sol.u_star
        assert (predicted <= np.tile(cfg.x_max, 4) + 1e-6).all()

    def test_demand_scaling_homogeneity(self):
        a, b = chain_ab()
        state = TrafficState(np.zeros(2))
        base_cfg = MpcConfig(d0=10.0, x_max=np.full(2, 1e9), n_tau=2)
        s1, _ = control_step(state, a, b, base_cfg)
        scaled_cfg = MpcConfig(d0=30.0, x_max=np.full(2, 1e9), n_tau=2)
        s3, _ = control_step(state, a, b, scaled_cfg)
        assert s3 == pytest.approx(3.0 * s1, abs=1e-8)

    def test_infeasible_demand_falls_back_by_bisection(self):
        # with the density lower bound on, outlet draws are limited by the
        # vehicles actually present, so a huge demand must relax downward
        a, b = chain_ab(p_values=(0.2, 0.2))
        state = TrafficState(np.array([0.5, 0.5]))
        cfg = MpcConfig(
            d0=100.0,
            x_max=np.array([6.0, 6.0]),
            n_tau=1,
            enforce_density_lower_bound=True,
        )
        s, diag = control_step(state, a, b, cfg)
        assert diag.fallback_used
        assert diag.status is SolveStatus.OPTIMAL
        assert 0.0 < diag.d0_applied < 100.0
        assert s.sum() == pytest.approx(diag.d0_applied, abs=1e-6)

    def test_fallback_builds_the_program_once(self, monkeypatch):
        # the bisection above solves ten probes of one program, which differ
        # only in the right-hand side of the equality rows
        import noirsim.mpc as mpc

        built, solved = [], []

        def counting_build(*args):
            built.append(build_qp(*args))
            return built[-1]

        def recording_solve(problem, **kwargs):
            solved.append(problem)
            return solve_qp(problem, **kwargs)

        monkeypatch.setattr(mpc, "build_qp", counting_build)
        monkeypatch.setattr(mpc, "solve_qp", recording_solve)
        a, b = chain_ab(p_values=(0.2, 0.2))
        cfg = MpcConfig(
            d0=100.0, x_max=np.array([6.0, 6.0]), n_tau=1, enforce_density_lower_bound=True
        )
        _, diag = control_step(TrafficState(np.array([0.5, 0.5])), a, b, cfg)
        assert diag.fallback_used
        assert len(built) == 1
        assert len(solved) == 10
        assert [p.eq_rhs[0] for p in solved[:2]] == [100.0, 0.0]
        for probe in solved:
            assert probe.ineq_matrix is built[0].ineq_matrix
            assert probe.ineq_rhs is built[0].ineq_rhs

    def test_totally_infeasible_reports_zero_flow(self):
        # state already above capacity: no boundary flow can fix it
        a, b = chain_ab(p_values=(0.0, 0.0))
        state = TrafficState(np.array([10.0, 10.0]))
        cfg = MpcConfig(d0=5.0, x_max=np.array([2.0, 2.0]), n_tau=1)
        s, diag = control_step(state, a, b, cfg)
        assert diag.status is SolveStatus.INFEASIBLE
        assert not diag.fallback_used
        assert np.array_equal(s, np.zeros(2))

    def test_lower_bound_keeps_outlet_feeder_nonnegative(self):
        a, b = chain_ab(p_values=(0.5, 0.5))
        state = TrafficState(np.array([0.2, 5.0]))  # road 3 nearly empty
        cfg = MpcConfig(
            d0=50.0,
            x_max=np.full(2, 1e6),
            n_tau=2,
            enforce_density_lower_bound=True,
        )
        s, diag = control_step(state, a, b, cfg)
        assert diag.status is SolveStatus.OPTIMAL
        nxt = step(state, a, b, s)
        assert (nxt.densities >= -1e-8).all()
