import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from scipy.optimize import linprog

from noirsim.dynamics import (
    PatternMatrix,
    TrafficState,
    assemble_input_matrix,
    assemble_state_matrix,
    sample_matrices,
    step,
)
from noirsim.harness import SimConfig, philadelphia_noir, run_simulation
from noirsim.mpc import (
    MpcConfig,
    _horizon_reach,
    _in_full_rows,
    _outlets_only,
    _presolve,
    build_prediction,
    build_qp,
    control_step,
)
from noirsim.qp import QpSolution, SolveStatus, feasibility_limit, kkt_residuals, solve_qp

from noirsim.graph import RoadClass, build_graph

from helpers import ATTR, chain_graph, iterate_prediction, random_valid_grid, tiny_graph


def chain_ab(p_values=(0.5, 0.5)):
    """State and input matrices of the chain network: road 4 routes all of
    its outflow to road 3, which drains to the outlet."""
    a = assemble_state_matrix(
        np.array(p_values, dtype=float), np.array([[0.0, 1.0], [0.0, 0.0]])
    )
    return a, assemble_input_matrix(chain_graph())


def prediction_rhs(free, cfg):
    """The prediction rows' right-hand side for the free responses ``free``,
    in ``build_qp``'s order: ``x_max - free``, then ``free`` under the lower
    bound."""
    blocks = [cfg.x_max - free] + ([free] if cfg.enforce_density_lower_bound else [])
    return np.concatenate(blocks).ravel()


def reference_program(a, b, x, cfg):
    """The full program built from ``build_prediction``'s dense G and H, the
    reference for the program that ``control_step`` builds from its roll."""
    pm = build_prediction(a, b, cfg.n_tau)
    free = (pm.G @ x).reshape(cfg.n_tau, pm.n_state)
    column = pm.H[:, : pm.n_input].reshape(cfg.n_tau, pm.n_state, pm.n_input)
    return build_qp(column, prediction_rhs(free, cfg), cfg)


class TestMpcConfig:
    def test_rejects_infinite_demand(self):
        for d0 in (np.inf, np.nan):
            with pytest.raises(ValueError, match="d0"):
                MpcConfig(d0=d0, x_max=np.array([60.0, 60.0]))

    def test_rejects_infinite_capacity(self):
        with pytest.raises(ValueError, match="x_max"):
            MpcConfig(d0=100.0, x_max=np.array([np.inf, 60.0]))

    def test_row_catalogue(self):
        # capacity rows, then under the lower bound nonnegativity rows; the
        # catalogue is read-only and rebuilt whenever a config is replaced
        cfg = MpcConfig(d0=10.0, x_max=np.array([6.0, 8.0]))
        assert cfg.row_sign.ravel().tolist() == [1.0]
        assert cfg.row_limit.reshape(-1, 2).tolist() == [[6.0, 8.0]]
        on = replace(cfg, enforce_density_lower_bound=True)
        assert on.row_sign.ravel().tolist() == [1.0, -1.0]
        assert on.row_limit.reshape(-1, 2).tolist() == [[6.0, 8.0], [0.0, 0.0]]
        wider = replace(on, x_max=np.array([7.0, 9.0]))
        assert wider.row_limit.reshape(-1, 2).tolist() == [[7.0, 9.0], [0.0, 0.0]]
        for array in (on.x_max, on.row_sign, on.row_limit):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


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
        a = assemble_state_matrix(probs, fractions)
        problem = reference_program(a, assemble_input_matrix(g), np.zeros(1), cfg)
        sol = solve_qp(problem)
        assert sol.u_star == pytest.approx([50.0, 50.0], abs=1e-9)

    def test_equality_rows_sum_each_step_to_demand(self):
        a = np.array([[0.5, 0.5], [0.0, 0.5]])
        b = np.array([[0.0, -1.0], [1.0, 0.0]])
        cfg = MpcConfig(d0=100.0, x_max=np.array([50.0, 50.0]), n_tau=3)
        problem = reference_program(a, b, np.zeros(2), cfg)
        assert problem.eq_matrix.shape == (3, 6)
        assert np.array_equal(problem.eq_rhs, np.full(3, 100.0))
        # every program of a run shares these rows and the cost
        shared_blocks = (
            problem.hessian, problem.eq_matrix, problem.hessian_factor, problem.hessian_factor_inv
        )
        for shared in shared_blocks:
            with pytest.raises(ValueError, match="read-only"):
                shared[0, 0] = 2.0
        u = np.arange(6, dtype=float)
        sums = problem.eq_matrix @ u
        assert sums == pytest.approx([0 + 1, 2 + 3, 4 + 5])

    def test_cost_is_kept_as_vectors(self):
        # the identity hessian of 0.5 * ||U||^2 and both of its factors are
        # 1-D, n_tau * n_input entries of 1.0
        import noirsim.mpc as mpc

        program = mpc._cost_and_budget(5, 42)
        for kept in (program.hessian, program.hessian_factor, program.hessian_factor_inv):
            assert kept.shape == (210,)
            assert kept.tobytes() == np.ones(210).tobytes()

    def test_matches_grid_search_oracle(self):
        # chain network, horizon 2, capacities tight enough to bind
        a = np.array([[0.5, 0.5], [0.0, 0.5]])
        b = np.array([[0.0, -1.0], [1.0, 0.0]])
        x0 = np.array([5.0, 6.0])
        cfg = MpcConfig(d0=10.0, x_max=np.array([8.0, 9.0]), n_tau=2)
        problem = reference_program(a, b, x0, cfg)
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

    def test_lower_bound_rows_appended(self):
        a = np.array([[0.5, 0.5], [0.0, 0.5]])
        b = np.array([[0.0, -1.0], [1.0, 0.0]])
        cfg_off = MpcConfig(d0=10.0, x_max=np.full(2, 100.0), n_tau=2)
        cfg_on = MpcConfig(
            d0=10.0, x_max=np.full(2, 100.0), n_tau=2, enforce_density_lower_bound=True
        )
        x = np.array([1.0, 1.0])
        rows_off = reference_program(a, b, x, cfg_off).ineq_matrix.shape[0]
        rows_on = reference_program(a, b, x, cfg_on).ineq_matrix.shape[0]
        assert rows_on == rows_off + cfg_on.n_tau * 2

    @pytest.mark.parametrize("lower_bound", [False, True])
    def test_roll_matches_the_dense_reference(self, lower_bound):
        # the program built from the sparse roll and the one built from
        # build_prediction's dense powers agree row for row
        g = philadelphia_noir(seed=1)
        cfg = MpcConfig(
            d0=1000.0, x_max=g.capacity_vector(), n_tau=5, enforce_density_lower_bound=lower_bound
        )
        self.check_roll_against_the_dense_reference(g, cfg, np.random.default_rng(3))

    # grid 0 has 31 interior roads and 12 boundary roads; grids 11 (4 and
    # 6) and 12 (17 and 20) have more boundary roads than interior roads
    @pytest.mark.parametrize("lower_bound", [False, True])
    @pytest.mark.parametrize("grid_seed", [0, 11, 12])
    def test_roll_matches_the_dense_reference_on_grids(self, grid_seed, lower_bound):
        g = random_valid_grid(np.random.default_rng(grid_seed))
        x_max = g.capacity_vector()
        cfg = MpcConfig(
            d0=5.0 * float(x_max.mean()),
            x_max=x_max,
            n_tau=4,
            enforce_density_lower_bound=lower_bound,
        )
        self.check_roll_against_the_dense_reference(g, cfg, np.random.default_rng(grid_seed))

    @staticmethod
    def check_roll_against_the_dense_reference(g, cfg, rng):
        b = assemble_input_matrix(g)
        for _ in range(4):
            x = rng.uniform(0.0, 0.6 * cfg.x_max)
            a = assemble_state_matrix(*sample_matrices(rng, g, TrafficState(x)))
            roll = _horizon_reach(x, a, b, cfg)
            pm = build_prediction(a, b, cfg.n_tau)
            scale = 1.0 + np.abs(x).max()
            free = (pm.G @ x).reshape(cfg.n_tau, -1)
            assert np.abs(roll.rhs - prediction_rhs(free, cfg)).max() <= 1e-12 * scale
            built = build_qp(roll.column, roll.rhs, cfg)
            reference = reference_program(a, b, x, cfg)
            assert built.ineq_matrix.shape == reference.ineq_matrix.shape
            assert np.abs(built.ineq_matrix - reference.ineq_matrix).max() <= 1e-12
            assert np.abs(built.ineq_rhs - reference.ineq_rhs).max() <= 1e-12 * scale
            assert np.array_equal(built.eq_matrix, reference.eq_matrix)
            # the rows themselves are -I, H and, under the lower bound, -H of
            # the dense model, not only the same assembly of other blocks
            n = cfg.n_tau * pm.n_input
            blocks = [pm.H, -pm.H] if cfg.enforce_density_lower_bound else [pm.H]
            assert np.abs(built.ineq_matrix - np.vstack([-np.eye(n), *blocks])).max() <= 1e-12

    def test_kept_rows_are_rows_of_the_full_program(self):
        rng = np.random.default_rng(4)
        n_state, n_input = 4, 2
        for n_tau in (3, 1):
            free = rng.uniform(0.0, 5.0, (n_tau, n_state))
            column = rng.uniform(-1.0, 1.0, (n_tau, n_state, n_input))
            cfg = MpcConfig(
                d0=10.0, x_max=np.full(n_state, 20.0), n_tau=n_tau, enforce_density_lower_bound=True
            )
            full = build_qp(column, prediction_rhs(free, cfg), cfg)
            n, size = n_tau * n_input, full.ineq_rhs.size
            # every row group of horizon step n_tau // 2 (both blocks)
            step = n + (np.arange(2)[:, None] * n_tau + n_tau // 2) * n_state + np.arange(n_state)
            fixed = [
                np.arange(n),  # flow signs only: every prediction group is empty
                np.setdiff1d(np.arange(size), step),
                np.arange(n + n_tau * n_state, size),  # lower-bound rows only
            ]
            randoms = [np.flatnonzero(rng.random(size) < 0.5) for _ in range(10)]
            for rows in fixed + randoms:
                kept = build_qp(column, prediction_rhs(free, cfg), cfg, rows)
                assert np.array_equal(kept.ineq_matrix, full.ineq_matrix[rows])
                assert np.array_equal(kept.ineq_rhs, full.ineq_rhs[rows])


class TestControlStep:
    def test_empty_network_spreads_demand_evenly(self):
        a, b = chain_ab()
        cfg = MpcConfig(d0=100.0, x_max=np.full(2, 1e6), n_tau=3)
        s, diag = control_step(TrafficState(np.zeros(2)), a, b, cfg)
        assert diag.solution.status is SolveStatus.OPTIMAL
        assert s == pytest.approx([50.0, 50.0], abs=1e-8)

    def test_city_scale_even_split(self):
        # 42 boundary roads at demand 100: every entry is 100/42
        g = philadelphia_noir(seed=0)
        rng = np.random.default_rng(0)
        state = TrafficState(np.zeros(g.n_interior))
        a = assemble_state_matrix(*sample_matrices(rng, g, state))
        cfg = MpcConfig(d0=100.0, x_max=np.full(g.n_interior, 1e6), n_tau=5)
        s, diag = control_step(state, a, assemble_input_matrix(g), cfg)
        assert diag.solution.status is SolveStatus.OPTIMAL
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
        assert diag.solution.status is SolveStatus.OPTIMAL
        assert (s >= 0.0).all()
        assert abs(s.sum() - 8.0) <= 1e-6
        # predicted densities respect capacity across the horizon
        pm = build_prediction(a, b, 4)
        problem = reference_program(a, b, state.densities, cfg)
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
        assert diag.solution.status is SolveStatus.OPTIMAL
        assert 0.0 < diag.d0_applied < 100.0
        assert s.sum() == pytest.approx(diag.d0_applied, abs=1e-6)

    def test_fallback_builds_the_program_once(self, monkeypatch):
        # the bisection above solves ten probes of one program, which differ
        # only in the right-hand side of the equality rows; the cost and the
        # budget rows are factored once for every step and every probe. Phase
        # one builds its own program, with an identity hessian over one more
        # column, once per call; those factorizations are counted apart. Both
        # hessians are diagonals, kept 1-D
        import noirsim.mpc as mpc
        import noirsim.qp as qp

        built, solved, starts, factored, lps, in_lps = [], [], [], [], [], []
        linprog, factor_hessian = qp.linprog, qp._factor_hessian

        def counting_linprog(*args, **kwargs):
            lps.append(True)
            try:
                return linprog(*args, **kwargs)
            finally:
                lps[-1] = False

        def counting_build(*args):
            built.append(build_qp(*args))
            return built[-1]

        def recording_solve(problem, **kwargs):
            solved.append(problem)
            starts.append(kwargs["initial_point"])
            return solve_qp(problem, **kwargs)

        def counting_factor(h):
            (in_lps if lps and lps[-1] else factored).append(h.shape)
            return factor_hessian(h)

        monkeypatch.setattr(mpc, "build_qp", counting_build)
        monkeypatch.setattr(mpc, "solve_qp", recording_solve)
        monkeypatch.setattr(qp, "_factor_hessian", counting_factor)
        monkeypatch.setattr(qp, "linprog", counting_linprog)
        mpc._cost_and_budget.cache_clear()
        a, b = chain_ab(p_values=(0.2, 0.2))
        cfg = MpcConfig(
            d0=100.0, x_max=np.array([6.0, 6.0]), n_tau=1, enforce_density_lower_bound=True
        )
        _, diag = control_step(TrafficState(np.array([0.5, 0.5])), a, b, cfg)
        assert diag.fallback_used
        assert len(built) == 1
        assert len(solved) == 10
        assert [p.eq_rhs[0] for p in solved[:2]] == [100.0, 0.0]
        for probe, start in zip(solved, starts):
            assert probe.ineq_matrix is built[0].ineq_matrix
            assert probe.ineq_rhs is built[0].ineq_rhs
            assert probe.hessian_factor is built[0].hessian_factor
            assert probe.eq_factor is built[0].eq_factor
            # each probe starts from its own demand, all of it on the outlet
            assert np.array_equal(start, [0.0, probe.eq_rhs[0]])
        # a second step builds its own program on the same factors
        _, diag = control_step(TrafficState(np.array([0.4, 0.6])), a, b, cfg)
        assert diag.fallback_used
        assert len(built) == 2
        assert built[1].hessian_factor is built[0].hessian_factor
        assert factored == [(2,)]
        assert lps and in_lps == [(3,)] * len(lps)

    @pytest.mark.parametrize("lower_bound", [False, True])
    def test_totally_infeasible_reports_zero_flow(self, monkeypatch, lower_bound):
        # state already above capacity: no boundary flow can fix it. Against
        # a capacity of 2, road 3 can shed at most d0 = 5 of its 10 vehicles
        # and road 4 only fills, so the closed-form check blocks both
        # capacity rows and the step runs no phase-one LP, under either bound:
        # no demand probe is made either
        import noirsim.qp as qp

        calls, linprog = [], qp.linprog

        def counting_linprog(*args, **kwargs):
            calls.append(kwargs)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(qp, "linprog", counting_linprog)
        a, b = chain_ab(p_values=(0.0, 0.0))
        state = TrafficState(np.array([10.0, 10.0]))
        cfg = MpcConfig(
            d0=5.0, x_max=np.array([2.0, 2.0]), n_tau=1, enforce_density_lower_bound=lower_bound
        )
        s, diag = control_step(state, a, b, cfg)
        assert diag.solution.status is SolveStatus.INFEASIBLE
        assert not diag.fallback_used
        assert diag.d0_applied == 0.0
        # the certificate reaches the caller and names both capacity rows
        # (rows 2 and 3: two flow-sign rows, then the capacities of roads 3 and 4)
        assert diag.solution.infeasible_ineq_rows == (2, 3)
        assert np.array_equal(s, np.zeros(2))
        assert len(calls) == 0

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
        assert diag.solution.status is SolveStatus.OPTIMAL
        nxt = step(state, a, b, s)
        assert (nxt.densities >= -1e-8).all()

    def test_lower_bound_program_ends_optimal(self, monkeypatch):
        # Three times the city preset's demand under the lower bound: the
        # program of the control call at state.step 29 (210 variables, 2,380
        # rows) once cycled to the iteration limit, dropping a flow-sign row
        # and re-adding it at a zero-length step although it depended on the
        # working rows. The rank test refuses such a row. The limit of 500
        # iterations ends a cycle quickly.
        import noirsim.harness as harness
        import noirsim.mpc as mpc

        class Reached(Exception):
            pass

        def stopping_control(state, *args):
            if state.step == 29:
                raise Reached(state, *args)
            return control_step(state, *args)

        monkeypatch.setattr(harness, "control_step", stopping_control)
        cfg = SimConfig(seed=2, d0=300, steps=30, enforce_density_lower_bound=True)
        with pytest.raises(Reached) as reached:
            harness.run_simulation(philadelphia_noir(seed=1), cfg)
        state, a, b, mpc_cfg = reached.value.args

        solved = []

        def limited_solve(problem, **kwargs):
            solved.append(problem)
            return solve_qp(problem, max_iter=500, **kwargs)

        monkeypatch.setattr(mpc, "solve_qp", limited_solve)
        _, diag = control_step(state, a, b, mpc_cfg)
        sol = diag.solution
        # the full program has 2,380 rows; the step holds only those that can bind
        assert solved[0].n_variables == 210 and solved[0].ineq_matrix.shape[0] < 2380
        assert sol.status is SolveStatus.OPTIMAL and not diag.fallback_used
        assert sol.kkt.worst() <= 1e-8
        full = reference_program(a, b, state.densities, mpc_cfg)
        assert full.ineq_matrix.shape == (2380, 210)
        # and its answer solves the full program
        kkt = kkt_residuals(full, sol.u_star, sol.eq_duals, sol.ineq_duals)
        assert kkt.worst() <= 1e-8


class TestEvenSplitFastPath:
    """The even split is returned without the dense model only when it breaks
    no row of the program that ``build_qp`` would build."""

    @pytest.mark.parametrize("lower_bound", [False, True])
    def test_certificate_holds_on_the_full_program(self, lower_bound):
        g = philadelphia_noir(seed=1)
        b = assemble_input_matrix(g)
        cfg = MpcConfig(
            d0=100.0,
            x_max=g.capacity_vector(),
            n_tau=5,
            enforce_density_lower_bound=lower_bound,
        )
        rng = np.random.default_rng(1)
        state = TrafficState(rng.uniform(0.12 * cfg.x_max, 0.2 * cfg.x_max))
        fast = 0
        for _ in range(8):
            a = assemble_state_matrix(*sample_matrices(rng, g, state))
            s, diag = control_step(state, a, b, cfg)
            sol = diag.solution
            if sol.n_iterations:  # the even split broke a row; the solver ran
                continue
            fast += 1
            assert sol.status is SolveStatus.OPTIMAL and sol.active_set == ()
            # the reported residuals are closed forms, equal to the ones taken
            # over every flow: u + nu cancels exactly, and each step's flows
            # sum as the split does
            s_bar = np.full(b.shape[1], cfg.d0 / b.shape[1])
            flows = sol.u_star.reshape(cfg.n_tau, -1)
            assert sol.kkt.stationarity == 0.0 == np.abs(flows + sol.eq_duals[:, None]).max()
            per_step = np.abs(flows.sum(axis=1) - cfg.d0).max()
            assert sol.kkt.primal_equality == abs(s_bar.sum() - cfg.d0) == per_step
            problem = reference_program(a, b, state.densities, cfg)
            kkt = kkt_residuals(problem, sol.u_star, sol.eq_duals, sol.ineq_duals)
            assert kkt.worst() <= 1e-8
            hint = np.full(problem.n_variables, cfg.d0 / b.shape[1])
            reference = solve_qp(problem, initial_point=hint)
            assert np.abs(s - reference.u_star[: b.shape[1]]).max() <= 1e-12
        # 8 of the 8 draws without the bound, 4 with it
        assert fast >= 4

    @pytest.mark.parametrize(
        "x_max, lower_bound",
        [
            # road 4 fills to 5, 7.5, 8.75, 9.375: only the last step exceeds 9
            ((100.0, 9.0), False),
            # road 3 drains to 13, 4, 0.75, -0.25: only the last step is negative
            ((100.0, 100.0), True),
        ],
    )
    def test_late_violation_falls_through_to_the_program(self, monkeypatch, x_max, lower_bound):
        import noirsim.mpc as mpc

        a, b = chain_ab()
        state = TrafficState(np.array([36.0, 0.0]))
        cfg = MpcConfig(
            d0=10.0, x_max=np.array(x_max), n_tau=4, enforce_density_lower_bound=lower_bound
        )
        problem = reference_program(a, b, state.densities, cfg)
        expected = solve_qp(problem, initial_point=np.full(problem.n_variables, 5.0))
        assert expected.status is SolveStatus.OPTIMAL and expected.active_set

        built = []

        def counting_build(*args):
            built.append(build_qp(*args))
            return built[-1]

        monkeypatch.setattr(mpc, "build_qp", counting_build)
        s, diag = control_step(state, a, b, cfg)
        assert len(built) == 1
        assert np.abs(s - expected.u_star[:2]).max() <= 1e-12
        assert diag.solution.active_set == expected.active_set

    def test_size_mismatch_is_reported_by_the_program(self):
        # one capacity for two roads would broadcast in the rolled check
        a, b = chain_ab()
        cfg = MpcConfig(d0=10.0, x_max=np.array([1e6]), n_tau=2)
        # checked before either closed form
        with pytest.raises(ValueError, match="capacity"):
            control_step(TrafficState(np.zeros(2)), a, b, cfg)

    def test_city_preset_never_builds_the_dense_model(self, monkeypatch):
        import noirsim.harness as harness
        import noirsim.mpc as mpc

        def refuse(*args):
            raise AssertionError("build_qp was called")

        solutions = []

        def recording_control(*args):
            flows, diag = control_step(*args)
            solutions.append(diag.solution)
            return flows, diag

        monkeypatch.setattr(mpc, "build_qp", refuse)
        monkeypatch.setattr(harness, "control_step", recording_control)
        harness.run_simulation(philadelphia_noir(seed=1), SimConfig(steps=20, seed=1, d0=100.0))
        assert len(solutions) == 20
        for sol in solutions:
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.n_iterations == 0


def two_outlet_chain():
    """The chain 1 -> 5 -> 4 -> 2 with a second outlet, 3, fed by road 5,
    and no movement (p = 0): columns inlet 1, outlets 2 and 3; rows roads 4
    and 5."""
    g = build_graph(
        [
            (RoadClass.INLET, None),
            (RoadClass.OUTLET, None),
            (RoadClass.OUTLET, None),
            (RoadClass.INTERIOR, ATTR),
            (RoadClass.INTERIOR, ATTR),
        ],
        [(1, 5), (5, 4), (4, 2), (5, 3)],
    )
    return assemble_state_matrix(np.zeros(2), np.zeros((2, 2))), assemble_input_matrix(g)


class TestOutletsOnlyStart:
    """Every program solve starts from the outlets-only split: its demand
    spread evenly over the outlets, nothing on the inlets. On a feasible
    binding step that point usually meets every row, so no phase-one LP
    runs; when it breaks one, phase one is still the fallback."""

    def test_split_over_the_outlet_columns(self):
        _, b = two_outlet_chain()
        assert np.array_equal(_outlets_only((b < 0).any(axis=0), 2, 10.0), [0.0, 5.0, 5.0] * 2)
        assert _outlets_only((np.abs(b) < 0).any(axis=0), 2, 10.0) is None

    def test_feasible_binding_step_runs_no_phase_one(self, monkeypatch):
        import noirsim.harness as harness
        import noirsim.mpc as mpc
        import noirsim.qp as qp

        calls = []

        def recording_control(*args):
            calls.append(args)
            return control_step(*args)

        monkeypatch.setattr(harness, "control_step", recording_control)
        # ten times the city preset's demand: from state.step 1 on, seed 1's
        # steps build the program and capacity binds
        harness.run_simulation(philadelphia_noir(seed=1), SimConfig(steps=2, seed=1, d0=1000.0))
        state, a, b, cfg = calls[1]
        assert state.step == 1

        built, lps, linprog = [], [], qp.linprog

        def counting_build(*args):
            built.append(build_qp(*args))
            return built[-1]

        def counting_linprog(*args, **kwargs):
            lps.append(kwargs)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(mpc, "build_qp", counting_build)
        monkeypatch.setattr(qp, "linprog", counting_linprog)
        s, diag = control_step(state, a, b, cfg)
        sol = diag.solution
        assert len(built) == 1 and not lps
        assert sol.status is SolveStatus.OPTIMAL and sol.active_set
        # the full program without a hint: the least-norm point is the even
        # split, which broke a row, so the solver runs phase one
        reference = solve_qp(reference_program(a, b, state.densities, cfg))
        assert len(lps) == 1
        assert reference.status is sol.status
        assert np.abs(s - reference.u_star[: b.shape[1]]).max() <= 1e-9

    def test_phase_one_remains_the_fallback(self, monkeypatch):
        # Road 5 holds 10 vehicles against a capacity of 3 and only outlet 3
        # drains it. The outlets-only split (0, 5, 5) leaves it at 5 and the
        # even split at 10, so both break its capacity row 4 (after three
        # flow-sign rows and road 4's row 3); (0, 3, 7) meets every row
        import noirsim.mpc as mpc
        import noirsim.qp as qp

        starts, lps, linprog = [], [], qp.linprog

        def recording_solve(problem, **kwargs):
            starts.append(kwargs["initial_point"])
            return solve_qp(problem, **kwargs)

        def counting_linprog(*args, **kwargs):
            lps.append(kwargs)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(mpc, "solve_qp", recording_solve)
        monkeypatch.setattr(qp, "linprog", counting_linprog)
        a, b = two_outlet_chain()
        state = TrafficState(np.array([0.0, 10.0]))
        cfg = MpcConfig(d0=10.0, x_max=np.array([100.0, 3.0]), n_tau=1)
        s, diag = control_step(state, a, b, cfg)
        assert np.array_equal(starts, [[0.0, 5.0, 5.0]])
        problem = reference_program(a, b, state.densities, cfg)
        breaks = problem.ineq_matrix @ starts[0] - problem.ineq_rhs > 0
        assert np.array_equal(np.flatnonzero(breaks), [4])
        assert diag.solution.status is SolveStatus.OPTIMAL
        assert len(lps) == 1
        assert s == pytest.approx([0.0, 3.0, 7.0], abs=1e-9)
        assert diag.solution.active_set == (0, 4)


class TestSparseStateMatrix:
    """``control_step`` takes the sampled state matrix as it is and puts a
    dense one on the pattern of its nonzero entries, so a dense copy gives
    the same answer."""

    @pytest.mark.parametrize(
        "d0, top, builds",
        [
            # the preset's demand: the even split breaks no row
            (100.0, 0.1, False),
            # ten times that demand: capacity binds and the program is solved
            (1000.0, 0.3, True),
        ],
        ids=["even-split", "binding"],
    )
    def test_dense_copy_gives_the_same_step(self, monkeypatch, d0, top, builds):
        import noirsim.mpc as mpc

        built = []

        def counting_build(*args):
            built.append(args)
            return build_qp(*args)

        monkeypatch.setattr(mpc, "build_qp", counting_build)
        g = philadelphia_noir(seed=1)
        b = assemble_input_matrix(g)
        cfg = MpcConfig(d0=d0, x_max=g.capacity_vector(), n_tau=5)
        rng = np.random.default_rng(1)
        state = TrafficState(rng.uniform(0.0, top * cfg.x_max))
        a = assemble_state_matrix(*sample_matrices(rng, g, state))
        s_sparse, diag_sparse = control_step(state, a, b, cfg)
        s_dense, diag_dense = control_step(state, a.toarray(), b, cfg)
        assert len(built) == (2 if builds else 0)
        assert diag_sparse.solution.status is SolveStatus.OPTIMAL
        assert diag_dense.solution.status is diag_sparse.solution.status
        assert bool(diag_sparse.solution.active_set) is builds
        assert s_sparse.tobytes() == s_dense.tobytes()

    def test_run_simulation_passes_a_sparse_state_matrix(self, monkeypatch):
        import noirsim.harness as harness

        seen = []

        def recording_control(state, a, b, cfg):
            seen.append(a)
            return control_step(state, a, b, cfg)

        monkeypatch.setattr(harness, "control_step", recording_control)
        g = philadelphia_noir(seed=1)
        harness.run_simulation(g, SimConfig(steps=3, seed=1))
        assert len(seen) == 3
        for a in seen:
            assert isinstance(a, PatternMatrix)
            assert a.shape == (g.n_interior, g.n_interior)

    def test_round_off_in_the_plant_keeps_a_binding_step_optimal(self):
        # The sparse plant moves overload seed 8's densities in the 13th
        # digit; at step 69 the KKT step alone then left complementarity at
        # 1.13e-8 (parent 4.0e-9), above the 1e-8 tolerance. The refinement
        # solve puts it at round-off.
        g = philadelphia_noir(seed=1)
        log = run_simulation(g, SimConfig(steps=69, seed=8, d0=1000.0))
        last = log.records[-1]
        assert last.step == 69
        assert last.status == "optimal"
        assert last.kkt_worst <= 1e-10

    def test_fast_path_steps_allocate_no_dense_state_matrix(self, monkeypatch):
        # The largest block allocated during a step, measured from the
        # memory in use when the step starts, stays below one dense n x n
        # array; the dense state matrix and turn fractions were two of them.
        import noirsim.harness as harness
        import noirsim.mpc as mpc

        def refuse(*args):
            raise AssertionError("build_qp was called")

        starts, growth = [], []

        def measured_sample(*args):
            # called once per step, as the step starts
            current, peak = tracemalloc.get_traced_memory()
            if starts:
                growth.append(peak - starts[-1])
            starts.append(current)
            tracemalloc.reset_peak()
            return sample_matrices(*args)

        monkeypatch.setattr(mpc, "build_qp", refuse)
        monkeypatch.setattr(harness, "sample_matrices", measured_sample)
        g = philadelphia_noir(seed=1)
        tracemalloc.start()
        try:
            harness.run_simulation(g, SimConfig(steps=10, seed=1))
        finally:
            tracemalloc.stop()
        assert len(growth) == 9
        assert max(growth) < 8 * g.n_interior**2


# the solver's feasibility limit for a right-hand side whose scale is 1e6
LIMIT = feasibility_limit(np.array([1e6]))


def activity_bound(h, rows, n_tau, d0, h_limit, b_limit, greatest=False):
    """linprog's least (or greatest) value of each given row of ``h`` over the
    flows that ``solve_qp``'s feasibility test admits: ``U >= -h_limit``
    with per-step sums within ``b_limit`` of ``d0``. The rows share one LP
    with a copy of U per row; the copies are independent, so each is at its
    own row's optimum."""
    k, n = len(rows), h.shape[1]
    sums = scipy.sparse.kron(
        scipy.sparse.eye(k), np.kron(np.eye(n_tau), np.ones((1, n // n_tau))), format="csr"
    )
    sense = -1.0 if greatest else 1.0
    res = linprog(
        sense * h[rows].ravel(),
        A_ub=scipy.sparse.vstack([sums, -sums], format="csr"),
        b_ub=np.concatenate([np.full(k * n_tau, d0 + b_limit), np.full(k * n_tau, b_limit - d0)]),
        bounds=(-h_limit, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return (h[rows] * res.x.reshape(k, n)).sum(axis=1)


def certificate_cases():
    """The chain at a state that blocks both roads, and eight draws of the
    city preset at ten times its demand; draw k picks the rows k, k + 8, ...,
    so together the draws cover every row."""
    a, b = chain_ab()
    chain_cfg = MpcConfig(d0=10.0, x_max=np.full(2, 9.0), n_tau=4)
    cases = [(a, b, np.array([36.0, 2.0]), chain_cfg, (0, 1))]
    g = philadelphia_noir(seed=1)
    b = assemble_input_matrix(g)
    cfg = MpcConfig(d0=1000.0, x_max=g.capacity_vector(), n_tau=5)
    rng = np.random.default_rng(1)
    for draw in range(8):
        x = rng.uniform(0.0, 0.5 * cfg.x_max)
        a = assemble_state_matrix(*sample_matrices(rng, g, TrafficState(x)))
        cases.append((a, b, x, cfg, (draw, 8)))
    return cases


class TestCapacityCertificate:
    """A step with a capacity row that no admissible flow can meet returns
    that row as its certificate, before the program is built, with or
    without the lower bound; so does a step with such a lower-bound row."""

    @pytest.mark.parametrize("greatest", [False, True], ids=["floor", "ceiling"])
    def test_density_bounds_match_linprog(self, greatest):
        for a, b, x, cfg, pick in certificate_cases():
            pm = build_prediction(a, b, cfg.n_tau)
            rows = np.arange(pm.H.shape[0])[pick[0] :: pick[1]]
            free_ref = pm.G @ x
            scale = 1.0 + np.abs(np.tile(cfg.x_max, cfg.n_tau) - free_ref).max()
            roll = _horizon_reach(x, a, b, cfg)
            bound = roll.ceiling if greatest else roll.floor
            b_limit = feasibility_limit(np.array([cfg.d0]))
            expected = free_ref[rows] + activity_bound(
                pm.H, rows, cfg.n_tau, cfg.d0, roll.h_limit, b_limit, greatest
            )
            assert np.abs(bound.ravel()[rows] - expected).max() <= 1e-9 * scale

    def test_density_floor_matches_linprog(self):
        # without the feasibility test's limits the floor is the least
        # density over U >= 0 with per-step sums d0
        for a, b, x, cfg, pick in certificate_cases():
            pm = build_prediction(a, b, cfg.n_tau)
            rows = np.arange(pm.H.shape[0])[pick[0] :: pick[1]]
            free_ref = pm.G @ x
            scale = 1.0 + np.abs(np.tile(cfg.x_max, cfg.n_tau) - free_ref).max()
            roll = _horizon_reach(x, a, b, cfg)
            # the free responses, read back from the capacity rows' x_max - free
            free = cfg.x_max - roll.rhs[: free_ref.size].reshape(cfg.n_tau, -1)
            floor = free + cfg.d0 * np.cumsum(roll.column.min(axis=2), axis=0)
            assert np.abs(free.ravel() - free_ref).max() <= 1e-12 * scale
            expected = free_ref[rows] + activity_bound(pm.H, rows, cfg.n_tau, cfg.d0, 0.0, 0.0)
            assert np.abs(floor.ravel()[rows] - expected).max() <= 1e-9 * scale

    @pytest.mark.parametrize("lower_bound", [False, True])
    def test_certified_steps_are_infeasible_programs(self, monkeypatch, lower_bound):
        import noirsim.harness as harness
        import noirsim.mpc as mpc

        built = []

        def counting_build(*args):
            built.append(args)
            return build_qp(*args)

        verdicts, certified = [], []

        def checking_control(state, a, b, cfg):
            before = len(built)
            flows, diag = control_step(state, a, b, cfg)
            sol = diag.solution
            verdicts.append(sol.status)
            if len(built) > before:
                # the step solved the program itself; without the lower bound
                # every infeasible program is answered in closed form
                assert lower_bound or sol.status is not SolveStatus.INFEASIBLE
                return flows, diag
            problem = reference_program(a, b, state.densities, cfg)
            assert solve_qp(problem).status is sol.status
            if sol.status is SolveStatus.INFEASIBLE:
                # answered in closed form: no program, zero flows and a
                # certificate of capacity rows
                certified.append(state.step)
                assert sol.infeasible_ineq_rows
                assert min(sol.infeasible_ineq_rows) >= cfg.n_tau * b.shape[1]
                assert np.array_equal(flows, np.zeros(b.shape[1]))
                assert diag.d0_applied == 0.0 and not diag.fallback_used
                if lower_bound:
                    # so the zero-demand probe that it skips could only fail
                    zero = solve_qp(replace(problem, eq_rhs=np.zeros(cfg.n_tau)))
                    assert zero.status is SolveStatus.INFEASIBLE
            return flows, diag

        monkeypatch.setattr(mpc, "build_qp", counting_build)
        monkeypatch.setattr(harness, "control_step", checking_control)
        cfg = SimConfig(seed=1, d0=1000, steps=20, enforce_density_lower_bound=lower_bound)
        harness.run_simulation(philadelphia_noir(seed=1), cfg)
        assert len(verdicts) == 20
        assert certified and SolveStatus.OPTIMAL in verdicts

    @pytest.mark.parametrize(
        "x_max, x, lower_bound, blocked",
        [
            # road 4 cannot drain (p = 0) and only the inlet feeds it, so it
            # exceeds capacity by 1.5 or 2.5 solver limits whatever the flows;
            # road 3's capacity of 1e6 sets the right-hand side's scale and so
            # a limit near 1e-2. The solver admits an inflow down to -limit,
            # which takes one limit off road 4: the program is infeasible only
            # beyond two
            pytest.param((1e6, 2.0), (0.0, 2.0 + 1.5 * LIMIT), False, False, id="1.5"),
            pytest.param((1e6, 2.0), (0.0, 2.0 + 2.5 * LIMIT), False, True, id="2.5"),
            # under the lower bound, road 3's density of 1e6 sets the scale
            # through the lower-bound block, while the capacity block alone
            # would give a limit of about 1.1e-7. Road 4's excess of 1e-3 is
            # within the program's limit of about 1e-2, so the solver does
            # not call the program infeasible, and a certificate on the
            # smaller limit would be wrong. Its start breaks the inlet's
            # flow-sign row 0 and road 4's capacity row 3 by 5e-4 each; both
            # bound the inlet's flow alone, so each depends on the other. Once
            # row 3 is held the rank test refuses row 0, and the solve ends
            # non-optimal, with row 0 broken by 1e-3
            pytest.param(
                (1e6 + 10.0, 2.0), (1e6, 2.0 + 1e-3), True, False, id="lower-bound-scale"
            ),
        ],
    )
    def test_blocking_agrees_with_the_solver_at_its_limit(
        self, monkeypatch, x_max, x, lower_bound, blocked
    ):
        import noirsim.mpc as mpc

        built = []

        def counting_build(*args):
            built.append(args)
            return build_qp(*args)

        monkeypatch.setattr(mpc, "build_qp", counting_build)
        a, b = chain_ab(p_values=(0.0, 0.0))
        cfg = MpcConfig(
            d0=5.0, x_max=np.array(x_max), n_tau=1, enforce_density_lower_bound=lower_bound
        )
        state = TrafficState(np.array(x))
        _, diag = control_step(state, a, b, cfg)
        full = solve_qp(reference_program(a, b, state.densities, cfg))
        assert (full.status is SolveStatus.INFEASIBLE) is blocked
        assert diag.solution.status is full.status
        # a handful of iterations, not a cycle of drops and re-adds to the limit
        assert full.n_iterations <= 5 and diag.solution.n_iterations <= 5
        if blocked:
            assert not built
            assert diag.solution.infeasible_ineq_rows == (3,)
        else:
            assert len(built) == 1

    def test_blocked_lower_bound_rows_need_no_program(self, monkeypatch):
        # road 3 starts at -5 and cannot drain (p = 0); only the outlet draws
        # on it, so no admitted flow brings it back up to zero at either
        # horizon step: its lower-bound rows 8 and 10 are blocked, and the
        # step returns the zero-demand probe's zero flows without a solve
        import noirsim.mpc as mpc

        calls = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(mpc, "build_qp", counting(build_qp))
        monkeypatch.setattr(mpc, "solve_qp", counting(solve_qp))
        a, b = chain_ab(p_values=(0.0, 0.0))
        cfg = MpcConfig(
            d0=5.0, x_max=np.full(2, 10.0), n_tau=2, enforce_density_lower_bound=True
        )
        x = np.array([-5.0, 0.0])
        flows, diag = control_step(TrafficState(x), a, b, cfg)
        assert calls == []
        assert np.array_equal(flows, np.zeros(2))
        assert diag.d0_applied == 0.0 and not diag.fallback_used
        assert diag.solution.status is SolveStatus.INFEASIBLE
        assert diag.solution.infeasible_ineq_rows == (8, 10)
        full = reference_program(a, b, x, cfg)
        assert solve_qp(full).status is SolveStatus.INFEASIBLE
        zero = solve_qp(replace(full, eq_rhs=np.zeros(cfg.n_tau)))
        assert zero.status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("excess, blocked", [(2.5, False), (3.5, True)])
    def test_blocking_threshold_counts_both_limits(self, excess, blocked):
        # road 3 cannot drain (p = 0) but feeds the outlet. Over the points
        # that the solver admits, the outlet may take d0 plus one equality
        # limit plus the flow limit that the inlet gives up, so road 3 is
        # blocked only beyond three limits; d0 = 1e6 makes the equality and
        # inequality limits about equal
        a, b = chain_ab(p_values=(0.0, 0.0))
        cfg = MpcConfig(d0=1e6, x_max=np.array([2.0, 2.0]), n_tau=1)
        limit = feasibility_limit(np.array([cfg.d0]))
        x = np.array([cfg.d0 + 2.0 + excess * limit, 0.0])
        rows, _ = _presolve(_horizon_reach(x, a, b, cfg), cfg)
        assert (rows.size > 0) is blocked
        if blocked:
            assert tuple(rows) == (2,)


class TestBindingRows:
    """The program holds only the rows that a point admitted by the solver's
    feasibility test can break or hold active, and reports its solution in
    the full program's row numbering."""

    @pytest.mark.parametrize("lower_bound", [False, True])
    def test_no_admitted_point_reaches_a_dropped_row(self, lower_bound):
        # every row left out keeps a slack above h_limit at the greatest
        # value that linprog finds over the admitted points, at the step's
        # demand and at the bisection's probes below it
        rng = np.random.default_rng(19)
        dropped_total = kept_total = 0
        for _ in range(5):
            g = random_valid_grid(rng)
            b = assemble_input_matrix(g)
            x_max = g.capacity_vector()
            cfg = MpcConfig(
                d0=float(rng.uniform(1.0, 10.0) * x_max.mean()),
                x_max=x_max,
                n_tau=int(rng.integers(1, 6)),
                enforce_density_lower_bound=lower_bound,
            )
            x = rng.uniform(0.0, 0.9 * x_max)
            a = assemble_state_matrix(*sample_matrices(rng, g, TrafficState(x)))
            roll = _horizon_reach(x, a, b, cfg)
            _, rows = _presolve(roll, cfg)
            full = build_qp(roll.column, roll.rhs, cfg)
            n = full.n_variables
            assert np.array_equal(rows[:n], np.arange(n))  # every flow sign
            dropped = np.setdiff1d(np.arange(full.ineq_rhs.size), rows)
            dropped_total += dropped.size
            kept_total += rows.size - n
            # the program keeps the full one's feasibility limit
            assert feasibility_limit(full.ineq_rhs[rows]) == roll.h_limit
            assert feasibility_limit(full.ineq_rhs) == roll.h_limit
            if dropped.size == 0:
                continue
            check = np.sort(rng.permutation(dropped)[:40])
            tol = 1e-9 * (1.0 + np.abs(full.ineq_rhs).max())
            for d0 in (cfg.d0, 0.5 * cfg.d0, 0.0):
                b_limit = feasibility_limit(np.array([d0]))
                greatest = activity_bound(
                    full.ineq_matrix, check, cfg.n_tau, d0, roll.h_limit, b_limit, greatest=True
                )
                assert (greatest <= full.ineq_rhs[check] - roll.h_limit + tol).all()
        assert dropped_total and kept_total

    def test_rows_map_back_to_the_full_program(self):
        rows = np.array([0, 1, 4, 7])
        duals = np.array([0.0, 2.0, 0.0, 3.0])
        sol = QpSolution(SolveStatus.OPTIMAL, ineq_duals=duals, active_set=(1, 3))
        full = _in_full_rows(sol, rows, 9)
        assert full.active_set == (1, 7)
        assert np.array_equal(full.ineq_duals, [0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0])
        cert = QpSolution(SolveStatus.INFEASIBLE, infeasible_ineq_rows=(2, 3))
        cert = _in_full_rows(cert, rows, 9)
        assert cert.infeasible_ineq_rows == (4, 7) and cert.ineq_duals is None

    def test_binding_step_solves_the_full_program(self, monkeypatch):
        # ten times the city preset's demand, state.step 1: the step's program
        # holds a part of the rows, and its answer, active set and
        # multipliers, in the full program's numbering, are the full
        # program's own from the same start
        import noirsim.harness as harness
        import noirsim.mpc as mpc

        calls = []

        def recording_control(*args):
            calls.append(args)
            return control_step(*args)

        monkeypatch.setattr(harness, "control_step", recording_control)
        harness.run_simulation(philadelphia_noir(seed=1), SimConfig(steps=2, seed=1, d0=1000.0))
        state, a, b, cfg = calls[1]
        built = []

        def counting_build(*args):
            built.append(build_qp(*args))
            return built[-1]

        monkeypatch.setattr(mpc, "build_qp", counting_build)
        s, diag = control_step(state, a, b, cfg)
        sol = diag.solution
        full = reference_program(a, b, state.densities, cfg)
        assert len(built) == 1 and built[0].ineq_rhs.size < full.ineq_rhs.size
        assert sol.status is SolveStatus.OPTIMAL and sol.active_set
        start = _outlets_only((b < 0).any(axis=0), cfg.n_tau, cfg.d0)
        reference = solve_qp(full, initial_point=start)
        assert reference.status is SolveStatus.OPTIMAL
        assert sol.active_set == reference.active_set
        assert sol.ineq_duals.size == full.ineq_rhs.size
        scale = 1.0 + np.abs(reference.ineq_duals).max()
        assert np.abs(sol.ineq_duals - reference.ineq_duals).max() <= 1e-9 * scale
        assert np.abs(s - reference.u_star[: b.shape[1]]).max() <= 1e-9
        kkt = kkt_residuals(full, sol.u_star, sol.eq_duals, sol.ineq_duals)
        assert kkt.worst() <= 1e-8
