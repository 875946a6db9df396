import numpy as np
import pytest

from noirsim.qp import KktResiduals, QpProblem, SolveStatus, kkt_residuals, solve_qp

from helpers import enumerate_qp, random_feasible_qp


def budget_problem(extra_rows=None, extra_rhs=None):
    """min 0.5*(u1^2 + u2^2) s.t. u1 + u2 = 100, u >= 0, plus optional rows."""
    ineq = -np.eye(2)
    rhs = np.zeros(2)
    if extra_rows is not None:
        ineq = np.vstack([ineq, extra_rows])
        rhs = np.concatenate([rhs, extra_rhs])
    return QpProblem(
        np.eye(2), np.zeros(2), [[1.0, 1.0]], [100.0], ineq, rhs
    )


class TestSolve:
    def test_symmetric_minimum_norm(self):
        sol = solve_qp(budget_problem())
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.u_star == pytest.approx([50.0, 50.0], abs=1e-9)
        assert sol.kkt.within(1e-8)

    def test_active_bound_shifts_remainder(self):
        sol = solve_qp(budget_problem([[1.0, 0.0]], [30.0]))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.u_star == pytest.approx([30.0, 70.0], abs=1e-8)
        assert 2 in sol.active_set  # the u1 <= 30 row

    def test_bounds_below_budget_infeasible(self):
        sol = solve_qp(budget_problem(np.eye(2), np.array([30.0, 40.0])))
        assert sol.status is SolveStatus.INFEASIBLE
        # the point of least worst violation, (45, 55), breaks both bounds by
        # 15 and satisfies u >= 0, so the certificate names the two bound rows
        assert sol.infeasible_ineq_rows == (2, 3)

    def test_dependent_equalities_rejected(self):
        # contradictory (u = 0 and u = 1) and duplicated (u1 + u2 = 100 twice)
        # rows are both dependent, so neither program can be constructed
        for eq, rhs in (([[1.0], [1.0]], [0.0, 1.0]), ([[1.0, 1.0], [1.0, 1.0]], [100.0, 100.0])):
            n = len(eq[0])
            with pytest.raises(ValueError, match="linearly independent"):
                QpProblem(np.eye(n), np.zeros(n), eq, rhs)

    def test_unconstrained(self):
        problem = QpProblem(2.0 * np.eye(2), np.array([-2.0, -4.0]))
        sol = solve_qp(problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.u_star == pytest.approx([1.0, 2.0], abs=1e-10)

    def test_max_iterations_returns_best_iterate(self):
        problem = budget_problem([[1.0, 0.0]], [30.0])
        sol = solve_qp(problem, max_iter=1, initial_point=np.array([0.0, 100.0]))
        assert sol.status is SolveStatus.MAX_ITERATIONS
        assert sol.u_star is not None
        assert sol.kkt is not None

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(np.eye(2), np.zeros(3))

    def test_non_psd_hessian_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            QpProblem(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))

    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            QpProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))

    def test_phase_one_lp_is_sparse(self, monkeypatch):
        # the least-squares start (50, 50) breaks u1 <= 30, so phase one runs;
        # its LP gets [G, -1], one column for the worst violation, as a sparse
        # matrix, never a dense one
        import scipy.sparse

        import noirsim.qp as qp

        calls, linprog = [], qp.linprog

        def recording_linprog(*args, **kwargs):
            calls.append(kwargs)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(qp, "linprog", recording_linprog)
        problem = budget_problem([[1.0, 0.0]], [30.0])
        sol = solve_qp(problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert len(calls) == 1
        a_ub = calls[0]["A_ub"]
        assert scipy.sparse.issparse(a_ub)
        m_ineq = problem.ineq_matrix.shape[0]
        assert a_ub.shape == (m_ineq, problem.n_variables + 1)
        assert a_ub.nnz == np.count_nonzero(problem.ineq_matrix) + m_ineq
        assert scipy.sparse.issparse(calls[0]["A_eq"])


class TestKktResiduals:
    def test_hand_dual_for_minimum_norm(self):
        problem = budget_problem()
        res = kkt_residuals(problem, np.array([50.0, 50.0]), eq_duals=np.array([-50.0]))
        assert res.stationarity == 0.0
        assert res.primal_equality == 0.0

    def test_equality_violation_measured(self):
        problem = budget_problem()
        res = kkt_residuals(problem, np.array([10.0, 20.0]))
        assert res.primal_equality == pytest.approx(70.0)

    def test_solver_output_self_check(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            problem = random_feasible_qp(rng)
            sol = solve_qp(problem)
            assert sol.status is SolveStatus.OPTIMAL
            res = kkt_residuals(problem, sol.u_star, sol.eq_duals, sol.ineq_duals)
            assert res.within(1e-8)

    def test_large_multipliers_leave_round_off_residuals(self):
        # Demand-scale linear terms give multipliers near 1e3 on about 58
        # working rows; the final refinement solve keeps every residual at
        # round-off (about 3e-12 here), where the KKT step alone left
        # complementarity at 2e-10 to 1.4e-9.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n, m = 60, 200
            g = rng.random((m, n)) * (rng.random((m, n)) < 0.2)
            h = 50.0 + 10.0 * rng.random(m)
            problem = QpProblem(
                np.eye(n),
                -1000.0 * rng.random(n),
                np.ones((1, n)),
                [300.0],
                np.vstack([g, -np.eye(n)]),
                np.concatenate([h, np.zeros(n)]),
            )
            sol = solve_qp(problem)
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.ineq_duals.max() > 500.0
            assert sol.kkt.within(1e-10)

    def test_nan_residual_is_not_within_tolerance(self):
        # the third slot: Python's max keeps a NaN only when it comes first
        res = KktResiduals(0.0, 0.0, float("nan"), 0.0, 0.0)
        assert np.isnan(res.worst())
        assert not res.within(1e-8)


class TestSolverProperties:
    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            problem = random_feasible_qp(rng)
            sol = solve_qp(problem)
            assert sol.status is SolveStatus.OPTIMAL
            reference = enumerate_qp(problem)
            assert reference is not None
            assert np.abs(sol.u_star - reference).max() < 1e-8

    def test_unique_optimum_across_warm_starts(self):
        problem = budget_problem([[1.0, 0.0]], [30.0])
        hints = [None, np.array([0.0, 100.0]), np.array([25.0, 75.0]), np.array([90.0, 10.0])]
        solutions = [solve_qp(problem, initial_point=h).u_star for h in hints]
        for u in solutions[1:]:
            assert np.abs(u - solutions[0]).max() <= 10 * 1e-8

    def test_tightening_never_decreases_cost(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            problem = random_feasible_qp(rng, m_ineq_max=3)
            if problem.ineq_matrix.shape[0] == 0:
                continue
            base = solve_qp(problem)
            if base.status is not SolveStatus.OPTIMAL:
                continue
            tightened = QpProblem(
                problem.hessian,
                problem.linear,
                problem.eq_matrix if problem.eq_matrix.size else None,
                problem.eq_rhs if problem.eq_rhs.size else None,
                problem.ineq_matrix,
                problem.ineq_rhs - 0.05,
            )
            after = solve_qp(tightened)
            if after.status is SolveStatus.OPTIMAL:
                assert after.cost >= base.cost - 1e-9

    def test_feasible_iterates(self):
        # primal method: the reported point satisfies every constraint
        rng = np.random.default_rng(23)
        for _ in range(30):
            problem = random_feasible_qp(rng)
            sol = solve_qp(problem)
            assert sol.status is SolveStatus.OPTIMAL
            if problem.ineq_matrix.shape[0]:
                assert (problem.ineq_matrix @ sol.u_star - problem.ineq_rhs).max() <= 1e-8
