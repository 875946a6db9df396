import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noirsim.qp import (
    KktResiduals,
    QpProblem,
    SolveStatus,
    _WorkingSet,
    _factor_hessian,
    feasibility_limit,
    kkt_residuals,
    solve_qp,
)

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
        # rows are both dependent, so neither program can be constructed; a
        # row with a NaN coefficient is refused as not finite (below)
        for eq, rhs in (
            ([[1.0], [1.0]], [0.0, 1.0]),
            ([[1.0, 1.0], [1.0, 1.0]], [100.0, 100.0]),
        ):
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

    def test_nearly_dependent_equalities_rejected(self):
        # the rows' singular values are 1.4 and 7e-10: the pivot rule that
        # admits working rows refuses the second, so the program is refused
        # on construction rather than left to a solve that cannot factor it
        with pytest.raises(ValueError, match="linearly independent"):
            QpProblem(np.eye(2), np.zeros(2), [[1.0, 0.0], [1.0, 1e-9]], [1.0, 1.0])
        # independent by 1e-4 of its norm, the second row is admitted
        problem = QpProblem(np.eye(2), np.zeros(2), [[1.0, 0.0], [1.0, 1e-4]], [1.0, 2.0])
        sol = solve_qp(problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.u_star == pytest.approx([1.0, 1e4], rel=1e-9)

    def test_non_finite_hint_is_ignored(self):
        # every comparison with NaN is False, so only a finiteness test keeps
        # such a hint from passing as a feasible start
        problem = budget_problem([[1.0, 0.0]], [30.0])
        for bad in (np.nan, np.inf, -np.inf):
            sol = solve_qp(problem, initial_point=np.array([bad, 50.0]))
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.u_star == pytest.approx([30.0, 70.0], abs=1e-8)

    def test_hint_of_the_wrong_size_is_refused(self):
        # a caller's sizing error, which a solve from the least-norm point
        # would otherwise hide as a slower solve
        problem = QpProblem(np.ones(3), np.zeros(3), [[1, 1, 1]], [3], -np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match="initial point has 2 entries, expected 3"):
            solve_qp(problem, initial_point=[3.0, 0.0])
        # a hint of the right size that breaks a row is still only ignored
        sol = solve_qp(problem, initial_point=[4.0, 0.0, 0.0])
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.u_star == pytest.approx([1.0, 1.0, 1.0], abs=1e-10)

    # new: the block is supplied through with_blocks rather than on construction
    @pytest.mark.parametrize(
        "block, new",
        [
            pytest.param("linear", False, id="linear"),
            pytest.param("eq_rhs", False, id="eq_rhs"),
            pytest.param("ineq_rhs", False, id="ineq_rhs"),
            pytest.param("eq_rhs", True, id="eq_rhs-with_blocks"),
            pytest.param("ineq_rhs", True, id="ineq_rhs-with_blocks"),
        ],
    )
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_vector_rejected(self, block, new, bad):
        # an infinite right-hand side would make the feasibility limit
        # infinite, and every start would pass it
        data = {
            "linear": np.zeros(2),
            "eq_rhs": np.array([100.0]),
            "ineq_rhs": np.array([0.0, 0.0, 30.0, 30.0]),
        }
        data[block][-1] = bad
        with pytest.raises(ValueError, match=f"{block} must be finite"):
            if new:
                budget_problem(np.eye(2), [30.0, 30.0]).with_blocks(**{block: data[block]})
            else:
                QpProblem(
                    np.eye(2),
                    data["linear"],
                    [[1.0, 1.0]],
                    data["eq_rhs"],
                    np.vstack([-np.eye(2), np.eye(2)]),
                    data["ineq_rhs"],
                )

    def test_linear_term_swap_shares_the_factors(self):
        # phase one's proximal steps change only the linear term of its
        # program: the copy keeps every other block and both factors, and a
        # non-finite linear term is refused as any other block is
        problem = budget_problem([[1.0, 0.0]], [30.0])
        new = problem.with_blocks(linear=[1.0, -2.0])
        assert np.array_equal(new.linear, [1.0, -2.0])
        assert np.array_equal(problem.linear, [0.0, 0.0])
        assert new.hessian_factor is problem.hessian_factor
        assert new.hessian_factor_inv is problem.hessian_factor_inv
        assert new.eq_factor is problem.eq_factor
        for name in ("hessian", "eq_matrix", "eq_rhs", "ineq_matrix", "ineq_rhs"):
            assert getattr(new, name) is getattr(problem, name)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="linear must be finite"):
                problem.with_blocks(linear=[0.0, bad])
        with pytest.raises(ValueError, match="shape"):
            problem.with_blocks(linear=np.zeros(3))

    @pytest.mark.parametrize(
        "block, new",
        [
            pytest.param("hessian", False, id="hessian"),
            pytest.param("eq_matrix", False, id="eq_matrix"),
            pytest.param("ineq_matrix", False, id="ineq_matrix"),
            pytest.param("ineq_matrix", True, id="ineq_matrix-with_blocks"),
        ],
    )
    # -inf too: the check reads a block's minimum and maximum separately
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_matrix_rejected(self, block, new, bad):
        data = {
            "hessian": np.eye(2),
            "eq_matrix": np.array([[1.0, 1.0]]),
            "ineq_matrix": np.vstack([-np.eye(2), np.eye(2)]),
        }
        data[block][-1, -1] = bad
        with pytest.raises(ValueError, match=f"{block} must be finite"):
            if new:
                budget_problem(np.eye(2), [30.0, 30.0]).with_blocks(**{block: data[block]})
            else:
                QpProblem(
                    data["hessian"],
                    np.zeros(2),
                    data["eq_matrix"],
                    [100.0],
                    data["ineq_matrix"],
                    [0.0, 0.0, 30.0, 30.0],
                )

    def test_non_finite_matrix_reproducers_rejected(self):
        # a NaN passes the symmetry test (every comparison with it is False),
        # and such a hessian used to solve to max_iterations at (nan, nan);
        # a NaN row passed the feasibility test at every point, so the
        # program below used to end max_iterations at (50, 50)
        with pytest.raises(ValueError, match="hessian must be finite"):
            QpProblem([[1.0, np.nan], [np.nan, 1.0]], np.zeros(2))
        with pytest.raises(ValueError, match="ineq_matrix must be finite"):
            QpProblem(np.eye(2), np.zeros(2), [[1.0, 1.0]], [100.0], [[np.nan, 0.0]], [30.0])
        with pytest.raises(ValueError, match="eq_matrix must be finite"):
            QpProblem(np.eye(2), np.zeros(2), [[1.0, np.nan]], [1.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(np.eye(2), np.zeros(3))
        # a 1-D hessian is a diagonal, one entry per variable
        for diagonal in (np.ones(2), np.ones(4)):
            with pytest.raises(ValueError, match=r"hessian has shape .*, not \(3,\)"):
                QpProblem(diagonal, np.zeros(3))
        # with_blocks refuses row counts that do not match their right-hand
        # side, and columns that do not match the variables
        for blocks in (
            {"ineq_rhs": np.zeros(3)},
            {"ineq_matrix": -np.eye(2)[:1]},
            {"eq_rhs": [100.0, 100.0]},
            {"ineq_matrix": -np.eye(3)[:2]},
        ):
            with pytest.raises(ValueError, match="shape"):
                budget_problem().with_blocks(**blocks)

    def test_non_psd_hessian_rejected(self):
        # a diagonal hessian takes its own factor, and a zero or negative
        # entry on it is refused as a dense hessian that is not definite is
        with pytest.raises(ValueError, match="positive definite") as dense:
            QpProblem(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))
        # as a 2-D matrix or as the 1-D diagonal itself
        for diagonal in ([1.0, -1.0], [1.0, 0.0], [-0.0, 2.0], [-3.0, -1.0]):
            for hessian in (np.diag(diagonal), np.array(diagonal)):
                with pytest.raises(ValueError) as diag:
                    QpProblem(hessian, np.zeros(2))
                assert str(diag.value) == str(dense.value)

    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            QpProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["any", "phase one", "infeasible"]))
    def test_one_dimensional_hessian_solves_as_its_diagonal(self, seed, kind):
        # a 1-D hessian d, the 2-D np.diag(d), and np.diag(d) with the dense
        # diagonal factors np.diag(sqrt(d)) and np.diag(1 / sqrt(d)) put back
        # give the same solve, bit for bit. "phase one" programs have a row
        # that cuts off the least-norm start but not a feasible witness, so
        # their solves run phase one; "infeasible" ones hold two rows
        # r u <= -1 and -r u <= -1
        import noirsim.qp as qp

        calls, linprog = [], qp.linprog

        def counting_linprog(*args, **kwargs):
            calls.append(True)
            return linprog(*args, **kwargs)

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m_eq, m_ineq = int(rng.integers(0, min(2, n - 1) + 1)), int(rng.integers(0, 7))
        d = 10.0 ** rng.uniform(-3.0, 3.0, n)
        c = rng.standard_normal(n)
        e = rng.standard_normal((m_eq, n))
        witness = rng.uniform(-1.0, 1.0, n)
        g = rng.standard_normal((m_ineq, n))
        h = g @ witness + rng.uniform(0.0, 1.0, m_ineq)
        if kind == "phase one":
            bare = QpProblem(d, c, e, e @ witness)
            ws = _WorkingSet(bare.hessian_factor_inv, *bare.eq_factor)
            cut = ws.step(np.zeros(n), bare.eq_rhs)[0] - witness
            g, h = np.vstack([cut, g]), np.append(cut @ (witness + 0.5 * cut), h)
        elif kind == "infeasible":
            r = rng.standard_normal(n)
            g, h = np.vstack([g, r, -r]), np.append(h, [-1.0, -1.0])
        problems = [QpProblem(hessian, c, e, e @ witness, g, h) for hessian in (d, np.diag(d))]
        dense = QpProblem(np.diag(d), c, e, e @ witness, g, h)
        for name, kept in zip(("hessian_factor", "hessian_factor_inv"), _factor_hessian(d)):
            object.__setattr__(dense, name, np.diag(kept))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qp, "linprog", counting_linprog)
            solutions = [solve_qp(problem) for problem in [*problems, dense]]
        if kind != "any":
            assert calls
        assert (solutions[0].status is SolveStatus.INFEASIBLE) == (kind == "infeasible")
        first = solutions[0]
        for other in solutions[1:]:
            assert other.status is first.status
            assert other.n_iterations == first.n_iterations
            assert other.active_set == first.active_set
            assert other.infeasible_ineq_rows == first.infeasible_ineq_rows
            assert other.cost == first.cost and other.kkt == first.kkt
            for name in ("u_star", "eq_duals", "ineq_duals"):
                ours, theirs = getattr(first, name), getattr(other, name)
                assert (ours is None) == (theirs is None)
                assert ours is None or ours.tobytes() == theirs.tobytes()

    def test_phase_one_holds_one_copy_of_its_rows(self, monkeypatch):
        # a program of 150 variables and 300 rows whose hint and least-norm
        # start both break a row, so the solve runs phase one; phase one's
        # rows [[G, -1], [0, -1]] are written once, its hessian and factors
        # are vectors, and its working set stays small, so the call peaks at
        # well under 1.5 times the bytes of those rows
        import noirsim.qp as qp

        peaks, linprog = [], qp.linprog

        def measured_linprog(*args, **kwargs):
            tracemalloc.start()
            try:
                return linprog(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(qp, "linprog", measured_linprog)
        rng = np.random.default_rng(41)
        n, m = 150, 300
        g = rng.standard_normal((m, n))
        # a feasible point near the least-norm start, the all-ones vector
        witness = 1.0 + 0.02 * rng.standard_normal(n)
        witness *= n / witness.sum()
        h = g @ witness + rng.uniform(0.3, 1.0, m)
        problem = QpProblem(np.eye(n), rng.standard_normal(n), np.ones((1, n)), [float(n)], g, h)
        hint = np.full(n, 1.0)
        hint[0] += 1.0
        hint[1] -= 1.0
        assert not qp._is_feasible(problem, hint)
        assert not qp._is_feasible(problem, np.ones(n))
        sol = solve_qp(problem, initial_point=hint)
        assert sol.status is SolveStatus.OPTIMAL
        assert len(peaks) == 1
        assert peaks[0] <= 1.5 * (m + 1) * (n + 1) * 8

    def test_phase_one_matches_highs(self, monkeypatch):
        # Phase one's verdict and least worst violation against HiGHS on the
        # LP min s s.t. G u - s <= h, A u = b, s >= 0, over seeded random
        # programs of three kinds: random rows; two opposite rows that cannot
        # both hold, so at every minimiser their violations tie; and
        # programs feasible at some u_f whose row 0 cuts off the least-norm
        # start, so phase one runs on a feasible program
        from scipy.optimize import linprog as highs

        import noirsim.qp as qp

        points, linprog = [], qp.linprog

        def recording_linprog(*args, **kwargs):
            points.append(linprog(*args, **kwargs))
            return points[-1]

        monkeypatch.setattr(qp, "linprog", recording_linprog)
        rng = np.random.default_rng(34)
        seen = {"feasible": 0, "infeasible": 0, "tied": 0}
        for trial in range(60):
            n, m_ineq = int(rng.integers(2, 8)), int(rng.integers(3, 14))
            m_eq = int(rng.integers(0, min(3, n)))
            scale = (1.0, 1e3)[trial % 2]
            a, b = rng.standard_normal((m_eq, n)), scale * rng.standard_normal(m_eq)
            g, h = rng.standard_normal((m_ineq, n)), scale * rng.standard_normal(m_ineq)
            kind = trial % 3
            if kind == 1:
                gap = scale * rng.uniform(0.5, 2.0)
                g[1], h[1] = -g[0], -h[0] - gap
            elif kind == 2:
                u_f = scale * rng.standard_normal(n)
                b = a @ u_f
                start = a.T @ np.linalg.solve(a @ a.T, b) if m_eq else np.zeros(n)
                d = start - u_f
                g[0] = d / np.linalg.norm(d)
                h = g @ u_f + scale * rng.uniform(0.0, 1.0, m_ineq)
                h[0] = g[0] @ u_f + 0.5 * np.linalg.norm(d)
            lp = highs(
                np.append(np.zeros(n), 1.0),
                A_ub=np.hstack([g, -np.ones((m_ineq, 1))]),
                b_ub=h,
                A_eq=np.hstack([a, np.zeros((m_eq, 1))]) if m_eq else None,
                b_eq=b if m_eq else None,
                bounds=[(None, None)] * n + [(0.0, None)],
                method="highs",
            )
            assert lp.success
            limit = feasibility_limit(h)
            assert not 1e-3 * limit < lp.fun < 1e3 * limit  # a clear verdict
            points.clear()
            sol = solve_qp(QpProblem(np.eye(n), np.zeros(n), a, b, g, h))
            infeasible = lp.fun > limit
            assert (sol.status is SolveStatus.INFEASIBLE) is infeasible
            assert len(points) == 1 or (kind == 0 and not points)
            if not points:
                continue
            u = points[0]
            worst = max(0.0, float((g @ u - h).max()))
            if not infeasible:
                assert worst <= limit
                seen["feasible"] += 1
                continue
            assert abs(worst - lp.fun) <= 1e-9 * (1.0 + np.abs(h).max())
            # every certificate row is violated beyond the limit at that point
            rows = list(sol.infeasible_ineq_rows)
            assert rows and (g[rows] @ u - h[rows] > limit).all()
            if kind == 1 and lp.fun <= 0.5 * gap + 1e-9 * scale:
                # the opposite rows set the worst violation, and both reach it
                assert {0, 1} <= set(rows)
            seen["tied" if kind == 1 else "infeasible"] += 1
        assert min(seen.values()) >= 10, seen


def spd_working_set(rng, n, m_eq, m_ineq):
    """A random SPD, non-identity hessian and independent rows ``c``: the
    first ``m_eq`` are the equality rows, the rest enter as working rows."""
    root = rng.standard_normal((n, n))
    hessian = root @ root.T + np.diag(rng.uniform(0.1, 10.0, n))
    c = rng.standard_normal((m_eq + m_ineq, n))
    problem = QpProblem(hessian, np.zeros(n), c[:m_eq], np.zeros(m_eq))
    ws = _WorkingSet(problem.hessian_factor_inv, *problem.eq_factor)
    for i, row in enumerate(c[m_eq:]):
        assert ws.try_add(i, row)
    return problem, ws, c


class TestRangeSpaceStep:
    """Each iteration solves its KKT system through the Schur complement of
    its rows, S = C H⁻¹ C', on the factors that QpProblem keeps."""

    def test_problem_keeps_the_equality_factor(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            m_eq = int(rng.integers(1, n + 1))
            problem, _, _ = spd_working_set(rng, n, m_eq, 0)
            factor, factor_inv = problem.hessian_factor, problem.hessian_factor_inv
            assert np.array_equal(factor, np.tril(factor))
            scale = np.abs(problem.hessian).max()
            assert np.abs(factor @ factor.T - problem.hessian).max() <= 1e-12 * scale
            assert np.abs(factor_inv @ factor - np.eye(n)).max() <= 1e-10
            # R⁻¹ (E H⁻¹ E') R⁻ᵀ = I for the Schur factor R, whose inverse
            # no solve may write to
            wt, schur_inv = problem.eq_factor
            assert np.array_equal(schur_inv, np.tril(schur_inv))
            e = problem.eq_matrix
            gram = e @ np.linalg.solve(problem.hessian, e.T)
            assert np.abs(schur_inv @ gram @ schur_inv.T - np.eye(m_eq)).max() <= 1e-10
            assert not wt.flags.writeable and not schur_inv.flags.writeable
            # a copy with new right-hand sides shares every factor, and may
            # not replace the rows that they factor
            new = problem.with_blocks(eq_rhs=np.ones(m_eq))
            assert new.hessian_factor is factor and new.eq_factor is problem.eq_factor
            assert new.hessian_factor_inv is factor_inv
            with pytest.raises(TypeError, match="eq_matrix"):
                problem.with_blocks(eq_matrix=e)

    def test_least_norm_start_is_in_the_hessian_metric(self):
        # c = 0 and no inequality rows: the start is the optimum,
        # H⁻¹E'(E H⁻¹ E')⁻¹b, and not the least-squares point E'(E E')⁻¹b
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            m_eq = int(rng.integers(1, n + 1))
            root = rng.standard_normal((n, n))
            hessian = root @ root.T + np.diag(rng.uniform(0.1, 10.0, n))
            e, b = rng.standard_normal((m_eq, n)), rng.standard_normal(m_eq)
            sol = solve_qp(QpProblem(hessian, np.zeros(n), e, b))
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.n_iterations == 1  # the start needs no step
            h_inv_et = np.linalg.solve(hessian, e.T)
            expected = h_inv_et @ np.linalg.solve(e @ h_inv_et, b)
            assert np.abs(sol.u_star - expected).max() <= 1e-9 * np.abs(expected).max()

    def test_diagonal_hessian_takes_its_square_root(self):
        # a 1-D diagonal is factored as vectors, the same bits as the
        # diagonals of numpy's Cholesky factor and of its inverse; a 2-D
        # diagonal takes the Cholesky path, whose factors are diag(sqrt(d))
        # and diag(1 / sqrt(d)) bit for bit. For the identity, the
        # controller's and phase one's hessian, the vectors are ones
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 40):
            d = rng.uniform(1e-3, 1e3, n)
            dense = np.linalg.cholesky(np.diag(d))
            factor, factor_inv = _factor_hessian(d)
            assert factor.shape == factor_inv.shape == (n,)
            assert factor.tobytes() == dense.diagonal().tobytes()
            assert factor_inv.tobytes() == np.linalg.inv(dense).diagonal().tobytes()
            factor, factor_inv = _factor_hessian(np.diag(d))
            assert factor.tobytes() == np.diag(np.sqrt(d)).tobytes()
            assert factor_inv.tobytes() == np.diag(1.0 / np.sqrt(d)).tobytes()
            for kept in _factor_hessian(np.ones(n)):
                assert kept.tobytes() == np.ones(n).tobytes()
            for kept in _factor_hessian(np.eye(n)):
                assert kept.tobytes() == np.eye(n).tobytes()

    def test_matches_the_bordered_solve(self):
        rng = np.random.default_rng(14)
        for trial in range(40):
            n = int(rng.integers(2, 12))
            m_eq = int(rng.integers(0, 3))
            m_ineq = int(rng.integers(0, n - m_eq + 1))
            problem, ws, c = spd_working_set(rng, n, m_eq, m_ineq)
            if m_ineq and trial % 2:
                # a row leaves: the factor of the rows that remain is rebuilt
                j = int(rng.integers(m_ineq))
                ws.drop(j)
                c = np.delete(c, m_eq + j, axis=0)
            m = c.shape[0]
            hessian = problem.hessian
            gram = c @ np.linalg.solve(hessian, c.T)
            inverted = ws.schur_inv @ gram @ ws.schur_inv.T
            assert np.abs(inverted - np.eye(m)).max(initial=0.0) <= 1e-10
            r, residual = rng.standard_normal(n), rng.standard_normal(m)
            bordered = np.block([[hessian, c.T], [c, np.zeros((m, m))]])
            reference = np.linalg.solve(bordered, np.concatenate([r, residual]))
            y = np.linalg.solve(problem.hessian_factor, r)
            p, mu = ws.step(y, residual)
            got = np.concatenate([p, mu])
            assert np.abs(got - reference).max() <= 1e-9 * np.abs(reference).max()

    def test_rank_test_refuses_a_dependent_row(self):
        rng = np.random.default_rng(3)
        _, ws, c = spd_working_set(rng, 8, 2, 3)
        wt, schur_inv = ws.wt, ws.schur_inv
        # a combination of an equality row and two working rows
        combination = 3.0 * c[0] - 2.0 * c[2] + 0.5 * c[4]
        assert not ws.try_add(9, combination)
        assert ws.rows == [0, 1, 2]
        assert ws.wt is wt and ws.schur_inv is schur_inv
        # a part outside their span of 1e-4 of the row's size is independent
        outside = rng.standard_normal(8)
        outside -= c.T @ np.linalg.lstsq(c.T, outside, rcond=None)[0]
        outside *= 1e-4 * np.linalg.norm(combination) / np.linalg.norm(outside)
        row = combination + outside
        assert ws.try_add(9, row)
        assert ws.rows == [0, 1, 2, 9]
        # the inverse factor grew by the pivot's row: it inverts a factor of
        # all six rows' gram, whose condition near 5e9 (the row is independent
        # by 1e-4) would leave R⁻¹ gram R⁻ᵀ off the identity by about 1e-7
        gram = ws.wt @ ws.wt.T
        schur = np.linalg.inv(ws.schur_inv)
        assert np.abs(schur @ schur.T - gram).max() <= 1e-10 * np.abs(gram).max()


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
