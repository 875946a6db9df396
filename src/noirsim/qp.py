"""Dense convex quadratic programming with verified KKT optimality.

Solves problems of the form

    minimize    0.5 * u' H u + c' u
    subject to  A u  = b
                G u <= h

with H symmetric positive definite, using a primal active-set method.
Iterates stay primal feasible, so capacity-style constraints hold at every
intermediate point. A solution reported optimal carries KKT residuals at or
below ``_TOL``; infeasible problems come back with a certificate naming a set
of unsatisfiable rows.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg
from scipy.optimize import linprog


# Largest asymmetry |H - H'| accepted, relative to max(1, |H|).
_SYM_TOL = 1e-8
# Optimality and feasibility tolerance: the largest KKT residual of an optimal
# solution, and the largest constraint violation (relative to the right-hand
# side's scale) of a feasible point.
_TOL = 1e-8


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class KktResiduals:
    """Infinity norms of the five first-order optimality residuals."""

    stationarity: float
    primal_equality: float
    primal_inequality: float
    complementarity: float
    dual_feasibility: float

    def worst(self) -> float:
        return max(
            self.stationarity,
            self.primal_equality,
            self.primal_inequality,
            self.complementarity,
            self.dual_feasibility,
        )

    def within(self, tol: float) -> bool:
        return self.worst() <= tol


def _as_matrix(m, n_cols: int) -> np.ndarray:
    if m is None:
        return np.zeros((0, n_cols))
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    return m


def _as_vector(v) -> np.ndarray:
    if v is None:
        return np.zeros(0)
    return np.asarray(v, dtype=float).reshape(-1)


@dataclass(frozen=True)
class QpProblem:
    """A quadratic program in standard form (see module docstring)."""

    hessian: np.ndarray
    linear: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray

    @staticmethod
    def build(
        hessian,
        linear,
        eq_matrix=None,
        eq_rhs=None,
        ineq_matrix=None,
        ineq_rhs=None,
    ) -> "QpProblem":
        linear = _as_vector(linear)
        n = linear.size
        return QpProblem(
            hessian=np.asarray(hessian, dtype=float),
            linear=linear,
            eq_matrix=_as_matrix(eq_matrix, n),
            eq_rhs=_as_vector(eq_rhs),
            ineq_matrix=_as_matrix(ineq_matrix, n),
            ineq_rhs=_as_vector(ineq_rhs),
        )

    @property
    def n_variables(self) -> int:
        return self.linear.size

    def validate(self) -> None:
        n = self.n_variables
        h = self.hessian
        if h.shape != (n, n):
            raise ValueError(f"hessian shape {h.shape} does not match {n} variables")
        scale = max(1.0, float(np.abs(h).max(initial=0.0)))
        if float(np.abs(h - h.T).max(initial=0.0)) > _SYM_TOL * scale:
            raise ValueError("hessian must be symmetric")
        if self.eq_matrix.shape[1] != n or self.eq_matrix.shape[0] != self.eq_rhs.size:
            raise ValueError("equality system dimensions are inconsistent")
        if self.ineq_matrix.shape[1] != n or self.ineq_matrix.shape[0] != self.ineq_rhs.size:
            raise ValueError("inequality system dimensions are inconsistent")

    def cost(self, u: np.ndarray) -> float:
        return float(0.5 * u @ self.hessian @ u + self.linear @ u)


@dataclass(frozen=True)
class QpSolution:
    status: SolveStatus
    u_star: np.ndarray | None
    cost: float | None
    kkt: KktResiduals | None
    eq_duals: np.ndarray | None
    ineq_duals: np.ndarray | None
    n_iterations: int
    active_set: tuple[int, ...]
    infeasible_eq_rows: tuple[int, ...] = ()
    infeasible_ineq_rows: tuple[int, ...] = ()


def kkt_residuals(
    problem: QpProblem,
    u: np.ndarray,
    eq_duals: np.ndarray | None = None,
    ineq_duals: np.ndarray | None = None,
) -> KktResiduals:
    """Evaluate the five KKT residual norms at a candidate point.

    Uses the convention L = cost + nu' (A u - b) + lam' (G u - h) with
    lam >= 0; equality multipliers are unrestricted in sign.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.size != problem.n_variables:
        raise ValueError(f"point has {u.size} entries, expected {problem.n_variables}")
    a, b = problem.eq_matrix, problem.eq_rhs
    g, h = problem.ineq_matrix, problem.ineq_rhs
    nu = np.zeros(a.shape[0]) if eq_duals is None else _as_vector(eq_duals)
    lam = np.zeros(g.shape[0]) if ineq_duals is None else _as_vector(ineq_duals)
    if nu.size != a.shape[0] or lam.size != g.shape[0]:
        raise ValueError("dual vector dimensions are inconsistent")

    grad = problem.hessian @ u + problem.linear
    if a.shape[0]:
        grad = grad + a.T @ nu
    if g.shape[0]:
        grad = grad + g.T @ lam
    slack = g @ u - h if g.shape[0] else np.zeros(0)
    return KktResiduals(
        stationarity=float(np.abs(grad).max(initial=0.0)),
        primal_equality=float(np.abs(a @ u - b).max(initial=0.0)) if a.shape[0] else 0.0,
        primal_inequality=float(np.maximum(slack, 0.0).max(initial=0.0)),
        complementarity=float(np.abs(lam * slack).max(initial=0.0)),
        dual_feasibility=float(np.maximum(-lam, 0.0).max(initial=0.0)),
    )


def _independent_rows(a: np.ndarray) -> list[int]:
    """Indices of a maximal linearly independent subset of rows, smallest first."""
    if a.shape[0] == 0:
        return []
    _, r, piv = scipy.linalg.qr(a.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return []
    rank = int(np.sum(diag > 1e-12 * diag[0]))
    return sorted(int(i) for i in piv[:rank])


def _solve_kkt(
    hessian: np.ndarray, c_rows: np.ndarray, rhs_top: np.ndarray, rhs_bottom: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the bordered system [[H, C'], [C, 0]] [p; mu] = [rhs_top; rhs_bottom]."""
    n = hessian.shape[0]
    m = c_rows.shape[0]
    if m == 0:
        return np.linalg.solve(hessian, rhs_top), np.zeros(0)
    kkt = np.block([[hessian, c_rows.T], [c_rows, np.zeros((m, m))]])
    rhs = np.concatenate([rhs_top, rhs_bottom])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:n], sol[n:]


def _phase_one(
    a: np.ndarray, b: np.ndarray, g: np.ndarray, h: np.ndarray, n: int
) -> tuple[np.ndarray | None, tuple[int, ...]]:
    """Find a feasible point by minimizing total inequality violation (LP).

    Returns (point, ()) on success, or (None, rows) where ``rows`` indexes
    inequality rows that remain violated at the minimum-violation point.
    """
    m_e, m_i = a.shape[0], g.shape[0]
    cost = np.concatenate([np.zeros(n), np.ones(m_i)])
    a_ub = np.hstack([g, -np.eye(m_i)])
    bounds = [(None, None)] * n + [(0.0, None)] * m_i
    kwargs = {}
    if m_e:
        kwargs["A_eq"] = np.hstack([a, np.zeros((m_e, m_i))])
        kwargs["b_eq"] = b
    res = linprog(cost, A_ub=a_ub, b_ub=h, bounds=bounds, method="highs", **kwargs)
    if not res.success:
        return None, tuple(range(m_i))
    t = res.x[n:]
    h_scale = 1.0 + float(np.abs(h).max(initial=0.0))
    if t.sum() > _TOL * h_scale:
        bad = tuple(int(i) for i in np.flatnonzero(t > _TOL * h_scale))
        return None, bad or tuple(range(m_i))
    return res.x[:n], ()


def _infeasible(
    problem: QpProblem, eq_rows: tuple[int, ...] = (), ineq_rows: tuple[int, ...] = ()
) -> QpSolution:
    return QpSolution(
        status=SolveStatus.INFEASIBLE,
        u_star=None,
        cost=None,
        kkt=None,
        eq_duals=None,
        ineq_duals=None,
        n_iterations=0,
        active_set=(),
        infeasible_eq_rows=eq_rows,
        infeasible_ineq_rows=ineq_rows,
    )


def solve_qp(
    problem: QpProblem,
    max_iter: int | None = None,
    initial_point: np.ndarray | None = None,
) -> QpSolution:
    """Solve a strictly convex QP with a primal active-set method.

    ``initial_point`` is a hint only: it is used when it is feasible and
    otherwise ignored in favor of a phase-one search. Degenerate choices
    (which constraint to activate or drop) are broken by smallest row
    index, so repeated solves are deterministic.
    """
    problem.validate()
    hessian, c = problem.hessian, problem.linear
    a, b = problem.eq_matrix, problem.eq_rhs
    g, h = problem.ineq_matrix, problem.ineq_rhs
    n = problem.n_variables
    m_eq, m_ineq = a.shape[0], g.shape[0]
    if max_iter is None:
        max_iter = 10 * (n + m_eq + m_ineq)

    try:
        np.linalg.cholesky(hessian)
    except np.linalg.LinAlgError:
        raise ValueError(
            "hessian must be positive definite (symmetric PSD with full rank)"
        ) from None

    b_scale = 1.0 + float(np.abs(b).max(initial=0.0))
    h_scale = 1.0 + float(np.abs(h).max(initial=0.0))

    # Consistency and an independent basis of the equality rows.
    if m_eq:
        u_eq, *_ = np.linalg.lstsq(a, b, rcond=None)
        resid = np.abs(a @ u_eq - b)
        if resid.max(initial=0.0) > _TOL * b_scale:
            bad = tuple(int(i) for i in np.flatnonzero(resid > _TOL * b_scale))
            return _infeasible(problem, eq_rows=bad or tuple(range(m_eq)))
        keep = _independent_rows(a)
    else:
        u_eq = np.zeros(n)
        keep = []
    a_keep = a[keep] if keep else np.zeros((0, n))
    b_keep = b[keep] if keep else np.zeros(0)

    def is_feasible(u: np.ndarray) -> bool:
        if m_eq and float(np.abs(a @ u - b).max()) > _TOL * b_scale:
            return False
        if m_ineq and float((g @ u - h).max()) > _TOL * h_scale:
            return False
        return True

    u = None
    if initial_point is not None:
        cand = np.asarray(initial_point, dtype=float).reshape(-1)
        if cand.size == n and is_feasible(cand):
            u = cand.copy()
    if u is None and is_feasible(u_eq):
        u = u_eq.copy()
    if u is None:
        u, bad_rows = _phase_one(a, b, g, h, n)
        if u is None:
            return _infeasible(problem, ineq_rows=bad_rows)

    working: list[int] = []  # active inequality rows, kept sorted
    iterations = 0
    mu = np.zeros(len(keep))
    converged = False

    while iterations < max_iter:
        iterations += 1
        grad = hessian @ u + c
        g_w = g[working] if working else np.zeros((0, n))
        c_rows = np.vstack([a_keep, g_w])
        rhs_bottom = np.concatenate(
            [b_keep - a_keep @ u if keep else np.zeros(0), h[working] - g_w @ u]
        )
        p, mu = _solve_kkt(hessian, c_rows, -grad, rhs_bottom)
        step_ref = 1.0 + float(np.abs(u).max(initial=0.0))

        if float(np.abs(p).max(initial=0.0)) <= _TOL * step_ref:
            lam_w = mu[len(keep) :]
            if lam_w.size == 0 or float(lam_w.min()) >= -_TOL:
                u = u + p
                converged = True
                break
            # drop the most negative multiplier; ties go to the smallest row index
            working.pop(int(np.argmin(lam_w)))
            continue

        # ratio test over inactive rows with positive directional derivative
        alpha = 1.0
        blocker = -1
        if m_ineq:
            direction = g @ p
            slack_now = h - g @ u
            mask = np.ones(m_ineq, dtype=bool)
            if working:
                mask[working] = False
            mask &= direction > 1e-12
            cand_rows = np.flatnonzero(mask)
            if cand_rows.size:
                ratios = np.maximum(slack_now[cand_rows] / direction[cand_rows], 0.0)
                r_min = float(ratios.min())
                if r_min < 1.0:
                    alpha = r_min
                    blocker = int(cand_rows[np.flatnonzero(ratios == r_min)[0]])
        u = u + alpha * p
        if blocker >= 0:
            bisect.insort(working, blocker)

    # The multipliers belong to the working set only when the last KKT solve
    # used it; an iteration-limit exit may follow a change to the set.
    nu_full = np.zeros(m_eq)
    if keep:
        nu_full[keep] = mu[: len(keep)]
    lam_full = np.zeros(m_ineq)
    if working and mu.size == len(keep) + len(working):
        lam_full[working] = np.maximum(mu[len(keep) :], 0.0)
    kkt = kkt_residuals(problem, u, nu_full, lam_full)
    status = SolveStatus.OPTIMAL if converged and kkt.within(_TOL) else SolveStatus.MAX_ITERATIONS
    return QpSolution(
        status=status,
        u_star=u,
        cost=problem.cost(u),
        kkt=kkt,
        eq_duals=nu_full,
        ineq_duals=lam_full,
        n_iterations=iterations,
        active_set=tuple(working),
    )
