"""Dense convex quadratic programming with verified KKT optimality.

Solves problems of the form

    minimize    0.5 * u' H u + c' u
    subject to  A u  = b
                G u <= h

with H symmetric positive definite, using a primal active-set method.
Iterates stay primal feasible, so capacity-style constraints hold at every
intermediate point. Each iteration takes a range-space step: with the
Cholesky factor ``H = L L'`` that ``QpProblem`` keeps from its
positive-definiteness check, ``W = L⁻¹C'`` for the ``m`` rows ``C`` held as
equalities and the Cholesky factor of the ``m × m`` Schur complement
``W'W``, a step costs O(n·m) besides the triangular solves, and a row that
enters extends that factor by one row. A row enters only when independent of
the rows already held, so the working set stays linearly independent and a
blocking row that depends on it only by round-off cannot cycle the method.
A solution reported optimal carries KKT residuals at or
below ``_TOL``; one refinement solve on the final working set keeps them at
round-off when the multipliers are large. ``QpProblem`` admits its equality
rows by the working rows' rule and keeps their factor, which starts every
solve's working set and least-norm start (in the hessian's metric). One test
decides feasibility: no row violated by more than ``feasibility_limit`` of its
block's right-hand side, ``_TOL * (1 + max |rhs|)``. When no start passes
it, the problem comes back infeasible with a certificate: the inequality
rows still violated beyond that limit at the point of least worst violation.
All data must be finite: ``QpProblem`` refuses a non-finite ``H``, ``A``,
``G``, ``c``, ``b`` or ``h`` (an infinite right-hand side would lift the
feasibility limit to infinity, and a NaN in a row makes every comparison
with it False, so the row would pass the feasibility test at every point),
and the solver ignores a non-finite start.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.optimize import linprog


# Largest asymmetry |H - H'| accepted, relative to max(1, |H|).
_SYM_TOL = 1e-8
# Optimality and feasibility tolerance: the largest KKT residual of an optimal
# solution, and the largest constraint violation (relative to the right-hand
# side's scale) of a feasible point.
_TOL = 1e-8
# A row enters the working set only when the part of it (in the hessian's
# metric) outside the span of the working rows keeps more than this share of
# its squared norm; at or below it the row depends on them up to round-off.
_PIVOT_TOL = 1e-10


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
        """The largest residual, or NaN when any residual is NaN (Python's
        ``max`` would drop a NaN that is not first)."""
        residuals = (
            self.stationarity,
            self.primal_equality,
            self.primal_inequality,
            self.complementarity,
            self.dual_feasibility,
        )
        return float(np.max(residuals))

    def within(self, tol: float) -> bool:
        return self.worst() <= tol


@dataclass(frozen=True)
class QpProblem:
    """A quadratic program in standard form (see module docstring).

    Construction normalizes and checks the input once: an absent constraint
    block becomes empty and a 1-D block one row; a float array already in
    shape is kept, not copied. Mismatched shapes, a hessian that is not
    symmetric positive definite, a non-finite entry in any block, or
    equality rows that the working set's
    pivot rule refuses (dependent, or independent by at most 1e-5 of their
    norm in the metric of ``H⁻¹``, as ``[[1, 0], [1, 1e-6]]``) raise ``ValueError``.
    """

    hessian: np.ndarray
    linear: np.ndarray
    eq_matrix: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    ineq_matrix: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    # Kept from the checks for the range-space step: the hessian's lower Cholesky
    # factor L, H = L L', and the equality rows' read-only wt and schur (_WorkingSet).
    hessian_factor: np.ndarray = field(init=False, repr=False, compare=False)
    eq_factor: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._admit({f.name: getattr(self, f.name) for f in fields(self) if f.init})
        h = self.hessian
        scale = max(1.0, float(np.abs(h).max(initial=0.0)))
        if float(np.abs(h - h.T).max(initial=0.0)) > _SYM_TOL * scale:
            raise ValueError("hessian must be symmetric")
        # LAPACK directly, as in _lower_solve: the upper factor of the
        # Fortran view h.T reads the lower triangle of h, and its transpose
        # is the C-ordered lower factor, with no copy in either direction.
        upper, info = dpotrf(h.T, lower=0, clean=1)
        if info > 0:
            raise ValueError("hessian must be positive definite (symmetric PSD with full rank)")
        object.__setattr__(self, "hessian_factor", upper.T)
        ws = _WorkingSet(self.hessian_factor, np.zeros((0, h.shape[0])), np.zeros((0, 0)))
        if not all(ws.try_add(i, row) for i, row in enumerate(self.eq_matrix)):
            raise ValueError("equality rows must be linearly independent")
        for kept in (ws.wt, ws.schur):  # shared by every solve's working set
            kept.setflags(write=False)
        object.__setattr__(self, "eq_factor", (ws.wt, ws.schur))

    def _admit(self, blocks: dict) -> None:
        """Set ``blocks`` (name to value) normalized and finite, and check the shapes."""
        for name, v in blocks.items():
            if name in ("linear", "eq_rhs", "ineq_rhs"):
                v = np.asarray(() if v is None else v, dtype=float).reshape(-1)
            else:  # the hessian is never None, nor made a row
                v = np.zeros((0, self.n_variables)) if v is None else np.asarray(v, dtype=float)
                v = v.reshape(1, -1) if v.ndim == 1 and name != "hessian" else v
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        n = self.n_variables
        rows = {"hessian": n, "eq_matrix": self.eq_rhs.size, "ineq_matrix": self.ineq_rhs.size}
        for name, m in rows.items():
            if getattr(self, name).shape != (m, n):
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, not {(m, n)}")

    def with_blocks(self, *, eq_rhs=None, ineq_matrix=None, ineq_rhs=None) -> QpProblem:
        """A copy with each block given (not None) replaced and checked as on
        construction; it shares the other blocks and both factors."""
        blocks = {"eq_rhs": eq_rhs, "ineq_matrix": ineq_matrix, "ineq_rhs": ineq_rhs}
        program = copy.copy(self)
        program._admit({name: v for name, v in blocks.items() if v is not None})
        return program

    @property
    def n_variables(self) -> int:
        return self.linear.size

    def cost(self, u: np.ndarray) -> float:
        return float(0.5 * u @ self.hessian @ u + self.linear @ u)


@dataclass(frozen=True)
class QpSolution:
    """A solve's result; an infeasible one holds only its status and certificate."""

    status: SolveStatus
    u_star: np.ndarray | None = None
    cost: float | None = None
    kkt: KktResiduals | None = None
    eq_duals: np.ndarray | None = None
    ineq_duals: np.ndarray | None = None
    n_iterations: int = 0
    active_set: tuple[int, ...] = ()
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
    nu = np.zeros(a.shape[0]) if eq_duals is None else np.asarray(eq_duals, float).ravel()
    lam = np.zeros(g.shape[0]) if ineq_duals is None else np.asarray(ineq_duals, float).ravel()
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


def feasibility_limit(rhs: np.ndarray) -> float:
    """The largest violation that a feasible point may have in a row of the
    block whose right-hand side is ``rhs``: ``_TOL * (1 + max |rhs|)``."""
    return _TOL * (1.0 + float(np.abs(rhs).max(initial=0.0)))


class _WorkingSet:
    """The constraint rows ``C`` that an active-set iteration holds as
    equalities (the equality rows, then the working inequality rows in the
    order they entered) and their range-space factors (Nocedal & Wright,
    *Numerical Optimization*, 2nd ed., §16.5): ``W = L⁻¹C'`` for the
    hessian's Cholesky factor ``L``, kept as ``wt = W'``, and the lower
    Cholesky factor ``schur`` of the Schur complement ``S = W'W = C H⁻¹ C'``.

    A row enters only when it is independent of the rows already in, so ``S``
    stays positive definite; entering extends ``schur`` by one row, the
    pivot of the independence test (Gill, Golub, Murray & Saunders, Math.
    Comp. 28, 1974). Only rows added after construction leave, which refactors
    ``S``. A factorization that fails raises ``np.linalg.LinAlgError``.
    """

    def __init__(self, hessian_factor: np.ndarray, wt: np.ndarray, schur: np.ndarray) -> None:
        self.hessian_factor = hessian_factor
        self.wt, self.schur = wt, schur
        self.n_eq = wt.shape[0]
        self.rows: list[int] = []  # rows added since construction, in factor order

    def step(self, y: np.ndarray, residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The solution ``(p, mu)`` of ``H p + C'mu = L y`` and ``C p = residual``.

        With ``S mu = W'y - residual``, ``p = L⁻ᵀ(y - W mu)``: O(n·m) for
        ``m`` rows, besides the triangular solves, instead of factoring the
        bordered matrix ``[[H, C'], [C, 0]]``.
        """
        mu = residual
        if residual.size:
            mu = dpotrs(self.schur.T, self.wt @ y - residual, lower=0)[0]
        p = dtrtrs(self.hessian_factor.T, y - self.wt.T @ mu, lower=0)[0]
        return p, mu

    def try_add(self, row: int, g_row: np.ndarray) -> bool:
        """Add row ``row`` with coefficients ``g_row`` when it is
        independent of the working rows, and say whether it was added.

        With ``z = L⁻¹g`` and ``R = schur``, the pivot ``‖z‖² - ‖R⁻¹W'z‖²``
        is the squared part of ``z`` outside the span of ``W``. At or below
        ``_PIVOT_TOL`` of ``‖z‖²`` the row depends on the working rows; a
        NaN pivot (a NaN coefficient) is refused too.
        """
        z = _lower_solve(self.hessian_factor, g_row)
        l_row = _lower_solve(self.schur, self.wt @ z)
        zz = float(z @ z)
        pivot = zz - float(l_row @ l_row)
        if not pivot > _PIVOT_TOL * zz:
            return False
        k = l_row.size
        schur = np.zeros((k + 1, k + 1))
        schur[:k, :k] = self.schur
        schur[k, :k] = l_row
        schur[k, k] = np.sqrt(pivot)
        self.schur = schur
        self.wt = np.vstack([self.wt, z])
        self.rows.append(row)
        return True

    def drop(self, j: int) -> None:
        """Remove working inequality row ``rows[j]`` and refactor ``S``."""
        del self.rows[j]
        self.wt = np.delete(self.wt, self.n_eq + j, axis=0)
        self.schur = np.linalg.cholesky(self.wt @ self.wt.T)


def _lower_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``lower⁻¹ rhs`` for a lower-triangular ``lower`` with a positive diagonal.

    LAPACK is called directly on the transpose, an upper-triangular Fortran
    view of the C-ordered factor: ``scipy.linalg.solve_triangular`` costs
    about 20 µs per call in checks and copies, more than the solve itself
    at a few hundred variables.
    """
    return dtrtrs(lower.T, rhs, lower=0, trans=1)[0] if lower.size else rhs


def _phase_one(
    a: np.ndarray, b: np.ndarray, g: np.ndarray, h: np.ndarray, n: int
) -> np.ndarray | None:
    """The point of least worst inequality violation, or None when the LP fails.

    Solves ``min s`` subject to ``G u - s <= h``, ``A u = b`` and ``s >= 0``
    over the ``n + 1`` columns ``(u, s)``.
    """
    m_e, m_i = a.shape[0], g.shape[0]
    # Sparse blocks: HiGHS takes a sparse matrix, so dense ones would only be
    # built here to be converted back inside linprog.
    sparse = scipy.sparse.csr_matrix
    res = linprog(
        np.append(np.zeros(n), 1.0),
        A_ub=scipy.sparse.hstack([sparse(g), sparse(np.full((m_i, 1), -1.0))], format="csr"),
        b_ub=h,
        A_eq=scipy.sparse.hstack([sparse(a), sparse((m_e, 1))], format="csr"),
        b_eq=b,
        bounds=[(None, None)] * n + [(0.0, None)],
        method="highs",
    )
    return res.x[:n] if res.success else None


def solve_qp(
    problem: QpProblem,
    max_iter: int | None = None,
    initial_point: np.ndarray | None = None,
) -> QpSolution:
    """Solve a strictly convex QP with a primal active-set method.

    The method starts from the first feasible one of ``initial_point`` (a
    hint, ignored when infeasible or not finite), the least-norm equality
    point ``H⁻¹E'(E H⁻¹ E')⁻¹b`` (the least-squares point when ``H = I``)
    and the phase-one point of least worst violation; each is computed only
    when the ones before it fail. When none is feasible the problem is
    infeasible, and the rows that the phase-one point violates are its
    certificate (every row if the LP failed).

    Each iteration solves the KKT system of the working set by its range
    space (see ``_WorkingSet``). The ratio test takes the blocking rows in
    (ratio, row index) order and passes over a row that depends on the
    equality and working rows: in exact arithmetic such a row cannot block
    a step that keeps them satisfied. On convergence the point and
    multipliers are corrected once from their KKT residuals on the final
    working set, before the optimality test. If the Schur complement of the
    working set cannot be factored, the solve ends at its current point
    with a non-optimal status. Degenerate choices (which constraint to
    activate or drop) are broken by smallest row index, so repeated solves
    are deterministic.
    """
    c = problem.linear
    a, b = problem.eq_matrix, problem.eq_rhs
    g, h = problem.ineq_matrix, problem.ineq_rhs
    n = problem.n_variables
    m_eq, m_ineq = a.shape[0], g.shape[0]
    if max_iter is None:
        max_iter = 10 * (n + m_eq + m_ineq)

    b_limit = feasibility_limit(b)
    h_limit = feasibility_limit(h)

    def violated_rows(u: np.ndarray) -> np.ndarray:
        return np.flatnonzero(g @ u - h > h_limit)

    def is_feasible(u: np.ndarray) -> bool:
        if not np.isfinite(u).all():
            return False
        if m_eq and float(np.abs(a @ u - b).max()) > b_limit:
            return False
        return violated_rows(u).size == 0

    ws = _WorkingSet(problem.hessian_factor, *problem.eq_factor)
    u = None
    if initial_point is not None:
        cand = np.asarray(initial_point, dtype=float).reshape(-1)
        if cand.size == n and is_feasible(cand):
            u = cand.copy()
    if u is None:
        u = ws.step(np.zeros(n), b)[0]
        if not is_feasible(u):
            u = _phase_one(a, b, g, h, n)
            if u is None or not is_feasible(u):
                bad = range(m_ineq) if u is None else violated_rows(u)
                return QpSolution(
                    SolveStatus.INFEASIBLE, infeasible_ineq_rows=tuple(map(int, bad))
                )

    factor = problem.hessian_factor
    # L⁻¹(H u + c) = L'u + L⁻¹c: one triangular solve per solve, not per iteration.
    linv_c = _lower_solve(factor, c)
    iterations = 0
    mu = np.zeros(m_eq)
    converged = False

    def working_residual(u: np.ndarray) -> np.ndarray:
        return np.concatenate([b - a @ u, h[ws.rows] - g[ws.rows] @ u])

    while iterations < max_iter:
        iterations += 1
        p, mu = ws.step(-(factor.T @ u + linv_c), working_residual(u))
        step_ref = 1.0 + float(np.abs(u).max(initial=0.0))

        if float(np.abs(p).max(initial=0.0)) <= _TOL * step_ref:
            lam_w = mu[m_eq:]
            if lam_w.size == 0 or float(lam_w.min()) >= -_TOL:
                u = u + p
                # One refinement solve on the final working set: the KKT
                # solve's round-off leaves working rows off by up to ~1e-12,
                # which multipliers near 1e4 lift past _TOL in
                # complementarity. Solving for corrections from the residuals
                # shrinks them to round-off of the residuals themselves.
                y = -(factor.T @ u + linv_c + ws.wt.T @ mu)
                dp, dmu = ws.step(y, working_residual(u))
                u, mu = u + dp, mu + dmu
                converged = True
                break
            # drop the most negative multiplier; ties go to the smallest row index
            try:
                ws.drop(int(np.lexsort((ws.rows, lam_w))[0]))
            except np.linalg.LinAlgError:
                break
            continue

        # Ratio test over inactive rows with positive directional derivative,
        # in (ratio, row index) order. A row dependent on the working rows
        # cannot block a step that keeps them satisfied, save by round-off,
        # so it is passed over for the next candidate.
        alpha = 1.0
        if m_ineq:
            direction = g @ p
            slack_now = h - g @ u
            mask = direction > 1e-12
            mask[ws.rows] = False
            cand_rows = np.flatnonzero(mask)
            ratios = np.maximum(slack_now[cand_rows] / direction[cand_rows], 0.0)
            blocking = ratios < 1.0
            cand_rows, ratios = cand_rows[blocking], ratios[blocking]
            for j in np.lexsort((cand_rows, ratios)):
                if ws.try_add(int(cand_rows[j]), g[cand_rows[j]]):
                    alpha = float(ratios[j])
                    break
        u = u + alpha * p

    # The multipliers belong to the working set only when the last KKT solve
    # used it; an iteration-limit exit may follow a change to the set.
    nu_full = mu[:m_eq]
    lam_full = np.zeros(m_ineq)
    if mu.size == m_eq + len(ws.rows):
        lam_full[ws.rows] = np.maximum(mu[m_eq:], 0.0)
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
        active_set=tuple(sorted(ws.rows)),
    )
