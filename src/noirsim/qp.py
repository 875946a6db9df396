"""Dense convex quadratic programming with verified KKT optimality.

Solves problems of the form

    minimize    0.5 * u' H u + c' u
    subject to  A u  = b
                G u <= h

with H symmetric positive definite, using a primal active-set method. A
1-D ``H`` stands for the diagonal matrix that it holds.
Iterates stay primal feasible, so capacity-style constraints hold at every
intermediate point. Each iteration takes a range-space step: with the
Cholesky factor ``H = L L'`` and its inverse, which ``QpProblem`` keeps from
its positive-definiteness check (a diagonal ``H``, 1-D or 2-D, is factored
as its square root, and both factors are kept as vectors that multiply
elementwise), ``W = L⁻¹C'`` for the ``m`` rows ``C`` held as equalities and the
inverse of the Cholesky factor of the ``m × m`` Schur complement ``W'W``, a
step is a few mat-vecs, O(n² + n·m), and a row that enters borders that
inverse by one row. ``numpy.linalg`` factors and inverts, so the solver
loads no LAPACK besides numpy's. A row enters only when independent of
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
That point comes from the solver itself: phase one (``linprog``) solves the
linear program of least worst violation by proximal point steps, each a
strictly convex program of this form that ``solve_qp`` solves from a point
that meets its rows, and it stops at the first point that passes the test
or at an exact minimiser, which the proximal point method reaches after
finitely many steps on a linear program (Ferris, Math. Programming 50, 1991).
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
# Phase one's weight on the worst violation, per unit of the inequality
# right-hand side's scale ``1 + max |h|``, and its cap on proximal steps.
_PROX_WEIGHT = 1e4
_PROX_STEPS = 50


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
    shape is kept, not copied. A 1-D hessian is the diagonal of a diagonal
    hessian, and is kept 1-D. Mismatched shapes, a hessian that is not
    symmetric positive definite, a non-finite entry in any block, or
    equality rows that the working set's
    pivot rule refuses (dependent, or independent by at most 1e-5 of their
    norm in the metric of ``H⁻¹``, as ``[[1, 0], [1, 1e-6]]``) raise ``ValueError``.
    The checks leave the factors that every solve starts from: the hessian's
    lower Cholesky factor ``L`` and ``L⁻¹`` (``_factor_hessian``; vectors
    when the hessian is diagonal), and the equality rows' range-space factor.
    """

    hessian: np.ndarray
    linear: np.ndarray
    eq_matrix: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    ineq_matrix: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    # Kept from the checks for the range-space step: the hessian's lower Cholesky
    # factor L, H = L L', its inverse L⁻¹ (both 1-D, the diagonal, when H is
    # diagonal), and the equality rows' read-only wt
    # and schur_inv (_WorkingSet).
    hessian_factor: np.ndarray = field(init=False, repr=False, compare=False)
    hessian_factor_inv: np.ndarray = field(init=False, repr=False, compare=False)
    eq_factor: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._admit({f.name: getattr(self, f.name) for f in fields(self) if f.init})
        h = self.hessian
        if h.ndim == 2:
            scale = max(1.0, float(np.abs(h).max(initial=0.0)))
            if float(np.abs(h - h.T).max(initial=0.0)) > _SYM_TOL * scale:
                raise ValueError("hessian must be symmetric")
        factor, factor_inv = _factor_hessian(h)
        object.__setattr__(self, "hessian_factor", factor)
        object.__setattr__(self, "hessian_factor_inv", factor_inv)
        ws = _WorkingSet(factor_inv, np.zeros((0, self.n_variables)), np.zeros((0, 0)))
        if not all(ws.try_add(i, row) for i, row in enumerate(self.eq_matrix)):
            raise ValueError("equality rows must be linearly independent")
        for kept in (ws.wt, ws.schur_inv):  # shared by every solve's working set
            kept.setflags(write=False)
        object.__setattr__(self, "eq_factor", (ws.wt, ws.schur_inv))

    def _admit(self, blocks: dict) -> None:
        """Set ``blocks`` (name to value) normalized and finite, and check the shapes."""
        for name, v in blocks.items():
            if name in ("linear", "eq_rhs", "ineq_rhs"):
                v = np.asarray(() if v is None else v, dtype=float).reshape(-1)
            else:  # the hessian is never None, nor made a row
                v = np.zeros((0, self.n_variables)) if v is None else np.asarray(v, dtype=float)
                v = v.reshape(1, -1) if v.ndim == 1 and name != "hessian" else v
            # two reductions, where np.isfinite would allocate a mask the size
            # of the block; a NaN makes both comparisons False
            if not (-np.inf < v.min(initial=0.0) and v.max(initial=0.0) < np.inf):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        n = self.n_variables
        shapes = {
            "hessian": (n,) if self.hessian.ndim == 1 else (n, n),
            "eq_matrix": (self.eq_rhs.size, n),
            "ineq_matrix": (self.ineq_rhs.size, n),
        }
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, not {shape}")

    def with_blocks(
        self, *, linear=None, eq_rhs=None, ineq_matrix=None, ineq_rhs=None
    ) -> QpProblem:
        """A copy with each block given (not None) replaced and checked as on
        construction; it shares the other blocks and both factors."""
        blocks = {
            "linear": linear, "eq_rhs": eq_rhs, "ineq_matrix": ineq_matrix, "ineq_rhs": ineq_rhs
        }
        program = copy.copy(self)
        program._admit({name: v for name, v in blocks.items() if v is not None})
        return program

    @property
    def n_variables(self) -> int:
        return self.linear.size

    def cost(self, u: np.ndarray) -> float:
        h, half = self.hessian, 0.5 * u
        return float((half * h if h.ndim == 1 else half @ h) @ u + self.linear @ u)


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

    grad = _times(problem.hessian, u) + problem.linear
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


def _violated_rows(problem: QpProblem, u: np.ndarray) -> np.ndarray:
    """The inequality rows that ``u`` violates beyond their feasibility limit."""
    h = problem.ineq_rhs
    return np.flatnonzero(problem.ineq_matrix @ u - h > feasibility_limit(h))


def _is_feasible(problem: QpProblem, u: np.ndarray) -> bool:
    """The one feasibility test: ``u`` is finite and violates no row of
    either block beyond that block's limit."""
    if not np.isfinite(u).all():
        return False
    a, b = problem.eq_matrix, problem.eq_rhs
    if b.size and float(np.abs(a @ u - b).max()) > feasibility_limit(b):
        return False
    return _violated_rows(problem, u).size == 0


def _factor_hessian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lower Cholesky factor ``L`` of ``h`` and its inverse ``L⁻¹``, or
    ``ValueError`` when ``h`` is not positive definite. A diagonal ``h``,
    1-D or a 2-D matrix whose nonzeros all lie on its diagonal, is factored
    as its square root in O(n), and both factors are returned as vectors,
    the diagonals of ``L`` and ``L⁻¹`` (``_times`` multiplies by them): the
    controller's cost ``0.5 * ||U||^2`` and phase one's ``0.5 * ||z - z_k||^2``
    both have one."""
    d = h if h.ndim == 1 else h.diagonal()
    if h.ndim == 1 or np.count_nonzero(h) == np.count_nonzero(d):
        if (d > 0).all():
            root = np.sqrt(d)
            return root, 1.0 / root
    else:
        try:
            factor = np.linalg.cholesky(h)
            return factor, np.linalg.inv(factor)
        except np.linalg.LinAlgError:
            pass
    raise ValueError("hessian must be positive definite (symmetric PSD with full rank)")


def _times(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m @ v``, a 1-D ``m`` standing for the diagonal matrix that it holds."""
    return m * v if m.ndim == 1 else m @ v


class _WorkingSet:
    """The constraint rows ``C`` that an active-set iteration holds as
    equalities (the equality rows, then the working inequality rows in the
    order they entered) and their range-space factors (Nocedal & Wright,
    *Numerical Optimization*, 2nd ed., §16.5): ``W = L⁻¹C'`` for the
    hessian's Cholesky factor ``L``, kept as ``wt = W'``, and the inverse
    ``schur_inv = R⁻¹`` of the lower Cholesky factor ``R`` of the Schur
    complement ``S = W'W = C H⁻¹ C'``. With ``L⁻¹`` and ``R⁻¹`` kept, every
    triangular solve is a mat-vec.

    A row enters only when it is independent of the rows already in, so ``S``
    stays positive definite; entering borders ``R`` by one row, the pivot of
    the independence test (Gill, Golub, Murray & Saunders, Math. Comp. 28,
    1974), and ``R⁻¹`` by the matching row, in O(m²). Only rows added after
    construction leave, which refactors ``S`` and inverts the new factor. A
    factorization that fails raises ``np.linalg.LinAlgError``.
    """

    def __init__(self, factor_inv: np.ndarray, wt: np.ndarray, schur_inv: np.ndarray) -> None:
        self.factor_inv = factor_inv
        self.wt, self.schur_inv = wt, schur_inv
        self.n_eq = wt.shape[0]
        self.rows: list[int] = []  # rows added since construction, in factor order

    def step(self, y: np.ndarray, residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The solution ``(p, mu)`` of ``H p + C'mu = L y`` and ``C p = residual``.

        With ``S mu = W'y - residual``, ``p = L⁻ᵀ(y - W mu)``: O(n² + n·m)
        for ``m`` rows, instead of factoring the bordered matrix
        ``[[H, C'], [C, 0]]``.
        """
        mu = residual
        if residual.size:
            mu = self.schur_inv.T @ (self.schur_inv @ (self.wt @ y - residual))
        p = _times(self.factor_inv.T, y - self.wt.T @ mu)
        return p, mu

    def try_add(self, row: int, g_row: np.ndarray) -> bool:
        """Add row ``row`` with coefficients ``g_row`` when it is
        independent of the working rows, and say whether it was added.

        With ``z = L⁻¹g`` and ``l = R⁻¹W'z``, the pivot ``d² = ‖z‖² - ‖l‖²``
        is the squared part of ``z`` outside the span of ``W``. At or below
        ``_PIVOT_TOL`` of ``‖z‖²`` the row depends on the working rows; a
        NaN pivot (a NaN coefficient) is refused too. Otherwise ``R`` gains
        the row ``[l', d]`` and ``R⁻¹`` the row ``[-l'R⁻¹/d, 1/d]``.
        """
        z = _times(self.factor_inv, g_row)
        l_row = self.schur_inv @ (self.wt @ z)
        zz = float(z @ z)
        pivot = zz - float(l_row @ l_row)
        if not pivot > _PIVOT_TOL * zz:
            return False
        d = np.sqrt(pivot)
        k = l_row.size
        schur_inv = np.zeros((k + 1, k + 1))
        schur_inv[:k, :k] = self.schur_inv
        schur_inv[k, :k] = -(l_row @ self.schur_inv) / d
        schur_inv[k, k] = 1.0 / d
        self.schur_inv = schur_inv
        self.wt = np.vstack([self.wt, z])
        self.rows.append(row)
        return True

    def drop(self, j: int) -> None:
        """Remove working inequality row ``rows[j]``, refactor ``S`` and invert its factor."""
        del self.rows[j]
        self.wt = np.delete(self.wt, self.n_eq + j, axis=0)
        self.schur_inv = np.linalg.inv(np.linalg.cholesky(self.wt @ self.wt.T))


def linprog(problem: QpProblem, u: np.ndarray) -> np.ndarray:
    """Phase one from ``u``, a point that meets the equality rows: the first
    point that passes the feasibility test, or else one of least worst
    inequality violation.

    It solves the linear program ``min s`` over ``z = (u, s)`` subject to
    ``A u = b``, ``G u - s <= h`` and ``s >= 0`` by the proximal point method
    (Rockafellar, SIAM J. Control Optim. 14(5), 1976): step k solves the
    strictly convex program ``min rho * s + 0.5 * ||z - z_k||^2`` over the
    same rows with ``solve_qp``, started from ``z_k``. ``z_0`` is ``u`` with
    its worst violation as ``s``, so every ``z_k`` meets those rows and no
    step runs phase one again. The weight ``rho = 1e4 * (1 + max |h|)``
    comes from the program's own scale. The method stops at the first ``u``
    that passes the test, or at a fixed point ``z_(k+1) = z_k`` up to
    round-off: a fixed point is an exact minimiser of the linear program,
    and on a linear program the method reaches one after finitely many steps
    (Ferris, "Finite termination of the proximal point algorithm", Math.
    Programming 50, 1991); the cap of 50 steps only guards against
    round-off. A step's point is taken on its rows alone, whatever its
    status, since ``rho`` lifts its multipliers past the absolute KKT test.
    The program is built once; a step changes only its linear term
    (``with_blocks``). Every phase one passes through this one name, which
    ``benchmarks/tracing.py`` times as ``qp.phase_one``.
    """
    g, h = problem.ineq_matrix, problem.ineq_rhs
    n, m_eq, m_ineq = problem.n_variables, problem.eq_rhs.size, h.size
    weight = np.zeros(n + 1)
    weight[n] = _PROX_WEIGHT * (1.0 + float(np.abs(h).max(initial=0.0)))
    # the rows [[G, -1], [0, -1]], written once into one array; np.empty, as
    # a calloc (np.zeros) of this size took fresh pages on every call, which
    # tripled an overload run's minor page faults
    rows = np.empty((m_ineq + 1, n + 1))
    rows[:m_ineq, :n] = g
    rows[m_ineq, :n] = 0.0
    rows[:, n] = -1.0
    lp = QpProblem(
        np.ones(n + 1),
        weight,
        np.hstack([problem.eq_matrix, np.zeros((m_eq, 1))]),
        problem.eq_rhs,
        rows,
        np.append(h, 0.0),
    )
    z = np.append(u, max(0.0, float((g @ u - h).max(initial=0.0))))
    if not _is_feasible(lp, z):
        return u  # u breaks an equality row, and no step could start from z
    for _ in range(_PROX_STEPS):
        if _is_feasible(problem, z[:n]):
            break
        step = solve_qp(lp.with_blocks(linear=weight - z), initial_point=z).u_star
        if not _is_feasible(lp, step):
            break  # round-off left the rows; z is the last point that meets them
        if float(np.abs(step - z).max()) <= _TOL * (1.0 + float(np.abs(z).max())):
            break  # a fixed point: z is a point of least worst violation
        z = step
    return z[:n]


def solve_qp(
    problem: QpProblem,
    max_iter: int | None = None,
    initial_point: np.ndarray | None = None,
) -> QpSolution:
    """Solve a strictly convex QP with a primal active-set method.

    The method starts from the first feasible one of ``initial_point`` (a
    hint, ignored when infeasible or not finite), the least-norm equality
    point ``H⁻¹E'(E H⁻¹ E')⁻¹b`` (the least-squares point when ``H = I``)
    and the phase-one point (``linprog``); each is computed only when the
    ones before it fail. Phase one starts from the least-norm point and runs
    proximal point steps, each a solve of this kind from a point that meets
    its rows, until its point passes the feasibility test or stops moving.
    A point that stops moving is one of least worst violation; when it
    fails the test the problem is infeasible, and the rows that it violates
    are the certificate.

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

    ws = _WorkingSet(problem.hessian_factor_inv, *problem.eq_factor)
    u = None
    if initial_point is not None:
        cand = np.asarray(initial_point, dtype=float).reshape(-1)
        if cand.size == n and _is_feasible(problem, cand):
            u = cand.copy()
    if u is None:
        u = ws.step(np.zeros(n), b)[0]
        if not _is_feasible(problem, u):
            u = linprog(problem, u)
            if not _is_feasible(problem, u):
                bad = _violated_rows(problem, u)
                return QpSolution(
                    SolveStatus.INFEASIBLE, infeasible_ineq_rows=tuple(map(int, bad))
                )

    factor = problem.hessian_factor
    # L⁻¹(H u + c) = L'u + L⁻¹c: L⁻¹c once per solve, not per iteration.
    linv_c = _times(problem.hessian_factor_inv, c)
    iterations = 0
    mu = np.zeros(m_eq)
    converged = False

    def working_residual(u: np.ndarray) -> np.ndarray:
        return np.concatenate([b - a @ u, h[ws.rows] - g[ws.rows] @ u])

    while iterations < max_iter:
        iterations += 1
        p, mu = ws.step(-(_times(factor.T, u) + linv_c), working_residual(u))
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
                y = -(_times(factor.T, u) + linv_c + ws.wt.T @ mu)
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
