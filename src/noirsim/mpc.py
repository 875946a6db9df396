"""Receding-horizon boundary-flow controller.

Each step predicts the interior densities over a finite horizon from the
current state matrix (held fixed across the horizon) and applies only the
first step of the optimal boundary-flow sequence. The cost is half the
squared norm of the flows, so under the per-step budget alone the optimum is
the even split ``d0 / n_input`` at every step. The prediction rows come from
one catalogue per config (``MpcConfig.row_sign``, ``row_limit``): blocks of
``sign * x[j] <= limit`` over every road and horizon step, capacity and,
under the lower bound, nonnegativity. A step tries closed-form answers at
both ends before the program. It first rolls the split forward with
``n_tau`` mat-vecs; when that breaks no row, the split is the exact optimum
and the step returns it with its closed-form certificate. It then rolls the
horizon model itself with products of the sparse A, a
``dynamics.PatternMatrix`` (``_horizon_reach``): the free responses
``A^j x``, the blocks ``A^m B`` of the prediction's first block column, and
the least and greatest density that any admissible flow leaves.
One presolve (``_presolve``) reads every row off those two bounds with one
row-activity test. When some row exceeds its bound beyond the solver's
feasibility tolerance at every admissible flow, no flow is feasible, and the
step returns zero flows with those rows as its certificate. Only otherwise
does it build a quadratic program, from the same roll (``build_qp``), and
only from the rows that some admissible flow can break or hold active; a row
that keeps its slack at every admissible flow is left out. The solve starts
from the outlets-only split (``_outlets_only``). Outlet flows only lower
densities, so once no capacity row is blocked that point usually meets every
row, and the solver skips its phase one: the linear program of least worst
violation, which ``qp.linprog`` solves by proximal point steps on the
solver's own active-set method and stops at the first feasible point or at
an exact minimiser.

``build_prediction`` forms the dense condensed model ``G``, ``H`` from
``n_tau`` dense n x n powers of A. The controller does not call it; it is
the reference that the roll is checked against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

# The assemble_* names are unused here; benchmarks/tracing.py still wraps them.
from .dynamics import (  # noqa: F401
    PatternMatrix,
    TrafficState,
    assemble_input_matrix,
    assemble_state_matrix,
)
from .qp import KktResiduals, QpProblem, QpSolution, SolveStatus, feasibility_limit, solve_qp


@dataclass(frozen=True)
class MpcConfig:
    """Controller parameters.

    ``d0`` is the total number of vehicles that must cross the boundary per
    step; ``x_max`` the per-interior-road capacities in state order. Both
    must be finite and positive. The density lower-bound constraint is off
    by default: the autonomous part of the dynamics cannot produce negative
    densities, so the bound only matters when outlet draws overshoot (see
    ``enforce_density_lower_bound``). ``row_sign`` and ``row_limit``, derived
    and read-only like ``x_max``, catalogue the prediction rows: block k is
    ``row_sign[k] * x[j] <= row_limit[k]`` at every road and horizon step j,
    capacity ``(+1, x_max)`` then, under the lower bound, ``(-1, 0)``. Both
    broadcast over ``(n_tau, n)``.
    """

    d0: float
    x_max: np.ndarray
    n_tau: int = 5
    enforce_density_lower_bound: bool = False
    row_sign: np.ndarray = field(init=False, repr=False, compare=False)
    row_limit: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.d0 < np.inf:
            raise ValueError(f"d0 must be finite and positive, got {self.d0}")
        if not isinstance(self.n_tau, int) or isinstance(self.n_tau, bool) or self.n_tau < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.n_tau!r}")
        x_max = np.array(self.x_max, dtype=float, copy=True).reshape(-1)
        if x_max.size == 0 or not ((x_max > 0) & (x_max < np.inf)).all():
            raise ValueError("x_max must be entrywise finite and positive")
        sign = np.array([1.0, -1.0])[: 2 if self.enforce_density_lower_bound else 1, None, None]
        limit = np.stack([x_max, np.zeros_like(x_max)])[: len(sign), None]
        for name, value in (("x_max", x_max), ("row_sign", sign), ("row_limit", limit)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PredictionMatrices:
    """Stacked horizon model: predicted states = G @ x + H @ U.

    ``G`` stacks the state-matrix powers A, A^2, ..., A^n_tau; ``H`` is the
    lower block-Toeplitz matrix with block (r, c) equal to A^(r-c) B for
    r >= c and zero above the block diagonal.
    """

    G: np.ndarray
    H: np.ndarray
    n_tau: int
    n_state: int
    n_input: int


def build_prediction(
    a: np.ndarray | PatternMatrix, b: np.ndarray, n_tau: int
) -> PredictionMatrices:
    """Stack the horizon prediction matrices for fixed (a, b).

    ``a`` may be a dense array or a ``PatternMatrix``, which is densified
    with ``toarray()``; G and H are dense. ``control_step`` does not call
    this: it is the dense reference for the program that ``build_qp``
    builds from the sparse roll.
    """
    a = a.toarray() if isinstance(a, PatternMatrix) else np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not isinstance(n_tau, int) or isinstance(n_tau, bool) or n_tau < 1:
        raise ValueError(f"horizon must be a positive integer, got {n_tau!r}")
    n_state = a.shape[0]
    if a.shape != (n_state, n_state):
        raise ValueError("state matrix must be square")
    if b.ndim != 2 or b.shape[0] != n_state:
        raise ValueError(f"input matrix shape {b.shape} does not match state size {n_state}")
    n_input = b.shape[1]

    powers = np.empty((n_tau, n_state, n_state))
    powers[0] = a
    for k in range(1, n_tau):
        np.matmul(powers[k - 1], a, out=powers[k])
    g = powers.reshape(n_tau * n_state, n_state)

    # the first block column [B; AB; ...; A^(n_tau-1) B]; block column c is
    # the same column shifted down by c blocks
    column = np.empty((n_tau, n_state, n_input))
    column[0] = b
    np.matmul(powers[:-1], b, out=column[1:])
    column = column.reshape(n_tau * n_state, n_input)
    h = np.zeros((n_tau * n_state, n_tau * n_input))
    for c in range(n_tau):
        h[c * n_state :, c * n_input : (c + 1) * n_input] = column[: (n_tau - c) * n_state]
    return PredictionMatrices(G=g, H=h, n_tau=n_tau, n_state=n_state, n_input=n_input)


@functools.lru_cache(maxsize=8)
def _cost_and_budget(n_tau: int, n_input: int) -> QpProblem:
    """The cost ``0.5 * ||U||^2`` and the budget rows (right-hand side 0), checked
    and factored once; read-only, since every program of this size shares them."""
    n = n_tau * n_input
    budget = np.kron(np.eye(n_tau), np.ones((1, n_input)))
    program = QpProblem(np.eye(n), np.zeros(n), budget, np.zeros(n_tau))
    kept = ("hessian", "linear", "eq_matrix", "eq_rhs", "hessian_factor", "hessian_factor_inv")
    for name in kept:
        getattr(program, name).setflags(write=False)
    return program


def build_qp(
    column: np.ndarray, rhs: np.ndarray, config: MpcConfig, rows: np.ndarray | None = None
) -> QpProblem:
    """Stack the horizon cost and constraints into a quadratic program.

    ``column`` holds the blocks ``A^j B`` of H's first block column as
    ``(n_tau, n_state, n_input)``; H's block (j, c) is ``column[j - c]``
    for j >= c and zero above the block diagonal, and ``rhs`` is the
    prediction rows' right-hand side, ``HorizonRoll.rhs``. Cost is 0.5 *
    ||U||^2 over the stacked boundary flows. Constraints: each horizon
    step's flows sum to d0 (equality), U >= 0, and the catalogued prediction
    rows (``MpcConfig.row_sign``). The cost and the budget rows come checked
    and factored (``_cost_and_budget``).

    The full program's inequality rows are numbered as they stack: the
    ``n_tau * n_input`` flow signs ``-U <= 0``, then each catalogued block's
    rows ``sign * H U <= limit - sign * free``, road r at horizon step j + 1
    being row ``j * n_state + r`` of the block. ``rows``, in increasing
    order, picks the rows that the program holds (all of them when None);
    only those are written, straight into one array.
    """
    n_tau, n_state, n_input = column.shape
    n = n_tau * n_input
    rhs = np.concatenate([np.zeros(n), rhs])
    rows = np.arange(rhs.size) if rows is None else np.asarray(rows)

    ineq = np.zeros((rows.size, n))
    # the kept rows of one block and one horizon step are contiguous
    edges = np.searchsorted(rows, np.arange(n, rhs.size + 1, n_state))
    ineq[np.arange(edges[0]), rows[: edges[0]]] = -1.0
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        block, j = divmod(i, n_tau)
        road = rows[lo:hi] - (n + i * n_state)
        # H's blocks (j, 0), ..., (j, j) are column[j], ..., column[0]
        part = column[j::-1, road].transpose(1, 0, 2).reshape(hi - lo, (j + 1) * n_input)
        ineq[lo:hi, : (j + 1) * n_input] = config.row_sign[block] * part

    return _cost_and_budget(n_tau, n_input).with_blocks(
        eq_rhs=np.full(n_tau, float(config.d0)), ineq_matrix=ineq, ineq_rhs=rhs[rows]
    )


def _even_split(
    x: np.ndarray, a: PatternMatrix, b: np.ndarray, config: MpcConfig
) -> QpSolution | None:
    """The horizon program's closed-form solution when the even split breaks
    none of its rows, else None.

    With ``lam = 0`` and ``nu_k = -d0 / n_input`` the split meets
    stationarity and the per-step sums; ``U >= 0`` holds because ``d0 > 0``,
    and the densities rolled forward here cover the catalogued rows.
    """
    n_state, n_input = b.shape
    s_bar = np.full(n_input, config.d0 / n_input)
    inflow = b @ s_bar
    x_hat = np.empty((config.n_tau, n_state))
    for m in range(config.n_tau):
        x_hat[m] = a @ (x_hat[m - 1] if m else x) + inflow
    # written so that a NaN density falls through as well
    if not (config.row_sign * x_hat <= config.row_limit).all():
        return None

    u = np.tile(s_bar, config.n_tau)
    nu = np.full(config.n_tau, -s_bar[0])
    # u + nu cancels exactly, every step's flows sum as s_bar does, and with
    # lam = 0 and every row holding the inequality residuals are zero
    kkt = KktResiduals(
        stationarity=0.0,
        primal_equality=abs(float(s_bar.sum()) - config.d0),
        primal_inequality=0.0,
        complementarity=0.0,
        dual_feasibility=0.0,
    )
    return QpSolution(
        status=SolveStatus.OPTIMAL,
        u_star=u,
        cost=float(0.5 * u @ u),
        kkt=kkt,
        eq_duals=nu,
        ineq_duals=np.zeros(u.size + config.n_tau * config.row_limit.size),
        n_iterations=0,
        active_set=(),
    )


@dataclass(frozen=True)
class HorizonRoll:
    """The horizon model rolled from one state (``_horizon_reach``).

    Row ``j`` of ``column``, ``floor`` and ``ceiling`` belongs to horizon
    step ``j + 1``: ``column[j] = A^j B`` is a block of H's first block
    column, which ``build_qp`` takes with ``rhs``: ``limit - sign * A^(j+1) x``
    for each catalogued row, in ``build_qp``'s order after the flow signs.
    ``h_limit`` is the feasibility test's limit on the inequality rows, which
    ``rhs`` sets. ``floor[j, r]`` and ``ceiling[j, r]`` bound road r's
    predicted density over every point that ``solve_qp``'s feasibility test
    admits in the full program.
    """

    column: np.ndarray
    rhs: np.ndarray
    floor: np.ndarray
    ceiling: np.ndarray
    h_limit: float

    @property
    def n_variables(self) -> int:
        return self.column.shape[0] * self.column.shape[2]


def _horizon_reach(
    x: np.ndarray, a: PatternMatrix, b: np.ndarray, config: MpcConfig
) -> HorizonRoll:
    """One roll over the horizon: one mat-vec and ``n_tau - 1`` products
    ``A @ [A^m B, A^(m+1) x]``, each an n x (n_input + 1) array, so the free
    response rides along with the blocks as one more column. Each column of
    a product is summed as a mat-vec of its own would be.

    ``U >= 0`` and the per-step sums ``d0`` make each step's flows a scaled
    simplex, so over them step m moves road r's density by at least ``d0 *
    low[m, r]`` and at most ``d0 * high[m, r]``, the least and greatest
    entry of row r of ``A^m B``: LP presolve's row-activity bounds. The
    feasibility test admits flows down to ``-h_limit`` and per-step sums
    within ``b_limit`` of ``d0``; over those points step m lowers the floor
    by a further ``b_limit * |low| + h_limit * spread_low`` and lifts the
    ceiling by ``b_limit * |high| + h_limit * spread_high``, and no more,
    where the spreads are the row's sums of distances to its least and its
    greatest entry.

    In the ``d0`` terms ``low`` counts as at most 0 and ``high`` as at
    least 0. With an outlet column (<= 0) and an inlet column (>= 0), as in
    every validated network, that changes nothing, and either way both
    bounds hold at every demand in ``[0, d0]``: as demand falls, the floor
    only rises and the ceiling only falls, with ``b_limit``.
    """
    n_tau, n_input = config.n_tau, b.shape[1]
    stacked = np.empty((n_tau, x.size, n_input + 1))
    stacked[0, :, :n_input], stacked[0, :, n_input] = b, a @ x
    column, free = stacked[..., :n_input], stacked[..., n_input]
    low, high, total = np.empty((3, n_tau, x.size))
    for m in range(n_tau):
        if m:
            stacked[m] = a @ stacked[m - 1]
        by_road = column[m].T.copy()  # road-major: each bound reduces contiguous rows
        low[m], high[m], total[m] = by_road.min(axis=0), by_road.max(axis=0), by_road.sum(axis=0)
    spread_low, spread_high = total - n_input * low, n_input * high - total

    rhs = (config.row_limit - config.row_sign * free).ravel()
    h_limit = feasibility_limit(rhs)
    b_limit = feasibility_limit(np.array([config.d0]))
    down = config.d0 * np.minimum(low, 0.0) - b_limit * np.abs(low) - h_limit * spread_low
    up = config.d0 * np.maximum(high, 0.0) + b_limit * np.abs(high) + h_limit * spread_high
    floor = free + np.cumsum(down, axis=0)
    ceiling = free + np.cumsum(up, axis=0)
    return HorizonRoll(column, rhs, floor, ceiling, h_limit)


def _presolve(roll: HorizonRoll, config: MpcConfig) -> tuple[np.ndarray, np.ndarray]:
    """LP presolve on the full program's prediction rows (Brearley, Mitra &
    Williams, Math. Programming 8, 1975; Andersen & Andersen, Math.
    Programming 71, 1995): the rows that no point admitted by ``solve_qp``'s
    feasibility test meets, and the rows that the program must hold, both in
    ``build_qp``'s numbering and increasing order.

    Over the admitted points a row's excess ``sign * x - limit`` lies in
    ``[least, most]``, its ends read off ``floor`` and ``ceiling`` in the
    order that the block's sign sets. A row with ``least
    > h_limit`` is blocked: no start passes the test, so ``solve_qp`` would
    return INFEASIBLE, and since the bounds hold at every demand in ``[0,
    d0]``, so would the zero-demand probe. A row with ``most < -h_limit``
    keeps a slack above ``h_limit`` at every admitted point and is left out.
    The solver's iterates stay admitted: it starts only from a point that
    the test passes, keeps the per-step sums, and stops each step at the
    first kept row that it reaches, flow signs included. So a row left out
    is never violated, never active, and never the first row that a step
    reaches; the full program would take the same steps and working sets,
    and so would every demand probe, which changes only the equality rows.
    Every flow-sign row is kept, and so is the row that sets ``max |rhs|``,
    so the program's feasibility limit, and with it every verdict, is the
    full program's.
    """
    sign, up = config.row_sign, config.row_sign > 0
    least = sign * np.where(up, roll.floor, roll.ceiling) - config.row_limit
    most = sign * np.where(up, roll.ceiling, roll.floor) - config.row_limit
    n = roll.n_variables
    # a NaN density makes h_limit NaN and every comparison False: it blocks
    # no row and keeps every row
    blocked = n + np.flatnonzero(least > roll.h_limit)
    kept = ~(most < -roll.h_limit).ravel()
    kept[np.argmax(np.abs(roll.rhs))] = True
    return blocked, np.concatenate([np.arange(n), n + np.flatnonzero(kept)])


def _in_full_rows(sol: QpSolution, rows: np.ndarray, n_rows: int) -> QpSolution:
    """``sol``, a solution of the program that holds the full program's
    inequality rows ``rows`` of ``n_rows``, with its active set,
    multipliers and certificate in the full program's numbering."""
    duals = sol.ineq_duals
    if duals is not None:
        duals = np.zeros(n_rows)
        duals[rows] = sol.ineq_duals
    return replace(
        sol,
        ineq_duals=duals,
        active_set=tuple(map(int, rows[list(sol.active_set)])),
        infeasible_ineq_rows=tuple(map(int, rows[list(sol.infeasible_ineq_rows)])),
    )


def _outlets_only(outlets: np.ndarray, n_tau: int, d0: float) -> np.ndarray | None:
    """The start that ``control_step`` hands the solver: demand ``d0`` split
    evenly over the outlet columns of ``B`` (``outlets``, the columns with a
    negative entry), zero on every inlet, at each of the ``n_tau`` horizon
    steps. None when ``B`` has no outlet column. The outlet columns of
    ``A^m B`` are <= 0, so this point leaves every predicted density at or
    below its free response.
    """
    n_outlets = int(outlets.sum())
    if n_outlets == 0:
        return None
    return np.tile(np.where(outlets, d0 / n_outlets, 0.0), n_tau)


@dataclass(frozen=True)
class ControlDiagnostics:
    """The solve whose flows were applied, the demand they meet, and whether
    that demand was relaxed from ``d0``."""

    solution: QpSolution
    d0_applied: float
    fallback_used: bool


def control_step(
    state: TrafficState,
    a: np.ndarray | PatternMatrix,
    b: np.ndarray,
    config: MpcConfig,
) -> tuple[np.ndarray, ControlDiagnostics]:
    """Compute the boundary flows to apply at the current step.

    ``a`` is this step's state matrix and ``b`` the network's input matrix;
    both are held fixed across the horizon. A dense ``a`` is put on the
    pattern of its nonzero entries (``PatternMatrix.from_dense``), so a dense
    copy of the sampled matrix gives the same step. Returns the first block
    of the optimal stacked sequence together with solve diagnostics. Sizes
    that do not match the state raise ``ValueError``.

    Closed-form answers at both ends come first and build no program: the
    even split when it is the exact optimum (``_even_split``, optimal with 0
    iterations), and zero flows when the presolve (``_presolve``) finds a
    catalogued row blocked, of either kind (infeasible with
    those rows as certificate). Otherwise the program is built from the same
    roll, with only the rows that the presolve keeps; the solution's active
    set, multipliers and certificate are given in the full program's row
    numbering. Every solve of the program, demand probes included, starts
    from the outlets-only split of its own demand (``_outlets_only``, over
    the outlet columns found once per step), which ``solve_qp`` vets and,
    when it breaks a row, replaces by its least-norm or phase-one start; so
    a feasible binding step usually runs no phase one. Phase one
    (``qp.linprog``) takes proximal point steps, each a strictly convex
    program solved by ``solve_qp``, until its point passes the feasibility
    test or stops moving at a point of least worst violation.

    If the requested demand is infeasible for the current state and
    ``enforce_density_lower_bound`` is set, the demand is relaxed to the
    largest feasible value found by bisection (8 rounds). If not even zero
    demand is feasible, the returned flows are zero and the diagnostics hold
    the infeasible first solve. Without the lower bound that is the only
    outcome of an infeasible demand, and ``fallback_used`` is always False:
    the outlet columns of A^k B are <= 0, so any demand is feasible whenever
    zero flows are. The program is built once; a demand probe changes and
    checks only the right-hand side of its equality rows (``with_blocks``).
    """
    x = state.densities
    b = np.asarray(b, dtype=float)
    n_state = x.size
    if np.shape(a) != (n_state, n_state):
        raise ValueError(f"state matrix shape {np.shape(a)} does not match state size {n_state}")
    if b.ndim != 2 or b.shape[0] != n_state or b.shape[1] == 0:
        raise ValueError(f"input matrix shape {b.shape} does not match state size {n_state}")
    if config.x_max.size != n_state:
        raise ValueError(f"capacity vector has {config.x_max.size} entries, expected {n_state}")
    if not isinstance(a, PatternMatrix):
        a = PatternMatrix.from_dense(a)
    n_input = b.shape[1]

    sol = _even_split(x, a, b, config)
    if sol is not None:
        return sol.u_star[:n_input].copy(), ControlDiagnostics(sol, config.d0, False)
    roll = _horizon_reach(x, a, b, config)
    blocked, rows = _presolve(roll, config)
    if blocked.size:
        sol = QpSolution(SolveStatus.INFEASIBLE, infeasible_ineq_rows=tuple(map(int, blocked)))
        return np.zeros(n_input), ControlDiagnostics(sol, 0.0, False)
    problem = build_qp(roll.column, roll.rhs, config, rows)
    outlets = (b < 0).any(axis=0)

    def solve(d0: float) -> QpSolution:
        program = problem.with_blocks(eq_rhs=np.full(config.n_tau, d0))
        sol = solve_qp(program, initial_point=_outlets_only(outlets, config.n_tau, d0))
        return _in_full_rows(sol, rows, roll.n_variables + roll.rhs.size)

    sol = solve(config.d0)
    d0_applied, fallback = config.d0, False
    if sol.status is SolveStatus.INFEASIBLE:
        # without the lower bound, zero demand is infeasible too (docstring)
        zero_sol = solve(0.0) if config.enforce_density_lower_bound else sol
        if zero_sol.status is not SolveStatus.OPTIMAL:
            return np.zeros(n_input), ControlDiagnostics(sol, 0.0, False)
        fallback = True
        lo, hi, best = 0.0, config.d0, zero_sol
        for _ in range(8):
            mid = 0.5 * (lo + hi)
            probe = solve(mid)
            if probe.status is SolveStatus.OPTIMAL:
                lo, best = mid, probe
            else:
                hi = mid
        sol, d0_applied = best, lo

    return sol.u_star[:n_input].copy(), ControlDiagnostics(sol, d0_applied, fallback)
