"""Receding-horizon boundary-flow controller.

Each step predicts the interior densities over a finite horizon from the
current state matrix (held fixed across the horizon) and applies only the
first step of the optimal boundary-flow sequence. The cost is half the
squared norm of the flows, so under the per-step budget alone the optimum
is the even split ``d0 / n_input`` at every step. A step tries closed-form
answers at both ends before the program. It first rolls that split forward
with ``n_tau`` mat-vecs; when no predicted density breaks its capacity (or,
under the lower bound, goes negative) the split is the exact optimum and the
step returns it with its closed-form certificate. It then rolls the least
density that any admissible flow leaves; when that floor exceeds a capacity
beyond the solver's feasibility tolerance, no flow is feasible, with or
without the lower bound, and the step returns zero flows with those capacity
rows as its certificate. Only otherwise does it stack the cost and
feasibility constraints into a quadratic program and solve it, starting from
the outlets-only split: the demand spread evenly over the outlets and none
on the inlets. Outlet flows only lower densities, so once no capacity row is
blocked that point usually meets every row and the solver runs no phase-one
LP; where it breaks a row, the solver's phase one is the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

# The assemble_* names are unused here; benchmarks/tracing.py still wraps them.
from .dynamics import TrafficState, assemble_input_matrix, assemble_state_matrix  # noqa: F401
from .qp import KktResiduals, QpProblem, QpSolution, SolveStatus, feasibility_limit, solve_qp


@dataclass(frozen=True)
class MpcConfig:
    """Controller parameters.

    ``d0`` is the total number of vehicles that must cross the boundary per
    step; ``x_max`` the per-interior-road capacities in state order. Both
    must be finite and positive. The density lower-bound constraint is off
    by default: the autonomous part of the dynamics cannot produce negative
    densities, so the bound only matters when outlet draws overshoot (see
    ``enforce_density_lower_bound``).
    """

    d0: float
    x_max: np.ndarray
    n_tau: int = 5
    enforce_density_lower_bound: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.d0 < np.inf:
            raise ValueError(f"d0 must be finite and positive, got {self.d0}")
        if not isinstance(self.n_tau, int) or isinstance(self.n_tau, bool) or self.n_tau < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.n_tau!r}")
        x_max = np.array(self.x_max, dtype=float, copy=True).reshape(-1)
        if x_max.size == 0 or not ((x_max > 0) & (x_max < np.inf)).all():
            raise ValueError("x_max must be entrywise finite and positive")
        object.__setattr__(self, "x_max", x_max)


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
    a: np.ndarray | scipy.sparse.sparray, b: np.ndarray, n_tau: int
) -> PredictionMatrices:
    """Stack the horizon prediction matrices for fixed (a, b).

    ``a`` may be dense or sparse. A sparse ``a`` is densified here, the one
    place where the state matrix becomes an n x n dense array: G and H are
    dense, and only a step that the closed forms do not settle builds them.
    """
    a = a.toarray() if scipy.sparse.issparse(a) else np.asarray(a, dtype=float)
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


def build_qp(pm: PredictionMatrices, state: TrafficState, config: MpcConfig) -> QpProblem:
    """Stack the horizon cost and constraints into a quadratic program.

    Cost is 0.5 * ||U||^2 over the stacked boundary flows. Constraints: each
    horizon step's flows sum to d0 (equality), U >= 0, and predicted
    densities stay at or below capacity. With the lower bound enabled,
    predicted densities are additionally kept nonnegative.
    """
    x = state.densities
    if x.size != pm.n_state:
        raise ValueError(f"state size {x.size} does not match prediction ({pm.n_state})")
    if config.x_max.size != pm.n_state:
        raise ValueError(
            f"capacity vector has {config.x_max.size} entries, expected {pm.n_state}"
        )

    n = pm.n_tau * pm.n_input
    eq = np.kron(np.eye(pm.n_tau), np.ones((1, pm.n_input)))
    eq_rhs = np.full(pm.n_tau, float(config.d0))

    free_response = pm.G @ x
    cap_rhs = np.tile(config.x_max, pm.n_tau) - free_response
    ineq = np.vstack([-np.eye(n), pm.H])
    rhs = np.concatenate([np.zeros(n), cap_rhs])
    if config.enforce_density_lower_bound:
        ineq = np.vstack([ineq, -pm.H])
        rhs = np.concatenate([rhs, free_response])

    return QpProblem(
        hessian=np.eye(n),
        linear=np.zeros(n),
        eq_matrix=eq,
        eq_rhs=eq_rhs,
        ineq_matrix=ineq,
        ineq_rhs=rhs,
    )


def _even_split(
    x: np.ndarray, a: np.ndarray | scipy.sparse.sparray, b: np.ndarray, config: MpcConfig
) -> QpSolution | None:
    """The horizon program's closed-form solution when the even split breaks
    none of its rows, else None.

    With ``lam = 0`` and ``nu_k = -d0 / n_input`` the split meets
    stationarity and the per-step sums; ``U >= 0`` holds because ``d0 > 0``,
    and the densities rolled forward here cover the capacity and lower-bound
    rows.
    """
    n_state, n_input = b.shape
    s_bar = np.full(n_input, config.d0 / n_input)
    inflow = b @ s_bar
    x_hat = x
    for _ in range(config.n_tau):
        x_hat = a @ x_hat + inflow
        # written so that a NaN density falls through as well
        if not (x_hat <= config.x_max).all():
            return None
        if config.enforce_density_lower_bound and not (x_hat >= 0.0).all():
            return None

    u = np.tile(s_bar, config.n_tau)
    nu = np.full(config.n_tau, -s_bar[0])
    bound_rows = config.n_tau * n_state * (2 if config.enforce_density_lower_bound else 1)
    # lam = 0 and every row holds, so the inequality residuals are zero
    kkt = KktResiduals(
        stationarity=float(np.abs(u + np.repeat(nu, n_input)).max()),
        primal_equality=float(np.abs(u.reshape(-1, n_input).sum(axis=1) - config.d0).max()),
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
        ineq_duals=np.zeros(u.size + bound_rows),
        n_iterations=0,
        active_set=(),
    )


def _horizon_reach(
    x: np.ndarray, a: np.ndarray | scipy.sparse.sparray, b: np.ndarray, n_tau: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One roll over the horizon: ``n_tau`` mat-vecs and ``n_tau - 1``
    products ``A @ (A^m B)``.

    Row ``m`` of each result is: the free response ``A^(m+1) x``; the least
    entry of each row of ``A^m B``, ``min_i (A^m B)[r, i]``; and that row's
    spread above it, ``sum_i ((A^m B)[r, i] - min_i (A^m B)[r, i])``.
    """
    free = np.empty((n_tau, x.size))
    low = np.empty((n_tau, x.size))
    spread = np.empty((n_tau, x.size))
    reach, x_hat = b, x
    for m in range(n_tau):
        if m:
            reach = a @ reach
        x_hat = free[m] = a @ x_hat
        low[m] = reach.min(axis=1)
        spread[m] = reach.sum(axis=1) - b.shape[1] * low[m]
    return free, low, spread


def _blocked_capacity(
    x: np.ndarray, a: np.ndarray | scipy.sparse.sparray, b: np.ndarray, config: MpcConfig
) -> QpSolution | None:
    """The horizon program's infeasibility certificate when some capacity
    row fails ``solve_qp``'s feasibility test at every point, else None.

    ``U >= 0`` and the per-step sums ``d0`` make each step's flows a scaled
    simplex, so the least density of road r at horizon step j (1-based) is
    ``(A^j x)[r] + d0 * sum_{m<j} low[m, r]``, the row-activity bound of LP
    presolve. The feasibility test admits flows down to ``-h_limit`` and
    per-step sums within ``b_limit`` of ``d0``; over those points step m
    lowers the floor by a further ``b_limit * |low[m, r]| + h_limit *
    spread[m, r]``, and no more. A row whose floor still exceeds its
    capacity by more than ``h_limit`` is blocked: no start passes the test,
    so ``solve_qp`` would return INFEASIBLE as well, under both bounds:
    ``h_limit`` is that of the whole inequality right-hand side that
    ``build_qp`` stacks, and extra rows only shrink the admissible points.
    The certificate lists the blocked rows in the program's row order,
    ``n_tau * n_input + (j - 1) * n_state + r``.
    """
    free, low, spread = _horizon_reach(x, a, b, config.n_tau)
    rhs = [config.x_max - free] + ([free] if config.enforce_density_lower_bound else [])
    h_limit = feasibility_limit(np.concatenate(rhs))
    b_limit = feasibility_limit(np.array([config.d0]))
    per_step = config.d0 * low - b_limit * np.abs(low) - h_limit * spread
    floor = free + np.cumsum(per_step, axis=0)
    # a NaN density makes h_limit NaN and every comparison False, so it
    # falls through as well
    blocked = np.flatnonzero(floor - config.x_max > h_limit)
    if blocked.size == 0:
        return None
    rows = config.n_tau * b.shape[1] + blocked
    return QpSolution(SolveStatus.INFEASIBLE, infeasible_ineq_rows=tuple(map(int, rows)))


def _closed_form(
    state: TrafficState, a: np.ndarray | scipy.sparse.sparray, b: np.ndarray, config: MpcConfig
) -> QpSolution | None:
    """The step's answer when one of the two closed forms settles it: the
    even split when it breaks no row, or the certificate of a capacity row
    that no admissible flow can meet, under either bound. None otherwise,
    and for sizes that do not fit, so that the program reports those. Given
    an outlet column in ``b``, as in every validated network, each ``low``
    of ``A^m B`` is <= 0, so the floor only rises as demand falls: a row
    blocked at ``d0`` is blocked at zero demand too, and a certified step
    under the lower bound returns the zero flows that ``control_step``'s
    zero-demand probe would.
    """
    x = state.densities
    n_state = x.size
    b = np.asarray(b, dtype=float)
    if np.shape(a) != (n_state, n_state) or b.ndim != 2 or b.shape[0] != n_state:
        return None
    if b.shape[1] == 0 or config.x_max.size != n_state:
        return None
    sol = _even_split(x, a, b, config)
    if sol is None:
        sol = _blocked_capacity(x, a, b, config)
    return sol


def _outlets_only(b: np.ndarray, n_tau: int, d0: float) -> np.ndarray | None:
    """The start that ``control_step`` hands the solver: demand ``d0`` split
    evenly over the outlet columns of ``b`` (those with a negative entry),
    zero on every inlet, at each of the ``n_tau`` horizon steps. None when
    ``b`` has no outlet column. The outlet columns of ``A^m B`` are <= 0,
    so this point leaves every predicted density at or below its free
    response.
    """
    outlets = (np.asarray(b) < 0).any(axis=0)
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
    a: np.ndarray | scipy.sparse.sparray,
    b: np.ndarray,
    config: MpcConfig,
) -> tuple[np.ndarray, ControlDiagnostics]:
    """Compute the boundary flows to apply at the current step.

    ``a`` is this step's state matrix, dense or sparse, and ``b`` the
    network's input matrix; both are held fixed across the horizon. Returns
    the first block of the optimal stacked sequence together with solve
    diagnostics.

    Closed-form answers at both ends come first and build no program: the
    even split when it is the exact optimum (``_even_split``, optimal with 0
    iterations), and zero flows when a capacity row is blocked under either
    bound (``_blocked_capacity``, infeasible with those rows as certificate).
    Every solve of the program, demand probes included, starts from the
    outlets-only split of its own demand (``_outlets_only``), which
    ``solve_qp`` vets and, when it breaks a row, replaces by its least-norm
    or phase-one start; so a feasible binding step usually runs no LP.

    If the requested demand is infeasible for the current state and
    ``enforce_density_lower_bound`` is set, the demand is relaxed to the
    largest feasible value found by bisection (8 rounds). If not even zero
    demand is feasible, the returned flows are zero and the diagnostics hold
    the infeasible first solve. Without the lower bound that is the only
    outcome of an infeasible demand, and ``fallback_used`` is always False:
    the outlet columns of A^k B are <= 0, so any demand is feasible whenever
    zero flows are. The program is built once; a demand probe changes only
    the right-hand side of its equality rows.
    """
    sol = _closed_form(state, a, b, config)
    if sol is not None:
        n_input = np.shape(b)[1]
        if sol.status is SolveStatus.INFEASIBLE:
            return np.zeros(n_input), ControlDiagnostics(sol, 0.0, False)
        return sol.u_star[:n_input].copy(), ControlDiagnostics(sol, config.d0, False)

    pm = build_prediction(a, b, config.n_tau)
    problem = build_qp(pm, state, config)

    def solve(program: QpProblem, d0: float) -> QpSolution:
        return solve_qp(program, initial_point=_outlets_only(b, pm.n_tau, d0))

    def solve_with_demand(d0: float) -> QpSolution:
        return solve(replace(problem, eq_rhs=np.full(pm.n_tau, float(d0))), d0)

    # build_qp already asks for d0 at every horizon step
    sol = solve(problem, config.d0)
    d0_applied, fallback = config.d0, False
    if sol.status is SolveStatus.INFEASIBLE:
        # without the lower bound, zero demand is infeasible too (docstring)
        zero_sol = solve_with_demand(0.0) if config.enforce_density_lower_bound else sol
        if zero_sol.status is not SolveStatus.OPTIMAL:
            return np.zeros(pm.n_input), ControlDiagnostics(sol, 0.0, False)
        fallback = True
        lo, hi, best = 0.0, config.d0, zero_sol
        for _ in range(8):
            mid = 0.5 * (lo + hi)
            probe = solve_with_demand(mid)
            if probe.status is SolveStatus.OPTIMAL:
                lo, best = mid, probe
            else:
                hi = mid
        sol, d0_applied = best, lo

    return sol.u_star[: pm.n_input].copy(), ControlDiagnostics(sol, d0_applied, fallback)
