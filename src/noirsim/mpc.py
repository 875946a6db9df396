"""Receding-horizon boundary-flow controller.

Each step builds a finite-horizon prediction of the interior densities from
the current state matrix (held fixed across the horizon), stacks the cost
and feasibility constraints into a quadratic program, solves it, and applies
only the first step of the optimal boundary-flow sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# The assemble_* names are unused here; benchmarks/tracing.py still wraps them.
from .dynamics import TrafficState, assemble_input_matrix, assemble_state_matrix  # noqa: F401
from .qp import KktResiduals, QpProblem, QpSolution, SolveStatus, solve_qp


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


def build_prediction(a: np.ndarray, b: np.ndarray, n_tau: int) -> PredictionMatrices:
    """Stack the horizon prediction matrices for fixed (a, b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not isinstance(n_tau, int) or isinstance(n_tau, bool) or n_tau < 1:
        raise ValueError(f"horizon must be a positive integer, got {n_tau!r}")
    n_state = a.shape[0]
    if a.shape != (n_state, n_state):
        raise ValueError("state matrix must be square")
    if b.ndim != 2 or b.shape[0] != n_state:
        raise ValueError(f"input matrix shape {b.shape} does not match state size {n_state}")
    n_input = b.shape[1]

    powers = [a]
    for _ in range(n_tau - 1):
        powers.append(powers[-1] @ a)
    g = np.vstack(powers)

    blocks = [b]
    for level in range(1, n_tau):
        blocks.append(powers[level - 1] @ b)
    h = np.zeros((n_tau * n_state, n_tau * n_input))
    for r in range(n_tau):
        for c in range(r + 1):
            h[r * n_state : (r + 1) * n_state, c * n_input : (c + 1) * n_input] = blocks[r - c]
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

    return QpProblem.build(
        hessian=np.eye(n),
        linear=np.zeros(n),
        eq_matrix=eq,
        eq_rhs=eq_rhs,
        ineq_matrix=ineq,
        ineq_rhs=rhs,
    )


@dataclass(frozen=True)
class ControlDiagnostics:
    status: SolveStatus
    cost: float | None
    kkt: KktResiduals | None
    active_set_size: int
    d0_applied: float
    fallback_used: bool
    iterations: int


def control_step(
    state: TrafficState,
    a: np.ndarray,
    b: np.ndarray,
    config: MpcConfig,
) -> tuple[np.ndarray, ControlDiagnostics]:
    """Compute the boundary flows to apply at the current step.

    ``a`` is this step's state matrix and ``b`` the network's input matrix;
    both are held fixed across the horizon. Returns the first block of the
    optimal stacked sequence together with solve diagnostics. If the
    requested demand is infeasible for the current state, the demand is
    relaxed to the largest feasible value found by bisection (8 rounds); if
    not even zero demand is feasible the returned flows are zero and the
    status reports infeasibility. The program is built once; a demand probe
    changes only the right-hand side of its equality rows.
    """
    pm = build_prediction(a, b, config.n_tau)
    problem = build_qp(pm, state, config)

    def solve_with_demand(d0: float) -> QpSolution:
        probe = replace(problem, eq_rhs=np.full(pm.n_tau, float(d0)))
        hint = np.full(problem.n_variables, d0 / pm.n_input)
        return solve_qp(probe, initial_point=hint)

    sol = solve_with_demand(config.d0)
    d0_applied = config.d0
    fallback = False
    if sol.status is SolveStatus.INFEASIBLE:
        fallback = True
        zero_sol = solve_with_demand(0.0)
        if zero_sol.status is not SolveStatus.OPTIMAL:
            diag = ControlDiagnostics(
                status=SolveStatus.INFEASIBLE,
                cost=None,
                kkt=None,
                active_set_size=0,
                d0_applied=0.0,
                fallback_used=False,
                iterations=sol.n_iterations,
            )
            return np.zeros(pm.n_input), diag
        lo, best = 0.0, zero_sol
        hi = config.d0
        for _ in range(8):
            mid = 0.5 * (lo + hi)
            probe = solve_with_demand(mid)
            if probe.status is SolveStatus.OPTIMAL:
                lo, best = mid, probe
            else:
                hi = mid
        sol, d0_applied = best, lo

    s_star = np.array(sol.u_star[: pm.n_input], dtype=float, copy=True)
    diag = ControlDiagnostics(
        status=sol.status,
        cost=sol.cost,
        kkt=sol.kkt,
        active_set_size=len(sol.active_set),
        d0_applied=d0_applied,
        fallback_used=fallback,
        iterations=sol.n_iterations,
    )
    return s_star, diag
