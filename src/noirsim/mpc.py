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
from .qp import QpProblem, QpSolution, SolveStatus, solve_qp


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


@dataclass(frozen=True)
class ControlDiagnostics:
    """The solve whose flows were applied, the demand they meet, and whether
    that demand was relaxed from ``d0``."""

    solution: QpSolution
    d0_applied: float
    fallback_used: bool


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
    requested demand is infeasible for the current state and
    ``enforce_density_lower_bound`` is set, the demand is relaxed to the
    largest feasible value found by bisection (8 rounds). If not even zero
    demand is feasible, the returned flows are zero and the diagnostics hold
    the infeasible first solve. Without the lower bound that is the only
    outcome of an infeasible demand, and ``fallback_used`` is always False:
    the outlet columns of A^k B are <= 0, so any demand is feasible whenever
    zero flows are. The program is built once; a demand probe changes only
    the right-hand side of its equality rows.
    """
    pm = build_prediction(a, b, config.n_tau)
    problem = build_qp(pm, state, config)

    def hint(d0: float) -> np.ndarray:
        return np.full(problem.n_variables, d0 / pm.n_input)

    def solve_with_demand(d0: float) -> QpSolution:
        probe = replace(problem, eq_rhs=np.full(pm.n_tau, float(d0)))
        return solve_qp(probe, initial_point=hint(d0))

    # build_qp already asks for d0 at every horizon step
    sol = solve_qp(problem, initial_point=hint(config.d0))
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
