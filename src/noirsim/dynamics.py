"""Stochastic per-step flow sampling and the interior density update.

The interior densities evolve as x[k+1] = A[k] x[k] + B s[k], where A[k] is
assembled each step from freshly sampled outflow probabilities and turn
fractions, and B maps boundary inflows/outflows onto the interior state.

A[k] has one entry per interior-to-interior edge plus the diagonal, a small
share of the n x n matrix on a street network, so the turn fractions and
A[k] are ``scipy.sparse`` CSC arrays on that one pattern, which the graph
derives once: the fractions store 0 on the diagonal, and A[k] shares their
row indices and column pointers. Each is made by one constructor call from
its data, row indices and column pointers; no step builds a dense n x n
array. B stays dense: it has one column per boundary road.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .graph import NoirGraph


@dataclass(frozen=True)
class TrafficState:
    """Interior densities (vehicles per road element) at a discrete step."""

    densities: np.ndarray
    step: int = 0

    def __post_init__(self) -> None:
        x = np.array(self.densities, dtype=float, copy=True).reshape(-1)
        if not np.isfinite(x).all():
            bad = int(np.argmin(np.isfinite(x)))
            raise ValueError(f"density {x[bad]} at state index {bad} is not finite")
        object.__setattr__(self, "densities", x)


def sample_matrices(
    rng: np.random.Generator,
    graph: NoirGraph,
    state: TrafficState,
    p_max: float = 0.9,
) -> tuple[np.ndarray, scipy.sparse.csc_array]:
    """Draw one step's outflow probabilities ``p`` and turn fractions ``q``.

    ``p[i]`` is the fraction of interior road i's density that leaves it
    during the step: uniform on [0, p_max], and exactly 0 where ``|x[i]| <=
    1e-9`` veh, so round-off in a zero density cannot flip it. Turn
    fractions are uniform on the simplex over each non-outlet node's
    out-neighbors (flat Dirichlet). ``q`` holds their interior-to-interior
    block in state order: ``q[i, j]`` is the fraction of interior node j's
    outflow that enters interior node i, so a column falls short of 1 by
    the share its road sends to outlets. ``q`` is a sparse CSC array on the
    state matrix's pattern: one stored entry per interior-to-interior edge
    and an explicit 0 on each diagonal entry (the graph has no self-loops),
    column by column with sorted rows. Given the same generator state the
    result is bit-identical. Where each draw goes, and ``q``'s row indices
    and column pointers, are the graph's ``turn_plan``, derived on its first
    draw and kept; a step draws the numbers and sums them, and ``q`` shares
    the plan's read-only index arrays.
    """
    if not 0.0 < p_max < 1.0:
        raise ValueError(f"p_max must lie strictly between 0 and 1, got {p_max}")
    n_i = graph.n_interior
    x = state.densities
    if x.shape != (n_i,):
        raise ValueError(f"state has {x.shape[0]} entries, expected {n_i}")

    p = rng.uniform(0.0, p_max, size=n_i)
    p[np.abs(x) <= 1e-9] = 0.0

    # One flat Dirichlet per inlet or interior node with two or more
    # out-edges, drawn in (tail, head) order exactly as Generator.dirichlet
    # computes it: gamma(1) variates, summed left to right (bincount adds
    # each node's variates in order; np.sum and np.add.reduceat can round
    # differently) and multiplied by the reciprocal of the sum. The inlet
    # splits come first and are unused; they are drawn so that the random
    # stream, and every later draw, stays fixed.
    plan = graph.turn_plan
    gammas = rng.standard_gamma(1.0, size=plan.n_inlet_draws + plan.owner.size)
    gammas = gammas[plan.n_inlet_draws :]
    total = np.bincount(plan.owner, weights=gammas)
    data = np.ones(plan.indices.size)
    data[plan.diagonal] = 0.0
    data[plan.put] = (gammas * (1.0 / total[plan.owner]))[plan.pick]
    q = scipy.sparse.csc_array((data, plan.indices, plan.indptr), shape=(n_i, n_i))
    # the plan's rows are sorted and distinct in each column; saying so
    # spares the assembly scipy's scan of them
    q.has_canonical_format = True
    return p, q


def assemble_state_matrix(
    p: np.ndarray, q: np.ndarray | scipy.sparse.sparray
) -> scipy.sparse.csc_array:
    """State matrix of the density update: identity minus outflow plus routed inflow.

    Entry (i, j) for i != j is ``q[i, j] * p[j]``; the diagonal is
    ``1 - p[i]`` plus any self-routing ``q[i, i] * p[i]``. All entries are
    nonnegative by construction, exactly (no rounding slack), whenever p is
    in [0, 1], and each equals the same entry of the dense
    ``q * p + diag(1 - p)`` bit for bit.

    ``q`` may be dense or sparse. The result is a CSC array on ``q``'s
    pattern, sharing its row indices and column pointers, when ``q`` is a
    canonical CSC array that stores every diagonal entry, as the sampler's
    does; anything else is first made into one, with repeated entries
    summed and a missing diagonal entry stored as 0. The result's pattern
    is ``q``'s plus the diagonal, with sorted rows.
    """
    p = np.asarray(p, dtype=float)
    n = p.size
    if not (scipy.sparse.issparse(q) and q.format == "csc"):
        q = scipy.sparse.csc_array(q, dtype=float)
    if q.shape != (n, n):
        raise ValueError(f"fraction matrix shape {q.shape} does not match {n} roads")
    cols = np.repeat(np.arange(n), q.indptr[1:] - q.indptr[:-1])
    diagonal = (q.indices == cols).nonzero()[0]
    if not (diagonal.size == n and q.has_canonical_format):
        # a canonical copy with an explicit 0 on each diagonal entry: the
        # (data, (row, col)) constructor sums repeated entries and keeps zeros
        k = np.arange(n)
        q = scipy.sparse.csc_array(
            (np.r_[q.data, np.zeros(n)], (np.r_[q.indices, k], np.r_[cols, k])), shape=(n, n)
        )
        cols = np.repeat(k, q.indptr[1:] - q.indptr[:-1])
        diagonal = (q.indices == cols).nonzero()[0]
    data = q.data * p[cols]
    data[diagonal] += 1.0 - p
    return scipy.sparse.csc_array((data, q.indices, q.indptr), shape=(n, n))


def assemble_input_matrix(graph: NoirGraph) -> np.ndarray:
    """Constant map from boundary flows to interior density changes.

    Column j (a boundary node) has +1 in row i when inlet j feeds interior
    node i, and -1 when interior node i feeds outlet j; all other entries
    are zero.
    """
    nb = graph.n_boundary
    tails, heads = graph.edge_tails, graph.edge_heads
    b = np.zeros((graph.n_interior, nb))
    feed = (tails <= graph.n_inlets) & (heads > nb)
    b[heads[feed] - nb - 1, tails[feed] - 1] = 1.0
    drain = (tails > nb) & (heads > graph.n_inlets) & (heads <= nb)
    b[tails[drain] - nb - 1, heads[drain] - 1] = -1.0
    return b


def step(
    state: TrafficState, a: np.ndarray | scipy.sparse.sparray, b: np.ndarray, s: np.ndarray
) -> TrafficState:
    """Advance the density state one step: x' = a x + b s.

    ``a`` may be a dense or a sparse array. No clamping is applied; keeping
    densities inside their bounds is the controller's job, and any violation
    should stay visible.
    """
    x = state.densities
    s = np.asarray(s, dtype=float).reshape(-1)
    if a.shape != (x.size, x.size):
        raise ValueError(f"state matrix shape {a.shape} does not match state size {x.size}")
    if b.shape != (x.size, s.size):
        raise ValueError(f"input matrix shape {b.shape} does not match ({x.size}, {s.size})")
    return TrafficState(densities=a @ x + b @ s, step=state.step + 1)
