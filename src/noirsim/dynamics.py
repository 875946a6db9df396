"""Stochastic per-step flow sampling and the interior density update.

The interior densities evolve as x[k+1] = A[k] x[k] + B s[k], where A[k] is
assembled each step from freshly sampled outflow probabilities and turn
fractions, and B maps boundary inflows/outflows onto the interior state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import NoirGraph


@dataclass(frozen=True)
class TrafficState:
    """Interior densities (vehicles per road element) at a discrete step."""

    densities: np.ndarray
    step: int = 0

    def __post_init__(self) -> None:
        x = np.array(self.densities, dtype=float, copy=True).reshape(-1)
        object.__setattr__(self, "densities", x)


def sample_matrices(
    rng: np.random.Generator,
    graph: NoirGraph,
    state: TrafficState,
    p_max: float = 0.9,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one step's outflow probabilities ``p`` and turn fractions ``q``.

    ``p[i]`` is the fraction of interior road i's density that leaves it
    during the step: uniform on [0, p_max], and exactly 0 on roads with zero
    density. Turn fractions are uniform on the simplex over each non-outlet
    node's out-neighbors (flat Dirichlet). ``q`` holds their
    interior-to-interior block in state order: ``q[i, j]`` is the fraction
    of interior node j's outflow that enters interior node i, so a column
    falls short of 1 by the share its road sends to outlets. Given the same
    generator state the result is bit-identical.
    """
    if not 0.0 < p_max < 1.0:
        raise ValueError(f"p_max must lie strictly between 0 and 1, got {p_max}")
    n_i = graph.n_interior
    x = state.densities
    if x.shape != (n_i,):
        raise ValueError(f"state has {x.shape[0]} entries, expected {n_i}")

    p = rng.uniform(0.0, p_max, size=n_i)
    p[x == 0.0] = 0.0

    nb = graph.n_boundary
    tails, heads = graph.edge_tails, graph.edge_heads
    out_deg = np.diff(graph.out_offsets)
    # One flat Dirichlet per inlet or interior node with two or more
    # out-edges, drawn in (tail, head) order exactly as Generator.dirichlet
    # computes it: gamma(1) variates, summed left to right (a column at a
    # time; np.sum and np.add.reduceat can round differently) and multiplied
    # by the reciprocal of the sum. The inlet splits are unused; they are
    # drawn so that the random stream, and every later draw, stays fixed.
    split = (out_deg[tails - 1] >= 2) & ((tails <= graph.n_inlets) | (tails > nb))
    owner = tails[split] - 1
    slot = np.flatnonzero(split) - graph.out_offsets[owner]
    gammas = rng.standard_gamma(1.0, size=owner.size)
    padded = np.zeros((graph.n_total, int(out_deg.max(initial=0))))
    padded[owner, slot] = gammas
    total = np.zeros(graph.n_total)
    for column in padded.T:
        total += column
    frac = np.ones(tails.size)
    frac[split] = gammas * (1.0 / total[owner])

    inner = (tails > nb) & (heads > nb)
    matrix = np.zeros((n_i, n_i))
    matrix[heads[inner] - nb - 1, tails[inner] - nb - 1] = frac[inner]
    return p, matrix


def assemble_state_matrix(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """State matrix of the density update: identity minus outflow plus routed inflow.

    Entry (i, j) for i != j is ``q[i, j] * p[j]``; the diagonal is
    ``1 - p[i]`` plus any self-routing. All entries are nonnegative by
    construction, exactly (no rounding slack), whenever p is in [0, 1].
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = p.size
    if q.shape != (n, n):
        raise ValueError(f"fraction matrix shape {q.shape} does not match {n} roads")
    a = q * p[np.newaxis, :]
    idx = np.arange(n)
    a[idx, idx] += 1.0 - p
    return a


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


def step(state: TrafficState, a: np.ndarray, b: np.ndarray, s: np.ndarray) -> TrafficState:
    """Advance the density state one step: x' = a x + b s.

    No clamping is applied; keeping densities inside their bounds is the
    controller's job, and any violation should stay visible.
    """
    x = state.densities
    s = np.asarray(s, dtype=float).reshape(-1)
    if a.shape != (x.size, x.size):
        raise ValueError(f"state matrix shape {a.shape} does not match state size {x.size}")
    if b.shape != (x.size, s.size):
        raise ValueError(f"input matrix shape {b.shape} does not match ({x.size}, {s.size})")
    return TrafficState(densities=a @ x + b @ s, step=state.step + 1)
