"""Stochastic per-step flow sampling and the interior density update.

The interior densities evolve as x[k+1] = A[k] x[k] + B s[k], where A[k] is
assembled each step from freshly sampled outflow probabilities and turn
fractions, and B maps boundary inflows/outflows onto the interior state.

A[k] has one entry per interior-to-interior edge plus the diagonal, a small
share of the n x n matrix on a street network, so the turn fractions and
A[k] are ``PatternMatrix`` values on that one ``graph.Pattern``, which the
graph derives once: the fractions store 0 on the diagonal, and A[k] shares
their pattern. Their values sit in the pattern's row slots, a fixed-width
layout (ELLPACK; Bell & Garland, "Implementing sparse matrix-vector
multiplication on throughput-oriented processors", SC 2009): the sampler
and the assembly write the slots and a product reads them row by row, in
numpy alone; no step builds a dense n x n array. B stays dense: it has one
column per boundary road.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import NoirGraph, Pattern, slot_pattern


@dataclass(frozen=True, eq=False)
class PatternMatrix:
    """A read-only sparse matrix: one value per row slot of a ``graph.Pattern``.

    ``data`` is flat, ``width * n_rows`` values indexed as the pattern's
    flat slot indices, with 0 in every padded slot. ``shape`` is the
    pattern's. ``@`` takes a vector or an ``(n_cols, k)`` array: one gather
    of the operand's rows through the slots' columns, then ``np.einsum``,
    which sums the slots' products in slot order into a zeroed output. So
    each row starts from +0.0 and adds its products in ascending column
    order, as scipy's ``csc_matvec`` and ``csc_matvecs`` do, and a product
    equals theirs bit for bit. A padded slot's gathered operand row is set
    to 0 as well, so it adds exactly +0.0 whatever the operand holds.
    ``data`` is made read-only.
    """

    data: np.ndarray
    pattern: Pattern

    def __post_init__(self) -> None:
        self.data.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.pattern.shape

    @classmethod
    def from_dense(cls, a: np.ndarray, diagonal: bool = False) -> PatternMatrix:
        """``a`` on the pattern of its nonzero entries (a NaN counts as one),
        plus every diagonal entry when ``diagonal`` is set."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"expected a matrix, got an array of shape {a.shape}")
        stored = a != 0.0
        if diagonal:
            stored |= np.eye(*a.shape, dtype=bool)
        rows, cols = np.nonzero(stored)
        pattern, where = slot_pattern(rows, cols, a.shape)
        data = np.zeros(pattern.slot_col.size)
        data[where] = a[rows, cols]
        return cls(data, pattern)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pattern = self.pattern
        if x.ndim not in (1, 2) or x.shape[0] != pattern.shape[1]:
            raise ValueError(f"operand shape {x.shape} does not match matrix shape {self.shape}")
        terms = x.take(pattern.slot_col, axis=0)
        terms.reshape(-1, *x.shape[1:])[pattern.padding] = 0.0
        data = self.data.reshape(pattern.slot_col.shape)
        return np.einsum("sn,sn...->n...", data, terms)

    def toarray(self) -> np.ndarray:
        """The dense matrix; padded slots, which name column 0, write nothing."""
        pattern = self.pattern
        stored = np.delete(np.arange(self.data.size), pattern.padding)
        dense = np.zeros(self.shape)
        dense[stored % self.shape[0], pattern.slot_col.reshape(-1)[stored]] = self.data[stored]
        return dense


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
) -> tuple[np.ndarray, PatternMatrix]:
    """Draw one step's outflow probabilities ``p`` and turn fractions ``q``.

    ``p[i]`` is the fraction of interior road i's density that leaves it
    during the step: uniform on [0, p_max], and exactly 0 where ``|x[i]| <=
    1e-9`` veh, so round-off in a zero density cannot flip it. Turn
    fractions are uniform on the simplex over each non-outlet node's
    out-neighbors (flat Dirichlet). ``q`` holds their interior-to-interior
    block in state order: ``q[i, j]`` is the fraction of interior node j's
    outflow that enters interior node i, so a column falls short of 1 by
    the share its road sends to outlets. ``q`` is a ``PatternMatrix`` on the
    state matrix's pattern: one stored entry per interior-to-interior edge
    and an explicit 0 on each diagonal entry (the graph has no self-loops),
    row by row in ascending column order. Given the same generator state
    the result is bit-identical. Where each draw goes, and ``q``'s pattern,
    are the graph's ``turn_plan``, built with the graph; a step draws the
    numbers, sums them and writes them into their slots, and ``q`` shares
    the plan's read-only pattern.
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
    data = np.ones(plan.pattern.slot_col.size)
    data[plan.pattern.padding] = 0.0
    data[plan.pattern.diagonal] = 0.0
    data[plan.put] = (gammas * (1.0 / total[plan.owner]))[plan.pick]
    return p, PatternMatrix(data, plan.pattern)


def assemble_state_matrix(p: np.ndarray, q: np.ndarray | PatternMatrix) -> PatternMatrix:
    """State matrix of the density update: identity minus outflow plus routed inflow.

    Entry (i, j) for i != j is ``q[i, j] * p[j]``; the diagonal is
    ``1 - p[i]`` plus any self-routing ``q[i, i] * p[i]``. All entries are
    nonnegative by construction, exactly (no rounding slack), whenever p is
    in [0, 1], and each equals the same entry of the dense
    ``q * p + diag(1 - p)`` bit for bit.

    ``p`` is a vector with one entry per road. ``q`` is the sampler's
    ``PatternMatrix``, or any ``PatternMatrix`` that stores every diagonal
    entry, or a dense array, which is first put on the pattern of its
    nonzero entries plus the diagonal. The result shares ``q``'s pattern:
    each slot's value is multiplied by ``p`` at its column, and ``1 - p``
    is added at the diagonal slots. Shapes that do not match raise
    ``ValueError``.
    """
    p = np.asarray(p, dtype=float)
    shape = q.shape if isinstance(q, PatternMatrix) else np.shape(q)
    if p.ndim != 1 or shape != (p.size, p.size):
        raise ValueError(f"outflow shape {p.shape} does not match fraction matrix shape {shape}")
    n = p.size
    if not isinstance(q, PatternMatrix):
        q = PatternMatrix.from_dense(q, diagonal=True)
    pattern = q.pattern
    if pattern.diagonal.size != n:
        missing = np.setdiff1d(np.arange(n), pattern.diagonal % n)[0]
        raise ValueError(f"fraction matrix stores no diagonal entry for road {missing}")
    data = q.data * p[pattern.slot_col.reshape(-1)]
    data[pattern.padding] = 0.0  # a padded slot names column 0, whatever p[0] holds
    data[pattern.diagonal] += 1.0 - p
    return PatternMatrix(data, pattern)


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
    state: TrafficState, a: np.ndarray | PatternMatrix, b: np.ndarray, s: np.ndarray
) -> TrafficState:
    """Advance the density state one step: x' = a x + b s.

    ``a`` may be a dense array or a ``PatternMatrix``. No clamping is
    applied; keeping densities inside their bounds is the controller's job,
    and any violation should stay visible.
    """
    x = state.densities
    s = np.asarray(s, dtype=float).reshape(-1)
    if a.shape != (x.size, x.size):
        raise ValueError(f"state matrix shape {a.shape} does not match state size {x.size}")
    if b.shape != (x.size, s.size):
        raise ValueError(f"input matrix shape {b.shape} does not match ({x.size}, {s.size})")
    return TrafficState(densities=a @ x + b @ s, step=state.step + 1)
