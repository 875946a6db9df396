"""Stochastic per-step flow sampling and the interior density update.

The interior densities evolve as x[k+1] = A[k] x[k] + B s[k], where A[k] is
assembled each step from freshly sampled outflow probabilities and turn
fractions, and B maps boundary inflows/outflows onto the interior state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import NoirGraph, validate_structure


@dataclass(frozen=True)
class TrafficState:
    """Interior densities (vehicles per road element) at a discrete step."""

    densities: np.ndarray
    step: int = 0

    def __post_init__(self) -> None:
        x = np.array(self.densities, dtype=float, copy=True).reshape(-1)
        object.__setattr__(self, "densities", x)


@dataclass(frozen=True)
class OutflowProbabilities:
    """Per-interior-road fraction of density leaving during one step."""

    p: np.ndarray


@dataclass(frozen=True)
class TendencyFractions:
    """How each interior node's outflow splits across its out-neighbors.

    ``matrix`` holds the interior-to-interior block in state order:
    ``matrix[i, j]`` is the fraction of interior node j's outflow that enters
    interior node i. A column falls short of 1 by the share its road sends
    to outlets.
    """

    matrix: np.ndarray


def sample_matrices(
    rng: np.random.Generator,
    graph: NoirGraph,
    state: TrafficState,
    p_max: float = 0.9,
) -> tuple[OutflowProbabilities, TendencyFractions]:
    """Draw one step's outflow probabilities and turn fractions.

    Outflow probabilities are uniform on [0, p_max] and forced to exactly 0
    on roads with zero density. Turn fractions are uniform on the simplex
    over each non-outlet node's out-neighbors (flat Dirichlet). Given the
    same generator state the result is bit-identical.
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
    return OutflowProbabilities(p=p), TendencyFractions(matrix=matrix)


def assemble_state_matrix(
    probs: OutflowProbabilities, fractions: TendencyFractions
) -> np.ndarray:
    """State matrix of the density update: identity minus outflow plus routed inflow.

    Entry (i, j) for i != j is ``matrix[i, j] * p[j]``; the diagonal is
    ``1 - p[i]`` plus any self-routing. All entries are nonnegative by
    construction, exactly (no rounding slack), whenever p is in [0, 1].
    """
    p = np.asarray(probs.p, dtype=float)
    q = np.asarray(fractions.matrix, dtype=float)
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


def spectral_radius_estimate(a: np.ndarray, iters: int = 300) -> float:
    """Power-iteration estimate of the spectral radius of a nonnegative matrix.

    Runs the iteration from a positive start vector and returns the
    geometric mean of the per-step l1 growth ratios over the second half of
    the run, which is robust to the oscillations of periodic structures.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 0:
        return 0.0
    v = np.full(n, 1.0 / n)
    ratios = []
    for _ in range(iters):
        w = np.abs(a @ v)
        total = w.sum()
        if total <= 1e-300:
            return 0.0
        ratios.append(total)
        v = w / total
    tail = ratios[len(ratios) // 2 :]
    return float(np.exp(np.mean(np.log(tail))))


@dataclass(frozen=True)
class StateMatrixReport:
    """Structural properties of an assembled state matrix.

    Column sums follow a trichotomy: exactly 1 for interior nodes with no
    outlet out-neighbor, inside (0, 1) for outlet-adjacent nodes with a
    positive outflow probability (equal to 1 only when that probability is
    zero), and all entries are nonnegative. When every interior node can
    reach an outlet the spectral radius is strictly below 1.
    """

    entries_nonnegative: bool
    min_entry: float
    column_sums: np.ndarray
    column_sums_ok: bool
    column_sum_offenders: tuple[int, ...]
    spectral_radius: float | None
    spectral_ok: bool | None

    @property
    def all_passed(self) -> bool:
        if not (self.entries_nonnegative and self.column_sums_ok):
            return False
        return self.spectral_ok is not False


def state_matrix_report(
    a: np.ndarray, graph: NoirGraph, tol: float = 1e-12
) -> StateMatrixReport:
    """Verify nonnegativity, the column-sum trichotomy, and contraction of ``a``.

    The spectral-radius check is only performed (and only meaningful) when
    every interior node has a path to an outlet; otherwise those fields are
    None.
    """
    a = np.asarray(a, dtype=float)
    n_i = graph.n_interior
    if a.shape != (n_i, n_i):
        raise ValueError(f"matrix shape {a.shape} does not match {n_i} interior roads")

    min_entry = float(a.min()) if n_i else 0.0
    entries_ok = min_entry >= -tol

    col = a.sum(axis=0)
    outlet_adjacent = (assemble_input_matrix(graph) < 0.0).any(axis=1)
    ok = np.where(outlet_adjacent, (tol < col) & (col <= 1.0 + tol), np.abs(col - 1.0) <= tol)
    offenders = np.flatnonzero(~ok).tolist()

    if validate_structure(graph).interior_reaches_outlet.passed:
        rho = spectral_radius_estimate(a)
        spectral_ok = rho < 1.0
    else:
        rho = None
        spectral_ok = None

    return StateMatrixReport(
        entries_nonnegative=entries_ok,
        min_entry=min_entry,
        column_sums=col,
        column_sums_ok=not offenders,
        column_sum_offenders=tuple(offenders),
        spectral_radius=rho,
        spectral_ok=spectral_ok,
    )


def bibo_bound(z_max: float, n_interior: int, r: float) -> float:
    """Bound on the squared density norm under inputs bounded by ``z_max``.

    For a contraction factor r < 1 the squared l2 norm of the state stays
    below z_max**2 * n_interior / (1 - r) for all time.
    """
    if z_max < 0:
        raise ValueError(f"z_max must be nonnegative, got {z_max}")
    if n_interior < 0:
        raise ValueError(f"n_interior must be nonnegative, got {n_interior}")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"contraction factor must lie in [0, 1), got {r}")
    return z_max**2 * n_interior / (1.0 - r)
