"""Directed road-network model with inlet, outlet, and interior road elements.

Every node of the network is a unidirectional road element; a two-way street
is represented by two parallel elements with opposite directions. Node ids
are 1-based and follow a canonical ordering: inlets first, then outlets,
then interior elements.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

DEFAULT_VEHICLE_LENGTH_M = 4.5


class RoadClass(Enum):
    """Role of a road element within the network."""

    INLET = "inlet"
    OUTLET = "outlet"
    INTERIOR = "interior"


class GraphBuildError(ValueError):
    """Node or edge data cannot form a valid road network."""


@dataclass(frozen=True)
class RoadAttributes:
    """Physical properties of a road element."""

    length_m: float
    lane_count: int

    def __post_init__(self) -> None:
        if not 0 < self.length_m < math.inf:
            raise ValueError(f"road length must be positive and finite, got {self.length_m}")
        if not isinstance(self.lane_count, int) or isinstance(self.lane_count, bool):
            raise ValueError(f"lane count must be an integer, got {self.lane_count!r}")
        if self.lane_count < 1:
            raise ValueError(f"lane count must be at least 1, got {self.lane_count}")


class TurnPlan(NamedTuple):
    """Where one step's turn-fraction draws go (``NoirGraph.turn_plan``).

    Each inlet and interior node with two or more out-edges splits its
    outflow by one flat Dirichlet draw: a gamma(1) variate per out-edge, all
    drawn in (tail, head) order, so the ``n_inlet_draws`` inlet variates
    come first. Interior variate k belongs to the ``owner[k]``-th splitting
    interior node. The state matrix's pattern, the interior-to-interior
    edges plus the diagonal in state order, is CSC with row ``indices`` and
    column pointers ``indptr``; the turn fractions are stored on it, its
    entries ``put`` from interior variates ``pick``, its ``diagonal`` slots
    0 and the rest 1.
    """

    n_inlet_draws: int
    owner: np.ndarray
    pick: np.ndarray
    put: np.ndarray
    diagonal: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


@dataclass(frozen=True)
class NoirGraph:
    """Immutable directed graph of road elements.

    Ids ``1..n_inlets`` are inlets, the next ``n_outlets`` ids are outlets,
    and ids ``n_boundary+1..n_total`` are interior elements. ``edges``,
    sorted by (tail, head), is the one stored adjacency. The index arrays
    derived from it are read-only, so the graph is safe to share across
    threads: ``edge_tails`` and ``edge_heads`` follow ``edges``; the
    out-edges of node ``i`` sit at ``out_offsets[i - 1]:out_offsets[i]`` and
    its in-neighbors, ascending, at ``in_sources[in_offsets[i - 1]:in_offsets[i]]``.
    The constructor is the one edge and attribute check: an interior node
    without attributes, or an edge that leaves ``1..n_total``, loops, repeats
    or breaks the order, raises ``GraphBuildError`` naming it.
    """

    n_total: int
    n_inlets: int
    n_outlets: int
    edges: tuple[tuple[int, int], ...]
    attributes: tuple[RoadAttributes | None, ...]
    edge_tails: np.ndarray = field(init=False, compare=False, repr=False)
    edge_heads: np.ndarray = field(init=False, compare=False, repr=False)
    out_offsets: np.ndarray = field(init=False, compare=False, repr=False)
    in_offsets: np.ndarray = field(init=False, compare=False, repr=False)
    in_sources: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = self.n_total
        interior = self.attributes[self.n_boundary :]
        if None in interior:
            missing = self.interior_id(interior.index(None))
            raise GraphBuildError(f"interior node {missing} requires attributes")
        try:
            tails, heads = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
        except OverflowError:
            # an id past int64 is out of range; object arrays let the check name it
            tails, heads = np.array(self.edges, dtype=object).reshape(-1, 2).T
        order = np.diff(tails * (n + 1) + heads, prepend=0)
        outside = (tails < 1) | (tails > n) | (heads < 1) | (heads > n)
        for bad, fault in (
            (outside, f"references a node outside 1..{n}"),
            (tails == heads, "is a self-loop"),
            (order == 0, "is a duplicate"),
            (order < 0, "is out of order: edges must be sorted by (tail, head)"),
        ):
            if bad.any():
                i = int(np.argmax(bad))
                raise GraphBuildError(f"edge ({tails[i]}, {heads[i]}) {fault}")
        by_head = np.lexsort((tails, heads))
        bounds = np.arange(1, n + 2)
        for name, arr in (
            ("edge_tails", tails),
            ("edge_heads", heads),
            ("out_offsets", np.searchsorted(tails, bounds)),
            ("in_offsets", np.searchsorted(heads[by_head], bounds)),
            ("in_sources", tails[by_head]),
        ):
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @functools.cached_property
    def turn_plan(self) -> TurnPlan:
        """The index arrays that ``dynamics.sample_matrices`` draws turn
        fractions through, derived on first use and kept; they are read-only."""
        nb, n, tails, heads = self.n_boundary, self.n_interior, self.edge_tails, self.edge_heads
        split = np.diff(self.out_offsets)[tails - 1] >= 2
        drawn = split & (tails > nb)
        inner = (tails > nb) & (heads > nb)
        # the state matrix's entries keyed column by column: the
        # interior-to-interior edges, then the diagonal (there are no self-loops)
        col, row = tails[inner] - nb - 1, heads[inner] - nb - 1
        key = np.concatenate([col * n + row, np.arange(n) * (n + 1)])
        pattern = np.sort(key)
        edge_slot, diagonal = np.split(np.searchsorted(pattern, key), [key.size - n])
        plan = TurnPlan(
            n_inlet_draws=int(np.count_nonzero(split & (tails <= self.n_inlets))),
            owner=np.unique(tails[drawn], return_inverse=True)[1],
            pick=np.flatnonzero(inner[drawn]),
            put=edge_slot[split[inner]],
            diagonal=diagonal,
            indices=pattern % n,
            indptr=np.searchsorted(pattern, np.arange(n + 1) * n),
        )
        for arr in plan:
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        return plan

    @property
    def n_boundary(self) -> int:
        return self.n_inlets + self.n_outlets

    @property
    def n_interior(self) -> int:
        return self.n_total - self.n_boundary

    @property
    def inlet_ids(self) -> range:
        return range(1, self.n_inlets + 1)

    @property
    def outlet_ids(self) -> range:
        return range(self.n_inlets + 1, self.n_boundary + 1)

    @property
    def interior_ids(self) -> range:
        return range(self.n_boundary + 1, self.n_total + 1)

    def _check_id(self, i: int) -> None:
        if not 1 <= i <= self.n_total:
            raise ValueError(f"node id {i} out of range 1..{self.n_total}")

    def road_class(self, i: int) -> RoadClass:
        self._check_id(i)
        if i <= self.n_inlets:
            return RoadClass.INLET
        if i <= self.n_boundary:
            return RoadClass.OUTLET
        return RoadClass.INTERIOR

    def in_neighbors(self, i: int) -> set[int]:
        """Nodes j with an edge (j, i)."""
        self._check_id(i)
        return set(self.in_sources[self.in_offsets[i - 1] : self.in_offsets[i]].tolist())

    def out_neighbors(self, i: int) -> set[int]:
        """Nodes j with an edge (i, j)."""
        self._check_id(i)
        return set(self.edge_heads[self.out_offsets[i - 1] : self.out_offsets[i]].tolist())

    def attributes_of(self, i: int) -> RoadAttributes | None:
        self._check_id(i)
        return self.attributes[i - 1]

    def state_index(self, i: int) -> int:
        """0-based position of interior node ``i`` in the density state vector."""
        if self.road_class(i) is not RoadClass.INTERIOR:
            raise ValueError(f"node {i} is not interior")
        return i - self.n_boundary - 1

    def interior_id(self, index: int) -> int:
        if not 0 <= index < self.n_interior:
            raise ValueError(f"state index {index} out of range")
        return self.n_boundary + 1 + index

    def capacity_vector(self, vehicle_length_m: float = DEFAULT_VEHICLE_LENGTH_M) -> np.ndarray:
        """Per-interior-road vehicle capacities in state order: lanes * length /
        vehicle length, kept real-valued because densities evolve as
        real-valued expectations, not integer vehicle counts."""
        if not vehicle_length_m > 0:
            raise ValueError(f"vehicle length must be positive, got {vehicle_length_m}")
        interior = self.attributes[self.n_boundary :]
        fields = np.array([(a.lane_count, a.length_m) for a in interior], float).reshape(-1, 2)
        return fields[:, 0] * fields[:, 1] / vehicle_length_m


def build_graph(
    nodes: Sequence[tuple[RoadClass, RoadAttributes | None]],
    edges: Iterable[tuple[int, int]],
) -> NoirGraph:
    """Construct an immutable road network from a node list and edge list.

    Node ids are the 1-based positions in ``nodes``, which must follow the
    canonical ordering (all inlets, then all outlets, then all interiors).
    Interior nodes must carry attributes; boundary nodes may omit them.
    Edges may come in any order; ``NoirGraph`` checks them once sorted.
    """
    n = len(nodes)
    if n == 0:
        raise GraphBuildError("network must contain at least one node")

    classes = [c for c, _ in nodes]
    n_in = sum(1 for c in classes if c is RoadClass.INLET)
    n_out = sum(1 for c in classes if c is RoadClass.OUTLET)
    expected = (
        [RoadClass.INLET] * n_in
        + [RoadClass.OUTLET] * n_out
        + [RoadClass.INTERIOR] * (n - n_in - n_out)
    )
    for idx, (got, want) in enumerate(zip(classes, expected), start=1):
        if got is not want:
            raise GraphBuildError(
                f"node {idx} is {got.value} but canonical ordering requires {want.value}"
                " (inlets, then outlets, then interiors)"
            )

    return NoirGraph(
        n_total=n,
        n_inlets=n_in,
        n_outlets=n_out,
        edges=tuple(sorted((u, v) for u, v in edges)),
        attributes=tuple(attr for _, attr in nodes),
    )


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    offenders: tuple[int, ...] = ()


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the structural conditions for stable, controllable flow.

    The first four checks are the core requirements; the last two encode the
    modeling convention that flow enters the network only through inlets and
    leaves only through outlets (outlets have no out-edges, inlets no
    in-edges), which the column-sum properties of the state matrix rely on.
    """

    inlets_feed_interior: CheckResult
    interior_reaches_outlet: CheckResult
    no_isolated_nodes: CheckResult
    no_inlet_to_outlet: CheckResult
    outlets_absorbing: CheckResult
    inlets_source_only: CheckResult

    def items(self) -> Iterator[tuple[str, CheckResult]]:
        return ((f.name, getattr(self, f.name)) for f in fields(self))

    @property
    def all_passed(self) -> bool:
        return all(result.passed for _, result in self.items())


def validate_structure(g: NoirGraph) -> StructureReport:
    """Check the structural assumptions behind boundary controllability.

    Checks, in order: every inlet feeds at least one interior node and
    nothing else; every interior node has a directed path to some outlet
    (reverse breadth-first search from the outlet set); no node is isolated;
    no inlet connects directly to an outlet; outlets have no out-edges;
    inlets have no in-edges. Failures are reported per check with the
    offending node ids; nothing is raised.
    """
    n, n_in, nb = g.n_total, g.n_inlets, g.n_boundary
    tails, heads = g.edge_tails, g.edge_heads
    ids = np.arange(1, n + 1)
    inlet = ids <= n_in
    outlet = (ids > n_in) & (ids <= nb)
    out_deg = np.diff(g.out_offsets)
    in_deg = np.diff(g.in_offsets)
    feeds_boundary = np.bincount(tails[heads <= nb] - 1, minlength=n) > 0
    feeds_outlet = np.bincount(tails[outlet[heads - 1]] - 1, minlength=n) > 0

    # reverse reachability from the outlet set, on Python lists because
    # per-node numpy slices cost more than the search itself
    sources, offsets = g.in_sources.tolist(), g.in_offsets.tolist()
    reached = outlet.tolist()
    frontier = deque(ids[outlet].tolist())
    while frontier:
        node = frontier.popleft()
        for j in sources[offsets[node - 1] : offsets[node]]:
            if not reached[j - 1]:
                reached[j - 1] = True
                frontier.append(j)

    checks = {
        "inlets_feed_interior": inlet & ((out_deg == 0) | feeds_boundary),
        "interior_reaches_outlet": (ids > nb) & ~np.array(reached, dtype=bool),
        "no_isolated_nodes": (in_deg == 0) & (out_deg == 0),
        "no_inlet_to_outlet": inlet & feeds_outlet,
        "outlets_absorbing": outlet & (out_deg > 0),
        "inlets_source_only": inlet & (in_deg > 0),
    }
    results = {}
    for name, offending in checks.items():
        offenders = tuple(ids[offending].tolist())
        results[name] = CheckResult(not offenders, offenders)
    return StructureReport(**results)
