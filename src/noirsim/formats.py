"""Strict parsing and canonical serialization of the network and config files.

Both formats are JSON. Unknown fields are rejected rather than ignored: a
typo in a config key should fail loudly, not silently change an experiment.
Serialization is canonical (fixed key order, nodes sorted by id, edges
sorted lexicographically), so equal documents produce identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

from .graph import NoirGraph, RoadAttributes, RoadClass, build_graph
from .harness import SimConfig


class FormatError(ValueError):
    """A document failed schema validation; ``path`` locates the violation."""

    def __init__(self, path: str, reason: str) -> None:
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


_NETWORK_KEYS = ("n_in", "n_boundary", "n_total", "nodes", "edges")
_NODE_KEYS = ("id", "class", "length_m", "lanes")
_CLASS_NAMES = {cls.value: cls for cls in RoadClass}


@dataclass(frozen=True)
class NodeRecord:
    id: int
    road_class: RoadClass
    length_m: float | None = None
    lanes: int | None = None


@dataclass(frozen=True)
class NetworkDocument:
    """In-memory form of a network file. Construction checks id coverage and
    class counts; edges are checked when ``graph_from_document`` builds the graph."""

    n_in: int
    n_boundary: int
    n_total: int
    nodes: tuple[NodeRecord, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n_total < 1:
            raise FormatError("$.n_total", "must be at least 1")
        if not 0 <= self.n_in <= self.n_boundary <= self.n_total:
            raise FormatError("$", "need 0 <= n_in <= n_boundary <= n_total")
        if len(self.nodes) != self.n_total:
            listed = len(self.nodes)
            raise FormatError("$.nodes", f"{listed} nodes listed, n_total is {self.n_total}")

        seen_ids: set[int] = set()
        for pos, node in enumerate(self.nodes):
            if node.id in seen_ids:
                raise FormatError(f"$.nodes[{pos}]", f"duplicate id {node.id}")
            seen_ids.add(node.id)
        for missing in range(1, self.n_total + 1):
            if missing not in seen_ids:
                raise FormatError("$.nodes", f"id gap: id {missing} is missing")

        classes = [node.road_class for node in self.nodes]
        inlets = classes.count(RoadClass.INLET)
        boundary = inlets + classes.count(RoadClass.OUTLET)
        if inlets != self.n_in:
            raise FormatError("$", f"{inlets} inlet nodes but n_in is {self.n_in}")
        if boundary != self.n_boundary:
            raise FormatError("$", f"{boundary} boundary nodes but n_boundary is {self.n_boundary}")


def _require_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(path, f"expected an integer, got {value!r}")
    return value


def _require_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(path, f"expected a number, got {value!r}")
    return float(value)


def _parse_node(item, path: str) -> NodeRecord:
    if not isinstance(item, dict):
        raise FormatError(path, "node must be an object")
    unknown = set(item) - set(_NODE_KEYS)
    if unknown:
        raise FormatError(path, f"unknown field {sorted(unknown)[0]!r}")
    if "id" not in item or "class" not in item:
        raise FormatError(path, "node requires 'id' and 'class'")
    node_id = _require_int(item["id"], f"{path}.id")
    cls_name = item["class"]
    if cls_name not in _CLASS_NAMES:
        raise FormatError(f"{path}.class", f"unknown class {cls_name!r}")
    cls = _CLASS_NAMES[cls_name]

    length = item.get("length_m")
    if length is not None:
        length = _require_number(length, f"{path}.length_m")
        if not 0 < length < math.inf:
            raise FormatError(f"{path}.length_m", f"must be positive and finite, got {length}")
    lanes = item.get("lanes")
    if lanes is not None:
        lanes = _require_int(lanes, f"{path}.lanes")
        if lanes < 1:
            raise FormatError(f"{path}.lanes", f"must be at least 1, got {lanes}")
    if cls is RoadClass.INTERIOR and (length is None or lanes is None):
        raise FormatError(path, f"interior node {node_id} requires length_m and lanes")
    return NodeRecord(id=node_id, road_class=cls, length_m=length, lanes=lanes)


def _load_object(data: bytes | str) -> dict:
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise FormatError("$", f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise FormatError("$", "top level must be an object")
    return raw


def parse_network(data: bytes | str) -> NetworkDocument:
    """Parse and validate a network file; every violation names its location."""
    raw = _load_object(data)
    unknown = set(raw) - set(_NETWORK_KEYS)
    if unknown:
        raise FormatError("$", f"unknown field {sorted(unknown)[0]!r}")
    missing = set(_NETWORK_KEYS) - set(raw)
    if missing:
        raise FormatError("$", f"missing field {sorted(missing)[0]!r}")

    n_in = _require_int(raw["n_in"], "$.n_in")
    n_boundary = _require_int(raw["n_boundary"], "$.n_boundary")
    n_total = _require_int(raw["n_total"], "$.n_total")
    if not isinstance(raw["nodes"], list):
        raise FormatError("$.nodes", "must be an array")
    if not isinstance(raw["edges"], list):
        raise FormatError("$.edges", "must be an array")

    nodes = [
        _parse_node(item, f"$.nodes[{pos}]") for pos, item in enumerate(raw["nodes"])
    ]
    edges = []
    for pos, item in enumerate(raw["edges"]):
        path = f"$.edges[{pos}]"
        if (
            not isinstance(item, list)
            or len(item) != 2
            or any(isinstance(x, bool) or not isinstance(x, int) for x in item)
        ):
            raise FormatError(path, f"edge must be a pair of integer ids, got {item!r}")
        edges.append((item[0], item[1]))

    return NetworkDocument(
        n_in=n_in,
        n_boundary=n_boundary,
        n_total=n_total,
        nodes=tuple(sorted(nodes, key=lambda n: n.id)),
        edges=tuple(sorted(edges)),
    )


def serialize_network(doc: NetworkDocument) -> bytes:
    """Canonical byte serialization; parse(serialize(doc)) == doc."""
    canonical = replace(
        doc,
        nodes=tuple(sorted(doc.nodes, key=lambda n: n.id)),
        edges=tuple(sorted(doc.edges)),
    )
    nodes_json = []
    for node in canonical.nodes:
        entry: dict = {"id": node.id, "class": node.road_class.value}
        if node.length_m is not None:
            entry["length_m"] = node.length_m
        if node.lanes is not None:
            entry["lanes"] = node.lanes
        nodes_json.append(entry)
    payload = {
        "n_in": canonical.n_in,
        "n_boundary": canonical.n_boundary,
        "n_total": canonical.n_total,
        "nodes": nodes_json,
        "edges": [list(edge) for edge in canonical.edges],
    }
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def graph_from_document(doc: NetworkDocument) -> NoirGraph:
    """Build the road network from a document.

    Raises GraphBuildError when the document's classes violate the canonical
    id ordering (inlets, then outlets, then interiors) or an edge is faulty.
    """
    nodes: list[tuple[RoadClass, RoadAttributes | None]] = []
    for node in sorted(doc.nodes, key=lambda n: n.id):
        attr = None
        if node.length_m is not None and node.lanes is not None:
            attr = RoadAttributes(length_m=node.length_m, lane_count=node.lanes)
        nodes.append((node.road_class, attr))
    return build_graph(nodes, doc.edges)


def document_from_graph(graph: NoirGraph) -> NetworkDocument:
    nodes = []
    for i in range(1, graph.n_total + 1):
        attr = graph.attributes_of(i)
        nodes.append(
            NodeRecord(
                id=i,
                road_class=graph.road_class(i),
                length_m=None if attr is None else attr.length_m,
                lanes=None if attr is None else attr.lane_count,
            )
        )
    return NetworkDocument(
        n_in=graph.n_inlets,
        n_boundary=graph.n_boundary,
        n_total=graph.n_total,
        nodes=tuple(nodes),
        edges=tuple(sorted(graph.edges)),
    )


def parse_sim_config(data: bytes | str) -> SimConfig:
    """Parse a simulation config file; omitted keys take their defaults and
    ``SimConfig`` checks every value (and stores ``"d0": 100`` as ``100.0``)."""
    raw = _load_object(data)
    unknown = set(raw) - {f.name for f in fields(SimConfig)}
    if unknown:
        raise FormatError("$", f"unknown field {sorted(unknown)[0]!r}")
    try:
        return SimConfig(**raw)
    except ValueError as exc:
        raise FormatError("$", str(exc)) from None
