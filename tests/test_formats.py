import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noirsim.formats import (
    FormatError,
    NetworkDocument,
    NodeRecord,
    document_from_graph,
    graph_from_document,
    parse_network,
    parse_sim_config,
    serialize_network,
)
from noirsim.graph import GraphBuildError, RoadClass
from noirsim.harness import philadelphia_noir

MINIMAL = """{
  "n_in": 1,
  "n_boundary": 2,
  "n_total": 3,
  "nodes": [
    {"id": 1, "class": "inlet"},
    {"id": 2, "class": "outlet"},
    {"id": 3, "class": "interior", "length_m": 100.0, "lanes": 2}
  ],
  "edges": [[1, 3], [3, 2]]
}"""


class TestParseNetwork:
    def test_minimal_document(self):
        doc = parse_network(MINIMAL)
        assert doc.n_total == 3
        assert [n.road_class for n in doc.nodes] == [
            RoadClass.INLET,
            RoadClass.OUTLET,
            RoadClass.INTERIOR,
        ]
        assert doc.edges == ((1, 3), (3, 2))

    def test_id_gap_names_missing_id(self):
        bad = MINIMAL.replace('"id": 3', '"id": 4').replace('"n_total": 3', '"n_total": 4')
        bad = bad.replace(
            '{"id": 4, "class": "interior", "length_m": 100.0, "lanes": 2}',
            '{"id": 4, "class": "interior", "length_m": 100.0, "lanes": 2},'
            '{"id": 5, "class": "interior", "length_m": 90.0, "lanes": 1}',
        )
        with pytest.raises(FormatError, match="id 3 is missing"):
            parse_network(bad)

    def test_duplicate_id_rejected(self):
        bad = MINIMAL.replace('"id": 2', '"id": 1')
        with pytest.raises(FormatError, match="duplicate id 1"):
            parse_network(bad)

    def test_unknown_top_level_field_rejected(self):
        bad = MINIMAL[:-2] + ',\n  "comment": "hi"\n}'
        with pytest.raises(FormatError, match="comment"):
            parse_network(bad)

    def test_unknown_node_field_rejected(self):
        bad = MINIMAL.replace('"class": "inlet"', '"class": "inlet", "speed": 50')
        with pytest.raises(FormatError, match="speed"):
            parse_network(bad)

    def test_malformed_json(self):
        with pytest.raises(FormatError, match="invalid JSON"):
            parse_network(b"{not json")

    def test_interior_requires_attributes(self):
        bad = MINIMAL.replace(', "length_m": 100.0, "lanes": 2', "")
        with pytest.raises(FormatError, match="requires length_m"):
            parse_network(bad)

    def test_infinite_length_rejected(self):
        bad = MINIMAL.replace('"length_m": 100.0', '"length_m": Infinity')
        with pytest.raises(FormatError, match="must be positive and finite") as exc:
            parse_network(bad)
        assert exc.value.path == "$.nodes[2].length_m"

    def test_class_count_mismatch(self):
        bad = MINIMAL.replace('"n_in": 1', '"n_in": 2')
        with pytest.raises(FormatError, match="n_in"):
            parse_network(bad)

    def test_error_carries_location(self):
        try:
            parse_network(MINIMAL.replace('"id": 1', '"id": "one"'))
        except FormatError as exc:
            assert exc.path.startswith("$.nodes[0]")
        else:
            pytest.fail("expected FormatError")


class TestSerializeNetwork:
    def test_round_trip_identity_on_canonical_bytes(self):
        doc = parse_network(MINIMAL)
        blob = serialize_network(doc)
        assert serialize_network(parse_network(blob)) == blob

    def test_document_round_trip_equality(self):
        g = philadelphia_noir(seed=5)
        doc = document_from_graph(g)
        assert parse_network(serialize_network(doc)) == doc

    def test_graph_round_trip(self):
        g = philadelphia_noir(seed=5)
        doc = document_from_graph(g)
        assert graph_from_document(doc) == g

    @settings(deadline=None, max_examples=25)
    @given(order=st.randoms(use_true_random=False))
    def test_edges_sorted_regardless_of_input_order(self, order):
        doc = parse_network(MINIMAL)
        edges = list(doc.edges)
        order.shuffle(edges)
        shuffled = NetworkDocument(
            n_in=doc.n_in,
            n_boundary=doc.n_boundary,
            n_total=doc.n_total,
            nodes=doc.nodes,
            edges=tuple(edges),
        )
        assert serialize_network(shuffled) == serialize_network(doc)

    def test_desk_scale_round_trip_is_fast(self):
        doc = document_from_graph(philadelphia_noir(seed=1))
        best = min(
            _timed(lambda: parse_network(serialize_network(doc))) for _ in range(3)
        )
        assert best < 0.05  # 50 ms

    def test_ordering_violation_surfaces_at_graph_build(self):
        # count-consistent document whose classes break the canonical ordering
        doc = NetworkDocument(
            n_in=1,
            n_boundary=2,
            n_total=3,
            nodes=(
                NodeRecord(id=1, road_class=RoadClass.OUTLET),
                NodeRecord(id=2, road_class=RoadClass.INLET),
                NodeRecord(id=3, road_class=RoadClass.INTERIOR, length_m=100.0, lanes=1),
            ),
            edges=((2, 3), (3, 1)),
        )
        with pytest.raises(GraphBuildError, match="canonical ordering"):
            graph_from_document(doc)


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class TestParseSimConfig:
    def test_defaults_when_empty(self):
        cfg = parse_sim_config(b"{}")
        assert cfg.steps == 150
        assert cfg.d0 == 100.0

    def test_explicit_values(self):
        cfg = parse_sim_config(
            b'{"steps": 10, "seed": 3, "d0": 42.5, "initial_density": "zero"}'
        )
        assert (cfg.steps, cfg.seed, cfg.d0) == (10, 3, 42.5)
        assert cfg.initial_density == "zero"

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match="horizon"):
            parse_sim_config(b'{"horizon": 5}')

    def test_bad_types_rejected(self):
        with pytest.raises(FormatError):
            parse_sim_config(b'{"steps": "many"}')
        with pytest.raises(FormatError):
            parse_sim_config(b'{"enforce_density_lower_bound": "yes"}')

    def test_invalid_values_rejected(self):
        with pytest.raises(FormatError):
            parse_sim_config(b'{"p_max": 1.5}')
        with pytest.raises(FormatError, match="d0 must be a finite real number"):
            parse_sim_config(b'{"d0": Infinity}')
        with pytest.raises(FormatError, match="seed must be nonnegative"):
            parse_sim_config(b'{"seed": -1}')
