import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noirsim.graph import (
    DEFAULT_VEHICLE_LENGTH_M,
    GraphBuildError,
    NoirGraph,
    RoadAttributes,
    RoadClass,
    build_graph,
    validate_structure,
)
from noirsim.harness import generate_grid_noir

from helpers import ATTR, chain_graph, reach_closure, tiny_graph


class TestBuildGraph:
    def test_minimal_network(self):
        g = tiny_graph()
        assert g.n_total == 3
        assert g.in_neighbors(3) == {1}
        assert g.out_neighbors(3) == {2}

    def test_city_scale_partition_accepted(self):
        # 259 nodes split 20/22/217, chained so every index is exercised
        nodes = (
            [(RoadClass.INLET, None)] * 20
            + [(RoadClass.OUTLET, None)] * 22
            + [(RoadClass.INTERIOR, ATTR)] * 217
        )
        edges = [(i, 43) for i in range(1, 21)]
        edges += [(i, i + 1) for i in range(43, 259)]
        edges += [(259, j) for j in range(21, 43)]
        g = build_graph(nodes, edges)
        assert (g.n_inlets, g.n_outlets, g.n_interior) == (20, 22, 217)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphBuildError, match=r"edge \(1, 1\) is a self-loop"):
            build_graph(
                [(RoadClass.INLET, None), (RoadClass.OUTLET, None), (RoadClass.INTERIOR, ATTR)],
                [(1, 1)],
            )

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphBuildError, match=r"edge \(1, 3\) is a duplicate"):
            build_graph(
                [(RoadClass.INLET, None), (RoadClass.OUTLET, None), (RoadClass.INTERIOR, ATTR)],
                [(1, 3), (1, 3)],
            )

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphBuildError, match=r"edge \(1, 7\) references a node outside 1\.\.2"):
            build_graph([(RoadClass.INLET, None), (RoadClass.OUTLET, None)], [(1, 7)])

    def test_class_ordering_enforced(self):
        with pytest.raises(GraphBuildError, match="canonical ordering"):
            build_graph(
                [(RoadClass.INTERIOR, ATTR), (RoadClass.INLET, None), (RoadClass.OUTLET, None)],
                [],
            )

    def test_interior_requires_attributes(self):
        with pytest.raises(GraphBuildError, match="requires attributes"):
            build_graph(
                [(RoadClass.INLET, None), (RoadClass.OUTLET, None), (RoadClass.INTERIOR, None)],
                [(1, 3), (3, 2)],
            )


class TestNeighbors:
    def test_chain_neighbors(self):
        g = chain_graph()
        assert g.in_neighbors(3) == {4}
        assert g.out_neighbors(4) == {3}
        assert g.out_neighbors(1) == {4}
        assert g.in_neighbors(1) == set()  # inlets have no in-neighbors
        assert g.out_neighbors(2) == set()  # outlets have no out-neighbors

    def test_neighbors_match_edge_list(self):
        g = generate_grid_noir(3, 4, 2, 3, seed=0)
        for i in range(1, g.n_total + 1):
            assert g.out_neighbors(i) == {v for u, v in g.edges if u == i}
            assert g.in_neighbors(i) == {u for u, v in g.edges if v == i}

    def test_index_arrays_are_read_only(self):
        g = chain_graph()
        for arr in (g.edge_tails, g.edge_heads, g.out_offsets, g.in_offsets, g.in_sources):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_direct_construction_requires_sorted_edges(self):
        attrs = (None, None, ATTR)
        with pytest.raises(GraphBuildError, match=r"edge \(1, 3\) is out of order"):
            NoirGraph(n_total=3, n_inlets=1, n_outlets=1, edges=((3, 2), (1, 3)), attributes=attrs)
        g = NoirGraph(n_total=3, n_inlets=1, n_outlets=1, edges=((1, 3), (3, 2)), attributes=attrs)
        assert g == tiny_graph()

    def test_invalid_id_raises(self):
        g = tiny_graph()
        with pytest.raises(ValueError, match="out of range"):
            g.in_neighbors(0)
        with pytest.raises(ValueError, match="out of range"):
            g.out_neighbors(4)

    @settings(deadline=None, max_examples=25)
    @given(
        rows=st.integers(2, 4),
        cols=st.integers(2, 5),
        seed=st.integers(0, 10_000),
    )
    def test_neighbor_duality(self, rows, cols, seed):
        g = generate_grid_noir(rows, cols, 1, 1, seed)
        for i in range(1, g.n_total + 1):
            for j in g.out_neighbors(i):
                assert i in g.in_neighbors(j)
            for j in g.in_neighbors(i):
                assert i in g.out_neighbors(j)

    def test_partition_completeness(self):
        g = generate_grid_noir(3, 4, 2, 3, seed=0)
        assert len(g.inlet_ids) + len(g.outlet_ids) + len(g.interior_ids) == g.n_total
        for i in g.inlet_ids:
            assert g.road_class(i) is RoadClass.INLET
        for i in g.outlet_ids:
            assert g.road_class(i) is RoadClass.OUTLET
        for i in g.interior_ids:
            assert g.road_class(i) is RoadClass.INTERIOR


class TestValidateStructure:
    def test_minimal_network_passes_all(self):
        report = validate_structure(tiny_graph())
        assert report.all_passed
        assert all(result.passed for _, result in report.items())

    def test_inlet_to_outlet_edge_fails(self):
        g = build_graph(
            [(RoadClass.INLET, None), (RoadClass.OUTLET, None), (RoadClass.INTERIOR, ATTR)],
            [(1, 2), (1, 3), (3, 2)],
        )
        report = validate_structure(g)
        assert not report.no_inlet_to_outlet.passed
        assert report.no_inlet_to_outlet.offenders == (1,)
        assert not report.inlets_feed_interior.passed  # outlet neighbor is not interior

    def test_unreachable_interior_fails(self):
        # node 4 is fed but has no way out
        g = build_graph(
            [
                (RoadClass.INLET, None),
                (RoadClass.OUTLET, None),
                (RoadClass.INTERIOR, ATTR),
                (RoadClass.INTERIOR, ATTR),
            ],
            [(1, 3), (3, 2), (1, 4)],
        )
        report = validate_structure(g)
        assert not report.interior_reaches_outlet.passed
        assert report.interior_reaches_outlet.offenders == (4,)
        # cross-check against a transitive-closure oracle
        closure = reach_closure(g.n_total, g.edges)
        outlets = [o - 1 for o in g.outlet_ids]
        expect_fail = [
            i for i in g.interior_ids if not closure[i - 1, outlets].any()
        ]
        assert list(report.interior_reaches_outlet.offenders) == expect_fail

    def test_isolated_node_fails(self):
        g = build_graph(
            [
                (RoadClass.INLET, None),
                (RoadClass.OUTLET, None),
                (RoadClass.INTERIOR, ATTR),
                (RoadClass.INTERIOR, ATTR),
            ],
            [(1, 3), (3, 2)],
        )
        report = validate_structure(g)
        assert not report.no_isolated_nodes.passed
        assert report.no_isolated_nodes.offenders == (4,)

    def test_outlet_out_edge_flagged(self):
        g = build_graph(
            [(RoadClass.INLET, None), (RoadClass.OUTLET, None), (RoadClass.INTERIOR, ATTR)],
            [(1, 3), (3, 2), (2, 3)],
        )
        report = validate_structure(g)
        assert not report.outlets_absorbing.passed
        assert report.outlets_absorbing.offenders == (2,)

    def test_inlet_in_edge_flagged(self):
        g = build_graph(
            [(RoadClass.INLET, None), (RoadClass.OUTLET, None), (RoadClass.INTERIOR, ATTR)],
            [(1, 3), (3, 2), (3, 1)],
        )
        report = validate_structure(g)
        assert not report.inlets_source_only.passed
        assert report.inlets_source_only.offenders == (1,)

    def test_reverse_reachability_on_random_grids(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            rows, cols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            g = generate_grid_noir(rows, cols, 1, 2, int(rng.integers(0, 1000)))
            report = validate_structure(g)
            assert report.all_passed
            for i in g.inlet_ids:
                outs = g.out_neighbors(i)
                assert outs and all(g.road_class(j) is RoadClass.INTERIOR for j in outs)


class TestComputeCapacity:
    """The capacity formula, read through ``capacity_vector`` of one road."""

    def test_two_lane_road(self):
        # independent arithmetic: 2 lanes * 100 m / 4.5 m per vehicle
        expected = 2 * 100.0 / 4.5
        (got,) = tiny_graph(RoadAttributes(length_m=100.0, lane_count=2)).capacity_vector(4.5)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(44.44, abs=0.005)

    def test_unit_case(self):
        (got,) = tiny_graph(RoadAttributes(length_m=4.5, lane_count=1)).capacity_vector(4.5)
        assert got == 1.0

    def test_default_vehicle_length(self):
        assert DEFAULT_VEHICLE_LENGTH_M == 4.5
        attr = RoadAttributes(length_m=9.0, lane_count=1)
        assert tiny_graph(attr).capacity_vector() == pytest.approx([2.0])

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            tiny_graph().capacity_vector(0.0)
        with pytest.raises(ValueError):
            RoadAttributes(length_m=-1.0, lane_count=1)
        with pytest.raises(ValueError):
            RoadAttributes(length_m=float("inf"), lane_count=1)
        with pytest.raises(ValueError):
            RoadAttributes(length_m=10.0, lane_count=0)
