import re

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from noirsim.dynamics import (
    PatternMatrix,
    TrafficState,
    assemble_input_matrix,
    assemble_state_matrix,
    sample_matrices,
    step,
)
from noirsim.graph import RoadClass, build_graph, slot_pattern, validate_structure
from noirsim.harness import GRID_PRESET, generate_grid_noir, philadelphia_noir

from helpers import (
    ATTR,
    bibo_bound,
    chain_graph,
    random_valid_grid,
    reference_sample_matrices,
    spectral_radius_estimate,
    tiny_graph,
)


PRESET = philadelphia_noir(seed=1)


def hand_pq():
    """The worked two-interior-road example: p = (1/2, 1/2), all of road 4's
    outflow routed to road 3, road 3 draining to the outlet."""
    p = np.array([0.5, 0.5])
    q = np.array([[0.0, 1.0], [0.0, 0.0]])
    return p, q


def stored_slots(m: PatternMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and value of each of ``m``'s stored slots, row by row in
    slot order; padded slots are left out."""
    pattern = m.pattern
    flat = np.arange(m.data.size).reshape(pattern.slot_col.shape).T.reshape(-1)
    flat = flat[~np.isin(flat, pattern.padding)]
    return flat % m.shape[0], pattern.slot_col.reshape(-1)[flat], m.data[flat]


def hub_graph(flip: bool = False):
    """An inlet feeding three interior hubs (4, 5, 6) that split over twelve
    out-edges each: 4 and 6 over the leaves 7..18, 5 over 7..17 and outlet 2.
    Leaf i drains to outlet 2 or 3 by its parity, swapped by ``flip``."""
    leaves = range(7, 19)
    edges = [(1, 4), (1, 5), (1, 6), (5, 2)]
    edges += [(h, t) for h in (4, 6) for t in leaves] + [(5, t) for t in leaves[:-1]]
    edges += [(t, 2 + (t + flip) % 2) for t in leaves]
    nodes = [(RoadClass.INLET, None), (RoadClass.OUTLET, None), (RoadClass.OUTLET, None)]
    return build_graph(nodes + [(RoadClass.INTERIOR, ATTR)] * 15, edges)


def assert_state_matrix_contract(a: np.ndarray, graph, tol: float = 1e-12) -> None:
    """Nonnegative entries, the column-sum trichotomy and a radius below 1.

    The outlet-adjacent roads are the rows of B with a -1 entry: their
    columns sum inside (0, 1], and every other column sums to exactly 1.
    The radius is only bounded when every interior road reaches an outlet.
    """
    assert a.min() >= -tol
    col = a.sum(axis=0)
    outlet_adjacent = (assemble_input_matrix(graph) < 0.0).any(axis=1)
    open_cols = col[outlet_adjacent]
    assert ((tol < open_cols) & (open_cols <= 1.0 + tol)).all()
    assert (np.abs(col[~outlet_adjacent] - 1.0) <= tol).all()
    assert validate_structure(graph).interior_reaches_outlet.passed
    assert spectral_radius_estimate(a) < 1.0


class TestTrafficState:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_density_is_rejected(self, bad):
        # a state of the two-road chain
        with pytest.raises(ValueError, match="state index 0 is not finite"):
            TrafficState(np.array([bad, 1.0]))


class TestSampling:
    def test_zero_density_gives_zero_probability(self):
        g = chain_graph()
        rng = np.random.default_rng(0)
        state = TrafficState(np.array([0.0, 5.0]))
        probs, _ = sample_matrices(rng, g, state, p_max=0.9)
        assert probs[0] == 0.0
        assert 0.0 <= probs[1] <= 0.9

    @pytest.mark.parametrize("x", [1e-12, -1e-12, 1e-6, -1e-6])
    def test_zero_switch_has_a_scale(self, x):
        # densities within 1e-9 veh of zero either side get p = 0, so that
        # round-off cannot flip the switch; beyond it a road, negative ones
        # too, keeps its drawn p, and p is drawn first, so the random
        # stream does not depend on the switch
        g = chain_graph()
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        probs, _ = sample_matrices(rng, g, TrafficState(np.array([x, 5.0])))
        drawn, _ = sample_matrices(ref_rng, g, TrafficState(np.array([5.0, 5.0])))
        assert probs[0] == (0.0 if abs(x) <= 1e-9 else drawn[0]) and drawn[0] > 0.0
        assert probs[1] == drawn[1]
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_single_out_neighbor_gets_full_fraction(self):
        g = chain_graph()
        rng = np.random.default_rng(1)
        _, per_edge, _ = reference_sample_matrices(rng, g, TrafficState(np.ones(2)))
        assert per_edge[(1, 4)] == 1.0
        assert per_edge[(4, 3)] == 1.0
        assert per_edge[(3, 2)] == 1.0

    def test_determinism_for_fixed_seed(self):
        g = chain_graph()
        state = TrafficState(np.array([2.0, 3.0]))
        p1, q1 = sample_matrices(np.random.default_rng(42), g, state)
        p2, q2 = sample_matrices(np.random.default_rng(42), g, state)
        assert np.array_equal(p1, p2)
        assert np.array_equal(q1.toarray(), q2.toarray())
        _, edges1, _ = reference_sample_matrices(np.random.default_rng(42), g, state)
        _, edges2, _ = reference_sample_matrices(np.random.default_rng(42), g, state)
        assert edges1 == edges2

    def test_fractions_sum_to_one_per_node(self):
        g = generate_grid_noir(3, 4, 2, 2, seed=9)
        rng = np.random.default_rng(3)
        state = TrafficState(np.ones(g.n_interior))
        _, per_edge, _ = reference_sample_matrices(rng, g, state)
        for j in list(g.inlet_ids) + list(g.interior_ids):
            outs = g.out_neighbors(j)
            if not outs:
                continue
            total = sum(per_edge[(j, t)] for t in outs)
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "graph, partner",
        [
            (generate_grid_noir(seed=1, **GRID_PRESET), generate_grid_noir(seed=2, **GRID_PRESET)),
            (philadelphia_noir(seed=1), philadelphia_noir(seed=2)),
            (generate_grid_noir(3, 4, 2, 2, seed=9), generate_grid_noir(3, 4, 2, 2, seed=10)),
            (hub_graph(), hub_graph(flip=True)),
        ],
        ids=["grid-preset", "philadelphia", "grid-3x4", "hub-12"],
    )
    def test_matches_per_node_reference_bit_for_bit(self, graph, partner):
        # two graphs of one size but other boundary edges alternate, each
        # drawn from repeatedly, so a turn plan kept under a key that does
        # not tell them apart serves one graph the other's arrays. The other
        # graphs split a node over at most 3 edges, where np.sum adds left to
        # right too; the hubs' 12-way splits are where a total taken by np.sum
        # or np.add.reduceat rounds differently from Generator.dirichlet's
        assert graph.n_total == partner.n_total and graph.edges != partner.edges
        for seed in range(5):
            for g in (graph, partner):
                densities = np.random.default_rng(100 + seed).uniform(0.0, 10.0, g.n_interior)
                densities[::3] = 0.0
                state = TrafficState(densities)
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                probs, fractions = sample_matrices(rng, g, state)
                p, _, matrix = reference_sample_matrices(ref_rng, g, state)
                assert probs.tobytes() == p.tobytes()
                assert fractions.toarray().tobytes() == matrix.tobytes()
                assert not fractions.data[fractions.pattern.padding].any()
                assert rng.bit_generator.state == ref_rng.bit_generator.state
        for g in (graph, partner):
            assert g.turn_plan is g.turn_plan
            plan = g.turn_plan
            arrays = [arr for arr in (*plan, *plan.pattern) if isinstance(arr, np.ndarray)]
            assert len(arrays) == 6 and not any(arr.flags.writeable for arr in arrays)

    def test_turn_plan_is_built_with_the_graph(self, monkeypatch):
        # a draw derives nothing: the plan, and the pattern that slot_pattern
        # gives it, exist once the graph does
        g = generate_grid_noir(seed=1, **GRID_PRESET)

        def refuse(*args, **kwargs):
            raise AssertionError("slot_pattern called after the graph was built")

        monkeypatch.setattr("noirsim.graph.slot_pattern", refuse)
        plan = g.turn_plan
        state = TrafficState(np.ones(g.n_interior))
        sample_matrices(np.random.default_rng(0), g, state)
        assert g.turn_plan is plan

    def test_p_max_domain(self):
        g = tiny_graph()
        state = TrafficState(np.ones(1))
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                sample_matrices(np.random.default_rng(0), g, state, p_max=bad)

    def test_fraction_column_trichotomy(self):
        g = generate_grid_noir(3, 3, 1, 2, seed=4)
        rng = np.random.default_rng(8)
        _, fractions = sample_matrices(rng, g, TrafficState(np.ones(g.n_interior)))
        for j in g.interior_ids:
            col = fractions.toarray()[:, g.state_index(j)].sum()
            outs = g.out_neighbors(j)
            n_outlet = sum(1 for t in outs if g.road_class(t) is RoadClass.OUTLET)
            if n_outlet == 0:
                assert col == pytest.approx(1.0, abs=1e-12)
            elif n_outlet == len(outs):
                assert col == 0.0
            else:
                assert 0.0 < col < 1.0

    def test_all_outlet_neighbors_give_zero_column(self):
        # road 3 in the chain drains only to the outlet
        g = chain_graph()
        rng = np.random.default_rng(12)
        _, fractions = sample_matrices(rng, g, TrafficState(np.ones(2)))
        assert fractions.toarray()[:, g.state_index(3)].sum() == 0.0


class TestStateMatrix:
    def test_zero_probability_gives_identity(self):
        a = assemble_state_matrix(np.zeros(3), np.zeros((3, 3))).toarray()
        assert np.array_equal(a, np.eye(3))

    def test_hand_expansion(self):
        p, q = hand_pq()
        a = assemble_state_matrix(p, q).toarray()
        assert np.array_equal(a, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_column_sum_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            p = rng.uniform(0.0, 0.95, size=n)
            q = rng.uniform(size=(n, n))
            q /= q.sum(axis=0)  # column-stochastic
            np.fill_diagonal(q, 0.0)
            a = assemble_state_matrix(p, q)
            expected = 1.0 - p * (1.0 - q.sum(axis=0))
            assert np.allclose(a.toarray().sum(axis=0), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assemble_state_matrix(np.zeros(2), np.zeros((3, 3)))

    @pytest.mark.parametrize("case", ["dense-partial-diagonal", "dense"])
    def test_any_fraction_matrix_gives_the_dense_model(self, case):
        # dense inputs, which store no diagonal entry where q is 0 there:
        # the result still equals the dense model bit for bit, on q's
        # nonzero pattern plus the diagonal, each row's slots holding
        # ascending columns
        rng = np.random.default_rng(4)
        n = 5
        p = rng.uniform(0.0, 0.9, n)
        p[1] = 0.0
        if case == "dense-partial-diagonal":
            # self-routing on roads 0 and 2, and no diagonal entry in
            # columns 1, 3 and 4
            q = np.zeros((n, n))
            q[[0, 3, 4, 2, 0, 1], [0, 0, 1, 2, 3, 4]] = rng.uniform(0.1, 1.0, size=6)
        else:
            q = rng.uniform(size=(n, n)) * (rng.random((n, n)) < 0.5)
            q[[0, 2], [0, 2]] = [0.25, 0.5]  # self-routing on two roads
            q[3, 3] = 0.0
        a = assemble_state_matrix(p, q)
        assert a.toarray().tobytes() == (q * p + np.diag(1.0 - p)).tobytes()
        pattern = set(zip(*map(np.ndarray.tolist, np.nonzero(q)))) | {(i, i) for i in range(n)}
        rows, cols, _ = stored_slots(a)
        assert (np.diff(rows * n + cols) > 0).all() and rows.size == len(pattern)
        assert set(zip(rows.tolist(), cols.tolist())) == pattern

    def test_fractions_without_a_diagonal_entry_are_refused(self):
        # a PatternMatrix q must store every diagonal entry, as the
        # sampler's does; road 1 of this one has none
        q = PatternMatrix.from_dense(np.array([[0.5, 0.0], [0.5, 0.0]]))
        with pytest.raises(ValueError, match="no diagonal entry for road 1"):
            assemble_state_matrix(np.full(2, 0.5), q)

    def test_padded_slots_stay_zero_whatever_p_holds(self):
        # road 1's row stores its diagonal and one padded slot, which names
        # column 0; a NaN p[0] poisons road 0's row only
        p, q = hand_pq()
        p[0] = np.nan
        a = assemble_state_matrix(p, PatternMatrix.from_dense(q, diagonal=True))
        assert not a.data[a.pattern.padding].any()
        assert (a @ np.ones(2))[1] == 0.5

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2)], ids=["column", "row"])
    def test_outflow_probabilities_that_are_not_a_vector_are_refused(self, shape):
        # a column would broadcast q's values into an nnz x nnz array, and
        # a row is too short to index by column; both are refused by their
        # shape, for a dense q and for one on a pattern
        p, q = hand_pq()
        for fractions in (q, PatternMatrix.from_dense(q, diagonal=True)):
            with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
                assemble_state_matrix(p.reshape(shape), fractions)


class TestInputMatrix:
    def test_minimal_network(self):
        b = assemble_input_matrix(tiny_graph())
        assert np.array_equal(b, np.array([[1.0, -1.0]]))

    def test_interior_without_boundary_neighbors(self):
        b = assemble_input_matrix(chain_graph())
        # state order (3, 4): road 3 feeds the outlet, road 4 is fed by the inlet
        assert np.array_equal(b, np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_entries_match_boundary_adjacency_on_random_grids(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            g = generate_grid_noir(
                int(rng.integers(2, 5)), int(rng.integers(2, 5)), 2, 2, int(rng.integers(0, 999))
            )
            b = assemble_input_matrix(g)
            assert set(np.unique(b)) <= {-1.0, 0.0, 1.0}
            for i in g.interior_ids:
                row = b[g.state_index(i)]
                plus = {j for j in g.in_neighbors(i) if j <= g.n_inlets}
                minus = {j for j in g.out_neighbors(i) if g.n_inlets < j <= g.n_boundary}
                assert {j + 1 for j in np.flatnonzero(row == 1.0)} == plus
                assert {j + 1 for j in np.flatnonzero(row == -1.0)} == minus

    def test_interior_far_from_boundary_gets_zero_row(self):
        g = build_graph(
            [
                (RoadClass.INLET, None),
                (RoadClass.OUTLET, None),
                (RoadClass.INTERIOR, ATTR),
                (RoadClass.INTERIOR, ATTR),
                (RoadClass.INTERIOR, ATTR),
            ],
            [(1, 5), (5, 4), (4, 3), (3, 2)],
        )
        b = assemble_input_matrix(g)
        assert np.array_equal(b[g.state_index(4)], np.zeros(2))

    def test_inlet_feeding_two_interiors(self):
        g = build_graph(
            [
                (RoadClass.INLET, None),
                (RoadClass.OUTLET, None),
                (RoadClass.INTERIOR, ATTR),
                (RoadClass.INTERIOR, ATTR),
            ],
            [(1, 3), (1, 4), (3, 2), (4, 3)],
        )
        b = assemble_input_matrix(g)
        assert np.array_equal(b[:, 0], np.array([1.0, 1.0]))
        assert np.array_equal(b[:, 1], np.array([-1.0, 0.0]))


class TestStep:
    def test_zero_dynamics(self):
        state = TrafficState(np.zeros(2))
        nxt = step(state, np.eye(2), np.zeros((2, 2)), np.zeros(2))
        assert np.array_equal(nxt.densities, np.zeros(2))
        assert nxt.step == 1

    def test_one_step_hand_computation(self):
        state = TrafficState(np.array([10.0]))
        nxt = step(state, np.eye(1), np.array([[1.0, -1.0]]), np.array([3.0, 2.0]))
        assert nxt.densities[0] == 11.0

    def test_dimension_mismatch(self):
        state = TrafficState(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            step(state, np.eye(3), np.zeros((3, 1)), np.zeros(1))
        with pytest.raises(ValueError):
            step(state, np.eye(2), np.zeros((2, 3)), np.zeros(1))

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_autonomous_update_stays_nonnegative_exactly(self, n, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.0, 1.0, size=n) * (rng.random(n) > 0.1)
        q = rng.uniform(0.0, 1.0, size=(n, n))
        x = rng.uniform(0.0, 50.0, size=n) * (rng.random(n) > 0.2)
        a = assemble_state_matrix(p, q)
        assert (a @ x >= 0.0).all()  # exact, no tolerance

    def test_trajectory_determinism(self):
        g = generate_grid_noir(3, 3, 1, 1, seed=2)
        b = assemble_input_matrix(g)
        results = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            state = TrafficState(np.full(g.n_interior, 5.0))
            for _ in range(20):
                probs, fractions = sample_matrices(rng, g, state)
                a = assemble_state_matrix(probs, fractions)
                s = rng.uniform(0.0, 2.0, size=g.n_boundary)
                state = step(state, a, b, s)
            results.append(state.densities)
        assert np.array_equal(results[0], results[1])


class TestSparseStateMatrix:
    """The sampler and the assembly carry A[k] in the row slots of the
    graph's pattern; it must equal the dense model that the per-node
    reference sampler gives."""

    def test_hand_built_slot_pattern(self):
        # row 0 stores only column 0 and then a padded slot, which also
        # names column 0; row 1 stores nothing; the entries come unsorted
        pattern, where = slot_pattern([2, 0, 2], [2, 0, 1], (3, 3))
        assert pattern.shape == (3, 3)
        assert pattern.slot_col.tolist() == [[0, 0, 1], [0, 0, 2]]
        assert where.tolist() == [5, 0, 2]
        assert pattern.diagonal.tolist() == [0, 5]
        assert pattern.padding.tolist() == [1, 3, 4]
        data = np.zeros(6)
        data[where] = [7.0, 5.0, 6.0]
        a = PatternMatrix(data, pattern)
        dense = np.array([[5.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 6.0, 7.0]])
        assert a.toarray().tobytes() == dense.tobytes()
        assert (a @ np.array([1.0, 2.0, 4.0])).tolist() == [5.0, 0.0, 40.0]
        assert (a @ np.array([np.inf, 2.0, 4.0])).tolist() == [np.inf, 0.0, 40.0]
        same = PatternMatrix.from_dense(dense)
        assert same.data.tobytes() == data.tobytes()
        assert same.pattern.slot_col.tobytes() == pattern.slot_col.tobytes()

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_assembly_matches_dense_reference_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        g = random_valid_grid(rng)
        densities = rng.uniform(0.0, 10.0, g.n_interior)
        densities[rng.random(g.n_interior) < 0.3] = 0.0
        state = TrafficState(densities)
        probs, fractions = sample_matrices(np.random.default_rng(seed), g, state)
        a = assemble_state_matrix(probs, fractions)
        p, _, q_ref = reference_sample_matrices(np.random.default_rng(seed), g, state)
        assert isinstance(a, PatternMatrix) and isinstance(fractions, PatternMatrix)
        assert a.toarray().tobytes() == (q_ref * p + np.diag(1.0 - p)).tobytes()
        # q is on A[k]'s pattern already: it stores its n diagonal entries, as 0
        n = g.n_interior
        assert a.pattern is fractions.pattern
        diagonal = fractions.pattern.diagonal
        assert np.array_equal(diagonal % n, np.arange(n))
        assert np.array_equal(fractions.pattern.slot_col.reshape(-1)[diagonal], np.arange(n))
        assert not fractions.data[diagonal].any()

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), preset=st.booleans())
    def test_products_equal_scipy_byte_for_byte(self, seed, preset):
        # scipy's csc_matvec and csc_matvecs as the oracle: each row sums its
        # products in ascending column order from +0.0. Some densities are
        # negative and some zero, so A[k] stores explicit zeros (p = 0); the
        # operand -B is -0.0 wherever B is 0, so some rows' terms are all
        # -0.0 and must sum to +0.0. Rows narrower than the widest read
        # padded slots: 42 of the preset's 217 rows, and some grids' rows. A
        # padded slot points at column 0, which one operand holds as inf:
        # the slot still adds +0.0, as scipy's loop adds nothing.
        rng = np.random.default_rng(seed)
        g = PRESET if preset else random_valid_grid(rng)
        n = g.n_interior
        densities = rng.uniform(-5.0, 10.0, n)
        densities[rng.random(n) < 0.3] = 0.0
        densities[:2] = 0.0, -1.0
        a = assemble_state_matrix(*sample_matrices(rng, g, TrafficState(densities)))
        rows, cols, values = stored_slots(a)
        oracle = scipy.sparse.csc_array((values, (rows, cols)), shape=a.shape)
        assert oracle.nnz == values.size and not values.all()
        assert not preset or a.pattern.padding.size
        minus_b = -assemble_input_matrix(g)
        spiked = rng.uniform(-1.0, 1.0, (n, 3))
        spiked[0, 0], spiked[n // 2, 1], spiked[-1, 2] = np.inf, -np.inf, np.nan
        for operand in (densities, minus_b[:, :1], minus_b, spiked, spiked[:, 0]):
            assert (a @ operand).tobytes() == (oracle @ operand).tobytes()
        assert a.toarray().tobytes() == oracle.toarray().tobytes()

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_step_matches_dense_product(self, seed):
        rng = np.random.default_rng(seed)
        g = random_valid_grid(rng)
        state = TrafficState(rng.uniform(0.0, 50.0, g.n_interior))
        a = assemble_state_matrix(*sample_matrices(rng, g, state))
        b = assemble_input_matrix(g)
        s = rng.uniform(0.0, 5.0, g.n_boundary)
        dense = a.toarray() @ state.densities + b @ s
        scale = (a.toarray() @ state.densities + np.abs(b) @ s).max()
        assert np.abs(step(state, a, b, s).densities - dense).max() <= 1e-12 * scale


class TestFlows:
    def test_conservation_without_boundary(self):
        # when every fraction column sums to 1, total density is conserved
        rng = np.random.default_rng(7)
        n = 5
        q = rng.uniform(size=(n, n))
        np.fill_diagonal(q, 0.0)
        q /= q.sum(axis=0)
        p = rng.uniform(0.0, 0.9, size=n)
        x = rng.uniform(0.0, 10.0, size=n)
        a = assemble_state_matrix(p, q)
        assert abs((a @ x).sum() - x.sum()) < 1e-12


class TestStateMatrixContract:
    def test_hand_example_column_sums(self):
        g = chain_graph()
        p, q = hand_pq()
        a = assemble_state_matrix(p, q).toarray()
        # state order (3, 4): road 3 drains to the outlet, road 4 does not
        assert a.sum(axis=0) == pytest.approx([0.5, 1.0])
        assert_state_matrix_contract(a, g)

    def test_random_valid_instances_contract(self):
        rng = np.random.default_rng(21)
        for trial in range(5):
            g = generate_grid_noir(3, 4, 2, 2, seed=trial)
            state = TrafficState(rng.uniform(1.0, 10.0, size=g.n_interior))
            probs, fractions = sample_matrices(rng, g, state)
            a = assemble_state_matrix(probs, fractions).toarray()
            assert_state_matrix_contract(a, g)


class TestSpectralRadius:
    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            n = int(rng.integers(3, 10))
            a = rng.uniform(size=(n, n))
            a /= a.sum(axis=0) * rng.uniform(1.05, 2.0)  # column sums < 1
            exact = float(np.abs(np.linalg.eigvals(a)).max())
            est = spectral_radius_estimate(a, iters=3000)
            assert est == pytest.approx(exact, abs=1e-4)

    def test_periodic_structure(self):
        a = np.array([[0.0, 1.0], [0.25, 0.0]])  # radius 0.5, 2-periodic
        assert spectral_radius_estimate(a, iters=2000) == pytest.approx(0.5, abs=1e-6)

    def test_zero_matrix(self):
        assert spectral_radius_estimate(np.zeros((3, 3))) == 0.0


class TestBiboBound:
    def test_zero_input(self):
        assert bibo_bound(0.0, 217, 0.5) == 0.0

    def test_hand_arithmetic(self):
        assert bibo_bound(1.0, 217, 0.5) == pytest.approx(434.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bibo_bound(1.0, 10, 1.0)
        with pytest.raises(ValueError):
            bibo_bound(1.0, 10, -0.1)
        with pytest.raises(ValueError):
            bibo_bound(-1.0, 10, 0.5)

    def test_simulated_norm_stays_below_bound(self):
        g = generate_grid_noir(3, 3, 1, 1, seed=6)
        rng = np.random.default_rng(33)
        b = assemble_input_matrix(g)
        state = TrafficState(rng.uniform(0.0, 10.0, size=g.n_interior))
        z_terms = [float(np.abs(state.densities).max())]
        gamma = np.eye(g.n_interior)
        norms = [float(state.densities @ state.densities)]
        for _ in range(150):
            probs, fractions = sample_matrices(rng, g, state)
            a = assemble_state_matrix(probs, fractions)
            s = rng.uniform(0.0, 1.0, size=g.n_boundary)
            z_terms.append(float(np.abs(b @ s).max()))
            state = step(state, a, b, s)
            gamma = a @ gamma
            norms.append(float(state.densities @ state.densities))
            if state.step == 1:
                z_terms.append(float(np.abs(state.densities).max()))
        r = float(gamma.sum(axis=0).max()) ** (1.0 / 150.0)
        bound = bibo_bound(max(z_terms), g.n_interior, r)
        assert all(n <= bound for n in norms)
