import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noirsim.dynamics import assemble_input_matrix
from noirsim.graph import RoadClass, validate_structure
from noirsim.harness import (
    SimConfig,
    StepRecord,
    TimeSeriesLog,
    emit_report,
    generate_grid_noir,
    philadelphia_noir,
    run_simulation,
)

from helpers import bibo_bound, reference_emit_report

# flows that StepRecord takes unchecked and that the writer must format as
# the reference does: a negative zero, the least subnormal, floats past 12
# digits, and the non-finite values
SPECIAL_FLOWS = [-0.0, 5e-324, 1e16, 123456789012.5, math.nan, math.inf, -math.inf]


def assert_same_reports(log: TimeSeriesLog, root: Path) -> None:
    reference = reference_emit_report(log, root / "reference")
    emitted = emit_report(log, root / "emitted")
    assert emitted.keys() == reference.keys()
    for key, path in reference.items():
        assert emitted[key].read_bytes() == path.read_bytes(), key


class TestGenerator:
    def test_minimal_grid_is_valid(self):
        g = generate_grid_noir(2, 2, 1, 1, seed=0)
        assert validate_structure(g).all_passed
        assert g.n_inlets == 1 and g.n_outlets == 1

    def test_philadelphia_partition(self):
        g = philadelphia_noir(seed=0)
        assert g.n_total == 259
        assert g.n_inlets == 20
        assert g.n_outlets == 22
        assert g.n_interior == 217
        assert validate_structure(g).all_passed

    def test_identical_seeds_identical_graphs(self):
        a = generate_grid_noir(4, 5, 3, 4, seed=77)
        b = generate_grid_noir(4, 5, 3, 4, seed=77)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_grid_noir(4, 5, 3, 4, seed=1)
        b = generate_grid_noir(4, 5, 3, 4, seed=2)
        assert a != b

    def test_counts_exceeding_perimeter_rejected(self):
        with pytest.raises(ValueError, match="perimeter"):
            generate_grid_noir(2, 2, 5, 1, seed=0)

    def test_random_grids_pass_validation(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            perimeter = 2 * (rows + cols) - 4
            n_in = int(rng.integers(1, perimeter + 1))
            n_out = int(rng.integers(1, perimeter + 1))
            g = generate_grid_noir(rows, cols, n_in, n_out, int(rng.integers(0, 10_000)))
            assert validate_structure(g).all_passed


class TestRun:
    def test_single_step_budget(self):
        g = generate_grid_noir(2, 2, 1, 1, seed=0)
        log = run_simulation(g, SimConfig(steps=1, seed=0, d0=4.0, initial_density="zero"))
        assert len(log.records) == 1
        rec = log.records[0]
        assert rec.status == "optimal"
        assert rec.sum_u + rec.sum_v == pytest.approx(4.0, abs=1e-6)

    def test_log_has_exactly_k_records(self):
        g = generate_grid_noir(3, 3, 2, 2, seed=1)
        log = run_simulation(g, SimConfig(steps=12, seed=5, d0=10.0))
        assert len(log.records) == 12
        assert [rec.step for rec in log.records] == list(range(1, 13))

    def test_per_step_budget_on_optimal_steps(self):
        g = generate_grid_noir(3, 4, 2, 3, seed=2)
        log = run_simulation(g, SimConfig(steps=25, seed=9, d0=20.0))
        for rec in log.records:
            if rec.status == "optimal" and not rec.fallback_used:
                assert abs(rec.sum_u + rec.sum_v - 20.0) <= 1e-6

    def test_full_run_determinism(self):
        g = generate_grid_noir(3, 3, 1, 2, seed=3)
        cfg = SimConfig(steps=15, seed=11, d0=6.0)
        log1 = run_simulation(g, cfg)
        log2 = run_simulation(g, cfg)
        for a, b in zip(log1.records, log2.records):
            assert np.array_equal(a.densities, b.densities)
            assert np.array_equal(a.flows, b.flows)
            assert a.cost == b.cost

    def test_lower_bound_keeps_densities_nonnegative(self):
        g = generate_grid_noir(3, 3, 2, 2, seed=8)
        cfg = SimConfig(steps=15, seed=3, d0=12.0, enforce_density_lower_bound=True)
        log = run_simulation(g, cfg)
        for rec in log.records:
            if rec.status == "optimal":
                assert (rec.densities >= -1e-9).all()
            assert rec.slack_negative == pytest.approx(
                max(0.0, -float(rec.densities.min())), abs=1e-15
            )

    def test_violations_logged_not_clamped(self):
        g = generate_grid_noir(3, 3, 2, 2, seed=8)
        log = run_simulation(g, SimConfig(steps=30, seed=3, d0=12.0))
        for rec in log.records:
            neg = max(0.0, -float(rec.densities.min()))
            assert rec.slack_negative == pytest.approx(neg, abs=1e-15)

    def test_invalid_graph_rejected(self):
        from noirsim.graph import RoadAttributes, build_graph

        g = build_graph(
            [
                (RoadClass.INLET, None),
                (RoadClass.OUTLET, None),
                (RoadClass.INTERIOR, RoadAttributes(100.0, 1)),
                (RoadClass.INTERIOR, RoadAttributes(100.0, 1)),
            ],
            [(1, 3), (3, 2), (1, 4)],  # node 4 cannot reach the outlet
        )
        with pytest.raises(ValueError, match="validation"):
            run_simulation(g, SimConfig(steps=1))

    def test_infeasible_steps_recorded_not_raised(self):
        # six large roads funnel into a tiny hub: its inflow exceeds its
        # capacity no matter the boundary flows; the run must keep going and
        # log the failure honestly
        from noirsim.graph import RoadAttributes, build_graph

        big = RoadAttributes(length_m=300.0, lane_count=3)
        tiny = RoadAttributes(length_m=80.0, lane_count=1)
        nodes = [(RoadClass.INLET, None), (RoadClass.OUTLET, None), (RoadClass.INTERIOR, tiny)]
        nodes += [(RoadClass.INTERIOR, big)] * 6
        edges = [(1, spoke) for spoke in range(4, 10)]
        edges += [(spoke, 3) for spoke in range(4, 10)]
        edges += [(3, 2)]
        g = build_graph(nodes, edges)
        log = run_simulation(g, SimConfig(steps=3, seed=0, d0=1.0))
        assert len(log.records) == 3
        assert any(rec.status == "infeasible" for rec in log.records)
        for rec in log.records:
            if rec.status == "infeasible" and not rec.fallback_used:
                assert rec.sum_u == 0.0 and rec.sum_v == 0.0
                assert rec.cost is None

    def test_binding_capacity_regime(self):
        # the city preset at ten times its demand: capacity binds, so runs take
        # the active-set and infeasible paths. The feasible steps start from
        # the outlets-only split, which no row here rejects (seed 1's first
        # phase-one LP is at state.step 24); test_mpc's
        # TestOutletsOnlyStart::test_phase_one_remains_the_fallback covers
        # phase one
        g = philadelphia_noir(seed=1)
        log = run_simulation(g, SimConfig(steps=20, seed=1, d0=1000.0))
        optimal = [rec for rec in log.records if rec.status == "optimal"]
        infeasible = [rec for rec in log.records if rec.status == "infeasible"]
        assert any(rec.active_set_size > 0 for rec in optimal)
        assert infeasible
        for rec in optimal:
            assert abs(rec.sum_u + rec.sum_v - rec.d0_applied) <= 1e-6
            assert rec.flows.min() >= -1e-9
            assert rec.kkt_worst is not None and rec.kkt_worst <= 1e-8
        for rec in infeasible:
            assert np.array_equal(rec.flows, np.zeros_like(rec.flows))
            assert rec.cost is None
        # Without the density lower bound any demand is feasible whenever zero
        # flows are: the outlet columns of A^k B are <= 0, so the demand can
        # go to the outlets. Demand is therefore never relaxed here.
        assert not any(rec.fallback_used for rec in log.records)
        assert all(rec.d0_applied in (0.0, 1000.0) for rec in log.records)

    def test_bibo_bound_respected_over_run(self):
        g = generate_grid_noir(3, 3, 1, 1, seed=6)
        cfg = SimConfig(steps=40, seed=2, d0=5.0)
        log = run_simulation(g, cfg)
        b = assemble_input_matrix(g)
        z = max(
            float(np.abs(log.initial_densities).max()),
            float(np.abs(log.records[0].densities).max()),
            max(float(np.abs(b @ rec.flows).max()) for rec in log.records),
        )
        # conservative contraction estimate from the largest column sum seen
        bound = bibo_bound(z, g.n_interior, 0.99)
        for rec in log.records:
            assert float(rec.densities @ rec.densities) <= bound


class TestEmitReport:
    def test_single_step_files(self, tmp_path):
        g = generate_grid_noir(2, 2, 1, 1, seed=0)
        log = run_simulation(g, SimConfig(steps=1, seed=0, d0=4.0))
        paths = emit_report(log, tmp_path)
        lines = paths["densities"].read_text().splitlines()
        assert lines[0] == "step,road_id,density"
        assert len(lines) == 1 + g.n_interior
        flows = paths["boundary_flows"].read_text().splitlines()
        assert flows[0] == "step,road_id,class,flow"
        assert len(flows) == 1 + g.n_boundary
        assert flows[1].startswith("1,1,inlet,")

    def test_summary_round_trip(self, tmp_path):
        g = generate_grid_noir(3, 3, 2, 2, seed=1)
        log = run_simulation(g, SimConfig(steps=5, seed=4, d0=8.0))
        paths = emit_report(log, tmp_path)
        raw = paths["run_summary"].read_text()
        data = json.loads(raw)
        # rereading and re-serializing reproduces the aggregates bit-exactly
        assert json.dumps(data, indent=2) + "\n" == raw
        assert data["aggregates"]["steps"] == 5
        assert len(data["per_step"]) == 5
        assert data["network"]["n_total"] == g.n_total

    def test_twelve_significant_digits(self, tmp_path):
        g = generate_grid_noir(2, 2, 1, 1, seed=0)
        log = run_simulation(g, SimConfig(steps=2, seed=1, d0=4.0))
        paths = emit_report(log, tmp_path)
        for line in paths["densities"].read_text().splitlines()[1:]:
            mantissa = line.split(",")[2].lstrip("-").replace(".", "").replace("e", "E").split("E")[0]
            assert len(mantissa.lstrip("0")) <= 12

    def test_emitted_bytes_deterministic(self, tmp_path):
        g = generate_grid_noir(3, 3, 1, 1, seed=2)
        cfg = SimConfig(steps=4, seed=6, d0=5.0)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        p1 = emit_report(run_simulation(g, cfg), out1)
        p2 = emit_report(run_simulation(g, cfg), out2)
        for key in p1:
            assert p1[key].read_bytes() == p2[key].read_bytes()

    @pytest.mark.parametrize("d0, steps", [(100.0, 150), (1000.0, 40)], ids=["phila", "binding"])
    def test_matches_the_reference_writer(self, tmp_path, d0, steps):
        log = run_simulation(philadelphia_noir(seed=1), SimConfig(seed=1, d0=d0, steps=steps))
        statuses = {rec.status for rec in log.records}
        assert ("infeasible" in statuses) == (d0 == 1000.0)
        assert_same_reports(log, tmp_path)

    @settings(deadline=None, max_examples=40)
    @given(
        densities=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30
        ),
        flows=st.lists(st.floats(), max_size=30),
        sums=st.lists(st.tuples(*[st.floats(-1e12, 1e12)] * 2), min_size=1, max_size=3),
        n_inlets=st.integers(1, 6),
    )
    def test_matches_the_reference_writer_on_any_floats(self, densities, flows, sums, n_inlets):
        flows = SPECIAL_FLOWS + flows
        records = tuple(
            StepRecord(
                step=k + 1,
                sum_u=sum_u,
                sum_v=sum_v,
                cost=None,
                status=("optimal", "infeasible")[k % 2],
                kkt_worst=None,
                active_set_size=0,
                d0_applied=1.0,
                fallback_used=False,
                slack_capacity=abs(sum_u),
                slack_negative=abs(sum_v),
                total_density=sum_u,
                densities=np.roll(densities, k),
                flows=np.roll(flows, k),
            )
            for k, (sum_u, sum_v) in enumerate(sums)
        )
        log = TimeSeriesLog(
            config=SimConfig(),
            n_total=len(flows) + len(densities),
            n_inlets=n_inlets,
            n_outlets=len(flows) - n_inlets,
            initial_densities=np.zeros(len(densities)),
            records=records,
        )
        with tempfile.TemporaryDirectory() as root:
            assert_same_reports(log, Path(root))

    def test_rewrite_leaves_only_the_new_run(self, tmp_path):
        # a longer run's reports in the directory are replaced, not patched:
        # every file ends where the shorter run's reports end
        g = generate_grid_noir(3, 3, 2, 2, seed=1)
        emit_report(run_simulation(g, SimConfig(steps=5, seed=4, d0=8.0)), tmp_path / "out")
        short = run_simulation(g, SimConfig(steps=2, seed=4, d0=8.0))
        emitted = emit_report(short, tmp_path / "out")
        reference = reference_emit_report(short, tmp_path / "reference")
        for key, path in reference.items():
            assert emitted[key].read_bytes() == path.read_bytes(), key

    def test_integer_real_field_reports_as_float(self, tmp_path):
        # the config echo says "d0": 100.0 whichever type the caller passed
        g = generate_grid_noir(2, 2, 1, 1, seed=0)
        p1 = emit_report(run_simulation(g, SimConfig(steps=2, d0=4)), tmp_path / "int")
        p2 = emit_report(run_simulation(g, SimConfig(steps=2, d0=4.0)), tmp_path / "float")
        for key in p1:
            assert p1[key].read_bytes() == p2[key].read_bytes()


class TestSimConfig:
    def test_defaults_match_experiment(self):
        cfg = SimConfig()
        assert cfg.steps == 150
        assert cfg.dt_seconds == 20.0
        assert cfg.d0 == 100.0
        assert cfg.n_tau == 5
        assert cfg.l_veh_m == 4.5

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimConfig(steps=0)
        with pytest.raises(ValueError):
            SimConfig(dt_seconds=0.0)
        with pytest.raises(ValueError):
            SimConfig(p_max=1.0)
        with pytest.raises(ValueError):
            SimConfig(initial_density="full")
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SimConfig(seed=-1)

    def test_rejects_wrong_types(self):
        with pytest.raises(ValueError, match="d0 must be a finite real number"):
            SimConfig(d0="x")
        with pytest.raises(ValueError, match="enforce_density_lower_bound must be a boolean"):
            SimConfig(enforce_density_lower_bound="yes")
        with pytest.raises(ValueError, match="d0 must be a finite real number"):
            SimConfig(d0=True)
        with pytest.raises(ValueError, match="d0 must be a finite real number"):
            SimConfig(d0=float("inf"))
        with pytest.raises(ValueError, match="steps must be an integer"):
            SimConfig(steps=3.0)
        assert SimConfig(d0=100).d0 == 100
