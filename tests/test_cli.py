import json

import pytest

from noirsim.cli import EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "noirsim" in capsys.readouterr().out


def test_generate_then_validate(tmp_path, capsys):
    net = tmp_path / "net.json"
    assert main(["generate", "--preset", "grid", "--seed", "3", "--out", str(net)]) == EXIT_OK
    assert main(["validate", str(net)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "inlets_feed_interior: pass" in out


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["generate", "--preset", "philadelphia", "--seed", "9", "--out", str(a)])
    main(["generate", "--preset", "philadelphia", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def write_tiny_network(path, edges):
    """Inlet 1, outlet 2 and interior road 3, joined by ``edges``."""
    payload = {
        "n_in": 1,
        "n_boundary": 2,
        "n_total": 3,
        "nodes": [
            {"id": 1, "class": "inlet"},
            {"id": 2, "class": "outlet"},
            {"id": 3, "class": "interior", "length_m": 100.0, "lanes": 1},
        ],
        "edges": edges,
    }
    path.write_text(json.dumps(payload))


def test_validate_reports_failure(tmp_path, capsys):
    net = tmp_path / "net.json"
    write_tiny_network(net, [[1, 2], [1, 3], [3, 2]])
    assert main(["validate", str(net)]) == EXIT_VALIDATION
    assert "no_inlet_to_outlet: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edges, named",
    [
        ([[1, 3], [1, 3], [3, 2]], "edge (1, 3) is a duplicate"),
        ([[1, 3], [3, 3], [3, 2]], "edge (3, 3) is a self-loop"),
        ([[1, 3], [3, 2], [3, 7]], "edge (3, 7) references a node outside 1..3"),
        ([[1, 3], [3, 2], [3, 2**64]], f"edge (3, {2**64}) references a node outside 1..3"),
    ],
    ids=["duplicate", "self-loop", "out-of-range", "beyond-int64"],
)
def test_validate_names_faulty_edge(tmp_path, capsys, edges, named):
    net = tmp_path / "net.json"
    write_tiny_network(net, edges)
    assert main(["validate", str(net)]) == EXIT_VALIDATION
    assert named in capsys.readouterr().err


def test_simulate_rejects_structurally_invalid_network(tmp_path, capsys):
    net = tmp_path / "net.json"
    write_tiny_network(net, [[1, 2], [1, 3], [3, 2]])
    code = main(["simulate", "--network", str(net), "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "no_inlet_to_outlet" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_validate_malformed_network(tmp_path):
    net = tmp_path / "net.json"
    net.write_text('{"oops": true}')
    assert main(["validate", str(net)]) == EXIT_VALIDATION


def test_missing_file_is_io_error(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_IO


def test_simulate_end_to_end(tmp_path):
    net = tmp_path / "net.json"
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "results"
    main(["generate", "--preset", "grid", "--seed", "1", "--out", str(net)])
    cfg.write_text('{"steps": 3, "d0": 8.0, "seed": 2}')
    code = main(["simulate", "--network", str(net), "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["aggregates"]["steps"] == 3
    assert (out / "densities.csv").exists()
    assert (out / "boundary_flows.csv").exists()


def test_integer_config_value_echoes_as_real(tmp_path):
    net = tmp_path / "net.json"
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "results"
    main(["generate", "--preset", "grid", "--seed", "1", "--out", str(net)])
    cfg.write_text('{"steps": 2, "d0": 100}')
    code = main(["simulate", "--network", str(net), "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    assert '"d0": 100.0,' in (out / "run_summary.json").read_text()


def test_simulate_reports_infeasibility(tmp_path):
    # six large roads funnel into an undersized hub; no boundary flow keeps
    # the hub within capacity, so the run exits with the infeasibility code
    from noirsim.formats import document_from_graph, serialize_network
    from noirsim.graph import RoadAttributes, RoadClass, build_graph

    big = RoadAttributes(length_m=300.0, lane_count=3)
    tiny = RoadAttributes(length_m=80.0, lane_count=1)
    nodes = [(RoadClass.INLET, None), (RoadClass.OUTLET, None), (RoadClass.INTERIOR, tiny)]
    nodes += [(RoadClass.INTERIOR, big)] * 6
    edges = [(1, spoke) for spoke in range(4, 10)]
    edges += [(spoke, 3) for spoke in range(4, 10)]
    edges += [(3, 2)]
    net = tmp_path / "funnel.json"
    net.write_bytes(serialize_network(document_from_graph(build_graph(nodes, edges))))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"steps": 3, "d0": 1.0, "seed": 0}')
    code = main(["simulate", "--network", str(net), "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_INFEASIBLE
    assert (tmp_path / "o" / "run_summary.json").exists()  # reports still written


def test_simulate_rejects_bad_config(tmp_path):
    net = tmp_path / "net.json"
    cfg = tmp_path / "cfg.json"
    main(["generate", "--preset", "grid", "--seed", "1", "--out", str(net)])
    cfg.write_text('{"stepz": 3}')
    code = main(["simulate", "--network", str(net), "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION


def test_generate_rejects_negative_seed(tmp_path, capsys):
    net = tmp_path / "net.json"
    assert main(["generate", "--preset", "grid", "--seed", "-1", "--out", str(net)]) == EXIT_VALIDATION
    assert "invalid input: seed must be nonnegative" in capsys.readouterr().err
    assert not net.exists()


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    net = tmp_path / "net.json"
    cfg = tmp_path / "cfg.json"
    main(["generate", "--preset", "grid", "--seed", "1", "--out", str(net)])
    cfg.write_text('{"seed": -1}')
    code = main(["simulate", "--network", str(net), "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "invalid input: $: seed must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
