"""Command-line interface: generate networks, validate them, run experiments.

Exit codes: 0 success, 1 validation failure, 2 solver infeasibility without
a feasible fallback, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .formats import (
    document_from_graph,
    graph_from_document,
    parse_network,
    parse_sim_config,
    serialize_network,
)
from .graph import validate_structure
from .harness import (
    GRID_PRESET,
    PHILADELPHIA_PRESET,
    SimConfig,
    emit_report,
    generate_grid_noir,
    run_simulation,
)
from .qp import SolveStatus

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3

PRESETS = {"grid": GRID_PRESET, "philadelphia": PHILADELPHIA_PRESET}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noirsim",
        description="Traffic-density simulation and boundary-flow control on road networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic network file")
    gen.add_argument("--preset", choices=sorted(PRESETS), required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output network file")

    val = sub.add_parser("validate", help="check the structural conditions of a network")
    val.add_argument("network", help="network file to validate")

    sim = sub.add_parser("simulate", help="run a closed-loop experiment")
    sim.add_argument("--network", required=True)
    sim.add_argument("--config", default=None, help="config file (defaults apply if omitted)")
    sim.add_argument("--out", required=True, help="output directory for reports")

    return parser


def _load_graph(path_str: str):
    data = Path(path_str).read_bytes()
    return graph_from_document(parse_network(data))


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        graph = generate_grid_noir(seed=args.seed, **PRESETS[args.preset])
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    payload = serialize_network(document_from_graph(graph))
    Path(args.out).write_bytes(payload)
    print(f"wrote {args.preset} network ({graph.n_total} elements) to {args.out}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        graph = _load_graph(args.network)
    except ValueError as exc:  # FormatError and GraphBuildError among them
        print(f"invalid network: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report = validate_structure(graph)
    for name, result in report.items():
        line = f"{name}: {'pass' if result.passed else 'FAIL'}"
        if result.offenders:
            line += f" (nodes {', '.join(map(str, result.offenders[:10]))}"
            line += ", ..." if len(result.offenders) > 10 else ""
            line += ")"
        print(line)
    return EXIT_OK if report.all_passed else EXIT_VALIDATION


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        graph = _load_graph(args.network)
        if args.config is None:
            config = SimConfig()
        else:
            config = parse_sim_config(Path(args.config).read_bytes())
        log = run_simulation(graph, config)
    except ValueError as exc:  # FormatError and GraphBuildError among them
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    paths = emit_report(log, args.out)
    infeasible = sum(1 for rec in log.records if rec.status == SolveStatus.INFEASIBLE.value)
    last = log.records[-1]
    print(
        f"ran {len(log.records)} steps; final inflow {last.sum_u:.3f}, "
        f"outflow {last.sum_v:.3f}; reports in {paths['run_summary'].parent}"
    )
    if infeasible:
        print(f"{infeasible} steps were infeasible with no feasible fallback", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
