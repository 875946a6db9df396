"""noirsim: traffic-density simulation and receding-horizon boundary-flow
control on directed road networks.

The package exports the API that the README documents; everything else is
reached through its module (``noirsim.graph``, ``noirsim.mpc``, ...).
"""

__version__ = "0.1.0"

from .dynamics import (
    TrafficState,
    assemble_input_matrix,
    assemble_state_matrix,
    sample_matrices,
    step,
)
from .formats import (
    FormatError,
    document_from_graph,
    graph_from_document,
    parse_network,
    serialize_network,
)
from .graph import GraphBuildError, NoirGraph, validate_structure
from .harness import SimConfig, generate_grid_noir, philadelphia_noir, run_simulation
from .mpc import MpcConfig, control_step
from .qp import QpProblem, SolveStatus, kkt_residuals, solve_qp

__all__ = [
    "__version__",
    "FormatError",
    "GraphBuildError",
    "MpcConfig",
    "NoirGraph",
    "QpProblem",
    "SimConfig",
    "SolveStatus",
    "TrafficState",
    "assemble_input_matrix",
    "assemble_state_matrix",
    "control_step",
    "document_from_graph",
    "generate_grid_noir",
    "graph_from_document",
    "kkt_residuals",
    "parse_network",
    "philadelphia_noir",
    "run_simulation",
    "sample_matrices",
    "serialize_network",
    "solve_qp",
    "step",
    "validate_structure",
]
