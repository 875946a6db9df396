"""Time what ``noirsim simulate`` pays before its first step, in a fresh process.

    python3 benchmarks/setup_probe.py NETWORK_FILE

Imports noirsim, parses the network bytes, builds the graph and validates it,
then prints the elapsed seconds. ``run.py`` starts this several times per run
and reports the median as ``setup_s``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import noirsim  # noqa: E402


def main() -> int:
    data = Path(sys.argv[1]).read_bytes()
    graph = noirsim.graph_from_document(noirsim.parse_network(data))
    if not noirsim.validate_structure(graph).all_passed:
        print("network fails structural validation", file=sys.stderr)
        return 1
    print(repr(time.perf_counter() - START))
    return 0


if __name__ == "__main__":
    sys.exit(main())
