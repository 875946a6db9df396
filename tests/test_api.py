import os
import re
import subprocess
import sys
from pathlib import Path

import noirsim

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_readme_library_example_runs_as_written(capsys):
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["state"].step == 10
    assert len(capsys.readouterr().out.split()) == 2  # sum_u and sum_v


def test_every_exported_name_resolves_and_is_documented():
    readme = README.read_text(encoding="utf-8")
    assert len(set(noirsim.__all__)) == len(noirsim.__all__)
    for name in noirsim.__all__:
        assert getattr(noirsim, name) is not None, name
        assert re.search(rf"\b{name}\b", readme), name


def test_phase_one_leaves_scipy_linalg_and_optimize_unimported():
    # A fresh process, since the tests themselves import scipy.optimize as an
    # oracle. The binding run (philadelphia, d0=1000, 40 steps) reaches phase
    # one, which the solver runs on its own active-set method, and factors
    # with numpy.linalg: neither the package nor the run imports scipy.linalg
    # (a second LAPACK in the process) or scipy.optimize.
    code = """
import sys
import noirsim.qp as qp
from noirsim import SimConfig, run_simulation
from noirsim.harness import philadelphia_noir
calls, linprog = [], qp.linprog
def counting_linprog(*args, **kwargs):
    calls.append(args)
    return linprog(*args, **kwargs)
qp.linprog = counting_linprog
run_simulation(philadelphia_noir(seed=1), SimConfig(seed=1, d0=1000, steps=40))
print(len(calls), "scipy.linalg" in sys.modules, "scipy.optimize" in sys.modules)
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    calls, *imported = run.stdout.split()
    assert int(calls) >= 1
    assert imported == ["False", "False"]
