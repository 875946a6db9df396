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


def test_package_runs_without_scipy(tmp_path):
    # A fresh process, since the tests themselves import scipy as an oracle,
    # in which any scipy import raises. The CLI's main generates the
    # philadelphia preset and simulates the binding case from a config file
    # (d0=1000, 40 steps, 16 of them infeasible, so it exits with 2). That
    # run reaches phase one, which the solver runs on its own active-set
    # method and factors with numpy.linalg, and its state matrices are the
    # package's own sparse type; no scipy module is loaded on the way.
    (tmp_path / "cfg.json").write_text('{"seed": 1, "d0": 1000, "steps": 40}')
    code = """
import sys
sys.modules["scipy"] = None
import noirsim.qp as qp
from noirsim.cli import main
calls, linprog = [], qp.linprog
def counting_linprog(*args, **kwargs):
    calls.append(args)
    return linprog(*args, **kwargs)
qp.linprog = counting_linprog
main(["generate", "--preset", "philadelphia", "--seed", "1", "--out", "net.json"])
rc = main(["simulate", "--network", "net.json", "--config", "cfg.json", "--out", "out"])
loaded = [name for name, module in sys.modules.items() if module and name.split(".")[0] == "scipy"]
print(rc, len(calls), *loaded)
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    rc, calls, *loaded = run.stdout.splitlines()[-1].split()
    assert int(rc) == 2 and "16 steps were infeasible" in run.stderr
    assert int(calls) >= 1
    assert loaded == []
