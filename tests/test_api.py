import re
from pathlib import Path

import noirsim

README = Path(__file__).resolve().parents[1] / "README.md"


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
