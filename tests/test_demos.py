"""Every walkthrough in demos/ and the README quickstart runs, and the package
root exports exactly the documented names."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import revca

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


ROOT_API = {
    "FrontierClosure", "NodeClass", "ResourceLimitError", "Rule",
    "child", "decide", "decide_range", "edge_label",
    "infinite_injective", "oracle_is_reversible", "pair_graph", "parse_rule",
    "sample_strategy",
}


def test_root_exports_only_the_documented_names():
    assert sorted(revca.__all__) == sorted(ROOT_API)


def test_root_names_are_their_modules_objects():
    for name in revca.__all__:
        obj = getattr(revca, name)
        assert obj.__module__.startswith("revca."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert revca.decide is revca.decider.decide


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from revca import" in block
    exec(compile(block, "README.md quickstart", "exec"), {})
