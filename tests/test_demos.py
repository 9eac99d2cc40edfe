"""The demos under demos/ still run against this source tree.

The quick demos run as scripts.  demo_equivalence takes about half a
minute, so it is only parsed, and every name it imports from relalg is
looked up.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("demo", ["demo_rainbow", "demo_network_game", "demo_seurat"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_demo_equivalence_imports_exist():
    tree = ast.parse((DEMOS / "demo_equivalence.py").read_text())
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("relalg")
        for alias in node.names
    ]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
