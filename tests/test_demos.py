"""Demo scripts: every name they import from the package exists, and the
quick ones run to completion."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# 05 trains for 300 steps (about a minute), so it is only import-checked
QUICK = [p for p in DEMOS if not p.name.startswith("05_")]


def _package_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each ``from s2moe... import name`` in a demo."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "s2moe"
            for alias in node.names]


def test_demos_found():
    assert len(DEMOS) == 6 and len(QUICK) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    imports = _package_imports(path)
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing


@pytest.mark.parametrize("path", QUICK, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
