"""Demo scripts: every name they import from the package exists, and the
quick ones run to completion. The benchmark's and the tools' scripts that
import from the package are import-checked too."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# 05 trains for 300 steps (about a minute), so it is only import-checked
QUICK = [p for p in DEMOS if not p.name.startswith("05_")]


def _package_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each ``from s2moe... import name`` in a script."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "s2moe"
            for alias in node.names]


SCRIPTS = [p for folder in ("perfbench", "tools") for p in sorted((ROOT / folder).glob("*.py"))
           if _package_imports(p)]


def test_demos_found():
    assert len(DEMOS) == 6 and len(QUICK) == 5
    assert {"perfbench/inputs.py", "perfbench/workload.py", "tools/parity.py"} <= \
        {p.relative_to(ROOT).as_posix() for p in SCRIPTS}


@pytest.mark.parametrize("path", DEMOS + SCRIPTS,
                         ids=lambda p: p.stem if p.parent.name == "demos" else f"{p.parent.name}.{p.stem}")
def test_demo_imports_resolve(path):
    """Each imported name is an attribute of its module other than a
    submodule: once ``s2moe.train`` is imported anywhere, it would stand in
    for a missing ``train`` re-export."""
    imports = _package_imports(path)
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if isinstance(getattr(importlib.import_module(module), name, None), (types.ModuleType, type(None)))]
    assert not missing, missing


@pytest.mark.parametrize("path", QUICK, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
