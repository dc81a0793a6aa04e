"""Every name a package module imports from a sibling module is used there,
and importing the package stays free of the modules that generate code."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import modext

PACKAGE = Path(modext.__file__).parent
# perfbench/trace.py patches the raw rank-equation scan under this name in
# every module that binds it, so joins binds it without calling it.
UNUSED_ON_PURPOSE = {("joins.py", "violating_flat_in_context")}


def test_relative_imports_are_used():
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                unused |= {(path.name, alias.asname or alias.name) for alias in node.names
                           if (alias.asname or alias.name) not in used}
    assert unused - UNUSED_ON_PURPOSE == set()


def test_import_loads_no_code_generation():
    # dataclasses compiles the methods of every decorated class at each
    # import and pulls in inspect; the records are plain classes instead
    probe = ("import sys, modext, modext.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_imports_dataclasses():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found |= {path.name for name in names if name.split(".")[0] == "dataclasses"}
    assert found == set()
