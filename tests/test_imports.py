"""Every name a package module imports from a sibling module is used there."""

import ast
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
