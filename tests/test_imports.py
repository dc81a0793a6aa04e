"""Every name a package module imports from a sibling module is used there,
every public name has a caller outside the tests, and importing the
package stays free of the modules that generate code."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import modext

PACKAGE = Path(modext.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# perfbench/trace.py patches the raw rank-equation scan under this name in
# every module that binds it, so joins binds it without calling it.
UNUSED_ON_PURPOSE = {("joins.py", "violating_flat_in_context")}
# Public names that no package module, the CLI or perfbench/ calls yet, and
# why each stays; item numbers are ROADMAP.md's.
KEPT_WITHOUT_CALLER = (
    ("bias_simplicial_vertices", "lattice-free chain certificates, item 1(b)"),
    ("link_simplicial_vertices", "lattice-free chain certificates, item 1(b)"),
    ("is_divisional_atom", "the property test on generated joins, item 5(b)"),
    ("stanley_division_check", "divisional's only use of violating_flat_in_context, "
                               "which perfbench/trace.py patches there"),
)


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


def _names_read(tree) -> set:
    """Every bare name and `modext.<name>` a syntax tree reads; an import
    only binds, and an attribute of any other object is not the package's
    name, even when a method shares it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "modext"):
            names.add(node.attr)
    return names


def test_public_names_have_a_caller_outside_the_tests():
    # a name in __all__ must be read by the CLI, another package module or
    # perfbench/, not only by the module that defines it and the tests; a
    # reader that is itself an uncalled public name does not count, so a
    # name read only by such a function is uncalled too
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted(PERFBENCH.glob("*.py"))
    assert PERFBENCH / "job.py" in sources
    readers = {}    # (file, top-level def or None) -> the names it reads
    for path in sources:
        where = path.name if path.parent == PACKAGE else "perfbench"
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            key = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            readers.setdefault((where, key), set()).update(_names_read(node))
    home = {name: getattr(modext, name).__module__.rsplit(".", 1)[-1] + ".py"
            for name in modext.__all__}
    uncalled, previous = set(), None
    while previous != uncalled:
        previous = uncalled
        uncalled = {name for name in modext.__all__
                    if not any(name in names for (where, key), names in readers.items()
                               if where != home[name] and key not in previous)}
    assert uncalled == {name for name, _ in KEPT_WITHOUT_CALLER}


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
