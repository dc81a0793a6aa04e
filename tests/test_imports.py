"""Every name a package module imports from a sibling module is used there,
every public name has a caller outside the tests, every definition of the
package is read by the code the system runs, the README's library tour
runs, and importing the package stays free of the modules that generate
code."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import modext
from modext.algebra import IntPolynomial

PACKAGE = Path(modext.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# perfbench/trace.py patches the raw rank-equation scan under this name in
# every module that binds it, so joins binds it without calling it.
UNUSED_ON_PURPOSE = {("joins.py", "violating_flat_in_context")}
README = Path(__file__).resolve().parents[1] / "README.md"
# Definitions that no package module, the CLI or perfbench/ reads yet, and
# why each stays; a method is named with its class.  Item numbers are
# ROADMAP.md's.
KEPT_WITHOUT_CALLER = (
    ("bias_simplicial_vertices", "lattice-free chain certificates, item 2(b)"),
    ("link_simplicial_vertices", "lattice-free chain certificates, item 2(b)"),
    ("is_divisional_atom", "the property test on generated joins, item 5(b)"),
    ("join_divisional_lift_check", "the property test on generated joins, item 5(b)"),
    ("stanley_division_check", "divisional's only use of violating_flat_in_context, "
                               "which perfbench/trace.py patches there"),
    ("Arrangement.essentialize", "documented in README.md"),
    ("Field.sub", "field arithmetic that the reference row rank, tests/oracles.py "
                  "field_rank, uses"),
    ("IntPolynomial.t", "the polynomial t, one of the IntPolynomial constructors"),
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


def _names_read(tree, strings=False) -> tuple:
    """(bare, attributes): the bare names a syntax tree reads, with every
    attribute of a chain rooted at `modext`, and the attribute names it
    reads on any object.  An import or an assignment only binds.  With
    `strings`, an identifier string counts as both, as getattr and setattr
    read it."""
    bare, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id == "modext":
                bare.add(node.attr)
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            bare.add(node.value)
            attributes.add(node.value)
    return bare, attributes


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
            readers.setdefault((where, key), set()).update(_names_read(node)[0])
    home = {name: getattr(modext, name).__module__.rsplit(".", 1)[-1] + ".py"
            for name in modext.__all__}
    uncalled, previous = set(), None
    while previous != uncalled:
        previous = uncalled
        uncalled = {name for name in modext.__all__
                    if not any(name in names for (where, key), names in readers.items()
                               if where != home[name] and key not in previous)}
    assert uncalled == {name for name, _ in KEPT_WITHOUT_CALLER if name in modext.__all__}


def _read_by(trees, strings=False) -> tuple:
    """`_names_read` of several syntax trees, merged."""
    bare, attributes = set(), set()
    for tree in trees:
        more_bare, more_attributes = _names_read(tree, strings)
        bare |= more_bare
        attributes |= more_attributes
    return bare, attributes


def _definitions():
    """(definitions, readers) of the package.  `definitions` maps each
    top-level function and class to 0, and each method other than a
    dunder, as `Class.method`, to 1: the index of the `_names_read` set
    that reads it.  `readers` maps each definition, each module's other
    top-level statements (the file name) and perfbench/ to what it reads;
    a class reads what its dunders and class-level statements read."""
    definitions, readers = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        body = ast.parse(path.read_text(encoding="utf-8")).body
        defs = [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        readers[path.name] = _read_by(node for node in body if node not in defs)
        for node in defs:
            definitions[node.name] = 0
            parts = [node]
            if isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, ast.FunctionDef)
                           and not (item.name.startswith("__") and item.name.endswith("__"))]
                for item in methods:
                    definitions[f"{node.name}.{item.name}"] = 1
                    readers[f"{node.name}.{item.name}"] = _names_read(item)
                parts = node.bases + node.decorator_list + [
                    item for item in node.body if item not in methods]
            readers[node.name] = _read_by(parts)
    readers["perfbench"] = _read_by(
        (ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PERFBENCH.glob("*.py"))),
        strings=True)
    return definitions, readers


def test_every_definition_is_read_by_the_system():
    # a definition must be read by name by another definition of the
    # package, a module's top-level statements or perfbench/; a reader
    # that is itself unread does not count, so code only an unread
    # definition reaches is unread too, but a kept definition does count
    definitions, readers = _definitions()
    kept = {name for name, _ in KEPT_WITHOUT_CALLER}
    assert kept <= set(definitions)
    unread, previous = set(), None
    while previous != unread:
        previous = unread
        dead = previous - kept
        unread = {key for key, kind in definitions.items()
                  if not any(key.rsplit(".", 1)[-1] in reads[kind]
                             for reader, reads in readers.items()
                             if reader != key and reader not in dead)}
    assert unread == kept


def test_readme_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", text, re.S).group(1)
    tour = {}
    exec(compile(block, str(README), "exec"), tour)
    # the facts its comments state
    assert tour["lat"].charpoly() == IntPolynomial.from_roots([1, 2, 3])
    assert tour["verify_certificate"](tour["m"], tour["cert"]).ok


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
