"""Every name a package module imports from a sibling module is used there,
every public name has a caller outside the tests, every definition and
every stored attribute of the package is read by the code the system runs
and every function and method is entered by it, the README's library tour
runs, and importing the package stays free of the modules that generate
code."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

import modext  # noqa: E402
from modext import cli  # noqa: E402
from modext.algebra import IntPolynomial  # noqa: E402
from modext.lattice import FlatLattice  # noqa: E402
from perfbench import inputs, job  # noqa: E402

from test_golden import golden_lines  # noqa: E402

PACKAGE = Path(modext.__file__).parent
PERFBENCH = Path(ROOT) / "perfbench"
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
)
# Functions and methods that perfbench/ reads by name but the system's
# traffic (`_run_the_system`) never enters, and why each stays.
KEPT_UNENTERED = (
    ("FlatLattice.mobius", "documented in README.md, and perfbench/trace.py patches it "
                           "by name"),
)
# Functions and methods that the system's traffic (`_run_the_system`) enters
# only on a broken certificate or input, and why each stays.
ERROR_PATHS = (
    ("_not_modular", "the verifier's report of a flat that fails modularity in its "
                     "context, which no genuine or tampered certificate of the traffic has"),
    ("NotSimple.__init__", "the error of a constructor given zero, rank-0 or parallel "
                           "atoms, which no input of the traffic has"),
    ("IdentityViolation.__init__", "the error of a join whose charpolys break "
                                   "Brylawski's identity, which no join of the traffic does"),
)
# Dunders that the traffic may leave unentered, by kind (the classes a kind
# is limited to, or None for every class), and why each kind stays.
UNENTERED_DUNDERS = (
    (("__repr__",), None, "diagnostics"),
    (("__setattr__", "__delattr__"), None, "immutability, which is safety code"),
    (("__eq__", "__hash__"), ("Frozen", "IntPolynomial", "Field", "FieldMatrix"),
     "the value contract of the immutable types, which README.md documents"),
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


def _is_dunder(key) -> bool:
    """Whether a name, or the method of a `Class.method` key, is a dunder."""
    name = key.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(definitions, readers) of the package.  `definitions` maps each
    top-level function and class to 0, and each method other than a
    dunder, as `Class.method`, to 1: the index of the `_names_read` set
    that reads it.  `readers` maps each definition, each dunder (as
    `Class.__name__`), each module's other top-level statements (the file
    name) and perfbench/ to what it reads; a class reads what its bases,
    decorators and class-level statements read."""
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
                functions = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                for item in functions:
                    readers[f"{node.name}.{item.name}"] = _names_read(item)
                    if not _is_dunder(item.name):
                        definitions[f"{node.name}.{item.name}"] = 1
                parts = node.bases + node.decorator_list + [
                    item for item in node.body if item not in functions]
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


def _stored_attributes() -> dict:
    """Each attribute the package stores, as `Owner.attr` (the top-level
    class or function around the store, else the module's file name),
    mapped to the attribute name.  A store is `x.attr = ...` (augmented
    too), a field a record writes by `self.__dict__.update(attr=...)`, or
    `object.__setattr__(self, "attr", ...)`."""
    stored = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else path.name
            for node in ast.walk(top):
                names = []
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    names = [node.attr]
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    target = node.func.value
                    if (node.func.attr == "update" and isinstance(target, ast.Attribute)
                            and target.attr == "__dict__"):
                        names = [keyword.arg for keyword in node.keywords]
                    elif (node.func.attr == "__setattr__" and isinstance(target, ast.Name)
                          and target.id == "object"):
                        names = [node.args[1].value]
                stored.update((f"{owner}.{name}", name) for name in names)
    return stored


def _attributes_loaded(trees, strings=False) -> set:
    """The attribute names that syntax trees load; with `strings`, their
    identifier strings too, as getattr and setattr read them."""
    loaded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                loaded.add(node.value)
    return loaded


def test_every_stored_attribute_is_read_by_the_system():
    # the guards above see names and entries, not state: an attribute the
    # package stores must be loaded by name in the package or perfbench/;
    # the generic Frozen dunders read fields through `__dict__`, not by
    # name, and the tests and tools/ do not count
    stored = _stored_attributes()
    assert {"IntPolynomial.coeffs", "GainEdge.gain", "Arrangement.forms"} <= set(stored)
    loaded = _attributes_loaded(ast.parse(path.read_text(encoding="utf-8"))
                                for path in sorted(PACKAGE.glob("*.py")))
    loaded |= _attributes_loaded((ast.parse(path.read_text(encoding="utf-8"))
                                  for path in sorted(PERFBENCH.glob("*.py"))), strings=True)
    assert sorted(key for key, name in stored.items() if name not in loaded) == []


def _definition_codes() -> tuple:
    """(codes, classes): the code object of each function and method of
    the package, dunders too, keyed as `_definitions()` keys its readers,
    and the names of its classes."""
    codes, classes = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name.startswith("__"):
            continue  # __main__ would run the CLI
        module = importlib.import_module(f"modext.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                classes.add(name)
                for attr, member in vars(obj).items():
                    # a property's getter, a classmethod's or staticmethod's function
                    member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                    if hasattr(member, "__code__"):
                        codes[f"{name}.{attr}"] = member.__code__
            elif hasattr(obj, "__code__"):
                codes[name] = getattr(obj, "__wrapped__", obj).__code__
    return codes, classes


def _run_the_system(tmp_path, capsys):
    """What the system runs, in process: each module's top-level statements
    (the package's import, run again in a fresh namespace), the golden CLI
    reports, `modext` on a JSON file of each input kind, `verify` of a
    certificate of each kind, `realize` of both models, and the benchmark's
    census at seed 1, checked simple and certified with tampering."""
    def run(*argv):
        assert cli.main(list(argv)) == 0, capsys.readouterr().err
        return json.loads(capsys.readouterr().out)["result"]

    for path in sorted(PACKAGE.glob("*.py")):
        if not path.name.startswith("__"):
            code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
            exec(code, {"__name__": f"modext._{path.stem}", "__package__": "modext"})
    for _ in golden_lines():
        pass
    files = {  # each input kind, with its atom count
        "arrangement": ({"field": {"kind": "rational"}, "dim": 3,
                         "forms": [[1, 0, 0], [0, 1, 0], ["1/2", "-1", 0], [0, 1, 1]]}, 4),
        "linear": ({"type": "linear", "field": {"kind": "gf", "p": 3},
                    "matrix": [[1, 0, 1, 1], [0, 1, 1, 2]]}, 4),
        "graph": ({"type": "graph", "vertices": 4,
                   "edges": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2]]}, 5),
        "gain": ({"vertices": 3, "group": {"kind": "sign"},
                  "edges": [[0, 1, "+1"], [0, 1, "-1"], [1, 2, "+1"]]}, 3),
    }
    for kind, (data, atoms) in files.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(data))
        assert run("charpoly", "--input", str(path), "--max-atoms", str(atoms))["atoms"] == atoms
    run("charpoly", "--input", str(tmp_path / "gain.json"), "--model", "lift")
    kinds = set()
    for command, name, key in (("supersolvable", "braid-4", "chain"),
                               ("divflag", "example-13", "flag"),
                               ("me-cert", "example-13", "certificate"),
                               ("me-cert", "pg-2-3", "certificate")):
        cert = run(command, "--input", name)[key]
        kinds |= set(re.findall(r'"kind": "([a-z-]+)"', json.dumps(cert)))
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        assert run("verify", "--input", name, "--certificate", str(path))["ok"]
    assert kinds == {"supersolvable-chain", "divisional-flag", "modular-join",
                     "modular-coatom", "empty"}
    run("realize", "--input", "k-3-z3", "--field", "gf7")
    run("realize", "--input", "bowtie", "--field", "gf2", "--model", "lift")
    api = job.public_api()
    for _, spec in inputs.generate("census", 1):
        inputs.build(spec).check_simple()
        assert not job.certify(inputs.build(spec), api, True).failures


def test_every_function_is_entered_by_the_system(tmp_path, capsys):
    # the name guard above cannot see a method whose name a live definition
    # also reads, nor a dunder, which Python's protocols call without
    # naming it; a call trace can: every function and method, dunders too,
    # must be entered by the system's traffic, be kept, an error path or a
    # dunder of an allowed kind, or be read by name only by such allowed
    # definitions
    codes, classes = _definition_codes()
    definitions, readers = _definitions()
    assert set(definitions) == {key for key in codes if not _is_dunder(key)} | classes
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _run_the_system(tmp_path, capsys)
    finally:
        sys.setprofile(None)
    allowed = {name for name, _ in KEPT_WITHOUT_CALLER + KEPT_UNENTERED + ERROR_PATHS}
    assert allowed <= set(codes)
    assert {owner for _, among, _ in UNENTERED_DUNDERS for owner in among or ()} <= classes
    # a function is the same definition in the fresh namespaces, where
    # it has a code object of its own
    entered = {(code.co_filename, code.co_firstlineno) for code in entered}
    unentered = {key for key, code in codes.items()
                 if (code.co_filename, code.co_firstlineno) not in entered}
    assert {name for name, _ in ERROR_PATHS + KEPT_UNENTERED} <= unentered
    allowed |= {key for key in unentered for names, among, _ in UNENTERED_DUNDERS
                if key.rsplit(".", 1)[-1] in names
                and (among is None or key.split(".")[0] in among)}
    while True:
        excused = set()
        for key in unentered - allowed:
            name = key.rsplit(".", 1)[-1]
            by = {reader for reader, reads in readers.items()
                  if reader != key and name in reads[definitions.get(key, 1)]}
            if by and by <= allowed:
                excused.add(key)
        if not excused:
            break
        allowed |= excused
    assert sorted(unentered - allowed) == []


def test_readme_library_tour_runs(monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", text, re.S).group(1)
    built = []
    init = FlatLattice.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(FlatLattice, "__init__", counted)
    tour = {}
    exec(compile(block, str(README), "exec"), tour)
    # one lattice for its one matroid, which every call reads
    assert built == [tour["lat"]]
    # the facts its comments state
    assert tour["lat"].charpoly() == IntPolynomial.from_roots([1, 2, 3])
    assert tour["is_modular_flat"](tour["m"], 0b100001, lattice=tour["lat"]) is False
    assert tour["verify_certificate"](tour["m"], tour["cert"], lattice=tour["lat"]).ok


def test_only_the_lattice_reads_the_atom_index():
    # `FlatLattice.avoiding` is the one reader of the per-level atom index
    # outside enumeration, so a change of its layout stays in lattice.py
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if "atom_index" in _names_read(tree, strings=True)[1]:
            readers.add(path.name)
    assert readers == {"lattice.py"}


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
