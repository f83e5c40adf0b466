"""Source hygiene: every name a module imports is used in that module,
every private module-level name is read somewhere in the package, every
name the package exports is read by the program or documented, and one
check decides whether a word is over 0/1.

``__init__.py`` is skipped by the import check, since its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import uilkit

PACKAGE = sorted(Path(uilkit.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
BENCH = sorted((Path(uilkit.__file__).parents[2] / "bench").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    src = ("from . import verdicts as V\nimport os, sys\n"
           "from a import b\nsys.exit(b)\n")
    assert unused_imports(src) == [(1, "V"), (2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == [], path.name


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _bound(stmt) -> set:
    """Names a module-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def orphaned_private_names(sources: dict) -> list:
    """(module, name) of each private module-level function, class or
    constant of ``sources`` (module name -> source) that no statement reads
    but the one that binds it.  A read of a bare name is the reading
    module's own name, or the one it imported from a sibling module
    (``from .b import _x``); ``M._x`` reads ``_x`` of the module imported
    as ``M`` (``from . import b as M``)."""
    defined, reads = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        origin, aliases = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if node.module:
                        origin[name] = (node.module, alias.name)
                    else:
                        aliases[name] = alias.name
        for stmt in tree.body:
            bound = _bound(stmt)
            defined |= {(module, name) for name in bound if _private(name)}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id not in bound \
                        and isinstance(node.ctx, ast.Load):
                    reads.add(origin.get(node.id, (module, node.id)))
                elif isinstance(node, ast.Attribute) and \
                        isinstance(node.value, ast.Name) and \
                        node.value.id in aliases:
                    reads.add((aliases[node.value.id], node.attr))
    return sorted(defined - reads)


def test_orphaned_private_names_are_found():
    sources = {
        "a": ("from .b import _used\nfrom . import c as C\n"
              "_KEPT, _LOST = 1, 2\n"
              "def _rec(n):\n    return _rec(n - 1) + _KEPT + _used + C._x\n"),
        "b": "def _used():\n    pass\nclass _Spare:\n    pass\n",
        "c": "_x = 0\n_y: int = _x\n",
    }
    assert orphaned_private_names(sources) == [
        ("a", "_LOST"), ("a", "_rec"), ("b", "_Spare"), ("c", "_y")]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert orphaned_private_names(sources) == []


def unread_exports(init_source: str, sources) -> list:
    """Names that ``init_source`` re-exports from sibling modules and that
    no statement of ``sources`` reads but the one that binds it.  A read is
    a loaded bare name or a loaded attribute of that name."""
    exported = {alias.asname or alias.name
                for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    reads = set()
    for source in sources:
        for stmt in ast.parse(source).body:
            bound = _bound(stmt)
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name not in bound and \
                        isinstance(getattr(node, "ctx", None), ast.Load):
                    reads.add(name)
    return sorted(exported - reads)


def test_unread_exports_are_found():
    init = ("from .a import f, g, h, k, Spare\nfrom .b import m\n"
            "import os\n")
    sources = ("def f(n):\n    return f(n - 1)\n"
               "def g():\n    return h() + B.m\n"
               "class Spare:\n    def k(self):\n        return Spare\n",
               "x = k\n")
    assert unread_exports(init, sources) == ["Spare", "f", "g"]


def test_every_export_is_read_or_documented():
    # the program is the package, its command line and the benchmark;
    # refine and build_chain have no caller in the program; README
    # documents both
    sources = [p.read_text() for p in MODULES + BENCH
               if not p.name.startswith("test_")]
    init = Path(uilkit.__file__).read_text()
    assert unread_exports(init, sources) == ["build_chain", "refine"]


def _alphabet_literal(node) -> bool:
    """The 0/1 alphabet written out: "01" or "10", or the set {"0", "1"}."""
    if isinstance(node, ast.Constant):
        return node.value in ("01", "10")
    return isinstance(node, ast.Set) and all(
        isinstance(e, ast.Constant) for e in node.elts) and \
        {e.value for e in node.elts} == {"0", "1"}


def binary_word_checks(source: str) -> list:
    """(line, enclosing function) of each comparison against the 0/1
    alphabet written out, such as ``ch not in "01"`` or
    ``set(w) <= {"0", "1"}``: a check of a word's alphabet by hand."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare) and any(
                    map(_alphabet_literal, [child.left, *child.comparators])):
                found.append((child.lineno, function))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(source), None)
    return found


def test_binary_word_checks_are_found():
    src = ('def parse_dotted(t):\n    return [c in "01" for c in t]\n'
           'def f(w):\n    return set(w) <= {"1", "0"}\n'
           'class K:\n    def g(self, w):\n'
           '        return any(ch not in "10" for ch in w)\n'
           'ok = w in ("01", "10") or "0" in w or {"0"} <= set(w)\n')
    assert binary_word_checks(src) == [(2, "parse_dotted"), (4, "f"),
                                       (7, "g")]


def test_one_check_for_a_binary_word():
    # scalars._BINARY is the check; parse_dotted's loop reads the symbols
    # one by one, since it finds the dots and names the bad character
    found = [(p.name, function) for p in PACKAGE
             for _, function in binary_word_checks(p.read_text())]
    assert found == [("kneading.py", "parse_dotted")]


# Entry points that take one checked context (a precritical table, or the
# cutting data that carry their word): a mismatch between the inputs they
# read cannot be expressed, so they read no gate and raise no mismatch text.
CONTEXT_ENTRY_POINTS = ("build_chain", "classify_chain", "cutting_value_gaps",
                        "f_graph_data", "long_branched_evidence",
                        "emit_dotted", "WordLedger")
GATES = ("orbit_table", "check_word", "_checked")
DELETED_TEXTS = ("an orbit table needs its word's cutting data",
                 "the cutting data belong to another word")


def gate_calls(source: str, names) -> list:
    """(definition, gate) for each call of a gate inside the function or
    class definitions of ``source`` named in ``names``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.name in names:
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    f = call.func
                    name = f.id if isinstance(f, ast.Name) else \
                        f.attr if isinstance(f, ast.Attribute) else None
                    if name in GATES:
                        found.append((node.name, name))
    return found


def test_gate_calls_are_found():
    src = ("def build_chain(zp):\n    orbit_table(zp.slope, zp.orbit)\n"
           "class WordLedger:\n    def f(self, kd):\n"
           "        return _checked(kd, self.nu).S\n"
           "def other(t, nu):\n    t.check_word(nu)\n")
    assert gate_calls(src, CONTEXT_ENTRY_POINTS) == [
        ("build_chain", "orbit_table"), ("WordLedger", "_checked")]


def test_context_entry_points_read_no_gate():
    found = [(p.name, hit) for p in PACKAGE
             for hit in gate_calls(p.read_text(), CONTEXT_ENTRY_POINTS)]
    assert found == []


def test_deleted_mismatch_texts_have_no_raise_site():
    texts = [(p.name, node.value) for p in PACKAGE
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and any(t in node.value for t in DELETED_TEXTS)]
    assert texts == []
