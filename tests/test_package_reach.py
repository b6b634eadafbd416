"""Every top-level function and class, every method and every import in
the package is one a run can reach.

Code only the tests call belongs in ``tests/reference.py``.  The scan is
syntactic and matches names by spelling in any module, so it errs towards
reachable.  Its roots are the names ``flowladder/__init__.py`` imports,
``main`` (the CLI), every name module-level code reads (tables such as
``domains._RENDER``), and every attribute name or string in
``perfbench/*.py``, which wraps and calls package functions by name.  From
each reached definition it follows the names and attributes it reads.  A
class reaches its dunder methods, which Python calls for it; any other
method is reached only where its name is read.  An import, outside
``__init__.py``, must be read somewhere in its module.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flowladder"
BENCH = ROOT / "perfbench"


def _names_read(node) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _is_method(stmt) -> bool:
    return (isinstance(stmt, ast.FunctionDef)
            and not (stmt.name.startswith("__") and stmt.name.endswith("__")))


def _reads(node) -> set[str]:
    """Names a definition reads; a class's methods read on their own."""
    if not isinstance(node, ast.ClassDef):
        return _names_read(node)
    parts = node.bases + node.keywords + node.decorator_list
    parts += [s for s in node.body if not _is_method(s)]
    return set().union(*map(_names_read, parts))


def unreached() -> list[str]:
    defs = {}   # name -> [(dotted name, def node)]
    roots = {"main"}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((f"{mod}.{stmt.name}", stmt))
                if isinstance(stmt, ast.ClassDef):
                    for m in filter(_is_method, stmt.body):
                        defs.setdefault(m.name, []).append(
                            (f"{mod}.{stmt.name}.{m.name}", m))
            elif isinstance(stmt, ast.ImportFrom):
                if path.name == "__init__.py":
                    roots.update(a.asname or a.name for a in stmt.names)
                elif stmt.module != "__future__":
                    imported += [a.asname or a.name for a in stmt.names]
            elif isinstance(stmt, ast.Import):
                imported += [a.asname or a.name.partition(".")[0]
                             for a in stmt.names]
            else:
                roots |= _names_read(stmt)
        read = _names_read(tree)
        unread += [f"{mod}.{name} (import)" for name in imported
                   if name not in read]
    for path in sorted(BENCH.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Attribute):
                roots.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                roots.add(n.value)
    reached = set()
    work = [name for name in roots if name in defs]
    while work:
        name = work.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in defs[name]:
            work.extend(n for n in _reads(node)
                        if n in defs and n not in reached)
    return sorted([dotted for name, found in defs.items()
                   if name not in reached for dotted, _ in found] + unread)


def test_every_package_definition_is_reachable_from_a_run():
    missing = unreached()
    assert not missing, "no run reaches " + ", ".join(missing)
