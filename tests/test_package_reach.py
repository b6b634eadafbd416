"""Every top-level function and class in the package is one a run can reach.

Code only the tests call belongs in ``tests/reference.py``.  The scan is
syntactic and matches names by spelling in any module, so it errs towards
reachable.  Its roots are the names ``flowladder/__init__.py`` imports,
``main`` (the CLI), every name module-level code reads (tables such as
``domains._RENDER``), and every attribute name or string in
``perfbench/*.py``, which wraps and calls package functions by name.  From
each reached definition it follows the names and attributes it reads.
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


def unreached() -> list[str]:
    defs = {}   # name -> [(module, def node)]
    roots = {"main"}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((path.stem, stmt))
            elif isinstance(stmt, ast.ImportFrom):
                if path.name == "__init__.py":
                    roots.update(a.asname or a.name for a in stmt.names)
            else:
                roots |= _names_read(stmt)
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
            work.extend(n for n in _names_read(node)
                        if n in defs and n not in reached)
    return sorted(f"{mod}.{name}" for name, found in defs.items()
                  if name not in reached for mod, _ in found)


def test_every_package_definition_is_reachable_from_a_run():
    missing = unreached()
    assert not missing, "no run reaches " + ", ".join(missing)
