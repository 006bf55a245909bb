"""Every module-level function and class in ``src/wittram`` is used there.

``src/`` holds what ``wittram`` runs; a helper that only tests need lives in
``tests/oracles.py``.  A definition counts as used when a ``Name`` or
``Attribute`` node somewhere in ``src/wittram``, outside the definition
itself, spells its name.  Imports, docstrings and comments do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wittram"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: defined in src/ but referenced nowhere there: functions that only tests
#: call.  The benchmark tracer (wittbench/tracer.py) wraps them and raises
#: when no module binds them, so they stay until its metrics for them are
#: dropped.  (``cli.main`` needs no entry: the ``__main__`` guard calls it.)
ALLOWED = {"witt.evaluate_poly", "witt.witt_add", "linalg.quotient_invariants"}


def unreferenced(sources: dict) -> set:
    """``module.name`` of each module-level function or class in
    ``sources`` (module name -> source text) that no other top-level
    statement of any module spells."""
    uses = []
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            uses.append((module, stmt, names))
    return {f"{module}.{stmt.name}" for module, stmt, _ in uses
            if isinstance(stmt, DEFINITIONS)
            and not any(stmt.name in names for _, other, names in uses if other is not stmt)}


def test_every_source_definition_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unreferenced(sources) == ALLOWED


def test_docstrings_imports_and_self_calls_are_not_references():
    sources = {
        "a": ("def used():\n"
              "    return helper()\n"
              "\n"
              "def helper():\n"
              '    """Unlike ``lonely``."""\n'
              "\n"
              "def lonely(n):\n"
              "    return lonely(n - 1) if n else 0\n"),
        "b": ("from a import lonely\n"
              "import a\n"
              "\n"
              "class Shape:\n"
              '    """Calls ``a.lonely``."""\n'
              "\n"
              "print(a.used)\n"),
    }
    assert unreferenced(sources) == {"a.lonely", "b.Shape"}
