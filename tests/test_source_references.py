"""Every function, class, method and property in ``src/wittram`` is used there.

``src/`` holds what ``wittram`` runs; a helper that only tests need lives in
``tests/oracles.py``.  The definitions checked are the module-level
functions and classes and the methods and properties of module-level
classes, dunders left out.  A definition counts as used when a ``Name`` or
``Attribute`` node somewhere in ``src/wittram``, outside the definition
itself, spells its name.  Imports, docstrings and comments do not count.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wittram"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)

#: defined in src/ but referenced nowhere there.  The benchmark tracer
#: (wittbench/tracer.py) wraps the three functions, which only tests call,
#: and raises when no module binds them, so they stay until its metrics for
#: them are dropped; it reads ``SymPoly.num_terms`` as the size of each
#: ``evaluate_poly`` call.  (``cli.main`` needs no entry: the ``__main__``
#: guard calls it.)
ALLOWED = {"witt.evaluate_poly", "witt.witt_add", "linalg.quotient_invariants",
           "universal.SymPoly.num_terms"}


def _spelled(node) -> Counter:
    """How often each name is spelled by a ``Name`` or ``Attribute`` node
    under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(module: str, tree):
    """(qualified name, node) of each checked definition of ``tree``."""
    for stmt in tree.body:
        if isinstance(stmt, DEFINITIONS):
            yield f"{module}.{stmt.name}", stmt
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, FUNCTIONS) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{stmt.name}.{item.name}", item


def unreferenced(sources: dict) -> set:
    """Qualified names of the checked definitions in ``sources`` (module
    name -> source text) whose name nothing outside them spells."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((_spelled(tree) for tree in trees.values()), Counter())
    return {name for module, tree in trees.items()
            for name, node in _definitions(module, tree)
            if total[node.name] == _spelled(node)[node.name]}


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


def test_methods_and_properties_are_checked_too():
    sources = {
        "c": ("class Box:\n"
              "    def __len__(self):\n"
              "        return 0\n"
              "\n"
              "    def size(self):\n"
              "        return self.width()\n"
              "\n"
              "    def width(self):\n"
              "        return 1\n"
              "\n"
              "    @property\n"
              "    def depth(self):\n"
              "        return self.depth\n"
              "\n"
              "print(Box().size())\n"),
    }
    assert unreferenced(sources) == {"c.Box.depth"}
