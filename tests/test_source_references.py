"""Every function, class, method, property and import in ``src/wittram`` is
used there.

``src/`` holds what ``wittram`` runs; a helper that only tests need lives in
``tests/oracles.py``.  The definitions checked are the module-level
functions and classes and the methods and properties of module-level
classes, dunders left out.  A definition counts as used when a ``Name`` or
``Attribute`` node somewhere in ``src/wittram``, outside the definition
itself, spells its name.  Imports, docstrings and comments do not count.

A name that a module imports (``__future__`` features aside) counts as used
when a ``Name`` or ``Attribute`` node of that module spells it, or when
another module imports it from that one, as ``errors.sha256`` is.

Frobenius chains stay inside ``witt``: no other module spells the names
in ``WITT_ONLY``, counted the same way, except that ``rings`` defines the
power ``Tower.flat_pow`` that ``OLElement.__pow__`` calls too.

Extension data are refused in one module: every ``raise
InvalidExtension(...)`` in ``src/wittram`` is in ``extensions.py``.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wittram"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)

#: defined in src/ but referenced nowhere there.  The benchmark tracer
#: (wittbench/tracer.py) wraps the two Witt functions, which only tests
#: call, and raises when no module binds them, so they stay until its
#: metrics for them are dropped; it reads ``SymPoly.num_terms`` as the size
#: of each ``evaluate_poly`` call.  Only tests call
#: ``cohomology.restriction_image`` until the proposition suite checks its
#: exact image.  (``cli.main`` needs no entry: the ``__main__`` guard calls
#: it.)
ALLOWED = {"witt.evaluate_poly", "witt.witt_add", "cohomology.restriction_image",
           "universal.SymPoly.num_terms"}

#: names only ``witt.py`` may spell: the Frobenius chains a^(p^j) that a
#: ghost level is summed from, kept on a recovered ``WittVec``, and the
#: power that extends them; other modules go through ``_ghost``,
#: ``_from_ghost`` and ``extended``
WITT_ONLY = ("ghost_level", "frobenius_chain", "chains", "flat_pow")


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


def _imports(tree):
    """(bound name, imported name, source module) of each import in
    ``tree``; the source is None outside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = node.module if node.level else None
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, source
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.name, None


def unused_imports(sources: dict) -> set:
    """``module.name`` of each name a module of ``sources`` imports that
    the module never spells and no other module imports from it."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    passed_on = {(source, name) for tree in trees.values()
                 for _, name, source in _imports(tree) if source}
    return {f"{module}.{bound}" for module, tree in trees.items()
            for bound, _, _ in _imports(tree)
            if not _spelled(tree)[bound] and (module, bound) not in passed_on}


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


def test_only_witt_spells_frobenius_chains():
    spelled = {path.stem: _spelled(ast.parse(path.read_text(encoding="utf-8")))
               for path in sorted(SRC.glob("*.py")) if path.stem != "witt"}
    assert {f"{module}.{name}" for module, names in spelled.items()
            for name in WITT_ONLY if names[name]} == {"rings.flat_pow"}


def test_only_extensions_raises_invalid_extension():
    raising = {path.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
               and getattr(node.exc.func, "id", None) == "InvalidExtension"}
    assert raising == {"extensions.py"}


def test_every_source_import_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unused_imports(sources) == set()


def test_imports_are_used_when_spelled_or_passed_on():
    sources = {
        "a": ("from __future__ import annotations\n"
              "import os.path\n"
              "from functools import cached_property, lru_cache as cache\n"
              "try:\n"
              "    from _sha2 import sha256\n"
              "except ImportError:\n"
              "    from hashlib import sha256\n"
              "\n"
              "@cache\n"
              "def helper() -> os.PathLike:\n"
              '    """Uses ``cached_property``."""\n'),
        "b": ("from .a import sha256, helper\n"
              "\n"
              "def used():\n"
              "    return helper()\n"),
    }
    assert unused_imports(sources) == {"a.cached_property", "b.sha256"}
