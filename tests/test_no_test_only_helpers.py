"""Every top-level function and class of the package is used by the program.

A helper that only tests call belongs with the tests. Each module of
``src/srosda`` and of ``perfbench`` is parsed with ``ast``; every top-level
``def`` and ``class`` of ``src/srosda`` must be referenced, by a name, an
attribute or an import, somewhere in that code outside its own definition.
Names are matched without their module, so two top-level definitions that
share a name are found through each other's references.
"""

import ast
from pathlib import Path

import srosda

PACKAGE = Path(srosda.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(node):
    """The names ``node`` refers to, if it is a reference."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name.rpartition(".")[2] for alias in node.names]
    return []


def unreferenced(defining, using=()):
    """Names of the top-level definitions in the sources ``defining`` that
    no reference in ``defining`` or ``using`` names, leaving out each
    definition's own body."""
    defined = set()
    # (name, (source index, statement index) of the definition holding it)
    references = set()
    for i, source in enumerate((*defining, *using)):
        for j, top in enumerate(ast.parse(source).body):
            owner = (i, j) if isinstance(top, DEFINITIONS) else None
            if owner is not None and i < len(defining):
                defined.add((top.name, owner))
            for node in ast.walk(top):
                references.update((name, owner) for name in _referenced(node))
    return sorted(name for name, owner in defined
                  if not any(ref == name and where != owner
                             for ref, where in references))


def test_detector_finds_unused_definitions():
    module = ("import os\n"
              "def used():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "def via_attribute():\n    pass\n"
              "class Unused:\n    def method(self):\n        return used()\n"
              "def caller():\n    return mod.via_attribute()\n")
    assert unreferenced([module]) == ["Unused", "caller", "recursive"]
    assert unreferenced([module], ["from m import Unused, caller\n"
                                   "recursive(3)\n"]) == []


def test_no_definition_is_left_to_the_tests():
    package = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    bench = [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    assert unreferenced(package, bench) == []
    # the scan reads the package: a definition added to it is found
    orphan = "def orphan():\n    return save_report\n"
    assert unreferenced(package + [orphan], bench) == ["orphan"]
