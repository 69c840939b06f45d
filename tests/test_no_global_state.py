"""No function of the package rebinds module state with ``global``.

A run is meant to be fully determined by (data, config, seed); a function
that rebinds a module-level name keeps state from one call to the next,
hidden from both. Each module of ``src/srosda`` is parsed with ``ast``, and
the only ``global`` statement allowed is the one slot in ``model.forward_gz``.

State kept in a module-level object and changed in place, with no
``global``, is not found by this scan. There is one such object:
``numkernel._PIN``, the owner of the process-wide BLAS thread pin. It holds a
lock, the number of open pins and the caller's thread count, which the last
pin to exit restores, so it carries nothing from one run to the next.
"""

import ast
from pathlib import Path

import srosda

PACKAGE = Path(srosda.__file__).parent

# (module, function, names): the kept G_Z embedding
ALLOWED = [("model.py", "forward_gz", ("_kept",))]


def global_statements(source, module):
    """(module, enclosing function or None, names) of each ``global``
    statement in ``source``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                if isinstance(child, ast.Global):
                    found.append((module, func, tuple(child.names)))
                visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_detector_finds_every_global():
    source = ("global a\n"
              "def f():\n    global b, c\n"
              "class K:\n    def m(self):\n        if x:\n            global d\n")
    assert global_statements(source, "m.py") == [
        ("m.py", None, ("a",)), ("m.py", "f", ("b", "c")), ("m.py", "m", ("d",))]
    assert global_statements("x = 1\ndef f():\n    y = x\n", "m.py") == []


def test_only_the_kept_embedding_is_global():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += global_statements(path.read_text(encoding="utf-8"), path.name)
    # the allowed statement is found, so the scan reads the package
    assert found == ALLOWED
