"""Every file the package writes goes through ``dataio.write_file``.

Each module of ``src/srosda`` is parsed with ``ast``; outside
``dataio.write_file`` no call may open a file for writing, appending or
creating, nor call ``os.open``, ``os.fdopen`` or a path's ``write_text`` /
``write_bytes``.
"""

import ast
from pathlib import Path

import srosda

PACKAGE = Path(srosda.__file__).parent


def _mode(call):
    """The mode node of an ``open`` call, or None when it is left at "r".
    The mode is the second argument of ``open`` / ``io.open`` and the first
    of a ``path.open`` method."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    func = call.func
    plain = isinstance(func, ast.Name) or (
        isinstance(func.value, ast.Name) and func.value.id in ("io", "builtins"))
    index = 1 if plain else 0
    return call.args[index] if len(call.args) > index else None


def _writes(call):
    func = call.func
    if isinstance(func, ast.Name):
        name, owner = func.id, None
    elif isinstance(func, ast.Attribute):
        name = func.attr
        owner = func.value.id if isinstance(func.value, ast.Name) else None
    else:
        return False
    if owner == "os":
        return name in ("open", "fdopen")
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = _mode(call)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a computed mode may write
    return bool(set(mode.value) & set("wax+"))


def file_writes(source, allowed=None):
    """Line numbers of the calls in ``source`` that may create or write a
    file, leaving out the body of the function named ``allowed``."""
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == allowed:
            skip.update(id(n) for n in ast.walk(node))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in skip
            and _writes(node)]


def test_detector_flags_every_kind_of_write():
    flagged = ["open(p, 'w')", "open(p, mode='ab')", "open(p, 'r+')",
               "io.open(p, 'x')", "p.open('wb')", "open(p, m)",
               "os.open(p, flags)", "os.fdopen(fd, 'wb')", "p.write_text(s)",
               "p.write_bytes(b)"]
    for line in flagged:
        assert file_writes(line) == [1], line
    for line in ("open(p)", "open(p, 'rb')", "open(p, 'r', encoding='utf-8')",
                 "p.open()", "fh.write(b)", "os.path.exists(p)"):
        assert file_writes(line) == [], line
    body = "def write_file(p):\n    os.open(p, 0)\nos.open(q, 0)\n"
    assert file_writes(body, allowed="write_file") == [3]


def test_write_file_is_the_only_writer():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = "write_file" if path.name == "dataio.py" else None
        lines = file_writes(path.read_text(encoding="utf-8"), allowed)
        if lines:
            found[path.name] = lines
    assert found == {}
    # write_file itself is found, so the scan reads the package
    assert file_writes((PACKAGE / "dataio.py").read_text(encoding="utf-8"))
