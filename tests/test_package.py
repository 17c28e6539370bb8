"""The package depends on the standard library alone."""

import ast
import sys
from pathlib import Path

import kempe_minors

SOURCES = sorted(Path(kempe_minors.__file__).parent.glob("*.py"))


def foreign_imports(tree):
    """Top-level names of the absolute imports that are not stdlib modules."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted(
        {n for n in names if n.split(".")[0] not in sys.stdlib_module_names}
    )


def bare_asserts(tree):
    """Line numbers of the assert statements, which ``python -O`` strips."""
    return sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert))


def test_package_is_stdlib_only():
    assert {p.name for p in SOURCES} >= {"__init__.py", "paths.py", "solver.py"}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert foreign_imports(tree) == [], path.name


def test_foreign_import_is_caught():
    tree = ast.parse("import os\nfrom . import graph\nimport numpy.linalg\nfrom yaml import load")
    assert foreign_imports(tree) == ["numpy.linalg", "yaml"]


def test_package_has_no_bare_assert():
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert bare_asserts(tree) == [], path.name


def test_bare_assert_is_caught():
    tree = ast.parse("def f(x):\n    assert x\n    return x\nassert f(1), 'no'")
    assert bare_asserts(tree) == [2, 4]


def locale_io(tree):
    """Line numbers of the ``open``, ``read_text`` and ``write_text`` calls
    that pass no ``encoding=`` and so use the locale's.  An ``open`` in a
    binary mode (its mode is the second argument of the builtin, the first
    of a method) needs none."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in ("open", "read_text", "write_text"):
            continue
        if any(k.arg == "encoding" for k in node.keywords):
            continue
        at = 1 if isinstance(func, ast.Name) else 0
        mode = next(
            (k.value for k in node.keywords if k.arg == "mode"),
            node.args[at] if len(node.args) > at else None,
        )
        if name == "open" and isinstance(mode, ast.Constant) and "b" in str(mode.value):
            continue
        lines.append(node.lineno)
    return sorted(lines)


def test_package_names_its_text_encoding():
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert locale_io(tree) == [], path.name


def test_locale_io_is_caught():
    tree = ast.parse(
        "open(p)\n"
        "open(p, 'rb')\n"
        "open(p, mode='wb')\n"
        "open(p, 'w', encoding='utf-8')\n"
        "Path(p).read_text()\n"
        "Path(p).write_text(s, encoding='utf-8')\n"
        "p.write_text(s)\n"
        "p.open('rb')\n"
        "p.open()\n"
        "p.read_bytes()\n"
    )
    assert locale_io(tree) == [1, 5, 7, 9]
