"""Checks on letternet's own source text, made with the standard ``ast`` module."""

import ast
from pathlib import Path

import pytest

import letternet

MODULES = sorted(
    path for path in Path(letternet.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def dead_bindings(source: str) -> list[str]:
    """Module-level names that the module binds and never reads.

    Checked are imports, except one whose line carries ``noqa``, and
    ``_``-private or ``log`` bindings.  A read is a loaded name, or a
    string equal to the name, as for a function looked up by its name.
    A ``__dunder__`` binding, such as a module's ``__getattr__``, is read
    by the interpreter and never checked.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "noqa" not in lines[alias.lineno - 1]:
                    bound.append((alias.asname or alias.name.split(".")[0], alias.lineno))
            continue
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        bound += [
            (name, node.lineno)
            for name in names
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
            or name == "log"
        ]
    return [f"line {line}: {name}" for name, line in bound if name not in reads]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_dead_module_bindings(path):
    assert dead_bindings(path.read_text(encoding="utf-8")) == []


def test_dead_bindings_finds_each_kind():
    source = (
        "import logging\n"
        "import os.path\n"
        "import sys  # noqa: F401\n"
        "from json import dumps, loads\n"
        "log = logging.getLogger(__name__)\n"
        "_TABLE = {'loads': 1}\n"
        "def _helper():\n"
        "    return dumps\n"
        "PUBLIC = 1\n"
        "def __getattr__(name):\n"
        "    raise AttributeError(name)\n"
    )
    assert dead_bindings(source) == [
        "line 2: os", "line 5: log", "line 6: _TABLE", "line 7: _helper"
    ]
