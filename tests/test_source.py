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


# os.open, io.open, codecs.open and os.fdopen take a path or descriptor
# first and the mode or flags second; Path.open takes the mode first.
_OPENER_MODULES = {"os", "io", "codecs"}


def calls(source: str, match) -> list[str]:
    """Each call in ``source`` that ``match`` accepts, as "function: call".

    The function is the innermost one around the call, or "<module>".
    """
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and match(child):
                found.append(f"{where}: {ast.unparse(child)}")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def file_readers(source: str) -> list[str]:
    """Each call in ``source`` that can read a file, as "function: call".

    A reader is a ``read_text`` or ``read_bytes`` method, or a call of
    ``open`` or ``fdopen`` (as a name or a method) unless its mode holds
    "w", "a" or "x" without "+", or its flags name ``O_WRONLY``.
    """
    return calls(source, _reads_a_file)


def _called_name(call: ast.Call) -> str | None:
    """The name a call's function goes by: ``f`` in ``f()`` and ``x.f()``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _reads_a_file(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("read_text", "read_bytes"):
        return True
    if _called_name(call) not in ("open", "fdopen"):
        return False
    method = isinstance(func, ast.Attribute) and not (
        isinstance(func.value, ast.Name) and func.value.id in _OPENER_MODULES
    )
    i = 0 if method else 1
    mode = call.args[i] if len(call.args) > i else next(
        (k.value for k in call.keywords if k.arg in ("mode", "flags")), None
    )
    if mode is None:
        return True
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return "+" in mode.value or set(mode.value).isdisjoint("wax")
    return "O_WRONLY" not in ast.unparse(mode)


def test_only_read_input_reads_a_file_for_a_command():
    # every input goes through pipeline.read_input, which records it for
    # the overwrite check; validate_gexf is for library callers only
    readers = {
        path.stem: file_readers(path.read_text(encoding="utf-8"))
        for path in sorted(Path(letternet.__file__).parent.glob("*.py"))
    }
    assert {stem: calls for stem, calls in readers.items() if calls} == {
        "pipeline": ["read_input: open(path, 'rb')"],
        "readback": ["validate_gexf: source.read_bytes()"],
    }


def test_file_readers_finds_each_kind():
    source = (
        "import codecs, io, os\n"
        "TEXT = open('a')\n"
        "def f(p, fd):\n"
        "    open(p, 'w'), open(p, mode='xb'), open(p, 'r+')\n"
        "    p.read_text(encoding='utf-8'), p.read_bytes()\n"
        "    p.open(), p.open('a'), io.open(p, 'rt'), codecs.open(p, mode='w')\n"
        "    os.open(p, os.O_WRONLY | os.O_CREAT), os.open(p, os.O_RDONLY)\n"
        "    os.fdopen(fd, 'wb'), os.fdopen(fd)\n"
        "    def g():\n"
        "        return p.read_bytes\n"
    )
    assert file_readers(source) == [
        "<module>: open('a')",
        "f: open(p, 'r+')",
        "f: p.read_text(encoding='utf-8')",
        "f: p.read_bytes()",
        "f: p.open()",
        "f: io.open(p, 'rt')",
        "f: os.open(p, os.O_RDONLY)",
        "f: os.fdopen(fd)",
    ]


# Path methods and their os and os.path namesakes that look at a file
# without reading it, or make a directory
_FILE_SYSTEM_CHECKS = {"exists", "is_file", "isfile", "is_dir", "isdir", "mkdir", "makedirs"}


def file_system_checks(source: str) -> list[str]:
    """Each call in ``source`` of a method or function named in ``_FILE_SYSTEM_CHECKS``."""
    return calls(source, lambda call: _called_name(call) in _FILE_SYSTEM_CHECKS)


def test_a_file_is_checked_by_reading_it():
    # read_input checks an input file by reading it; only the pretagged
    # directory, whose glob would find no files if it were missing, is
    # looked at, and only the output directory is made, after the inputs
    # are read
    checks = {
        path.stem: file_system_checks(path.read_text(encoding="utf-8"))
        for path in sorted(Path(letternet.__file__).parent.glob("*.py"))
    }
    assert {stem: found for stem, found in checks.items() if found} == {
        "cli": [
            "_load_docs: directory.is_dir()",
            "_out_dir: out.mkdir(parents=True, exist_ok=True)",
        ],
    }


def test_file_system_checks_finds_each_kind():
    source = (
        "import os\n"
        "from os.path import isdir\n"
        "HERE = os.path.exists('a')\n"
        "def f(p):\n"
        "    p.exists(), p.is_file(), p.is_dir(), p.mkdir(parents=True)\n"
        "    os.path.isfile(p), isdir(p), os.makedirs(p), os.mkdir(p)\n"
        "    p.is_symlink(), p.resolve(), os.listdir(p), p.open()\n"
    )
    assert file_system_checks(source) == [
        "<module>: os.path.exists('a')",
        "f: p.exists()",
        "f: p.is_file()",
        "f: p.is_dir()",
        "f: p.mkdir(parents=True)",
        "f: os.path.isfile(p)",
        "f: isdir(p)",
        "f: os.makedirs(p)",
        "f: os.mkdir(p)",
    ]
