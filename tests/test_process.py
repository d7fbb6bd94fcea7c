"""The ``letternet`` process: ``python -m letternet.cli`` as a user runs it.

Each case starts one child, one after another, in the environment of
``conftest.child_env``.  Its standard output is buffered, as in a plain
interpreter, so a short output is written only by a flush.
"""

import ast
import contextlib
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from letternet import cli
from letternet.cli import main

from conftest import MANIFEST, child_env, tree_bytes


def run_cli(args, cwd, **kwargs):
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-m", "letternet.cli", *args],
        cwd=cwd,
        env=child_env(),
        stderr=subprocess.PIPE,
        timeout=120,
        **kwargs,
    )


def test_process_writes_what_main_writes(tmp_path):
    args = ["network", "--manifest", str(MANIFEST), "--format", "gexf,dot,json,csv"]
    child = run_cli([*args, "--out", "child"], tmp_path)
    assert (child.returncode, child.stderr) == (0, b"")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([*args, "--out", str(tmp_path / "in-process")]) == 0
    assert child.stdout == stdout.getvalue().encode("utf-8")
    assert len(tree_bytes(tmp_path / "child")) == 5
    assert tree_bytes(tmp_path / "child") == tree_bytes(tmp_path / "in-process")


def test_process_reports_bad_input_without_a_traceback(tmp_path):
    child = run_cli(["network", "--manifest", "missing.tsv"], tmp_path)
    assert child.returncode == 1
    assert child.stderr.startswith(b"letternet: error: cannot read manifest")
    assert b"Traceback" not in child.stderr


def test_process_exits_2_on_an_unknown_option(tmp_path):
    child = run_cli(["network", "--no-such-option"], tmp_path)
    assert child.returncode == 2
    assert b"usage:" in child.stderr


@pytest.mark.parametrize(
    "args, code",
    [
        (["stats", "--scope", "per-letter"], 1),  # more than a pipe buffer of output
        (["network", "--out", "out"], 1),  # one short line, which only a flush writes
        (["--help"], 0),  # argparse prints the help and exits itself
    ],
    ids=["stats", "network", "help"],
)
def test_process_ends_quietly_on_a_closed_pipe(tmp_path, args, code):
    # The read end is closed before the child starts, so its first write
    # fails with EPIPE, as when `| head -1` has gone.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = run_cli([*args, "--manifest", str(MANIFEST)], tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (code, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_process_reports_a_full_standard_output(tmp_path):
    with open("/dev/full", "wb") as full:
        child = run_cli(
            ["network", "--manifest", str(MANIFEST), "--out", "out"], tmp_path, stdout=full
        )
    assert child.returncode == 1
    assert child.stderr.startswith(b"letternet: error: cannot write standard output: ")
    assert b"Traceback" not in child.stderr


def test_process_runs_without_a_standard_output(tmp_path):
    # `>&-` starts the child with sys.stdout None, which print skips
    script = 'exec "$0" -m letternet.cli "$@" >&-'
    args = ["network", "--manifest", str(MANIFEST), "--out", "out"]
    child = subprocess.run(
        ["sh", "-c", script, sys.executable, *args],
        cwd=tmp_path,
        env=child_env(),
        stderr=subprocess.PIPE,
        timeout=120,
    )
    assert (child.returncode, child.stderr) == (0, b"")
    assert (tmp_path / "out" / "network.gexf").is_file()


def test_main_leaves_the_collector_alone(tmp_path, capsys):
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(["network", "--manifest", str(MANIFEST), "--out", str(tmp_path)]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_console_exits_with_the_status_of_main(monkeypatch):
    monkeypatch.setattr(cli, "main", lambda: 3)
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.console()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert exit_info.value.code == 3


def test_installed_command_is_the_process_entry():
    # `letternet` and `python -m letternet.cli` start the same function
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and newer
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(stmt) for stmt in block.body] == ["console()"]
    assert scripts == {"letternet": "letternet.cli:console"}
