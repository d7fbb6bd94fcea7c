"""The demo scripts and the README's library example run end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, tmp_path, extra=()):
    return run_script(DEMOS / name, tmp_path, extra)


def run_script(path, tmp_path, extra=()):
    return subprocess.run(
        [sys.executable, str(path), *extra],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cooccurrence_network_demo(tmp_path):
    proc = run_demo("cooccurrence_network.py", tmp_path, extra=["exports"])
    assert proc.returncode == 0, proc.stderr
    assert "annotated 13 letters" in proc.stdout
    assert "pruned graph:" in proc.stdout
    assert (tmp_path / "exports" / "letters_cooccur.gexf").is_file()
    assert (tmp_path / "exports" / "letters_cooccur.json").is_file()


def test_verb_argument_pairs_demo(tmp_path):
    proc = run_demo("verb_argument_pairs.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "--SUBJ-->" in proc.stdout and "--OBJ-->" in proc.stdout
    assert "scores, plain:" in proc.stdout
    assert "scores, resolved:" in proc.stdout


def test_pruning_comparison_demo(tmp_path):
    proc = run_demo("pruning_comparison.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "full graph: 278 nodes" in proc.stdout
    assert "mean2" in proc.stdout


def test_readme_library_example(tmp_path):
    readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```\n", 1)[0]
    assert "from letternet import" in code
    script = tmp_path / "library_example.py"
    script.write_text(code, encoding="utf-8")
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
