"""Outputs do not depend on the interpreter's hash seed.

Word classes and relation kinds hash by identity (the C-level
``object.__hash__``) rather than through ``Enum.__hash__``, which is a
Python-level call on every dict and set operation of the graph code.
"""

import copy
import pickle
import subprocess
import sys

from letternet.network import RelationKind
from letternet.pipeline import PosClass

from conftest import MANIFEST, child_env, tree_bytes

_COMMANDS = [
    ["network", "--mode", "cooccur", "--scope", "merged", "--format", "gexf,dot,json,csv"],
    ["network", "--mode", "pairs", "--scope", "per-letter"],
    ["network", "--context", "window:3", "--scope", "merged", "--format", "gexf,csv"],
    ["network", "--mode", "pairs", "--scope", "merged", "--format", "gexf,csv"],
]
# Runs each command into out/<i>; argv[1] is the output root.
_CHILD = f"""
import sys
from pathlib import Path
from letternet.cli import main
for i, argv in enumerate({_COMMANDS!r}):
    out = Path(sys.argv[1]) / str(i)
    if main([*argv, "--manifest", {str(MANIFEST)!r}, "--out", str(out)]):
        sys.exit(1)
"""


def test_outputs_identical_across_hash_seeds(tmp_path):
    outputs = []
    for seed in ("0", "4242"):
        out = tmp_path / f"seed{seed}"
        result = subprocess.run(
            [sys.executable, "-c", _CHILD, str(out)],
            cwd=tmp_path,
            env=child_env(PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(tree_bytes(out))
    assert len(outputs[0]) > 10
    assert outputs[0] == outputs[1]


def test_members_hash_by_identity():
    # Enum.__hash__ would put a Python call on every graph dict operation
    assert PosClass.__hash__ is object.__hash__
    assert RelationKind.__hash__ is object.__hash__
    for member in [*PosClass, *RelationKind]:
        assert pickle.loads(pickle.dumps(member)) is member
        assert copy.deepcopy(member) is member
