"""The bundled sample corpus gives the same files and stdout, byte for byte.

Each case runs one CLI command in-process on the sample corpus and
hashes every file it writes and its stdout (with the output directory
replaced by "{out}").  The expected SHA-256 digests are in
``sample_outputs.sha256`` next to this file, one "case  name  digest"
line each.  On a mismatch the observed table is printed in that same
layout, so a deliberate change of output can be reviewed line by line.
"""

import hashlib
from pathlib import Path

from letternet.cli import main

from conftest import MANIFEST, SAMPLE_DIR

DIGESTS = Path(__file__).with_name("sample_outputs.sha256")
ALL_FORMATS = ["--format", "gexf,dot,json,csv"]
ANAPHORA = ["--anaphora", str(SAMPLE_DIR / "anaphora_l01.tsv")]

CASES = {
    "merged": ["network", *ALL_FORMATS],
    "pruned-mean2": ["network", "--prune-nodes", "mean2", "--prune-edges", "mean2", *ALL_FORMATS],
    "run-window3": ["run", "--context", "window:3", *ALL_FORMATS],
    "pairs-per-letter": ["network", "--mode", "pairs", "--scope", "per-letter", *ANAPHORA, *ALL_FORMATS],
    "stats-top4": ["stats", "--top", "4"],
    "eval-anaphora": ["eval", "--gold", str(SAMPLE_DIR / "gold_l01.tsv"), *ANAPHORA],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _observe(tmp_path, capsys) -> list[str]:
    rows = []
    for case, argv in CASES.items():
        out = tmp_path / case
        code = main([*argv, "--manifest", str(MANIFEST), "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0, case
        rows.append(f"{case}  <stdout>  {_sha(stdout.replace(str(out), '{out}').encode('utf-8'))}")
        if out.is_dir():
            for path in sorted(out.iterdir()):
                rows.append(f"{case}  {path.name}  {_sha(path.read_bytes())}")
    return rows


def test_sample_corpus_outputs_are_unchanged(tmp_path, capsys):
    observed = _observe(tmp_path, capsys)
    expected = DIGESTS.read_text(encoding="utf-8").splitlines()
    if observed != expected:
        with capsys.disabled():
            print("\nobserved sample-corpus digests:\n" + "\n".join(observed))
    assert observed == expected
