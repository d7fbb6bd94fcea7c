"""The bundled sample corpus gives the same files and stdout, byte for byte.

Each case runs one CLI command in-process on the sample corpus and
hashes every file it writes and its stdout (with the output directory
replaced by "{out}").  The expected SHA-256 digests are in
``sample_outputs.sha256`` next to this file, one "case  name  digest"
line each.  On a mismatch the observed table is printed in that same
layout, so a deliberate change of output can be reviewed line by line.

The check also runs without pytest, on the standard library alone, so
any Python the package supports can run it::

    python tests/test_sample_outputs.py

prints the observed table and exits 1 when it differs from the file.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from letternet.cli import main
from letternet.pipeline import data_path

SAMPLE_DIR = data_path("sample_corpus")
MANIFEST = SAMPLE_DIR / "manifest.tsv"
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
    "pairs-pruned": ["network", "--mode", "pairs", "--prune-nodes", "mean1", "--prune-edges", "gt1", *ALL_FORMATS],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _observe(tmp_path: Path) -> list[str]:
    rows = []
    for case, argv in CASES.items():
        out = tmp_path / case
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            code = main([*argv, "--manifest", str(MANIFEST), "--out", str(out)])
        assert code == 0, case
        stdout = captured.getvalue().replace(str(out), "{out}")
        rows.append(f"{case}  <stdout>  {_sha(stdout.encode('utf-8'))}")
        if out.is_dir():
            for path in sorted(out.iterdir()):
                rows.append(f"{case}  {path.name}  {_sha(path.read_bytes())}")
    return rows


def _expected() -> list[str]:
    return DIGESTS.read_text(encoding="utf-8").splitlines()


def test_sample_corpus_outputs_are_unchanged(tmp_path):
    observed, expected = _observe(tmp_path), _expected()
    if observed != expected:
        print("\nobserved sample-corpus digests:\n" + "\n".join(observed))
    assert observed == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        observed = _observe(Path(tmp))
    print("\n".join(observed))
    if observed != _expected():
        print(f"mismatch with {DIGESTS.name}", file=sys.stderr)
        sys.exit(1)
