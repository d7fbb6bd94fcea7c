"""Properties of whole command line runs on the sample corpus.

Each property runs ``letternet.cli.main`` in-process on manifests made
from a drawn subset of the 13 sample letters, and holds whatever each
stage does inside:

- the order of the manifest rows changes no merged output;
- k copies of every letter multiply each merged node frequency and edge
  weight by k, and meanK pruning keeps the same nodes and edges;
- merging the per-letter JSON graphs gives the unpruned merged graph;
- a token window wider than any sentence counts what the sentence does.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from letternet.cli import main
from letternet.network import LexicalGraph, merge_graphs
from letternet.readback import import_json

from conftest import MANIFEST, SAMPLE_DIR

HEADER, *ROWS = MANIFEST.read_text(encoding="utf-8").splitlines()
_FILE = HEADER.split("\t").index("file")
PRUNED = ["--prune-nodes", "mean1", "--prune-edges", "gt1"]
ALL_FORMATS = ["--format", "gexf,dot,json,csv"]

# indices of the sample letters, in the drawn order
LETTERS = st.lists(st.integers(0, len(ROWS) - 1), min_size=1, unique=True)
MODES = st.sampled_from([["--mode", "cooccur"], ["--mode", "pairs"]])


def _row(index: int, copy: int = 0) -> str:
    """Manifest row ``index`` with an absolute file path; a copy gets its own id."""
    fields = ROWS[index].split("\t")
    fields[_FILE] = str(SAMPLE_DIR / fields[_FILE])
    if copy:
        fields[0] += f"c{copy}"
    return "\t".join(fields)


def _network(root: Path, name: str, rows: list[str], *argv: str) -> dict[str, bytes]:
    """Every file ``letternet network`` writes for these rows, by file name."""
    manifest = root / f"{name}.tsv"
    manifest.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    out = root / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["network", "--manifest", str(manifest), "--out", str(out), *argv])
    assert code == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _graph(root: Path, name: str, rows: list[str], *argv: str) -> LexicalGraph:
    _network(root, name, rows, "--format", "json", *argv)
    return import_json(root / name / "network.json")


@settings(max_examples=20, deadline=None)
@given(letters=LETTERS, mode=MODES, data=st.data())
def test_row_order_changes_no_merged_output(letters, mode, data):
    shuffled = data.draw(st.permutations(letters))
    argv = [*mode, *PRUNED, *ALL_FORMATS]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        files = _network(root, "drawn", [_row(i) for i in letters], *argv)
        assert len(files) == 5
        assert _network(root, "reversed", [_row(i) for i in reversed(letters)], *argv) == files
        assert _network(root, "shuffled", [_row(i) for i in shuffled], *argv) == files


@settings(max_examples=20, deadline=None)
@given(
    letters=LETTERS,
    k=st.sampled_from([2, 3]),
    extraction=st.sampled_from(
        [["--context", "sentence"], ["--context", "window:3"], ["--mode", "pairs"]]
    ),
)
def test_copies_scale_weights_and_keep_the_mean_cut(letters, k, extraction):
    once = [_row(i) for i in letters]
    copies = [_row(i, copy) for copy in range(k) for i in letters]
    mean1 = ["--prune-nodes", "mean1", "--prune-edges", "mean1"]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, prune in (("all", []), ("mean1", mean1)):
            graph = _graph(root, name, once, *extraction, *prune)
            scaled = _graph(root, f"{name}-x{k}", copies, *extraction, *prune)
            assert scaled.nodes == {key: k * freq for key, freq in graph.nodes.items()}
            assert scaled.edges == {key: k * weight for key, weight in graph.edges.items()}


@settings(max_examples=20, deadline=None)
@given(letters=LETTERS, mode=MODES)
def test_merged_graph_is_the_merge_of_the_letter_graphs(letters, mode):
    rows = [_row(i) for i in letters]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        merged = _graph(root, "merged", rows, *mode)
        _network(root, "per-letter", rows, *mode, "--scope", "per-letter", "--format", "json")
        ids = [row.split("\t", 1)[0] for row in rows]
        graphs = [import_json(root / "per-letter" / f"{letter_id}.json") for letter_id in ids]
        assert merge_graphs(graphs) == merged


@settings(max_examples=20, deadline=None)
@given(letters=LETTERS, scope=st.sampled_from(["merged", "per-letter"]))
def test_wide_window_counts_as_the_sentence(letters, scope):
    rows = [_row(i) for i in letters]
    argv = ["--scope", scope, "--format", "json,csv"]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        sentence = _network(root, "sentence", rows, "--context", "sentence", *argv)
        window = _network(root, "window", rows, "--context", "window:1000", *argv)
    assert window == sentence
