"""
Build a co-occurrence network from the bundled letters
======================================================

Annotates the thirteen sample letters, links every pair of content
words that share a sentence into one corpus-wide graph, prunes
rare nodes and thin edges, and writes the result in GEXF and JSON
form to the directory given as the first argument, or to
``demo_out/`` under the current working directory.
"""

import sys
from pathlib import Path

from letternet import cooccurrence_graph, default_annotator, load_manifest
from letternet.export import export_gexf, export_json, stats_report
from letternet.network import prune
from letternet.pipeline import data_path

if __name__ == "__main__":
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")
    out_dir.mkdir(parents=True, exist_ok=True)

    # read the manifest and annotate every letter
    corpus = load_manifest(data_path("sample_corpus") / "manifest.tsv")
    annotator = default_annotator()
    docs = [annotator.annotate(letter) for letter in corpus]
    print(f"annotated {len(docs)} letters")

    # one graph for the whole corpus, counted in one pass: each edge,
    # keyed by (source node, target node, COOCCUR), counts its
    # co-occurring token pairs, as merging the letters' graphs would
    merged = cooccurrence_graph(docs)
    print(f"merged graph: {merged.n_nodes} nodes, {merged.n_edges} edges")

    # keep only nodes and edges more than two standard deviations
    # above the mean; the survivors are the recurring themes
    pruned = prune(merged, "mean2", "mean2")
    print(f"pruned graph: {pruned.n_nodes} nodes, {pruned.n_edges} edges")
    print()
    print(stats_report(pruned, top_n=8), end="")

    export_gexf(pruned, out_dir / "letters_cooccur.gexf")
    export_json(pruned, out_dir / "letters_cooccur.json")
    print(f"\nwrote letters_cooccur.gexf and letters_cooccur.json to {out_dir}")
