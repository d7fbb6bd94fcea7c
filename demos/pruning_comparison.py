"""
Compare pruning rules on the merged letter network
==================================================

Builds the full co-occurrence graph once, then applies a range of
absolute thresholds and mean-plus-k-standard-deviations cutoffs to
show how fast the network shrinks and which nodes survive.
"""

from letternet import cooccurrence_graph, default_annotator, load_manifest
from letternet.network import Centrality, centrality, prune
from letternet.pipeline import data_path

if __name__ == "__main__":
    corpus = load_manifest(data_path("sample_corpus") / "manifest.tsv")
    annotator = default_annotator()
    merged = cooccurrence_graph(annotator.annotate(letter) for letter in corpus)
    print(f"full graph: {merged.n_nodes} nodes, {merged.n_edges} edges, "
          f"total weight {merged.total_weight}\n")

    # a rule is the same text as --prune-nodes and --prune-edges take
    print(f"{'rule':8} {'nodes':>6} {'edges':>6} {'weight':>7}   top nodes by weighted degree")
    for rule in (None, "gt2", "gt5", "mean1", "mean2"):
        g = merged if rule is None else prune(merged, rule, rule)
        top = centrality(g, Centrality.WEIGHTED_DEGREE)[:5]
        head = ", ".join(f"{key[0]} ({score})" for key, score in top)
        print(f"{rule or 'none':8} {g.n_nodes:6d} {g.n_edges:6d} {g.total_weight:7d}   {head}")

    # the same rule applied to nodes only, edges left alone
    print("\nnode rule mean2, edges untouched:")
    g = prune(merged, "mean2", "gt0")
    print(f"  {g.n_nodes} nodes, {g.n_edges} edges, total weight {g.total_weight}")
