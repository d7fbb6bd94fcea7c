"""Graph building, pruning, and degree measures."""

import random
import statistics
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from letternet.extraction import (
    PairRecord,
    RelationKind,
    extract_window_pairs,
)
from letternet import network
from letternet.network import (
    Centrality,
    LexicalGraph,
    build_graph,
    centrality,
    cooccurrence_graph,
    cutoff,
    extract_cooccurrences,
    merge_graphs,
    pair_graph,
    prune,
    token_frequencies,
)
from letternet.pipeline import AnnotatedDoc, InputError, PosClass, Token

from conftest import cooccurrence_records, mk_doc, N, V

S = RelationKind.SUBJ
O = RelationKind.OBJ
C = RelationKind.COOCCUR


def rec(src, dst, kind, letter="L1", sent=0):
    return PairRecord(src[0], src[1], dst[0], dst[1], kind, letter, sent)


FREQS = {
    ("man", N): 4,
    ("see", V): 3,
    ("truth", N): 2,
    ("god", N): 7,
}


# building


def test_token_frequencies_counts_all_tokens(annotator, sample_corpus):
    doc = mk_doc([("man", N), ("see", V), ("man", N)])
    freqs = token_frequencies([doc])
    assert freqs[("man", N)] == 2
    assert freqs[("see", V)] == 1
    # the same counts as a per-token loop on the sample corpus
    docs = [annotator.annotate(letter) for letter in sample_corpus]
    expected = Counter()
    for doc in docs:
        for token in doc.tokens():
            expected[(token.lemma, token.pos)] += 1
    assert token_frequencies(docs) == expected
    assert token_frequencies(iter(docs)) == expected


def test_build_graph_accumulates_weights():
    records = [
        rec(("man", N), ("see", V), S),
        rec(("man", N), ("see", V), S),
        rec(("see", V), ("truth", N), O),
    ]
    g = build_graph(records, FREQS)
    assert g.nodes == {("man", N): 4, ("see", V): 3, ("truth", N): 2}
    assert g.edges[(("man", N), ("see", V), S)] == 2
    assert g.edges[(("see", V), ("truth", N), O)] == 1
    assert g.total_weight == 3
    g.validate()


def test_build_graph_only_endpoint_nodes():
    g = build_graph([rec(("man", N), ("see", V), S)], FREQS)
    assert ("god", N) not in g.nodes


def test_build_graph_missing_frequency():
    with pytest.raises(InputError, match="ghost"):
        build_graph([rec(("ghost", N), ("see", V), S)], FREQS)


def test_merge_graphs_sums():
    g1 = build_graph([rec(("man", N), ("see", V), S)], FREQS)
    g2 = build_graph([rec(("man", N), ("see", V), S)], {("man", N): 1, ("see", V): 1})
    merged = merge_graphs([g1, g2])
    assert merged.nodes[("man", N)] == 5
    assert merged.edges[(("man", N), ("see", V), S)] == 2
    assert merge_graphs([]).n_nodes == 0


def test_build_graph_from_edge_weights():
    weights = {(("god", N), ("man", N), C): 3, (("man", N), ("see", V), S): 1}
    g = build_graph(weights, FREQS)
    assert g.nodes == {("god", N): 7, ("man", N): 4, ("see", V): 3}
    assert g.edges == weights
    with pytest.raises(InputError, match="ghost"):
        build_graph({(("ghost", N), ("man", N), C): 1}, FREQS)


def test_build_graph_canonicalises_cooccur_records():
    g = build_graph([rec(("see", V), ("man", N), C), rec(("man", N), ("see", V), C)], FREQS)
    assert g.edges == {(("man", N), ("see", V), C): 2}


def merged_letters(docs, extract):
    """The graph of each letter on its own, merged: the one-pass graphs' oracle."""
    return merge_graphs([build_graph(extract(d), token_frequencies([d])) for d in docs])


def test_merged_node_frequency_sums_only_letters_where_it_is_an_endpoint():
    # "lone" pairs with "man" in letter A; in letter B it stands alone in
    # its sentence, so B's occurrence is not part of the merged frequency.
    a = mk_doc([("lone", N), ("man", N)], letter_id="A")
    b = mk_doc([("lone", N)], [("man", N), ("see", V)], letter_id="B")
    merged = merged_letters([a, b], extract_cooccurrences)
    assert token_frequencies([a, b])[("lone", N)] == 2
    assert merged.nodes == {("lone", N): 1, ("man", N): 2, ("see", V): 1}
    assert merged.edges == {
        (("lone", N), ("man", N), C): 1,
        (("man", N), ("see", V), C): 1,
    }
    assert cooccurrence_graph([a, b]) == merged
    # with window:1, "lone" in A is two positions from "man", so only B's
    # "man" and "see" pair; A adds nothing at all
    a = mk_doc([("lone", N), ("of", PosClass.DET), ("man", N)], letter_id="A")
    windowed = cooccurrence_graph([a, b], window=1)
    assert windowed.nodes == {("man", N): 1, ("see", V): 1}
    assert windowed.edges == {(("man", N), ("see", V), C): 1}
    assert windowed == merged_letters([a, b], lambda d: extract_cooccurrences(d, 1))


# few lemmas and every class the extractors tell apart, so that nodes
# repeat within and across letters
_TOKENS = st.tuples(
    st.sampled_from(["a", "b", "c", "d"]),
    st.sampled_from([N, V, PosClass.ADJ, PosClass.MODAL, PosClass.PRON, PosClass.PUNCT]),
)
_LETTERS = st.lists(st.lists(_TOKENS, max_size=10), min_size=1, max_size=4).map(
    lambda sentences: mk_doc(*sentences)
)


_P = PosClass.PUNCT


@settings(max_examples=200, deadline=None)
@given(st.lists(_LETTERS, min_size=1, max_size=4), st.sampled_from([None, 1, 2, 3, 4]))
# "a" pairs in one sentence and stands alone in another of the same letter
@example([mk_doc([("a", N), ("b", N)], [("a", N)])], None)
@example(
    [mk_doc([("a", N), ("b", N), (".", _P), (".", _P), ("a", N)], [(".", _P), ("b", N), (".", _P)])],
    1,
)
# "c" only ever stands alone, so it is no node
@example([mk_doc([("a", N), ("b", N)], [("c", N)]), mk_doc([("c", N)])], None)
# "a" stands alone in one letter and pairs in another, in either order
@example([mk_doc([("a", N), ("b", V)]), mk_doc([("a", N)])], None)
@example([mk_doc([("a", N)]), mk_doc([("a", N), ("b", V)])], None)
# content gaps of exactly the window and wider than it, on the window path
@example([mk_doc([("a", N), (".", _P), ("b", N), (".", _P), (".", _P), (".", _P), ("c", V)])], 2)
@example(
    [mk_doc([("a", N), ("b", N)]), mk_doc([("a", N), (".", _P), (".", _P), ("c", N), ("b", N)])], 1
)
def test_cooccurrence_graph_matches_merged_letters(docs, window):
    for group in (docs[:1], docs):
        got = cooccurrence_graph(group, window)
        assert got == merged_letters(group, lambda d: extract_cooccurrences(d, window))
        assert got == merged_letters(group, lambda d: cooccurrence_records(d, window))
        got.validate()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_LETTERS, min_size=1, max_size=4),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
)
def test_pair_graph_matches_merged_letters(docs, max_dist, verb_blocker):
    for group in (docs[:1], docs):
        got = pair_graph(group, max_dist=max_dist, verb_blocker=verb_blocker)
        assert got == merged_letters(
            group, lambda d: extract_window_pairs(d, max_dist, verb_blocker)
        )
        got.validate()


def _with_pronouns(drawn):
    sentence = []
    for lemma, pos, pronoun_first in drawn:
        if pronoun_first:
            sentence.append(("he", PosClass.PRON))
        sentence.append((f"w{lemma}", pos))
    return sentence


# 60-70 content tokens, some with a pronoun before them, so that
# sentences either side of 64 content tokens come up; over 3 lemmas
# every node repeats, over 80 most content tokens are distinct nodes
_LONG_SENTENCES = st.sampled_from([3, 80]).flatmap(
    lambda n_lemmas: st.lists(
        st.tuples(st.integers(0, n_lemmas - 1), st.sampled_from([N, V]), st.booleans()),
        min_size=60,
        max_size=70,
    )
).map(_with_pronouns)
_SIXTY_FOUR = [("a", N)] * 64
# 65 content tokens over nodes occurring 62, 2 and 1 times
_FEW_NODES = [("a", N)] * 62 + [("b", V)] * 2 + [("c", N)]
# 66 content tokens over 33 and over 32 nodes, either side of half distinct
_HALF_DISTINCT = [(f"w{i % 33}", N) for i in range(66)]
_UNDER_HALF_DISTINCT = [(f"w{i % 32}", N) for i in range(66)]


@settings(max_examples=40, deadline=None)
@given(st.lists(_LONG_SENTENCES, min_size=1, max_size=2), st.sampled_from([None, 1, 3, 100, 200]))
@example([_SIXTY_FOUR, _FEW_NODES], None)
@example([_SIXTY_FOUR, _FEW_NODES], 3)
@example([_HALF_DISTINCT, _UNDER_HALF_DISTINCT], None)
@example([_HALF_DISTINCT, _UNDER_HALF_DISTINCT], 65)
def test_long_sentences_match_the_record_oracle(sentences, window):
    docs = [mk_doc(*sentences, letter_id="A"), mk_doc(sentences[0], [("d", N)], letter_id="B")]
    for group in (docs[:1], docs):
        got = cooccurrence_graph(group, window)
        assert got == merged_letters(group, lambda d: cooccurrence_records(d, window))
        got.validate()


def test_a_long_sentence_of_few_words_takes_no_step_per_token_pair(monkeypatch):
    # the pair list takes one step per token pair; a long sentence in
    # which fewer than half of the content tokens are distinct nodes is
    # counted by pairs of distinct nodes instead
    listed = []

    def pair_list(row, r):
        listed.append(len(row))
        return combinations(row, r)

    monkeypatch.setattr(network, "combinations", pair_list)
    repeats = mk_doc([(f"w{i % 300}", N) for i in range(6000)])
    distinct = mk_doc([(f"w{i}", N) for i in range(200)])
    halves = mk_doc(_HALF_DISTINCT, _UNDER_HALF_DISTINCT)
    graph = cooccurrence_graph([repeats, distinct, halves])
    assert listed == [200, 66]
    assert graph.total_weight == 6000 * 5999 // 2 + 200 * 199 // 2 + 2 * 66 * 65 // 2


def test_one_sentence_letter_is_counted_in_little_memory():
    # 6,000 content tokens over 300 lemmas in one sentence: 18 million
    # token pairs, 45,150 edges
    lemmas = [f"w{i}" for i in range(300)]
    doc = mk_doc([(lemmas[i % 300], N) for i in range(6000)])
    tracemalloc.start()
    try:
        graph = cooccurrence_graph([doc])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    assert graph.n_edges == 300 * 301 // 2
    assert graph.nodes[("w7", N)] == 20
    assert graph.edges[(("w1", N), ("w2", N), C)] == 20 * 20
    assert graph.edges[(("w1", N), ("w1", N), C)] == 20 * 19 // 2
    assert graph.total_weight == 6000 * 5999 // 2


def test_a_node_is_its_lemma_and_class_whatever_the_spelling():
    loue = Token(surface="loue", normalized="love", lemma="love", pos=V)
    love = Token(surface="love", normalized="love", lemma="love", pos=V)
    child = Token(surface="child", normalized="child", lemma="child", pos=N)
    doc = AnnotatedDoc(letter_id="A", sentences=((loue, child, love),))
    sentence = cooccurrence_graph([doc])
    assert sentence.nodes == {("love", V): 2, ("child", N): 1}
    assert sentence.edges == {
        (("child", N), ("love", V), C): 2,
        (("love", V), ("love", V), C): 1,
    }
    windowed = cooccurrence_graph([doc], window=1)
    assert windowed.nodes == {("love", V): 2, ("child", N): 1}
    assert windowed.edges == {(("child", N), ("love", V), C): 2}


def test_one_pass_graphs_reject_bad_settings():
    doc = mk_doc([("a", N), ("b", V)])
    with pytest.raises(ValueError, match="window"):
        cooccurrence_graph([doc], window=0)
    with pytest.raises(ValueError, match="max_dist"):
        pair_graph([doc], max_dist=-1)
    assert cooccurrence_graph([]) == pair_graph([]) == LexicalGraph()


def test_validate_rejects_bad_graphs():
    g = LexicalGraph(nodes={("a", N): 1}, edges={})
    g.validate()
    bad_weight = LexicalGraph(
        nodes={("a", N): 1}, edges={(("a", N), ("a", N), C): 0}
    )
    with pytest.raises(ValueError, match="weight"):
        bad_weight.validate()
    # True is an int to isinstance, but no count
    with pytest.raises(ValueError, match="frequency True"):
        LexicalGraph(nodes={("a", N): True}).validate()
    with pytest.raises(ValueError, match="weight True"):
        LexicalGraph(nodes={("a", N): 1}, edges={(("a", N), ("a", N), C): True}).validate()
    loose_end = LexicalGraph(
        nodes={("a", N): 1}, edges={(("a", N), ("b", N), C): 1}
    )
    with pytest.raises(ValueError, match="endpoint"):
        loose_end.validate()
    backwards = LexicalGraph(
        nodes={("a", N): 1, ("b", N): 1},
        edges={(("b", N), ("a", N), C): 1},
    )
    with pytest.raises(ValueError, match="canonical"):
        backwards.validate()


# prune rules


def test_threshold_cutoff_ignores_values():
    assert cutoff("gt3", [1, 100]) == 3.0
    assert cutoff("gt0", []) == 0.0


def test_meansd_cutoff_matches_statistics_module():
    values = [10, 2, 2, 2]
    expected = statistics.mean(values) + 1.0 * statistics.pstdev(values)
    assert cutoff("mean1", values) == expected
    assert cutoff("mean2", []) == 0.0


def test_parse_prune_rule():
    values = [10, 2, 2, 2]
    mean, sd = statistics.mean(values), statistics.pstdev(values)
    assert cutoff("gt3", values) == 3.0
    assert cutoff(" gt3\n", values) == 3.0
    assert cutoff("mean2", values) == mean + 2.0 * sd
    assert cutoff("mean1.5", values) == mean + 1.5 * sd
    # digits of other scripts are refused, as in every other number a user gives
    for bad in ("gt-1", "gt", "meanx", "median2", "", "gt\u0661", "mean1.\u0665", "gt\uff13"):
        with pytest.raises(InputError, match=f"bad prune rule {bad!r}; expected gtN or meanK"):
            cutoff(bad, values)


# pruning semantics


def graph_abc():
    nodes = {("a", N): 5, ("b", N): 2, ("c", N): 1}
    edges = {
        (("a", N), ("b", N), C): 3,
        (("a", N), ("c", N), C): 5,
    }
    return LexicalGraph(nodes=nodes, edges=edges)


def test_prune_threshold_drops_nodes_and_orphan_edges():
    g = prune(graph_abc(), "gt1", "gt2")
    assert set(g.nodes) == {("a", N), ("b", N)}
    assert set(g.edges) == {(("a", N), ("b", N), C)}
    g.validate()


def test_prune_cutoff_is_strict():
    g = prune(graph_abc(), "gt5", "gt0")
    assert g.nodes == {}


def test_prune_drop_isolated_toggle():
    g = prune(graph_abc(), "gt0", "gt4")
    # only the a-c edge survives, so b is isolated and dropped
    assert set(g.nodes) == {("a", N), ("c", N)}
    kept = prune(graph_abc(), "gt0", "gt4", drop_isolated=False)
    assert set(kept.nodes) == {("a", N), ("b", N), ("c", N)}


def test_prune_empty_graph():
    empty = LexicalGraph()
    assert prune(empty, "mean2", "mean2").n_nodes == 0


def test_prune_does_not_mutate_input():
    g = graph_abc()
    prune(g, "gt1", "gt2")
    assert g.n_nodes == 3 and g.n_edges == 2


# brute-force oracle over random graphs


def random_graph(rng, max_nodes=50):
    lemmas = [f"w{i}" for i in range(rng.randint(1, max_nodes))]
    classes = [N, V, PosClass.ADJ]
    nodes = {}
    for lemma in lemmas:
        nodes[(lemma, rng.choice(classes))] = rng.randint(1, 20)
    keys = list(nodes)
    edges = {}
    for _ in range(rng.randint(0, 3 * len(keys))):
        a, b = rng.choice(keys), rng.choice(keys)
        kind = rng.choice([S, O, C])
        if kind is C:
            a, b = sorted((a, b), key=lambda k: (k[0], k[1].name))
        edges[(a, b, kind)] = rng.randint(1, 15)
    return LexicalGraph(nodes=nodes, edges=edges)


def oracle_prune(graph, node_rule, edge_rule, drop_isolated=True):
    def cut(rule, values):
        if rule.startswith("gt"):
            return float(rule[2:])
        if not values:
            return 0.0
        return statistics.mean(values) + float(rule[4:]) * statistics.pstdev(values)

    node_cut = cut(node_rule, list(graph.nodes.values()))
    edge_cut = cut(edge_rule, list(graph.edges.values()))
    nodes = {k: f for k, f in graph.nodes.items() if f > node_cut}
    edges = {
        (a, b, kind): w
        for (a, b, kind), w in graph.edges.items()
        if w > edge_cut and a in nodes and b in nodes
    }
    if drop_isolated:
        touched = {n for a, b, _ in edges for n in (a, b)}
        nodes = {k: f for k, f in nodes.items() if k in touched}
    return nodes, edges


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_prune_matches_oracle_on_random_graphs(seed):
    rng = random.Random(seed)
    rules = ["gt0", "gt3", "gt10", "mean0", "mean1", "mean2"]
    for _ in range(40):
        g = random_graph(rng)
        node_rule = rng.choice(rules)
        edge_rule = rng.choice(rules)
        drop = rng.random() < 0.5
        got = prune(g, node_rule, edge_rule, drop_isolated=drop)
        nodes, edges = oracle_prune(g, node_rule, edge_rule, drop_isolated=drop)
        assert got.nodes == nodes
        assert got.edges == edges
        got.validate()
        # subgraph property
        assert set(got.nodes) <= set(g.nodes)
        assert set(got.edges) <= set(g.edges)


def test_prune_monotone_in_threshold():
    rng = random.Random(99)
    for _ in range(20):
        g = random_graph(rng, max_nodes=20)
        low = prune(g, "gt2", "gt2")
        high = prune(g, "gt5", "gt5")
        assert set(high.nodes) <= set(low.nodes)
        assert set(high.edges) <= set(low.edges)


# centrality


def test_degree_counts_all_kinds(toy_graph):
    ranks = dict(centrality(toy_graph, Centrality.DEGREE))
    # god: cooccur edge + self loop twice = 3; truth: cooccur + obj = 2
    assert ranks[("god", N)] == 3
    assert ranks[("truth", N)] == 2
    assert ranks[("see", V)] == 2
    assert ranks[("man", N)] == 1


def test_in_out_degree_directed_only(toy_graph):
    ins = dict(centrality(toy_graph, Centrality.IN_DEGREE))
    outs = dict(centrality(toy_graph, Centrality.OUT_DEGREE))
    assert ins[("truth", N)] == 1  # see -> truth
    assert ins[("see", V)] == 1  # man -> see
    assert ins[("god", N)] == 0  # cooccur does not count
    assert outs[("see", V)] == 1
    assert outs[("man", N)] == 1
    assert outs[("truth", N)] == 0


def test_weighted_degree_sums_to_twice_total_weight(toy_graph):
    ranks = centrality(toy_graph, Centrality.WEIGHTED_DEGREE)
    assert sum(score for _, score in ranks) == 2 * toy_graph.total_weight


def test_weighted_degree_random_identity():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, max_nodes=15)
        ranks = centrality(g, Centrality.WEIGHTED_DEGREE)
        assert sum(s for _, s in ranks) == 2 * g.total_weight


def test_centrality_tie_break_is_lexicographic():
    g = LexicalGraph(
        nodes={("b", N): 1, ("a", N): 1, ("a", V): 1},
        edges={},
    )
    ranks = centrality(g, Centrality.DEGREE)
    assert [k for k, _ in ranks] == [("a", N), ("a", V), ("b", N)]
