"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
pass/fail line even when output capture is on, so a full run
always ends with ten readable verdict lines.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from letternet import (
    apply_anaphora,
    build_graph,
    default_annotator,
    extract_window_pairs,
    load_manifest,
    merge_graphs,
    token_frequencies,
)
from letternet.cli import main
from letternet.evaluation import load_anaphora
from letternet.export import export_gexf, export_json
from letternet.extraction import RelationKind
from letternet.network import Centrality, centrality, prune
from letternet.pipeline import PosClass, lemmatize
from letternet.readback import import_json, validate_gexf

from conftest import MANIFEST, SAMPLE_DIR, mk_doc, N, V
from test_extraction import brute_force_pairs
from test_network import oracle_prune, random_graph

S = RelationKind.SUBJ
O = RelationKind.OBJ


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def _criterion(num, label):
        status = "FAIL"
        try:
            yield
            status = "PASS"
        finally:
            with capfd.disabled():
                print(f"criterion {num:2d} ({label}): {status}")

    return _criterion


def shapes(records):
    return {
        (r.src_lemma, r.src_pos, r.dst_lemma, r.dst_pos, r.kind) for r in records
    }


def test_criterion_01_fragment_yields_exactly_three_pairs(criterion, annotator):
    with criterion(1, "verb-argument pairs on a known fragment"):
        text = (
            "I begin to shew what prudency & care a Tutour "
            "must vse to moue little Children"
        )
        t0 = time.perf_counter()
        doc = annotator.annotate_text("ex1", text)
        got = shapes(extract_window_pairs(doc, max_dist=4, verb_blocker=True))
        elapsed = time.perf_counter() - t0
        assert got == {
            ("show", V, "prudency", N, O),
            ("tutor", N, "use", V, S),
            ("move", V, "child", N, O),
        }
        assert elapsed < 1.0


def test_criterion_02_colon_boundary_splits_an_object_edge(criterion, annotator):
    with criterion(2, "colon boundary halves a see/truth edge"):
        text = (
            "By this then wee see what trueth is. First the Congregation "
            "it selfe is to bee seene: And secondly the trueth or the "
            "falshood of the service perfourmed to Christ in the congregation."
        )
        t0 = time.perf_counter()
        weights = {}
        for colon in (False, True):
            ann = default_annotator(colon_boundary=colon)
            doc = ann.annotate_text("ex2", text)
            graph = build_graph(
                extract_window_pairs(doc, max_dist=4), token_frequencies([doc])
            )
            weights[colon] = graph.edges.get((("see", V), ("truth", N), O), 0)
        elapsed = time.perf_counter() - t0
        assert weights[False] == 2
        assert weights[True] == 1
        assert elapsed < 1.0


def test_criterion_03_subject_found_across_a_relative_clause(criterion, annotator):
    with criterion(3, "church/call subject without the verb blocker"):
        text = (
            "Because before Luthers time the Church which is now called "
            "the Protestant Church had no being nor visibilitie"
        )
        doc = annotator.annotate_text("ex4", text)
        got = shapes(extract_window_pairs(doc, max_dist=4, verb_blocker=False))
        assert ("church", N, "call", V, S) in got
        # the copula between them blocks the scan when the flag is on
        blocked = shapes(extract_window_pairs(doc, max_dist=4, verb_blocker=True))
        assert ("church", N, "call", V, S) not in blocked


def test_criterion_04_anaphora_recovers_a_subject(criterion, annotator, sample_corpus):
    with criterion(4, "pronoun replacement recovers tutor/lead"):
        doc = annotator.annotate(sample_corpus[0])
        assert doc.letter_id == "L01"
        before = shapes(extract_window_pairs(doc, max_dist=4, verb_blocker=False))
        assert ("tutor", N, "lead", V, S) not in before
        amap = load_anaphora(SAMPLE_DIR / "anaphora_l01.tsv")
        resolved = apply_anaphora(doc, amap)
        after = shapes(extract_window_pairs(resolved, max_dist=4, verb_blocker=False))
        assert ("tutor", N, "lead", V, S) in after
        assert ("lead", V, "child", N, O) in after


def test_criterion_05_pruning_matches_a_brute_force_oracle(criterion):
    with criterion(5, "200 random graphs pruned like the oracle"):
        rng = random.Random(5)
        rules = ["gt0", "gt2", "gt5", "gt12", "mean0", "mean0.5", "mean1", "mean2"]
        t0 = time.perf_counter()
        for _ in range(200):
            g = random_graph(rng, max_nodes=50)
            node_rule = rng.choice(rules)
            edge_rule = rng.choice(rules)
            drop = rng.random() < 0.5
            got = prune(g, node_rule, edge_rule, drop_isolated=drop)
            nodes, edges = oracle_prune(g, node_rule, edge_rule, drop_isolated=drop)
            assert got.nodes == nodes and got.edges == edges
            assert set(got.nodes) <= set(g.nodes)
            assert set(got.edges) <= set(g.edges)
            # a stricter threshold can only shrink the result
            loose = prune(g, "gt2", "gt2", drop_isolated=drop)
            tight = prune(g, "gt5", "gt5", drop_isolated=drop)
            assert set(tight.nodes) <= set(loose.nodes)
            assert set(tight.edges) <= set(loose.edges)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0


def test_criterion_06_pair_extraction_matches_a_brute_force_oracle(criterion):
    with criterion(6, "500 random sentences extracted like the oracle"):
        rng = random.Random(6)
        classes = [
            N,
            V,
            PosClass.PRON,
            PosClass.MODAL,
            PosClass.DET,
            PosClass.ADJ,
            PosClass.PUNCT,
        ]
        lemmas = ["a", "b", "c", "d", "e"]
        t0 = time.perf_counter()
        for _ in range(500):
            sent = [
                (rng.choice(lemmas), rng.choice(classes))
                for _ in range(rng.randint(1, 10))
            ]
            doc = mk_doc(sent)
            max_dist = rng.randint(0, 5)
            blocker = rng.random() < 0.5
            got = extract_window_pairs(doc, max_dist=max_dist, verb_blocker=blocker)
            want = brute_force_pairs(doc, max_dist=max_dist, verb_blocker=blocker)
            assert got == want
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0


def test_criterion_07_weighted_degrees_sum_to_twice_total_weight(
    criterion, annotator, sample_corpus
):
    with criterion(7, "weighted degree sums to twice the edge weight"):
        docs = [annotator.annotate(letter) for letter in sample_corpus]
        merged = merge_graphs(
            [
                build_graph(extract_window_pairs(d), token_frequencies([d]))
                for d in docs
            ]
        )
        ranks = centrality(merged, Centrality.WEIGHTED_DEGREE)
        assert sum(score for _, score in ranks) == 2 * merged.total_weight
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, max_nodes=30)
            ranks = centrality(g, Centrality.WEIGHTED_DEGREE)
            assert sum(score for _, score in ranks) == 2 * g.total_weight


def test_criterion_08_exports_are_lossless_and_reproducible(
    criterion, annotator, sample_corpus, tmp_path
):
    with criterion(8, "JSON round trip, valid GEXF, stable bytes"):
        from letternet import extract_cooccurrences
        from letternet.network import LexicalGraph

        docs = [annotator.annotate(letter) for letter in sample_corpus]
        l01 = docs[0]
        fixtures = [
            LexicalGraph({}, {}),
            build_graph(extract_window_pairs(l01), token_frequencies([l01])),
            build_graph(extract_cooccurrences(l01), token_frequencies([l01])),
            merge_graphs(
                [
                    build_graph(extract_cooccurrences(d), token_frequencies([d]))
                    for d in docs
                ]
            ),
        ]
        for i, graph in enumerate(fixtures):
            first, second = tmp_path / f"{i}a.json", tmp_path / f"{i}b.json"
            export_json(graph, first)
            export_json(graph, second)
            assert first.read_bytes() == second.read_bytes()
            assert import_json(first) == graph
            first, second = tmp_path / f"{i}a.gexf", tmp_path / f"{i}b.gexf"
            export_gexf(graph, first)
            export_gexf(graph, second)
            assert first.read_bytes() == second.read_bytes()
            assert validate_gexf(first.read_bytes()) == (graph.n_nodes, graph.n_edges)


def test_criterion_09_spelling_variants_normalize(criterion, annotator):
    with criterion(9, "variant spellings map to modern forms"):
        doc = annotator.annotate_text(
            "ex9", "wee shew the trueth and vse it, for hee must bee good"
        )
        tokens = {t.surface: (t.normalized, t.pos) for t in doc.sentences[0]}
        assert tokens["bee"] == ("be", V)
        assert tokens["wee"] == ("we", PosClass.PRON)
        assert tokens["hee"] == ("he", PosClass.PRON)
        assert tokens["trueth"] == ("truth", N)
        assert tokens["shew"] == ("show", V)
        assert tokens["vse"] == ("use", V)
        assert lemmatize("eating", V, annotator.exceptions, annotator.words) == "eat"


def test_criterion_10_corpus_network_agrees_with_raw_counts(
    criterion, annotator, sample_corpus, tmp_path
):
    with criterion(10, "pruned corpus network matches raw noun counts"):
        out = tmp_path / "out"
        t0 = time.perf_counter()
        code = main(
            [
                "network",
                "--manifest",
                str(MANIFEST),
                "--out",
                str(out),
                "--prune-nodes",
                "mean2",
                "--prune-edges",
                "mean2",
            ]
        )
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 30.0

        stats = (out / "network_stats.txt").read_text(encoding="utf-8")
        section = stats.split("Top nouns by frequency:\n", 1)[1]
        listed = []
        for line in section.splitlines():
            if not line.startswith("  "):
                break
            lemma, count = line.split()
            listed.append((lemma, int(count)))
        assert listed, "stats report lists no nouns"

        # recount lemma frequencies straight from the annotated letters
        raw = Counter(
            tok.lemma
            for letter in sample_corpus
            for sent in annotator.annotate(letter).sentences
            for tok in sent
            if tok.pos is N
        )
        for lemma, count in listed:
            assert raw[lemma] == count
        resorted = sorted(listed, key=lambda lc: (-raw[lc[0]], lc[0]))
        assert resorted == listed
        assert listed[0][0] == "god"
