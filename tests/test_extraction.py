"""Co-occurrence and windowed verb-argument extraction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from letternet.extraction import (
    GoldTriple,
    PairRecord,
    RelationKind,
    apply_anaphora,
    evaluate_pairs,
    extract_window_pairs,
    load_anaphora,
    load_gold,
)
from letternet.network import (
    build_graph, cooccurrence_graph, extract_cooccurrences, merge_graphs, token_frequencies,
)
from letternet.pipeline import InputError, PosClass, Token

from conftest import cooccurrence_records, mk_doc, mk_sentence, N, V

ADJ = PosClass.ADJ
PRON = PosClass.PRON
MODAL = PosClass.MODAL
DET = PosClass.DET
PUNCT = PosClass.PUNCT

S = RelationKind.SUBJ
O = RelationKind.OBJ
C = RelationKind.COOCCUR


def shapes(records):
    return [(r.src_lemma, r.src_pos, r.dst_lemma, r.dst_pos, r.kind) for r in records]


def weight_shapes(weights):
    """Edge weights keyed like :func:`shapes` entries."""
    return {(s[0], s[1], d[0], d[1], kind): w for (s, d, kind), w in weights.items()}


# co-occurrence


def test_cooccur_single_pair():
    doc = mk_doc([("truth", N), ("be", V)])
    got = weight_shapes(extract_cooccurrences(doc))
    assert got == {("be", V, "truth", N, C): 1}


def test_cooccur_sentence_context_all_pairs():
    doc = mk_doc([("church", N), ("man", N), ("come", V)])
    got = weight_shapes(extract_cooccurrences(doc))
    assert got == {
        ("church", N, "man", N, C): 1,
        ("church", N, "come", V, C): 1,
        ("come", V, "man", N, C): 1,
    }


def test_cooccur_window_is_positional():
    # n1 v1 x x x x n2 with window 4: v1-n2 spans 5 positions, no pair
    doc = mk_doc(
        [("n1", N), ("v1", V), ("x", DET), ("x", DET), ("x", DET), ("x", DET), ("n2", N)]
    )
    got = weight_shapes(extract_cooccurrences(doc, window=4))
    assert got == {("n1", N, "v1", V, C): 1}


def test_cooccur_window_counts_noncontent_positions():
    doc = mk_doc([("a", N), ("x", DET), ("b", N)])
    assert sum(extract_cooccurrences(doc, window=2).values()) == 1
    assert sum(extract_cooccurrences(doc, window=1).values()) == 0


def test_cooccur_pos_filter():
    doc = mk_doc([("good", ADJ), ("man", N), ("he", PRON)])
    got = weight_shapes(extract_cooccurrences(doc))
    assert got == {("good", ADJ, "man", N, C): 1}


def test_cooccur_repeated_lemma_adds_weight():
    doc = mk_doc([("god", N), ("bless", V), ("god", N)])
    got = weight_shapes(extract_cooccurrences(doc))
    assert got == {("bless", V, "god", N, C): 2, ("god", N, "god", N, C): 1}
    # three occurrences pair with each other C(3, 2) = 3 times
    triple = mk_doc([("god", N), ("god", N), ("bless", V), ("god", N)])
    got = weight_shapes(extract_cooccurrences(triple))
    assert got == {("bless", V, "god", N, C): 3, ("god", N, "god", N, C): 3}
    got = weight_shapes(extract_cooccurrences(triple, window=1))
    assert got == {("bless", V, "god", N, C): 2, ("god", N, "god", N, C): 1}


def test_cooccur_canonical_endpoint_order():
    for sent in (
        [("zeal", N), ("act", V)],
        [("act", V), ("zeal", N)],
    ):
        for window in (None, 1):
            got = weight_shapes(extract_cooccurrences(mk_doc(sent), window=window))
            assert got == {("act", V, "zeal", N, C): 1}


def test_cooccur_does_not_cross_sentences():
    doc = mk_doc([("a", N)], [("b", N)])
    assert extract_cooccurrences(doc) == {}
    assert extract_cooccurrences(doc, window=3) == {}


def test_cooccur_bad_window():
    doc = mk_doc([("a", N), ("b", N)])
    with pytest.raises(ValueError):
        extract_cooccurrences(doc, window=0)


# content and non-content classes, few lemmas so that they repeat
_ORACLE_TOKENS = st.tuples(
    st.sampled_from(["a", "b", "c", "d"]), st.sampled_from([N, V, ADJ, PRON, DET, PUNCT])
)
_ORACLE_DOCS = st.lists(
    st.lists(_ORACLE_TOKENS, max_size=12), min_size=1, max_size=5
).map(lambda sentences: mk_doc(*sentences))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_ORACLE_DOCS, min_size=1, max_size=3),
    st.sampled_from([None, 1, 2, 3, 4, 5, 6]),
)
def test_cooccur_counts_match_record_oracle(docs, window):
    graphs, oracle_graphs = [], []
    for doc in docs:
        freqs = token_frequencies([doc])
        weights = extract_cooccurrences(doc, window=window)
        records = cooccurrence_records(doc, window=window)
        assert sum(weights.values()) == len(records)
        got = build_graph(weights, freqs)
        want = build_graph(records, freqs)
        assert got.nodes == want.nodes
        assert got.edges == want.edges
        got.validate()
        graphs.append(got)
        oracle_graphs.append(want)
    merged, oracle_merged = merge_graphs(graphs), merge_graphs(oracle_graphs)
    assert merged.nodes == oracle_merged.nodes
    assert merged.edges == oracle_merged.edges


# windowed verb-argument pairs


def test_pairs_basic_subject_object():
    doc = mk_doc([("man", N), ("see", V), ("truth", N)])
    got = shapes(extract_window_pairs(doc))
    assert got == [("man", N, "see", V, S), ("see", V, "truth", N, O)]


def test_pairs_nearest_noun_wins():
    doc = mk_doc([("far", N), ("near", N), ("see", V)])
    got = shapes(extract_window_pairs(doc))
    assert got == [("near", N, "see", V, S)]


def test_pairs_max_dist_boundary():
    # three intervening determiners: within reach at 3, not at 2
    sent = [("man", N), ("x", DET), ("x", DET), ("x", DET), ("see", V)]
    assert shapes(extract_window_pairs(mk_doc(sent), max_dist=3)) == [
        ("man", N, "see", V, S)
    ]
    assert extract_window_pairs(mk_doc(sent), max_dist=2) == []


def test_pairs_modal_skipped_not_blocking():
    doc = mk_doc([("tutor", N), ("must", MODAL), ("use", V)])
    got = shapes(extract_window_pairs(doc))
    assert ("tutor", N, "use", V, S) in got


def test_pairs_pronoun_never_selected():
    doc = mk_doc([("he", PRON), ("see", V), ("it", PRON), ("truth", N)])
    got = shapes(extract_window_pairs(doc))
    assert got == [("see", V, "truth", N, O)]


def test_pairs_verb_blocks_scan():
    doc = mk_doc([("man", N), ("go", V), ("see", V)])
    got = shapes(extract_window_pairs(doc, verb_blocker=True))
    # "see" cannot reach past "go"; "go" keeps its own subject
    assert ("man", N, "go", V, S) in got
    assert ("man", N, "see", V, S) not in got


def test_pairs_blocker_off_reaches_past_verbs():
    doc = mk_doc([("man", N), ("go", V), ("see", V)])
    got = shapes(extract_window_pairs(doc, verb_blocker=False))
    assert ("man", N, "see", V, S) in got


def test_pairs_punctuation_counts_toward_distance():
    sent = [("man", N), (",", PUNCT), (",", PUNCT), ("see", V)]
    assert shapes(extract_window_pairs(mk_doc(sent), max_dist=2)) == [
        ("man", N, "see", V, S)
    ]
    assert extract_window_pairs(mk_doc(sent), max_dist=1) == []


def test_pairs_do_not_cross_sentences():
    doc = mk_doc([("man", N)], [("see", V), ("truth", N)])
    got = shapes(extract_window_pairs(doc))
    assert got == [("see", V, "truth", N, O)]


def test_pairs_at_most_one_per_side():
    doc = mk_doc([("a", N), ("b", N), ("see", V), ("c", N), ("d", N)])
    got = [r.kind for r in extract_window_pairs(doc)]
    assert got == [S, O]


def test_pairs_reading_order_and_determinism():
    doc = mk_doc([("a", N), ("go", V), ("b", N), ("see", V), ("c", N)])
    first = extract_window_pairs(doc)
    assert first == extract_window_pairs(doc)
    verbs = [r.dst_lemma if r.kind is S else r.src_lemma for r in first]
    assert verbs == sorted(verbs, key=verbs.index)


# brute-force oracle for the window rule


def brute_force_pairs(doc, max_dist=4, verb_blocker=True):
    out = []
    for sent_idx, sent in enumerate(doc.sentences):
        for v_idx, v in enumerate(sent):
            if v.pos is not PosClass.VERB:
                continue
            for step in (-1, 1):
                j = v_idx + step
                found = None
                while 0 <= j < len(sent):
                    if abs(j - v_idx) - 1 > max_dist:
                        break
                    tok = sent[j]
                    if tok.pos is PosClass.VERB and verb_blocker:
                        break
                    if tok.pos is PosClass.NOUN:
                        found = tok
                        break
                    j += step
                if found is None:
                    continue
                if step < 0:
                    rec = PairRecord(
                        found.lemma, found.pos, v.lemma, v.pos, S,
                        doc.letter_id, sent_idx,
                    )
                else:
                    rec = PairRecord(
                        v.lemma, v.pos, found.lemma, found.pos, O,
                        doc.letter_id, sent_idx,
                    )
                out.append(rec)
    return out


def test_pairs_match_brute_force_on_random_sentences():
    rng = random.Random(20260823)
    classes = [N, V, PRON, MODAL, DET, ADJ, PUNCT]
    lemmas = ["a", "b", "c", "d"]
    for trial in range(300):
        sent = [
            (rng.choice(lemmas), rng.choice(classes))
            for _ in range(rng.randint(1, 10))
        ]
        doc = mk_doc(sent)
        max_dist = rng.randint(1, 5)
        blocker = rng.random() < 0.5
        got = extract_window_pairs(doc, max_dist=max_dist, verb_blocker=blocker)
        want = brute_force_pairs(doc, max_dist=max_dist, verb_blocker=blocker)
        assert got == want, (trial, sent, max_dist, blocker)


# anaphora


def test_apply_anaphora_replaces_pronoun():
    doc = mk_doc([("he", PRON), ("lead", V), ("child", N)])
    out = apply_anaphora(doc, {"T1": {(0, 0): "tutor"}})
    tok = out.sentences[0][0]
    assert tok.lemma == "tutor"
    assert tok.normalized == "tutor"
    assert tok.pos is N
    assert tok.surface == "he"
    assert type(tok) is Token
    assert tok == Token(surface="he", normalized="tutor", lemma="tutor", pos=N)
    # source doc untouched
    assert doc.sentences[0][0].pos is PRON


def test_apply_anaphora_changes_extraction():
    doc = mk_doc([("he", PRON), ("lead", V), ("child", N)])
    before = shapes(extract_window_pairs(doc))
    assert before == [("lead", V, "child", N, O)]
    out = apply_anaphora(doc, {"T1": {(0, 0): "tutor"}})
    after = shapes(extract_window_pairs(out))
    assert ("tutor", N, "lead", V, S) in after


def test_apply_anaphora_empty_map_is_noop():
    doc = mk_doc([("he", PRON), ("go", V)])
    assert apply_anaphora(doc, {}) is doc


def test_apply_anaphora_rejects_non_pronoun():
    doc = mk_doc([("man", N), ("go", V)])
    with pytest.raises(InputError, match="0"):
        apply_anaphora(doc, {"T1": {(0, 0): "tutor"}})


def test_apply_anaphora_rejects_bad_position():
    doc = mk_doc([("he", PRON)])
    with pytest.raises(InputError):
        apply_anaphora(doc, {"T1": {(0, 9): "x"}})
    with pytest.raises(InputError):
        apply_anaphora(doc, {"T1": {(5, 0): "x"}})


def test_anaphora_map_from_file(tmp_path):
    p = tmp_path / "a.tsv"
    p.write_text("# comment\nL01\t1\t15\ttutor\n", encoding="utf-8")
    assert load_anaphora(p) == {"L01": {(1, 15): "tutor"}}


def test_load_anaphora_groups_interleaved_letters_in_file_order(tmp_path):
    p = tmp_path / "a.tsv"
    p.write_text(
        "L02\t3\t1\tchild\nL01\t1\t15\ttutor\nL02\t0\t4\tGod\nL01\t0\t2\tman\n",
        encoding="utf-8",
    )
    amap = load_anaphora(p)
    assert list(amap) == ["L02", "L01"]
    assert list(amap["L01"].items()) == [((1, 15), "tutor"), ((0, 2), "man")]
    assert list(amap["L02"].items()) == [((3, 1), "child"), ((0, 4), "god")]
    # a letter without rows gets its own document back
    doc = mk_doc([("he", PRON), ("go", V)], letter_id="L03")
    assert apply_anaphora(doc, amap) is doc


def test_anaphora_map_file_errors(tmp_path):
    p = tmp_path / "a.tsv"
    p.write_text("L01\t1\ttutor\n", encoding="utf-8")
    with pytest.raises(InputError, match="4"):
        load_anaphora(p)
    p.write_text("L01\tx\t1\ttutor\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_anaphora(p)
    # the same position in another letter is no repeat; in the same letter it is
    p.write_text("L01\t1\t15\ttutor\nL02\t1\t15\tchild\nL01\t1\t15\tzzz\n", encoding="utf-8")
    with pytest.raises(
        InputError, match=r"a\.tsv:3: sentence 1, token 15 of L01 repeats an earlier row"
    ):
        load_anaphora(p)


def test_anaphora_replacement_casefolds_like_the_annotator(tmp_path, annotator):
    # the annotator folds "Goſpel" to "gospel", so the replacement must too
    p = tmp_path / "a.tsv"
    p.write_text("A\t0\t0\tGoſpel\n", encoding="utf-8")
    doc = apply_anaphora(annotator.annotate_text("A", "It is true."), load_anaphora(p))
    assert doc.sentences[0][0] == Token("It", "gospel", "gospel", N)
    assert ("gospel", N) in cooccurrence_graph([doc]).nodes


# gold triples and scoring


def test_gold_triple_needs_argument():
    with pytest.raises(ValueError):
        GoldTriple("L1", 0, "see", None, None)


def test_load_gold(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text(
        "# comment\nL1\t0\tsee\tman\ttruth\nL1\t1\tgo\t-\tway\n", encoding="utf-8"
    )
    triples = load_gold(p)
    assert len(triples) == 2
    assert triples[0].subj_lemma == "man"
    assert triples[1].subj_lemma is None
    assert triples[1].obj_lemma == "way"


def test_gold_lemmas_casefold_like_the_annotator(tmp_path, annotator):
    # str.lower would keep the long s of "Goſpel", and the object would never match
    p = tmp_path / "g.tsv"
    p.write_text("A\t0\tread\t-\tGoſpel\n", encoding="utf-8")
    assert load_gold(p)[0].obj_lemma == "gospel"
    doc = annotator.annotate_text("A", "Men read the Goſpel.")
    assert evaluate_pairs(extract_window_pairs(doc), load_gold(p)).obj.true_positives == 1


def test_load_gold_errors(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("L1\t0\tsee\tman\n", encoding="utf-8")
    with pytest.raises(InputError, match="5"):
        load_gold(p)
    p.write_text("L1\tzero\tsee\tman\ttruth\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_gold(p)
    p.write_text("L1\t0\tsee\t-\t-\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_gold(p)


def _rec(verb, noun, kind, sent=0, letter="L1"):
    if kind is S:
        return PairRecord(noun, N, verb, V, S, letter, sent)
    return PairRecord(verb, V, noun, N, O, letter, sent)


def test_evaluate_confusion_counts():
    auto = [_rec("see", "man", S), _rec("see", "truth", O), _rec("go", "way", O)]
    gold = [
        GoldTriple("L1", 0, "see", "man", "light"),
        GoldTriple("L1", 0, "go", None, "way"),
    ]
    report = evaluate_pairs(auto, gold)
    assert report.overall.true_positives == 2
    assert report.overall.n_auto == 3
    assert report.overall.n_gold == 3
    assert report.overall.precision == pytest.approx(2 / 3)
    assert report.overall.recall == pytest.approx(2 / 3)


def test_evaluate_multiset_matching():
    # the same pair twice in auto but once in gold: one tp, one fp
    auto = [_rec("see", "man", S), _rec("see", "man", S)]
    gold = [GoldTriple("L1", 0, "see", "man", None)]
    rep = evaluate_pairs(auto, gold)
    assert rep.overall.true_positives == 1
    assert rep.overall.n_auto == 2


def test_evaluate_sentence_scoped():
    auto = [_rec("see", "man", S, sent=1)]
    gold = [GoldTriple("L1", 0, "see", "man", None)]
    assert evaluate_pairs(auto, gold).overall.true_positives == 0


def test_evaluate_empty_auto():
    gold = [GoldTriple("L1", 0, "see", "man", None)]
    rep = evaluate_pairs([], gold)
    assert rep.overall.precision is None
    assert rep.overall.recall == 0.0
    assert rep.overall.f1 is None


def test_evaluate_empty_gold():
    rep = evaluate_pairs([_rec("see", "man", S)], [])
    assert rep.overall.recall is None
    assert rep.overall.precision == 0.0


def test_evaluate_zero_scores_give_zero_f1():
    auto = [_rec("see", "man", S)]
    gold = [GoldTriple("L1", 0, "go", None, "way")]
    rep = evaluate_pairs(auto, gold)
    assert rep.overall.precision == 0.0
    assert rep.overall.recall == 0.0
    assert rep.overall.f1 == 0.0


def test_report_format_has_kind_rows():
    rep = evaluate_pairs([_rec("see", "man", S)], [GoldTriple("L1", 0, "see", "man", None)])
    text = rep.format()
    assert "SUBJ" in text and "OBJ" in text and "overall" in text
    assert "n/a" in text  # OBJ has no gold and no auto


# frozen fixture scores for the bundled corpus

L01_EXPECTED = {
    "overall": (21, 43, 29),
    "subj": (8, 20, 15),
    "obj": (13, 23, 14),
}


def test_evaluate_bundled_gold_fixture(annotator, sample_corpus):
    from conftest import SAMPLE_DIR

    doc = annotator.annotate(sample_corpus[0])
    assert doc.letter_id == "L01"
    doc = apply_anaphora(doc, load_anaphora(SAMPLE_DIR / "anaphora_l01.tsv"))
    records = extract_window_pairs(doc, max_dist=4, verb_blocker=True)
    gold = load_gold(SAMPLE_DIR / "gold_l01.tsv")
    rep = evaluate_pairs(records, gold)
    for name, (tp, n_auto, n_gold) in L01_EXPECTED.items():
        scores = getattr(rep, name)
        assert scores.true_positives == tp
        assert scores.n_auto == n_auto
        assert scores.n_gold == n_gold
    assert rep.overall.precision == pytest.approx(21 / 43)
    assert rep.overall.recall == pytest.approx(21 / 29)
    assert rep.overall.f1 == pytest.approx(42 / 72)
