from itertools import combinations

import pytest

from letternet.network import LexicalGraph
from letternet.pipeline import AnnotatedDoc, PosClass, Token, data_path
from letternet.extraction import DEFAULT_CONTENT_CLASSES, PairRecord, RelationKind


SAMPLE_DIR = data_path("sample_corpus")
MANIFEST = SAMPLE_DIR / "manifest.tsv"

N = PosClass.NOUN
V = PosClass.VERB

def one_row_manifest(tmp_path, letter_id, year):
    """Write a manifest m.tsv of one letter, whose file a.txt exists; return its path."""
    (tmp_path / "a.txt").write_text("x", encoding="utf-8")
    p = tmp_path / "m.tsv"
    # letter_id is an inner column, so that an empty id survives the row's strip
    p.write_text(
        "sender\tletter_id\taddressee\tyear\tyear_uncertain\tlanguage\tfile\n"
        f"Dury\t{letter_id}\t-\t{year}\tfalse\ten\ta.txt\n",
        encoding="utf-8",
    )
    return p


def mk_sentence(spec):
    """Build a token tuple from (lemma, PosClass) pairs.

    Surface and normalized forms reuse the lemma; good enough for
    extraction and graph tests that never look at spelling.
    """
    return tuple(
        Token(surface=lemma, normalized=lemma, lemma=lemma, pos=pos) for lemma, pos in spec
    )


def mk_doc(*sentences, letter_id="T1"):
    sents = tuple(mk_sentence(spec) for spec in sentences)
    return AnnotatedDoc(letter_id=letter_id, sentences=sents)


def cooccurrence_records(doc, window=None):
    """One COOCCUR record for every pair of content tokens in context."""
    records = []
    for sent_idx, sentence in enumerate(doc.sentences):
        content = [(i, t) for i, t in enumerate(sentence) if t.pos in DEFAULT_CONTENT_CLASSES]
        for (i, a), (j, b) in combinations(content, 2):
            if window is not None and abs(i - j) > window:
                continue
            first, second = sorted((a, b), key=lambda t: (t.lemma, t.pos.name))
            records.append(
                PairRecord(
                    first.lemma, first.pos, second.lemma, second.pos, RelationKind.COOCCUR,
                    doc.letter_id, sent_idx,
                )
            )
    return records


@pytest.fixture
def toy_graph():
    """Small mixed graph: one undirected edge, two directed, one self loop."""
    nodes = {
        ("god", N): 5,
        ("see", V): 4,
        ("truth", N): 3,
        ("man", N): 2,
    }
    edges = {
        (("god", N), ("truth", N), RelationKind.COOCCUR): 3,
        (("see", V), ("truth", N), RelationKind.OBJ): 2,
        (("man", N), ("see", V), RelationKind.SUBJ): 1,
        (("god", N), ("god", N), RelationKind.COOCCUR): 2,
    }
    return LexicalGraph(nodes=nodes, edges=edges)


@pytest.fixture(scope="session")
def annotator():
    from letternet import default_annotator

    return default_annotator()


@pytest.fixture(scope="session")
def sample_corpus():
    from letternet import load_manifest

    return load_manifest(MANIFEST)
