import pytest

from letternet.network import LexicalGraph
from letternet.pipeline import AnnotatedDoc, PosClass, Token, data_path
from letternet.extraction import RelationKind


SAMPLE_DIR = data_path("sample_corpus")
MANIFEST = SAMPLE_DIR / "manifest.tsv"

N = PosClass.NOUN
V = PosClass.VERB


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
