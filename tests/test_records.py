"""The record types: equality, hashing, immutability, pickling and repr.

The plain records are NamedTuples, the validating ones NamedTuples with
a checking ``__new__``, and the rest small classes with the same
behaviour as before: equal fields give equal objects, frozen types
refuse assignment and deletion, and every type survives ``pickle`` and
``deepcopy``.
"""

import copy
import pickle

import pytest

from letternet.cli import RunConfig
from letternet.corpus import Letter, LetterMeta
from letternet.extraction import EvalReport, GoldTriple, PairRecord, RelationKind, Scores
from letternet.network import LexicalGraph
from letternet.pipeline import (
    AnnotatedDoc,
    Annotator,
    PosClass,
    Token,
    VariantEntry,
    default_annotator,
)

N = PosClass.NOUN
TYPE_NAMES = (
    "RunConfig", "LetterMeta", "Letter", "PairRecord", "GoldTriple", "Scores",
    "EvalReport", "LexicalGraph", "AnnotatedDoc", "VariantEntry", "Annotator",
)
MUTABLE = {"LexicalGraph"}
# fields that are dicts make a record unhashable
UNHASHABLE = MUTABLE | {"Annotator"}


def _instances(annotator):
    meta = LetterMeta("A", "Dury", None, 1630)
    scores = Scores(0.5, 0.25, 1 / 3, 1, 2, 4)
    return {
        "RunConfig": RunConfig(manifest="m.tsv", formats=("gexf", "json")),
        "LetterMeta": meta,
        "Letter": Letter(meta, "raw", "clean"),
        "PairRecord": PairRecord("man", N, "see", PosClass.VERB, RelationKind.SUBJ, "A", 0),
        "GoldTriple": GoldTriple("A", 0, "see", "man", None),
        "Scores": scores,
        "EvalReport": EvalReport(scores, scores, scores),
        "LexicalGraph": LexicalGraph(nodes={("man", N): 2}, edges={}),
        "AnnotatedDoc": AnnotatedDoc("A", ((Token("Man", "man", "man", N),),)),
        "VariantEntry": VariantEntry("use", PosClass.VERB, None),
        "Annotator": Annotator(
            annotator.variants, annotator.words, annotator.exceptions,
            annotator.abbreviations, colon_boundary=True,
        ),
    }


@pytest.fixture(scope="module")
def pairs():
    annotator = default_annotator()
    first, second = _instances(annotator), _instances(annotator)
    return {name: (first[name], second[name]) for name in first}


def test_all_record_types_covered(pairs):
    assert len(TYPE_NAMES) == 11 and sorted(pairs) == sorted(TYPE_NAMES)
    assert all(type(obj).__name__ == name for name, (obj, _) in pairs.items())


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_record_behaviour(pairs, name):
    obj, twin = pairs[name]
    assert obj == twin and not obj != twin
    if not isinstance(obj, tuple):
        # a class record is not equal to the tuple of its field values
        assert obj != tuple(getattr(obj, field) for field in type(obj)._fields)
    assert repr(obj).startswith(f"{name}(")
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(twin)
    field = type(obj)._fields[0]
    if name in MUTABLE:
        setattr(obj, field, getattr(obj, field))
    else:
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            delattr(obj, field)
    for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(clone) is type(obj)
        assert clone == obj
        if name == "Annotator":
            text = "The Tutour doth vse the booke. Mr. Dury came: he wrote."
            assert clone.annotate_text("T", text) == obj.annotate_text("T", text)


def test_annotated_doc_length_counts_tokens():
    token = Token("a", "a", "a", N)
    assert len(AnnotatedDoc("A", ((token, token), (token,)))) == 3


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: LetterMeta("", "s", None, 1600), "letter_id must be non-empty"),
        (lambda: LetterMeta("a/b", "s", None, 1600), "'a/b' is not a plain file name"),
        (lambda: LetterMeta("..", "s", None, 1600), "'..' is not a plain file name"),
        (lambda: LetterMeta(letter_id="A", sender="s", addressee=None, year=10),
         "letter 'A': year 10 outside plausible range 1400..1900"),
        (lambda: GoldTriple("A", 0, "see", None, None),
         "gold triple for 'see' needs a subject or an object"),
    ],
)
def test_validating_records_still_raise(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_validating_records_keep_defaults_and_keywords():
    meta = LetterMeta(letter_id="A", sender="s", addressee=None, year=1600)
    assert (meta.year_uncertain, meta.language) == (False, "en")
    assert pickle.loads(pickle.dumps(meta)) == meta
    assert GoldTriple("A", 0, "go", obj_lemma="way", subj_lemma=None).obj_lemma == "way"


def test_replace_runs_the_checks():
    meta = LetterMeta("A", "s", None, 1600)
    assert meta._replace(year=1700).year == 1700
    with pytest.raises(ValueError, match="not a plain file name"):
        meta._replace(letter_id="a/b")
    with pytest.raises(ValueError, match="needs a subject or an object"):
        GoldTriple("A", 0, "see", "man", None)._replace(subj_lemma=None)
