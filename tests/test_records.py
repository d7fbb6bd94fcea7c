"""The record types: equality, hashing, immutability, pickling and repr.

Every record is a NamedTuple except ``AnnotatedDoc``, whose length is
its token count, written out by hand with the same behaviour: equal
fields give equal objects, fields refuse assignment and deletion, and
every type survives ``pickle`` and ``deepcopy``.  An ``Annotator`` is no
record: it compares by identity.
"""

import copy
import pickle
import re
from pathlib import Path

import pytest

from letternet.cli import RunConfig
from letternet.corpus import Letter, LetterMeta, load_manifest
from letternet.evaluation import EvalReport, GoldTriple, Scores, load_gold
from letternet.extraction import PairRecord, RelationKind
from letternet.network import LexicalGraph
from letternet.pipeline import (
    AnnotatedDoc,
    InputError,
    PosClass,
    Token,
    VariantEntry,
    default_annotator,
)

from conftest import one_row_manifest

N = PosClass.NOUN
TYPE_NAMES = (
    "RunConfig", "LetterMeta", "Letter", "PairRecord", "GoldTriple", "Scores",
    "EvalReport", "LexicalGraph", "AnnotatedDoc", "VariantEntry",
)
# fields that are dicts make a record unhashable
UNHASHABLE = {"LexicalGraph"}


def _instances():
    meta = LetterMeta("A", "Dury", None, 1630)
    scores = Scores(0.5, 0.25, 1 / 3, 1, 2, 4)
    return {
        "RunConfig": RunConfig(manifest="m.tsv", formats=("gexf", "json")),
        "LetterMeta": meta,
        "Letter": Letter(meta, "raw", "clean", Path("a.txt")),
        "PairRecord": PairRecord("man", N, "see", PosClass.VERB, RelationKind.SUBJ, "A", 0),
        "GoldTriple": GoldTriple("A", 0, "see", "man", None),
        "Scores": scores,
        "EvalReport": EvalReport(scores, scores, scores),
        "LexicalGraph": LexicalGraph(nodes={("man", N): 2}, edges={}),
        "AnnotatedDoc": AnnotatedDoc("A", ((Token("Man", "man", "man", N),),)),
        "VariantEntry": VariantEntry("use", PosClass.VERB, None),
    }


@pytest.fixture(scope="module")
def pairs():
    first, second = _instances(), _instances()
    return {name: (first[name], second[name]) for name in first}


def test_all_record_types_covered(pairs):
    assert len(TYPE_NAMES) == 10 and sorted(pairs) == sorted(TYPE_NAMES)
    assert all(type(obj).__name__ == name for name, (obj, _) in pairs.items())
    assert [name for name, (obj, _) in pairs.items() if not isinstance(obj, tuple)] == [
        "AnnotatedDoc"
    ]


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_record_behaviour(pairs, name):
    obj, twin = pairs[name]
    assert obj == twin and not obj != twin
    if isinstance(obj, tuple):
        fields = type(obj)._fields
    else:
        fields = obj.__slots__
        # a class record is not equal to the tuple of its field values
        assert obj != tuple(getattr(obj, field) for field in fields)
    assert repr(obj).startswith(f"{name}(")
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(obj, fields[0], getattr(obj, fields[0]))
    with pytest.raises(AttributeError):
        delattr(obj, fields[0])
    for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(clone) is type(obj)
        assert clone == obj


def test_annotator_clone_annotates_alike():
    annotator = default_annotator(colon_boundary=True)
    text = "The Tutour doth vse the booke. Mr. Dury came: he wrote."
    before = annotator.annotate_text("T", text)
    # the memo travels with the tables, so each clone starts where the original stands
    for clone in (pickle.loads(pickle.dumps(annotator)), copy.deepcopy(annotator)):
        assert clone.annotate_text("T", text) == before
        assert clone._forms.keys() == annotator._forms.keys()
        assert clone._chunks.keys() == annotator._chunks.keys()


def test_annotated_doc_length_counts_tokens():
    token = Token("a", "a", "a", N)
    assert len(AnnotatedDoc("A", ((token, token), (token,)))) == 3


def _manifest(tmp_path, letter_id, year):
    return load_manifest(one_row_manifest(tmp_path, letter_id, year))


def _gold(tmp_path, row):
    p = tmp_path / "g.tsv"
    p.write_text(row + "\n", encoding="utf-8")
    return load_gold(p)


# LetterMeta and GoldTriple check nothing; the loaders that build them
# from outside input do
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda tmp: _manifest(tmp, "", 1600), "letter_id must be non-empty"),
        (lambda tmp: _manifest(tmp, "a/b", 1600), "'a/b' is not a plain file name"),
        (lambda tmp: _manifest(tmp, "..", 1600), "'..' is not a plain file name"),
        (lambda tmp: _manifest(tmp, "A", 10),
         "letter 'A': year 10 outside plausible range 1400..1900"),
        (lambda tmp: _gold(tmp, "A\t0\tsee\t-\t-"),
         "gold triple for 'see' needs a subject or an object"),
    ],
)
def test_validating_records_still_raise(tmp_path, make, message):
    with pytest.raises(InputError, match=r"\.tsv:\d: (letter_id )?" + re.escape(message)):
        make(tmp_path)


def test_validating_records_keep_defaults_and_keywords():
    meta = LetterMeta(letter_id="A", sender="s", addressee=None, year=1600)
    assert (meta.year_uncertain, meta.language) == (False, "en")
    assert pickle.loads(pickle.dumps(meta)) == meta
    assert GoldTriple("A", 0, "go", obj_lemma="way", subj_lemma=None).obj_lemma == "way"
