"""Letter loading and transcription cleaning."""

import pytest
from hypothesis import given, strategies as st

from letternet.corpus import (
    CleaningConfig,
    Corpus,
    Letter,
    LetterLoadError,
    LetterMeta,
    ManifestError,
    clean_text,
    filter_corpus,
    load_letter,
    load_manifest,
)

from conftest import MANIFEST


def meta(letter_id="X1", year=1630, **kw):
    defaults = dict(
        sender="Dury", addressee="Hartlib", year_uncertain=False, language="en"
    )
    defaults.update(kw)
    return LetterMeta(letter_id=letter_id, year=year, **defaults)


# cleaning


def test_markup_stripped():
    assert clean_text("a <gap> b") == "a b"
    assert clean_text("<pb n='3'/>word") == "word"


def test_bracketed_spans_dropped():
    assert clean_text("one [fol. 1r] two") == "one two"
    assert clean_text("[catchword: This] This one") == "This one"


def test_unbalanced_brackets_kept():
    assert clean_text("a [ b") == "a [ b"
    assert clean_text("a ] b") == "a ] b"


def test_nested_brackets_kept():
    text = "a [x [y] z] b"
    assert clean_text(text) == "a [x [y] z] b"


def test_hyphenation_rejoined():
    assert clean_text("consi-\nderacion of") == "consideracion of"
    # hyphen not followed by a line break stays
    assert clean_text("well-doing") == "well-doing"


def test_cut_marker_truncates():
    cfg = CleaningConfig(cut_marker="Hierauff")
    assert clean_text("english text. Hierauff wird ein", cfg) == "english text."
    # marker absent: no change
    assert clean_text("english text.", cfg) == "english text."


def test_whitespace_collapsed():
    assert clean_text("a\n\n  b\tc") == "a b c"


def test_cleaning_disabled_flags():
    cfg = CleaningConfig(strip_markup=False, drop_bracketed=False, rejoin_hyphenation=False)
    assert clean_text("a <gap> [x] b", cfg) == "a <gap> [x] b"


@pytest.mark.parametrize("text", ["<<>>", "x <<g>> y"])
def test_nested_markup_cleaned_idempotently(text):
    once = clean_text(text)
    assert "<" not in once and ">" not in once
    assert clean_text(once) == once


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200))
def test_cleaning_idempotent(text):
    once = clean_text(text)
    assert clean_text(once) == once


# metadata


def test_year_out_of_range_rejected():
    with pytest.raises(ValueError):
        meta(year=1300)
    with pytest.raises(ValueError):
        meta(year=2001)


def test_empty_letter_id_rejected():
    with pytest.raises(ValueError):
        meta(letter_id="")


# letters from disk


def test_load_letter_missing_file(tmp_path):
    with pytest.raises(LetterLoadError, match="X1"):
        load_letter(tmp_path / "nope.txt", meta())


def test_load_letter_bad_encoding(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"ok \xff\xfe bad")
    with pytest.raises(LetterLoadError, match="byte"):
        load_letter(p, meta())


def test_load_letter_cleans(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text("hello <gap> [note] world", encoding="utf-8")
    letter = load_letter(p, meta())
    assert letter.raw_text == "hello <gap> [note] world"
    assert letter.clean_text == "hello world"


# corpus container


def _letter(lid, year):
    m = meta(letter_id=lid, year=year)
    return Letter(meta=m, raw_text="t", clean_text="t")


def test_corpus_sorted_by_year_then_id():
    c = Corpus([_letter("B", 1650), _letter("A", 1650), _letter("C", 1600)])
    assert c.ids() == ["C", "A", "B"]


def test_corpus_duplicate_id_rejected():
    with pytest.raises(ManifestError, match="duplicate"):
        Corpus([_letter("A", 1600), _letter("A", 1601)])


def test_corpus_get():
    c = Corpus([_letter("A", 1600)])
    assert c.get("A").meta.year == 1600
    with pytest.raises(KeyError):
        c.get("nope")


def test_filter_corpus():
    c = Corpus([_letter("A", 1600), _letter("B", 1650)])
    late = filter_corpus(c, lambda m: m.year >= 1650)
    assert late.ids() == ["B"]
    assert c.ids() == ["A", "B"]


# manifest files


def test_load_manifest_sample():
    corpus = load_manifest(MANIFEST)
    assert len(corpus) == 13
    assert corpus.ids()[0] == "L01"
    l01 = corpus.get("L01")
    assert l01.meta.year == 1628
    assert l01.meta.year_uncertain
    # the German tail is cut before cleaning
    assert "Hierauff" not in l01.clean_text
    assert "folgen" not in l01.clean_text
    l07 = corpus.get("L07")
    assert l07.meta.addressee is None


def test_load_manifest_missing_columns(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("letter_id\tsender\nA\tDury\n", encoding="utf-8")
    with pytest.raises(ManifestError, match="columns"):
        load_manifest(p)


def test_load_manifest_bad_year(tmp_path):
    p = tmp_path / "m.tsv"
    (tmp_path / "a.txt").write_text("x", encoding="utf-8")
    p.write_text(
        "letter_id\tsender\taddressee\tyear\tyear_uncertain\tlanguage\tfile\n"
        "A\tDury\t-\tnot_a_year\tfalse\ten\ta.txt\n",
        encoding="utf-8",
    )
    with pytest.raises(ManifestError, match=":2"):
        load_manifest(p)


def test_load_manifest_bad_bool(tmp_path):
    p = tmp_path / "m.tsv"
    (tmp_path / "a.txt").write_text("x", encoding="utf-8")
    p.write_text(
        "letter_id\tsender\taddressee\tyear\tyear_uncertain\tlanguage\tfile\n"
        "A\tDury\t-\t1630\tmaybe\ten\ta.txt\n",
        encoding="utf-8",
    )
    with pytest.raises(ManifestError, match="boolean"):
        load_manifest(p)


def test_load_manifest_skips_comments_and_blank_lines(tmp_path):
    p = tmp_path / "m.tsv"
    (tmp_path / "a.txt").write_text("x", encoding="utf-8")
    p.write_text(
        "# corpus of one letter\n"
        "letter_id\tsender\taddressee\tyear\tyear_uncertain\tlanguage\tfile\n"
        "\n"
        "# A, undated copy\n"
        "A\tDury\t-\t1630\tyes\ten\ta.txt\n",
        encoding="utf-8",
    )
    corpus = load_manifest(p)
    assert corpus.ids() == ["A"]
    assert corpus.get("A").meta.year_uncertain


def test_load_manifest_not_found(tmp_path):
    with pytest.raises(ManifestError, match="not found"):
        load_manifest(tmp_path / "absent.tsv")


@pytest.mark.parametrize("letter_id", ["../../escaped", "a/b", "a\\b", "a\0b", ".", ".."])
def test_load_manifest_rejects_unsafe_letter_id(tmp_path, letter_id):
    p = tmp_path / "m.tsv"
    (tmp_path / "a.txt").write_text("x", encoding="utf-8")
    p.write_text(
        "letter_id\tsender\taddressee\tyear\tyear_uncertain\tlanguage\tfile\n"
        f"{letter_id}\tDury\t-\t1630\tfalse\ten\ta.txt\n",
        encoding="utf-8",
    )
    with pytest.raises(ManifestError, match=r"m\.tsv:2: letter_id .* not a plain file name"):
        load_manifest(p)
