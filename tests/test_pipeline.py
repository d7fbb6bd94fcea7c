"""Sentence split, tokenization, spelling normalization, tagging, lemmas."""

import codecs
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from letternet.pipeline import (
    Annotator,
    ExportError,
    Lemmatizer,
    LexiconFormatError,
    PosClass,
    RuleTagger,
    SplitConfig,
    VariantEntry,
    VariantLexicon,
    VerticalFormatError,
    data_path,
    default_annotator,
    ingest_pretagged,
    modernize_spelling,
    split_sentences,
    tokenize,
    write_vertical,
)

from conftest import mk_doc, N, V


# sentence splitting


def test_split_basic():
    assert split_sentences("One two. Three four.") == ["One two.", "Three four."]


def test_split_terminator_runs():
    # a run of terminators closes one sentence; an ellipsis also ends one
    assert split_sentences("What?! So it goes.") == ["What?!", "So it goes."]
    assert split_sentences("Yes... indeed.") == ["Yes...", "indeed."]


def test_split_closers_attach():
    got = split_sentences('He said (so.) Then left.')
    assert got == ["He said (so.)", "Then left."]


def test_split_abbreviations_not_boundaries():
    cfg = SplitConfig(abbreviations=frozenset({"mr", "st"}))
    got = split_sentences("Mr. Hartlib wrote. St. Amand read.", cfg)
    assert got == ["Mr. Hartlib wrote.", "St. Amand read."]


def test_split_colon_toggle():
    text = "First this: and then that."
    assert split_sentences(text) == [text]
    cfg = SplitConfig(colon_boundary=True)
    assert split_sentences(text, cfg) == ["First this:", "and then that."]


def test_split_tail_without_terminator_kept():
    assert split_sentences("No full stop here") == ["No full stop here"]


def test_split_empty():
    assert split_sentences("   ") == []


# tokenization


def test_tokenize_words_and_punct():
    assert tokenize("Wee see, and know.") == ["Wee", "see", ",", "and", "know", "."]


def test_tokenize_apostrophe_and_ellipsis():
    assert tokenize("don't stop...") == ["don't", "stop", "..."]


def test_tokenize_ampersand_and_digits():
    assert tokenize("care & 12 moe") == ["care", "&", "12", "moe"]


# variant lexicon and spelling modernization


@pytest.fixture(scope="module")
def variants():
    return VariantLexicon.from_file(data_path("variant_lexicon.tsv"))


@pytest.fixture(scope="module")
def tagger():
    return RuleTagger.from_file(data_path("tagger_lexicon.tsv"))


def test_required_variant_entries(variants):
    wanted = {
        "bee": ("be", PosClass.VERB),
        "wee": ("we", PosClass.PRON),
        "hee": ("he", PosClass.PRON),
        "shee": ("she", PosClass.PRON),
        "trueth": ("truth", PosClass.NOUN),
        "falshood": ("falsehood", PosClass.NOUN),
        "shew": ("show", PosClass.VERB),
        "vse": ("use", PosClass.VERB),
        "tutour": ("tutor", PosClass.NOUN),
        "doe": ("do", PosClass.VERB),
        "leade": ("lead", PosClass.VERB),
    }
    for surface, (normalized, pos) in wanted.items():
        entry = variants.lookup(surface)
        assert entry is not None, surface
        assert entry.normalized == normalized
        assert entry.pos is pos
    seene = variants.lookup("seene")
    assert seene.normalized == "seen" and seene.lemma == "see"


def test_variant_lookup_casefolds(variants):
    assert variants.lookup("Tutour") is not None
    assert variants.lookup("TUTOUR") is not None


def test_variant_lookup_miss(variants):
    assert variants.lookup("modern") is None


def test_variant_file_errors(tmp_path):
    p = tmp_path / "v.tsv"
    p.write_text("onlytwo\tcolumns\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError, match=":1"):
        VariantLexicon.from_file(p)
    p.write_text("word\tnorm\tNOTACLASS\t-\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError, match="NOTACLASS"):
        VariantLexicon.from_file(p)
    # a trailing tab leaves an empty lemma, not a fourth field
    p.write_text("vse\tuse\t-\t\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError, match=":1: expected 4 tab-separated fields, got 3"):
        VariantLexicon.from_file(p)
    p.write_text("# lexicon\ntutour\ttutor\tNOUN\ttu\x02tor\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError, match=r"v\.tsv:2: control character U\+0002"):
        VariantLexicon.from_file(p)


def test_variant_lexicon_with_byte_order_mark(tmp_path):
    p = tmp_path / "v.tsv"
    p.write_bytes(codecs.BOM_UTF8 + b"vse\tuse\tVERB\t-\ntutour\ttutor\tNOUN\t-\n")
    lexicon = VariantLexicon.from_file(p)
    assert lexicon.lookup("vse") == VariantEntry("use", PosClass.VERB, None)
    assert lexicon.lookup("tutour") == VariantEntry("tutor", PosClass.NOUN, None)


def test_modernize_uv_swap(tagger):
    assert modernize_spelling("vpon", tagger.known) == "upon"
    assert modernize_spelling("euery", tagger.known) == "every"
    assert modernize_spelling("haue", tagger.known) == "have"


def test_modernize_ij_swap(tagger):
    assert modernize_spelling("ioy", tagger.known) == "joy"


def test_modernize_two_swaps(tagger):
    # one u->v and one v->u in the same word
    assert modernize_spelling("vnmoued", lambda w: w == "unmoved") == "unmoved"


def test_modernize_initial_v_fallback(tagger):
    # not validated by the lexicon, still normalized by the initial-v rule
    assert modernize_spelling("vnknowable", tagger.known) == "unknowable"


def test_modernize_leaves_known_words(tagger):
    assert modernize_spelling("have", tagger.known) == "have"
    assert modernize_spelling("light", tagger.known) == "light"


# tagging


def test_tagger_lexicon_first(tagger):
    assert tagger.tag("church") is PosClass.NOUN
    assert tagger.tag("move") is PosClass.VERB
    assert tagger.tag("must") is PosClass.MODAL
    assert tagger.tag("he") is PosClass.PRON


def test_tagger_suffixes(tagger):
    assert tagger.tag("newly") is PosClass.ADV
    assert tagger.tag("seeking") is PosClass.VERB
    assert tagger.tag("pacification") is PosClass.NOUN
    assert tagger.tag("prudency") is PosClass.NOUN


def test_tagger_capitalized_unknown_is_noun(annotator):
    # the tagger sees only the normalised (lower-cased) form
    tok = annotator.annotate_text("T", "Comenius").sentences[0][0]
    assert (tok.normalized, tok.pos) == ("comenius", PosClass.NOUN)


def test_tagger_default_noun(tagger):
    assert tagger.tag("qwxz") is PosClass.NOUN


def test_tagger_file_errors(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("word\tNOPE\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError, match="NOPE"):
        RuleTagger.from_file(p)


# lemmatization


@pytest.fixture(scope="module")
def lemmatizer(tagger):
    return Lemmatizer.from_file(data_path("lemma_exceptions.tsv"), known_as=tagger.known_as)


def test_lemma_exceptions(lemmatizer):
    assert lemmatizer.lemmatize("is", PosClass.VERB) == "be"
    assert lemmatizer.lemmatize("went", PosClass.VERB) == "go"
    assert lemmatizer.lemmatize("children", PosClass.NOUN) == "child"
    assert lemmatizer.lemmatize("men", PosClass.NOUN) == "man"


def test_lemma_verb_rules(lemmatizer):
    assert lemmatizer.lemmatize("eating", PosClass.VERB) == "eat"
    assert lemmatizer.lemmatize("carries", PosClass.VERB) == "carry"
    assert lemmatizer.lemmatize("stirred", PosClass.VERB) == "stir"
    assert lemmatizer.lemmatize("moved", PosClass.VERB) == "move"
    assert lemmatizer.lemmatize("comes", PosClass.VERB) == "come"
    # -es after a known stem must not overshoot to "us"
    assert lemmatizer.lemmatize("uses", PosClass.VERB) == "use"
    assert lemmatizer.lemmatize("used", PosClass.VERB) == "use"


def test_lemma_noun_rules(lemmatizer):
    assert lemmatizer.lemmatize("churches", PosClass.NOUN) == "church"
    assert lemmatizer.lemmatize("cities", PosClass.NOUN) == "city"
    assert lemmatizer.lemmatize("things", PosClass.NOUN) == "thing"
    # guards: -ss, -us, -is endings are singular already
    assert lemmatizer.lemmatize("business", PosClass.NOUN) == "business"


def test_lemma_other_classes_identity(lemmatizer):
    assert lemmatizer.lemmatize("quickly", PosClass.ADV) == "quickly"
    assert lemmatizer.lemmatize("under", PosClass.PREP) == "under"


def test_lemma_idempotent_on_corpus(annotator, sample_corpus):
    lem = annotator.lemmatizer
    for letter in sample_corpus:
        doc = annotator.annotate(letter)
        for sent in doc.sentences:
            for tok in sent:
                assert lem.lemmatize(tok.lemma, tok.pos) == tok.lemma


# token annotation


def _annotate_one(annotator, text):
    return annotator.annotate_text("T", text)


def test_normalize_and_tag_classes(annotator):
    doc = _annotate_one(annotator, "Wee see 12 starres & light.")
    toks = doc.sentences[0]
    by_surface = {t.surface: t for t in toks}
    assert by_surface["Wee"].pos is PosClass.PRON
    assert by_surface["Wee"].lemma == "we"
    assert by_surface["12"].pos is PosClass.NUM
    assert by_surface["&"].pos is PosClass.CONJ
    assert by_surface["."].pos is PosClass.PUNCT


def test_variant_beats_swap_rule(annotator):
    # "vse" has a forced entry; swap rules alone would also find "use"
    doc = _annotate_one(annotator, "vse it")
    tok = doc.sentences[0][0]
    assert tok.normalized == "use"
    assert tok.pos is PosClass.VERB
    assert tok.lemma == "use"


def test_token_indices(annotator):
    doc = _annotate_one(annotator, "One two. Three four.")
    assert [t.sent_idx for t in doc.sentences[0]] == [0, 0, 0]
    assert [t.tok_idx for t in doc.sentences[1]] == [0, 1, 2]


# vertical files


def test_vertical_round_trip(tmp_path, annotator):
    doc = annotator.annotate_text("R1", "Wee see the trueth. God is good.")
    path = tmp_path / "R1.tsv"
    write_vertical(doc, path)
    back = ingest_pretagged(path)
    assert back.letter_id == "R1"
    assert back == doc


def test_vertical_round_trip_keeps_hash_token(tmp_path, annotator):
    doc = annotator.annotate_text("L", "He paid # 5 for it.")
    path = tmp_path / "L.tsv"
    write_vertical(doc, path)
    back = ingest_pretagged(path)
    assert [t.surface for t in back.sentences[0]] == ["He", "paid", "#", "5", "for", "it", "."]
    assert back == doc


def test_ingest_comment_needs_other_than_four_fields(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text(
        "# letter C\n# note\twith a tab\n  # indented note\n"
        "a\ta\ta\tNOUN\n#\t#\t#\tPUNCT\n",
        encoding="utf-8",
    )
    doc = ingest_pretagged(p)
    assert [(t.surface, t.tok_idx) for t in doc.tokens()] == [("a", 0), ("#", 1)]


# Pieces of letter text: words, the vertical format's comment marker,
# ampersands, digits, runs of dots, apostrophes and sentence punctuation.
_TEXT_PIECES = st.sampled_from(
    ["the", "God", "vse", "loue", "doth", "Mr.", "viz.", "é", "#", "#x", "&", "&c",
     "5", "1630", ".", "..", "...", "'", "'s", "don't", ",", ":", ";", "?", "!",
     "(", ")", " ", " ", "\n"]
)


@given(st.lists(_TEXT_PIECES, max_size=40).map("".join))
def test_vertical_round_trip_property(annotator, text):
    doc = annotator.annotate_text("P1", text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "P1.tsv"
        write_vertical(doc, path)
        assert ingest_pretagged(path) == doc


def test_ingest_with_byte_order_mark(tmp_path, annotator):
    doc = annotator.annotate_text("B1", "Hee doth loue the Tutour. # 5")
    path = tmp_path / "B1.tsv"
    write_vertical(doc, path)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert ingest_pretagged(path) == doc


def test_ingest_rejects_control_characters(tmp_path):
    p = tmp_path / "c.tsv"
    # U+001C is also a line break to str.splitlines, which numbers the lines
    p.write_text("# letter C\na\ta\ta\tNOUN\n\nb\tb\tb\x1cc\tNOUN\n", encoding="utf-8")
    with pytest.raises(VerticalFormatError, match=r"c\.tsv:4: control character U\+001C"):
        ingest_pretagged(p)


def test_ingest_stem_is_default_id(tmp_path, annotator):
    doc = annotator.annotate_text("whatever", "A word.")
    path = tmp_path / "L99.tsv"
    write_vertical(doc, path)
    assert ingest_pretagged(path).letter_id == "L99"
    assert ingest_pretagged(path, letter_id="Z").letter_id == "Z"


def test_write_vertical_into_missing_directory(tmp_path, annotator):
    doc = annotator.annotate_text("R1", "A word.")
    with pytest.raises(ExportError, match="cannot write"):
        write_vertical(doc, tmp_path / "no_such_dir" / "R1.tsv")
    assert not (tmp_path / "no_such_dir").exists()


def test_ingest_bad_field_count(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("only\tthree\tcols\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1"):
        ingest_pretagged(p)


def test_ingest_unknown_pos_becomes_other(tmp_path, caplog):
    p = tmp_path / "odd.tsv"
    p.write_text("word\tword\tword\tMYSTERY\n", encoding="utf-8")
    doc = ingest_pretagged(p)
    assert doc.sentences[0][0].pos is PosClass.OTHER


def test_ingest_blank_line_splits_sentences(tmp_path):
    p = tmp_path / "s.tsv"
    p.write_text(
        "a\ta\ta\tNOUN\n\nb\tb\tb\tNOUN\n",
        encoding="utf-8",
    )
    doc = ingest_pretagged(p)
    assert len(doc.sentences) == 2


# bundled defaults


def test_default_abbreviations_loaded():
    abbrevs = default_annotator().split.abbreviations
    assert "mr" in abbrevs and "viz" in abbrevs


def test_default_annotator_smoke():
    ann = default_annotator()
    doc = ann.annotate_text("S", "The Tutour must vse care.")
    lemmas = [t.lemma for t in doc.sentences[0]]
    assert "tutor" in lemmas and "use" in lemmas


@given(st.text(alphabet="abcdefghiuv", min_size=1, max_size=8))
def test_modernize_deterministic_and_closed(word):
    known = lambda w: False
    out1 = modernize_spelling(word, known)
    out2 = modernize_spelling(word, known)
    assert out1 == out2
    assert len(out1) == len(word)
