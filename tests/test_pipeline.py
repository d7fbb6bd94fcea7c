"""Sentence split, tokenization, spelling normalization, tagging, lemmas."""

import codecs
import logging
import os
import random
import re
import tempfile
import tracemalloc
import unicodedata
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from letternet.pipeline import (
    AnnotatedDoc,
    Annotator,
    ExportError,
    InputError,
    PosClass,
    Token,
    VariantEntry,
    data_path,
    default_annotator,
    fold,
    ingest_pretagged,
    _TOKEN_RE,
    lemmatize,
    load_lemma_exceptions,
    load_variants,
    load_word_classes,
    modernize_spelling,
    read_input,
    spelling_fold,
    split_sentences,
    tag,
    tokenize,
    write_atomic,
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
    got = split_sentences("Mr. Hartlib wrote. St. Amand read.", frozenset({"mr", "st"}))
    assert got == ["Mr. Hartlib wrote.", "St. Amand read."]


def test_split_colon_toggle():
    text = "First this: and then that."
    assert split_sentences(text) == [text]
    assert split_sentences(text, colon_boundary=True) == ["First this:", "and then that."]


def test_split_tail_without_terminator_kept():
    assert split_sentences("No full stop here") == ["No full stop here"]


def test_split_empty():
    assert split_sentences("   ") == []


# The splitter as it was before it jumped between terminators and
# scanned back over the word before a dot: a loop over every character,
# and at every dot another over all the text before it.


def ref_is_abbreviation(text, dot_pos, abbreviations):
    # the word is the run of letters, each followed by any combining marks,
    # before the dot, or before a newline there
    word = ""
    for ch in text[:dot_pos].removesuffix("\n"):
        if ch.isalpha() or (word and unicodedata.category(ch).startswith("M")):
            word += ch
        else:
            word = ""
    return bool(word) and unicodedata.normalize("NFC", word.casefold()) in abbreviations


def ref_split_sentences(text, abbreviations=frozenset(), colon_boundary=False):
    terminators = ".!?" + (":" if colon_boundary else "")
    closers = "'’\"”)"
    sentences = []
    start = 0
    i, n = 0, len(text)
    while i < n:
        if text[i] in terminators:
            j = i + 1
            while j < n and text[j] in terminators:
                j += 1
            while j < n and text[j] in closers:
                j += 1
            if text[i] == "." and j == i + 1 and ref_is_abbreviation(text, i, abbreviations):
                i += 1
                continue
            if j >= n or text[j].isspace():
                piece = text[start:j].strip()
                if piece:
                    sentences.append(piece)
                start = j
                i = j
                continue
        i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


_SPLIT_ABBREVIATIONS = ["Mr", "mrs", "Dr", "St", "ſt", "viz", "No", "cf", "Messrs"]
# Each chunk is a word, maybe a newline, terminators or closers, and a gap;
# "Goſp" and "Sté" (in either normal form) are abbreviations only where a
# test adds "gosp" and "sté", and a lone combining mark belongs to no word.
_SPLIT_CHUNKS = st.tuples(
    st.sampled_from(
        _SPLIT_ABBREVIATIONS
        + ["Goſp", "word", "Hartlib", "é", "café", "x", "", "Sté", "Ste\u0301", "\u0301", "1\u0301"]
    ),
    st.sampled_from(["", "", "\n", " "]),
    st.sampled_from([".", ".", ".", "...", "..", "?!", "!", "?", ":", ".)", ".'", "”", ""]),
    st.sampled_from([" ", " ", "\n", "\n\n", "\t", ""]),
).map("".join)


@pytest.fixture(scope="module")
def bundled_abbreviations():
    abbreviations = default_annotator().abbreviations
    assert {a.casefold() for a in _SPLIT_ABBREVIATIONS} <= abbreviations
    return abbreviations


@given(st.lists(_SPLIT_CHUNKS, max_size=12).map("".join))
def test_split_matches_reference(bundled_abbreviations, text):
    for colon in (False, True):
        for extra in (set(), {"gosp", "sté"}):
            abbreviations = bundled_abbreviations | extra
            got = split_sentences(text, abbreviations, colon)
            assert got == ref_split_sentences(text, abbreviations, colon)


def test_split_abbreviation_edges(bundled_abbreviations):
    abbreviations = bundled_abbreviations
    # the word may end just before a newline at the dot, so "Mr\n." is still "Mr."
    assert split_sentences("Mr\n. Hartlib wrote.", abbreviations) == ["Mr\n. Hartlib wrote."]
    # the word before the dot is all of "Sté", which is no abbreviation
    assert split_sentences("Sté. Amand. No. 5.", abbreviations) == ["Sté.", "Amand.", "No. 5."]
    # a mark that follows no letter is a token of its own, not part of "Mr"
    text = "\u0301Mr. Hartlib wrote."
    assert split_sentences(text, abbreviations) == [text]
    for text in ["\n. x", ". x", "Mr.", "1\u0301Mr. x", "\u0301\u0301. x"]:
        assert split_sentences(text, abbreviations) == ref_split_sentences(text, abbreviations)


# tokenization


def test_tokenize_words_and_punct():
    assert tokenize("Wee see, and know.") == ["Wee", "see", ",", "and", "know", "."]


def test_tokenize_apostrophe_and_ellipsis():
    assert tokenize("don't stop...") == ["don't", "stop", "..."]


def test_tokenize_ampersand_and_digits():
    assert tokenize("care & 12 moe") == ["care", "&", "12", "moe"]


def test_tokenize_non_ascii_letters():
    # a word is a run of str.isalpha characters, so long s, accented
    # letters and ligatures stay inside it; other numerals stand alone
    assert tokenize("The Tutour ſaid the café & Æneas’s x² ½ Ⅻ ٣٤") == [
        "The", "Tutour", "ſaid", "the", "café", "&", "Æneas’s", "x", "²", "½", "Ⅻ", "٣٤"
    ]


def test_non_ascii_word_is_one_token(annotator):
    doc = annotator.annotate_text("U1", "The Tutour ſaid that the café was good.")
    # casefolding turns the long s into "s", so "ſaid" is known as "said"
    assert [(t.surface, t.lemma) for t in doc.tokens()][2:6] == [
        ("ſaid", "say"), ("that", "that"), ("the", "the"), ("café", "café")
    ]


def ref_tokenize(sentence):
    """The tokenizer as a plain character loop over ``str`` predicates.

    A word takes in the combining marks (Unicode category M) that follow
    its letters.
    """
    tokens, i, n = [], 0, len(sentence)
    while i < n:
        ch, j = sentence[i], i + 1
        if ch.isalpha():
            while j < n and (
                sentence[j].isalpha()
                or unicodedata.category(sentence[j]).startswith("M")
                or (sentence[j] in "'’" and j + 1 < n and sentence[j + 1].isalpha())
            ):
                j += 1
        elif ch.isdecimal():
            while j < n and sentence[j].isdecimal():
                j += 1
        elif ch == ".":
            while j < n and sentence[j] == ".":
                j += 1
        if not ch.isspace():
            tokens.append(sentence[i:j])
        i = j
    return tokens


# letters (ASCII, long s, accented, ligature, CJK, a letter that is also
# a numeral), numerals that are not letters or digits, digits of two
# scripts, combining marks (nonspacing, spacing, enclosing), apostrophes,
# dots and white space
_TOKEN_CHARS = st.sampled_from(
    list("aZſéÆß中〇²½³Ⅻ٣7\u0301\u0303\u0304\u0903\u20dd_&'’.,  \n\t\u2028\x85")
) | st.characters()


@given(st.text(_TOKEN_CHARS, max_size=30))
@example("cafe\u0301 co\u0304mand q\u0303 7\u0303 '\u0303 \u0301a o'\u0301 ²\u0301x")
def test_tokenize_matches_character_loop(sentence):
    assert tokenize(sentence) == ref_tokenize(sentence)


def test_decomposed_and_precomposed_spellings_tokenize_alike():
    text = "The café and cōmand, q̃ and ſ̃aid."
    composed = tokenize(unicodedata.normalize("NFC", text))
    decomposed = tokenize(unicodedata.normalize("NFD", text))
    assert composed == ["The", "café", "and", "cōmand", ",", "q̃", "and", "ſ̃aid", "."]
    assert decomposed == [unicodedata.normalize("NFD", t) for t in composed]


def test_decomposed_and_precomposed_spellings_annotate_alike(tmp_path):
    # a word is folded to NFC, so both spellings of it make one node
    text = "The café was cõmanded. Goſpel & Café."
    nfc, nfd = (unicodedata.normalize(form, text) for form in ("NFC", "NFD"))
    assert nfc != nfd
    annotator = default_annotator()
    composed = annotator.annotate_text("C", nfc)
    keys = [(t.lemma, t.pos) for t in composed.tokens()]
    assert keys == [(t.lemma, t.pos) for t in annotator.annotate_text("D", nfd).tokens()]
    assert keys[1] == keys[-2] == ("café", N) and keys[3] == ("cõmand", V)
    assert all(unicodedata.is_normalized("NFC", lemma) for lemma, _ in keys)
    # an NFD row of the variant lexicon matches NFC text
    lexicon = tmp_path / "variants.tsv"
    row = unicodedata.normalize("NFD", "Cõmanded\tcommanded\tVERB\tcommand\n")
    lexicon.write_text(row, encoding="utf-8")
    doc = default_annotator(variant_lexicon=lexicon).annotate_text("V", nfc)
    assert doc.sentences[0][3] == Token("cõmanded", "commanded", "command", PosClass.VERB)


# ASCII letters, digits, apostrophes, dots, other punctuation and every
# ASCII white space, the separators \x1c-\x1f included
_ASCII_TOKEN_CHARS = st.sampled_from(
    list("aZqz09'.,;:!?-&_#\"()[] \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f")
) | st.characters(max_codepoint=127)


@given(st.text(_ASCII_TOKEN_CHARS, max_size=30))
@example("don't 'tis o'th' x'' a.. 1630s \x1cb\x1f")
def test_ascii_tokenize_matches_unicode_rule(sentence):
    assert tokenize(sentence) == _TOKEN_RE.findall(sentence)


# variant lexicon and spelling modernization


@pytest.fixture(scope="module")
def variants():
    return load_variants(data_path("variant_lexicon.tsv"))


@pytest.fixture(scope="module")
def words():
    return load_word_classes(data_path("tagger_lexicon.tsv"))


@pytest.fixture(scope="module")
def folds(words):
    return frozenset(map(spelling_fold, words))


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
        entry = variants.get(surface)
        assert entry is not None, surface
        assert entry.normalized == normalized
        assert entry.pos is pos
    seene = variants["seene"]
    assert seene.normalized == "seen" and seene.lemma == "see"


def test_variant_lookup_casefolds(variants):
    # the keys are folded once, at load, so a folded surface finds its entry
    assert all(fold(key) == key for key in variants)
    assert variants[fold("Tutour")] is variants[fold("TUTOUR")] is variants["tutour"]


def test_variant_lookup_miss(variants):
    assert variants.get("modern") is None


def test_variant_file_errors(tmp_path):
    p = tmp_path / "v.tsv"
    p.write_text("onlytwo\tcolumns\n", encoding="utf-8")
    with pytest.raises(InputError, match=":1"):
        load_variants(p)
    p.write_text("word\tnorm\tNOTACLASS\t-\n", encoding="utf-8")
    with pytest.raises(InputError, match="NOTACLASS"):
        load_variants(p)
    # a trailing tab leaves an empty lemma, not a fourth field
    p.write_text("vse\tuse\t-\t\n", encoding="utf-8")
    with pytest.raises(InputError, match=":1: expected 4 tab-separated fields, got 3"):
        load_variants(p)
    p.write_text("# lexicon\ntutour\ttutor\tNOUN\ttu\x02tor\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"v\.tsv:2: control character U\+0002"):
        load_variants(p)
    # not a line break in a table, and XML cannot hold it
    p.write_text("# lexicon\ntutour\ttutor\tNOUN\ttu\x0ctor\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"v\.tsv:2: control character U\+000C"):
        load_variants(p)
    # keys are case-folded, so the second row would silently win
    p.write_text("Vse\tuse\tVERB\t-\nvse\tvouch\tNOUN\t-\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"v\.tsv:2: 'vse' repeats an earlier row"):
        load_variants(p)
    # so are NFD and NFC spellings of one form
    p.write_text("cafe\u0301\tcafe\t-\t-\ncaf\u00e9\tcafe\t-\t-\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"v\.tsv:2: 'café' repeats an earlier row"):
        load_variants(p)


def test_variant_lexicon_casefolds_forms_and_lemmas(tmp_path):
    # as the annotator folds the words it looks up; str.lower
    # would keep "ſ" and "ß"
    p = tmp_path / "v.tsv"
    p.write_text("Goſpell\tGoſpel\tNOUN\tGOſPEL\nStrasze\tStraße\t-\tStraße\n", encoding="utf-8")
    lexicon = load_variants(p)
    assert lexicon == {
        "gospell": VariantEntry("gospel", PosClass.NOUN, "gospel"),
        "strasze": VariantEntry("strasse", None, "strasse"),
    }


def test_variant_lexicon_rows_end_only_at_line_breaks(tmp_path):
    # str.splitlines would also break this row at U+2028
    p = tmp_path / "v.tsv"
    p.write_text("# lexicon\r\nvse\tu\u2028se\tVERB\t-\r\nmoue\tmove\tVERB\t-\n", encoding="utf-8")
    assert load_variants(p) == {
        "vse": VariantEntry("u\u2028se", PosClass.VERB, None),
        "moue": VariantEntry("move", PosClass.VERB, None),
    }


@pytest.mark.parametrize(
    "before, lineno",
    [
        ("", 1),
        ("a\nb\n", 3),
        ("a\r\nb\r\n", 3),
        ("a\rb\r", 3),
        ("a\r\n\rb\n", 4),
        ("a\u2028b\x85c\u2029d", 1),
        ("a\u2028b\x85c\u2029d\r\n", 2),
    ],
)
def test_reject_control_chars_counts_editor_lines(tmp_path, before, lineno):
    # read_input refuses the character, at the line an editor shows
    p = tmp_path / "f"
    p.write_bytes((before + "x\x01").encode("utf-8"))
    where = re.escape(str(p))
    with pytest.raises(InputError, match=rf"^{where}:{lineno}: control character U\+0001$"):
        read_input(p, "")


def test_reject_control_chars_in_letters_keeps_whitespace(tmp_path):
    p = tmp_path / "f"
    where = re.escape(str(p))
    p.write_bytes(b"a\x0bb\x0cc")
    assert read_input(p, "letter 'L'", letter=True) == "a\x0bb\x0cc"
    p.write_bytes(b"a b\nc\x0bd\x0ce")
    with pytest.raises(InputError, match=rf"^{where}:2: control character U\+000B$"):
        read_input(p, "")
    p.write_bytes(b"a\x0cb\nc\x1ed")
    with pytest.raises(InputError, match=rf"^letter 'L': {where}:2: control character U\+001E$"):
        read_input(p, "letter 'L'", letter=True)


def ref_read_input(path, what, letter=False):
    """read_input with its control-character regex run on every text."""
    where = f"{what}: {path}" if letter else str(path)
    name = where if letter or not what else f"{what} {path}"
    data = path.read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        offset = exc.start + len(data) - len(exc.object)
        raise InputError(f"cannot read {name}: not valid UTF-8 (byte offset {offset})") from exc
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    vt_ff = "" if letter else "\x0b\x0c"
    bad = re.search(f"[\x00-\x08{vt_ff}\x0e-\x1f\ufffe\uffff]", text)
    if bad:
        lineno = text.count("\n", 0, bad.start()) + 1
        code = ord(bad.group())
        kind = "noncharacter" if code > 0xFFFD else "control character"
        raise InputError(f"{where}:{lineno}: {kind} U+{code:04X}")
    return text


# every C0 control, DEL, line ends, a byte-order mark, the noncharacters
# and their neighbours, letters of two, three and four bytes, and bytes
# that are not UTF-8 (a lone lead byte, a cut sequence, a lone
# continuation byte, a byte no character starts with)
_INPUT_PIECES = st.sampled_from(
    [bytes([c]) for c in range(0x20)]
    + [b"\x7f", b"\r", b"\r\n", b"\n", b"a", b" ", codecs.BOM_UTF8]
    + [ch.encode("utf-8") for ch in "\ufffe\uffff\ufffd\ufeffé中𝔄ſ"]
    + [b"\xc3", b"\xef\xbf", b"\x80", b"\xff"]
)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_INPUT_PIECES, max_size=12).map(b"".join), st.booleans())
@example(codecs.BOM_UTF8 + b"a\r\nb", False)
@example(b"a\x0bb\x0cc", True)
@example(b"\x00", True)
@example("a\nb\uffff".encode("utf-8"), True)
def test_read_input_matches_regex_reference(tmp_path, data, letter):
    p = tmp_path / "f"
    p.write_bytes(data)

    def outcome(read):
        try:
            return "text", read(p, "letter 'L'" if letter else "", letter=letter)
        except InputError as exc:
            return "error", str(exc)

    assert outcome(read_input) == outcome(ref_read_input)


def test_variant_lexicon_with_byte_order_mark(tmp_path):
    p = tmp_path / "v.tsv"
    p.write_bytes(codecs.BOM_UTF8 + b"vse\tuse\tVERB\t-\ntutour\ttutor\tNOUN\t-\n")
    assert load_variants(p) == {
        "vse": VariantEntry("use", PosClass.VERB, None),
        "tutour": VariantEntry("tutor", PosClass.NOUN, None),
    }


def test_modernize_uv_swap(words):
    assert modernize_spelling("vpon", words) == "upon"
    assert modernize_spelling("euery", words) == "every"
    assert modernize_spelling("haue", words) == "have"


def test_modernize_ij_swap(words):
    assert modernize_spelling("ioy", words) == "joy"


def test_modernize_two_swaps():
    # one u->v and one v->u in the same word
    assert modernize_spelling("vnmoued", {"unmoved"}) == "unmoved"


def test_modernize_initial_v_fallback(words):
    # not validated by the lexicon, still normalized by the initial-v rule
    assert modernize_spelling("vnknowable", words) == "unknowable"


def test_modernize_leaves_known_words(words):
    assert modernize_spelling("have", words) == "have"
    assert modernize_spelling("light", words) == "light"


def test_tagger_folds_are_its_words_folds(annotator, words):
    assert annotator._folds == {spelling_fold(word) for word in words}
    assert spelling_fold("VIVE") == spelling_fold("uiue") == "uiue"
    assert spelling_fold("Ioyſ") == "ioys"


def _both_searches(words, folds, word):
    guarded = modernize_spelling(word, words, folds=folds)
    return guarded, modernize_spelling(word, words)


@given(st.text(alphabet="aeiouvjbrstlnAV", max_size=8))
@example("vnknowable")
@example("vpon")
@example("ioy")
def test_fold_guard_matches_plain_search(words, folds, word):
    guarded, plain = _both_searches(words, folds, word)
    assert guarded == plain


def test_fold_guard_matches_plain_search_on_respelled_lexicon_words(words, folds):
    rng = random.Random(20)
    swap = {"u": "v", "v": "u", "i": "j", "j": "i", "U": "V", "V": "U"}
    for word in sorted(words):
        for _ in range(3):
            respelled = "".join(
                swap[ch] if ch in swap and rng.random() < 0.5 else ch for ch in word
            )
            guarded, plain = _both_searches(words, folds, respelled)
            assert guarded == plain, respelled


class _CountingWords(dict):
    """A word table that records every word tested with ``in``."""

    def __init__(self, words):
        super().__init__(words)
        self.asked = []

    def __contains__(self, word):
        self.asked.append(word)
        return super().__contains__(word)


def test_no_spelling_search_when_no_known_word_shares_the_fold(words, folds):
    counting = _CountingWords(words)
    word = "vnbrstl"
    assert spelling_fold(word) not in folds
    assert modernize_spelling(word, counting, folds=folds) == "unbrstl"
    assert counting.asked == [word]
    counting.asked.clear()
    assert modernize_spelling(word, counting) == "unbrstl"
    assert len(counting.asked) > 1
    # the annotator passes the folds of its words
    annotator = Annotator({}, counting, {})
    counting.asked.clear()
    assert annotator.annotate_text("F", "Vnbrstl").sentences[0][0].normalized == "unbrstl"
    assert counting.asked == [word]
    assert annotator.annotate_text("F", "vse").sentences[0][0].normalized == "use"


# tagging


def test_tagger_lexicon_first(words):
    assert tag("church", words) is PosClass.NOUN
    assert tag("move", words) is PosClass.VERB
    assert tag("must", words) is PosClass.MODAL
    assert tag("he", words) is PosClass.PRON


def test_tagger_suffixes(words):
    assert tag("newly", words) is PosClass.ADV
    assert tag("seeking", words) is PosClass.VERB
    assert tag("pacification", words) is PosClass.NOUN
    assert tag("prudency", words) is PosClass.NOUN


def test_tagger_capitalized_unknown_is_noun(annotator):
    # the tagger sees only the normalised (lower-cased) form
    tok = annotator.annotate_text("T", "Comenius").sentences[0][0]
    assert (tok.normalized, tok.pos) == ("comenius", PosClass.NOUN)


def test_tagger_default_noun(words):
    assert tag("qwxz", words) is PosClass.NOUN


def test_tagger_tags_a_variant_spelt_in_digits_num(tmp_path):
    # digit surfaces are NUM before tagging; only a variant respelling
    # a word as digits brings digits to the tagger
    lexicon = tmp_path / "variants.tsv"
    lexicon.write_text("xii\t12\t-\t-\n", encoding="utf-8")
    doc = default_annotator(variant_lexicon=lexicon).annotate_text("T", "He wrote xii letters.")
    assert doc.sentences[0][2] == Token("xii", "12", "12", PosClass.NUM)


def test_tagger_file_errors(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("word\tNOPE\n", encoding="utf-8")
    with pytest.raises(InputError, match="NOPE"):
        load_word_classes(p)
    p.write_text("the\tDET\n# a note\nThe\tNOUN\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"t\.tsv:3: 'The' repeats an earlier row"):
        load_word_classes(p)


# lemmatization


@pytest.fixture(scope="module")
def exceptions():
    return load_lemma_exceptions(data_path("lemma_exceptions.tsv"))


@pytest.fixture(scope="module")
def lemma_of(exceptions, words):
    return lambda word, pos: lemmatize(word, pos, exceptions, words)


def test_lemma_exceptions(lemma_of):
    assert lemma_of("is", PosClass.VERB) == "be"
    assert lemma_of("went", PosClass.VERB) == "go"
    assert lemma_of("children", PosClass.NOUN) == "child"
    assert lemma_of("men", PosClass.NOUN) == "man"


def test_lemma_exception_file_errors(tmp_path):
    p = tmp_path / "e.tsv"
    # one row per form and class: "-" is a class of its own
    p.write_text("went\tVERB\tgo\nwent\t-\tgo\n", encoding="utf-8")
    assert len(load_lemma_exceptions(p)) == 2
    p.write_text("went\tVERB\tgo\nWent\tVERB\twend\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"e\.tsv:2: 'Went' as VERB repeats an earlier row"):
        load_lemma_exceptions(p)


def test_lemma_verb_rules(lemma_of):
    assert lemma_of("eating", PosClass.VERB) == "eat"
    assert lemma_of("carries", PosClass.VERB) == "carry"
    assert lemma_of("carried", PosClass.VERB) == "carry"
    assert lemma_of("stirred", PosClass.VERB) == "stir"
    assert lemma_of("moved", PosClass.VERB) == "move"
    assert lemma_of("comes", PosClass.VERB) == "come"
    # -es after a known stem must not overshoot to "us"
    assert lemma_of("uses", PosClass.VERB) == "use"
    assert lemma_of("used", PosClass.VERB) == "use"


def test_lemma_noun_rules(lemma_of):
    assert lemma_of("churches", PosClass.NOUN) == "church"
    assert lemma_of("cities", PosClass.NOUN) == "city"
    assert lemma_of("things", PosClass.NOUN) == "thing"
    # guards: -ss, -us, -is endings are singular already
    assert lemma_of("business", PosClass.NOUN) == "business"


def test_lemma_other_classes_identity(lemma_of):
    assert lemma_of("quickly", PosClass.ADV) == "quickly"
    assert lemma_of("under", PosClass.PREP) == "under"


def test_lemma_idempotent_on_corpus(annotator, sample_corpus):
    for letter in sample_corpus:
        doc = annotator.annotate(letter)
        for sent in doc.sentences:
            for tok in sent:
                lemma = lemmatize(tok.lemma, tok.pos, annotator.exceptions, annotator.words)
                assert lemma == tok.lemma


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
    # a token's position is its index in doc.sentences and in its sentence
    doc = _annotate_one(annotator, "One two. Three four.")
    assert [[t.surface for t in s] for s in doc.sentences] == [
        ["One", "two", "."],
        ["Three", "four", "."],
    ]


def test_token_is_an_immutable_named_tuple():
    tok = Token(surface="Vse", normalized="use", lemma="use", pos=PosClass.VERB)
    with pytest.raises(AttributeError):
        tok.lemma = "x"
    twin = Token("Vse", "use", "use", PosClass.VERB)
    assert tok == twin and hash(tok) == hash(twin)
    assert tok != Token("Vse", "use", "use", PosClass.NOUN)
    assert repr(tok) == (
        "Token(surface='Vse', normalized='use', lemma='use', pos=<PosClass.VERB: 'VERB'>)"
    )
    doc = AnnotatedDoc(letter_id="D", sentences=((tok,),))
    assert hash(doc) == hash(AnnotatedDoc(letter_id="D", sentences=((twin,),)))


def ref_annotate_text(annotator, letter_id, text):
    """The annotator's loop without its memo: every token resolved anew."""
    variants, words, exceptions = annotator.variants, annotator.words, annotator.exceptions
    sentences = []
    for sentence in ref_split_sentences(text, annotator.abbreviations, annotator.colon_boundary):
        tokens = []
        for surface in tokenize(sentence):
            if surface == "&":
                normalized, pos, lemma = "&", PosClass.CONJ, "&"
            elif surface.isdigit():
                normalized, pos, lemma = surface, PosClass.NUM, surface
            elif not any(ch.isalpha() for ch in surface):
                normalized, pos, lemma = surface, PosClass.PUNCT, surface
            else:
                key = fold(surface)
                entry = variants.get(key)
                if entry is None:
                    normalized, pos, lemma = modernize_spelling(key, words), None, None
                else:
                    normalized, pos, lemma = entry.normalized, entry.pos, entry.lemma
                if pos is None:
                    pos = tag(normalized, words)
                if lemma is None:
                    lemma = lemmatize(normalized, pos, exceptions, words)
            tokens.append(Token(surface, normalized, lemma, pos))
        sentences.append(tuple(tokens))
    return AnnotatedDoc(letter_id=letter_id, sentences=tuple(sentences))


@pytest.fixture(scope="module")
def shared_annotators():
    """Annotators whose memos fill up across every example drawn."""
    return default_annotator(), default_annotator(colon_boundary=True)


_ANNOTATION_PIECES = st.one_of(
    st.sampled_from(
        ["vse", "Vse", "moue", "ioy", "loue", "Tutour", "tutour", "TUTOUR", "doth", "the",
         "&", "&c", "5", "1630", ".", ".", "..", "...", "'", "'s", "don't", "Mr.", "viz.",
         "é", ",", ":", "?", "!", " ", " ", " ", "\n"]
    ),
    st.text(alphabet="aeiouvjbrstlnAV", min_size=1, max_size=8),
)
_ANNOTATION_TEXTS = st.lists(_ANNOTATION_PIECES, max_size=30).map("".join)


@given(st.lists(_ANNOTATION_TEXTS, min_size=1, max_size=4))
def test_memo_matches_uncached_annotation(shared_annotators, texts):
    for annotator in shared_annotators:
        for _ in range(2):
            for i, text in enumerate(texts):
                letter_id = f"L{i}"
                expected = ref_annotate_text(annotator, letter_id, text)
                assert annotator.annotate_text(letter_id, text) == expected


def test_annotators_keep_their_own_memo(tmp_path):
    lexicon = tmp_path / "variants.tsv"
    lexicon.write_text("vse\tvouch\tNOUN\t-\n", encoding="utf-8")
    a, b = default_annotator(), default_annotator(variant_lexicon=lexicon)
    text = "I vse it. Vse it."
    first, other, again = (ann.annotate_text("T", text) for ann in (a, b, a))
    assert first == again == ref_annotate_text(a, "T", text)
    assert other == ref_annotate_text(b, "T", text)
    assert [t.lemma for t in first.tokens() if t.surface.lower() == "vse"] == ["use", "use"]
    assert [t.lemma for t in other.tokens() if t.surface.lower() == "vse"] == ["vouch", "vouch"]


def test_one_token_per_form():
    annotator = default_annotator()
    texts = ["Vse it, vse it. The Tutour doth vse it.", "I vse the Tutour, & it."]
    docs = [annotator.annotate_text(f"L{i}", text) for i, text in enumerate(texts)]
    first = {}
    for token in (t for doc in docs for t in doc.tokens()):
        assert token is first.setdefault(token.surface, token)
    assert docs[1].sentences[0][1] is docs[0].sentences[0][3]  # "vse" in both letters
    fresh = default_annotator().annotate_text("L0", texts[0])
    assert fresh == docs[0]
    assert all(a is not b for a, b in zip(fresh.tokens(), docs[0].tokens()))


def test_annotator_compares_by_identity(annotator):
    twin = Annotator(
        annotator.variants, annotator.words, annotator.exceptions, annotator.abbreviations
    )
    assert annotator == annotator and annotator != twin
    # the default repr, not every row of the three tables
    assert repr(twin).startswith("<letternet.pipeline.Annotator object at ")


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
    assert doc.sentences == (
        (Token("a", "a", "a", PosClass.NOUN), Token("#", "#", "#", PosClass.PUNCT)),
    )


# Pieces of letter text: words (some with letters outside ASCII, or
# next to a numeral), the vertical format's comment marker,
# ampersands, digits, runs of dots, apostrophes and sentence punctuation.
_TEXT_PIECES = st.sampled_from(
    ["the", "God", "vse", "loue", "doth", "Mr.", "viz.", "é", "ſaid", "café", "Æneas",
     "x²", "½", "#", "#x", "&", "&c",
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


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(_TEXT_PIECES, max_size=30).map("".join), min_size=1, max_size=4))
def test_write_vertical_with_one_memo_writes_the_same_bytes(shared_annotators, texts):
    annotator = shared_annotators[0]
    docs = [annotator.annotate_text(f"M{i}", text) for i, text in enumerate(texts)]
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for doc in docs:
            plain, shared = Path(tmp) / "plain.tsv", Path(tmp) / "shared.tsv"
            write_vertical(doc, plain)
            write_vertical(doc, shared, memo=rows)
            assert shared.read_bytes() == plain.read_bytes()


def test_one_memo_holds_each_distinct_token_once(tmp_path):
    annotator = default_annotator()
    texts = ["Vse it, vse it. The Tutour doth vse it.", "I vse the Tutour, & it.", ""]
    docs = [annotator.annotate_text(f"L{i}", text) for i, text in enumerate(texts)]
    rows = {}
    for doc in docs:
        write_vertical(doc, tmp_path / f"{doc.letter_id}.tsv", memo=rows)
    assert set(rows) == {token for doc in docs for token in doc.tokens()}
    assert rows[docs[1].sentences[0][0]] == "I\ti\ti\tPRON"
    # a token found in the memo is written as the memo has it, not formatted again
    rows[docs[1].sentences[0][0]] = "Ego\tego\tego\tPRON"
    write_vertical(docs[1], tmp_path / "again.tsv", memo=rows)
    assert (tmp_path / "again.tsv").read_text(encoding="utf-8").split("\n")[1] == "Ego\tego\tego\tPRON"


def ref_ingest_pretagged(path, letter_id=None):
    """The vertical reader as it was before its per-row work was cut."""
    log = logging.getLogger("letternet.pipeline")
    p = Path(path)
    if letter_id is None:
        letter_id = p.stem
    lines = read_input(p, "").split("\n")
    sentences = []
    current = []

    def flush():
        nonlocal current
        if current:
            sentences.append(tuple(current))
            current = []

    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            flush()
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            if line.lstrip().startswith("#"):
                continue
            raise InputError(
                f"{p}:{lineno}: expected 4 tab-separated fields, got {len(parts)}"
            )
        surface, normalized, lemma, label = parts
        try:
            pos = PosClass[label.strip()]
        except KeyError:
            log.warning("%s:%d: unknown word class %r, using OTHER", p, lineno, label)
            pos = PosClass.OTHER
        current.append(Token(surface=surface, normalized=normalized, lemma=lemma, pos=pos))
    flush()
    if not sentences:
        log.warning("%s: no tokens found", p)
    return AnnotatedDoc(letter_id=letter_id, sentences=tuple(sentences))


# Rows of a vertical file: blank-only lines (U+0085 and U+00A0 are
# whitespace too), comments, and rows of 3 to 5 fields whose last field
# is a known, unknown or space-padded label.
_BLANK_ROWS = st.sampled_from(["", " ", "\t", " \t ", "\x85", "\xa0", "\u2028"])
_COMMENT_ROWS = st.sampled_from(["# letter L1", "  # note", "#\tnote", "# a\tb\tc\td\te"])
_CELLS = st.sampled_from(["a", "the", "#", "# x", " ", "", "x y", "é"])
_LABELS = st.sampled_from(
    ["NOUN", "VERB", "PUNCT", "OTHER", " NOUN", "VERB  ", " ADJ\xa0", "noun", "MYSTERY", "", "#"]
)
_ROWS = st.one_of(
    _BLANK_ROWS,
    _COMMENT_ROWS,
    st.builds(
        lambda cells, label: "\t".join([*cells, label]),
        st.lists(_CELLS, min_size=2, max_size=4),
        _LABELS,
    ),
)


def _read_outcome(read, path, caplog):
    caplog.clear()
    try:
        result = read(path)
    except InputError as exc:
        result = ("error", str(exc))
    return result, [(r.name, r.levelname, r.getMessage()) for r in caplog.records]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_ROWS, max_size=12), st.booleans())
@example(["a\ta\ta\tNOUN", " ", "b\tb\tb\t VERB", "c\tc\tc\tMYSTERY"], True)
@example(["a\tb\tNOUN"], False)
def test_ingest_matches_reference_reader(caplog, rows, final_newline):
    # caplog is cleared before each read, so every example sees only its own records
    caplog.set_level(logging.WARNING, logger="letternet.pipeline")
    text = "\n".join(rows) + ("\n" if final_newline else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "V1.tsv"
        path.write_text(text, encoding="utf-8")
        assert _read_outcome(ingest_pretagged, path, caplog) == _read_outcome(
            ref_ingest_pretagged, path, caplog
        )


# Rows that recur across files: one with an unknown label, which must
# warn at every occurrence, and a four-field row of the token "#".
_RECURRING_ROWS = st.sampled_from(["w\tw\tw\tMYSTERY", "#\t#\t#\tPUNCT", "a\ta\ta\tNOUN"])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.lists(_ROWS | _RECURRING_ROWS, max_size=10), min_size=1, max_size=4))
@example(
    [
        ["w\tw\tw\tMYSTERY", "#\t#\t#\tPUNCT", "", "w\tw\tw\tMYSTERY"],
        ["#\t#\t#\tPUNCT", "w\tw\tw\tMYSTERY", "# note"],
        ["a\tb\tNOUN", "w\tw\tw\tMYSTERY"],
        ["w\tw\tw\tMYSTERY"],
    ]
)
def test_ingest_with_one_memo_for_many_files_matches_reference_reader(caplog, files):
    # files read in turn with one memo, as a run reads its vertical files
    caplog.set_level(logging.WARNING, logger="letternet.pipeline")
    memo = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n, rows in enumerate(files):
            path = Path(tmp) / f"V{n}.tsv"
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            shared = _read_outcome(lambda p: ingest_pretagged(p, memo=memo), path, caplog)
            assert shared == _read_outcome(ref_ingest_pretagged, path, caplog)


def test_a_row_is_one_token_in_every_file_read_with_one_memo(tmp_path):
    rows = "# letter\nvse\tuse\tuse\tVERB\n\nit\tit\tit\tPRON\nvse\tuse\tuse\tVERB\n"
    for name in ("A", "B"):
        (tmp_path / f"{name}.tsv").write_text(rows, encoding="utf-8")
    memo = {}
    a = ingest_pretagged(tmp_path / "A.tsv", memo=memo)
    b = ingest_pretagged(tmp_path / "B.tsv", memo=memo)
    assert a.sentences[0][0] is a.sentences[1][1] is b.sentences[0][0] is b.sentences[1][1]
    assert a.sentences[1][0] is b.sentences[1][0]
    # without a memo, rows still share within a file but not across files
    c = ingest_pretagged(tmp_path / "A.tsv")
    assert c.sentences[0][0] is c.sentences[1][1]
    assert c.sentences[0][0] is not a.sentences[0][0]
    assert c == a


def test_many_files_read_with_one_memo_hold_their_rows_once(tmp_path):
    # 20 sentences of 20 distinct rows, copied into 40 files
    rows = [f"w{i}\tword{i}\tlemma{i}\t{('NOUN', 'VERB')[i % 2]}" for i in range(400)]
    sentences = ["\n".join(rows[i : i + 20]) for i in range(0, 400, 20)]
    text = "# letter\n" + "\n\n".join(sentences) + "\n"
    paths = [tmp_path / f"C{n:02d}.tsv" for n in range(40)]
    for path in paths:
        path.write_text(text, encoding="utf-8")

    def footprint(paths):
        memo = {}
        tracemalloc.start()
        try:
            docs = [ingest_pretagged(p, memo=memo) for p in paths]
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(len(doc) == 400 for doc in docs)
        return size

    one = footprint(paths[:1])
    # a file's own share is its sentence tuples, 8 bytes a token; a
    # reader that kept a Token and three strings per row would need
    # about 25 times the footprint of one file here
    assert footprint(paths) < 8 * one


def _pieces_then_failure():
    yield "<gexf>\n"
    raise RuntimeError("writer failed")


@pytest.mark.parametrize(
    "pieces, error",
    [(_pieces_then_failure, RuntimeError), (lambda: ["ok\n", "\ud800\n"], UnicodeEncodeError)],
    ids=["iterator raises", "piece not encodable"],
)
@pytest.mark.parametrize("existing", [None, b"old contents\n"])
def test_write_atomic_failing_midway_leaves_the_target_as_it_was(tmp_path, pieces, error, existing):
    target = tmp_path / "g.gexf"
    if existing is not None:
        target.write_bytes(existing)
    with pytest.raises(error):
        write_atomic(target, pieces())
    # no temporary file is left beside the target
    assert sorted(tmp_path.iterdir()) == ([] if existing is None else [target])
    if existing is not None:
        assert target.read_bytes() == existing


def test_write_atomic_keeps_the_writers_error_when_cleanup_fails(tmp_path, monkeypatch):
    target = tmp_path / "g.gexf"
    target.write_bytes(b"old\n")

    def refuse(path):
        raise PermissionError(f"cannot remove {path}")

    monkeypatch.setattr(os, "unlink", refuse)
    with pytest.raises(RuntimeError, match="writer failed"):
        write_atomic(target, _pieces_then_failure())
    assert target.read_bytes() == b"old\n"


def test_write_atomic_onto_a_directory(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    (target / "kept.txt").write_bytes(b"kept\n")
    with pytest.raises(ExportError, match="cannot write"):
        write_atomic(target, ["text\n"])
    # no temporary file is left, and the directory is as it was
    assert sorted(tmp_path.iterdir()) == [target]
    assert sorted(target.iterdir()) == [target / "kept.txt"]
    assert (target / "kept.txt").read_bytes() == b"kept\n"


def test_write_atomic_writes_pieces_as_utf8_without_newline_translation(tmp_path):
    pieces = ["ſaid café 中 \u2028\n", "", "a\r\nb\rc\n", "𝔤\n"]
    target = tmp_path / "t.txt"
    write_atomic(target, iter(pieces))
    assert target.read_bytes() == "".join(pieces).encode("utf-8")


def test_ingest_with_byte_order_mark(tmp_path, annotator):
    doc = annotator.annotate_text("B1", "Hee doth loue the Tutour. # 5")
    path = tmp_path / "B1.tsv"
    write_vertical(doc, path)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert ingest_pretagged(path) == doc


def test_ingest_rejects_control_characters(tmp_path):
    p = tmp_path / "c.tsv"
    # lines are counted at "\n" only, as an editor counts them
    p.write_text("# letter C\na\ta\ta\tNOUN\n\nb\tb\tb\x1cc\tNOUN\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"c\.tsv:4: control character U\+001C"):
        ingest_pretagged(p)


def test_ingest_rows_end_only_at_line_breaks(tmp_path):
    # str.splitlines would also break the row at U+0085
    p = tmp_path / "u.tsv"
    p.write_text("# letter U\nvse\tuse\tu\x85se\tVERB\n\nit\tit\tit\tPRON\n", encoding="utf-8")
    doc = ingest_pretagged(p)
    assert doc.sentences == (
        (Token("vse", "use", "u\x85se", PosClass.VERB),),
        (Token("it", "it", "it", PosClass.PRON),),
    )


@pytest.mark.parametrize("char", ["\x0b", "\x0c"])
def test_ingest_rejects_vertical_tab_and_form_feed(tmp_path, char):
    p = tmp_path / "c.tsv"
    p.write_text(f"# letter C\na\ta\ta{char}b\tNOUN\n", encoding="utf-8")
    with pytest.raises(InputError, match=rf"c\.tsv:2: control character U\+{ord(char):04X}"):
        ingest_pretagged(p)


def test_ingest_stem_is_default_id(tmp_path, annotator):
    doc = annotator.annotate_text("whatever", "A word.")
    path = tmp_path / "L99.tsv"
    write_vertical(doc, path)
    assert ingest_pretagged(path).letter_id == "L99"


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
    abbrevs = default_annotator().abbreviations
    assert "mr" in abbrevs and "viz" in abbrevs


def test_abbreviation_with_non_ascii_letters(tmp_path):
    p = tmp_path / "abbr.txt"
    # the last row spells its accent as a combining mark
    p.write_text("goſp.\nMr\nste\u0301.\n", encoding="utf-8")
    annotator = default_annotator(abbreviations=p)
    assert annotator.abbreviations == {"gosp", "mr", "sté"}
    doc = annotator.annotate_text("A", "I read the Goſp. Christ is risen.")
    assert len(doc.sentences) == 1
    for form in ("NFC", "NFD"):
        text = unicodedata.normalize(form, "I met the Sté. Amand came.")
        assert len(annotator.annotate_text("A", text).sentences) == 1


@pytest.mark.parametrize("row", ["e.g.", "o'th", "no2", "mr..", "."])
def test_abbreviation_row_is_one_word(tmp_path, row):
    p = tmp_path / "abbr.txt"
    p.write_text(f"mr.\nviz\n{row}\n", encoding="utf-8")
    message = f"abbr.txt:3: abbreviation {row!r} is not one word of letters"
    with pytest.raises(InputError, match=re.escape(message) + "$"):
        default_annotator(abbreviations=p)


def test_default_annotator_smoke():
    ann = default_annotator()
    doc = ann.annotate_text("S", "The Tutour must vse care.")
    lemmas = [t.lemma for t in doc.sentences[0]]
    assert "tutor" in lemmas and "use" in lemmas


@given(st.text(alphabet="abcdefghiuv", min_size=1, max_size=8))
def test_modernize_deterministic_and_closed(word):
    out1 = modernize_spelling(word, ())
    out2 = modernize_spelling(word, ())
    assert out1 == out2
    assert len(out1) == len(word)
