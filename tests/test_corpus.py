"""Letter loading and transcription cleaning."""

import codecs
import logging
import re

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from letternet.corpus import (
    LetterMeta,
    _HYPHEN_BREAK_RE,
    _drop_bracketed,
    _strip_markup,
    clean_text,
    load_letter,
    load_manifest,
)
from letternet.pipeline import InputError

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
    assert clean_text("english text. Hierauff wird ein", cut_marker="Hierauff") == "english text."
    # marker absent: no change
    assert clean_text("english text.", cut_marker="Hierauff") == "english text."


def test_whitespace_collapsed():
    assert clean_text("a\n\n  b\tc") == "a b c"


# Text that markup, notes and line-break hyphens leave alone (no "<>[]-"),
# thick with whitespace: ASCII, the information separators, NEL, no-break
# and other Unicode spaces, and the zero-width space, which is not one.
_SPACES = list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2009\u2028\u2029\u202f\u3000\u200b")
_SPACED_TEXT = st.text(
    st.sampled_from([*_SPACES, "a", "é", ".", "ſ"])
    | st.characters(blacklist_categories=("Cs",), blacklist_characters="<>[]-"),
    max_size=60,
)


@given(_SPACED_TEXT)
def test_whitespace_collapses_as_the_regex_did(text):
    # the expression clean_text used before it split on str.isspace
    assert clean_text(text) == re.sub(r"\s+", " ", text).strip()


def ref_drop_bracketed(text: str) -> str:
    """Reference for ``_drop_bracketed``: one step per character."""
    logger = logging.getLogger("letternet.corpus")

    def warn(problem, offset):
        logger.warning(
            f"text: {problem} (offset {offset} of the text with line-end hyphens joined "
            "and tags made spaces)"
        )

    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "[":
            j, depth, max_depth = i + 1, 1, 1
            while j < n and depth:
                if text[j] == "[":
                    depth += 1
                    max_depth = max(max_depth, depth)
                elif text[j] == "]":
                    depth -= 1
                j += 1
            if depth:
                warn("unbalanced '[' left as literal text", i)
                out.append(text[i:])
                break
            if max_depth > 1:
                warn("nested brackets left untouched", i)
                out.append(text[i:j])
            else:
                out.append(" ")
            i = j
        elif ch == "]":
            warn("stray ']' left as literal text", i)
            out.append(ch)
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


@settings(max_examples=500, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.text(alphabet=st.sampled_from("[[]]ab \n"), max_size=40))
def test_drop_bracketed_matches_reference(caplog, text):
    def run(drop):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="letternet.corpus"):
            result = drop(text)
        return result, [record.getMessage() for record in caplog.records]

    assert run(_drop_bracketed) == run(ref_drop_bracketed)


def ref_clean_text(text, cut_marker=None):
    """clean_text's chain of steps with the hyphen join run on every text."""
    if cut_marker:
        pos = text.find(cut_marker)
        if pos >= 0:
            text = text[:pos]
    text = _HYPHEN_BREAK_RE.sub(r"\1\2", text)
    return " ".join(_drop_bracketed(_strip_markup(text)).split())


# words, hyphens, the white space a line break may carry, and markup
_HYPHEN_PIECES = st.sampled_from(
    ["a", "b", "word", "ſ", "é", "7", "_", "-", "-", " ", "\t", "\n", "\n", "\r",
     "-\n", "<", ">", "<g>", "[", "]", "[n]", "."]
)


@given(st.lists(_HYPHEN_PIECES, max_size=30).map("".join))
@example("a-\nb-\nc")
@example("-\t \n")
@example("consi- \t\n  deracion")
@example("a<g>-\nb")
def test_clean_text_matches_unguarded_hyphen_join(text):
    assert clean_text(text) == ref_clean_text(text)
    assert clean_text(text, cut_marker="\n") == ref_clean_text(text, cut_marker="\n")


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
    with pytest.raises(InputError, match="X1"):
        load_letter(tmp_path / "nope.txt", meta())


def test_load_letter_bad_encoding(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"ok \xff\xfe bad")
    with pytest.raises(InputError, match="byte"):
        load_letter(p, meta())


def test_load_letter_cleans(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text("hello <gap> [note] world", encoding="utf-8")
    letter = load_letter(p, meta())
    assert letter.raw_text == "hello <gap> [note] world"
    assert letter.clean_text == "hello world"


def test_load_letter_with_byte_order_mark(tmp_path, annotator):
    text = "Hee doth loue the Tutour. He is good."
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    letter = load_letter(marked, meta())
    assert letter == load_letter(plain, meta())
    assert letter.raw_text == text
    # no U+FEFF token at index 0 to shift the positions anaphora tables use
    assert annotator.annotate(letter) == annotator.annotate(load_letter(plain, meta()))
    # a decoding error still gives the offset in the file, mark included
    marked.write_bytes(codecs.BOM_UTF8 + b"ok \xff")
    with pytest.raises(InputError, match="byte offset 6"):
        load_letter(marked, meta())


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0e", "\x1c", "\x1f"])
def test_load_letter_rejects_control_characters(tmp_path, char):
    p = tmp_path / "l.txt"
    p.write_text(f"first line\nthe tu{char}tor\n", encoding="utf-8")
    code = f"U\\+{ord(char):04X}"
    with pytest.raises(InputError, match=rf"'X1': .*l\.txt:2: control character {code}"):
        load_letter(p, meta())


@pytest.mark.parametrize("char", ["\ufffe", "\uffff"])
def test_load_letter_rejects_noncharacters(tmp_path, char):
    # XML 1.0 cannot hold them either
    p = tmp_path / "l.txt"
    p.write_text(f"first line\nthe tu{char}tor\n", encoding="utf-8")
    code = f"U\\+{ord(char):04X}"
    with pytest.raises(InputError, match=rf"'X1': .*l\.txt:2: noncharacter {code}"):
        load_letter(p, meta())


def test_load_letter_counts_lines_as_an_editor_does(tmp_path):
    # "\r\n" is one line break, U+2028 and U+0085 are none
    p = tmp_path / "l.txt"
    p.write_bytes("first\u2028line\r\nsecond\x85line\rthe tu\x01tor\n".encode("utf-8"))
    with pytest.raises(InputError, match=r"l\.txt:3: control character U\+0001"):
        load_letter(p, meta())


def test_load_letter_keeps_whitespace_controls(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text("a\tb\x0bc\x0cd\r\ne", encoding="utf-8")
    assert load_letter(p, meta()).clean_text == "a b c d e"


def test_load_letter_warnings_name_the_letter(tmp_path, caplog):
    p = tmp_path / "l.txt"
    p.write_text("a <gap> b] c [x [y] z] d < e [f", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="letternet.corpus"):
        assert load_letter(p, meta()).clean_text == "a b] c [x [y] z] d < e [f"
    at = "of the text with line-end hyphens joined and tags made spaces"
    assert [r.getMessage() for r in caplog.records] == [
        f"letter 'X1' ({p}): unbalanced angle markup left as literal text",
        f"letter 'X1' ({p}): stray ']' left as literal text (offset 5 {at})",
        f"letter 'X1' ({p}): nested brackets left untouched (offset 9 {at})",
        f"letter 'X1' ({p}): unbalanced '[' left as literal text (offset 25 {at})",
    ]


# manifest files


def test_load_manifest_sample():
    letters = load_manifest(MANIFEST)
    assert len(letters) == 13
    l01 = letters[0]
    assert l01.meta.letter_id == "L01"
    assert l01.meta.year == 1628
    assert l01.meta.year_uncertain
    # the German tail is cut before cleaning
    assert "Hierauff" not in l01.clean_text
    assert "folgen" not in l01.clean_text
    (l07,) = [letter for letter in letters if letter.meta.letter_id == "L07"]
    assert l07.meta.addressee is None


def test_corpus_sorted_by_year_then_id(tmp_path):
    # rows out of order; C and D share a year, as do A and B
    rows = [("B", 1650), ("D", 1600), ("A", 1650), ("C", 1600)]
    lines = ["letter_id\tsender\taddressee\tyear\tyear_uncertain\tlanguage\tfile"]
    for lid, year in rows:
        (tmp_path / f"{lid}.txt").write_text(f"text of {lid}", encoding="utf-8")
        lines.append(f"{lid}\tDury\t-\t{year}\tfalse\ten\t{lid}.txt")
    p = tmp_path / "m.tsv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    letters = load_manifest(p)
    assert type(letters) is list
    assert [(l.meta.letter_id, l.meta.year) for l in letters] == [
        ("C", 1600), ("D", 1600), ("A", 1650), ("B", 1650)
    ]
    assert [l.clean_text for l in letters] == [f"text of {lid}" for lid in "CDAB"]


def test_load_manifest_missing_columns(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("letter_id\tsender\nA\tDury\n", encoding="utf-8")
    with pytest.raises(InputError, match="columns"):
        load_manifest(p)


def test_load_manifest_bad_year(tmp_path):
    p = tmp_path / "m.tsv"
    (tmp_path / "a.txt").write_text("x", encoding="utf-8")
    p.write_text(
        "letter_id\tsender\taddressee\tyear\tyear_uncertain\tlanguage\tfile\n"
        "A\tDury\t-\tnot_a_year\tfalse\ten\ta.txt\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError, match=":2"):
        load_manifest(p)


def test_load_manifest_bad_bool(tmp_path):
    p = tmp_path / "m.tsv"
    (tmp_path / "a.txt").write_text("x", encoding="utf-8")
    p.write_text(
        "letter_id\tsender\taddressee\tyear\tyear_uncertain\tlanguage\tfile\n"
        "A\tDury\t-\t1630\tmaybe\ten\ta.txt\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError, match="boolean"):
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
    (letter,) = load_manifest(p)
    assert letter.meta.letter_id == "A"
    assert letter.meta.year_uncertain


def test_load_manifest_not_found(tmp_path):
    with pytest.raises(InputError, match="not found"):
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
    # a NUL is refused already as the manifest is read, like any control
    # character that XML cannot hold
    if "\0" in letter_id:
        reason = r"control character U\+0000"
    else:
        reason = r"letter_id .* not a plain file name"
    with pytest.raises(InputError, match=r"m\.tsv:2: " + reason):
        load_manifest(p)
