"""Corpus acquisition and cleaning for collections of historical letters.

A corpus is described by a tab-separated manifest: one row per letter
with an identifier, sender, addressee, year and the path of the
transcription file.  Transcriptions arrive as plain text with light
editorial markup (angle-bracket tags, square-bracketed notes) which is
stripped before any linguistic processing.
"""

from __future__ import annotations

import logging
import re
from pathlib import Path
from typing import NamedTuple

from letternet.pipeline import InputError, parse_index, read_input, read_table

log = logging.getLogger(__name__)

YEAR_MIN = 1400
YEAR_MAX = 1900

_TAG_RE = re.compile(r"<[^<>]*>")
_HYPHEN_BREAK_RE = re.compile(r"(\w)-[ \t]*\n\s*(\w)")
# What every match of _HYPHEN_BREAK_RE holds: a search for it is cheap,
# where the full pattern tries a match at every word character.
_HYPHEN_EOL_RE = re.compile(r"-[ \t]*\n")
_BRACKET_RE = re.compile(r"[\[\]]")

_MANIFEST_COLUMNS = (
    "letter_id",
    "sender",
    "addressee",
    "year",
    "year_uncertain",
    "language",
    "file",
)
_TRUE_WORDS = frozenset({"1", "true", "yes", "y"})
_FALSE_WORDS = frozenset({"0", "false", "no", "n", ""})
# Letter ids become file names (vertical files, per-letter graphs), so
# they may not name another directory.
_UNSAFE_ID_CHARS = frozenset("/\\\0")


class _LetterMetaFields(NamedTuple):
    letter_id: str
    sender: str
    addressee: str | None
    year: int
    year_uncertain: bool = False
    language: str = "en"


class LetterMeta(_LetterMetaFields):
    """A manifest row's metadata; a bad letter id or year raises ValueError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "LetterMeta":
        self = super().__new__(cls, *args, **kwargs)
        if not self.letter_id:
            raise ValueError("letter_id must be non-empty")
        if self.letter_id in (".", "..") or not _UNSAFE_ID_CHARS.isdisjoint(self.letter_id):
            raise ValueError(
                f"letter_id {self.letter_id!r} is not a plain file name "
                "(no '/', '\\', NUL, '.' or '..')"
            )
        if not (YEAR_MIN <= self.year <= YEAR_MAX):
            raise ValueError(
                f"letter {self.letter_id!r}: year {self.year} outside "
                f"plausible range {YEAR_MIN}..{YEAR_MAX}"
            )
        return self

    @classmethod
    def _make(cls, iterable) -> "LetterMeta":
        # NamedTuple's _make, and so _replace, would skip the checks
        return cls(*iterable)


class Letter(NamedTuple):
    """A transcription together with its metadata.

    ``raw_text`` is the file's text as ``read_input`` returns it, and
    ``clean_text`` is derived from it by :func:`clean_text`, with the
    cut marker of the letter's manifest row if it has one.
    """

    meta: LetterMeta
    raw_text: str
    clean_text: str


def _strip_markup(text: str, where: str = "text") -> str:
    # Repeated until nothing matches, so nested markup such as "<<g>>"
    # goes whole and cleaning stays idempotent.
    removed = 1
    while removed:
        text, removed = _TAG_RE.subn(" ", text)
    if "<" in text or ">" in text:
        log.warning("%s: unbalanced angle markup left as literal text", where)
    return text


def _drop_bracketed(text: str, where: str = "text") -> str:
    # Non-nested [...] spans are editorial notes and are removed whole;
    # nested or unbalanced brackets are reported and kept verbatim.
    # Only the bracket positions are visited; text[last:] is not copied yet.
    if "[" not in text and "]" not in text:
        return text

    def warn(problem: str, offset: int) -> None:
        log.warning(
            "%s: %s (offset %d of the text with line-end hyphens joined and tags made spaces)",
            where, problem, offset,
        )

    out: list[str] = []
    last = depth = start = max_depth = 0
    for m in _BRACKET_RE.finditer(text):
        i = m.start()
        if text[i] == "[":
            if not depth:
                start = i
            depth += 1
            max_depth = max(max_depth, depth)
        elif depth:
            depth -= 1
            if depth:
                continue
            if max_depth > 1:
                warn("nested brackets left untouched", start)
            else:
                out.append(text[last:start])
                out.append(" ")
                last = i + 1
            max_depth = 0
        else:
            warn("stray ']' left as literal text", i)
    if depth:
        warn("unbalanced '[' left as literal text", start)
    out.append(text[last:])
    return "".join(out)


def clean_text(text: str, cut_marker: str | None = None, *, where: str = "text") -> str:
    """Normalise a raw transcription to plain prose.

    With a ``cut_marker`` the text is first truncated where that literal
    string starts; manifests use it to drop trailing passages in another
    language.  Angle-bracket markup and square-bracketed editorial notes
    are dropped, hyphenation across line breaks is rejoined, and
    whitespace runs collapse to single spaces.  Unbalanced or nested
    markers are kept verbatim and reported as warnings rather than
    guessed at; each warning starts with ``where``.  The function is
    idempotent: cleaning cleaned text is a no-op.
    """
    if cut_marker:
        pos = text.find(cut_marker)
        if pos >= 0:
            text = text[:pos]
    if _HYPHEN_EOL_RE.search(text):
        text = _HYPHEN_BREAK_RE.sub(r"\1\2", text)
    text = _strip_markup(text, where)
    text = _drop_bracketed(text, where)
    # str.split and re's \s agree on what is whitespace
    return " ".join(text.split())


def load_letter(path: str | Path, meta: LetterMeta, cut_marker: str | None = None) -> Letter:
    """Read one transcription file and attach cleaned text.

    The file is read by :func:`~letternet.pipeline.read_input` and
    cleaned by :func:`clean_text` with ``cut_marker``.  A missing file,
    undecodable bytes and a control character that XML cannot hold
    (other than a vertical tab or form feed, which cleaning makes a
    space) raise :class:`InputError` naming the file; an empty file is
    only a warning and yields an empty-bodied letter.
    """
    p = path if isinstance(path, Path) else Path(path)
    raw = read_input(p, f"letter {meta.letter_id!r}", letter=True)
    cleaned = clean_text(raw, cut_marker, where=f"letter {meta.letter_id!r} ({p})")
    if not cleaned:
        log.warning("letter %s (%s) is empty after cleaning", meta.letter_id, p)
    return Letter(meta=meta, raw_text=raw, clean_text=cleaned)


def _parse_bool(value: str) -> bool:
    v = value.lower()
    if v in _TRUE_WORDS:
        return True
    if v in _FALSE_WORDS:
        return False
    raise ValueError(f"bad boolean {value!r}")


def load_manifest(path: str | Path) -> list[Letter]:
    """Load the letters of a tab-separated manifest, sorted by year then id.

    Expected columns: letter_id, sender, addressee, year,
    year_uncertain, language, file and optional cut_marker.  "-" stands
    for an absent addressee or cut marker.  Paths are resolved relative
    to the manifest's directory, and each letter is read by
    :func:`load_letter` with its row's cut marker.  Blank and "#" lines are skipped.  A
    manifest without letters is a warning, not an error; an undecodable
    file, a row whose field count differs from the header's, other
    malformed rows, letter ids that are not plain file names and
    duplicate identifiers are errors naming the offending line.
    """
    p = Path(path)
    if not p.is_file():
        raise InputError(f"manifest not found: {p}")
    rows = read_table(p, None, "manifest")
    columns = rows[0][1] if rows else []
    for i, name in enumerate(columns):
        if name in columns[:i]:
            raise InputError(f"{rows[0][0]}: header names column {name!r} twice")
    missing = [c for c in _MANIFEST_COLUMNS if c not in columns]
    if missing:
        raise InputError(f"{p}: manifest misses columns {missing}")
    base = p.parent
    letters: list[Letter] = []
    seen: set[str] = set()
    for where, values in rows[1:]:
        row = dict(zip(columns, values))
        year = parse_index(row["year"])
        if year is None:
            raise InputError(f"{where}: bad year {row['year']!r}")
        addressee = row["addressee"]
        try:
            meta = LetterMeta(
                letter_id=row["letter_id"],
                sender=row["sender"],
                addressee=None if addressee in ("", "-") else addressee,
                year=year,
                year_uncertain=_parse_bool(row["year_uncertain"]),
                language=row["language"] or "en",
            )
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
        if meta.letter_id in seen:
            raise InputError(f"{where}: duplicate letter id {meta.letter_id!r}")
        seen.add(meta.letter_id)
        marker = row.get("cut_marker", "")
        if not row["file"]:
            raise InputError(f"{where}: empty file column")
        letters.append(
            load_letter(base / row["file"], meta, None if marker == "-" else marker)
        )
    if not letters:
        log.warning("manifest %s lists no letters", p)
    letters.sort(key=lambda l: (l.meta.year, l.meta.letter_id))
    return letters
