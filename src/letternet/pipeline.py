"""Linguistic annotation for early modern English prose.

The pipeline takes cleaned letter text through sentence splitting,
tokenisation, spelling normalisation (u/v and i/j conventions, a
lexicon of period variants), rule-based part-of-speech tagging and
suffix-stripping lemmatisation, done in :class:`Annotator` from three
plain tables.  A word's annotation depends on its spelling alone, so
the annotator resolves each distinct form once and reuses the result
for every later token of that form.  Annotated documents can be written
to and re-read from a simple one-token-per-line vertical format; that is
also how the output of another tagger enters the toolchain
(:func:`ingest_pretagged`, which likewise makes each distinct row one
token).
"""

from __future__ import annotations

import enum
import logging
import os
import re
from itertools import islice
from pathlib import Path
from types import MappingProxyType
from typing import Container, Iterable, Iterator, Mapping, NamedTuple

log = logging.getLogger(__name__)


class PosClass(enum.Enum):
    """Coarse word classes used throughout the toolkit."""

    NOUN = "NOUN"
    VERB = "VERB"
    ADJ = "ADJ"
    ADV = "ADV"
    PRON = "PRON"
    MODAL = "MODAL"
    DET = "DET"
    PREP = "PREP"
    CONJ = "CONJ"
    NUM = "NUM"
    PUNCT = "PUNCT"
    OTHER = "OTHER"

    # identity hash in C: members are singletons, Enum.__hash__ a Python call
    __hash__ = object.__hash__


# label -> word class, as PosClass[label] but without Enum.__getitem__'s call
_POS_BY_NAME = {pos.name: pos for pos in PosClass}

_VOWELS = "aeiou"
_CLOSERS = "'’\"”)"

# What XML 1.0 cannot hold, as a regex class body, less the vertical tab
# and form feed: C0 controls other than tab, newline and carriage return,
# and the noncharacters U+FFFE and U+FFFF.  A lemma with one would make a
# GEXF file that is not well-formed.  A letter may hold vertical tabs and
# form feeds, which cleaning turns into spaces; other inputs may not.
_XML_UNWRITABLE = "\x00-\x08\x0e-\x1f\ufffe\uffff"
# The same characters in UTF-8: each C0 control is its own byte, which
# no other character's encoding holds, and U+FFFE and U+FFFF are
# EF BF BE and EF BF BF.
_LETTER_CONTROL_BYTES = bytes([*range(0x09), *range(0x0E, 0x20)])
_CONTROL_BYTES = _LETTER_CONTROL_BYTES + b"\x0b\x0c"


def _token_pattern(numerals: str = "", marks: str = "") -> str:
    # [^\W\d_] is every letter (str.isalpha) and every numeral that is not
    # a decimal digit ("²", "½"), so tokenize cuts the latter out of words.
    # Combining marks are \W; those given here continue a word.
    letter = f"[^\\W\\d_{re.escape(numerals)}]"
    run = f"{letter}(?:{letter}|[{re.escape(marks)}])*" if marks else f"{letter}+"
    return f"{run}(?:['’]{run})*|\\d+|\\.{{2,}}|\\S"


_TOKEN_RE = re.compile(_token_pattern())
# The same rule on ASCII text, where those classes are plain ranges; \S
# keeps its Unicode meaning, which takes \x1c-\x1f for white space.
_ASCII_TOKEN_RE = re.compile(r"[A-Za-z]+(?:'[A-Za-z]+)*|[0-9]+|\.{2,}|\S")
_ASCII_CHARS = frozenset(map(chr, range(128)))


class LetternetError(Exception):
    """Base of the package's errors, which also derive from ValueError or OSError."""


class InputError(ValueError, LetternetError):
    """Raised for an input file, option or config value that cannot be used."""


class ExportError(OSError, LetternetError):
    """Raised when an output file cannot be written."""


# what read_input reads, in order, each path as its reader gave it, while
# cli.main sets a list
_reads: list[str | Path] | None = None

_BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark


def read_input(path: str | Path, what: str, *, letter: bool = False) -> str:
    """The text of an input file: UTF-8, a byte-order mark dropped, lines ending in "\\n".

    "\\r\\n" and "\\r" become "\\n".  The path is used as given, a
    ``str`` as it is written.  A mark is dropped by testing the first
    three bytes, and the rest is decoded by the C UTF-8 codec.  An
    unreadable or undecodable file (naming the byte offset in the file,
    mark included) raises :class:`InputError` with "cannot read {what}
    {path}: ...", and a control character or noncharacter that XML
    cannot hold with "{path}:{line}: ...".  With ``letter`` true,
    vertical tabs and form feeds pass, and every message names the file
    "{what}: {path}".  While a command runs, the path is also appended to
    ``_reads``: the inputs that the command's outputs may not replace.
    """
    if _reads is not None:
        _reads.append(path)
    # a letter's file name need not say which letter it is
    where = f"{what}: {path}" if letter else str(path)
    name = where if letter or not what else f"{what} {path}"
    try:
        with open(path, "rb") as f:
            data = f.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputError(f"cannot read {name}: {exc}") from exc
    try:
        text = (data[3:] if data.startswith(_BOM) else data).decode()
    except UnicodeDecodeError as exc:
        # exc.start counts from after a byte-order mark
        offset = exc.start + len(data) - len(exc.object)
        raise InputError(f"cannot read {name}: not valid UTF-8 (byte offset {offset})") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # the regex, compiled only then, looks for the first one when the bytes hold one
    controls = _LETTER_CONTROL_BYTES if letter else _CONTROL_BYTES
    if len(data.translate(None, controls)) < len(data) or (
        b"\xef" in data and (b"\xef\xbf\xbe" in data or b"\xef\xbf\xbf" in data)
    ):
        feeds = "" if letter else "\x0b\x0c"
        bad = re.search(f"[{feeds}{_XML_UNWRITABLE}]", text)
        lineno = text.count("\n", 0, bad.start()) + 1
        code = ord(bad.group())
        kind = "noncharacter" if code > 0xFFFD else "control character"
        raise InputError(f"{where}:{lineno}: {kind} U+{code:04X}")
    return text


def read_table(path: str | Path, n_fields: int | None, what: str) -> list[tuple[str, list[str]]]:
    """Rows of a tab-separated resource file as ("path:line", fields).

    The file is read by :func:`read_input`; blank and "#" lines are
    skipped, and each line and each field is stripped.  A row without
    exactly ``n_fields`` fields raises :class:`InputError`; with
    ``n_fields`` None the first row (a header) sets the count.
    """
    p = Path(path)
    prefix = f"{p}:"
    rows = []
    for lineno, line in enumerate(read_input(p, what).split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("\t")
        if n_fields is None:
            n_fields = len(parts)
        if len(parts) != n_fields:
            raise InputError(
                f"{p}:{lineno}: expected {n_fields} tab-separated fields, got {len(parts)}"
            )
        rows.append((f"{prefix}{lineno}", list(map(str.strip, parts))))
    return rows


def read_json(path: str | Path, what: str):
    """The value of a JSON file read by :func:`read_input`.

    Invalid JSON, and JSON nested deeper than the parser can go, raise
    :class:`InputError` naming the file.
    """
    import json

    p = Path(path)
    try:
        return json.loads(read_input(p, what))
    except json.JSONDecodeError as exc:
        raise InputError(f"{p}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise InputError(f"{p}: invalid JSON: nested too deeply") from None


def parse_index(text: str) -> int | None:
    """The number a field of ASCII digits spells, or None for any other text.

    ``int`` alone would also take a sign, underscores, surrounding
    spaces and the digits of other scripts.
    """
    return int(text) if text.isascii() and text.isdigit() else None


_BLOCK = 256  # pieces that write_atomic joins, encodes and writes at once


def write_atomic(path: str | Path, pieces: Iterable[str]) -> None:
    """Write text to a file so that it appears complete or not at all.

    ``pieces`` are taken in order, as they come, in blocks of 256: each
    block is joined, encoded as UTF-8 and written at once into a
    temporary file beside the target, with no newline translation; so a
    writer can yield a large document line by line, and no more than a
    block of it is held.  Only once the last block is written does the
    file replace the target.  It gets the mode that ``open(path, "w")``
    would give it, 0o666 less the umask.  An OSError becomes
    :class:`ExportError`; whatever goes wrong, the pieces' iterator
    raising or a piece that cannot be encoded included, the temporary
    file is removed and an existing target is left as it was.
    """
    target = os.fspath(path)
    tmp_name = f"{target}.{os.urandom(4).hex()}"
    try:
        fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise ExportError(f"cannot write {target}: {exc}") from exc
    try:
        # a binary file translates no newline
        with open(fd, "wb") as fh:
            pieces = iter(pieces)
            while block := list(islice(pieces, _BLOCK)):
                fh.write("".join(block).encode())
        os.replace(tmp_name, target)
    except BaseException as exc:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise ExportError(f"cannot write {target}: {exc}") from exc
        raise


class Token(NamedTuple):
    """One annotated token, as an immutable named tuple.

    ``surface`` is the form as transcribed, ``normalized`` the
    modernised spelling, ``lemma`` the dictionary head word.  A token
    does not record where it stands: its position is its index in
    ``AnnotatedDoc.sentences`` and in its sentence, so every occurrence
    of a form can be the same object.
    """

    surface: str
    normalized: str
    lemma: str
    pos: PosClass


class AnnotatedDoc:
    """All sentences of one letter, fully annotated; its length is its token count.

    Its two fields are set once, by ``__init__``, and equality, hash,
    ``repr`` and pickling go by ``(letter_id, sentences)``.  It is not a
    NamedTuple, whose length would be its field count.
    """

    __slots__ = ("letter_id", "sentences")

    def __init__(self, letter_id: str, sentences: tuple[tuple[Token, ...], ...]) -> None:
        object.__setattr__(self, "letter_id", letter_id)
        object.__setattr__(self, "sentences", sentences)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of AnnotatedDoc")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of AnnotatedDoc")

    def __eq__(self, other) -> bool:
        if other.__class__ is not AnnotatedDoc:
            return NotImplemented
        return self.letter_id == other.letter_id and self.sentences == other.sentences

    def __hash__(self) -> int:
        return hash((self.letter_id, self.sentences))

    def __repr__(self) -> str:
        return f"AnnotatedDoc(letter_id={self.letter_id!r}, sentences={self.sentences!r})"

    def __reduce__(self):
        return AnnotatedDoc, (self.letter_id, self.sentences)

    def tokens(self) -> Iterator[Token]:
        for sentence in self.sentences:
            yield from sentence

    def __len__(self) -> int:
        return sum(len(s) for s in self.sentences)


# ---------------------------------------------------------------------------
# sentence splitting


def _is_mark(ch: str) -> bool:
    """Whether ``ch`` is a combining mark (Unicode category M)."""
    if ch.isascii():
        return False
    from unicodedata import category  # here, so that importing the package does not load it

    return category(ch)[0] == "M"


def fold(text: str) -> str:
    """``text`` case-folded and, unless it is ASCII, in Unicode form NFC.

    Every word key, table value and lemma is folded this way, so "Tutour"
    and "tutour", and "café" with a precomposed or a combining accent,
    find the same entry and make the same node.
    """
    if text.isascii():
        return text.casefold()
    from unicodedata import normalize  # as in _is_mark

    return normalize("NFC", text.casefold())


def _ends_sentence(chunk: str, abbreviations: Container[str], colon_boundary: bool) -> bool:
    """Whether a white-space chunk ends a sentence, as :func:`split_sentences` says."""
    body = chunk.rstrip(_CLOSERS)
    terminators = ".!?:" if colon_boundary else ".!?"
    if not body or body[-1] not in terminators:
        return False
    # a "." with no closer after it may close an abbreviation; in a run of
    # terminators no letter stands right before the last one
    if body[-1] != "." or len(chunk) > len(body):
        return True
    start = end = len(body) - 1
    while start and (body[start - 1].isalpha() or _is_mark(body[start - 1])):
        start -= 1
    # a mark that follows no letter stands alone, as in tokenize
    while start < end and not body[start].isalpha():
        start += 1
    return start == end or fold(body[start:end]) not in abbreviations


def split_sentences(
    text: str, abbreviations: Container[str] = frozenset(), colon_boundary: bool = False
) -> list[str]:
    """Split cleaned text into sentences.

    A sentence ends only where a white-space chunk (a run of characters
    that are not white space, as ``str.split`` gives them) ends, and it
    ends there when the chunk, less its trailing closing quotes and ")",
    ends in ".", "!" or "?" (plus ":" with ``colon_boundary``, which
    helps on period texts that chain clauses with ":" where a modern
    writer would end the sentence).  So a run like "..." or "?!" counts
    once, and closers attach to the sentence they end.  The one exception
    is a lone "." (a run of one "." with no closer after it) after
    letters of its chunk, each with the combining marks that follow it,
    that :func:`fold` to one of ``abbreviations``: "Mr." ends no
    sentence, but "Mr.)" and "Mr.." do.  Text without a final terminator
    still yields its last sentence.  A sentence runs from its first chunk
    to its last, so the pieces cover every non-white-space character of
    the input in order.
    """
    sentences: list[str] = []
    start = None
    for chunk in re.finditer(r"\S+", text):
        if start is None:
            start = chunk.start()
        if _ends_sentence(chunk.group(), abbreviations, colon_boundary):
            sentences.append(text[start:chunk.end()])
            start = None
    if start is not None:
        sentences.append(text[start:].rstrip())
    return sentences


def tokenize(sentence: str) -> list[str]:
    """Break a sentence into word, number and punctuation tokens.

    A word is a run of letters (``str.isalpha``: "ſaid", "Æneas") with
    internal apostrophes, each letter followed by any combining marks
    (so "café" is one word whether its accent is precomposed or not), a
    number a run of decimal digits, runs of dots form a single token,
    and every other character stands alone.  Every non-whitespace
    character of the input ends up in exactly one token.
    """
    if sentence.isascii():
        return _ASCII_TOKEN_RE.findall(sentence)
    # the characters that may change the rule: \w ones that are not
    # letters, and combining marks
    others = sorted(ch for ch in set(sentence).difference(_ASCII_CHARS) if not ch.isalpha())
    numerals = "".join(ch for ch in others if ch.isalnum())
    marks = "".join(filter(_is_mark, others))
    if numerals or marks:
        return re.compile(_token_pattern(numerals, marks)).findall(sentence)
    return _TOKEN_RE.findall(sentence)


# ---------------------------------------------------------------------------
# the tables: variant lexicon, word classes, lemma exceptions


def _word_class(label: str, where: str) -> PosClass:
    try:
        return _POS_BY_NAME[label]
    except KeyError:
        raise InputError(f"{where}: unknown word class {label!r}") from None


class VariantEntry(NamedTuple):
    normalized: str
    pos: PosClass | None
    lemma: str | None


def load_variants(path: str | Path) -> dict[str, VariantEntry]:
    """Historical spelling -> modern form, from a four-column file.

    The columns are historical, normalized, pos and lemma; "-" leaves pos
    or lemma open for the tagger and lemmatiser to decide, and "#"
    starts a comment line.  Keys, normalized forms and lemmas are
    :func:`fold`-ed, and two rows for one folded historical form are an
    error.
    """
    entries: dict[str, VariantEntry] = {}
    for where, (historical, normalized, label, lemma) in read_table(path, 4, "lexicon"):
        if not historical or not normalized:
            raise InputError(f"{where}: empty form")
        key = fold(historical)
        if key in entries:
            raise InputError(f"{where}: {historical!r} repeats an earlier row")
        entries[key] = VariantEntry(
            normalized=fold(normalized),
            pos=None if label == "-" else _word_class(label, where),
            lemma=None if lemma == "-" else fold(lemma),
        )
    return entries


def load_word_classes(path: str | Path) -> dict[str, PosClass]:
    """Word -> class, from a two-column file (word, class); one row per folded word."""
    words: dict[str, PosClass] = {}
    for where, (word, label) in read_table(path, 2, "word list"):
        key = fold(word)
        if key in words:
            raise InputError(f"{where}: {word!r} repeats an earlier row")
        words[key] = _word_class(label, where)
    return words


def load_lemma_exceptions(path: str | Path) -> dict[tuple[str, PosClass | None], str]:
    """(form, class or None) -> lemma, from a three-column file (form, class-or-"-", lemma).

    Forms and lemmas are folded; two rows for one folded form and class
    are an error.
    """
    exceptions: dict[tuple[str, PosClass | None], str] = {}
    for where, (form, label, lemma) in read_table(path, 3, "exceptions"):
        key = (fold(form), None if label == "-" else _word_class(label, where))
        if key in exceptions:
            raise InputError(f"{where}: {form!r} as {label} repeats an earlier row")
        exceptions[key] = fold(lemma)
    return exceptions


# ---------------------------------------------------------------------------
# spelling modernisation (u/v, i/j)


def _swap_variants(word: str) -> list[str]:
    out: list[str] = []
    if word[:1] == "v":
        out.append("u" + word[1:])
    elif word[:1] == "u":
        out.append("v" + word[1:])
    if word[:1] == "i" and word[1:2] in _VOWELS:
        out.append("j" + word[1:])
    elif word[:1] == "j":
        out.append("i" + word[1:])
    for i in range(1, len(word)):
        ch = word[i]
        nxt = word[i + 1 : i + 2]
        if ch == "u" and nxt and nxt in _VOWELS + "y":
            out.append(word[:i] + "v" + word[i + 1 :])
        elif ch == "v":
            out.append(word[:i] + "u" + word[i + 1 :])
        elif ch == "i" and nxt and nxt in _VOWELS:
            out.append(word[:i] + "j" + word[i + 1 :])
        elif ch == "j":
            out.append(word[:i] + "i" + word[i + 1 :])
    return out


def spelling_fold(word: str) -> str:
    """``word`` case-folded, with "v" as "u" and "j" as "i".

    A u/v or i/j swap keeps it, so every respelling that
    :func:`modernize_spelling` tries has the fold of the word itself.
    """
    return word.casefold().replace("v", "u").replace("j", "i")


def modernize_spelling(
    word: str, words: Container[str], *, folds: Container[str] | None = None
) -> str:
    """Undo the u/v and i/j printing conventions of the period.

    Candidate respellings (vse - use, moue - move, ioy - joy) are only
    accepted when they are in ``words``, a modern word list; up to two
    swaps are tried.  As a last resort an initial "v" before a consonant
    becomes "u", which is safe for this period even off-list.

    ``folds``, when given, must hold the :func:`spelling_fold` of every
    word in ``words``.  A word whose fold is not in it has no known
    respelling, so the search is skipped and only the word itself is
    looked up.
    """
    if len(word) < 2 or word in words:
        return word
    if folds is not None and spelling_fold(word) not in folds:
        return _initial_v(word)
    seen = {word}
    frontier = [word]
    for _ in range(2):
        nxt: list[str] = []
        for form in frontier:
            for cand in _swap_variants(form):
                if cand in seen:
                    continue
                seen.add(cand)
                if cand in words:
                    return cand
                nxt.append(cand)
        frontier = nxt
    return _initial_v(word)


def _initial_v(word: str) -> str:
    if word[0] == "v" and word[1] not in _VOWELS:
        return "u" + word[1:]
    return word


# ---------------------------------------------------------------------------
# tagging and lemmatisation: functions of a folded word and the tables

# (suffixes, shortest word, class) in the order they are tried
_SUFFIX_RULES = (
    (("ly",), 4, PosClass.ADV),
    (("ing", "ed"), 5, PosClass.VERB),
    (
        ("tion", "sion", "ment", "ness", "ity", "ship", "hood", "ancy", "ency", "cy", "dom", "ance", "ence"),
        5,
        PosClass.NOUN,
    ),
    (("ous", "ful", "ive", "able", "ible", "ish", "less", "al", "ic"), 5, PosClass.ADJ),
)


def tag(word: str, words: Mapping[str, PosClass]) -> PosClass:
    """The class of a folded word: its entry in ``words``, else a suffix rule's, else NOUN."""
    hit = words.get(word)
    if hit is not None:
        return hit
    if word.isdigit():
        return PosClass.NUM
    for suffixes, min_len, pos in _SUFFIX_RULES:
        if len(word) >= min_len and word.endswith(suffixes):
            return pos
    return PosClass.NOUN


def _strip_or_keep(word: str, stem: str, words: Mapping[str, PosClass]) -> str:
    """Restore a stripped verb stem, but keep words that already are lemmas.

    The stem as it is, then with an "e" ("moved" - "move"), is looked up
    in ``words``; a doubled final consonant is undone ("fitted" - "fit").
    "bring" must stay "bring": its stem "br" is nonsense, and the full
    form is a known verb, so stripping loses.
    """
    for candidate in (stem, stem + "e"):
        if words.get(candidate) is PosClass.VERB:
            return candidate
    if len(stem) > 2 and stem[-1] == stem[-2] and stem[-1] not in _VOWELS + "ls":
        stem = stem[:-1]
        if words.get(stem) is PosClass.VERB:
            return stem
    return word if words.get(word) is PosClass.VERB else stem


def _strip_s(w: str, pos: PosClass, es_after: str, words: Mapping[str, PosClass]) -> str:
    """Undo -ies, -es and -s: noun plurals and verbs' third person.

    "-es" loses both letters after "ch", "sh" or one of ``es_after``.
    """
    if len(w) > 4 and w.endswith("ies"):
        return w[:-3] + "y"
    if len(w) > 3 and w.endswith("es"):
        if words.get(w[:-1]) is pos:
            return w[:-1]
        if w[-4:-2] in ("ch", "sh") or w[-3] in es_after:
            return w[:-2]
    if len(w) > 3 and w.endswith("s") and not w.endswith(("ss", "us", "is")):
        return w[:-1]
    return w


def lemmatize(
    word: str,
    pos: PosClass,
    exceptions: Mapping[tuple[str, PosClass | None], str],
    words: Mapping[str, PosClass],
) -> str:
    """The lemma of a folded word of class ``pos``.

    ``exceptions`` (irregular verbs, mutated plurals) are consulted
    first; regular inflection is then undone by class-conditioned rules,
    which look stems up in ``words``.  Only NOUN and VERB forms carry
    rules, every other class maps to itself.  Lemmatising a lemma is a
    no-op.
    """
    hit = exceptions.get((word, pos))
    if hit is None:
        hit = exceptions.get((word, None))
    if hit is not None:
        return hit
    if pos is PosClass.VERB:
        if len(word) > 4 and word.endswith("ied"):
            return word[:-3] + "y"
        if len(word) > 4 and word.endswith("ing"):
            return _strip_or_keep(word, word[:-3], words)
        if len(word) > 4 and word.endswith("ed"):
            return _strip_or_keep(word, word[:-2], words)
        return _strip_s(word, pos, "sxzo", words)
    if pos is PosClass.NOUN:
        return _strip_s(word, pos, "sxz", words)
    return word


# ---------------------------------------------------------------------------
# token annotation


class Annotator:
    """Annotates whole letters, resolving each distinct form once.

    The annotator is its tables, keyed by :func:`fold`-ed words as
    :func:`load_variants`, :func:`load_word_classes` and
    :func:`load_lemma_exceptions` return them, and the
    :func:`split_sentences` options.  Punctuation, numbers and "&" are
    classed directly.  For a word the variant lexicon wins where it has
    an entry (and may force class and lemma); everything else goes
    through spelling modernisation against ``words``, :func:`tag` and
    :func:`lemmatize`.  None of this looks at a token's neighbours, so
    the :class:`Token` of each surface form, as transcribed, is memoized
    on the annotator and lives as long as it does: every occurrence of a
    form is the same object.  No token spans white space, a white-space
    chunk tokenizes alone as it does within its text, and whether a
    sentence ends at a chunk depends on the chunk alone; so each distinct
    chunk ("vse,", "(Mr.") is memoized too, with its tokens and whether
    it ends a sentence, and :func:`tokenize` and that rule run once per
    chunk that is not letters alone (such a chunk is one word and ends no
    sentence).  The memos and the spelling folds of ``words`` depend on
    all five fields, so these are fixed once the annotator is made: it
    keeps its own copies of the three tables and shows them as read-only
    mappings, and ``abbreviations`` (a ``frozenset`` copy) and
    ``colon_boundary`` as read-only attributes, so a caller that changes
    a dict or set it passed in changes no annotation.  To change a table
    or an option, make a new annotator, which starts with empty memos.
    An annotator compares by identity, and pickling or copying one
    carries its memos along.
    """

    __slots__ = (
        "_variants", "_words", "_exceptions", "_abbreviations", "_colon_boundary",
        "_folds", "_forms", "_chunks",
    )

    def __init__(
        self,
        variants: Mapping[str, VariantEntry],
        words: Mapping[str, PosClass],
        exceptions: Mapping[tuple[str, PosClass | None], str],
        abbreviations: Iterable[str] = frozenset(),
        colon_boundary: bool = False,
    ) -> None:
        self._variants = dict(variants)
        self._words = dict(words)
        self._exceptions = dict(exceptions)
        self._abbreviations = frozenset(abbreviations)
        self._colon_boundary = colon_boundary
        self._folds = frozenset(map(spelling_fold, self._words))
        self._forms: dict[str, Token] = {}
        self._chunks: dict[str, tuple[tuple[Token, ...], bool]] = {}

    # read-only views, made on each access so that pickling and copying
    # see only the plain dicts
    @property
    def variants(self) -> Mapping[str, VariantEntry]:
        return MappingProxyType(self._variants)

    @property
    def words(self) -> Mapping[str, PosClass]:
        return MappingProxyType(self._words)

    @property
    def exceptions(self) -> Mapping[tuple[str, PosClass | None], str]:
        return MappingProxyType(self._exceptions)

    @property
    def abbreviations(self) -> frozenset[str]:
        return self._abbreviations

    @property
    def colon_boundary(self) -> bool:
        return self._colon_boundary

    def _resolve(self, surface: str) -> tuple[str, str, PosClass]:
        """(normalized, lemma, pos) of one surface form."""
        if surface == "&":
            return "&", "&", PosClass.CONJ
        if surface.isdigit():
            return surface, surface, PosClass.NUM
        if not surface.isalpha() and not any(ch.isalpha() for ch in surface):
            return surface, surface, PosClass.PUNCT
        key = fold(surface)
        entry = self._variants.get(key)
        if entry is None:
            normalized = modernize_spelling(key, self._words, folds=self._folds)
            pos = lemma = None
        else:
            normalized, pos, lemma = entry
        if pos is None:
            pos = tag(normalized, self._words)
        if lemma is None:
            lemma = lemmatize(normalized, pos, self._exceptions, self._words)
        return normalized, lemma, pos

    def _token(self, surface: str) -> Token:
        """The one :class:`Token` of a surface form."""
        token = self._forms.get(surface)
        if token is None:
            token = self._forms[surface] = Token(surface, *self._resolve(surface))
        return token

    def annotate_text(self, letter_id: str, text: str) -> AnnotatedDoc:
        """The annotated sentences of ``text``, in one pass over its white-space chunks.

        Sentences end as :func:`split_sentences` ends them, with the
        annotator's ``abbreviations`` and ``colon_boundary``.
        """
        chunks = self._chunks
        sentences = []
        tokens: list[Token] = []
        for chunk in text.split():
            hit = chunks.get(chunk)
            if hit is None:
                if chunk.isalpha():  # one word, which ends no sentence
                    hit = ((self._token(chunk),), False)
                else:
                    hit = (
                        tuple(map(self._token, tokenize(chunk))),
                        _ends_sentence(chunk, self._abbreviations, self._colon_boundary),
                    )
                chunks[chunk] = hit
            tokens += hit[0]
            if hit[1]:
                sentences.append(tuple(tokens))
                tokens = []
        if tokens:
            sentences.append(tuple(tokens))
        return AnnotatedDoc(letter_id=letter_id, sentences=tuple(sentences))

    def annotate(self, letter) -> AnnotatedDoc:
        return self.annotate_text(letter.meta.letter_id, letter.clean_text)


# ---------------------------------------------------------------------------
# bundled resources


def data_path(name: str) -> Path:
    """Path of a bundled resource file."""
    return Path(__file__).with_name("data") / name


def _load_abbreviations(path: str | Path) -> frozenset[str]:
    """The words of an abbreviation list, folded; a row is letters, then at most one dot."""
    words = set()
    for where, (row,) in read_table(path, 1, "abbreviations"):
        # folded first, so that a decomposed accent joins its letter
        word = fold(row.removesuffix("."))
        if not word.isalpha():
            raise InputError(f"{where}: abbreviation {row!r} is not one word of letters")
        words.add(word)
    return frozenset(words)


def default_annotator(
    *,
    colon_boundary: bool = False,
    variant_lexicon: str | Path | None = None,
    abbreviations: str | Path | None = None,
) -> Annotator:
    """Annotator wired with the bundled tables.

    ``variant_lexicon`` and ``abbreviations`` replace the bundled files
    when given.
    """
    words = load_word_classes(data_path("tagger_lexicon.tsv"))
    exceptions = load_lemma_exceptions(data_path("lemma_exceptions.tsv"))
    variants = load_variants(variant_lexicon or data_path("variant_lexicon.tsv"))
    abbrevs = _load_abbreviations(abbreviations or data_path("abbreviations.txt"))
    return Annotator(variants, words, exceptions, abbrevs, colon_boundary)


# ---------------------------------------------------------------------------
# vertical format


def write_vertical(
    doc: AnnotatedDoc, path: str | Path, *, memo: dict[Token, str] | None = None
) -> None:
    """Write a document in vertical form.

    One token per line (surface, normalized, lemma, class separated by
    tabs), a blank line between sentences, and a "# letter ..." comment
    line first.  A token row always has four fields, so a "#" token is
    not read back as a comment.  The write is atomic: the file appears
    complete or not at all.

    A token's row depends on the token alone, so each distinct token is
    formatted once.  ``memo`` maps token to row text; callers that write
    many documents pass one dict to every call, so that a token written
    in any earlier file costs one lookup.
    """
    rows = {} if memo is None else memo
    row_of = rows.get
    lines = [f"# letter {doc.letter_id}"]
    for i, sentence in enumerate(doc.sentences):
        if i:
            lines.append("")
        for token in sentence:
            row = row_of(token)
            if row is None:
                row = rows[token] = (
                    f"{token.surface}\t{token.normalized}\t{token.lemma}\t{token.pos._name_}"
                )
            lines.append(row)
    write_atomic(path, ("\n".join(lines), "\n"))


def ingest_pretagged(path: str | Path, *, memo: dict[str, Token] | None = None) -> AnnotatedDoc:
    """Read a vertical file produced here or by an external tagger.

    The file is read by :func:`read_input`, and blank lines separate
    sentences.  A line whose first non-blank character is "#" is a
    comment unless it has exactly four tab-separated fields, in which
    case it is a token row (say, of the token "#").  Any other row with
    the wrong number of fields raises :class:`InputError` naming the
    line.  An unknown word class label degrades to OTHER with a warning.
    The letter id is the file's stem.

    A row's token depends on its text alone, so each distinct row is
    split once and every later occurrence is the same :class:`Token`
    object.  ``memo`` maps row text to token; callers that read many
    files pass one dict to every call, so that a row seen in any earlier
    file costs one lookup and the tokens take memory in proportion to
    the distinct rows, not to all of them.  Only rows with a known label
    go in the memo, so a row with an unknown one warns, naming its line,
    each time it occurs.
    """
    p = Path(path)
    lines = read_input(p, "").split("\n")
    tokens = {} if memo is None else memo
    known = tokens.get
    pos_named = _POS_BY_NAME.get
    sentences: list[tuple[Token, ...]] = []
    current: list[Token] = []
    for lineno, line in enumerate(lines, start=1):
        token = known(line)
        if token is not None:
            current.append(token)
            continue
        if not line or line.isspace():
            if current:
                sentences.append(tuple(current))
                current = []
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            if line.lstrip().startswith("#"):
                continue
            raise InputError(
                f"{p}:{lineno}: expected 4 tab-separated fields, got {len(parts)}"
            )
        surface, normalized, lemma, label = parts
        pos = pos_named(label) or pos_named(label.strip())
        if pos is None:
            log.warning("%s:%d: unknown word class %r, using OTHER", p, lineno, label)
            token = Token(surface, normalized, lemma, PosClass.OTHER)
        else:
            token = tokens[line] = Token(surface, normalized, lemma, pos)
        current.append(token)
    if current:
        sentences.append(tuple(current))
    if not sentences:
        log.warning("%s: no tokens found", p)
    return AnnotatedDoc(letter_id=p.stem, sentences=tuple(sentences))
