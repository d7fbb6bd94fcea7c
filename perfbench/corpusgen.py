"""Seeded corpus generator for the benchmark.

Both corpus families start from the 13 bundled sample letters and write
a manifest plus one transcription per generated letter, so the program
under test only ever sees ordinary corpus files.

* ``replicated``: ``copies`` copies of every bundled letter under
  distinct ids.  The vocabulary is closed: more letters add tokens but
  no new words.  The seed only reassigns the copies' years, which
  reorders the corpus without changing its content.
* ``open-vocab``: the same copies, but each word of 4 or more letters is
  replaced, with probability ``PSEUDO_SHARE``, by a fresh pseudo-word
  built from syllables.  Pseudo-words miss every bundled lexicon, so
  the vocabulary grows with the corpus as it does in real text, and
  every one goes through the spelling-modernisation search.

The input properties that costs depend on are computed here from the
generated text, independently of the program.
"""

from __future__ import annotations

import csv
import random
import re
from dataclasses import dataclass
from pathlib import Path

FAMILIES = ("replicated", "open-vocab")
PSEUDO_SHARE = 0.10
MIN_REPLACED_LEN = 4

_ONSETS = ("b", "br", "c", "cl", "d", "f", "g", "gr", "h", "l", "m", "n",
           "p", "pl", "qu", "r", "s", "st", "t", "th", "tr", "v", "w", "j")
_NUCLEI = ("a", "e", "i", "o", "u", "ea", "ou", "ai", "ie", "y")
_CODAS = ("", "", "", "n", "r", "s", "t", "ll", "ck", "nd")

# Rules mirrored from the documented cleaning and tokenizing passes so
# that the input size is fixed by the input, not by the program.
_MARKUP_RE = re.compile(r"<[^<>]*>|\[[^\[\]]*\]")
_HYPHEN_BREAK_RE = re.compile(r"(\w)-[ \t]*\n\s*(\w)")
_TOKEN_RE = re.compile(r"[A-Za-z]+(?:['’][A-Za-z]+)*|\d+|\.{2,}|[^\sA-Za-z0-9]")
_WORD_RE = re.compile(r"[A-Za-z]+(?:['’][A-Za-z]+)*")
# Words outside markup, which is what the generator may replace.
_SEGMENT_RE = re.compile(r"<[^<>]*>|\[[^\[\]]*\]|[A-Za-z]+")
_SENTENCE_END_RE = re.compile(r"[.!?]+(?=\s+[A-Z]|\s*$)")
_FUNCTION_CLASSES = frozenset({"ADV", "PRON", "MODAL", "DET", "PREP", "CONJ", "NUM"})

MANIFEST_COLUMNS = ("letter_id", "sender", "addressee", "year", "year_uncertain",
                    "language", "file", "cut_marker")


@dataclass(frozen=True)
class SourceLetter:
    letter_id: str
    sender: str
    addressee: str
    year_uncertain: str
    language: str
    cut_marker: str
    text: str


@dataclass(frozen=True)
class InputProperties:
    letters: int
    bytes: int
    tokens: int
    words: int
    sentences: int
    mean_content_per_sentence: float
    max_content_per_sentence: int
    oov_share: float
    distinct_words: int


def read_sample_corpus(data_dir: Path) -> list[SourceLetter]:
    """The bundled letters, in manifest order."""
    corpus_dir = data_dir / "sample_corpus"
    with (corpus_dir / "manifest.tsv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    return [
        SourceLetter(
            letter_id=row["letter_id"],
            sender=row["sender"],
            addressee=row["addressee"],
            year_uncertain=row["year_uncertain"],
            language=row["language"],
            cut_marker=row.get("cut_marker") or "-",
            text=(corpus_dir / row["file"]).read_text(encoding="utf-8"),
        )
        for row in rows
    ]


def read_lexicon_words(data_dir: Path) -> tuple[frozenset[str], frozenset[str]]:
    """(every word listed in a bundled lexicon, the words listed with a
    function-word class)."""
    words: set[str] = set()
    function_words: set[str] = set()
    for name in ("tagger_lexicon.tsv", "variant_lexicon.tsv", "lemma_exceptions.tsv"):
        for line in (data_dir / name).read_text(encoding="utf-8").splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            word = fields[0].strip().casefold()
            words.add(word)
            if any(f.strip() in _FUNCTION_CLASSES for f in fields[1:]):
                function_words.add(word)
    return frozenset(words), frozenset(function_words)


def pseudo_word(rng: random.Random) -> str:
    syllables = rng.randint(2, 3)
    return "".join(
        rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
        for _ in range(syllables)
    )


def _replace_words(text: str, keep: str, rng: random.Random) -> str:
    def swap(m: re.Match) -> str:
        word = m.group(0)
        if word[0] in "<[" or len(word) < MIN_REPLACED_LEN or word == keep:
            return word
        if rng.random() >= PSEUDO_SHARE:
            return word
        new = pseudo_word(rng)
        return new.capitalize() if word[0].isupper() else new

    return _SEGMENT_RE.sub(swap, text)


def generate(family: str, copies: int, seed: int, out_dir: Path, data_dir: Path) -> Path:
    """Write a corpus of ``copies`` x 13 letters and return its manifest."""
    if family not in FAMILIES:
        raise ValueError(f"unknown corpus family {family!r}")
    rng = random.Random(f"letternet-bench:{family}:{seed}")
    sources = read_sample_corpus(data_dir)
    letters_dir = out_dir / "letters"
    letters_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for copy in range(copies):
        for src in sources:
            letter_id = f"{src.letter_id}c{copy:04d}"
            text = src.text
            if family == "open-vocab":
                text = _replace_words(text, src.cut_marker, rng)
            name = f"{letter_id}.txt"
            (letters_dir / name).write_text(text, encoding="utf-8")
            rows.append((letter_id, src.sender, src.addressee, str(rng.randint(1600, 1700)),
                         src.year_uncertain, src.language, f"letters/{name}", src.cut_marker))
    manifest = out_dir / "manifest.tsv"
    lines = ["\t".join(MANIFEST_COLUMNS)] + ["\t".join(row) for row in rows]
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def _clean(text: str, cut_marker: str) -> str:
    if cut_marker != "-":
        pos = text.find(cut_marker)
        if pos >= 0:
            text = text[:pos]
    text = _HYPHEN_BREAK_RE.sub(r"\1\2", text)
    return _MARKUP_RE.sub(" ", text)


def measure(manifest: Path, data_dir: Path) -> InputProperties:
    """Input properties of a generated corpus.

    Content words are approximated as words that no bundled lexicon
    lists with a function-word class.
    """
    lexicon, function_words = read_lexicon_words(data_dir)
    with manifest.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    n_bytes = tokens = words = oov = 0
    per_sentence: list[int] = []
    vocab: set[str] = set()
    for row in rows:
        raw = (manifest.parent / row["file"]).read_bytes()
        n_bytes += len(raw)
        text = _clean(raw.decode("utf-8"), row["cut_marker"])
        tokens += len(_TOKEN_RE.findall(text))
        for sentence in _SENTENCE_END_RE.split(text):
            found = [w.casefold() for w in _WORD_RE.findall(sentence)]
            if not found:
                continue
            words += len(found)
            oov += sum(1 for w in found if w not in lexicon)
            vocab.update(found)
            per_sentence.append(sum(1 for w in found if w not in function_words))
    return InputProperties(
        letters=len(rows),
        bytes=n_bytes,
        tokens=tokens,
        words=words,
        sentences=len(per_sentence),
        mean_content_per_sentence=round(sum(per_sentence) / max(len(per_sentence), 1), 3),
        max_content_per_sentence=max(per_sentence, default=0),
        oov_share=round(oov / max(words, 1), 4),
        distinct_words=len(vocab),
    )

