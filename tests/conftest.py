import logging
import os
import re
from collections import Counter
from itertools import chain, combinations
from pathlib import Path

import pytest

import letternet
from letternet.cli import CONFIG_ENV_VAR
from letternet.corpus import Letter, LetterMeta, _HYPHEN_BREAK_RE, _drop_bracketed
from letternet.network import (
    DEFAULT_CONTENT_CLASSES,
    LexicalGraph,
    PairRecord,
    RelationKind,
    node_order,
)
from letternet.pipeline import AnnotatedDoc, InputError, PosClass, Token, data_path


SAMPLE_DIR = data_path("sample_corpus")
MANIFEST = SAMPLE_DIR / "manifest.tsv"

N = PosClass.NOUN
V = PosClass.VERB


def child_env(**extra):
    """The environment of a child interpreter that imports this letternet.

    The directory letternet was imported from goes first on PYTHONPATH,
    made absolute, since a relative entry such as ``src`` would not resolve
    once the child starts in another directory.  No config file is named,
    and standard output is buffered as in a plain interpreter:
    ``PYTHONUNBUFFERED`` would make every print a write of its own.
    """
    env = {k: v for k, v in os.environ.items() if k not in (CONFIG_ENV_VAR, "PYTHONUNBUFFERED")}
    package_root = Path(letternet.__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root), env.get("PYTHONPATH")]))
    return {**env, **extra}


def tree_bytes(root):
    """Every file under ``root``, by its path relative to ``root``, with its bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def one_row_manifest(tmp_path, letter_id, year):
    """Write a manifest m.tsv of one letter, whose file a.txt exists; return its path."""
    (tmp_path / "a.txt").write_text("x", encoding="utf-8")
    p = tmp_path / "m.tsv"
    # letter_id is an inner column, so that an empty id survives the row's strip
    p.write_text(
        "sender\tletter_id\taddressee\tyear\tyear_uncertain\tlanguage\tfile\n"
        f"Dury\t{letter_id}\t-\t{year}\tfalse\ten\ta.txt\n",
        encoding="utf-8",
    )
    return p


# The letter reader as it was before it used string operations alone:
# a Path joined per letter, the Python-level "utf-8-sig" codec, a markup
# pass on every text and " ".join(text.split()).  It is the oracle of the
# reader's fast paths.

_OLD_BOM = b"\xef\xbb\xbf"
_OLD_TAG_RE = re.compile(r"<[^<>]*>")


def old_read_text(path):
    """(text, None) of a file as the old reader decoded it, or (None, byte offset of the error)."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start counts from after a mark, which the codec dropped
        return None, exc.start + (3 if data.startswith(_OLD_BOM) else 0)
    return text.replace("\r\n", "\n").replace("\r", "\n"), None


def old_clean_text(text, cut_marker=None, where="text"):
    """clean_text as it was, with the same warnings, and its hyphen join run on every text."""
    if cut_marker:
        pos = text.find(cut_marker)
        if pos >= 0:
            text = text[:pos]
    text = _HYPHEN_BREAK_RE.sub(r"\1\2", text)
    removed = 1
    while removed:
        text, removed = _OLD_TAG_RE.subn(" ", text)
    if "<" in text or ">" in text:
        logging.getLogger("letternet.corpus").warning(
            "%s: unbalanced angle markup left as literal text", where
        )
    return " ".join(_drop_bracketed(text, where).split())


def old_load_manifest(path):
    """The letters of a well-formed manifest as the old reader gave them.

    A letter file it cannot open raises :class:`InputError` with the
    message the old reader gave.
    """
    p = Path(path)
    lines = [line.strip() for line in p.read_text(encoding="utf-8").split("\n")]
    rows = [[v.strip() for v in line.split("\t")] for line in lines if line and line[0] != "#"]
    letters = []
    for values in rows[1:]:
        row = dict(zip(rows[0], values))
        file = p.parent / row["file"]
        what = f"letter {row['letter_id']!r}"
        try:
            raw, _ = old_read_text(file)
        except OSError as exc:
            raise InputError(f"cannot read {what}: {file}: {exc}") from exc
        marker = row.get("cut_marker", "-")
        meta = LetterMeta(
            row["letter_id"], row["sender"],
            None if row["addressee"] in ("", "-") else row["addressee"], int(row["year"]),
            row["year_uncertain"].lower() in ("1", "true", "yes", "y"), row["language"] or "en",
        )
        clean = old_clean_text(raw, None if marker == "-" else marker, f"{what} ({file})")
        letters.append(Letter(meta, raw, clean))
    return sorted(letters, key=lambda letter: (letter.meta.year, letter.meta.letter_id))


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


def cooccurrence_records(doc, window=None):
    """One COOCCUR record for every pair of content tokens in context."""
    records = []
    for sent_idx, sentence in enumerate(doc.sentences):
        content = [(i, t) for i, t in enumerate(sentence) if t.pos in DEFAULT_CONTENT_CLASSES]
        for (i, a), (j, b) in combinations(content, 2):
            if window is not None and abs(i - j) > window:
                continue
            first, second = sorted((a, b), key=lambda t: (t.lemma, t.pos.name))
            records.append(
                PairRecord(
                    first.lemma, first.pos, second.lemma, second.pos, RelationKind.COOCCUR,
                    doc.letter_id, sent_idx,
                )
            )
    return records


# The graph kernels as they were before node ids came from one token
# table: the oracles of the id kernels, node and edge order included.


def old_cooccurrence_graph(docs, window=None):
    """Co-occurrence counted on ids handed out per content token, one Python step each."""
    ids = {}
    pairs = Counter()
    freqs = Counter()
    for doc in docs:
        paired = []
        lone = []
        for sentence in doc.sentences:
            if window is None or window >= len(sentence) - 1:
                row = [
                    ids.setdefault((t.lemma, t.pos), len(ids))
                    for t in sentence
                    if t.pos in DEFAULT_CONTENT_CLASSES
                ]
                if len(row) > 1:
                    paired += row
                    row.sort()
                    _old_count_sentence(row, pairs)
                else:
                    lone += row
            else:
                row = [
                    (i, ids.setdefault((t.lemma, t.pos), len(ids)))
                    for i, t in enumerate(sentence)
                    if t.pos in DEFAULT_CONTENT_CLASSES
                ]
                for j, (i, a) in enumerate(row):
                    for k, b in row[j + 1 : j + 1 + window]:
                        if k - i > window:
                            break
                        pairs[(a, b) if a <= b else (b, a)] += 1
                near = [k - i <= window for (i, _), (k, _) in zip(row, row[1:])]
                for (_, a), left, right in zip(row, [False, *near], [*near, False]):
                    (paired if left or right else lone).append(a)
        if paired:
            freqs.update(paired)
            if lone:
                touched = set(paired)
                for a in lone:
                    if a in touched:
                        freqs[a] += 1
    keys = list(ids)
    order = [node_order(key) for key in keys]
    cooccur = RelationKind.COOCCUR
    edges = {
        (keys[a], keys[b], cooccur) if order[a] < order[b] else (keys[b], keys[a], cooccur): w
        for (a, b), w in pairs.items()
    }
    return LexicalGraph(nodes={keys[a]: f for a, f in freqs.items()}, edges=edges)


def _old_count_sentence(row, pairs):
    counts = Counter(row) if len(row) > 64 else None
    if counts is None or 2 * len(counts) >= len(row):
        pairs.update(combinations(row, 2))
        return
    tally = list(counts.items())
    for n, (a, c_a) in enumerate(tally):
        if c_a > 1:
            pairs[(a, a)] += c_a * (c_a - 1) // 2
        for b, c_b in tally[n + 1 :]:
            pairs[(a, b)] += c_a * c_b


def _old_nearest_noun(side, verb_blocker):
    for token in side:
        if token.pos is PosClass.NOUN:
            return token
        if verb_blocker and token.pos is PosClass.VERB:
            return None
    return None


def old_extract_window_pairs(doc, max_dist=4, verb_blocker=True):
    """Window pairs found by a token loop over each side of every verb."""
    reach = max_dist + 1
    records = []
    for sent_idx, sentence in enumerate(doc.sentences):
        for i, verb in enumerate(sentence):
            if verb.pos is not PosClass.VERB:
                continue
            noun = _old_nearest_noun(reversed(sentence[max(0, i - reach) : i]), verb_blocker)
            if noun is not None:
                records.append(
                    PairRecord(
                        noun.lemma, noun.pos, verb.lemma, verb.pos,
                        RelationKind.SUBJ, doc.letter_id, sent_idx,
                    )
                )
            noun = _old_nearest_noun(sentence[i + 1 : i + 1 + reach], verb_blocker)
            if noun is not None:
                records.append(
                    PairRecord(
                        verb.lemma, verb.pos, noun.lemma, noun.pos,
                        RelationKind.OBJ, doc.letter_id, sent_idx,
                    )
                )
    return records


def old_pair_graph(docs, max_dist=4, verb_blocker=True):
    """Window pairs keyed record by record, every edge keyed before any cut."""
    nodes = {}
    edges = Counter()
    for doc in docs:
        touched = set()
        for record in old_extract_window_pairs(doc, max_dist, verb_blocker):
            src = (record.src_lemma, record.src_pos)
            dst = (record.dst_lemma, record.dst_pos)
            edges[(src, dst, record.kind)] += 1
            touched.update((src, dst))
        if touched:
            for token, n in Counter(chain.from_iterable(doc.sentences)).items():
                key = (token.lemma, token.pos)
                if key in touched:
                    nodes[key] = nodes.get(key, 0) + n
    return LexicalGraph(nodes=nodes, edges=dict(edges))


def ordered(graph):
    """A graph's nodes and edges as lists, so that comparing them compares order too."""
    return list(graph.nodes.items()), list(graph.edges.items())


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
