"""Relation extraction over annotated letters.

The co-occurrence rule lives with the graph that counts it
(``network.cooccurrence_graph``); this module holds the node and edge
keys and their canonical order, and the records of a shallow
verb-argument heuristic that reads the nearest noun to the left of a
verb as its subject and the nearest noun to the right as its object.
The heuristic trades parsing for robustness: early modern prose defeats
modern parsers, while noun-verb adjacency survives the spelling.
"""

from __future__ import annotations

import enum
from collections import Counter
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from letternet.pipeline import (
    AnnotatedDoc, InputError, PosClass, Token, fold, parse_index, read_table,
)


class RelationKind(enum.Enum):
    COOCCUR = "COOCCUR"
    SUBJ = "SUBJ"
    OBJ = "OBJ"

    # as for PosClass: the C identity hash, not Enum's Python-level one
    __hash__ = object.__hash__


NodeKey = tuple[str, PosClass]
EdgeKey = tuple[NodeKey, NodeKey, RelationKind]


DIRECTED_KINDS = frozenset({RelationKind.SUBJ, RelationKind.OBJ})

DEFAULT_CONTENT_CLASSES = frozenset({PosClass.NOUN, PosClass.VERB, PosClass.ADJ})

DEFAULT_MAX_DISTANCE = 4

# scan direction from the verb -> kind of the pair found on that side
_SIDES = ((-1, RelationKind.SUBJ), (1, RelationKind.OBJ))


class PairRecord(NamedTuple):
    """One extracted relation instance.

    For SUBJ the source is the noun and the target the verb; for OBJ
    the source is the verb and the target the noun.  A COOCCUR record
    is unordered; graph building puts its endpoints in canonical
    :func:`node_order`.  ``letter_id`` and ``sent_idx`` say where the
    instance was found.
    """

    src_lemma: str
    src_pos: PosClass
    dst_lemma: str
    dst_pos: PosClass
    kind: RelationKind
    letter_id: str
    sent_idx: int


def node_order(key: NodeKey) -> tuple[str, str]:
    """Sort key that puts the endpoints of an undirected edge in canonical order."""
    return (key[0], key[1]._name_)


def _scan(
    sentence: tuple[Token, ...],
    verb_idx: int,
    step: int,
    max_dist: int,
    verb_blocker: bool,
) -> Token | None:
    # Nearest noun on one side of the verb, looking through at most
    # max_dist intervening tokens of any class.  Pronouns, punctuation
    # and everything else are looked through; a plain verb in between
    # blocks the search when the blocker is on (modals never block).
    j = verb_idx + step
    while 0 <= j < len(sentence):
        intervening = abs(j - verb_idx) - 1
        if intervening > max_dist:
            return None
        token = sentence[j]
        if token.pos is PosClass.NOUN:
            return token
        if verb_blocker and token.pos is PosClass.VERB:
            return None
        j += step
    return None


def extract_window_pairs(
    doc: AnnotatedDoc,
    max_dist: int = DEFAULT_MAX_DISTANCE,
    verb_blocker: bool = True,
) -> list[PairRecord]:
    """Shallow subject and object pairs for every full verb.

    For each VERB token the nearest NOUN to its left within ``max_dist``
    intervening tokens becomes the subject candidate and the nearest
    NOUN to its right the object candidate; either side may come up
    empty.  Pronouns are never selected, modals are not treated as
    verbs, and with ``verb_blocker`` another verb between noun and verb
    cancels that side (it usually signals an intervening clause).
    Records come out in reading order, subject before object per verb.
    """
    if max_dist < 0:
        raise ValueError(f"max_dist must be >= 0, got {max_dist}")
    records: list[PairRecord] = []
    for sent_idx, sentence in enumerate(doc.sentences):
        for i, token in enumerate(sentence):
            if token.pos is not PosClass.VERB:
                continue
            for step, kind in _SIDES:
                noun = _scan(sentence, i, step, max_dist, verb_blocker)
                if noun is not None:
                    src, dst = (noun, token) if step < 0 else (token, noun)
                    records.append(
                        PairRecord(
                            src.lemma, src.pos, dst.lemma, dst.pos,
                            kind, doc.letter_id, sent_idx,
                        )
                    )
    return records


# ---------------------------------------------------------------------------
# anaphora


def load_anaphora(path: str | Path) -> dict[str, dict[tuple[int, int], str]]:
    """Manual pronoun resolutions: letter id -> {(sent_idx, tok_idx): lemma}.

    The file has four columns: letter_id, sent_idx, tok_idx, lemma.
    The indices are ASCII digits, the lemma is folded as the annotator
    folds words, and a position has at most one row.  Each letter's
    positions keep file order.  Replacements always take the NOUN class.
    """
    amap: dict[str, dict[tuple[int, int], str]] = {}
    for where, (letter_id, sent_s, tok_s, lemma) in read_table(path, 4, "anaphora file"):
        sent_idx, tok_idx = parse_index(sent_s), parse_index(tok_s)
        if sent_idx is None or tok_idx is None:
            raise InputError(f"{where}: bad token position {sent_s!r}/{tok_s!r}")
        if not lemma or lemma == "-":
            raise InputError(f"{where}: empty replacement lemma")
        targets = amap.setdefault(letter_id, {})
        if (sent_idx, tok_idx) in targets:
            raise InputError(
                f"{where}: sentence {sent_idx}, token {tok_idx} of {letter_id}"
                " repeats an earlier row"
            )
        targets[sent_idx, tok_idx] = fold(lemma)
    return amap


def apply_anaphora(
    doc: AnnotatedDoc, amap: Mapping[str, Mapping[tuple[int, int], str]]
) -> AnnotatedDoc:
    """Replace mapped pronouns by their antecedent nouns.

    ``amap`` is what :func:`load_anaphora` returns.  Every position it
    maps for this letter must point at a PRON token; anything else
    (wrong class, position out of range) raises :class:`InputError`
    naming the position.  The surface form stays as transcribed, only
    normalized form, lemma and class change.  A letter without
    positions gets the same document back.
    """
    targets = amap.get(doc.letter_id)
    if not targets:
        return doc
    sentences = list(doc.sentences)
    for (sent_idx, tok_idx), lemma in targets.items():
        if sent_idx < 0 or sent_idx >= len(sentences):
            raise InputError(
                f"{doc.letter_id}: no sentence {sent_idx} for anaphora target"
            )
        sentence = sentences[sent_idx]
        if tok_idx < 0 or tok_idx >= len(sentence):
            raise InputError(
                f"{doc.letter_id}: no token {tok_idx} in sentence {sent_idx}"
            )
        token = sentence[tok_idx]
        if token.pos is not PosClass.PRON:
            raise InputError(
                f"{doc.letter_id}: anaphora target at sentence {sent_idx}, "
                f"token {tok_idx} is {token.pos.name}, not PRON"
            )
        noun = token._replace(normalized=lemma, lemma=lemma, pos=PosClass.NOUN)
        sentences[sent_idx] = (*sentence[:tok_idx], noun, *sentence[tok_idx + 1 :])
    return AnnotatedDoc(letter_id=doc.letter_id, sentences=tuple(sentences))


# ---------------------------------------------------------------------------
# gold triples and evaluation


class GoldTriple(NamedTuple):
    """A manually judged verb with its subject and/or object lemma; :func:`load_gold` checks it."""

    letter_id: str
    sent_idx: int
    verb_lemma: str
    subj_lemma: str | None
    obj_lemma: str | None


def load_gold(path: str | Path) -> list[GoldTriple]:
    """Read gold triples: letter_id, sent_idx, verb, subj-or-"-", obj-or-"-".

    Lemmas are folded as the annotator folds words, and "#" lines are
    comments.  Rows with the wrong field count, bad indices or neither
    argument raise :class:`InputError` naming the line.
    """
    triples: list[GoldTriple] = []
    for where, (letter_id, sent_s, verb, subj, obj) in read_table(path, 5, "gold file"):
        sent_idx = parse_index(sent_s)
        if sent_idx is None:
            raise InputError(f"{where}: bad sentence index {sent_s!r}")
        if not verb or verb == "-":
            raise InputError(f"{where}: empty verb lemma")
        verb = fold(verb)
        subj = None if subj in ("", "-") else fold(subj)
        obj = None if obj in ("", "-") else fold(obj)
        if subj is None and obj is None:
            raise InputError(f"{where}: gold triple for {verb!r} needs a subject or an object")
        triples.append(GoldTriple(letter_id, sent_idx, verb, subj, obj))
    return triples


class Scores(NamedTuple):
    """Precision, recall and F1 with their supporting counts.

    A score is None where it is undefined: precision without system
    output, recall without expected pairs, F1 when either is missing.
    """

    precision: float | None
    recall: float | None
    f1: float | None
    true_positives: int
    n_auto: int
    n_gold: int


class EvalReport(NamedTuple):
    subj: Scores
    obj: Scores
    overall: Scores

    def format(self) -> str:
        def fmt(value: float | None) -> str:
            return "n/a" if value is None else f"{value:.3f}"

        lines = ["kind      P      R      F1     tp  auto  gold"]
        for name, s in (("SUBJ", self.subj), ("OBJ", self.obj), ("overall", self.overall)):
            lines.append(
                f"{name:<8}{fmt(s.precision):>7}{fmt(s.recall):>7}{fmt(s.f1):>7}"
                f"{s.true_positives:>7}{s.n_auto:>6}{s.n_gold:>6}"
            )
        return "\n".join(lines)


def _score(auto: Counter, gold: Counter) -> Scores:
    tp = sum((auto & gold).values())
    n_auto = sum(auto.values())
    n_gold = sum(gold.values())
    precision = tp / n_auto if n_auto else None
    recall = tp / n_gold if n_gold else None
    f1: float | None = None
    if precision is not None and recall is not None:
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return Scores(precision, recall, f1, tp, n_auto, n_gold)


def evaluate_pairs(records: Iterable[PairRecord], gold: Iterable[GoldTriple]) -> EvalReport:
    """Compare extracted pairs against gold triples.

    Records and gold pairs alike are keyed by (letter, sentence, source
    lemma, target lemma, kind), a SUBJ gold pair running from subject to
    verb and an OBJ pair from verb to object, with multiset semantics,
    so a pair extracted twice can only match two gold instances.
    COOCCUR records are ignored.  Scores are reported per kind and
    overall.
    """
    auto = Counter(
        (r.letter_id, r.sent_idx, r.src_lemma, r.dst_lemma, r.kind)
        for r in records
        if r.kind in DIRECTED_KINDS
    )
    expected: Counter = Counter()
    for t in gold:
        if t.subj_lemma is not None:
            expected[(t.letter_id, t.sent_idx, t.subj_lemma, t.verb_lemma, RelationKind.SUBJ)] += 1
        if t.obj_lemma is not None:
            expected[(t.letter_id, t.sent_idx, t.verb_lemma, t.obj_lemma, RelationKind.OBJ)] += 1

    def of_kind(counts: Counter, kind: RelationKind) -> Counter:
        return Counter({key: n for key, n in counts.items() if key[4] is kind})

    return EvalReport(
        subj=_score(of_kind(auto, RelationKind.SUBJ), of_kind(expected, RelationKind.SUBJ)),
        obj=_score(of_kind(auto, RelationKind.OBJ), of_kind(expected, RelationKind.OBJ)),
        overall=_score(auto, expected),
    )
