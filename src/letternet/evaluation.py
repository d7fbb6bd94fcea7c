"""Gold triples, scoring and manual anaphora for the pair heuristic.

``letternet eval`` scores :func:`~letternet.network.extract_window_pairs`
against manually judged verbs (:func:`load_gold`, :func:`evaluate_pairs`),
and ``--anaphora`` replaces pronouns by the nouns they stand for before
any extraction (:func:`load_anaphora`, :func:`apply_anaphora`).  No graph
run without those options needs this module, so the command line imports
it only where they are used.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from letternet.network import DIRECTED_KINDS, PairRecord, RelationKind
from letternet.pipeline import (
    AnnotatedDoc, InputError, PosClass, fold, parse_index, read_table,
)


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
