"""Relation extraction over annotated letters.

The co-occurrence rule lives with the graph that counts it
(``network.cooccurrence_graph``); this module holds the relation kinds,
the pair record and a shallow verb-argument heuristic that reads the
nearest noun to the left of a verb as its subject and the nearest noun
to the right as its object.  The heuristic trades parsing for
robustness: early modern prose defeats modern parsers, while noun-verb
adjacency survives the spelling.  Scoring it against gold triples, and
the manual pronoun resolutions that can feed it, are in
``letternet.evaluation``.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from letternet.pipeline import AnnotatedDoc, PosClass, Token


class RelationKind(enum.Enum):
    COOCCUR = "COOCCUR"
    SUBJ = "SUBJ"
    OBJ = "OBJ"

    # as for PosClass: the C identity hash, not Enum's Python-level one
    __hash__ = object.__hash__


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
    ``network.node_order``.  ``letter_id`` and ``sent_idx`` say where the
    instance was found.
    """

    src_lemma: str
    src_pos: PosClass
    dst_lemma: str
    dst_pos: PosClass
    kind: RelationKind
    letter_id: str
    sent_idx: int


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
