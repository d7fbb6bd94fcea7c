"""
Extract subject and object pairs from one letter
================================================

Walks through the windowed verb-argument heuristic on the first
sample letter: extraction with and without manual pronoun
resolution, then a precision/recall score against the hand-made
gold triples that ship with the package.
"""

from letternet import (
    apply_anaphora,
    default_annotator,
    evaluate_pairs,
    extract_window_pairs,
    load_anaphora,
    load_manifest,
)
from letternet.extraction import RelationKind, load_gold
from letternet.pipeline import data_path

SAMPLE = data_path("sample_corpus")


def show(records, label):
    print(f"{label}: {len(records)} pairs")
    for rec in records[:8]:
        if rec.kind is RelationKind.SUBJ:
            print(f"  sentence {rec.sent_idx}: {rec.src_lemma} --SUBJ--> {rec.dst_lemma}")
        else:
            print(f"  sentence {rec.sent_idx}: {rec.src_lemma} --OBJ--> {rec.dst_lemma}")
    if len(records) > 8:
        print("  ...")


def main():
    letters = {l.meta.letter_id: l for l in load_manifest(SAMPLE / "manifest.tsv")}
    doc = default_annotator().annotate(letters["L01"])

    # plain extraction; the blocker stops a scan at an intervening verb
    plain = extract_window_pairs(doc, max_dist=4)
    show(plain, "with verb blocker")

    # pronouns are never picked as arguments, so sentences led by
    # "hee" lose their subjects; a resolution table fills them in
    amap = load_anaphora(SAMPLE / "anaphora_l01.tsv")
    resolved_doc = apply_anaphora(doc, amap)
    resolved = extract_window_pairs(resolved_doc, max_dist=4, verb_blocker=False)
    show(resolved, "pronouns resolved, blocker off")

    # score both runs against the gold triples for this letter
    gold = load_gold(SAMPLE / "gold_l01.tsv")
    for label, records in (("plain", plain), ("resolved", resolved)):
        report = evaluate_pairs(records, gold)
        print(f"\nscores, {label}:")
        print(report.format())


if __name__ == "__main__":
    main()
