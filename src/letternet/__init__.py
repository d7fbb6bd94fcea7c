"""Tools for turning collections of historical letters into lexical networks.

The package is organised as a pipeline: ``corpus`` reads manifests and
cleans transcriptions, ``pipeline`` segments and annotates the text,
``extraction`` produces verb-argument pair records, ``network`` counts
co-occurrences and aggregates both into weighted graphs, and ``export``
writes the graphs in interchange formats.  ``cli`` wires the stages
together behind a command line interface.  Every error that bad input
raises derives from :class:`LetternetError`.
"""

from letternet.corpus import (
    Letter,
    LetterMeta,
    clean_text,
    load_letter,
    load_manifest,
)
from letternet.pipeline import (
    AnnotatedDoc,
    Annotator,
    LetternetError,
    PosClass,
    Token,
    default_annotator,
    ingest_pretagged,
    split_sentences,
    tokenize,
    write_vertical,
)
from letternet.extraction import (
    GoldTriple,
    PairRecord,
    RelationKind,
    apply_anaphora,
    evaluate_pairs,
    extract_window_pairs,
    load_anaphora,
    load_gold,
)
from letternet.network import (
    Centrality,
    LexicalGraph,
    build_graph,
    centrality,
    cooccurrence_graph,
    extract_cooccurrences,
    merge_graphs,
    pair_graph,
    prune,
    token_frequencies,
)
from letternet.export import (
    export_csv_edges,
    export_dot,
    export_gexf,
    export_json,
    import_json,
    stats_report,
    validate_gexf,
)

__version__ = "0.1.0"
