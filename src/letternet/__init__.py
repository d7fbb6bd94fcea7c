"""Tools for turning collections of historical letters into lexical networks.

The package is organised as a pipeline: ``corpus`` reads manifests and
cleans transcriptions, ``pipeline`` segments and annotates the text,
``extraction`` produces verb-argument pair records, ``network`` counts
co-occurrences and aggregates both into weighted graphs, and ``export``
writes the graphs in interchange formats.  ``evaluation`` scores the pair
heuristic against gold triples and applies manual anaphora, and
``readback`` reads written graphs back and validates GEXF.  ``cli`` wires
the stages together behind a command line interface.  Every error that
bad input raises derives from :class:`LetternetError`.

The public names below are looked up in their modules on first use, so
``import letternet`` loads none of them and a command compiles only the
modules it runs.
"""

# module -> the public names it defines
_MODULES = {
    "corpus": ("Letter", "LetterMeta", "clean_text", "load_letter", "load_manifest"),
    "pipeline": (
        "AnnotatedDoc", "Annotator", "LetternetError", "PosClass", "Token",
        "default_annotator", "ingest_pretagged", "split_sentences", "tokenize",
        "write_vertical",
    ),
    "extraction": ("PairRecord", "RelationKind", "extract_window_pairs"),
    "evaluation": ("GoldTriple", "apply_anaphora", "evaluate_pairs", "load_anaphora", "load_gold"),
    "network": (
        "Centrality", "LexicalGraph", "build_graph", "centrality", "cooccurrence_graph",
        "extract_cooccurrences", "merge_graphs", "pair_graph", "prune", "token_frequencies",
    ),
    "export": ("export_csv_edges", "export_dot", "export_gexf", "export_json", "stats_report"),
    "readback": ("import_json", "validate_gexf"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return list(__all__)
