"""Command line interface.

Five commands with one set of options cover the pipeline end to end:
``preprocess`` writes annotated letters in vertical form, ``network``
builds and exports graphs, ``eval`` scores the pair heuristic against
gold triples, ``stats`` prints a graph summary and ``run`` chains
preprocess and network.  Settings come from defaults, then an optional
JSON config file (flag ``--config`` or the LETTERNET_CONFIG environment
variable), then command line flags, in that order of precedence.
"""

from __future__ import annotations

# letternet's modules are imported before argparse: a cold start then
# compiles them, pipeline the largest, before argparse's objects fill the
# heap, and a network child peaks about 0.2 MB lower in RSS
from letternet.corpus import load_manifest
from letternet.export import (
    export_csv_edges,
    export_dot,
    export_gexf,
    export_json,
    export_stats,
    stats_report,
)
from letternet.extraction import DEFAULT_MAX_DISTANCE, extract_window_pairs
from letternet.network import (
    LexicalGraph,
    build_graph,  # noqa: F401  bound for the benchmark tracer
    cooccurrence_graph,
    cutoff,
    extract_cooccurrences,  # noqa: F401  bound for the benchmark tracer
    merge_graphs,  # noqa: F401  bound for the benchmark tracer
    pair_graph,
    prune,
    sorted_view,
    token_frequencies,  # noqa: F401  bound for the benchmark tracer
)
from letternet.pipeline import (
    AnnotatedDoc,
    ExportError,
    InputError,
    LetternetError,
    Token,
    default_annotator,
    ingest_pretagged,
    parse_index,
    read_json,
    write_atomic,
    write_vertical,
)

import argparse
import gc
import logging
import os
import sys
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

log = logging.getLogger(__name__)

CONFIG_ENV_VAR = "LETTERNET_CONFIG"

# Output format -> (file name suffix, name of the exporter in this module).
# Exporters are looked up by name for each graph, so a wrapper set on this
# module sees every export; files are written in this order.
_EXPORTERS = {
    "gexf": (".gexf", "export_gexf"),
    "dot": (".dot", "export_dot"),
    "json": (".json", "export_json"),
    "csv": ("_edges.csv", "export_csv_edges"),
}
FORMATS = tuple(_EXPORTERS)
_EVAL_REPORT = "eval_report.txt"
MODES = ("cooccur", "pairs")
SCOPES = ("merged", "per-letter")


class RunConfig(NamedTuple):
    """Resolved settings for one invocation."""

    manifest: str | None = None
    out: str = "out"
    mode: str = "cooccur"
    context: str = "sentence"
    max_dist: int = DEFAULT_MAX_DISTANCE
    verb_blocker: bool = True
    colon_boundary: bool = False
    prune_nodes: str | None = None
    prune_edges: str | None = None
    keep_isolated: bool = False
    formats: tuple[str, ...] = ("gexf",)
    scope: str = "merged"
    gold: str | None = None
    anaphora: str | None = None
    pretagged_dir: str | None = None
    variant_lexicon: str | None = None
    abbreviations: str | None = None
    top: int = 10


_PATH_KEYS = (
    "manifest",
    "gold",
    "anaphora",
    "pretagged_dir",
    "variant_lexicon",
    "abbreviations",
)
# type of a RunConfig default -> (description, check of a JSON config
# value); a value must have the type of its default, and a None default
# stands for a string or null
_VALUE_TYPES = {
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("a string or null", lambda v: v is None or isinstance(v, str)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    tuple: (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    ),
}


def load_config_file(path: str | Path) -> dict:
    """Read a JSON config file with :func:`~letternet.pipeline.read_json`.

    Unknown keys and values of the wrong type are rejected by name.
    Relative input paths are resolved against the config file's
    directory so a config can ship next to its corpus; the ``out``
    directory stays relative to the working directory.
    """
    p = Path(path)
    data = read_json(p, "config")
    if not isinstance(data, dict):
        raise InputError(f"{p}: config must be a JSON object")
    unknown = sorted(set(data) - set(RunConfig._fields))
    if unknown:
        raise InputError(f"{p}: unknown config keys: {', '.join(unknown)}")
    for name, default in RunConfig._field_defaults.items():
        expected, check = _VALUE_TYPES[type(default)]
        if name in data and not check(data[name]):
            raise InputError(f"{p}: {name} must be {expected}, got {data[name]!r}")
    for key in _PATH_KEYS:
        value = data.get(key)
        if isinstance(value, str) and value and not Path(value).is_absolute():
            data[key] = str(p.parent / value)
    if "formats" in data:
        data["formats"] = tuple(data["formats"])
    return data


def _parse_context(text: str) -> int | None:
    """"sentence" -> None, "window:K" -> K."""
    if text == "sentence":
        return None
    if text.startswith("window:"):
        k = parse_index(text[len("window:") :])
        if k is None:
            raise InputError(f"bad context {text!r}")
        if k < 1:
            raise InputError(f"window size must be >= 1, got {k}")
        return k
    raise InputError(f"bad context {text!r}; expected sentence or window:K")


def validate_config(cfg: RunConfig) -> None:
    if cfg.mode not in MODES:
        raise InputError(f"bad mode {cfg.mode!r}; expected one of {MODES}")
    if cfg.scope not in SCOPES:
        raise InputError(f"bad scope {cfg.scope!r}; expected one of {SCOPES}")
    for fmt in cfg.formats:
        if fmt not in FORMATS:
            raise InputError(f"bad format {fmt!r}; expected subset of {FORMATS}")
    _parse_context(cfg.context)
    if cfg.max_dist < 0:
        raise InputError(f"max_dist must be >= 0, got {cfg.max_dist}")
    if cfg.top < 0:
        raise InputError(f"top must be >= 0, got {cfg.top}")
    for rule in (cfg.prune_nodes, cfg.prune_edges):
        if rule is not None:
            cutoff(rule, [])
    if not cfg.pretagged_dir:
        if not cfg.manifest:
            raise InputError("no manifest configured (use --manifest or a config file)")
        if not Path(cfg.manifest).is_file():
            raise InputError(f"manifest not found: {cfg.manifest}")
    for key in ("gold", "anaphora", "variant_lexicon", "abbreviations"):
        value = getattr(cfg, key)
        if value is not None and not Path(value).is_file():
            raise InputError(f"{key.replace('_', ' ')} file not found: {value}")
    if cfg.pretagged_dir is not None and not Path(cfg.pretagged_dir).is_dir():
        raise InputError(f"pretagged directory not found: {cfg.pretagged_dir}")


# ---------------------------------------------------------------------------
# shared pipeline steps


def _load_docs(cfg: RunConfig) -> tuple[list[AnnotatedDoc], list[Path]]:
    """The documents to work on, and the vertical or letter files they were read from."""
    if cfg.pretagged_dir:
        paths = sorted(Path(cfg.pretagged_dir).glob("*.tsv"))
        if not paths:
            log.warning("no vertical files in %s", cfg.pretagged_dir)
        memo: dict[str, Token] = {}  # one for all files: a row is one Token wherever it recurs
        docs = [ingest_pretagged(p, memo=memo) for p in paths]
    else:
        annotator = default_annotator(
            colon_boundary=cfg.colon_boundary,
            variant_lexicon=cfg.variant_lexicon,
            abbreviations=cfg.abbreviations,
        )
        letters = load_manifest(cfg.manifest)
        paths = [letter.path for letter in letters]
        docs = [annotator.annotate(letter) for letter in letters]
    if cfg.anaphora:
        from letternet.evaluation import apply_anaphora, load_anaphora

        amap = load_anaphora(cfg.anaphora)
        _refuse_unloaded(cfg.anaphora, "rows", set(amap), docs)
        docs = [apply_anaphora(doc, amap) for doc in docs]
    return docs, paths


def _refuse_unloaded(path: str, what: str, ids: set[str], docs: list[AnnotatedDoc]) -> None:
    """Raise :class:`InputError` naming each of a side file's letter ``ids`` that no doc has."""
    unloaded = sorted(ids.difference(doc.letter_id for doc in docs))
    if unloaded:
        raise InputError(
            f"{path}: {what} for letters that were not loaded: {', '.join(unloaded)}"
        )


def _groups(cfg: RunConfig, docs: list[AnnotatedDoc]) -> list[tuple[str, list[AnnotatedDoc]]]:
    """(name, documents) of each graph: one of all documents, or one per letter."""
    if cfg.scope == "per-letter":
        return [(doc.letter_id, [doc]) for doc in docs]
    return [("network", docs)]


def _graph_files(cfg: RunConfig, name: str) -> dict[str, Callable]:
    """File name -> writer ``(view, path)`` of each file for the graph ``name``, in order."""
    files = {
        name + suffix: globals()[exporter]
        for fmt, (suffix, exporter) in _EXPORTERS.items()
        if fmt in cfg.formats
    }
    files[f"{name}_stats.txt"] = lambda view, path: export_stats(view, path, cfg.top)
    return files


def _build_graphs(
    cfg: RunConfig, docs: list[AnnotatedDoc]
) -> Iterator[tuple[str, LexicalGraph]]:
    """Each (name, graph) to write, built only when the one before it is done with."""
    window = _parse_context(cfg.context)
    pruning = cfg.prune_nodes or cfg.prune_edges
    for name, group in _groups(cfg, docs):
        if cfg.mode == "pairs":
            graph = pair_graph(group, cfg.max_dist, cfg.verb_blocker)
        else:
            graph = cooccurrence_graph(group, window)
        if pruning:
            graph = prune(
                graph,
                cfg.prune_nodes or "gt0",
                cfg.prune_edges or "gt0",
                drop_isolated=not cfg.keep_isolated,
            )
        yield name, graph


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputError(f"cannot create output directory {out}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# commands: each prints its results and returns nothing


def _print(text: str, end: str = "\n") -> None:
    """Print ``text`` to standard output, flushed so that a failed write fails here.

    A failed write raises :class:`ExportError`, except a closed pipe,
    whose :class:`BrokenPipeError` goes through to :func:`console`.
    """
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise ExportError(f"cannot write standard output: {exc}") from exc


def _refuse_overwrite(
    cfg: RunConfig, config: str | None, read: list[Path], out: Path, names: set[str]
) -> None:
    """Raise :class:`InputError` naming the first input that writing ``names`` in ``out`` replaces.

    The inputs are the config file, the manifest, the letter or vertical
    files ``read`` and the side files.  Only a name that ``out`` already
    holds can replace a file, and only an input of that name or a
    symbolic link can be that file; so in a new output directory no
    input is looked at.
    """
    try:
        present = names.intersection(os.listdir(out))
    except OSError:  # a directory that cannot be listed may hold any of them
        present = names
    if not present:
        return
    out_dir = out.resolve()
    side_files = (cfg.gold, cfg.anaphora, cfg.variant_lexicon, cfg.abbreviations)
    for file in (config, cfg.manifest, *read, *side_files):
        if file and (os.path.basename(file) in present or os.path.islink(file)):
            real = Path(file).resolve()
            if real.parent == out_dir and real.name in present:
                raise InputError(f"{file}: would be overwritten; choose another output directory")


def _load_for_writing(
    cfg: RunConfig, config: str | None, *, vertical: bool = False, graphs: bool = False
) -> tuple[Path, list[AnnotatedDoc]]:
    """The output directory and the documents, once writing the vertical
    files (with ``vertical``) and the graphs (with ``graphs``) there is
    sure to replace none of the files the command reads."""
    out = _out_dir(cfg)
    docs, read = _load_docs(cfg)
    names = {f"{doc.letter_id}.tsv" for doc in docs} if vertical else set()
    if graphs:
        names.update(file for name, _ in _groups(cfg, docs) for file in _graph_files(cfg, name))
    _refuse_overwrite(cfg, config, read, out, names)
    return out, docs


def _write_vertical_files(out: Path, docs: list[AnnotatedDoc]) -> None:
    rows: dict[Token, str] = {}  # one for all files: a token's row is formatted once
    for doc in docs:
        write_vertical(doc, out / f"{doc.letter_id}.tsv", memo=rows)
    _print(f"preprocessed {len(docs)} letters -> {out}")


def _export_network(cfg: RunConfig, docs: list[AnnotatedDoc], out: Path) -> None:
    for name, graph in _build_graphs(cfg, docs):
        view = sorted_view(graph)
        files = _graph_files(cfg, name)
        for file, write in files.items():
            write(view, out / file)
        _print(
            f"{name}: {graph.n_nodes} nodes, {graph.n_edges} edges "
            f"(total weight {graph.total_weight}) -> {', '.join(files)}"
        )


def cmd_preprocess(cfg: RunConfig, config: str | None) -> None:
    _write_vertical_files(*_load_for_writing(cfg, config, vertical=True))


def cmd_network(cfg: RunConfig, config: str | None) -> None:
    out, docs = _load_for_writing(cfg, config, graphs=True)
    _export_network(cfg, docs, out)


def cmd_eval(cfg: RunConfig, config: str | None) -> None:
    from letternet.evaluation import evaluate_pairs, load_gold

    if not cfg.gold:
        raise InputError("eval needs a gold file (--gold or the gold config key)")
    gold = load_gold(cfg.gold)
    if not gold:
        raise InputError(f"{cfg.gold}: no gold triples")
    gold_letters = {t.letter_id for t in gold}
    docs, read = _load_docs(cfg)
    _refuse_unloaded(cfg.gold, "triples", gold_letters, docs)
    n_sentences = {doc.letter_id: len(doc.sentences) for doc in docs}
    for t in gold:
        if t.sent_idx >= n_sentences[t.letter_id]:
            raise InputError(
                f"{cfg.gold}: letter {t.letter_id} has {n_sentences[t.letter_id]} sentences,"
                f" so no sentence {t.sent_idx}"
            )
    docs = [doc for doc in docs if doc.letter_id in gold_letters]
    records = []
    for doc in docs:
        records.extend(
            extract_window_pairs(doc, max_dist=cfg.max_dist, verb_blocker=cfg.verb_blocker)
        )
    report = evaluate_pairs(records, gold)
    text = report.format()
    out = _out_dir(cfg)
    _refuse_overwrite(cfg, config, read, out, {_EVAL_REPORT})
    _print(text)
    write_atomic(out / _EVAL_REPORT, (text, "\n"))


def cmd_stats(cfg: RunConfig, config: str | None) -> None:
    docs, _ = _load_docs(cfg)
    for name, graph in _build_graphs(cfg, docs):
        if cfg.scope == "per-letter":
            _print(f"== {name} ==")
        _print(stats_report(graph, cfg.top), end="")


def cmd_run(cfg: RunConfig, config: str | None) -> None:
    out, docs = _load_for_writing(cfg, config, vertical=True, graphs=True)
    _write_vertical_files(out, docs)
    _export_network(cfg, docs, out)


# command -> (one-line help, handler); the one list of commands, which
# the parser's choices, its help text and main's dispatch all read.  A
# handler takes the settings and the config file they came from, if any.
COMMANDS = {
    "preprocess": ("annotate letters and write vertical files", cmd_preprocess),
    "network": ("build, prune and export graphs", cmd_network),
    "eval": ("score the pair heuristic against gold triples", cmd_eval),
    "stats": ("print a graph summary", cmd_stats),
    "run": ("preprocess then network", cmd_run),
}


# ---------------------------------------------------------------------------
# argument parsing


def _integer(text: str) -> int:
    """ASCII digits with an optional leading minus, as the file readers take them."""
    value = parse_index(text.removeprefix("-"))
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return -value if text.startswith("-") else value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="letternet",
        usage="%(prog)s COMMAND [OPTIONS]",
        description="Build lexical networks from corpora of historical letters.",
        epilog="commands:\n"
        + "".join(f"  {name:<12}{text}\n" for name, (text, _) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, metavar="COMMAND", help="see below")
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--manifest", metavar="PATH", help="corpus manifest (TSV)")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--mode", metavar="MODE", help="extraction mode: " + " or ".join(MODES))
    parser.add_argument(
        "--context",
        metavar="CTX",
        help="co-occurrence context: sentence or window:K",
    )
    parser.add_argument(
        "--max-dist",
        type=_integer,
        metavar="N",
        help="pair heuristic: max intervening tokens between noun and verb",
    )
    parser.add_argument(
        "--no-blocker",
        dest="verb_blocker",
        action="store_false",
        default=None,
        help="pair heuristic: do not let an intervening verb cancel a side",
    )
    parser.add_argument(
        "--colon-boundary",
        action="store_true",
        default=None,
        help="treat colons as sentence boundaries",
    )
    parser.add_argument("--prune-nodes", metavar="RULE", help="node rule: gtN or meanK")
    parser.add_argument("--prune-edges", metavar="RULE", help="edge rule: gtN or meanK")
    parser.add_argument(
        "--keep-isolated",
        action="store_true",
        default=None,
        help="keep nodes left without edges after pruning",
    )
    parser.add_argument(
        "--format",
        dest="formats",
        type=lambda text: tuple(fmt.strip() for fmt in text.split(",") if fmt.strip()),
        metavar="LIST",
        help="comma-separated output formats: " + ",".join(FORMATS),
    )
    parser.add_argument("--scope", metavar="SCOPE", help="graph scope: " + " or ".join(SCOPES))
    parser.add_argument("--gold", metavar="PATH", help="gold triples for eval")
    parser.add_argument("--anaphora", metavar="PATH", help="manual pronoun resolutions")
    parser.add_argument(
        "--pretagged-dir",
        metavar="DIR",
        help="read vertical files from here instead of tagging",
    )
    parser.add_argument(
        "--variant-lexicon", metavar="PATH", help="replacement spelling variant lexicon"
    )
    parser.add_argument("--abbreviations", metavar="PATH", help="abbreviation list")
    parser.add_argument("--top", type=_integer, metavar="N", help="list length in reports")
    return parser


def _config_path(args: argparse.Namespace) -> str | None:
    return args.config or os.environ.get(CONFIG_ENV_VAR)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    config_path = _config_path(args)
    if config_path:
        cfg = cfg._replace(**load_config_file(config_path))
    overrides = {
        name: getattr(args, name) for name in RunConfig._fields if getattr(args, name) is not None
    }
    return cfg._replace(**overrides)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        validate_config(cfg)
        COMMANDS[args.command][1](cfg, _config_path(args))
    except LetternetError as exc:
        print(f"letternet: error: {exc}", file=sys.stderr)
        return 1
    return 0


def console() -> None:
    """Run :func:`main` as the ``letternet`` process and exit with its status."""
    try:
        code = main()
    except BrokenPipeError:  # the reader has gone, as with ``| head``: end quietly
        code = 1
    finally:  # also when argparse exits, as after printing the help
        if sys.stdout is not None:  # None when the process started without one
            try:
                sys.stdout.flush()
            except OSError:
                # A failed write left its text in the buffer, where the
                # interpreter's last flush would fail on it again: point standard
                # output at devnull (the note on SIGPIPE in the signal module's docs).
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()  # the process is ending: its shutdown collections need not walk every live object
    sys.exit(code)


if __name__ == "__main__":
    console()
