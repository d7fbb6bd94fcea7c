"""The file formats of a graph (GEXF, DOT, JSON and CSV) and its text report.

Every writer formats the rows of one sorted view
(:func:`~letternet.network.sorted_view`), which fixes the order of every
file; a caller that writes several files builds the view once, and a
writer given a plain graph builds it itself.  So the same graph always
gives byte-identical files, and all writes are atomic: the target file
appears complete or not at all.  The GEXF, DOT, JSON and CSV writers
hand :func:`~letternet.pipeline.write_atomic` their text a line or an
element at a time, so no file is ever held whole in memory.  JSON is
written directly in ``json.dumps(..., indent=2)`` layout, with only the
lemma strings passed through the ``json`` encoder.  The GEXF and DOT
writers share one fixed style: red verbs, blue nouns, green adjectives
and grey for every other class; red subject, blue object and grey
co-occurrence edges; and node sizes from 10 to 60 growing linearly with
frequency.  Each format has one writer here.  Reading files back (the
JSON reader and GEXF validation) is ``letternet.readback``'s, and the
``csv`` and ``json`` modules load only when their format is written.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Iterator

from letternet.network import (
    GraphLike,
    SortedGraph,
    degree_scores,
    mean_sd,
    rank,
    sorted_view,
)
from letternet.pipeline import PosClass, write_atomic

GEXF_NS = "http://www.gexf.net/1.2draft"
VIZ_NS = "http://www.gexf.net/1.2draft/viz"


def __getattr__(name: str):
    # perfbench's output check imports these two from here; they live in
    # letternet.readback, and this goes once the benchmark imports them there
    if name not in ("GexfValidationError", "validate_gexf"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from letternet import readback

    return getattr(readback, name)


def _viz_rgb(color: str) -> str:
    """"#RRGGBB" as the r, g and b attributes of a viz:color element."""
    r, g, b = (int(color[i : i + 2], 16) for i in (1, 3, 5))
    return f'r="{r}" g="{g}" b="{b}"'


# class and kind name -> "#RRGGBB", as the writers look colours up, and
# the same colours as viz:color attributes for GEXF
_NODE_COLORS = {
    pos.name: {"VERB": "#FF0000", "NOUN": "#0000FF", "ADJ": "#00FF00"}.get(pos.name, "#999999")
    for pos in PosClass
}
_EDGE_COLORS = {"SUBJ": "#FF0000", "OBJ": "#0000FF", "COOCCUR": "#888888"}
_NODE_RGB = {name: _viz_rgb(color) for name, color in _NODE_COLORS.items()}
_EDGE_RGB = {name: _viz_rgb(color) for name, color in _EDGE_COLORS.items()}


def _node_size(freq: int, lo: int, hi: int) -> float:
    """Size from 10 to 60, linear in frequency; 10 when ``hi <= lo``."""
    if hi <= lo:
        return 10.0
    return 10.0 + 50.0 * (freq - lo) / (hi - lo)


def _freq_range(view: SortedGraph) -> tuple[int, int]:
    freqs = [freq for _, _, _, freq in view.nodes]
    return (min(freqs), max(freqs)) if freqs else (0, 0)


# ---------------------------------------------------------------------------
# GEXF


def _xml_attr(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _gexf_lines(view: SortedGraph) -> Iterator[str]:
    """The GEXF document in pieces, each one or more whole lines."""
    freq_min, freq_max = _freq_range(view)
    any_directed = any(directed for _, _, _, directed, _ in view.edges)
    default_type = "directed" if any_directed else "undirected"
    header = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<gexf xmlns="{GEXF_NS}" xmlns:viz="{VIZ_NS}" version="1.2">',
        "  <meta>",
        "    <creator>letternet</creator>",
        f"    <description>lexical network: {len(view.nodes)} nodes, "
        f"{len(view.edges)} edges</description>",
        "  </meta>",
        f'  <graph mode="static" defaultedgetype="{default_type}">',
        '    <attributes class="node">',
        '      <attribute id="0" title="pos" type="string"/>',
        '      <attribute id="1" title="frequency" type="integer"/>',
        "    </attributes>",
        '    <attributes class="edge">',
        '      <attribute id="0" title="kind" type="string"/>',
        "    </attributes>",
        "    <nodes>",
    ]
    yield "\n".join(header) + "\n"
    ids = [_xml_attr(node_id) for node_id, _, _, _ in view.nodes]
    for xml_id, (_, lemma, cls, freq) in zip(ids, view.nodes):
        size = _node_size(freq, freq_min, freq_max)
        yield (
            f'      <node id="{xml_id}" label="{_xml_attr(lemma)}">\n'
            "        <attvalues>\n"
            f'          <attvalue for="0" value="{cls}"/>\n'
            f'          <attvalue for="1" value="{freq}"/>\n'
            "        </attvalues>\n"
            f"        <viz:color {_NODE_RGB[cls]}/>\n"
            f'        <viz:size value="{size:.3f}"/>\n'
            "      </node>\n"
        )
    yield "    </nodes>\n    <edges>\n"
    for edge_id, (src, dst, kind, directed, weight) in enumerate(view.edges):
        edge_type = "directed" if directed else "undirected"
        yield (
            f'      <edge id="{edge_id}" source="{ids[src]}" target="{ids[dst]}"'
            f' type="{edge_type}" weight="{weight}">\n'
            "        <attvalues>\n"
            f'          <attvalue for="0" value="{kind}"/>\n'
            "        </attvalues>\n"
            f"        <viz:color {_EDGE_RGB[kind]}/>\n"
            "      </edge>\n"
        )
    yield "    </edges>\n  </graph>\n</gexf>\n"


def export_gexf(graph: GraphLike, path: str | Path) -> None:
    """Write a graph as GEXF 1.2draft with viz colours and sizes."""
    write_atomic(path, _gexf_lines(sorted_view(graph)))


# ---------------------------------------------------------------------------
# DOT


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_lines(view: SortedGraph) -> Iterator[str]:
    """The DOT document line by line."""
    freq_min, freq_max = _freq_range(view)
    yield (
        "digraph lexical_network {\n"
        '  graph [charset="UTF-8", outputorder="edgesfirst"];\n'
        '  node [style="filled", fontcolor="#FFFFFF"];\n'
    )
    ids = [_dot_quote(node_id) for node_id, _, _, _ in view.nodes]
    for dot_id, (_, lemma, cls, freq) in zip(ids, view.nodes):
        size = _node_size(freq, freq_min, freq_max)
        yield (
            f"  {dot_id} [label={_dot_quote(lemma)},"
            f' fillcolor="{_NODE_COLORS[cls]}", fontsize="{size:.1f}"];\n'
        )
    for src, dst, kind, directed, weight in view.edges:
        attrs = (
            f'color="{_EDGE_COLORS[kind]}",'
            f' penwidth="{1.0 + math.log(weight):.2f}", label="{weight}"'
        )
        if not directed:
            attrs += ', dir="none"'
        yield f"  {ids[src]} -> {ids[dst]} [{attrs}];\n"
    yield "}\n"


def export_dot(graph: GraphLike, path: str | Path) -> None:
    """Write a graph in Graphviz DOT form.

    Emitted as a digraph; co-occurrence edges carry ``dir="none"`` so
    they render without arrowheads.  Node font size follows the same
    frequency scaling as the GEXF size, edge pen width grows with the
    logarithm of the weight.
    """
    write_atomic(path, _dot_lines(sorted_view(graph)))


# ---------------------------------------------------------------------------
# JSON


def _json_list(items: Iterator[str]) -> Iterator[str]:
    """A JSON array of indented items, as ``json.dumps(..., indent=2)`` lays it out."""
    first = next(items, None)
    if first is None:
        yield "[]"
        return
    yield "[\n"
    yield first
    for item in items:
        yield ",\n"
        yield item
    yield "\n  ]"


def _json_lines(view: SortedGraph) -> Iterator[str]:
    from json.encoder import encode_basestring

    lemmas = [encode_basestring(lemma) for _, lemma, _, _ in view.nodes]
    ends = [
        f'[\n        {lemma},\n        "{cls}"\n      ]'
        for lemma, (_, _, cls, _) in zip(lemmas, view.nodes)
    ]
    yield '{\n  "format": "lexical-network",\n  "version": 1,\n  "nodes": '
    yield from _json_list(
        f'    {{\n      "lemma": {lemma},\n      "pos": "{cls}",\n'
        f'      "frequency": {freq}\n    }}'
        for lemma, (_, _, cls, freq) in zip(lemmas, view.nodes)
    )
    yield ',\n  "edges": '
    yield from _json_list(
        f'    {{\n      "source": {ends[src]},\n      "target": {ends[dst]},\n'
        f'      "kind": "{kind}",\n      "weight": {weight}\n    }}'
        for src, dst, kind, _, weight in view.edges
    )
    yield "\n}\n"


def export_json(graph: GraphLike, path: str | Path) -> None:
    """Write a graph as a "lexical-network" JSON document.

    The document holds ``format``, ``version`` (1), ``nodes`` as
    {lemma, pos, frequency} objects and ``edges`` as {source, target,
    kind, weight} objects whose endpoints are [lemma, pos] pairs, in
    file order.  The text is what ``json.dumps(..., indent=2,
    ensure_ascii=False)`` gives for that document, plus a final newline.
    The layout is written here, since ``indent`` makes ``json`` fall back
    to its pure-Python encoder; only the lemmas go through the encoder's
    string escaping.  :func:`~letternet.readback.import_json` reads it back.
    """
    write_atomic(path, _json_lines(sorted_view(graph)))


# ---------------------------------------------------------------------------
# CSV


class _Echo:
    """A file whose ``write`` returns its text, so ``csv.writer(...).writerow`` returns the line."""

    def write(self, text: str) -> str:
        return text


def export_csv_edges(graph: GraphLike, path: str | Path) -> None:
    """Write the edge list as CSV with a header row."""
    view = sorted_view(graph)
    nodes = view.nodes
    header = ("source_lemma", "source_pos", "target_lemma", "target_pos", "kind", "weight")
    rows = (
        (nodes[src][1], nodes[src][2], nodes[dst][1], nodes[dst][2], kind, weight)
        for src, dst, kind, _, weight in view.edges
    )
    import csv

    writer = csv.writer(_Echo(), lineterminator="\n")
    write_atomic(path, map(writer.writerow, chain((header,), rows)))


# ---------------------------------------------------------------------------
# text report


def _distribution_line(label: str, values: list[int]) -> str:
    if not values:
        return f"{label}: n/a (empty)"
    mean, sd = mean_sd(values)
    return f"{label}: min {min(values)}  max {max(values)}  mean {mean:.3f}  sd {sd:.3f}"


def stats_report(graph: GraphLike, top_n: int = 10) -> str:
    """Human-readable summary of a graph.

    Includes node and edge counts broken down by class and kind,
    distribution summaries (population standard deviation), the most
    frequent nodes overall and per major class, and the top nodes under
    each centrality measure.  Every ranking is a stable sort of the
    view's node order, so ties fall back to lemma, then class name.
    """
    view = sorted_view(graph)
    nodes, edges = view.nodes, view.edges
    freqs = [freq for _, _, _, freq in nodes]
    weights = [weight for _, _, _, _, weight in edges]
    lines = [
        f"Nodes: {len(nodes)}",
        f"Edges: {len(edges)} (total weight {sum(weights)})",
    ]
    by_class = Counter(cls for _, _, cls, _ in nodes)
    lines.append("Nodes by class:")
    for name in sorted(by_class):
        lines.append(f"  {name}  {by_class[name]}")
    by_kind: dict[str, tuple[int, int]] = {}
    for _, _, kind, _, weight in edges:
        count, total = by_kind.get(kind, (0, 0))
        by_kind[kind] = (count + 1, total + weight)
    lines.append("Edges by kind:")
    for name in sorted(by_kind):
        count, total = by_kind[name]
        lines.append(f"  {name}  {count} (weight {total})")
    lines.append(_distribution_line("Node frequency summary", freqs))
    lines.append(_distribution_line("Edge weight summary", weights))

    ranked = rank(freqs)
    lines.append("Top nodes by frequency:")
    for i in ranked[:top_n]:
        _, lemma, cls, freq = nodes[i]
        lines.append(f"  {lemma} ({cls})  {freq}")
    for title, cls in (
        ("Top nouns by frequency:", PosClass.NOUN.name),
        ("Top verbs by frequency:", PosClass.VERB.name),
        ("Top adjectives by frequency:", PosClass.ADJ.name),
    ):
        subset = [i for i in ranked if nodes[i][2] == cls]
        lines.append(title)
        for i in subset[:top_n]:
            lines.append(f"  {nodes[i][1]}  {nodes[i][3]}")
    for measure, score in degree_scores(view).items():
        lines.append(f"Top nodes by {measure.name}:")
        for i in rank(score)[:top_n]:
            _, lemma, cls, _ = nodes[i]
            lines.append(f"  {lemma} ({cls})  {score[i]}")
    return "\n".join(lines) + "\n"


def export_stats(graph: GraphLike, path: str | Path, top_n: int = 10) -> None:
    write_atomic(path, (stats_report(graph, top_n),))
