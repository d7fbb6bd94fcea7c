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
frequency.  Each format has one writer, and JSON one reader,
:func:`import_json`.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterator

from letternet.extraction import RelationKind
from letternet.network import (
    EdgeKey,
    GraphLike,
    LexicalGraph,
    NodeKey,
    SortedGraph,
    degree_scores,
    mean_sd,
    rank,
    sorted_view,
)
from letternet.pipeline import (
    _POS_BY_NAME,
    _XML_UNWRITABLE,
    InputError,
    LetternetError,
    PosClass,
    read_json,
    write_atomic,
)

GEXF_NS = "http://www.gexf.net/1.2draft"
VIZ_NS = "http://www.gexf.net/1.2draft/viz"


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
# what XML 1.0 cannot hold, vertical tab and form feed included, lone surrogates,
# and tab, LF and CR, which a GEXF attribute would read back as spaces
_UNWRITABLE_RE = re.compile(f"[\t\n\r\x0b\x0c\ud800-\udfff{_XML_UNWRITABLE}]")


class GexfValidationError(ValueError, LetternetError):
    """Raised when a GEXF document violates the expected structure."""


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


def validate_gexf(source: str | bytes | Path) -> tuple[int, int]:
    """Structurally validate a GEXF document.

    Accepts a file as a :class:`~pathlib.Path`, or the document itself
    as ``str`` or ``bytes``.  Checks the 1.2draft skeleton: namespaces
    and version, unique node ids, labelled nodes, edges whose endpoints
    exist, attribute values that reference declared attributes, edge
    types and positive finite weights, and sane viz colour/size values
    (a size positive and finite).  Returns (node count, edge count); raises
    :class:`GexfValidationError` on the first violation.
    """
    import xml.etree.ElementTree as ET  # here: no command validates, and pyexpat is slow to load

    if isinstance(source, Path):
        try:
            data = source.read_bytes()
        except OSError as exc:
            raise GexfValidationError(f"cannot read {source}: {exc}") from exc
    elif isinstance(source, str):
        data = source.encode("utf-8")
    else:
        data = source
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise GexfValidationError(f"not well-formed XML: {exc}") from exc
    if root.tag != f"{{{GEXF_NS}}}gexf":
        raise GexfValidationError(f"root element is {root.tag}, not gexf")
    if root.get("version") != "1.2":
        raise GexfValidationError(f"unexpected version {root.get('version')!r}")
    graph_el = root.find(f"{{{GEXF_NS}}}graph")
    if graph_el is None:
        raise GexfValidationError("missing graph element")
    if graph_el.get("defaultedgetype") not in ("directed", "undirected", "mutual"):
        raise GexfValidationError("missing or bad defaultedgetype")

    declared: dict[str, set[str]] = {"node": set(), "edge": set()}
    for attrs_el in graph_el.findall(f"{{{GEXF_NS}}}attributes"):
        cls = attrs_el.get("class")
        if cls not in declared:
            raise GexfValidationError(f"bad attributes class {cls!r}")
        for attr_el in attrs_el.findall(f"{{{GEXF_NS}}}attribute"):
            attr_id = attr_el.get("id")
            if attr_id is None or not attr_el.get("title"):
                raise GexfValidationError("attribute without id or title")
            declared[cls].add(attr_id)

    def check_attvalues(parent, cls: str, owner: str) -> None:
        for holder in parent.findall(f"{{{GEXF_NS}}}attvalues"):
            for attvalue in holder.findall(f"{{{GEXF_NS}}}attvalue"):
                ref = attvalue.get("for")
                if ref not in declared[cls]:
                    raise GexfValidationError(
                        f"{owner}: attvalue references undeclared attribute {ref!r}"
                    )

    def check_viz(parent, owner: str) -> None:
        for color in parent.findall(f"{{{VIZ_NS}}}color"):
            for channel in ("r", "g", "b"):
                raw = color.get(channel)
                if raw is None or not raw.isdigit() or not 0 <= int(raw) <= 255:
                    raise GexfValidationError(f"{owner}: bad viz colour channel {raw!r}")
        for size in parent.findall(f"{{{VIZ_NS}}}size"):
            try:
                value = float(size.get("value", ""))
            except ValueError:
                raise GexfValidationError(f"{owner}: bad viz size") from None
            if not math.isfinite(value):
                raise GexfValidationError(f"{owner}: non-finite viz size {value}")
            if value <= 0:
                raise GexfValidationError(f"{owner}: non-positive viz size {value}")

    nodes_el = graph_el.find(f"{{{GEXF_NS}}}nodes")
    if nodes_el is None:
        raise GexfValidationError("missing nodes element")
    node_ids: set[str] = set()
    for node in nodes_el.findall(f"{{{GEXF_NS}}}node"):
        node_id = node.get("id")
        if not node_id:
            raise GexfValidationError("node without id")
        if node.get("label") is None:
            raise GexfValidationError(f"node {node_id}: missing label")
        if node_id in node_ids:
            raise GexfValidationError(f"duplicate node id {node_id!r}")
        node_ids.add(node_id)
        check_attvalues(node, "node", f"node {node_id}")
        check_viz(node, f"node {node_id}")

    edges_el = graph_el.find(f"{{{GEXF_NS}}}edges")
    if edges_el is None:
        raise GexfValidationError("missing edges element")
    edge_ids: set[str] = set()
    n_edges = 0
    for edge in edges_el.findall(f"{{{GEXF_NS}}}edge"):
        n_edges += 1
        edge_id = edge.get("id")
        if edge_id is None or edge_id in edge_ids:
            raise GexfValidationError(f"missing or duplicate edge id {edge_id!r}")
        edge_ids.add(edge_id)
        for end in ("source", "target"):
            ref = edge.get(end)
            if ref not in node_ids:
                raise GexfValidationError(
                    f"edge {edge_id}: {end} {ref!r} is not a node id"
                )
        if edge.get("type") not in (None, "directed", "undirected", "mutual"):
            raise GexfValidationError(f"edge {edge_id}: bad type {edge.get('type')!r}")
        weight = edge.get("weight")
        if weight is not None:
            try:
                value = float(weight)
            except ValueError:
                raise GexfValidationError(
                    f"edge {edge_id}: bad weight {weight!r}"
                ) from None
            if not math.isfinite(value):
                raise GexfValidationError(f"edge {edge_id}: non-finite weight {value}")
            if value <= 0:
                raise GexfValidationError(f"edge {edge_id}: non-positive weight {value}")
        check_attvalues(edge, "edge", f"edge {edge_id}")
        check_viz(edge, f"edge {edge_id}")
    return len(node_ids), n_edges


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
    string escaping.  :func:`import_json` reads it back.
    """
    write_atomic(path, _json_lines(sorted_view(graph)))


def _node_key(pair) -> NodeKey:
    """The node key of a JSON [lemma, class] pair the writers can write back."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"{pair!r} is not a [lemma, class] pair")
    lemma, pos = pair
    if not isinstance(lemma, str) or _UNWRITABLE_RE.search(lemma):
        raise ValueError(f"bad lemma {lemma!r}")
    return lemma, _POS_BY_NAME[pos]


def _pair_text(key: NodeKey) -> str:
    """A node key as the JSON [lemma, class] pair that spells it in a file."""
    return json.dumps([key[0], key[1]._name_], ensure_ascii=False)


def import_json(source: str | Path) -> LexicalGraph:
    """Read a graph written by :func:`export_json`.

    Round trip is exact: export then import reproduces the same nodes,
    edges and weights.  Every error is an :class:`InputError` that names
    the file; once the file is read, its message starts with the file
    name.  The graph must pass :meth:`LexicalGraph.validate`.
    """
    data = read_json(source, "")
    where = Path(source)
    if not isinstance(data, dict) or data.get("format") != "lexical-network":
        raise InputError(f"{where}: not a lexical-network JSON document")
    for name in ("nodes", "edges"):
        if not isinstance(data.get(name, []), list):
            raise InputError(f"{where}: {name} must be a list, got {data[name]!r}")
    nodes: dict[NodeKey, int] = {}
    for item in data.get("nodes", []):
        try:
            key = _node_key([item["lemma"], item["pos"]])
            freq = item["frequency"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{where}: bad node entry {item!r}") from exc
        if key in nodes:
            raise InputError(f"{where}: duplicate node {_pair_text(key)}")
        nodes[key] = freq
    edges: dict[EdgeKey, int] = {}
    for item in data.get("edges", []):
        try:
            src, dst = _node_key(item["source"]), _node_key(item["target"])
            kind = RelationKind[item["kind"]]
            weight = item["weight"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{where}: bad edge entry {item!r}") from exc
        edge = (src, dst, kind)
        if edge in edges:
            raise InputError(
                f"{where}: duplicate edge {_pair_text(src)} -> {_pair_text(dst)} ({kind._name_})"
            )
        edges[edge] = weight
    graph = LexicalGraph(nodes=nodes, edges=edges)
    try:
        graph.validate()
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None
    return graph


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
