"""Graph serialisation: GEXF, DOT, JSON and CSV, plus a text report.

All writers are deterministic (nodes and edges sorted, no timestamps),
so the same graph always produces byte-identical files, and all writes
are atomic: the target file appears complete or not at all.  Styling
(class colours, frequency-scaled node sizes) follows one StyleSpec
shared by the GEXF and DOT writers.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import statistics
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from letternet.extraction import RelationKind
from letternet.network import (
    Centrality,
    EdgeKey,
    LexicalGraph,
    NodeKey,
    centrality,
    kind_is_directed,
)
from letternet.pipeline import ExportError, PosClass, write_atomic

GEXF_NS = "http://www.gexf.net/1.2draft"
VIZ_NS = "http://www.gexf.net/1.2draft/viz"

_HEX_RE = re.compile(r"^#[0-9A-Fa-f]{6}$")

DEFAULT_NODE_COLORS: Mapping[PosClass, str] = {
    PosClass.VERB: "#FF0000",
    PosClass.NOUN: "#0000FF",
    PosClass.ADJ: "#00FF00",
}
DEFAULT_FALLBACK_COLOR = "#999999"
DEFAULT_EDGE_COLORS: Mapping[RelationKind, str] = {
    RelationKind.SUBJ: "#FF0000",
    RelationKind.OBJ: "#0000FF",
    RelationKind.COOCCUR: "#888888",
}


class StyleError(ValueError):
    """Raised for malformed style specifications."""


class GexfValidationError(ValueError):
    """Raised when a GEXF document violates the expected structure."""


class GraphFormatError(ValueError):
    """Raised when a JSON graph file cannot be decoded."""


@dataclass(frozen=True)
class StyleSpec:
    """Colours and node size range used by the visual exports.

    Node size grows linearly with frequency from ``size_min`` to
    ``size_max``; when every node has the same frequency all get
    ``size_min``.  Colours are "#RRGGBB" strings keyed by word class
    and relation kind, with a fallback colour for unkeyed classes.
    """

    node_colors: Mapping[PosClass, str] = field(
        default_factory=lambda: dict(DEFAULT_NODE_COLORS)
    )
    fallback_color: str = DEFAULT_FALLBACK_COLOR
    edge_colors: Mapping[RelationKind, str] = field(
        default_factory=lambda: dict(DEFAULT_EDGE_COLORS)
    )
    size_min: float = 10.0
    size_max: float = 60.0

    def __post_init__(self) -> None:
        if not (0 < self.size_min < self.size_max):
            raise StyleError(
                f"need 0 < size_min < size_max, got {self.size_min}/{self.size_max}"
            )
        for color in (
            *self.node_colors.values(),
            self.fallback_color,
            *self.edge_colors.values(),
        ):
            if not _HEX_RE.match(color):
                raise StyleError(f"bad colour {color!r}, expected #RRGGBB")

    def node_color(self, pos: PosClass) -> str:
        return self.node_colors.get(pos, self.fallback_color)

    def edge_color(self, kind: RelationKind) -> str:
        return self.edge_colors.get(kind, self.fallback_color)

    def node_size(self, freq: int, freq_min: int, freq_max: int) -> float:
        if freq_max <= freq_min:
            return self.size_min
        span = self.size_max - self.size_min
        return self.size_min + span * (freq - freq_min) / (freq_max - freq_min)


def _hex_to_rgb(color: str) -> tuple[int, int, int]:
    return int(color[1:3], 16), int(color[3:5], 16), int(color[5:7], 16)


def _node_id(key: NodeKey) -> str:
    return f"{key[0]}::{key[1].name}"


def _sorted_nodes(graph: LexicalGraph) -> list[tuple[NodeKey, int]]:
    return sorted(graph.nodes.items(), key=lambda kv: (kv[0][0], kv[0][1].name))


def _sorted_edges(graph: LexicalGraph) -> list[tuple[EdgeKey, int]]:
    return sorted(
        graph.edges.items(),
        key=lambda kv: (
            kv[0][0][0],
            kv[0][0][1].name,
            kv[0][1][0],
            kv[0][1][1].name,
            kv[0][2].name,
        ),
    )


# ---------------------------------------------------------------------------
# GEXF


def _xml_attr(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def gexf_bytes(graph: LexicalGraph, style: StyleSpec = StyleSpec()) -> bytes:
    """Serialise a graph as GEXF 1.2draft with viz colours and sizes."""
    freqs = list(graph.nodes.values())
    freq_min = min(freqs) if freqs else 0
    freq_max = max(freqs) if freqs else 0
    any_directed = any(kind_is_directed(kind) for (_, _, kind) in graph.edges)
    default_type = "directed" if any_directed else "undirected"
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<gexf xmlns="{GEXF_NS}" xmlns:viz="{VIZ_NS}" version="1.2">',
        "  <meta>",
        "    <creator>letternet</creator>",
        f"    <description>lexical network: {graph.n_nodes} nodes, "
        f"{graph.n_edges} edges</description>",
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
    for key, freq in _sorted_nodes(graph):
        lemma, pos = key
        r, g, b = _hex_to_rgb(style.node_color(pos))
        size = style.node_size(freq, freq_min, freq_max)
        out.extend(
            [
                f'      <node id="{_xml_attr(_node_id(key))}" label="{_xml_attr(lemma)}">',
                "        <attvalues>",
                f'          <attvalue for="0" value="{pos.name}"/>',
                f'          <attvalue for="1" value="{freq}"/>',
                "        </attvalues>",
                f'        <viz:color r="{r}" g="{g}" b="{b}"/>',
                f'        <viz:size value="{size:.3f}"/>',
                "      </node>",
            ]
        )
    out.append("    </nodes>")
    out.append("    <edges>")
    for edge_id, ((src, dst, kind), weight) in enumerate(_sorted_edges(graph)):
        r, g, b = _hex_to_rgb(style.edge_color(kind))
        edge_type = "directed" if kind_is_directed(kind) else "undirected"
        out.extend(
            [
                f'      <edge id="{edge_id}" source="{_xml_attr(_node_id(src))}"'
                f' target="{_xml_attr(_node_id(dst))}" type="{edge_type}"'
                f' weight="{weight}">',
                "        <attvalues>",
                f'          <attvalue for="0" value="{kind.name}"/>',
                "        </attvalues>",
                f'        <viz:color r="{r}" g="{g}" b="{b}"/>',
                "      </edge>",
            ]
        )
    out.append("    </edges>")
    out.append("  </graph>")
    out.append("</gexf>")
    return ("\n".join(out) + "\n").encode("utf-8")


def export_gexf(
    graph: LexicalGraph, path: str | Path, style: StyleSpec = StyleSpec()
) -> None:
    write_atomic(path, gexf_bytes(graph, style))


def validate_gexf(source: str | bytes | Path) -> tuple[int, int]:
    """Structurally validate a GEXF document.

    Accepts a file as a :class:`~pathlib.Path`, or the document itself
    as ``str`` or ``bytes``.  Checks the 1.2draft skeleton: namespaces
    and version, unique node ids, labelled nodes, edges whose endpoints
    exist, attribute values that reference declared attributes, edge
    types and positive weights, and sane viz colour/size values.  Returns (node count, edge count); raises
    :class:`GexfValidationError` on the first violation.
    """
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

    def check_attvalues(parent: ET.Element, cls: str, owner: str) -> None:
        for holder in parent.findall(f"{{{GEXF_NS}}}attvalues"):
            for attvalue in holder.findall(f"{{{GEXF_NS}}}attvalue"):
                ref = attvalue.get("for")
                if ref not in declared[cls]:
                    raise GexfValidationError(
                        f"{owner}: attvalue references undeclared attribute {ref!r}"
                    )

    def check_viz(parent: ET.Element, owner: str) -> None:
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
            if value <= 0:
                raise GexfValidationError(f"edge {edge_id}: non-positive weight {value}")
        check_attvalues(edge, "edge", f"edge {edge_id}")
        check_viz(edge, f"edge {edge_id}")
    return len(node_ids), n_edges


# ---------------------------------------------------------------------------
# DOT


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_text(graph: LexicalGraph, style: StyleSpec = StyleSpec()) -> str:
    """Serialise a graph in Graphviz DOT form.

    Emitted as a digraph; co-occurrence edges carry ``dir="none"`` so
    they render without arrowheads.  Node font size follows the same
    frequency scaling as the GEXF size, edge pen width grows with the
    logarithm of the weight.
    """
    freqs = list(graph.nodes.values())
    freq_min = min(freqs) if freqs else 0
    freq_max = max(freqs) if freqs else 0
    lines = [
        "digraph lexical_network {",
        '  graph [charset="UTF-8", outputorder="edgesfirst"];',
        '  node [style="filled", fontcolor="#FFFFFF"];',
    ]
    for key, freq in _sorted_nodes(graph):
        lemma, pos = key
        size = style.node_size(freq, freq_min, freq_max)
        lines.append(
            f"  {_dot_quote(_node_id(key))} [label={_dot_quote(lemma)},"
            f' fillcolor="{style.node_color(pos)}", fontsize="{size:.1f}"];'
        )
    for (src, dst, kind), weight in _sorted_edges(graph):
        attrs = (
            f'color="{style.edge_color(kind)}",'
            f' penwidth="{1.0 + math.log(weight):.2f}", label="{weight}"'
        )
        if not kind_is_directed(kind):
            attrs += ', dir="none"'
        lines.append(
            f"  {_dot_quote(_node_id(src))} -> {_dot_quote(_node_id(dst))} [{attrs}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(
    graph: LexicalGraph, path: str | Path, style: StyleSpec = StyleSpec()
) -> None:
    write_atomic(path, dot_text(graph, style).encode("utf-8"))


# ---------------------------------------------------------------------------
# JSON


def graph_to_dict(graph: LexicalGraph) -> dict:
    return {
        "format": "lexical-network",
        "version": 1,
        "nodes": [
            {"lemma": key[0], "pos": key[1].name, "frequency": freq}
            for key, freq in _sorted_nodes(graph)
        ],
        "edges": [
            {
                "source": [src[0], src[1].name],
                "target": [dst[0], dst[1].name],
                "kind": kind.name,
                "weight": weight,
            }
            for (src, dst, kind), weight in _sorted_edges(graph)
        ],
    }


def export_json(graph: LexicalGraph, path: str | Path) -> None:
    payload = json.dumps(graph_to_dict(graph), indent=2, ensure_ascii=False) + "\n"
    write_atomic(path, payload.encode("utf-8"))


def graph_from_dict(data: dict) -> LexicalGraph:
    if not isinstance(data, dict) or data.get("format") != "lexical-network":
        raise GraphFormatError("not a lexical-network JSON document")
    nodes: dict[NodeKey, int] = {}
    for item in data.get("nodes", []):
        try:
            key = (item["lemma"], PosClass[item["pos"]])
            freq = item["frequency"]
        except (KeyError, TypeError) as exc:
            raise GraphFormatError(f"bad node entry {item!r}") from exc
        if not isinstance(freq, int) or freq < 1:
            raise GraphFormatError(f"bad node frequency {freq!r}")
        if key in nodes:
            raise GraphFormatError(f"duplicate node {key}")
        nodes[key] = freq
    edges: dict[EdgeKey, int] = {}
    for item in data.get("edges", []):
        try:
            src = (item["source"][0], PosClass[item["source"][1]])
            dst = (item["target"][0], PosClass[item["target"][1]])
            kind = RelationKind[item["kind"]]
            weight = item["weight"]
        except (KeyError, TypeError, IndexError) as exc:
            raise GraphFormatError(f"bad edge entry {item!r}") from exc
        if not isinstance(weight, int) or weight < 1:
            raise GraphFormatError(f"bad edge weight {weight!r}")
        if src not in nodes or dst not in nodes:
            raise GraphFormatError(f"edge {src}-{dst} references missing node")
        edge = (src, dst, kind)
        if edge in edges:
            raise GraphFormatError(f"duplicate edge {edge}")
        edges[edge] = weight
    return LexicalGraph(nodes=nodes, edges=edges)


def import_json(source: str | Path) -> LexicalGraph:
    """Read a graph written by :func:`export_json`.

    Round trip is exact: export then import reproduces the same nodes,
    edges and weights.
    """
    p = Path(source)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphFormatError(f"cannot read {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{p}: invalid JSON: {exc}") from exc
    return graph_from_dict(data)


# ---------------------------------------------------------------------------
# CSV


def export_csv_edges(graph: LexicalGraph, path: str | Path) -> None:
    """Write the edge list as CSV with a header row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["source_lemma", "source_pos", "target_lemma", "target_pos", "kind", "weight"]
    )
    for (src, dst, kind), weight in _sorted_edges(graph):
        writer.writerow([src[0], src[1].name, dst[0], dst[1].name, kind.name, weight])
    write_atomic(path, buf.getvalue().encode("utf-8"))


# ---------------------------------------------------------------------------
# text report


def _distribution_line(label: str, values: list[int]) -> str:
    if not values:
        return f"{label}: n/a (empty)"
    return (
        f"{label}: min {min(values)}  max {max(values)}  "
        f"mean {statistics.fmean(values):.3f}  sd {statistics.pstdev(values):.3f}"
    )


def stats_report(graph: LexicalGraph, top_n: int = 10) -> str:
    """Human-readable summary of a graph.

    Includes node and edge counts broken down by class and kind,
    distribution summaries (population standard deviation), the most
    frequent nodes overall and per major class, and the top nodes under
    each centrality measure.
    """
    lines = [
        f"Nodes: {graph.n_nodes}",
        f"Edges: {graph.n_edges} (total weight {graph.total_weight})",
    ]
    by_class: dict[str, int] = {}
    for (_, pos), _freq in graph.nodes.items():
        by_class[pos.name] = by_class.get(pos.name, 0) + 1
    lines.append("Nodes by class:")
    for name in sorted(by_class):
        lines.append(f"  {name}  {by_class[name]}")
    by_kind: dict[str, tuple[int, int]] = {}
    for (_, _, kind), weight in graph.edges.items():
        count, total = by_kind.get(kind.name, (0, 0))
        by_kind[kind.name] = (count + 1, total + weight)
    lines.append("Edges by kind:")
    for name in sorted(by_kind):
        count, total = by_kind[name]
        lines.append(f"  {name}  {count} (weight {total})")
    lines.append(_distribution_line("Node frequency summary", list(graph.nodes.values())))
    lines.append(_distribution_line("Edge weight summary", list(graph.edges.values())))

    ranked = sorted(
        graph.nodes.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1].name)
    )
    lines.append("Top nodes by frequency:")
    for (lemma, pos), freq in ranked[:top_n]:
        lines.append(f"  {lemma} ({pos.name})  {freq}")
    for title, pos_class in (
        ("Top nouns by frequency:", PosClass.NOUN),
        ("Top verbs by frequency:", PosClass.VERB),
        ("Top adjectives by frequency:", PosClass.ADJ),
    ):
        subset = [kv for kv in ranked if kv[0][1] is pos_class]
        lines.append(title)
        for (lemma, _pos), freq in subset[:top_n]:
            lines.append(f"  {lemma}  {freq}")
    for measure in Centrality:
        lines.append(f"Top nodes by {measure.name}:")
        for (lemma, pos), score in centrality(graph, measure)[:top_n]:
            lines.append(f"  {lemma} ({pos.name})  {score}")
    return "\n".join(lines) + "\n"


def export_stats(graph: LexicalGraph, path: str | Path, top_n: int = 10) -> None:
    write_atomic(path, stats_report(graph, top_n).encode("utf-8"))
