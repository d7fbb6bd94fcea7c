"""Reading back what the writers wrote: GEXF validation and the JSON reader.

:func:`validate_gexf` checks a GEXF file's structure, and
:func:`import_json` restores a graph from the JSON that
:func:`~letternet.export.export_json` writes.  No command runs either, so
the command line never imports this module; tests, the benchmark's output
check and library callers do.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from letternet.export import GEXF_NS, VIZ_NS
from letternet.extraction import RelationKind
from letternet.network import EdgeKey, LexicalGraph, NodeKey
from letternet.pipeline import (
    _POS_BY_NAME,
    _XML_UNWRITABLE,
    InputError,
    LetternetError,
    read_json,
)

# what XML 1.0 cannot hold, vertical tab and form feed included, lone surrogates,
# and tab, LF and CR, which a GEXF attribute would read back as spaces
_UNWRITABLE_RE = re.compile(f"[\t\n\r\x0b\x0c\ud800-\udfff{_XML_UNWRITABLE}]")


class GexfValidationError(ValueError, LetternetError):
    """Raised when a GEXF document violates the expected structure."""


# ---------------------------------------------------------------------------
# GEXF


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
    import xml.etree.ElementTree as ET  # here: import_json needs no pyexpat, which is slow to load

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
# JSON


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
