"""Styled GEXF, DOT, JSON and CSV output plus the text stats report."""

import codecs
import csv
import io
import json
import math
import re
import statistics
import tempfile
from json.encoder import encode_basestring
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from letternet.export import (
    _distribution_line,
    _json_string,
    _node_size,
    export_csv_edges,
    export_dot,
    export_gexf,
    export_json,
    export_stats,
    stats_report,
)
from letternet.network import (
    DIRECTED_KINDS, Centrality, LexicalGraph, RelationKind, centrality, mean_sd, node_order,
    sorted_view,
)
from letternet.pipeline import ExportError, InputError, PosClass
from letternet.readback import GexfValidationError, import_json, validate_gexf

from conftest import N, V

C = RelationKind.COOCCUR
S = RelationKind.SUBJ
O = RelationKind.OBJ


def cooccur_graph():
    return LexicalGraph(
        nodes={("god", N): 5, ("truth", N): 3},
        edges={(("god", N), ("truth", N), C): 3},
    )


def directed_graph():
    return LexicalGraph(
        nodes={("man", N): 2, ("see", V): 4},
        edges={(("man", N), ("see", V), S): 2},
    )


def written(writer, graph, path):
    """The bytes that ``writer`` puts in a file at ``path``."""
    writer(graph, path)
    return path.read_bytes()


# style


def test_style_defaults_cover_content_classes(tmp_path):
    # red verbs, blue nouns, green adjectives and grey for every other class,
    # and one colour for each kind of edge, in both styled formats
    red, blue = ("#FF0000", 'r="255" g="0" b="0"'), ("#0000FF", 'r="0" g="0" b="255"')
    node_colors = dict.fromkeys(PosClass, ("#999999", 'r="153" g="153" b="153"'))
    node_colors.update({V: red, N: blue, PosClass.ADJ: ("#00FF00", 'r="0" g="255" b="0"')})
    edge_colors = {
        (("noun", N), ("verb", V), S): red,
        (("verb", V), ("noun", N), O): blue,
        (("adj", PosClass.ADJ), ("noun", N), C): ("#888888", 'r="136" g="136" b="136"'),
    }
    assert {kind for _, _, kind in edge_colors} == set(RelationKind)
    graph = LexicalGraph(
        nodes={(pos.name.lower(), pos): 1 for pos in PosClass},
        edges=dict.fromkeys(edge_colors, 1),
    )
    dot = written(export_dot, graph, tmp_path / "g.dot").decode("utf-8")
    gexf = written(export_gexf, graph, tmp_path / "g.gexf").decode("utf-8")
    for pos, (color, rgb) in node_colors.items():
        node_id = f'"{pos.name.lower()}::{pos.name}"'
        assert f'{node_id} [label="{pos.name.lower()}", fillcolor="{color}",' in dot
        assert f"<viz:color {rgb}/>" in gexf.split(f"<node id={node_id} ")[1].split("</node>")[0]
    for ((src, _), (dst, _), kind), (color, rgb) in edge_colors.items():
        assert f'"{src}::{src.upper()}" -> "{dst}::{dst.upper()}" [color="{color}",' in dot
        edge = gexf.split(f'value="{kind.name}"/>')[1].split("</edge>")[0]
        assert f"<viz:color {rgb}/>" in edge


def test_node_size_interpolates():
    assert _node_size(1, 1, 5) == pytest.approx(10.0)
    assert _node_size(5, 1, 5) == pytest.approx(60.0)
    assert _node_size(3, 1, 5) == pytest.approx(35.0)
    # degenerate range collapses to the minimum
    assert _node_size(4, 4, 4) == pytest.approx(10.0)


# gexf


def test_gexf_bytes_deterministic(toy_graph, tmp_path):
    first = written(export_gexf, toy_graph, tmp_path / "a.gexf")
    assert written(export_gexf, toy_graph, tmp_path / "b.gexf") == first


def test_gexf_undirected_default_for_cooccur_only(tmp_path):
    data = written(export_gexf, cooccur_graph(), tmp_path / "g.gexf")
    assert b'defaultedgetype="undirected"' in data
    assert b"<viz:color" in data


def test_gexf_directed_default_with_directed_edges(tmp_path):
    data = written(export_gexf, directed_graph(), tmp_path / "g.gexf")
    assert b'defaultedgetype="directed"' in data


def test_gexf_validator_accepts_own_output(toy_graph, tmp_path):
    path = tmp_path / "g.gexf"
    export_gexf(toy_graph, path)
    assert validate_gexf(path) == (toy_graph.n_nodes, toy_graph.n_edges)
    # also directly from bytes
    assert validate_gexf(path.read_bytes()) == (4, 4)


def test_gexf_validator_rejects_broken_documents(toy_graph, tmp_path):
    good = written(export_gexf, toy_graph, tmp_path / "g.gexf").decode()
    with pytest.raises(GexfValidationError):
        validate_gexf("<gexf></gexf>")
    with pytest.raises(GexfValidationError):
        validate_gexf(good.replace('version="1.2"', 'version="0.1"', 1))
    # an edge pointing at a missing node id
    with pytest.raises(GexfValidationError, match="edge"):
        validate_gexf(good.replace('source="god::NOUN"', 'source="ghost::NOUN"'))
    # a str is always a document, never a file name
    with pytest.raises(GexfValidationError, match="not well-formed XML"):
        validate_gexf("not xml at <all")


# (id, (old, new) replacements, message): each breaks one check of the
# validator on the toy graph's document; no replacements means a missing file
_BROKEN_GEXF = [
    ("no-graph", [("<graph ", "<grph "), ("</graph>", "</grph>")], "missing graph element"),
    ("bad-defaultedgetype", [('"directed">', '"sideways">')], "missing or bad defaultedgetype"),
    ("bad-attributes-class", [('class="edge"', 'class="link"')], "bad attributes class 'link'"),
    ("attribute-without-id", [('<attribute id="0" title="pos"', '<attribute title="pos"')],
     "attribute without id or title"),
    ("attribute-without-title", [('title="kind" ', "")], "attribute without id or title"),
    ("undeclared-attvalue", [('<attvalue for="1"', '<attvalue for="7"')],
     "node god::NOUN: attvalue references undeclared attribute '7'"),
    ("viz-colour-too-big", [('b="255"/>', 'b="256"/>')],
     "node god::NOUN: bad viz colour channel '256'"),
    ("viz-colour-negative", [('b="255"/>', 'b="-1"/>')],
     "node god::NOUN: bad viz colour channel '-1'"),
    ("bad-viz-size", [('value="60.000"', 'value="big"')], "node god::NOUN: bad viz size"),
    ("zero-viz-size", [('value="60.000"', 'value="0"')], "node god::NOUN: non-positive viz size 0.0"),
    ("infinite-viz-size", [('value="60.000"', 'value="inf"')],
     "node god::NOUN: non-finite viz size inf"),
    ("no-nodes", [("<nodes>", "<nods>"), ("</nodes>", "</nods>")], "missing nodes element"),
    ("node-without-id", [('id="god::NOUN" ', "")], "node without id"),
    ("node-without-label", [('label="god"', "")], "node god::NOUN: missing label"),
    ("duplicate-node-id", [('id="man::NOUN"', 'id="god::NOUN"')], "duplicate node id 'god::NOUN'"),
    ("no-edges", [("<edges>", "<edgs>"), ("</edges>", "</edgs>")], "missing edges element"),
    ("edge-without-id", [('<edge id="0" ', "<edge ")], "missing or duplicate edge id None"),
    ("duplicate-edge-id", [('<edge id="1" ', '<edge id="0" ')], "missing or duplicate edge id '0'"),
    ("bad-edge-type", [('type="undirected"', 'type="sideways"')], "edge 0: bad type 'sideways'"),
    ("bad-edge-weight", [('weight="2"', 'weight="heavy"')], "edge 0: bad weight 'heavy'"),
    ("negative-edge-weight", [('weight="2"', 'weight="-2"')], "edge 0: non-positive weight -2.0"),
    ("nan-edge-weight", [('weight="2"', 'weight="nan"')], "edge 0: non-finite weight nan"),
    ("infinite-edge-weight", [('weight="2"', 'weight="inf"')], "edge 0: non-finite weight inf"),
    ("unreadable-path", [], "cannot read "),
]


@pytest.mark.parametrize(
    "edits, message", [case[1:] for case in _BROKEN_GEXF], ids=[case[0] for case in _BROKEN_GEXF]
)
def test_gexf_validator_names_each_broken_check(toy_graph, tmp_path, edits, message):
    document = written(export_gexf, toy_graph, tmp_path / "g.gexf").decode()
    for old, new in edits:
        assert old in document
        document = document.replace(old, new, 1)
    source = document if edits else tmp_path / "missing.gexf"
    with pytest.raises(GexfValidationError, match=re.escape(message)):
        validate_gexf(source)


def test_gexf_networkx_round_trip_undirected(tmp_path):
    nx = pytest.importorskip("networkx")
    g = cooccur_graph()
    path = tmp_path / "u.gexf"
    export_gexf(g, path)
    back = nx.read_gexf(path)
    assert not back.is_directed()
    assert back.number_of_nodes() == 2
    assert back.number_of_edges() == 1
    assert back.nodes["god::NOUN"]["frequency"] == 5
    assert back.nodes["god::NOUN"]["pos"] == "NOUN"


def test_gexf_networkx_round_trip_directed(tmp_path):
    nx = pytest.importorskip("networkx")
    path = tmp_path / "d.gexf"
    export_gexf(directed_graph(), path)
    back = nx.read_gexf(path)
    assert back.is_directed()
    assert back["man::NOUN"]["see::VERB"]["kind"] == "SUBJ"
    assert back["man::NOUN"]["see::VERB"]["weight"] == 2


def test_export_gexf_unwritable_path(toy_graph, tmp_path):
    with pytest.raises(ExportError, match="cannot write"):
        export_gexf(toy_graph, tmp_path / "no_such_dir" / "g.gexf")


# dot


def test_dot_undirected_edges_use_dir_none(toy_graph, tmp_path):
    text = written(export_dot, toy_graph, tmp_path / "g.dot").decode("utf-8")
    assert text.startswith("digraph")
    cooccur_line = [l for l in text.splitlines() if '"god::NOUN" -> "truth::NOUN"' in l]
    assert cooccur_line and 'dir="none"' in cooccur_line[0]
    subj_line = [l for l in text.splitlines() if '"man::NOUN" -> "see::VERB"' in l]
    assert subj_line and "dir=" not in subj_line[0]


def test_dot_penwidth_grows_with_weight(toy_graph, tmp_path):
    text = written(export_dot, toy_graph, tmp_path / "g.dot").decode("utf-8")
    assert 'penwidth="1.00", label="1"' in text
    assert 'penwidth="2.10", label="3"' in text


def test_dot_quotes_odd_labels(tmp_path):
    g = LexicalGraph(
        nodes={('sa"y', N): 1, ("do", V): 1},
        edges={(('sa"y', N), ("do", V), S): 1},
    )
    text = written(export_dot, g, tmp_path / "q.dot").decode("utf-8")
    assert '"sa\\"y::NOUN" [label="sa\\"y",' in text


# json round trip


def test_json_round_trip_lossless(toy_graph, tmp_path):
    path = tmp_path / "g.json"
    export_json(toy_graph, path)
    back = import_json(path)
    assert back == toy_graph
    # and the exported text is stable
    first = path.read_text(encoding="utf-8")
    export_json(toy_graph, path)
    assert path.read_text(encoding="utf-8") == first


def test_graph_dict_shape(toy_graph, tmp_path):
    path = tmp_path / "g.json"
    export_json(toy_graph, path)
    d = json.loads(path.read_text(encoding="utf-8"))
    assert d["format"] == "lexical-network"
    assert d["version"] == 1
    assert {n["lemma"] for n in d["nodes"]} == {"god", "see", "truth", "man"}


@given(
    st.text(
        st.sampled_from(list('"\\\x00\x1f\x7f\b\f\n\r\t\u2028\xa0 é中/'))
        | st.characters(codec="utf-8")
    )
)
@example("")
@example("".join(map(chr, range(0x21))) + '"\\')
def test_json_string_escapes_as_the_json_encoder(text):
    assert _json_string(text) == encode_basestring(text)


_NODE = {"lemma": "a", "pos": "NOUN", "frequency": 1}
_EDGE = {"source": ["a", "NOUN"], "target": ["a", "NOUN"], "kind": "COOCCUR", "weight": 1}


def _doc(nodes=(_NODE,), edges=()):
    return {"format": "lexical-network", "version": 1, "nodes": list(nodes), "edges": list(edges)}


_BAD_GRAPH_DOCS = [
    ({"format": "something-else", "version": 1}, "not a lexical-network"),
    (_doc([{**_NODE, "pos": "NOT_A_CLASS"}]), "bad node entry"),
    (_doc(edges=[{**_EDGE, "target": ["missing", "NOUN"]}]), "unregistered endpoint"),
    # what the writers could not write back the same
    (_doc([{**_NODE, "frequency": True}]), "frequency True not a positive int"),
    (_doc(edges=[{**_EDGE, "weight": True}]), "weight True not a positive int"),
    (_doc([{**_NODE, "lemma": ["a"]}]), "bad node entry"),
    (_doc([{**_NODE, "lemma": 7}]), "bad node entry"),
    (_doc([{**_NODE, "lemma": "tu\u0001tor"}]), "bad node entry"),
    (_doc([{**_NODE, "lemma": "tu\ud800tor"}]), "bad node entry"),
    (_doc([{**_NODE, "lemma": "tu\uffffor"}]), "bad node entry"),
    # GEXF reads a tab, LF or CR in an attribute back as a space, so "a\tb"
    # would become a second node "a b"
    (_doc([{**_NODE, "lemma": "a b"}, {**_NODE, "lemma": "a\tb"}]), "bad node entry"),
    (_doc([{**_NODE, "lemma": "a\nb"}]), "bad node entry"),
    (_doc([{**_NODE, "lemma": "a\rb"}]), "bad node entry"),
    (_doc(edges=[{**_EDGE, "source": [["a"], "NOUN"]}]), "bad edge entry"),
    (_doc(edges=[{**_EDGE, "source": [7, "NOUN"]}]), "bad edge entry"),
    (_doc(edges=[{**_EDGE, "source": ["a", "NOUN", "x"]}]), "bad edge entry"),
    (_doc(edges=[{**_EDGE, "source": {"a": 0, "NOUN": 1}}]), "bad edge entry"),
    (_doc([{**_NODE, "frequency": 0}]), "frequency 0 not a positive int"),
    (_doc([_NODE, {**_NODE, "frequency": 2}]), 'duplicate node ["a", "NOUN"]'),
    (_doc(edges=[_EDGE, {**_EDGE, "weight": 2}]), 'duplicate edge ["a", "NOUN"] -> ["a", "NOUN"] (COOCCUR)'),
    # a co-occurrence edge is stored with its endpoints in canonical order
    (
        _doc(
            [_NODE, {**_NODE, "lemma": "b"}],
            [{**_EDGE, "source": ["b", "NOUN"], "target": ["a", "NOUN"]}],
        ),
        "not canonical",
    ),
    # iterating these would fail, or find nothing, rather than refuse them
    ({**_doc(), "nodes": 5}, "nodes must be a list, got 5"),
    ({**_doc(), "edges": None}, "edges must be a list, got None"),
    ({**_doc(), "nodes": {"a": _NODE}}, "nodes must be a list, got {'a': "),
]


def test_import_json_validates(tmp_path):
    # json.dumps escapes every non-ASCII character, so a lone surrogate or
    # a noncharacter reaches the reader as written
    path = tmp_path / "g.json"
    path.write_text(json.dumps(_doc(edges=[_EDGE])), encoding="utf-8")
    assert import_json(path).edges == {(("a", N), ("a", N), RelationKind.COOCCUR): 1}
    for doc, fragment in _BAD_GRAPH_DOCS:
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InputError) as info:
            import_json(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ") and fragment in message, (fragment, message)


def test_import_json_bad_file(tmp_path):
    p = tmp_path / "g.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError):
        import_json(p)
    p.write_text("[" * 200_000, encoding="utf-8")
    with pytest.raises(InputError, match=r"g\.json: invalid JSON: nested too deeply$"):
        import_json(p)


def test_import_json_reads_a_byte_order_mark(toy_graph, tmp_path):
    p = tmp_path / "g.json"
    export_json(toy_graph, p)
    p.write_bytes(codecs.BOM_UTF8 + p.read_bytes())
    assert import_json(p) == toy_graph


def test_import_json_names_the_byte_offset(tmp_path):
    p = tmp_path / "g.json"
    p.write_bytes(b'{"format": "\xff"}')
    with pytest.raises(InputError, match=r"not valid UTF-8 \(byte offset 12\)"):
        import_json(p)


# csv


def test_csv_edges(toy_graph, tmp_path):
    path = tmp_path / "edges.csv"
    export_csv_edges(toy_graph, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "source_lemma,source_pos,target_lemma,target_pos,kind,weight"
    assert len(lines) == 1 + toy_graph.n_edges
    assert "man,NOUN,see,VERB,SUBJ,1" in lines


# stats report


def test_stats_report_sections(toy_graph):
    text = stats_report(toy_graph, top_n=3)
    for fragment in (
        "Nodes: 4",
        "Edges: 4 (total weight 8)",
        "Nodes by class:",
        "Edges by kind:",
        "Top nodes by frequency:",
        "Top nouns by frequency:",
        "Top verbs by frequency:",
        "Top nodes by WEIGHTED_DEGREE:",
    ):
        assert fragment in text
    assert "god (NOUN)  5" in text


def test_stats_report_empty_graph():
    text = stats_report(LexicalGraph({}, {}))
    assert "Nodes: 0" in text
    assert "n/a (empty)" in text


def test_stats_report_respects_top_n(toy_graph):
    text = stats_report(toy_graph, top_n=1)
    section = text.split("Top nouns by frequency:\n")[1]
    listed = [l for l in section.splitlines() if l.startswith("  ")]
    assert listed[0].strip().startswith("god")
    nouns_before_next_header = 0
    for line in section.splitlines():
        if not line.startswith("  "):
            break
        nouns_before_next_header += 1
    assert nouns_before_next_header == 1


# Reference writers: each format written straight from the graph's dicts,
# sorting once per format and ranking once per measure.  The writers under
# test share one sorted view; their output must match these byte for byte.


def ref_sorted_nodes(graph):
    return sorted(graph.nodes.items(), key=lambda kv: (kv[0][0], kv[0][1].name))


def ref_sorted_edges(graph):
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


def ref_node_id(key):
    return f"{key[0]}::{key[1].name}"


def ref_xml_attr(value):
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def ref_rgb(color):
    return int(color[1:3], 16), int(color[3:5], 16), int(color[5:7], 16)


# The fixed style, spelled out here so the references do not share it
# with the code under test.
REF_NODE_COLORS = {N: "#0000FF", V: "#FF0000", PosClass.ADJ: "#00FF00"}
REF_FALLBACK_COLOR = "#999999"
REF_EDGE_COLORS = {C: "#888888", S: "#FF0000", O: "#0000FF"}


def ref_node_color(pos):
    return REF_NODE_COLORS.get(pos, REF_FALLBACK_COLOR)


def ref_node_size(freq, freq_min, freq_max):
    if freq_max <= freq_min:
        return 10.0
    return 10.0 + (60.0 - 10.0) * (freq - freq_min) / (freq_max - freq_min)


def ref_gexf_bytes(graph):
    freqs = list(graph.nodes.values())
    freq_min = min(freqs) if freqs else 0
    freq_max = max(freqs) if freqs else 0
    any_directed = any(kind in DIRECTED_KINDS for (_, _, kind) in graph.edges)
    default_type = "directed" if any_directed else "undirected"
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<gexf xmlns="http://www.gexf.net/1.2draft"'
        ' xmlns:viz="http://www.gexf.net/1.2draft/viz" version="1.2">',
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
    for key, freq in ref_sorted_nodes(graph):
        lemma, pos = key
        r, g, b = ref_rgb(ref_node_color(pos))
        size = ref_node_size(freq, freq_min, freq_max)
        out.extend(
            [
                f'      <node id="{ref_xml_attr(ref_node_id(key))}" label="{ref_xml_attr(lemma)}">',
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
    for edge_id, ((src, dst, kind), weight) in enumerate(ref_sorted_edges(graph)):
        r, g, b = ref_rgb(REF_EDGE_COLORS[kind])
        edge_type = "directed" if kind in DIRECTED_KINDS else "undirected"
        out.extend(
            [
                f'      <edge id="{edge_id}" source="{ref_xml_attr(ref_node_id(src))}"'
                f' target="{ref_xml_attr(ref_node_id(dst))}" type="{edge_type}"'
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


def ref_dot_quote(value):
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def ref_dot_text(graph):
    freqs = list(graph.nodes.values())
    freq_min = min(freqs) if freqs else 0
    freq_max = max(freqs) if freqs else 0
    lines = [
        "digraph lexical_network {",
        '  graph [charset="UTF-8", outputorder="edgesfirst"];',
        '  node [style="filled", fontcolor="#FFFFFF"];',
    ]
    for key, freq in ref_sorted_nodes(graph):
        lemma, pos = key
        size = ref_node_size(freq, freq_min, freq_max)
        lines.append(
            f"  {ref_dot_quote(ref_node_id(key))} [label={ref_dot_quote(lemma)},"
            f' fillcolor="{ref_node_color(pos)}", fontsize="{size:.1f}"];'
        )
    for (src, dst, kind), weight in ref_sorted_edges(graph):
        attrs = (
            f'color="{REF_EDGE_COLORS[kind]}",'
            f' penwidth="{1.0 + math.log(weight):.2f}", label="{weight}"'
        )
        if kind not in DIRECTED_KINDS:
            attrs += ', dir="none"'
        lines.append(
            f"  {ref_dot_quote(ref_node_id(src))} -> {ref_dot_quote(ref_node_id(dst))} [{attrs}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def ref_graph_to_dict(graph):
    return {
        "format": "lexical-network",
        "version": 1,
        "nodes": [
            {"lemma": key[0], "pos": key[1].name, "frequency": freq}
            for key, freq in ref_sorted_nodes(graph)
        ],
        "edges": [
            {
                "source": [src[0], src[1].name],
                "target": [dst[0], dst[1].name],
                "kind": kind.name,
                "weight": weight,
            }
            for (src, dst, kind), weight in ref_sorted_edges(graph)
        ],
    }


def ref_csv_text(graph):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["source_lemma", "source_pos", "target_lemma", "target_pos", "kind", "weight"]
    )
    for (src, dst, kind), weight in ref_sorted_edges(graph):
        writer.writerow([src[0], src[1].name, dst[0], dst[1].name, kind.name, weight])
    return buf.getvalue()


def ref_centrality(graph, measure):
    scores = {key: 0 for key in graph.nodes}
    for (src, dst, kind), weight in graph.edges.items():
        if measure is Centrality.DEGREE:
            scores[src] += 1
            scores[dst] += 1
        elif measure is Centrality.WEIGHTED_DEGREE:
            scores[src] += weight
            scores[dst] += weight
        elif measure is Centrality.IN_DEGREE:
            if kind in DIRECTED_KINDS:
                scores[dst] += 1
        elif measure is Centrality.OUT_DEGREE:
            if kind in DIRECTED_KINDS:
                scores[src] += 1
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1].name))


def ref_distribution_line(label, values):
    if not values:
        return f"{label}: n/a (empty)"
    return (
        f"{label}: min {min(values)}  max {max(values)}  "
        f"mean {statistics.fmean(values):.3f}  sd {statistics.pstdev(values):.3f}"
    )


_INTS = st.integers(0, 12) | st.integers(-(10**6), 10**6) | st.integers(-(10**30), 10**30)
_INT_LISTS = st.lists(_INTS, min_size=1, max_size=60) | st.builds(
    lambda value, n: [value] * n, _INTS, st.integers(1, 30)
)


@settings(max_examples=400, deadline=None)
@given(_INT_LISTS)
@example([10**30])
@example([10**30, 10**30 - 1, 1])
@example([7] * 13)
def test_mean_sd_is_bitwise_statistics(values):
    # the stats report and meanK cutoffs must not move by one ulp
    mean, sd = mean_sd(values)
    assert mean.hex() == statistics.fmean(values).hex()
    assert sd.hex() == statistics.pstdev(values).hex()
    assert _distribution_line("x", values) == ref_distribution_line("x", values)


def ref_stats_report(graph, top_n=10):
    lines = [
        f"Nodes: {graph.n_nodes}",
        f"Edges: {graph.n_edges} (total weight {graph.total_weight})",
    ]
    by_class = {}
    for (_, pos), _freq in graph.nodes.items():
        by_class[pos.name] = by_class.get(pos.name, 0) + 1
    lines.append("Nodes by class:")
    for name in sorted(by_class):
        lines.append(f"  {name}  {by_class[name]}")
    by_kind = {}
    for (_, _, kind), weight in graph.edges.items():
        count, total = by_kind.get(kind.name, (0, 0))
        by_kind[kind.name] = (count + 1, total + weight)
    lines.append("Edges by kind:")
    for name in sorted(by_kind):
        count, total = by_kind[name]
        lines.append(f"  {name}  {count} (weight {total})")
    lines.append(ref_distribution_line("Node frequency summary", list(graph.nodes.values())))
    lines.append(ref_distribution_line("Edge weight summary", list(graph.edges.values())))
    ranked = sorted(graph.nodes.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1].name))
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
        for (lemma, pos), score in ref_centrality(graph, measure)[:top_n]:
            lines.append(f"  {lemma} ({pos.name})  {score}")
    return "\n".join(lines) + "\n"


# Lemmas lean on characters each format escapes or quotes, on a few
# shared letters (so one lemma comes in several classes and the class
# name breaks the tie) and on small weights (so scores and frequencies tie).
_LEMMAS = st.text(
    st.sampled_from(list('ab"&<>\\,\n\r\t\x00\x01\x1f\x7fé中\u2028 :'))
    | st.characters(codec="utf-8"),
    max_size=3,
)
_XML_CONTROL = re.compile("[\x00-\x1f\ufffe\uffff]")
_CLASSES = st.sampled_from([PosClass.NOUN, PosClass.VERB, PosClass.ADJ, PosClass.ADV])


@st.composite
def _graphs(draw):
    keys = draw(st.lists(st.tuples(_LEMMAS, _CLASSES), unique=True, max_size=8))
    nodes = {key: draw(st.integers(1, 4)) for key in keys}
    edges = {}
    for _ in range(draw(st.integers(0, 12)) if keys else 0):
        src, dst = draw(st.sampled_from(keys)), draw(st.sampled_from(keys))
        kind = draw(st.sampled_from(RelationKind))
        if kind is RelationKind.COOCCUR and node_order(src) > node_order(dst):
            src, dst = dst, src
        edges[(src, dst, kind)] = draw(st.integers(1, 4))
    return LexicalGraph(nodes=nodes, edges=edges)


# what csv quotes (",", '"', "\r", "\n"), spaces at either end and the
# empty lemma, which a row of one field would quote
_CSV_LEMMAS = st.text(st.sampled_from(list(',"\r\n a')), max_size=4) | st.sampled_from(
    ["", " a", "a ", '"', ",", "\r\n"]
)


@st.composite
def _csv_graphs(draw):
    keys = draw(st.lists(st.tuples(_CSV_LEMMAS, _CLASSES), unique=True, min_size=1, max_size=6))
    nodes = {key: 1 for key in keys}
    edges = {}
    for _ in range(draw(st.integers(0, 10))):
        ends = draw(st.sampled_from(keys)), draw(st.sampled_from(keys))
        src, dst = sorted(ends, key=node_order)
        edges[(src, dst, draw(st.sampled_from(RelationKind)))] = draw(st.integers(1, 10**6))
    return LexicalGraph(nodes=nodes, edges=edges)


@settings(max_examples=300, deadline=None)
@given(_csv_graphs())
@example(LexicalGraph({("", N): 1, (" a,", V): 1}, {(("", N), (" a,", V), RelationKind.SUBJ): 3}))
def test_csv_edges_quote_each_end_as_the_csv_writer_does(graph):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.csv"
        export_csv_edges(graph, path)
        assert path.read_bytes() == ref_csv_text(graph).encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(_graphs(), st.integers(0, 4))
@example(LexicalGraph({}, {}), 10)
def test_writers_match_reference(graph, top_n):
    expected = {
        "g.gexf": ref_gexf_bytes(graph),
        "g.dot": ref_dot_text(graph).encode("utf-8"),
        "g.json": (
            json.dumps(ref_graph_to_dict(graph), indent=2, ensure_ascii=False) + "\n"
        ).encode("utf-8"),
        "g.csv": ref_csv_text(graph).encode("utf-8"),
        "g.txt": ref_stats_report(graph, top_n).encode("utf-8"),
    }
    assert stats_report(graph, top_n) == ref_stats_report(graph, top_n)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        # as the CLI calls them, on one shared view, and on the plain graph
        for source in (sorted_view(graph), graph):
            export_gexf(source, out / "g.gexf")
            export_dot(source, out / "g.dot")
            export_json(source, out / "g.json")
            export_csv_edges(source, out / "g.csv")
            export_stats(source, out / "g.txt", top_n)
            for name, payload in expected.items():
                assert (out / name).read_bytes() == payload, name
            assert (out / "g.txt").read_bytes() == stats_report(source, top_n).encode("utf-8")
            for measure in Centrality:
                assert centrality(source, measure) == ref_centrality(graph, measure)
        # a lemma with a character that XML cannot hold would make the
        # next GEXF file ill-formed, and a tab or line break would come
        # back from it as a space, so reading it back is refused
        if any(_XML_CONTROL.search(lemma) for lemma, _ in graph.nodes):
            with pytest.raises(InputError, match="bad node entry"):
                import_json(out / "g.json")
        else:
            assert import_json(out / "g.json") == graph
