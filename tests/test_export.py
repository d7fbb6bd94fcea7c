"""Styled GEXF, DOT, JSON and CSV output plus the text stats report."""

import json

import pytest

from letternet.export import (
    ExportError,
    GexfValidationError,
    GraphFormatError,
    StyleError,
    StyleSpec,
    dot_text,
    export_csv_edges,
    export_dot,
    export_gexf,
    export_json,
    gexf_bytes,
    graph_from_dict,
    graph_to_dict,
    import_json,
    stats_report,
    validate_gexf,
)
from letternet.extraction import RelationKind
from letternet.network import LexicalGraph
from letternet.pipeline import PosClass

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


# style


def test_style_defaults_cover_content_classes():
    style = StyleSpec()
    assert style.node_color(N) == "#0000FF"
    assert style.node_color(V) == "#FF0000"
    assert style.node_color(PosClass.ADJ) == "#00FF00"
    assert style.node_color(PosClass.ADV) == style.fallback_color


def test_style_rejects_bad_values():
    with pytest.raises(StyleError):
        StyleSpec(size_min=20.0, size_max=10.0)
    with pytest.raises(StyleError):
        StyleSpec(fallback_color="red")


def test_node_size_interpolates():
    style = StyleSpec(size_min=10.0, size_max=60.0)
    assert style.node_size(1, 1, 5) == pytest.approx(10.0)
    assert style.node_size(5, 1, 5) == pytest.approx(60.0)
    assert style.node_size(3, 1, 5) == pytest.approx(35.0)
    # degenerate range collapses to the minimum
    assert style.node_size(4, 4, 4) == pytest.approx(10.0)


# gexf


def test_gexf_bytes_deterministic(toy_graph):
    assert gexf_bytes(toy_graph) == gexf_bytes(toy_graph)


def test_gexf_undirected_default_for_cooccur_only():
    data = gexf_bytes(cooccur_graph())
    assert b'defaultedgetype="undirected"' in data
    assert b"<viz:color" in data


def test_gexf_directed_default_with_directed_edges():
    assert b'defaultedgetype="directed"' in gexf_bytes(directed_graph())


def test_gexf_validator_accepts_own_output(toy_graph, tmp_path):
    path = tmp_path / "g.gexf"
    export_gexf(toy_graph, path)
    assert validate_gexf(path) == (toy_graph.n_nodes, toy_graph.n_edges)
    # also directly from bytes
    assert validate_gexf(gexf_bytes(toy_graph)) == (4, 4)


def test_gexf_validator_rejects_broken_documents(toy_graph):
    good = gexf_bytes(toy_graph).decode()
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


def test_dot_undirected_edges_use_dir_none(toy_graph):
    text = dot_text(toy_graph)
    assert text.startswith("digraph")
    cooccur_line = [l for l in text.splitlines() if '"god::NOUN" -> "truth::NOUN"' in l]
    assert cooccur_line and 'dir="none"' in cooccur_line[0]
    subj_line = [l for l in text.splitlines() if '"man::NOUN" -> "see::VERB"' in l]
    assert subj_line and "dir=" not in subj_line[0]


def test_dot_penwidth_grows_with_weight(toy_graph):
    text = dot_text(toy_graph)
    assert 'penwidth="1.00", label="1"' in text
    assert 'penwidth="2.10", label="3"' in text


def test_dot_quotes_odd_labels(tmp_path):
    g = LexicalGraph(
        nodes={('sa"y', N): 1, ("do", V): 1},
        edges={(('sa"y', N), ("do", V), S): 1},
    )
    text = dot_text(g)
    assert '\\"' in text
    path = tmp_path / "q.dot"
    export_dot(g, path)
    assert path.read_text(encoding="utf-8") == text


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


def test_graph_dict_shape(toy_graph):
    d = graph_to_dict(toy_graph)
    assert d["format"] == "lexical-network"
    assert d["version"] == 1
    assert {n["lemma"] for n in d["nodes"]} == {"god", "see", "truth", "man"}


def test_graph_from_dict_validates():
    with pytest.raises(GraphFormatError):
        graph_from_dict({"format": "something-else", "version": 1})
    with pytest.raises(GraphFormatError):
        graph_from_dict(
            {
                "format": "lexical-network",
                "version": 1,
                "nodes": [{"lemma": "a", "pos": "NOT_A_CLASS", "frequency": 1}],
                "edges": [],
            }
        )
    with pytest.raises(GraphFormatError):
        graph_from_dict(
            {
                "format": "lexical-network",
                "version": 1,
                "nodes": [{"lemma": "a", "pos": "NOUN", "frequency": 1}],
                "edges": [
                    {
                        "source": ["a", "NOUN"],
                        "target": ["missing", "NOUN"],
                        "kind": "COOCCUR",
                        "weight": 1,
                    }
                ],
            }
        )


def test_import_json_bad_file(tmp_path):
    p = tmp_path / "g.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(GraphFormatError):
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
    text = stats_report(LexicalGraph())
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
