"""Config resolution and the letternet command line."""

import codecs
import contextlib
import importlib.util
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import letternet
from letternet import cli, corpus, export, extraction, network, pipeline
from letternet.cli import (
    CONFIG_ENV_VAR,
    RunConfig,
    build_parser,
    load_config_file,
    main,
    validate_config,
)
from letternet.export import import_json
from letternet.extraction import RelationKind
from letternet.pipeline import Annotator, InputError, LetternetError, data_path

from conftest import MANIFEST, SAMPLE_DIR, N, V, child_env, tree_bytes


@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory):
    """Two tiny letters plus a manifest, for fast end-to-end runs."""
    root = tmp_path_factory.mktemp("mini")
    (root / "a.txt").write_text(
        "The tutor doth loue the child. The child doth see the truth.\n",
        encoding="utf-8",
    )
    (root / "b.txt").write_text(
        "God doth see the truth: and the church doth call the man.\n",
        encoding="utf-8",
    )
    rows = [
        "letter_id\tsender\taddressee\tyear\tyear_uncertain\tlanguage\tfile\tcut_marker",
        "A1\tHartlib\tDury\t1630\tfalse\ten\ta.txt\t-",
        "B1\tDury\tHartlib\t1632\tfalse\ten\tb.txt\t-",
    ]
    manifest = root / "manifest.tsv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return manifest


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# config files


def test_load_config_file_resolves_paths(tmp_path):
    sub = tmp_path / "conf"
    sub.mkdir()
    path = sub / "c.json"
    path.write_text(
        json.dumps(
            {
                "manifest": "corpus/manifest.tsv",
                "out": "results",
                "formats": ["json", "csv"],
                "top": 5,
            }
        ),
        encoding="utf-8",
    )
    data = load_config_file(path)
    assert data["manifest"] == str(sub / "corpus" / "manifest.tsv")
    # out stays relative to the working directory, not the config
    assert data["out"] == "results"
    assert data["formats"] == ("json", "csv")
    assert data["top"] == 5


def test_load_config_file_keeps_absolute_paths(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"gold": "/abs/gold.tsv"}), encoding="utf-8")
    assert load_config_file(path)["gold"] == "/abs/gold.tsv"


def test_load_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"mode": "pairs", "windw": 3}), encoding="utf-8")
    with pytest.raises(InputError, match="windw"):
        load_config_file(path)


def test_load_config_file_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{oops", encoding="utf-8")
    with pytest.raises(InputError, match="invalid JSON"):
        load_config_file(path)


def test_load_config_file_non_object(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(InputError, match="JSON object"):
        load_config_file(path)


def test_load_config_file_missing():
    with pytest.raises(InputError, match="cannot read"):
        load_config_file("/no/such/config.json")


def test_shipped_sample_config_loads():
    from letternet.pipeline import data_path

    data = load_config_file(data_path("sample_config.json"))
    assert data["mode"] == "cooccur"
    assert data["manifest"].endswith("manifest.tsv")


def test_sample_config_and_readme_name_every_setting():
    # the README calls sample_config.json a complete example, and its
    # settings table lists the keys a config file may set
    data = json.loads(data_path("sample_config.json").read_text(encoding="utf-8"))
    assert sorted(data) == sorted(RunConfig._fields)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key / flag", 1)[1].split("\n\n", 1)[0]
    keys = [
        name
        for row in table.splitlines()[2:]
        for name in row.split("|")[1].split("`")[1::2]
        if not name.startswith("--")
    ]
    assert sorted(keys) == sorted(RunConfig._fields)


def test_readme_lists_every_command():
    # the README's command table and cli.COMMANDS name the same commands
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| command ", 1)[1].split("\n\n", 1)[0]
    names = [row.split("|")[1].split("`")[1] for row in table.splitlines()[2:]]
    assert names == list(cli.COMMANDS)


# the command line, and flag / config / default precedence


def resolve(argv):
    return cli._resolve_config(build_parser().parse_args(argv))


def test_flags_override_config(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"mode": "pairs", "max_dist": 2}), encoding="utf-8")
    cfg = resolve(["network", "--config", str(path)])
    assert cfg.mode == "pairs" and cfg.max_dist == 2
    cfg = resolve(["network", "--config", str(path), "--mode", "cooccur"])
    assert cfg.mode == "cooccur"
    assert cfg.max_dist == 2  # untouched config value survives


def test_boolean_flags_only_flip_when_given():
    cfg = resolve(["network"])
    assert cfg.verb_blocker and not cfg.colon_boundary and not cfg.keep_isolated
    cfg = resolve(["network", "--no-blocker", "--colon-boundary", "--keep-isolated"])
    assert not cfg.verb_blocker and cfg.colon_boundary and cfg.keep_isolated


def test_format_flag_splits_commas():
    cfg = resolve(["network", "--format", "json, csv"])
    assert cfg.formats == ("json", "csv")


def test_options_may_come_before_the_command(tmp_path):
    options = ["--mode", "pairs", "--format", "json,csv", "--no-blocker", "--top", "3"]
    assert resolve(options + ["network"]) == resolve(["network"] + options)
    assert resolve(options[:2] + ["network"] + options[2:]) == resolve(["network"] + options)
    assert resolve(options + ["network"]).mode == "pairs"


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    stdout = capsys.readouterr().out
    for name, (help_text, _handler) in cli.COMMANDS.items():
        assert f"  {name}" in stdout
        assert help_text in stdout
    assert "--max-dist N" in stdout


def test_malformed_command_line_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["network", "--max-dist", "x"])
    assert exc.value.code == 2
    stderr = capsys.readouterr().err
    assert "letternet: error: argument --max-dist: invalid int value: 'x'" in stderr


@pytest.mark.parametrize(
    "option, value",
    [("--top", "1_0"), ("--max-dist", "٣"), ("--top", " 7 "), ("--max-dist", "+2")],
)
def test_numeric_options_take_ascii_digits_only(capsys, option, value):
    # the digit rule of the file readers; int() would read each as a number
    with pytest.raises(SystemExit) as exc:
        main(["stats", option, value])
    assert exc.value.code == 2
    assert f"letternet: error: argument {option}: invalid int value" in capsys.readouterr().err
    args = build_parser().parse_args(["stats", "--top", "-1", "--max-dist", "12"])
    assert (args.top, args.max_dist) == (-1, 12)


def test_env_var_supplies_config(tmp_path, monkeypatch):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"top": 3}), encoding="utf-8")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
    assert resolve(["stats"]).top == 3
    monkeypatch.delenv(CONFIG_ENV_VAR)
    assert resolve(["stats"]).top == 10


# validate_config


def test_validate_config_accepts_sample():
    validate_config(RunConfig(manifest=str(MANIFEST)))


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"mode": "triples"}, "bad mode"),
        ({"scope": "everything"}, "bad scope"),
        ({"formats": ("gexf", "pdf")}, "bad format"),
        ({"context": "window:x"}, "bad context"),
        ({"context": "window:0"}, ">= 1"),
        ({"context": "paragraph"}, "bad context"),
        ({"max_dist": -1}, "max_dist"),
        ({"prune_nodes": "banana"}, "prune"),
        ({"prune_edges": "gt"}, "prune"),
        ({"manifest": None}, "no manifest"),
        ({"manifest": "/no/such.tsv"}, "not found"),
        ({"gold": "/no/gold.tsv"}, "gold file not found"),
        ({"anaphora": "/no/ana.tsv"}, "not found"),
        ({"pretagged_dir": "/no/dir"}, "not found"),
    ],
)
def test_validate_config_rejects(kwargs, fragment):
    base = {"manifest": str(MANIFEST)}
    base.update(kwargs)
    with pytest.raises(InputError, match=fragment):
        validate_config(RunConfig(**base))


def test_validate_config_pretagged_skips_manifest(tmp_path):
    validate_config(RunConfig(pretagged_dir=str(tmp_path)))


# subcommands end to end


def test_preprocess_writes_vertical_files(mini_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_main(
        ["preprocess", "--manifest", str(mini_corpus), "--out", str(out)], capsys
    )
    assert code == 0
    assert "preprocessed 2 letters" in stdout
    assert sorted(p.name for p in out.glob("*.tsv")) == ["A1.tsv", "B1.tsv"]
    lines = (out / "A1.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# letter A1"
    assert lines[1] == "The\tthe\tthe\tDET"


def test_preprocess_writes_every_file_with_one_row_memo(mini_corpus, tmp_path, capsys, monkeypatch):
    memos, docs = [], []
    original = cli.write_vertical

    def recording(doc, path, **kwargs):
        memos.append(kwargs["memo"])
        docs.append(doc)
        return original(doc, path, **kwargs)

    monkeypatch.setattr(cli, "write_vertical", recording)
    out = tmp_path / "out"
    code, _, _ = run_main(["preprocess", "--manifest", str(mini_corpus), "--out", str(out)], capsys)
    assert code == 0
    assert len(docs) == 2 and memos[0] is memos[1]
    assert set(memos[0]) == {token for doc in docs for token in doc.tokens()}


def test_network_default_gexf(mini_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_main(
        ["network", "--manifest", str(mini_corpus), "--out", str(out)], capsys
    )
    assert code == 0
    assert (out / "network.gexf").is_file()
    assert (out / "network_stats.txt").is_file()
    assert "network:" in stdout and "nodes" in stdout


def test_network_format_selection(mini_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run_main(
        [
            "network",
            "--manifest",
            str(mini_corpus),
            "--out",
            str(out),
            "--format",
            "json,csv",
        ],
        capsys,
    )
    assert code == 0
    assert not (out / "network.gexf").exists()
    graph = import_json(out / "network.json")
    assert ("truth", N) in graph.nodes
    header = (out / "network_edges.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("source_lemma")


def test_network_of_a_letter_without_sentence_ends(tmp_path, capsys):
    # one sentence of 6,000 content tokens (8 in each of 750 clauses), as
    # a transcription with no sentence-ending punctuation gives
    clause = "The tutor doth loue the child, and the child doth see the truth, "
    (tmp_path / "long.txt").write_text(clause * 750, encoding="utf-8")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        "letter_id\tsender\taddressee\tyear\tyear_uncertain\tlanguage\tfile\tcut_marker\n"
        "L1\tHartlib\tDury\t1630\tfalse\ten\tlong.txt\t-\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code, _, _ = run_main(
        ["network", "--manifest", str(manifest), "--out", str(out), "--format", "json"], capsys
    )
    assert code == 0
    graph = import_json(out / "network.json")
    assert graph.nodes[("child", N)] == 1500
    assert graph.edges[(("truth", N), ("tutor", N), RelationKind.COOCCUR)] == 750 * 750
    assert graph.total_weight == 6000 * 5999 // 2


def test_network_per_letter_scope(mini_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_main(
        [
            "network",
            "--manifest",
            str(mini_corpus),
            "--out",
            str(out),
            "--scope",
            "per-letter",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    assert (out / "A1.json").is_file() and (out / "B1.json").is_file()
    assert "A1:" in stdout and "B1:" in stdout


@pytest.mark.parametrize("mode, builder", [("cooccur", "cooccurrence_graph"), ("pairs", "pair_graph")])
def test_per_letter_graphs_are_built_and_written_one_at_a_time(
    mini_corpus, tmp_path, capsys, monkeypatch, mode, builder
):
    events = []
    build, write = getattr(cli, builder), cli.export_gexf

    def traced_build(docs, *args):
        events.append(("build", docs[0].letter_id))
        return build(docs, *args)

    def traced_write(view, path):
        events.append(("write", path.stem))
        write(view, path)

    monkeypatch.setattr(cli, builder, traced_build)
    monkeypatch.setattr(cli, "export_gexf", traced_write)
    args = ["network", "--manifest", str(mini_corpus), "--out", str(tmp_path), "--mode", mode,
            "--scope", "per-letter", "--prune-edges", "gt0"]
    code, _, _ = run_main(args, capsys)
    assert code == 0
    assert events == [("build", "A1"), ("write", "A1"), ("build", "B1"), ("write", "B1")]


def test_network_colon_boundary_changes_cooccurrence(mini_corpus, tmp_path, capsys):
    def edges(extra):
        out = tmp_path / ("c" + str(len(extra)))
        args = [
            "network",
            "--manifest",
            str(mini_corpus),
            "--out",
            str(out),
            "--format",
            "json",
        ] + extra
        assert main(args) == 0
        capsys.readouterr()
        return import_json(out / "network.json").edges

    joined = edges([])
    split = edges(["--colon-boundary"])
    crossing = (("church", N), ("god", N), RelationKind.COOCCUR)
    assert crossing in joined
    assert crossing not in split


def test_network_pairs_mode(mini_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run_main(
        [
            "network",
            "--manifest",
            str(mini_corpus),
            "--out",
            str(out),
            "--mode",
            "pairs",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    graph = import_json(out / "network.json")
    assert (("see", V), ("truth", N), RelationKind.OBJ) in graph.edges
    assert (("god", N), ("do", V), RelationKind.SUBJ) in graph.edges
    kinds = {kind for _, _, kind in graph.edges}
    assert RelationKind.COOCCUR not in kinds


def test_network_outputs_are_reproducible(mini_corpus, tmp_path, capsys):
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert (
            main(["network", "--manifest", str(mini_corpus), "--out", str(out)]) == 0
        )
        capsys.readouterr()
        blobs.append((out / "network.gexf").read_bytes())
    assert blobs[0] == blobs[1]


def test_network_from_pretagged_matches_direct(mini_corpus, tmp_path, capsys):
    vertical = tmp_path / "vertical"
    assert main(["preprocess", "--manifest", str(mini_corpus), "--out", str(vertical)]) == 0
    direct = tmp_path / "direct"
    again = tmp_path / "again"
    assert (
        main(
            [
                "network",
                "--manifest",
                str(mini_corpus),
                "--out",
                str(direct),
                "--format",
                "json",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "network",
                "--pretagged-dir",
                str(vertical),
                "--out",
                str(again),
                "--format",
                "json",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (direct / "network.json").read_bytes() == (again / "network.json").read_bytes()


def test_vertical_files_of_a_run_share_one_token_per_row(mini_corpus, tmp_path, capsys):
    vertical = tmp_path / "vertical"
    assert main(["preprocess", "--manifest", str(mini_corpus), "--out", str(vertical)]) == 0
    capsys.readouterr()
    a, b = cli._load_docs(RunConfig(pretagged_dir=str(vertical)))
    first = {}
    for token in [*a.tokens(), *b.tokens()]:
        assert first.setdefault(token, token) is token
    assert set(a.tokens()) & set(b.tokens())  # "doth", "see", "the", "truth"


def test_byte_order_marks_change_no_output(mini_corpus, tmp_path, capsys):
    # every input once as saved and once with a UTF-8 byte-order mark
    inputs = {
        "manifest.tsv": mini_corpus.read_bytes(),
        "a.txt": (mini_corpus.parent / "a.txt").read_bytes(),
        "b.txt": (mini_corpus.parent / "b.txt").read_bytes(),
        "lexicon.tsv": data_path("variant_lexicon.tsv").read_bytes(),
        "abbrevs.txt": data_path("abbreviations.txt").read_bytes(),
        "config.json": json.dumps(
            {
                "manifest": "manifest.tsv",
                "variant_lexicon": "lexicon.tsv",
                "abbreviations": "abbrevs.txt",
                "formats": ["gexf", "dot", "json", "csv"],
            }
        ).encode("utf-8"),
    }
    outputs = {}
    for name, prefix in (("plain", b""), ("marked", codecs.BOM_UTF8)):
        root = tmp_path / name
        root.mkdir()
        for file_name, data in inputs.items():
            (root / file_name).write_bytes(prefix + data)
        assert main(["run", "--config", str(root / "config.json"), "--out", str(root / "run")]) == 0
        vertical = root / "vertical"
        vertical.mkdir()
        for path in (root / "run").glob("*.tsv"):
            (vertical / path.name).write_bytes(prefix + path.read_bytes())
        argv = ["network", "--pretagged-dir", str(vertical), "--mode", "pairs"]
        assert main([*argv, "--out", str(root / "pairs"), "--format", "json"]) == 0
        outputs[name] = {
            path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.glob("[rp]*/*"))
        }
    capsys.readouterr()
    assert len(outputs["plain"]) == 9
    assert outputs["marked"] == outputs["plain"]


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_line_breaks_change_no_output(tmp_path, capsys, newline):
    # The sample corpus as shipped (LF) and re-saved with other line
    # breaks.  Letter 1 breaks "consi-/deration" over a line, which must
    # rejoin whatever ends the line.
    outputs = {}
    for name, eol in (("lf", b"\n"), ("other", newline)):
        root = tmp_path / name
        root.mkdir()
        for path in SAMPLE_DIR.iterdir():
            (root / path.name).write_bytes(path.read_bytes().replace(b"\n", eol))
        out = tmp_path / f"{name}-out"
        argv = ["network", "--manifest", str(root / "manifest.tsv"), "--out", str(out)]
        assert main([*argv, "--format", "gexf,dot,json,csv"]) == 0
        outputs[name] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    capsys.readouterr()
    assert len(outputs["lf"]) == 5
    assert b'"consideration"' in outputs["lf"]["network.json"]
    assert outputs["other"] == outputs["lf"]


def test_run_chains_preprocess_and_network(mini_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_main(
        ["run", "--manifest", str(mini_corpus), "--out", str(out)], capsys
    )
    assert code == 0
    assert (out / "A1.tsv").is_file()
    assert (out / "network.gexf").is_file()
    assert "preprocessed" in stdout and "network:" in stdout


def test_run_annotates_once_and_matches_preprocess_then_network(
    mini_corpus, tmp_path, capsys, monkeypatch
):
    annotated = []
    original = Annotator.annotate

    def counting(self, letter):
        annotated.append(letter.meta.letter_id)
        return original(self, letter)

    monkeypatch.setattr(Annotator, "annotate", counting)
    formats = ["--format", "gexf,dot,json,csv"]
    run_out = tmp_path / "run"
    code, run_stdout, _ = run_main(
        ["run", "--manifest", str(mini_corpus), "--out", str(run_out), *formats], capsys
    )
    assert code == 0
    assert sorted(annotated) == ["A1", "B1"]
    split_out = tmp_path / "split"
    stdout = ""
    for command in ("preprocess", "network"):
        code, out, _ = run_main(
            [command, "--manifest", str(mini_corpus), "--out", str(split_out), *formats],
            capsys,
        )
        assert code == 0
        stdout += out
    assert run_stdout.replace(str(run_out), str(split_out)) == stdout
    names = sorted(p.name for p in run_out.iterdir())
    assert names == sorted(p.name for p in split_out.iterdir())
    for name in names:
        assert (run_out / name).read_bytes() == (split_out / name).read_bytes()


def test_eval_reports_scores(mini_corpus, tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text("A1\t0\tlove\ttutor\tchild\n", encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, _ = run_main(
        [
            "eval",
            "--manifest",
            str(mini_corpus),
            "--gold",
            str(gold),
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    assert "overall" in stdout
    report = (out / "eval_report.txt").read_text(encoding="utf-8")
    assert report.strip() == stdout.strip()


def test_stats_prints_summary(mini_corpus, capsys):
    code, stdout, _ = run_main(["stats", "--manifest", str(mini_corpus)], capsys)
    assert code == 0
    assert "Nodes:" in stdout and "Top nouns by frequency:" in stdout


def test_stats_per_letter_has_one_header_per_letter(mini_corpus, capsys):
    code, stdout, _ = run_main(
        ["stats", "--manifest", str(mini_corpus), "--scope", "per-letter"], capsys
    )
    assert code == 0
    assert [line for line in stdout.splitlines() if line.startswith("==")] == [
        "== A1 ==", "== B1 ==",
    ]
    assert stdout.count("Nodes:") == 2


def test_empty_pretagged_dir_warns(tmp_path, capsys, caplog):
    caplog.set_level(logging.WARNING, logger="letternet.cli")
    code, _, _ = run_main(["stats", "--pretagged-dir", str(tmp_path)], capsys)
    assert code == 0
    assert [r.getMessage() for r in caplog.records] == [f"no vertical files in {tmp_path}"]


# error handling


def test_missing_manifest_is_a_user_error(capsys):
    code, _, stderr = run_main(["network", "--manifest", "/no/such.tsv"], capsys)
    assert code == 1
    assert stderr.startswith("letternet: error:")


def test_bad_prune_rule_is_a_user_error(mini_corpus, capsys):
    code, _, stderr = run_main(
        ["network", "--manifest", str(mini_corpus), "--prune-nodes", "banana"], capsys
    )
    assert code == 1
    assert "letternet: error:" in stderr


def test_eval_without_gold_is_a_user_error(mini_corpus, capsys):
    code, _, stderr = run_main(["eval", "--manifest", str(mini_corpus)], capsys)
    assert code == 1
    assert "gold" in stderr


def test_eval_gold_for_unknown_letter(mini_corpus, tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text("Z9\t0\tsee\tgod\t-\n", encoding="utf-8")
    code, _, stderr = run_main(
        ["eval", "--manifest", str(mini_corpus), "--gold", str(gold)], capsys
    )
    assert code == 1
    assert "Z9" in stderr


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
)
def test_outputs_get_the_mode_of_a_plain_new_file(mini_corpus, tmp_path, capsys, umask, mode):
    out = tmp_path / "out"
    old_umask = os.umask(umask)
    try:
        code, _, _ = run_main(
            ["run", "--manifest", str(mini_corpus), "--out", str(out), "--format", "gexf,csv"],
            capsys,
        )
    finally:
        os.umask(old_umask)
    assert code == 0
    modes = {path.name: path.stat().st_mode & 0o777 for path in out.iterdir()}
    assert sorted(modes) == [
        "A1.tsv", "B1.tsv", "network.gexf", "network_edges.csv", "network_stats.txt"
    ]
    assert set(modes.values()) == {mode}


def test_unknown_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


NOT_UTF8 = b"\xff\xfe\n"
NETWORK = ["network", "--manifest", "{manifest}", "--out", "{out}"]
MANIFEST_HEADER = b"letter_id\tsender\taddressee\tyear\tyear_uncertain\tlanguage\tfile\n"
ESCAPING_MANIFEST = MANIFEST_HEADER + b"../../escaped\tDury\t-\t1630\tfalse\ten\ta.txt\n"
VERTICAL_WITH_CONTROL = (
    b"# letter L1\nThe\tthe\tthe\tDET\ntutor\ttutor\ttu\x01tor\tNOUN\ndoth\tdoth\tdo\tVERB\n"
)


@pytest.mark.parametrize(
    "content, argv, fragment",
    [
        (NOT_UTF8, NETWORK + ["--variant-lexicon", "{bad}"], "cannot read lexicon"),
        (b"vse\tuse\t-\t\n", NETWORK + ["--variant-lexicon", "{bad}"], "got 3"),
        (NOT_UTF8, NETWORK + ["--abbreviations", "{bad}"], "cannot read abbreviations"),
        (NOT_UTF8, NETWORK + ["--anaphora", "{bad}"], "cannot read anaphora file"),
        (
            NOT_UTF8,
            ["eval", "--manifest", "{manifest}", "--out", "{out}", "--gold", "{bad}"],
            "cannot read gold file",
        ),
        (NOT_UTF8, NETWORK + ["--config", "{bad}"], "cannot read config"),
        (b'{"max_dist": "4"}', NETWORK + ["--config", "{bad}"], "max_dist must be an integer"),
        (b'{"formats": "gexf"}', NETWORK + ["--config", "{bad}"], "formats must be a list"),
        (b'{"verb_blocker": "no"}', NETWORK + ["--config", "{bad}"], "verb_blocker must be"),
        (None, ["stats", "--manifest", "{manifest}", "--top", "-1"], "top must be >= 0"),
        (b"x", ["network", "--manifest", "{manifest}", "--out", "{bad}"], "output directory"),
        (b"x", ["network", "--manifest", "{manifest}", "--out", "{bad}/sub"], "output directory"),
        (NOT_UTF8, ["network", "--manifest", "{bad}", "--out", "{out}"], "cannot read manifest"),
        (
            ESCAPING_MANIFEST,
            ["preprocess", "--manifest", "{bad}", "--out", "{out}/a"],
            "bad:2: letter_id '../../escaped' is not a plain file name",
        ),
        (
            b"# two letters\n" + MANIFEST_HEADER + b"\n# A1 has a stray field\n"
            b"A1\tDury\t-\t1630\tfalse\ten\ta.txt\textra\n",
            ["network", "--manifest", "{bad}", "--out", "{out}"],
            "letternet: error: {bad}:5: expected 7 tab-separated fields, got 8\n",
        ),
        (
            MANIFEST_HEADER + b"A1\tDury\t-\t1630\tmaybe\ten\ta.txt\n",
            ["network", "--manifest", "{bad}", "--out", "{out}"],
            "letternet: error: {bad}:2: bad boolean 'maybe'\n",
        ),
        (
            b'{"out": "o\\u0000x"}',
            ["network", "--manifest", "{manifest}", "--config", "{bad}"],
            "cannot create output directory",
        ),
        (
            NOT_UTF8,
            ["network", "--pretagged-dir", "{vertical}", "--out", "{out}"],
            "letternet: error: cannot read {vertical}/L1.tsv: ",
        ),
        (
            VERTICAL_WITH_CONTROL,
            ["network", "--pretagged-dir", "{vertical}", "--mode", "pairs", "--out", "{out}"],
            "letternet: error: {vertical}/L1.tsv:3: control character U+0001\n",
        ),
        (
            "# letter L1\ntutor\ttutor\ttu\uffffor\tNOUN\n".encode("utf-8"),
            ["network", "--pretagged-dir", "{vertical}", "--out", "{out}"],
            "letternet: error: {vertical}/L1.tsv:2: noncharacter U+FFFF\n",
        ),
        (
            b"tutour\ttutor\tNOUN\ttu\x02tor\n",
            NETWORK + ["--variant-lexicon", "{bad}"],
            "letternet: error: {bad}:1: control character U+0002\n",
        ),
        (
            b"The tutor doth loue the child.\nThe tu\x1ftor\n",
            ["network", "--manifest", "{letters}", "--out", "{out}"],
            "letternet: error: letter 'L1': {bad}:2: control character U+001F\n",
        ),
        (
            b"L99\t0\t3\ttutor\n",
            NETWORK + ["--mode", "pairs", "--anaphora", "{bad}"],
            "letternet: error: {bad}: rows for letters that were not loaded: L99\n",
        ),
        (
            b"A1\t0\tloue\ttutor\tchild\nL99\t0\tsee\tgod\t-\n",
            ["eval", "--manifest", "{manifest}", "--out", "{out}", "--gold", "{bad}"],
            "letternet: error: {bad}: triples for letters that were not loaded: L99\n",
        ),
        (
            b"# no triples\n",
            ["eval", "--manifest", "{manifest}", "--out", "{out}", "--gold", "{bad}"],
            "letternet: error: {bad}: no gold triples\n",
        ),
        (
            b"A1\t0\tloue\ttutor\tchild\nA1\t-3\tsee\tchild\t-\n",
            ["eval", "--manifest", "{manifest}", "--out", "{out}", "--gold", "{bad}"],
            "letternet: error: {bad}:2: bad sentence index '-3'\n",
        ),
        (
            b"A1\t0\tloue\ttutor\tchild\nA1\t2\tsee\tchild\t-\n",
            ["eval", "--manifest", "{manifest}", "--out", "{out}", "--gold", "{bad}"],
            "letternet: error: {bad}: letter A1 has 2 sentences, so no sentence 2\n",
        ),
        (
            MANIFEST_HEADER.replace(b"\n", b"\tfile\n") + b"A1\tDury\t-\t1630\tfalse\ten\ta\tb\n",
            ["network", "--manifest", "{bad}", "--out", "{out}"],
            "letternet: error: {bad}:1: header names column 'file' twice\n",
        ),
        (
            MANIFEST_HEADER + b"A1\tDury\t-\t1_6_3_0\tfalse\ten\ta.txt\n",
            ["network", "--manifest", "{bad}", "--out", "{out}"],
            "letternet: error: {bad}:2: bad year '1_6_3_0'\n",
        ),
        (
            "A1\t0\tloue\ttutor\tchild\nA1\t\u0663\tsee\tchild\t-\n".encode("utf-8"),
            ["eval", "--manifest", "{manifest}", "--out", "{out}", "--gold", "{bad}"],
            "letternet: error: {bad}:2: bad sentence index '\u0663'\n",
        ),
        (
            b"A1\t0\t+5\ttutor\n",
            NETWORK + ["--mode", "pairs", "--anaphora", "{bad}"],
            "letternet: error: {bad}:1: bad token position '0'/'+5'\n",
        ),
        (
            None,
            NETWORK + ["--context", "window: 7"],
            "letternet: error: bad context 'window: 7'\n",
        ),
        (
            b"A1\t0\t0\ttutor\nA1\t0\t0\tzzz\n",
            NETWORK + ["--mode", "pairs", "--anaphora", "{bad}"],
            "letternet: error: {bad}:2: sentence 0, token 0 of A1 repeats an earlier row\n",
        ),
        (
            b"Vse\tuse\tVERB\t-\nvse\tvouch\tNOUN\t-\n",
            NETWORK + ["--variant-lexicon", "{bad}"],
            "letternet: error: {bad}:2: 'vse' repeats an earlier row\n",
        ),
        (None, NETWORK + ["--mode", "bad"], "letternet: error: bad mode 'bad'; expected one of"),
        (None, NETWORK + ["--scope", "bad"], "letternet: error: bad scope 'bad'; expected one of"),
        (
            MANIFEST_HEADER + b"A1\tDury\t-\t1630\tfalse\ten\tbad\n"
            b"A1\tDury\t-\t1631\tfalse\ten\tmissing.txt\n",
            ["network", "--manifest", "{bad}", "--out", "{out}"],
            "letternet: error: {bad}:3: duplicate letter id 'A1'\n",
        ),
        (
            # a row's outer fields are stripped away, so the empty id is an inner column
            b"sender\tletter_id\taddressee\tyear\tyear_uncertain\tlanguage\tfile\n"
            b"Dury\t\t-\t1630\tfalse\ten\tbad\n",
            ["network", "--manifest", "{bad}", "--out", "{out}"],
            "letternet: error: {bad}:2: letter_id must be non-empty\n",
        ),
        (
            # the empty file field is inner, so the row keeps its field count
            MANIFEST_HEADER.replace(b"\n", b"\tcut_marker\n")
            + b"A1\tDury\t-\t1630\tfalse\ten\t\t-\n",
            ["network", "--manifest", "{bad}", "--out", "{out}"],
            "letternet: error: {bad}:2: empty file column\n",
        ),
        (
            b"A1\t0\t0\t-\n",
            NETWORK + ["--mode", "pairs", "--anaphora", "{bad}"],
            "letternet: error: {bad}:1: empty replacement lemma\n",
        ),
        (
            b"A1\t0\t-\ttutor\tchild\n",
            ["eval", "--manifest", "{manifest}", "--out", "{out}", "--gold", "{bad}"],
            "letternet: error: {bad}:1: empty verb lemma\n",
        ),
        (
            b"vse\t\tVERB\t-\n",
            NETWORK + ["--variant-lexicon", "{bad}"],
            "letternet: error: {bad}:1: empty form\n",
        ),
        (
            b"mr.\ne.g.\n",
            NETWORK + ["--abbreviations", "{bad}"],
            "letternet: error: {bad}:2: abbreviation 'e.g.' is not one word of letters\n",
        ),
        (
            # deeper than the JSON parser's recursion can go
            b"[" * 200_000,
            NETWORK + ["--config", "{bad}"],
            "letternet: error: {bad}: invalid JSON: nested too deeply\n",
        ),
        (
            None,
            NETWORK + ["--prune-nodes", "gt\u0661"],
            "letternet: error: bad prune rule 'gt\u0661'; expected gtN or meanK\n",
        ),
        (
            MANIFEST_HEADER + b"A1\tDury\t-\t1300\tfalse\ten\ta.txt\n",
            ["network", "--manifest", "{bad}", "--out", "{out}"],
            "letternet: error: {bad}:2: letter 'A1': year 1300 outside plausible range 1400..1900\n",
        ),
        (
            b"A1\t0\tloue\ttutor\tchild\nA1\t0\tsee\t-\t-\n",
            ["eval", "--manifest", "{manifest}", "--out", "{out}", "--gold", "{bad}"],
            "letternet: error: {bad}:2: gold triple for 'see' needs a subject or an object\n",
        ),
    ],
    ids=[
        "lexicon-not-utf8",
        "lexicon-empty-lemma",
        "abbreviations-not-utf8",
        "anaphora-not-utf8",
        "gold-not-utf8",
        "config-not-utf8",
        "config-max-dist-string",
        "config-formats-string",
        "config-verb-blocker-string",
        "negative-top",
        "out-is-a-file",
        "out-under-a-file",
        "manifest-not-utf8",
        "manifest-escaping-letter-id",
        "manifest-comments-and-extra-field",
        "manifest-bad-boolean",
        "config-out-with-nul",
        "vertical-not-utf8",
        "vertical-control-char",
        "vertical-noncharacter",
        "lexicon-control-char",
        "letter-control-char",
        "anaphora-unknown-letter",
        "gold-unknown-letter",
        "gold-empty",
        "gold-negative-sentence",
        "gold-sentence-past-the-letter",
        "manifest-column-twice",
        "manifest-year-not-ascii-digits",
        "gold-sentence-not-ascii-digits",
        "anaphora-index-with-sign",
        "context-window-with-space",
        "anaphora-repeated-position",
        "lexicon-repeated-form",
        "mode-flag-unknown",
        "scope-flag-unknown",
        "manifest-duplicate-id",
        "manifest-empty-id",
        "manifest-empty-file",
        "anaphora-empty-lemma",
        "gold-empty-verb",
        "lexicon-empty-normalized",
        "abbreviations-not-a-word",
        "config-nested-too-deeply",
        "prune-rule-not-ascii-digits",
        "manifest-year-out-of-range",
        "gold-row-without-argument",
    ],
)
def test_bad_input_is_a_user_error(mini_corpus, tmp_path, capsys, content, argv, fragment):
    bad = tmp_path / "bad"
    vertical = tmp_path / "vertical"  # for --pretagged-dir: one file, L1.tsv
    letters = tmp_path / "letters.tsv"  # a manifest with one letter, bad
    if content is not None:
        bad.write_bytes(content)
        vertical.mkdir()
        (vertical / "L1.tsv").write_bytes(content)
        letters.write_bytes(MANIFEST_HEADER + b"L1\tDury\t-\t1630\tfalse\ten\tbad\n")
    values = {
        "manifest": mini_corpus,
        "out": tmp_path / "out",
        "bad": bad,
        "vertical": vertical,
        "letters": letters,
    }
    code, _, stderr = run_main([arg.format(**values) for arg in argv], capsys)
    assert code == 1
    assert stderr.startswith("letternet: error:")
    assert fragment.format(**values) in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "escaped.tsv").exists()


def test_vertical_files_never_overwrite_an_input(mini_corpus, tmp_path, capsys):
    # the output directory is the pretagged one, whose A.tsv holds a
    # tagger's comment and a class that reading turns into OTHER
    vertical = tmp_path / "vertical"
    vertical.mkdir()
    (vertical / "A.tsv").write_bytes(b"# tagged by hand\ntutor\ttutor\ttutor\tFOO\n")
    # a letter whose id is "manifest" would replace the manifest listing it
    listed = tmp_path / "listed"
    listed.mkdir()
    (listed / "a.txt").write_bytes((mini_corpus.parent / "a.txt").read_bytes())
    (listed / "manifest.tsv").write_bytes(
        MANIFEST_HEADER + b"manifest\tDury\t-\t1630\tfalse\ten\ta.txt\n"
    )
    for argv, root, clash in (
        (["--pretagged-dir", str(vertical)], vertical, vertical / "A.tsv"),
        (["--manifest", str(listed / "manifest.tsv")], listed, listed / "manifest.tsv"),
    ):
        before = tree_bytes(root)
        for command in ("preprocess", "run"):
            code, _, stderr = run_main([command, *argv, "--out", str(root)], capsys)
            assert code == 1
            assert f"letternet: error: {clash}: would be overwritten;" in stderr
            assert "Traceback" not in stderr
            assert tree_bytes(root) == before


# Config items: a RunConfig key with a value of its own type or of any
# JSON type.  Strings lean towards what the options accept, and hold no
# "/" or "\\", so a path value stays one name under the working directory.
_CONFIG_STRINGS = st.sampled_from(
    ["", ".", "..", "\0", "o\0x", "pairs", "per-letter", "window:2", "gt0", "mean1", "json"]
) | st.text(alphabet=st.sampled_from("\0.:-aé1 "), max_size=6)
_CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _CONFIG_STRINGS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_CONFIG_STRINGS, inner, max_size=2),
    max_leaves=4,
)
_TYPED_VALUES = {
    "str": _CONFIG_STRINGS,
    "str | None": st.none() | _CONFIG_STRINGS,
    "int": st.integers(),
    "bool": st.booleans(),
    "tuple[str, ...]": st.lists(_CONFIG_STRINGS, max_size=3),
}
# RunConfig's annotations are strings, which NamedTuple keeps as ForwardRefs
_CONFIG_ITEMS = st.sampled_from(list(RunConfig.__annotations__.items())).flatmap(
    lambda item: st.tuples(st.just(item[0]), _TYPED_VALUES[item[1].__forward_arg__] | _CONFIG_VALUES)
)


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["preprocess", "network", "eval", "stats", "run"]),
    config=st.lists(_CONFIG_ITEMS, max_size=3).map(dict),
)
@example(command="network", config={"out": "o\0x"})
def test_random_config_never_raises(mini_corpus, command, config):
    # a few keys at a time and a real manifest unless one is drawn, so
    # that many runs get past validation into the pipeline
    config.setdefault("manifest", str(mini_corpus))
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        work.mkdir()
        (work / "c.json").write_text(json.dumps(config), encoding="utf-8")
        cwd = os.getcwd()
        os.chdir(work)  # output directories are relative to the working directory
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([command, "--config", "c.json"])
        finally:
            os.chdir(cwd)
    assert code in (0, 1)
    if code:
        assert stderr.getvalue().startswith("letternet: error:")


def test_every_error_class_is_a_letternet_error():
    # cli.main reports exactly the LetternetErrors, so an error class
    # outside that family would end in a traceback
    modules = [pipeline, corpus, extraction, network, export, cli]
    classes = [
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    ]
    # a new error class is a deliberate change to this set
    assert sorted(c.__name__ for c in classes) == [
        "ExportError", "GexfValidationError", "InputError", "LetternetError",
    ]
    assert [c.__name__ for c in classes if not issubclass(c, LetternetError)] == []


def test_public_names_of_the_package():
    # a name added to or dropped from letternet's surface is a deliberate
    # change to this list; submodules are left out, as they appear once imported
    names = [
        name
        for name in dir(letternet)
        if not name.startswith("_") and not isinstance(getattr(letternet, name), types.ModuleType)
    ]
    assert names == [
        "AnnotatedDoc", "Annotator", "Centrality", "GoldTriple", "Letter", "LetterMeta",
        "LetternetError", "LexicalGraph", "PairRecord", "PosClass", "RelationKind", "Token",
        "apply_anaphora", "build_graph", "centrality", "clean_text", "cooccurrence_graph",
        "default_annotator", "evaluate_pairs", "export_csv_edges", "export_dot", "export_gexf",
        "export_json", "extract_cooccurrences", "extract_window_pairs", "import_json",
        "ingest_pretagged", "load_anaphora", "load_gold", "load_letter", "load_manifest",
        "merge_graphs", "pair_graph", "prune", "split_sentences", "stats_report",
        "token_frequencies", "tokenize", "validate_gexf", "write_vertical",
    ]
    assert len(names) == 40


# Bytes for the input files: fields that the formats expect, broken
# encodings, a byte-order mark, C0 controls and stray line breaks, in
# rows of 1 to 8 tab-separated fields with any of the three line breaks.
_FIELDS = st.sampled_from(
    [b"", b" ", b"A1", b"B1", b"L1", b"Dury", b"1630", b"0", b"1", b"-1", b"true",
     b"en", b"a.txt", b"b.txt", b"-", b"#", b"NOUN", b"VERB", b"PRON", b"the", b"tutor",
     b"doth", b"see", b"vse", b"use", b"mr.", b"\xc3\xa9", b"\xc5\xbf", b"..", b"\xff",
     b"\x00", b"\x01", b"\x0b", b"\x0c", b"\x1f", b"\r", b"\t", codecs.BOM_UTF8,
     b"{", b"}", b",", b'"top": 3', b'"mode": "pairs"']
)
_ROWS = st.lists(
    st.tuples(
        st.lists(st.lists(_FIELDS, max_size=3).map(b"".join), min_size=1, max_size=8).map(b"\t".join),
        st.sampled_from([b"\n", b"\r\n", b"\r"]),
    ).map(b"".join),
    max_size=5,
).map(b"".join)
_INPUT_BYTES = st.builds(
    lambda bom, head, rows: bom + head + rows,
    st.sampled_from([b"", codecs.BOM_UTF8]),
    st.sampled_from([b"", MANIFEST_HEADER, b"# letter L1\n", b"{\r\n"]),
    _ROWS,
)
# input slot -> (file name, command line naming the file as {bad});
# the other inputs are those of the mini corpus
_MINI = ["network", "--manifest", "{manifest}"]
_INPUT_SLOTS = {
    "manifest": ("manifest.tsv", ["network", "--manifest", "{bad}"]),
    "letter": ("a.txt", _MINI),
    "variant lexicon": ("v.tsv", _MINI + ["--variant-lexicon", "{bad}"]),
    "abbreviations": ("abbr.txt", _MINI + ["--abbreviations", "{bad}"]),
    "anaphora": ("ana.tsv", _MINI + ["--mode", "pairs", "--anaphora", "{bad}"]),
    "gold": ("gold.tsv", ["eval", "--manifest", "{manifest}", "--gold", "{bad}"]),
    "config": ("c.json", _MINI + ["--config", "{bad}"]),
    "vertical file": ("vertical/L1.tsv", ["network", "--pretagged-dir", "{bad.parent}"]),
}


@settings(max_examples=150, deadline=None)
@given(slot=st.sampled_from(sorted(_INPUT_SLOTS)), content=_INPUT_BYTES)
@example(slot="letter", content=b"x\xff")
@example(slot="config", content=codecs.BOM_UTF8 + b'{\r"top": 3\r}\r')
def test_any_input_bytes_end_in_a_user_error_or_success(mini_corpus, slot, content):
    file_name, argv = _INPUT_SLOTS[slot]
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for path in mini_corpus.parent.iterdir():  # the manifest and its letters
            (root / path.name).write_bytes(path.read_bytes())
        bad = root / file_name
        bad.parent.mkdir(exist_ok=True)
        bad.write_bytes(content)
        args = [arg.format(manifest=root / "manifest.tsv", bad=bad) for arg in argv]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*args, "--out", str(root / "out")])
    assert code in (0, 1), stderr.getvalue()
    if code:
        assert stderr.getvalue().startswith("letternet: error:")
    assert "Traceback" not in stderr.getvalue()


def _load_spans(monkeypatch):
    """The benchmark's tracer module, loaded from its file."""
    spans_path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_trace_targets_are_cli_attributes(monkeypatch):
    # The benchmark's tracer patches these names on letternet.cli with
    # getattr/setattr, so renaming an import there would break --trace 1.
    spans = _load_spans(monkeypatch)
    names = [name for name, _span, _count in spans.CLI_TARGETS]
    assert names
    assert [name for name in names if not hasattr(cli, name)] == []


def test_trace_sees_every_annotation(monkeypatch, tmp_path):
    # The tracer wraps Annotator.annotate; if annotation stopped going
    # through it, the benchmark's pipeline.annotate_s would read 0.
    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer()
    with tracer.tracing(0), tracer.span(spans.MAIN_SPAN):
        code = main(["network", "--manifest", str(MANIFEST), "--out", str(tmp_path / "out")])
    assert code == 0
    names = [span.name for span in tracer.spans]
    assert names.count(spans.ANNOTATE_SPAN) == 13
    assert tracer.counts[0]["pipeline.annotate_calls"] == 13
    assert tracer.counts[0]["pipeline.tokens"] == 2192


@pytest.fixture(scope="module")
def cold_start_modules(tmp_path_factory):
    # One child imports the CLI, annotates an ASCII text and prints which of
    # the modules no command needs got loaded, and how many objects the
    # collector holds frozen, so the guards below pay for a single
    # interpreter start.  It starts in a temporary directory with
    # conftest.child_env's PYTHONPATH.  It runs with -S, as a plain
    # interpreter would: a .pth file in site-packages can preload modules
    # (importlib.resources and tempfile among them), and the guards would
    # then test the host instead of letternet.  -I would also drop
    # PYTHONPATH.  Without site-packages, an import of numpy fails the child.
    modules = [
        "numpy", "dataclasses", "inspect", "statistics", "xml.etree.ElementTree", "unicodedata",
        "importlib.resources", "tempfile",
    ]
    code = (
        "import gc, json, sys, letternet.cli\n"
        "from letternet.pipeline import default_annotator\n"
        "doc = default_annotator().annotate_text('A', 'The Tutour doth vse it. Mr. Dury came.')\n"
        "assert (len(doc.sentences), len(doc)) == (2, 11), doc\n"
        f"loaded = [m for m in {modules!r} if m in sys.modules]\n"
        "print(json.dumps({'loaded': loaded, 'frozen': gc.get_freeze_count()}))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=tmp_path_factory.mktemp("cold-start"),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_cli_import_does_not_load_numpy(cold_start_modules):
    assert "numpy" not in cold_start_modules["loaded"]


def test_cli_import_skips_slow_standard_modules(cold_start_modules):
    # dataclasses pulls in inspect, statistics, fractions and decimal;
    # ElementTree pulls in pyexpat; ASCII text never needs unicodedata; and
    # importlib.resources pulls in tempfile, shutil, random and bz2.  A cold
    # start would pay for each, and no command uses them.
    assert [m for m in cold_start_modules["loaded"] if m != "numpy"] == []


def test_cli_import_freezes_nothing(cold_start_modules):
    # only the process entry, console(), freezes the collector's objects
    assert cold_start_modules["frozen"] == 0
