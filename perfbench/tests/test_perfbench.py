"""Tests for the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import corpusgen
import harness
import run
import spans
import speed
from gate import Gate, digest_tree

BENCHMARK_JSON = harness.ROOT / "BENCHMARK.json"


@pytest.mark.parametrize("family", corpusgen.FAMILIES)
def test_generator_is_deterministic(tmp_path, family):
    a = corpusgen.generate(family, 2, 7, tmp_path / "a", harness.DATA)
    b = corpusgen.generate(family, 2, 7, tmp_path / "b", harness.DATA)
    assert digest_tree(a.parent) == digest_tree(b.parent)
    assert corpusgen.measure(a, harness.DATA) == corpusgen.measure(b, harness.DATA)


def test_seed_changes_open_vocab_text_only(tmp_path):
    def letters(family, seed):
        manifest = corpusgen.generate(family, 2, seed, tmp_path / f"{family}-{seed}", harness.DATA)
        return digest_tree(manifest.parent / "letters")

    assert letters("open-vocab", 1) != letters("open-vocab", 2)
    assert letters("replicated", 1) == letters("replicated", 2)


def test_open_vocab_adds_out_of_lexicon_words(tmp_path):
    closed = corpusgen.measure(
        corpusgen.generate("replicated", 3, 0, tmp_path / "r", harness.DATA), harness.DATA)
    open_ = corpusgen.measure(
        corpusgen.generate("open-vocab", 3, 0, tmp_path / "o", harness.DATA), harness.DATA)
    assert closed.tokens == open_.tokens
    assert open_.oov_share > closed.oov_share
    assert open_.distinct_words > closed.distinct_words


def test_self_times_on_a_hand_built_tree():
    tree = [
        spans.Span(0, None, 1, "cli.main", 0.0, 10.0),
        spans.Span(1, 0, 1, "pipeline.annotate", 1.0, 4.0),
        spans.Span(2, 1, 1, "export.gexf", 2.0, 3.0),
        spans.Span(3, 0, 1, "pipeline.annotate", 5.0, 9.0),
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert spans.self_time_by_name(tree) == {
        "cli.main": 3.0, "pipeline.annotate": 6.0, "export.gexf": 1.0}


def test_tracer_records_nested_spans_and_restores_cli():
    import letternet.cli as cli

    original = cli.build_graph
    tracer = spans.Tracer()
    with tracer.tracing(job=4):
        assert cli.build_graph is not original
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    assert cli.build_graph is original
    inner, outer = tracer.spans
    assert (inner.name, inner.parent_id, inner.job) == ("inner", outer.span_id, 4)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_gate_flags_a_corrupted_output(tmp_path):
    workload = harness.WORKLOADS["cooccur-merged"]
    manifest = corpusgen.generate(workload.family, 1, 0, tmp_path / "corpus", harness.DATA)
    inputs = harness.Inputs(manifest, None, corpusgen.measure(manifest, harness.DATA))
    _, error = harness.run_in_process(workload.argv(inputs, tmp_path / "good"))
    assert error is None
    gate = Gate(digest_tree(tmp_path / "good"))
    assert gate.check(tmp_path / "good") == []

    shutil.copytree(tmp_path / "good", tmp_path / "bad")
    gexf = tmp_path / "bad" / "network.gexf"
    gexf.write_bytes(gexf.read_bytes().replace(b"</gexf>", b"</gexf"))
    problems = gate.check(tmp_path / "bad")
    assert "content differs: network.gexf" in problems
    assert any(p.startswith("invalid GEXF network.gexf") for p in problems)


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    ballast = bytearray(100 * 2**20)
    ballast[::4096] = b"x" * len(ballast[::4096])
    child, import_s = harness.run_setup_child(tmp_path)
    assert child.error is None and import_s > 0
    assert 0 < child.rss_mb < 100, "a child forked from this process would report its RSS"
    del ballast


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile([float(i) for i in range(11)]) == (9, 0.0)
    p, value = run.tail_percentile([float(i) for i in range(100)])
    assert (p, value) == (90, 89.0)


def test_at_reference_cancels_the_host_speed():
    ref = speed.REFERENCE_S
    assert speed.at_reference(0.5, ref, ref) == pytest.approx(0.5)
    # The host ran at half speed around the sample: it reads half as long.
    assert speed.at_reference(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert speed.at_reference(1.0, ref, 3 * ref) == pytest.approx(0.5)
    assert speed.calibrate() > 0


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(tmp_path, name, trace):
    record = run.run_workload(harness.WORKLOADS[name], seed=1, seconds=0, trace=trace, work_root=tmp_path)
    assert record["failures"] == []
    assert record["attempted"] >= 1
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert list(record["metrics"]) == list(expected)
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())
    for key, stats in record["samples_at_reference"].items():
        assert stats["n"] == record["samples"][key]["n"]
    assert not any(tmp_path.iterdir()), "the run leaves no work files behind"


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cooccur-merged", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
