"""Spans and counters recorded around the calls ``letternet.cli`` makes.

The tracer patches the names that ``letternet.cli`` imported (and
``Annotator.annotate``) with wrappers that record a span per call and
add to per-layer counters after the span has ended.  Nothing under
``src/`` is changed: the originals are put back when tracing stops.
Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import gc
import os
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    job: int
    name: str
    start: float
    end: float


def _count_corpus(counts: Counter, result, args) -> None:
    counts["corpus.letters"] += len(result)
    counts["corpus.bytes"] += sum(len(letter.raw_text.encode("utf-8")) for letter in result)


def _count_annotate(counts: Counter, result, args) -> None:
    counts["pipeline.annotate_calls"] += 1
    counts["pipeline.sentences"] += len(result.sentences)
    counts["pipeline.tokens"] += len(result)


def _count_vertical(counts: Counter, result, args) -> None:
    counts["pipeline.vertical_files"] += 1


def _count_records(counts: Counter, result, args) -> None:
    counts["extraction.records"] += len(result)


def _count_graph(prefix: str) -> Callable:
    def count(counts: Counter, result, args) -> None:
        counts[f"{prefix}.calls"] += 1
        counts[f"{prefix}.nodes"] += result.n_nodes
        counts[f"{prefix}.edges"] += result.n_edges

    return count


def _count_export(counts: Counter, result, args) -> None:
    counts["export.files"] += 1
    counts["export.bytes"] += os.path.getsize(args[1])


# (name imported by letternet.cli, span name, counter)
CLI_TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("load_manifest", "corpus.load_manifest", _count_corpus),
    ("default_annotator", "pipeline.default_annotator", None),
    ("write_vertical", "pipeline.write_vertical", _count_vertical),
    ("ingest_pretagged", "pipeline.ingest_pretagged", None),
    ("extract_cooccurrences", "extraction.extract", _count_records),
    ("extract_window_pairs", "extraction.extract", _count_records),
    ("token_frequencies", "network.token_frequencies", None),
    ("build_graph", "network.build_graph", _count_graph("built")),
    ("merge_graphs", "network.merge_graphs", _count_graph("merged")),
    ("prune", "network.prune", _count_graph("pruned")),
    ("export_gexf", "export.gexf", _count_export),
    ("export_dot", "export.dot", _count_export),
    ("export_json", "export.json", _count_export),
    ("export_csv_edges", "export.csv", _count_export),
    ("export_stats", "export.stats", _count_export),
)
ANNOTATE_SPAN = "pipeline.annotate"
MAIN_SPAN = "cli.main"
# Span names whose self times are reported, in report order.
SPAN_NAMES = (MAIN_SPAN, ANNOTATE_SPAN) + tuple(dict.fromkeys(t[1] for t in CLI_TARGETS))


class Tracer:
    """Collects spans, counters and garbage-collector time for jobs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.gc_s: dict[int, float] = defaultdict(float)
        self.job = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._gc_start: float | None = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, self.job, name, start, end))

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts[self.job], result, args)
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s[self.job] += time.perf_counter() - self._gc_start
            self.counts[self.job]["py.gc_collections"] += 1
            self._gc_start = None

    @contextlib.contextmanager
    def tracing(self, job: int) -> Iterator[None]:
        """Patch ``letternet.cli`` and record everything as ``job``."""
        import letternet.cli as cli
        from letternet.pipeline import Annotator

        self.job = job
        saved = [(name, getattr(cli, name)) for name, _, _ in CLI_TARGETS]
        saved_annotate = Annotator.__dict__["annotate"]
        gc.callbacks.append(self._on_gc)
        try:
            for name, span_name, count in CLI_TARGETS:
                setattr(cli, name, self.wrap(span_name, getattr(cli, name), count))
            Annotator.annotate = self.wrap(ANNOTATE_SPAN, saved_annotate, _count_annotate)
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            self._gc_start = None
            Annotator.annotate = saved_annotate
            for name, original in saved:
                setattr(cli, name, original)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children[s.span_id], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


def self_time_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Self times summed per span name."""
    spans = list(spans)
    names = {s.span_id: s.name for s in spans}
    totals: dict[str, float] = defaultdict(float)
    for span_id, t in self_times(spans).items():
        totals[names[span_id]] += t
    return dict(totals)
