"""Weighted lexical graphs built from extraction output.

Nodes are (lemma, word class) pairs weighted by corpus frequency;
edges carry a relation kind and the number of supporting relation
instances.  SUBJ and OBJ edges are directed, co-occurrence edges are
not.  Graphs from single letters merge by summing weights, and two
pruning rule families (absolute threshold, mean plus k standard
deviations) cut them down to a readable core.
"""

from __future__ import annotations

import enum
import math
import re
import sys
from collections import Counter
from itertools import chain, combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from letternet.extraction import (
    DEFAULT_CONTENT_CLASSES,
    DEFAULT_MAX_DISTANCE,
    DIRECTED_KINDS,
    EdgeKey,
    NodeKey,
    PairRecord,
    RelationKind,
    extract_window_pairs,
    node_order,
)
from letternet.pipeline import AnnotatedDoc, InputError


class LexicalGraph(NamedTuple):
    """A typed, weighted lexical network.

    ``nodes`` maps (lemma, class) to its frequency, ``edges`` maps
    (source, target, kind) to an integer weight.  COOCCUR edges are
    stored with endpoints in canonical order, so an undirected pair has
    exactly one entry.
    """

    nodes: dict[NodeKey, int]
    edges: dict[EdgeKey, int]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> int:
        return sum(self.edges.values())

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on breach."""
        for key, freq in self.nodes.items():
            if isinstance(freq, bool) or not isinstance(freq, int) or freq < 1:
                raise ValueError(f"node {key}: frequency {freq!r} not a positive int")
        for (src, dst, kind), weight in self.edges.items():
            if src not in self.nodes or dst not in self.nodes:
                raise ValueError(f"edge {src}-{dst} has unregistered endpoint")
            if isinstance(weight, bool) or not isinstance(weight, int) or weight < 1:
                raise ValueError(
                    f"edge {src}-{dst} ({kind.name}): weight {weight!r} not a positive int"
                )
            if kind is RelationKind.COOCCUR and node_order(src) > node_order(dst):
                raise ValueError(f"co-occurrence edge {src}-{dst} not canonical")


def token_frequencies(docs: Iterable[AnnotatedDoc]) -> Counter:
    """(lemma, class) occurrence counts over whole documents."""
    return Counter((token.lemma, token.pos) for doc in docs for token in doc.tokens())


def _add_records(records: Iterable[PairRecord], weights: Counter[EdgeKey]) -> set[NodeKey]:
    """Add 1 per record to its edge, COOCCUR endpoints in canonical order; return the endpoints."""
    touched = set()
    for record in records:
        src = (record.src_lemma, record.src_pos)
        dst = (record.dst_lemma, record.dst_pos)
        if record.kind is RelationKind.COOCCUR and node_order(src) > node_order(dst):
            src, dst = dst, src
        weights[(src, dst, record.kind)] += 1
        touched.update((src, dst))
    return touched


def build_graph(
    edges: Mapping[EdgeKey, int] | Iterable[PairRecord],
    frequencies: Mapping[NodeKey, int],
) -> LexicalGraph:
    """Build a graph from edge weights or from pair records.

    ``edges`` is either a mapping from edge key to weight, as
    :func:`extract_cooccurrences` returns it
    (keys are used as given), or pair records, each of which adds 1 to
    its edge, COOCCUR endpoints put in canonical order.  The same lemma
    pair related in different ways yields one edge per kind.  The nodes
    are the edge endpoints, so a lemma that takes part in no relation
    is not a node.  Node frequencies come from ``frequencies`` (typically
    :func:`token_frequencies` over the same documents the edges were
    extracted from); an endpoint without frequency data raises
    :class:`InputError` naming the lemma.
    """
    weights = edges
    if not isinstance(edges, Mapping):
        weights = Counter()
        _add_records(edges, weights)
    nodes: dict[NodeKey, int] = {}
    for src, dst, _kind in weights:
        for key in (src, dst):
            if key not in nodes:
                freq = frequencies.get(key, 0)
                if freq < 1:
                    raise InputError(
                        f"no frequency for lemma {key[0]!r} ({key[1].name})"
                    )
                nodes[key] = int(freq)
    return LexicalGraph(nodes=nodes, edges=dict(weights))


def cooccurrence_graph(docs: Iterable[AnnotatedDoc], window: int | None = None) -> LexicalGraph:
    """:func:`merge_graphs` of each letter's co-occurrence graph, counted in one pass.

    With ``window=None`` the context is the whole sentence; otherwise
    two tokens co-occur when their positions, their indices in the
    sentence, differ by at most ``window``.  Only tokens of the content
    classes (``DEFAULT_CONTENT_CLASSES``: NOUN, VERB, ADJ) take part.
    Each unordered pair of token occurrences adds 1 to its
    ``(src, dst, COOCCUR)`` edge, endpoints in canonical
    :func:`node_order`; two occurrences of the same lemma still co-occur
    (a node may pair with itself).  The counting runs on int node ids,
    and each distinct edge is put in canonical order once, at the end.
    A node's frequency sums its occurrences in the letters where it is
    in a pair: each letter adds the ids of its tokens that have a
    partner in one step, and a token without one counts only when its
    node also pairs elsewhere in that letter.
    """
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    ids: dict[NodeKey, int] = {}  # node -> id, in first-seen order
    pairs: Counter[tuple[int, int]] = Counter()  # (smaller id, larger id) -> weight
    freqs: Counter[int] = Counter()
    for doc in docs:
        paired: list[int] = []  # ids of the letter's content tokens that have a partner
        lone: list[int] = []  # and of those that have none
        for sentence in doc.sentences:
            if window is None or window >= len(sentence) - 1:
                # every two content tokens of the sentence are in context
                row = [
                    ids.setdefault((t.lemma, t.pos), len(ids))
                    for t in sentence
                    if t.pos in DEFAULT_CONTENT_CLASSES
                ]
                if len(row) > 1:
                    paired += row
                    row.sort()
                    _count_sentence(row, pairs)
                else:
                    lone += row
            else:
                row = [
                    (i, ids.setdefault((t.lemma, t.pos), len(ids)))
                    for i, t in enumerate(sentence)
                    if t.pos in DEFAULT_CONTENT_CLASSES
                ]
                for j, (i, a) in enumerate(row):
                    # positions increase, so no partner lies past row[j + window]
                    for k, b in row[j + 1 : j + 1 + window]:
                        if k - i > window:
                            break
                        pairs[(a, b) if a <= b else (b, a)] += 1
                # a token has a partner when a neighbouring content token is in reach
                near = [k - i <= window for (i, _), (k, _) in zip(row, row[1:])]
                for (_, a), left, right in zip(row, [False, *near], [*near, False]):
                    (paired if left or right else lone).append(a)
        if paired:
            freqs.update(paired)
            if lone:
                touched = set(paired)
                for a in lone:
                    if a in touched:
                        freqs[a] += 1
    keys = list(ids)
    order = [node_order(key) for key in keys]
    cooccur = RelationKind.COOCCUR
    edges = {
        (keys[a], keys[b], cooccur) if order[a] < order[b] else (keys[b], keys[a], cooccur): w
        for (a, b), w in pairs.items()
    }
    return LexicalGraph(nodes={keys[a]: f for a, f in freqs.items()}, edges=edges)


def extract_cooccurrences(doc: AnnotatedDoc, window: int | None = None) -> Counter[EdgeKey]:
    """One letter's co-occurrence edge weights: its :func:`cooccurrence_graph` edges.

    The node counts, which come from the same pass, are dropped here.
    """
    return Counter(cooccurrence_graph([doc], window).edges)


def _count_sentence(row: list[int], pairs: Counter[tuple[int, int]]) -> None:
    # row is sorted, so each pair has its smaller id first.  The pair list
    # takes one C step per token pair; id multiplicities take one Python
    # step, about 4x dearer, per pair of distinct ids, so they pay once
    # under half of a long sentence's ids are distinct.  The tally is
    # skipped up to 64 ids, where it would cost about 1/n of the pair list.
    counts = Counter(row) if len(row) > 64 else None
    if counts is None or 2 * len(counts) >= len(row):
        pairs.update(combinations(row, 2))
        return
    tally = list(counts.items())
    for n, (a, c_a) in enumerate(tally):
        if c_a > 1:
            pairs[(a, a)] += c_a * (c_a - 1) // 2
        for b, c_b in tally[n + 1 :]:
            pairs[(a, b)] += c_a * c_b


def pair_graph(
    docs: Iterable[AnnotatedDoc], max_dist: int = DEFAULT_MAX_DISTANCE, verb_blocker: bool = True
) -> LexicalGraph:
    """:func:`merge_graphs` of each letter's graph of window pairs, counted in one pass.

    Each letter's records are added straight into one shared edge table;
    only the endpoints gain the letter's :func:`token_frequencies`, as
    they would under merge_graphs over per-letter build_graph results.
    Those counts take one C step per token and one Python step per
    distinct token of the letter.
    """
    nodes: dict[NodeKey, int] = {}
    edges: Counter[EdgeKey] = Counter()
    for doc in docs:
        touched = _add_records(extract_window_pairs(doc, max_dist, verb_blocker), edges)
        if touched:
            for token, n in Counter(chain.from_iterable(doc.sentences)).items():
                key = (token.lemma, token.pos)
                if key in touched:
                    nodes[key] = nodes.get(key, 0) + n
    return LexicalGraph(nodes=nodes, edges=dict(edges))


def merge_graphs(graphs: Sequence[LexicalGraph]) -> LexicalGraph:
    """Union of several graphs, summing node frequencies and edge weights.

    A node's merged frequency sums only the graphs it is a node of.
    Since :func:`build_graph` keeps only edge endpoints, a letter in
    which a lemma takes part in no relation (say, it stands alone in
    its sentences) adds nothing to that lemma's merged frequency, even
    though :func:`token_frequencies` counted it there.
    """
    nodes: Counter = Counter()
    edges: Counter = Counter()
    for graph in graphs:
        nodes.update(graph.nodes)
        edges.update(graph.edges)
    return LexicalGraph(nodes=dict(nodes), edges=dict(edges))


# ---------------------------------------------------------------------------
# pruning


# A correctly rounded float square root needs this many bits of the
# integer root, the last one rounded to odd.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _isqrt_rto(num: int, den: int) -> int:
    """The integer square root of num / den, rounded to odd."""
    root = math.isqrt(num // den)
    return root | (root * root * den != num)


def mean_sd(values: Sequence[int]) -> tuple[float, float]:
    """Mean and population standard deviation of a non-empty list of ints.

    Bitwise equal to ``statistics.fmean`` and ``statistics.pstdev``: the
    mean is the float sum over the count, and the deviation the correctly
    rounded square root of the exact variance (n Σx² - (Σx)²) / n², taken
    from the integer sums without fractions.
    """
    n = len(values)
    total = sum(values)
    num = n * sum(x * x for x in values) - total * total
    den = n * n
    shift = (num.bit_length() - den.bit_length() - _SQRT_BITS) // 2
    if shift >= 0:
        sd = float(_isqrt_rto(num, den << 2 * shift) << shift)
    else:
        sd = _isqrt_rto(num << -2 * shift, den) / (1 << -shift)
    return math.fsum(values) / n, sd


# ASCII digits only, as every other number a user gives
_PRUNE_RULE_RE = re.compile(r"^(gt|mean)(\d+(?:\.\d+)?)$", re.ASCII)


def cutoff(rule: str, values: Sequence[int]) -> float:
    """The cutoff a prune rule sets on ``values``.

    "gtN" gives N whatever the values; "meanK" gives their mean plus K
    population standard deviations, or 0.0 when there are none.  Other
    text raises :class:`InputError`.
    """
    m = _PRUNE_RULE_RE.match(rule.strip())
    if not m:
        raise InputError(f"bad prune rule {rule!r}; expected gtN or meanK")
    n = float(m.group(2))
    if m.group(1) == "gt":
        return n
    if not values:
        return 0.0
    mean, sd = mean_sd(values)
    return mean + n * sd


def prune(
    graph: LexicalGraph,
    node_rule: str,
    edge_rule: str,
    drop_isolated: bool = True,
) -> LexicalGraph:
    """Cut a graph down to its statistically salient part.

    Both cutoffs are computed once on the input graph's node frequency
    and edge weight distributions (independently, never iteratively).
    A node survives when its frequency exceeds the node cutoff; an edge
    survives when its weight exceeds the edge cutoff and both endpoints
    survived.  With ``drop_isolated`` nodes left without any edge are
    removed as well.  The input graph is not modified.
    """
    node_cut = cutoff(node_rule, list(graph.nodes.values()))
    edge_cut = cutoff(edge_rule, list(graph.edges.values()))
    kept_nodes = {key: f for key, f in graph.nodes.items() if f > node_cut}
    kept_edges = {
        (src, dst, kind): w
        for (src, dst, kind), w in graph.edges.items()
        if w > edge_cut and src in kept_nodes and dst in kept_nodes
    }
    if drop_isolated:
        touched = set()
        for src, dst, _kind in kept_edges:
            touched.add(src)
            touched.add(dst)
        kept_nodes = {key: f for key, f in kept_nodes.items() if key in touched}
    return LexicalGraph(nodes=kept_nodes, edges=kept_edges)


# ---------------------------------------------------------------------------
# centrality


class Centrality(enum.Enum):
    DEGREE = "DEGREE"
    IN_DEGREE = "IN_DEGREE"
    OUT_DEGREE = "OUT_DEGREE"
    WEIGHTED_DEGREE = "WEIGHTED_DEGREE"


def degree_scores(
    n_nodes: int, edges: Iterable[tuple[int, int, bool, int]]
) -> dict[Centrality, list[int]]:
    """All four degree measures from one pass over the edges.

    Nodes are numbered ``0 .. n_nodes - 1`` and each edge is a
    (source, target, directed, weight) row of node numbers.  Returns one
    score list per measure, indexed by node number, with the semantics
    :func:`centrality` documents.
    """
    degree = [0] * n_nodes
    weighted = [0] * n_nodes
    in_degree = [0] * n_nodes
    out_degree = [0] * n_nodes
    for src, dst, directed, weight in edges:
        degree[src] += 1
        degree[dst] += 1
        weighted[src] += weight
        weighted[dst] += weight
        if directed:
            out_degree[src] += 1
            in_degree[dst] += 1
    return {
        Centrality.DEGREE: degree,
        Centrality.IN_DEGREE: in_degree,
        Centrality.OUT_DEGREE: out_degree,
        Centrality.WEIGHTED_DEGREE: weighted,
    }


def rank(scores: Sequence[int]) -> list[int]:
    """Node numbers by descending score, equal scores in numbering order."""
    return sorted(range(len(scores)), key=scores.__getitem__, reverse=True)


def centrality(
    graph: LexicalGraph, measure: Centrality
) -> list[tuple[NodeKey, int]]:
    """Rank all nodes by a degree-style measure.

    DEGREE counts incident edges of any kind and WEIGHTED_DEGREE sums
    their weights; both count a self-loop twice, so weighted degrees
    over the graph sum to twice the total edge weight.  IN_DEGREE and
    OUT_DEGREE only look at directed (SUBJ, OBJ) edges.  Ties are broken
    lexicographically by lemma, then class name, so rankings are stable.
    The scores come from :func:`degree_scores`, the pass the stats
    report uses as well, over the nodes numbered in that tie-break order.
    """
    keys = sorted(graph.nodes, key=node_order)
    number = {key: i for i, key in enumerate(keys)}
    scores = degree_scores(
        len(keys),
        (
            (number[src], number[dst], kind in DIRECTED_KINDS, weight)
            for (src, dst, kind), weight in graph.edges.items()
        ),
    )[measure]
    return [(keys[i], scores[i]) for i in rank(scores)]
