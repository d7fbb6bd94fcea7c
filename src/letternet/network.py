"""Relations between the words of a letter, and the weighted graphs they make.

Two relations are read off an annotated letter.  Sentence co-occurrence
pairs two content tokens (NOUN, VERB, ADJ) in one context, and is
counted straight into a graph by :func:`cooccurrence_graph`.  The
verb-argument pair heuristic, :func:`extract_window_pairs`, reads the
nearest noun to the left of a verb as its subject and the nearest noun
to the right as its object: early modern prose defeats modern parsers,
while noun-verb adjacency survives the spelling.  Scoring the pairs
against gold triples, and the manual pronoun resolutions that can feed
them, are in ``letternet.evaluation``.

Nodes are (lemma, word class) pairs weighted by corpus frequency;
edges carry a relation kind and the number of supporting relation
instances.  SUBJ and OBJ edges are directed, co-occurrence edges are
not.  Graphs from single letters merge by summing weights, and two
pruning rule families (absolute threshold, mean plus k standard
deviations) cut them down to a readable core.  :func:`node_order`,
lemma then class name, is the one order of nodes, and
:func:`sorted_view` numbers a graph by it for every file and ranking.
"""

from __future__ import annotations

import enum
import math
import re
import sys
from bisect import bisect_left
from collections import Counter
from itertools import chain, combinations, compress, count, repeat
from operator import attrgetter, is_
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from letternet.pipeline import _POS_BY_NAME, AnnotatedDoc, InputError, PosClass, Token


class RelationKind(enum.Enum):
    COOCCUR = "COOCCUR"
    SUBJ = "SUBJ"
    OBJ = "OBJ"

    # as for PosClass: the C identity hash, not Enum's Python-level one
    __hash__ = object.__hash__


DIRECTED_KINDS = frozenset({RelationKind.SUBJ, RelationKind.OBJ})

DEFAULT_CONTENT_CLASSES = frozenset({PosClass.NOUN, PosClass.VERB, PosClass.ADJ})

DEFAULT_MAX_DISTANCE = 4

NodeKey = tuple[str, PosClass]
EdgeKey = tuple[NodeKey, NodeKey, RelationKind]
Pruning = tuple[str, str, bool]  # node rule, edge rule, drop_isolated, as prune() takes them


def node_order(key: NodeKey) -> tuple[str, str]:
    """Sort key of a node: lemma, then class name; unique per node."""
    return (key[0], key[1]._name_)


class PairRecord(NamedTuple):
    """One extracted relation instance.

    For SUBJ the source is the noun and the target the verb; for OBJ
    the source is the verb and the target the noun.  A COOCCUR record
    is unordered; graph building puts its endpoints in canonical
    :func:`node_order`.  ``letter_id`` and ``sent_idx`` say where the
    instance was found.
    """

    src_lemma: str
    src_pos: PosClass
    dst_lemma: str
    dst_pos: PosClass
    kind: RelationKind
    letter_id: str
    sent_idx: int


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
        for record in edges:
            src = (record.src_lemma, record.src_pos)
            dst = (record.dst_lemma, record.dst_pos)
            if record.kind is RelationKind.COOCCUR and node_order(src) > node_order(dst):
                src, dst = dst, src
            weights[(src, dst, record.kind)] += 1
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


class _NodeIds(dict):
    """Token -> the int id of its (lemma, class) node, for one graph call.

    Ids count from 1 in first-seen order, and a token outside
    ``DEFAULT_CONTENT_CLASSES`` maps to 0, so ``filter(None, ...)`` drops
    it.  A token seen before costs one C-level lookup, a new one a Python
    step.  Tokens are keyed by value, never by ``id(token)``, whose
    address a freed token hands on: equal tokens share an entry, and two
    spellings of one (lemma, class) share its id.
    """

    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes: dict[NodeKey, int] = {}  # node -> id

    def __missing__(self, token: Token) -> int:
        node = 0
        if token.pos in DEFAULT_CONTENT_CLASSES:
            node = self.nodes.setdefault((token.lemma, token.pos), len(self.nodes) + 1)
        self[token] = node
        return node


def cooccurrence_graph(
    docs: Iterable[AnnotatedDoc], window: int | None = None, *, pruning: Pruning | None = None
) -> LexicalGraph:
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

    ``pruning``, a ``(node_rule, edge_rule, drop_isolated)`` tuple, cuts
    the graph as :func:`prune` would, with the same result and edge order,
    but on the id tables: only the surviving edges are keyed.
    """
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    ids = _NodeIds()
    node_id = ids.__getitem__
    pairs: Counter[tuple[int, int]] = Counter()  # (smaller id, larger id) -> weight
    freqs: Counter[int] = Counter()
    for doc in docs:
        paired: list[int] = []  # ids of the letter's content tokens that have a partner
        lone: list[int] = []  # and of those that have none
        for sentence in doc.sentences:
            if window is None or window >= len(sentence) - 1:
                # every two content tokens of the sentence are in context
                row = list(filter(None, map(node_id, sentence)))
                if len(row) > 1:
                    paired += row
                    row.sort()
                    _count_sentence(row, pairs)
                else:
                    lone += row
            else:
                row = [(i, a) for i, a in enumerate(map(node_id, sentence)) if a]
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
    ids.clear()  # the token entries are done with; free them before any edge is keyed
    if pruning is not None:
        freqs, pairs = _keep(freqs, pairs, *pruning)
    keys = [None, *ids.nodes]  # each node at the index of its id
    order = [None, *map(node_order, ids.nodes)]
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


_pos_of = attrgetter("pos")


def _window_relations(
    doc: AnnotatedDoc, max_dist: int, verb_blocker: bool
) -> Iterator[tuple[int, Token, Token, RelationKind]]:
    """(sentence index, source, target, kind) of each window pair, in reading order.

    A verb's subject is the nearest noun to its left, its object the
    nearest to its right, each at most ``max_dist + 1`` positions away
    and, with ``verb_blocker``, not beyond the neighbouring verb on that
    side.  The noun and verb positions of a sentence are found in C, so
    only a verb takes a Python step.
    """
    reach = max_dist + 1
    subj, obj = RelationKind.SUBJ, RelationKind.OBJ
    for sent_idx, sentence in enumerate(doc.sentences):
        classes = list(map(_pos_of, sentence))
        verbs = list(compress(count(), map(is_, classes, repeat(PosClass.VERB))))
        if not verbs:
            continue
        nouns = list(compress(count(), map(is_, classes, repeat(PosClass.NOUN))))
        if verb_blocker:
            # each verb's search stops at the verb before and the verb after it
            lows, highs = [-1, *verbs[:-1]], [*verbs[1:], len(sentence)]
        else:
            lows, highs = repeat(-1), repeat(len(sentence))
        for i, low, high in zip(verbs, lows, highs):
            k = bisect_left(nouns, i)
            if k and nouns[k - 1] > max(low, i - reach - 1):
                yield sent_idx, sentence[nouns[k - 1]], sentence[i], subj
            if k < len(nouns) and nouns[k] < min(high, i + reach + 1):
                yield sent_idx, sentence[i], sentence[nouns[k]], obj


def _check_max_dist(max_dist: int) -> None:
    if max_dist < 0:
        raise ValueError(f"max_dist must be >= 0, got {max_dist}")


def extract_window_pairs(
    doc: AnnotatedDoc,
    max_dist: int = DEFAULT_MAX_DISTANCE,
    verb_blocker: bool = True,
) -> list[PairRecord]:
    """Shallow subject and object pairs for every full verb.

    For each VERB token the nearest NOUN to its left within ``max_dist``
    intervening tokens becomes the subject candidate and the nearest
    NOUN to its right the object candidate; either side may come up
    empty.  Each side is the slice of the ``max_dist + 1`` tokens next
    to the verb, searched nearest first.  Pronouns are never selected,
    modals are not treated as verbs, and with ``verb_blocker`` another
    verb between noun and verb cancels that side (it usually signals an
    intervening clause).  Records come out in reading order, subject
    before object per verb.
    """
    _check_max_dist(max_dist)
    return [
        PairRecord(src.lemma, src.pos, dst.lemma, dst.pos, kind, doc.letter_id, sent_idx)
        for sent_idx, src, dst, kind in _window_relations(doc, max_dist, verb_blocker)
    ]


def pair_graph(
    docs: Iterable[AnnotatedDoc],
    max_dist: int = DEFAULT_MAX_DISTANCE,
    verb_blocker: bool = True,
    *,
    pruning: Pruning | None = None,
) -> LexicalGraph:
    """:func:`merge_graphs` of each letter's graph of window pairs, counted in one pass.

    The pairs are those of :func:`extract_window_pairs`, counted on int
    node ids into one edge table shared by all letters.  A node's
    frequency sums its occurrences in the letters where it is an
    endpoint, as merge_graphs over per-letter build_graph results would:
    each letter's tokens are counted by id in one C step, and only the
    ids its pairs touch are kept.

    ``pruning``, a ``(node_rule, edge_rule, drop_isolated)`` tuple, cuts
    the graph as :func:`prune` would, with the same result and edge order,
    but on the id tables: only the surviving edges are keyed.
    """
    _check_max_dist(max_dist)
    ids = _NodeIds()
    node_id = ids.__getitem__
    pairs: Counter[tuple[int, int, RelationKind]] = Counter()  # (source, target, kind) -> weight
    freqs: Counter[int] = Counter()
    for doc in docs:
        relations = list(_window_relations(doc, max_dist, verb_blocker))
        if relations:
            _, sources, targets, kinds = zip(*relations)
            src_ids, dst_ids = list(map(node_id, sources)), list(map(node_id, targets))
            pairs.update(zip(src_ids, dst_ids, kinds))
            # the letter's counts, in first-seen order, of the nodes its pairs touch
            touched = {*src_ids, *dst_ids}
            counts = Counter(map(node_id, chain.from_iterable(doc.sentences)))
            for a in filter(touched.__contains__, counts):
                freqs[a] += counts[a]
    ids.clear()  # the token entries are done with; free them before any edge is keyed
    if pruning is not None:
        freqs, pairs = _keep(freqs, pairs, *pruning)
    keys = [None, *ids.nodes]
    return LexicalGraph(
        nodes={keys[a]: f for a, f in freqs.items()},
        edges={(keys[a], keys[b], kind): w for (a, b, kind), w in pairs.items()},
    )


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


def _keep(
    nodes: Mapping, edges: Mapping, node_rule: str, edge_rule: str, drop_isolated: bool
) -> tuple[dict, dict]:
    """The nodes and edges :func:`prune` keeps; an edge key's endpoints are key[0] and key[1]."""
    node_cut = cutoff(node_rule, list(nodes.values()))
    edge_cut = cutoff(edge_rule, list(edges.values()))
    kept_nodes = {key: f for key, f in nodes.items() if f > node_cut}
    kept_edges = {
        key: w
        for key, w in edges.items()
        if w > edge_cut and key[0] in kept_nodes and key[1] in kept_nodes
    }
    if drop_isolated:
        touched = {end for key in kept_edges for end in (key[0], key[1])}
        kept_nodes = {key: f for key, f in kept_nodes.items() if key in touched}
    return kept_nodes, kept_edges


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
    removed as well.  The input graph is not modified, and the kept
    nodes and edges keep its order.  ``cooccurrence_graph(docs, window,
    pruning=(node_rule, edge_rule, drop_isolated))`` gives the same graph
    without keying the edges it drops.
    """
    return LexicalGraph(*_keep(graph.nodes, graph.edges, node_rule, edge_rule, drop_isolated))


# ---------------------------------------------------------------------------
# the sorted view


class SortedGraph(NamedTuple):
    """A graph's nodes and edges in the order of every file and ranking.

    ``nodes`` holds (node id, lemma, class name, frequency) rows in
    :func:`node_order`; the node id is "lemma::CLASS".  ``edges`` holds
    (source, target, kind name, directed, weight) rows whose endpoints
    are positions in ``nodes``, sorted by source, target and kind name,
    which orders them by source node, target node, then kind.
    """

    nodes: list[tuple[str, str, str, int]]
    edges: list[tuple[int, int, str, bool, int]]


GraphLike = Union[LexicalGraph, SortedGraph]

# kind -> (name, directed), as a sorted view's edge rows hold them
_KIND_ROWS = {kind: (kind.name, kind in DIRECTED_KINDS) for kind in RelationKind}


def sorted_view(graph: GraphLike) -> SortedGraph:
    """Sort and number a graph once for every writer and ranking; a view is kept as it is."""
    if isinstance(graph, SortedGraph):
        return graph
    # (lemma, class name) is unique, so the sort never compares further
    rows = sorted((*node_order(key), freq, key) for key, freq in graph.nodes.items())
    number = {key: i for i, (_, _, _, key) in enumerate(rows)}
    nodes = [(f"{lemma}::{cls}", lemma, cls, freq) for lemma, cls, freq, _ in rows]
    edges = sorted(
        (number[src], number[dst], *_KIND_ROWS[kind], weight)
        for (src, dst, kind), weight in graph.edges.items()
    )
    return SortedGraph(nodes=nodes, edges=edges)


# ---------------------------------------------------------------------------
# centrality


class Centrality(enum.Enum):
    DEGREE = "DEGREE"
    IN_DEGREE = "IN_DEGREE"
    OUT_DEGREE = "OUT_DEGREE"
    WEIGHTED_DEGREE = "WEIGHTED_DEGREE"


def degree_scores(view: SortedGraph) -> dict[Centrality, list[int]]:
    """All four degree measures from one pass over a sorted view's edges.

    Returns one score list per measure, in :class:`Centrality` order, each
    indexed by node position in ``view.nodes``, with the semantics
    :func:`centrality` documents.
    """
    degree, weighted, in_degree, out_degree = ([0] * len(view.nodes) for _ in range(4))
    for src, dst, _kind, directed, weight in view.edges:
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


def centrality(graph: GraphLike, measure: Centrality) -> list[tuple[NodeKey, int]]:
    """Rank all nodes by a degree-style measure.

    DEGREE counts incident edges of any kind and WEIGHTED_DEGREE sums
    their weights; both count a self-loop twice, so weighted degrees
    over the graph sum to twice the total edge weight.  IN_DEGREE and
    OUT_DEGREE only look at directed (SUBJ, OBJ) edges.  Ties keep the
    :func:`sorted_view` order, lemma then class name, so rankings are
    stable and match the stats report's.
    """
    view = sorted_view(graph)
    scores = degree_scores(view)[measure]
    return [((view.nodes[i][1], _POS_BY_NAME[view.nodes[i][2]]), scores[i]) for i in rank(scores)]
