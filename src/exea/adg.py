"""Alignment dependency graphs: how much an alignment's matched neighborhood
supports it.

Nodes are matched entity pairs, as (source index, target index); the node
influence is the pair's embedding cosine clamped to [0, 1]. Each matched path
pair becomes an edge whose class reflects path lengths: both length 1 is
Strong, exactly one length 1 is Moderate, neither is Weak. Edge weights come
from relation functionality: a step leaving its anchor (anchor is subject)
weighs the relation's inverse functionality, a step entering weighs its
functionality, and multi-step paths multiply their step weights. A Strong
edge takes the smaller of its two path weights, a Moderate edge scales that
by alpha, and a Weak edge gets a fixed floor weight.

Confidence aggregates weight * influence per class into (c_s, c_m, c_w) and
gates the weaker classes: Moderate mass counts only when c_s < theta, Weak
mass only when additionally c_m < gamma. The gated sum is squashed through a
sigmoid.

``build_adg`` reads each graph off its explanation (edge ``i`` is matched
path pair ``i``, on its neighbor pair's node), in array passes, each graph
equal bit for bit to what a call over its explanation alone builds
(``tests/test_adg.py::TestAdgFromTablesIsExact``). ``pair_confidences``
gives the confidences alone from neighbor lists in one flat pass per batch,
with no explanation: a block of one path on each side is kept or dropped by
the indexes' zero masks, only blocks of several paths are scored, and the
matches go into the same class arithmetic (``_class_masses``, written once
for both; ``TestPairConfidencesAreExact``). Every confidence comes from one
of the two. The benchmark's ``adg.build_calls`` counts ``build_adg`` calls:
full-graph build passes, not graphs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import groupby
from typing import Callable, Iterator, Sequence

import numpy as np

from .embedding import EmbeddingStore, pair_cosines
from .errors import ConfigError
from .explain import Explanation, PathIndex, _block_runs, _score_passes, _split_keys
from .kg import Side


class EdgeClass(Enum):
    STRONG = "strong"
    MODERATE = "moderate"
    WEAK = "weak"


@dataclass(frozen=True)
class AdgConfig:
    alpha: float = 0.5
    weak_weight: float = 0.1
    theta: float = 0.5
    gamma: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.weak_weight <= self.alpha:
            raise ConfigError(
                f"weak_weight must be in [0, alpha={self.alpha}], got {self.weak_weight}"
            )
        for name in ("theta", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")


@dataclass(eq=False)
class Adg:
    """One pair's dependency graph, read off ``explanation``.

    ``influence`` holds the central pair's influence, then each matched
    neighbor pair's. Edge ``i`` is matched path pair ``i``: ``edge_neighbor``
    is ``explanation.neighbor``, ``edge_class[i]`` a position in ``EdgeClass``
    (0 Strong, 1 Moderate, 2 Weak) and ``edge_weight[i]`` its weight.
    """

    influence: list[float]
    edge_neighbor: np.ndarray
    edge_class: np.ndarray
    edge_weight: np.ndarray
    c_s: float
    c_m: float
    c_w: float
    confidence: float
    explanation: Explanation = field(repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Adg):
            return NotImplemented
        return (
            self.influence == other.influence
            and self.edge_neighbor.tolist() == other.edge_neighbor.tolist()
            and self.edge_class.tolist() == other.edge_class.tolist()
            and self.edge_weight.tolist() == other.edge_weight.tolist()
            and self.explanation == other.explanation
            and (self.c_s, self.c_m, self.c_w, self.confidence)
            == (other.c_s, other.c_m, other.c_w, other.confidence)
        )


STRONG = tuple(EdgeClass).index(EdgeClass.STRONG)


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def aggregate_confidence(c_s: float, c_m: float, c_w: float, cfg: AdgConfig) -> float:
    """Gate the class masses and squash: weaker classes only count while the
    stronger ones stay under their thresholds."""
    x = c_s
    if c_s < cfg.theta:
        x += c_m
        if c_m < cfg.gamma:
            x += c_w
    return sigmoid(x)


# nodes per build pass: a pass gathers two float64 entity rows per node, so
# this bounds its temporaries however many graphs a caller hands over; no
# output depends on it, since every value is computed per node or per edge
_PASS_NODES = 4096


def build_adg(
    expls: Sequence[Explanation], store: EmbeddingStore, cfg: AdgConfig | None = None
) -> list[Adg]:
    """Assemble the dependency graph of each explanation: one node per
    matched neighbor pair, one edge per matched path pair, aggregates and
    confidence filled in.

    Each edge's node is the neighbor pair its match was found for; lengths and
    weights are read from the explanations' path indexes. The graphs are
    built in passes over runs of explanations that share their indexes, each
    pass holding at most ``_PASS_NODES`` nodes or one graph: one
    ``pair_cosines`` call over the pass's nodes (``np.vecdot``, row by row),
    classes and weights over its concatenated edges. The class masses add
    ``weight * influence`` one edge at a time in edge order through
    ``np.add.at``, which applies repeated indices in order, so the sums do
    not depend on a reduction order. The confidence stays one ``math.exp``
    per graph, since ``np.exp`` may differ in the last bit."""
    cfg = cfg or AdgConfig()
    graphs: list[Adg] = []
    for run in _passes(expls):
        i1, i2 = run[0].indexes
        # each graph's nodes: its central pair, then its neighbor pairs
        first = np.cumsum([0] + [1 + expl.neighbor_keys.size for expl in run])
        central = np.zeros(first[-1], dtype=bool)
        central[first[:-1]] = True
        nodes = np.empty((first[-1], 2), dtype=np.int64)
        nodes[central] = [expl.pair for expl in run]
        nodes[~central] = np.stack(
            _split_keys([expl.neighbor_keys for expl in run], i2.n_entities)[:2], axis=1
        )
        influence = _influence(store, nodes[:, 0], nodes[:, 1])
        edges = np.cumsum([0] + [expl.rows1.size for expl in run])
        graph = np.repeat(np.arange(len(run)), np.diff(edges))
        rows1 = np.concatenate([expl.rows1 for expl in run])
        rows2 = np.concatenate([expl.rows2 for expl in run])
        neighbor = np.concatenate([expl.neighbor for expl in run])
        classes, weights, mass = _class_masses(
            i1, i2, rows1, rows2, graph, influence[first[graph] + neighbor + 1], len(run), cfg
        )
        influence, mass = influence.tolist(), mass.tolist()
        first, edges = first.tolist(), edges.tolist()
        for g, expl in enumerate(run):
            c_s, c_m, c_w = mass[3 * g : 3 * g + 3]
            a, b = edges[g], edges[g + 1]
            graphs.append(
                Adg(
                    influence=influence[first[g] : first[g + 1]],
                    edge_neighbor=expl.neighbor,
                    # copies, so that a kept graph does not hold the pass's arrays
                    edge_class=classes[a:b].copy(),
                    edge_weight=weights[a:b].copy(),
                    c_s=c_s,
                    c_m=c_m,
                    c_w=c_w,
                    confidence=aggregate_confidence(c_s, c_m, c_w, cfg),
                    explanation=expl,
                )
            )
    return graphs


def pair_confidences(
    pairs: Sequence[tuple[int, int]],
    neighbors: Sequence[np.ndarray],
    index1: PathIndex,
    index2: PathIndex,
    store: EmbeddingStore,
    cfg: AdgConfig | None = None,
    influence: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> list[float]:
    """The confidence of each pair's dependency graph from its packed
    neighbor keys, over indexes that hold every pair's centers: the
    ``confidence`` of ``build_adg(explanations(pairs, neighbors, index1,
    index2), store, cfg)``, bit for bit. A block of one path on each side
    keeps its pair unless a path is all-zero (a unit row's cosine is above
    -2.0), so only blocks of several paths are scored. Every neighbor
    node's influence is read, through ``influence`` when given, and no
    central pair's, since no edge reads it."""
    if len(neighbors) != len(pairs):
        raise ValueError(f"{len(pairs)} pairs but {len(neighbors)} neighbor lists")
    cfg = cfg or AdgConfig()
    influence = influence or functools.partial(_influence, store)
    out: list[float] = []
    for batch in pass_ranges([keys.size for keys in neighbors]):
        blocks, n, t = _block_runs(
            index1, index2, [pairs[i] for i in batch], [neighbors[i] for i in batch]
        )
        start1, len1, start2, len2, graph = blocks.T
        node_influence = influence(n, t)
        one = np.flatnonzero((len1 == 1) & (len2 == 1))
        node = one[~index1.zero[start1[one]] & ~index2.zero[start2[one]]]
        rows1, rows2 = start1[node], start2[node]
        many = np.flatnonzero((len1 > 0) & (len2 > 0) & (len1 * len2 > 1))
        if many.size:
            more1, more2, _, block = _score_passes(index1, index2, blocks[many])
            # back into node order, each block's matches in i1 row order
            node = np.concatenate([node, many[block]])
            order = np.argsort(node, kind="stable")
            node = node[order]
            rows1, rows2 = (np.concatenate(r)[order] for r in ((rows1, more1), (rows2, more2)))
        mass = _class_masses(
            index1, index2, rows1, rows2, graph[node], node_influence[node], len(batch), cfg
        )[2].tolist()
        out += [aggregate_confidence(*mass[3 * g : 3 * g + 3], cfg) for g in range(len(batch))]
    return out


def pass_ranges(sizes: Sequence[int]) -> Iterator[range]:
    """Consecutive runs of positions whose node counts ``1 + sizes[i]`` (a
    graph's central pair and its matched neighbors) add up to at most
    ``_PASS_NODES``, or of one position: one build pass each."""
    lo = held = 0
    for i, size in enumerate(sizes):
        if i > lo and held + 1 + size > _PASS_NODES:
            yield range(lo, i)
            lo, held = i, 0
        held += 1 + size
    if lo < len(sizes):
        yield range(lo, len(sizes))


def _passes(expls: Sequence[Explanation]) -> Iterator[list[Explanation]]:
    """``expls`` in runs that share their indexes, each cut by
    ``pass_ranges``."""
    for _, group in groupby(expls, key=lambda expl: expl.indexes):
        run = list(group)
        for batch in pass_ranges([expl.neighbor_keys.size for expl in run]):
            yield run[batch.start : batch.stop]


def _influence(store: EmbeddingStore, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each (source, target) node's influence: its embedding cosine clamped
    to [0, 1], min(1.0, max(0.0, sim)) element by element. ``pair_cosines``
    takes its dots row by row, so a node's influence does not depend on the
    nodes beside it."""
    sims = pair_cosines(store, Side.SOURCE, sources, Side.TARGET, targets)
    return np.where(sims > 0.0, np.minimum(sims, 1.0), 0.0)


def _class_masses(
    i1: PathIndex,
    i2: PathIndex,
    rows1: np.ndarray,
    rows2: np.ndarray,
    graph: np.ndarray,
    influence: np.ndarray,
    n_graphs: int,
    cfg: AdgConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The class and weight of each edge, a matched pair of rows of ``i1``
    and ``i2`` on graph ``graph`` whose node has ``influence``, and the
    class masses of the ``n_graphs`` graphs, three each: ``weight *
    influence`` added one edge at a time in edge order."""
    len1, len2 = i1.lengths[rows1], i2.lengths[rows2]
    # both paths direct: Strong (0); one: Moderate (1); neither: Weak (2)
    classes = 2 - (len1 == 1) - (len2 == 1)
    weights = np.minimum(i1.weight[rows1], i2.weight[rows2])
    weights[classes == 1] *= cfg.alpha
    weights[classes == 2] = cfg.weak_weight
    mass = np.zeros(3 * n_graphs)
    np.add.at(mass, graph * 3 + classes, weights * influence)
    return classes, weights, mass
