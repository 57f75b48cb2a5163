"""Alignment dependency graphs: how much an alignment's matched neighborhood
supports it.

Nodes are matched entity pairs; the node influence is the pair's embedding
cosine clamped to [0, 1]. Each matched path pair becomes an edge whose class
reflects path lengths: both length 1 is Strong, exactly one length 1 is
Moderate, neither is Weak. Edge weights come from relation functionality: a
step leaving its anchor (anchor is subject) weighs the relation's inverse
functionality, a step entering (anchor is object) weighs its functionality,
and multi-step paths multiply their step weights. A Strong edge takes the
smaller of its two path weights, a Moderate edge scales that by alpha, and a
Weak edge gets a fixed floor weight.

Confidence aggregates weight * influence per class into (c_s, c_m, c_w) and
gates the weaker classes: Moderate mass counts only when c_s < theta, Weak
mass only when additionally c_m < gamma. The gated sum is squashed through a
sigmoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .embedding import EmbeddingStore, pair_cosines
from .errors import ConfigError
from .explain import Explanation, MatchedPathPair
from .kg import Direction, EntityRef, Kg, RelationPath, functionality, inverse_functionality


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


@dataclass(frozen=True)
class AdgNode:
    pair: tuple[EntityRef, EntityRef]
    influence: float
    is_central: bool = False


@dataclass(frozen=True)
class AdgEdge:
    neighbor: int
    edge_class: EdgeClass
    weight: float
    paths: MatchedPathPair


@dataclass
class Adg:
    central: AdgNode
    neighbors: list[AdgNode]
    edges: list[AdgEdge]
    c_s: float
    c_m: float
    c_w: float
    confidence: float
    central_conflict: bool = False


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def path_weight(kg: Kg, path: RelationPath) -> float:
    """Product of per-step functionality weights along the path."""
    w = 1.0
    for step in path.steps:
        if step.direction is Direction.OUTGOING:
            w *= inverse_functionality(kg, step.relation)
        else:
            w *= functionality(kg, step.relation)
    return w


def classify_edge(source_len: int, target_len: int) -> EdgeClass:
    direct = (source_len == 1) + (target_len == 1)
    if direct == 2:
        return EdgeClass.STRONG
    if direct == 1:
        return EdgeClass.MODERATE
    return EdgeClass.WEAK


def _classed_weight(
    source_len: int, target_len: int, source_weight: float, target_weight: float, cfg: AdgConfig
) -> tuple[EdgeClass, float]:
    cls = classify_edge(source_len, target_len)
    if cls is EdgeClass.WEAK:
        return cls, cfg.weak_weight
    w = min(source_weight, target_weight)
    if cls is EdgeClass.MODERATE:
        w *= cfg.alpha
    return cls, w


def edge_weight(
    kg1: Kg, kg2: Kg, matched: MatchedPathPair, cfg: AdgConfig
) -> tuple[EdgeClass, float]:
    return _classed_weight(
        matched.source_path.length,
        matched.target_path.length,
        path_weight(kg1, matched.source_path),
        path_weight(kg2, matched.target_path),
        cfg,
    )


def aggregate_confidence(c_s: float, c_m: float, c_w: float, cfg: AdgConfig) -> float:
    """Gate the class masses and squash: weaker classes only count while the
    stronger ones stay under their thresholds."""
    x = c_s
    if c_s < cfg.theta:
        x += c_m
        if c_m < cfg.gamma:
            x += c_w
    return sigmoid(x)


def _aggregates(neighbors: list[AdgNode], edges: list[AdgEdge]) -> tuple[float, float, float]:
    sums = {EdgeClass.STRONG: 0.0, EdgeClass.MODERATE: 0.0, EdgeClass.WEAK: 0.0}
    for edge in edges:
        sums[edge.edge_class] += edge.weight * neighbors[edge.neighbor].influence
    return sums[EdgeClass.STRONG], sums[EdgeClass.MODERATE], sums[EdgeClass.WEAK]


def build_adg(
    expl: Explanation,
    kg1: Kg,
    kg2: Kg,
    store: EmbeddingStore,
    cfg: AdgConfig | None = None,
) -> Adg:
    """Assemble the dependency graph for one explanation: one node per matched
    neighbor pair, one edge per matched path pair, aggregates and confidence
    filled in."""
    cfg = cfg or AdgConfig()
    e1, e2 = expl.pair
    pairs: list[tuple[EntityRef, EntityRef]] = []
    node_of: dict[tuple[int, int], int] = {}
    for n1, n2 in expl.matched_neighbor_pairs:
        key = (n1.index, n2.index)
        if key not in node_of:
            node_of[key] = len(pairs)
            pairs.append((n1, n2))
    # influences: embedding cosines clamped to [0, 1], the central pair first
    sims = pair_cosines(
        store,
        e1.side, [e1.index] + [a.index for a, _ in pairs],
        e2.side, [e2.index] + [b.index for _, b in pairs],
    ).tolist()
    influence = [min(1.0, max(0.0, sim)) for sim in sims]
    central = AdgNode((e1, e2), influence[0], is_central=True)
    neighbors = [AdgNode(p, x) for p, x in zip(pairs, influence[1:])]
    edges: list[AdgEdge] = []
    for mp, (w1, w2) in zip(expl.path_pairs, expl.path_weights):
        key = (mp.source_path.endpoint.index, mp.target_path.endpoint.index)
        if key not in node_of:
            raise ValueError(f"path pair endpoints {key} have no matched neighbor node")
        cls, w = _classed_weight(mp.source_path.length, mp.target_path.length, w1, w2, cfg)
        edges.append(AdgEdge(node_of[key], cls, w, mp))
    c_s, c_m, c_w = _aggregates(neighbors, edges)
    return Adg(
        central=central,
        neighbors=neighbors,
        edges=edges,
        c_s=c_s,
        c_m=c_m,
        c_w=c_w,
        confidence=aggregate_confidence(c_s, c_m, c_w, cfg),
    )


def confidence(adg: Adg, cfg: AdgConfig | None = None) -> float:
    """Recompute the gated confidence from the graph's aggregates."""
    cfg = cfg or AdgConfig()
    return aggregate_confidence(adg.c_s, adg.c_m, adg.c_w, cfg)
