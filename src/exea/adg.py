"""Alignment dependency graphs: how much an alignment's matched neighborhood
supports it.

Nodes are matched entity pairs, as (source index, target index); the node
influence is the pair's embedding cosine clamped to [0, 1]. Each matched path
pair becomes an edge whose class reflects path lengths: both length 1 is
Strong, exactly one length 1 is Moderate, neither is Weak. Edge weights come from relation functionality: a
step leaving its anchor (anchor is subject) weighs the relation's inverse
functionality, a step entering (anchor is object) weighs its functionality,
and multi-step paths multiply their step weights. A Strong edge takes the
smaller of its two path weights, a Moderate edge scales that by alpha, and a
Weak edge gets a fixed floor weight.

Confidence aggregates weight * influence per class into (c_s, c_m, c_w) and
gates the weaker classes: Moderate mass counts only when c_s < theta, Weak
mass only when additionally c_m < gamma. The gated sum is squashed through a
sigmoid.

``build_adg`` reads the graph off one explanation: edge ``i`` is matched path
pair ``i``, on the node of the neighbor pair the matcher found it for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .embedding import EmbeddingStore, pair_cosines
from .errors import ConfigError
from .explain import Explanation
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


def build_adg(expl: Explanation, store: EmbeddingStore, cfg: AdgConfig | None = None) -> Adg:
    """Assemble the dependency graph for one explanation: one node per matched
    neighbor pair, one edge per matched path pair, aggregates and confidence
    filled in.

    Each edge's node is the neighbor pair its match was found for; lengths and
    weights are read from the explanation's path indexes. The class masses add
    ``weight * influence`` one edge at a time in edge order, so the sums do
    not depend on a reduction order."""
    cfg = cfg or AdgConfig()
    (e1, e2), pairs = expl.pair, expl.matched_neighbor_pairs
    # influences: embedding cosines clamped to [0, 1], the central pair first
    sims = pair_cosines(
        store,
        Side.SOURCE, [e1] + [a for a, _ in pairs],
        Side.TARGET, [e2] + [b for _, b in pairs],
    ).tolist()
    influence = [min(1.0, max(0.0, sim)) for sim in sims]
    (i1, i2), rows1, rows2 = expl.indexes, expl.rows1, expl.rows2
    len1, len2 = i1.lengths[rows1], i2.lengths[rows2]
    # both paths direct: Strong (0); one: Moderate (1); neither: Weak (2)
    classes = 2 - (len1 == 1) - (len2 == 1)
    weights = np.minimum(i1.weight[rows1], i2.weight[rows2])
    weights[classes == 1] *= cfg.alpha
    weights[classes == 2] = cfg.weak_weight
    mass = [0.0, 0.0, 0.0]
    for n, c, w in zip(expl.neighbor.tolist(), classes.tolist(), weights.tolist()):
        mass[c] += w * influence[n + 1]
    c_s, c_m, c_w = mass
    return Adg(
        influence=influence,
        edge_neighbor=expl.neighbor,
        edge_class=classes,
        edge_weight=weights,
        c_s=c_s,
        c_m=c_m,
        c_w=c_w,
        confidence=aggregate_confidence(c_s, c_m, c_w, cfg),
        explanation=expl,
    )
