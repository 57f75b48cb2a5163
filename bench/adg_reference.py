"""Independent reference for the ADG confidence of one aligned pair.

Written from the definitions in the exea module docstrings and README, not
from its code, with plain loops and no exea import:

* a graph is a set of integer triples (subject, relation, object);
* a relation path from a centre is a simple path of 1..h steps, each step
  following a triple in either direction (outgoing when the anchor is the
  subject), never revisiting an entity; paths to one endpoint are ordered
  lexicographically by their (direction, relation, entity) steps, outgoing
  first;
* a relation vector is the mean of subject - object over the relation's
  triples (zero for a relation without triples);
* a path embedding is the mean of the centre and intermediate entity vectors
  (the endpoint excluded) concatenated with the mean of the step relation
  vectors;
* two paths match when each is the other's best by cosine (ties go to the
  first path); an all-zero path embedding never matches;
* an outgoing step weighs the relation's inverse functionality (distinct
  objects / triples), an incoming step its functionality (distinct subjects /
  triples), and a path multiplies its step weights;
* both paths of length 1 make a Strong edge (the smaller path weight), one of
  them a Moderate edge (alpha times that), neither a Weak edge (weak_weight);
* a neighbour pair's influence is the cosine of its two entity vectors
  clamped to [0, 1], and the confidence is sigmoid(c_s + [c_s < theta]
  (c_m + [c_m < gamma] c_w)), each class mass summing weight * influence.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

OUT, IN = 0, 1


class Graph:
    """One side's triples with the adjacency and functionality the ADG needs."""

    def __init__(self, triples, n_relations: int):
        self.n_relations = n_relations
        self.triples = sorted(set((int(s), int(r), int(o)) for s, r, o in triples))
        self.incident: dict[int, list[tuple[int, int, int]]] = {}
        per_rel: dict[int, list[tuple[int, int]]] = {}
        for s, r, o in self.triples:
            self.incident.setdefault(s, []).append((OUT, r, o))
            self.incident.setdefault(o, []).append((IN, r, s))
            per_rel.setdefault(r, []).append((s, o))
        for steps in self.incident.values():
            steps.sort()
        self.func: dict[int, float] = {}
        self.ifunc: dict[int, float] = {}
        self.per_relation = per_rel
        for r, so in per_rel.items():
            subjects = set()
            objects = set()
            for s, o in so:
                subjects.add(s)
                objects.add(o)
            self.func[r] = len(subjects) / len(so)
            self.ifunc[r] = len(objects) / len(so)

    def neighborhood(self, e: int, h: int) -> set[int]:
        """Entities within h undirected hops of e, e excluded."""
        dist = {e: 0}
        queue = deque([e])
        while queue:
            v = queue.popleft()
            if dist[v] == h:
                continue
            for _, _, u in self.incident.get(v, ()):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        del dist[e]
        return set(dist)

    def paths(self, e: int, h: int) -> list[tuple[tuple[int, int, int], ...]]:
        """Every simple path of 1..h steps from e, as (direction, relation,
        entity) step tuples."""
        found = []
        frontier = [((), e, frozenset([e]))]
        for _ in range(h):
            grown = []
            for steps, v, visited in frontier:
                for direction, r, u in self.incident.get(v, ()):
                    if u in visited:
                        continue
                    path = steps + ((direction, r, u),)
                    found.append(path)
                    grown.append((path, u, visited | {u}))
            frontier = grown
        return found

    def relation_vectors(self, ents: np.ndarray) -> np.ndarray:
        dim = ents.shape[1]
        out = np.zeros((self.n_relations, dim))
        for r, so in self.per_relation.items():
            total = np.zeros(dim)
            for s, o in so:
                total = total + (ents[s] - ents[o])
            out[r] = total / len(so)
        return out

    def path_weight(self, path) -> float:
        w = 1.0
        for direction, r, _ in path:
            w *= self.ifunc[r] if direction == OUT else self.func[r]
        return w


class Side:
    """A graph plus its entity and derived relation vectors."""

    def __init__(self, graph: Graph, ents: np.ndarray):
        self.graph = graph
        self.ents = np.asarray(ents, dtype=np.float64)
        self.rels = graph.relation_vectors(self.ents)

    def unit_path_embedding(self, centre: int, path):
        n = len(path)
        ent = self.ents[centre].copy()
        for _, _, u in path[:-1]:
            ent = ent + self.ents[u]
        rel = np.zeros(self.ents.shape[1])
        for _, r, _ in path:
            rel = rel + self.rels[r]
        vec = np.concatenate([ent / n, rel / n])
        norm = math.sqrt(float(np.dot(vec, vec)))
        return None if norm == 0.0 else vec / norm


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.dot(u, v)) / (math.sqrt(float(np.dot(u, u))) * math.sqrt(float(np.dot(v, v))))


def _first_argmax(values) -> int:
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


def mutual_best(units1, units2) -> list[tuple[int, int]]:
    """Index pairs (i, j) where path i and path j are each other's best match."""
    sims = [
        [-2.0 if a is None or b is None else float(np.dot(a, b)) for b in units2]
        for a in units1
    ]
    matched = []
    for i, row in enumerate(sims):
        j = _first_argmax(row)
        if row[j] <= -2.0:
            continue
        if _first_argmax([sims[k][j] for k in range(len(units1))]) == i:
            matched.append((i, j))
    return matched


def confidence(
    pair: tuple[int, int],
    alignment: dict[int, int],
    banned: set[tuple[int, int]],
    side1: Side,
    side2: Side,
    h: int = 2,
    alpha: float = 0.5,
    weak_weight: float = 0.1,
    theta: float = 0.5,
    gamma: float = 0.3,
) -> float:
    """Gated ADG confidence of ``pair`` given the full alignment (seeds
    included) and the not-same-as pairs banned from every neighbourhood."""
    e1, e2 = pair
    hood1 = side1.graph.neighborhood(e1, h)
    hood2 = side2.graph.neighborhood(e2, h)
    paths1 = sorted(side1.graph.paths(e1, h))
    paths2 = sorted(side2.graph.paths(e2, h))
    masses = {"strong": 0.0, "moderate": 0.0, "weak": 0.0}
    for n1 in sorted(hood1):
        n2 = alignment.get(n1)
        if n2 is None or n2 not in hood2 or (n1, n2) in banned:
            continue
        to1 = [p for p in paths1 if p[-1][2] == n1]
        to2 = [p for p in paths2 if p[-1][2] == n2]
        units1 = [side1.unit_path_embedding(e1, p) for p in to1]
        units2 = [side2.unit_path_embedding(e2, p) for p in to2]
        influence = min(1.0, max(0.0, _cosine(side1.ents[n1], side2.ents[n2])))
        for i, j in mutual_best(units1, units2):
            direct = (len(to1[i]) == 1) + (len(to2[j]) == 1)
            w = min(side1.graph.path_weight(to1[i]), side2.graph.path_weight(to2[j]))
            if direct == 2:
                masses["strong"] += w * influence
            elif direct == 1:
                masses["moderate"] += alpha * w * influence
            else:
                masses["weak"] += weak_weight * influence
    x = masses["strong"]
    if masses["strong"] < theta:
        x += masses["moderate"]
        if masses["moderate"] < gamma:
            x += masses["weak"]
    return 1.0 / (1.0 + math.exp(-x))
