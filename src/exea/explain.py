"""Subgraph explanations for alignment pairs.

An explanation for a pair (e1, e2) is built in two moves: find neighbor pairs
that the current alignment already matches within h hops of both centers, then
match the paths leading from each center to its matched neighbor. Two paths
are matched when each is the other's best choice by cosine over path
embeddings (mutual best). The union of triples along matched paths is the
explanation subgraph.

Performance notes. ``PathIndex`` keeps one table per center, built on first
use: the center's paths as integer step arrays grouped by endpoint, their unit
path embeddings as one float64 matrix (gathered, summed and divided by length
in the order ``path_embedding`` adds), a mask of all-zero embeddings, and each
path's functionality weight. ``explanation`` scores the path pairs of all its
neighbor pairs with one ``np.vecdot`` and picks row and column bests with
lexsorts that keep the lowest-index tie rule. Similarities and norms go
through ``np.vecdot`` and never through a matrix product or an einsum:
vecdot takes, row by row, the BLAS dot that ``np.dot`` and ``np.linalg.norm``
take for one vector, so every value equals the per-pair computation bit for
bit, where a matrix product or einsum may sum in another order.
``TestBatchedCoreIsExact`` in ``tests/test_explain.py`` keeps the per-pair
matcher as the reference and checks equality with ``==``. ``RelationPath``
objects are built only for matched paths, and an explanation keeps its
triples as integer keys; ``Explanation.triples`` builds the ``Triple``
objects when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

# path_embedding is the single-path encoding the tables reproduce; it stays
# importable from this module, where bench/traced_exea.py wraps it
from .embedding import EmbeddingStore, path_embedding  # noqa: F401
from .errors import MissingEmbedding
from .kg import (
    Direction,
    EntityRef,
    Kg,
    PathStep,
    RelationPath,
    Triple,
    enumerate_path_keys,
    neighborhood_entities,
    neighborhood_triples,
)


@dataclass(frozen=True)
class MatchedPathPair:
    source_path: RelationPath
    target_path: RelationPath
    similarity: float


@dataclass
class Explanation:
    """The matched subgraph of one pair.

    ``path_weights`` holds the functionality weight of each matched pair's
    source and target path. ``triple_keys`` holds the selected triples as
    (side, subject, relation, object) integers, side 0 for ``kgs[0]`` (the
    source graph) and 1 for ``kgs[1]``.
    """

    pair: tuple[EntityRef, EntityRef]
    matched_neighbor_pairs: list[tuple[EntityRef, EntityRef]]
    path_pairs: list[MatchedPathPair]
    path_weights: list[tuple[float, float]]
    triple_keys: frozenset[tuple[int, int, int, int]]
    kgs: tuple[Kg, Kg] = field(repr=False, compare=False)

    @property
    def no_match(self) -> bool:
        """True when no triple was selected at all."""
        return not self.triple_keys

    @property
    def triples(self) -> set[Triple]:
        return {self.kgs[side].triple(s, r, o) for side, s, r, o in self.triple_keys}


@dataclass(eq=False)
class PathTable:
    """Every path from one center, as arrays whose rows are grouped by endpoint
    and keep enumeration order within a group.

    ``steps[p, k]`` is step k of path p as (0 outgoing / 1 incoming, relation,
    entity reached), -1 past the path's length. ``groups`` maps an endpoint to
    its ``(start, stop)`` rows. ``unit`` holds unit path embeddings, with zero
    rows where ``zero`` marks an all-zero embedding; ``weight`` holds the
    product of per-step functionality weights. ``triples[p, k]`` is the
    (subject, relation, object) triple step k traverses, -1 past the path's
    length. ``paths`` keeps the ``RelationPath`` of each row ever matched.
    """

    center: int
    steps: np.ndarray
    lengths: np.ndarray
    groups: dict[int, tuple[int, int]]
    unit: np.ndarray
    zero: np.ndarray
    weight: np.ndarray
    triples: np.ndarray
    paths: dict[int, RelationPath] = field(default_factory=dict)


class PathIndex:
    """Path tables for one side, one per center, built on first use.

    Paths and embeddings depend only on the graph and the store, so one index
    can serve many explanation calls.
    """

    def __init__(self, kg: Kg, store: EmbeddingStore, h: int, signed: bool = False):
        self.kg = kg
        self.store = store
        self.h = h
        self.signed = signed
        self._tables: dict[int, PathTable] = {}
        # per-relation weight of an outgoing step (inverse functionality) and
        # of an incoming one (functionality); relations without triples never
        # appear on a path
        self._out_weight = np.full(kg.n_relations, np.nan)
        self._in_weight = np.full(kg.n_relations, np.nan)
        for r, v in kg.ifunc_table.items():
            self._out_weight[r] = v
        for r, v in kg.func_table.items():
            self._in_weight[r] = v
        # one PathStep per (direction, relation, entity), shared by every
        # matched path that takes that step
        self._path_steps: dict[tuple[int, int, int], PathStep] = {}

    def table(self, center: int) -> PathTable:
        got = self._tables.get(center)
        if got is None:
            got = self._build(center)
            self._tables[center] = got
        return got

    def _build(self, center: int) -> PathTable:
        kg, h = self.kg, self.h
        keys = enumerate_path_keys(kg, center, h)
        n = len(keys)
        lengths = np.fromiter(map(len, keys), dtype=np.int64, count=n)
        steps = np.full((n, h, 3), -1, dtype=np.int64)
        for k in range(h):
            rows = np.flatnonzero(lengths > k)
            if rows.size:
                steps[rows, k] = [keys[p][k] for p in rows.tolist()]
        order = np.argsort(steps[np.arange(n), lengths - 1, 2], kind="stable")
        steps, lengths = steps[order], lengths[order]
        ends = steps[np.arange(n), lengths - 1, 2]
        starts = _first_per_group(np.arange(n), ends) if n else ends
        stops = np.r_[starts[1:], n]
        groups = dict(zip(ends[starts].tolist(), zip(starts.tolist(), stops.tolist())))

        ents = self.store.entity_matrix(kg.side)
        rels = self.store.relation_matrix(kg)
        where = f"paths from entity {center} on side {kg.side.value}"
        if center >= ents.shape[0] or (n and steps[:, :, 2].max() >= ents.shape[0]):
            raise MissingEmbedding(f"{where} reach entities without vectors")
        if n and steps[:, :, 1].max() >= rels.shape[0]:
            raise MissingEmbedding(f"{where} use relations without vectors")
        # the same additions, in the same order, as path_embedding: the
        # anchor plus each intermediate entity in the first half, the step
        # relations in the second, then both halves divided by the length
        dim = rels.shape[1]
        unit = np.zeros((n, 2 * dim), dtype=np.float64)
        unit[:, :dim] = ents[center]
        weight = np.ones(n, dtype=np.float64)
        triples = np.full((n, h, 3), -1, dtype=np.int64)
        anchor = np.full(n, center, dtype=np.int64)
        for k in range(h):
            rows = np.flatnonzero(lengths > k)
            incoming = steps[rows, k, 0] == 1
            r = steps[rows, k, 1]
            vec = rels[r]
            if self.signed:
                vec = np.where(incoming[:, None], -vec, vec)
            unit[rows, dim:] += vec
            weight[rows] *= np.where(incoming, self._in_weight[r], self._out_weight[r])
            inner = np.flatnonzero(lengths > k + 1)
            unit[inner, :dim] += ents[steps[inner, k, 2]]
            u = steps[rows, k, 2]
            at = anchor[rows]
            triples[rows, k] = np.where(
                incoming[:, None], np.stack([u, r, at], axis=1), np.stack([at, r, u], axis=1)
            )
            anchor[rows] = u
        unit /= lengths[:, None]
        norms = np.sqrt(np.vecdot(unit, unit))
        zero = norms == 0.0
        unit /= np.where(zero, 1.0, norms)[:, None]
        return PathTable(center, steps, lengths, groups, unit, zero, weight, triples)

    def path(self, table: PathTable, row: int) -> RelationPath:
        """The path in ``row`` of ``table``, built on first request."""
        got = table.paths.get(row)
        if got is None:
            steps = table.steps[row, : table.lengths[row]].tolist()
            got = RelationPath(self.kg.entity(table.center), tuple(self._step(*s) for s in steps))
            table.paths[row] = got
        return got

    def _step(self, rank: int, r: int, u: int) -> PathStep:
        key = (rank, r, u)
        got = self._path_steps.get(key)
        if got is None:
            direction = Direction.OUTGOING if rank == 0 else Direction.INCOMING
            got = PathStep(direction, self.kg.relation(r), self.kg.entity(u))
            self._path_steps[key] = got
        return got


def _triple_keys(table: PathTable, rows: np.ndarray, side: int) -> np.ndarray:
    """The triples that the paths in ``rows`` traverse, one (side, s, r, o)
    line each."""
    keys = table.triples[rows].reshape(-1, 3)
    keys = keys[keys[:, 0] >= 0]
    return np.concatenate([np.full((len(keys), 1), side), keys], axis=1)


def _first_per_group(order: np.ndarray, group: np.ndarray) -> np.ndarray:
    """The first entry of ``order`` for each run of equal ``group[order]``."""
    g = group[order]
    return order[np.flatnonzero(np.r_[True, g[1:] != g[:-1]])]


def _mutual_best(
    t1: PathTable, t2: PathTable, neighbor_pairs: Iterable[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mutual-best path matching for every neighbor pair at once.

    Each neighbor pair is a block: the paths of ``t1`` to its source entity
    against the paths of ``t2`` to its target entity. Within a block a path
    takes the other side's path of highest cosine, the lowest row on ties, and
    a pair is kept when each side is the other's choice. All-zero paths score
    -2.0 and never match. Returns the matched rows of ``t1`` and ``t2`` and
    their similarities, ordered by block, then by ``t1`` row.
    """
    blocks = []
    for n1, n2 in neighbor_pairs:
        g1 = t1.groups.get(n1)
        g2 = t2.groups.get(n2)
        if g1 is not None and g2 is not None:
            blocks.append((g1[0], g1[1] - g1[0], g2[0], g2[1] - g2[0]))
    if not blocks:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=np.float64)
    start1, len1, start2, len2 = np.array(blocks, dtype=np.int64).T
    sizes = len1 * len2
    block = np.repeat(np.arange(len(blocks)), sizes)
    offset = np.arange(block.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    i, j = np.divmod(offset, len2[block])
    rows1 = start1[block] + i
    rows2 = start2[block] + j
    sims = np.vecdot(t1.unit[rows1], t2.unit[rows2])
    sims[t1.zero[rows1] | t2.zero[rows2]] = -2.0
    # one id per (block, source path) and per (block, target path)
    row_id = (np.cumsum(len1) - len1)[block] + i
    col_id = (np.cumsum(len2) - len2)[block] + j
    neg = -sims
    row_best = _first_per_group(np.lexsort((j, neg, row_id)), row_id)
    col_best = _first_per_group(np.lexsort((i, neg, col_id)), col_id)
    keep = row_best[(col_best[col_id[row_best]] == row_best) & (sims[row_best] > -2.0)]
    return rows1[keep], rows2[keep], sims[keep]


def _as_alignment_map(alignments) -> Mapping[int, int]:
    if isinstance(alignments, Mapping):
        return alignments
    return {int(s): int(t) for s, t in alignments}


def matched_neighbors(
    pair: tuple[int, int],
    kg1: Kg,
    kg2: Kg,
    alignments,
    h: int,
) -> list[tuple[EntityRef, EntityRef]]:
    """Neighbor pairs already matched by ``alignments`` within h hops of both
    centers, excluding the central pair itself; sorted by source index."""
    e1, e2 = int(pair[0]), int(pair[1])
    amap = _as_alignment_map(alignments)
    n2 = set(neighborhood_entities(kg2, e2, h))
    out = []
    for n1 in neighborhood_entities(kg1, e1, h):
        t = amap.get(n1)
        if t is None or t not in n2:
            continue
        if n1 == e1 and t == e2:
            continue
        out.append((kg1.entity(n1), kg2.entity(t)))
    return out


def match_paths(
    pair: tuple[int, int],
    neighbor_pair: tuple[int, int],
    store: EmbeddingStore,
    kg1: Kg,
    kg2: Kg,
    h: int,
    signed: bool = False,
    index1: PathIndex | None = None,
    index2: PathIndex | None = None,
) -> list[MatchedPathPair]:
    """Mutual-best path matching between the two sides of one neighbor pair.

    Ties resolve toward the lexicographically first path (enumeration order).
    Paths whose embedding is all-zero never match. Returns an empty list when
    either side has no path to its neighbor.
    """
    index1 = index1 or PathIndex(kg1, store, h, signed)
    index2 = index2 or PathIndex(kg2, store, h, signed)
    t1 = index1.table(int(pair[0]))
    t2 = index2.table(int(pair[1]))
    rows1, rows2, sims = _mutual_best(t1, t2, [(int(neighbor_pair[0]), int(neighbor_pair[1]))])
    return [
        MatchedPathPair(index1.path(t1, i), index2.path(t2, j), sim)
        for i, j, sim in zip(rows1.tolist(), rows2.tolist(), sims.tolist())
    ]


def path_triples(kg: Kg, path: RelationPath) -> list[Triple]:
    """The triples traversed by a path, in step order."""
    anchor = path.center.index
    out = []
    for step in path.steps:
        if step.direction is Direction.OUTGOING:
            out.append(kg.triple(anchor, step.relation.index, step.entity.index))
        else:
            out.append(kg.triple(step.entity.index, step.relation.index, anchor))
        anchor = step.entity.index
    return out


def candidate_triples(kg1: Kg, kg2: Kg, pair: tuple[int, int], h: int) -> set[Triple]:
    """All triples within h hops of either center: the explanation's search space."""
    cand = set(neighborhood_triples(kg1, int(pair[0]), h))
    cand.update(neighborhood_triples(kg2, int(pair[1]), h))
    return cand


def explanation(
    pair: tuple[int, int],
    kg1: Kg,
    kg2: Kg,
    store: EmbeddingStore,
    alignments,
    h: int,
    signed: bool = False,
    index1: PathIndex | None = None,
    index2: PathIndex | None = None,
    neighbor_pairs: Iterable[tuple[EntityRef, EntityRef]] | None = None,
) -> Explanation:
    """Build the matched subgraph explanation for one pair.

    ``neighbor_pairs`` can inject a pre-filtered neighbor list; by default it
    is computed from ``alignments``.
    """
    e1, e2 = int(pair[0]), int(pair[1])
    index1 = index1 or PathIndex(kg1, store, h, signed)
    index2 = index2 or PathIndex(kg2, store, h, signed)
    if neighbor_pairs is None:
        neighbor_pairs = matched_neighbors((e1, e2), kg1, kg2, alignments, h)
    else:
        neighbor_pairs = list(neighbor_pairs)
    path_pairs: list[MatchedPathPair] = []
    path_weights: list[tuple[float, float]] = []
    triple_keys: set[tuple[int, int, int, int]] = set()
    if neighbor_pairs:
        t1 = index1.table(e1)
        t2 = index2.table(e2)
        rows1, rows2, sims = _mutual_best(t1, t2, [(a.index, b.index) for a, b in neighbor_pairs])
        path_pairs = [
            MatchedPathPair(index1.path(t1, i), index2.path(t2, j), sim)
            for i, j, sim in zip(rows1.tolist(), rows2.tolist(), sims.tolist())
        ]
        path_weights = list(zip(t1.weight[rows1].tolist(), t2.weight[rows2].tolist()))
        both = np.concatenate([_triple_keys(t1, rows1, 0), _triple_keys(t2, rows2, 1)])
        triple_keys = set(map(tuple, both.tolist()))
    return Explanation(
        pair=(kg1.entity(e1), kg2.entity(e2)),
        matched_neighbor_pairs=neighbor_pairs,
        path_pairs=path_pairs,
        path_weights=path_weights,
        triple_keys=frozenset(triple_keys),
        kgs=(kg1, kg2),
    )
