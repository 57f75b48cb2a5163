"""Subgraph explanations for alignment pairs.

An explanation for a pair (e1, e2) is built in two moves: find neighbor pairs
that the current alignment already matches within h hops of both centers, then
match the paths leading from each center to its matched neighbor. Both moves
read the centers' path tables: the endpoints of a center's paths are its h-hop
neighborhood. Two paths are matched when each is the other's best choice by
cosine over path embeddings (mutual best). The union of triples along matched
paths is the explanation subgraph.

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
matcher as the reference and checks equality with ``==``.

Everything here is ints: a pair is (source index, target index), a path is
its tuple of step keys (see ``kg``), and a triple is a (side, subject,
relation, object) key, side 0 for the source graph and 1 for the target
graph. An explanation keeps only its matched paths, as rows of the two path
tables, and for each match the position of its neighbor pair;
``adg.build_adg`` reads both directly. Its triple keys and path step keys are
derived from those rows on read, and labels are looked up only where output is
written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Container, Iterable, Mapping

import numpy as np

# path_embedding is the single-path encoding the tables reproduce; it stays
# importable from this module, where bench/traced_exea.py wraps it
from .embedding import EmbeddingStore, path_embedding  # noqa: F401
from .errors import MissingEmbedding
from .kg import Kg, Step, enumerate_paths, neighborhood_entities, neighborhood_triples

# a triple of either graph: (side, subject, relation, object)
TripleKey = tuple[int, int, int, int]
# two matched paths, as step keys, and their cosine
PathMatch = tuple[tuple[Step, ...], tuple[Step, ...], float]


@dataclass(eq=False)
class PathTable:
    """Every path from one center, as arrays whose rows are grouped by endpoint
    and keep enumeration order within a group.

    ``steps[p, k]`` is step k of path p as (0 outgoing / 1 incoming, relation,
    entity reached), -1 past the path's length. ``groups`` maps an endpoint to
    its ``(start, stop)`` rows; its keys are the center's h-hop neighborhood,
    the entities ``neighborhood_entities`` finds, since every entity within h
    undirected hops ends some simple path of length <= h. ``unit`` holds unit
    path embeddings, with zero rows where ``zero`` marks an all-zero
    embedding; ``weight`` holds the product of per-step functionality weights.
    ``triples[p, k]`` is the (subject, relation, object) triple step k
    traverses, -1 past the path's length.
    """

    center: int
    steps: np.ndarray
    lengths: np.ndarray
    groups: dict[int, tuple[int, int]]
    unit: np.ndarray
    zero: np.ndarray
    weight: np.ndarray
    triples: np.ndarray

    def key(self, row: int) -> tuple[Step, ...]:
        """The path in ``row`` as ``enumerate_paths`` gives it."""
        return tuple(map(tuple, self.steps[row, : self.lengths[row]].tolist()))


class PathIndex:
    """Path tables for one side, one per center, built on first use.

    Paths and embeddings depend only on the graph and the store, so one index
    can serve many explanation calls.
    """

    def __init__(self, kg: Kg, store: EmbeddingStore, h: int):
        self.kg = kg
        self.store = store
        self.h = h
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

    def table(self, center: int) -> PathTable:
        got = self._tables.get(center)
        if got is None:
            got = self._build(center)
            self._tables[center] = got
        return got

    def _build(self, center: int) -> PathTable:
        kg, h = self.kg, self.h
        keys = enumerate_paths(kg, center, h)
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
            unit[rows, dim:] += rels[r]
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


@dataclass(eq=False)
class Explanation:
    """The matched subgraph of one pair.

    The matched paths stay as rows of the two centers' path tables:
    ``rows1[i]`` of ``tables[0]`` matched ``rows2[i]`` of ``tables[1]`` with
    cosine ``sims[i]``, both paths leading to the neighbor pair
    ``matched_neighbor_pairs[neighbor[i]]``. Everything else is derived from
    these rows on read, so a cached explanation costs little more than its row
    arrays.
    """

    pair: tuple[int, int]
    matched_neighbor_pairs: list[tuple[int, int]]
    tables: tuple[PathTable, PathTable] = field(repr=False)
    rows1: np.ndarray
    rows2: np.ndarray
    sims: np.ndarray
    neighbor: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Explanation):
            return NotImplemented
        return (
            self.pair == other.pair
            and self.matched_neighbor_pairs == other.matched_neighbor_pairs
            and self.path_matches() == other.path_matches()
            and self.triple_keys == other.triple_keys
        )

    @property
    def no_match(self) -> bool:
        """True when no triple was selected at all."""
        return not self.rows1.size

    @property
    def triple_keys(self) -> frozenset[TripleKey]:
        """The triples the matched paths traverse, as (side, subject,
        relation, object) keys."""
        t1, t2 = self.tables
        both = np.concatenate([_triple_keys(t1, self.rows1, 0), _triple_keys(t2, self.rows2, 1)])
        return frozenset(map(tuple, both.tolist()))

    def path_matches(self) -> list[PathMatch]:
        """Each matched path pair as step keys read from the table rows, with
        its cosine, in match order."""
        return _path_matches(*self.tables, self.rows1, self.rows2, self.sims)


def _path_matches(
    t1: PathTable, t2: PathTable, rows1: np.ndarray, rows2: np.ndarray, sims: np.ndarray
) -> list[PathMatch]:
    return [
        (t1.key(i), t2.key(j), sim)
        for i, j, sim in zip(rows1.tolist(), rows2.tolist(), sims.tolist())
    ]


def _triple_keys(table: PathTable, rows: np.ndarray, side: int) -> np.ndarray:
    """The triples that the paths in ``rows`` traverse, one (side, s, r, o)
    line each."""
    keys = table.triples[rows].reshape(-1, 3)
    keys = keys[keys[:, 0] >= 0]
    return np.concatenate([np.full((len(keys), 1), side), keys], axis=1)


def _first_per_group(order: np.ndarray, group: np.ndarray) -> np.ndarray:
    """The first entry of ``order`` for each run of equal ``group[order]``."""
    g = group[order]
    return order[np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))]


def _mutual_best(
    t1: PathTable, t2: PathTable, neighbor_pairs: Iterable[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mutual-best path matching for every neighbor pair at once.

    Each neighbor pair is a block: the paths of ``t1`` to its source entity
    against the paths of ``t2`` to its target entity. Within a block a path
    takes the other side's path of highest cosine, the lowest row on ties, and
    a pair is kept when each side is the other's choice. All-zero paths score
    -2.0 and never match. Returns the matched rows of ``t1`` and ``t2``, their
    similarities, and the position in ``neighbor_pairs`` of the pair each
    match was found for, ordered by block, then by ``t1`` row.
    """
    blocks = []
    for pos, (n1, n2) in enumerate(neighbor_pairs):
        g1 = t1.groups.get(n1)
        g2 = t2.groups.get(n2)
        if g1 is not None and g2 is not None:
            blocks.append((g1[0], g1[1] - g1[0], g2[0], g2[1] - g2[0], pos))
    if not blocks:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=np.float64), empty
    start1, len1, start2, len2, pos = np.array(blocks, dtype=np.int64).T
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
    return rows1[keep], rows2[keep], sims[keep], pos[block[keep]]


def matched_neighbors(
    pair: tuple[int, int],
    kg1: Kg,
    kg2: Kg,
    alignments: Mapping[int, int],
    h: int,
) -> list[tuple[int, int]]:
    """Neighbor pairs already matched by ``alignments`` (source -> target)
    within h hops of both centers, excluding the central pair itself; sorted
    by source index. The neighborhoods come from a breadth-first search, so
    no embedding store is needed; ``explanation`` reads the same pairs off
    the path tables."""
    e1, e2 = int(pair[0]), int(pair[1])
    return matched_neighbor_pairs(
        alignments.get,
        neighborhood_entities(kg1, e1, h),
        set(neighborhood_entities(kg2, e2, h)),
    )


def matched_neighbor_pairs(
    target_of: Callable[[int], int | None],
    hood1: Iterable[int],
    hood2: Container[int],
) -> list[tuple[int, int]]:
    """The matched-neighbor rule over given neighborhoods: each ``n1`` of
    ``hood1`` whose aligned target ``target_of(n1)`` lies in ``hood2``, sorted
    by source index. A neighborhood never holds its own center, so the
    central pair is never among them. ``matched_neighbors`` computes the
    neighborhoods by breadth-first search; ``explanation`` and
    ``PairAnalyzer`` pass the endpoint groups of the centers' path tables."""
    hits = []
    for n1 in hood1:
        t = target_of(n1)
        if t is not None and t in hood2:
            hits.append((n1, t))
    hits.sort()
    return hits


def match_paths(
    pair: tuple[int, int],
    neighbor_pair: tuple[int, int],
    store: EmbeddingStore,
    kg1: Kg,
    kg2: Kg,
    h: int,
    index1: PathIndex | None = None,
    index2: PathIndex | None = None,
) -> list[PathMatch]:
    """Mutual-best path matching between the two sides of one neighbor pair,
    as (source path, target path, cosine) with paths as step keys.

    Ties resolve toward the lexicographically first path (enumeration order).
    Paths whose embedding is all-zero never match. Returns an empty list when
    either side has no path to its neighbor.
    """
    index1 = index1 or PathIndex(kg1, store, h)
    index2 = index2 or PathIndex(kg2, store, h)
    t1 = index1.table(int(pair[0]))
    t2 = index2.table(int(pair[1]))
    rows1, rows2, sims, _ = _mutual_best(
        t1, t2, [(int(neighbor_pair[0]), int(neighbor_pair[1]))]
    )
    return _path_matches(t1, t2, rows1, rows2, sims)


def candidate_triples(kg1: Kg, kg2: Kg, pair: tuple[int, int], h: int) -> set[TripleKey]:
    """All triples within h hops of either center, as (side, subject,
    relation, object) keys: the explanation's search space."""
    cand = {(0, *key) for key in neighborhood_triples(kg1, int(pair[0]), h)}
    cand.update((1, *key) for key in neighborhood_triples(kg2, int(pair[1]), h))
    return cand


def explanation(
    pair: tuple[int, int],
    kg1: Kg,
    kg2: Kg,
    store: EmbeddingStore,
    alignments: Mapping[int, int] | None,
    h: int,
    index1: PathIndex | None = None,
    index2: PathIndex | None = None,
    neighbor_pairs: Iterable[tuple[int, int]] | None = None,
) -> Explanation:
    """Build the matched subgraph explanation for one pair.

    Both centers' path tables are built first. ``alignments`` maps source to
    target, and the matched neighbors are read off the tables' endpoints;
    callers holding a pair list build the mapping once, not per call.
    ``neighbor_pairs`` can inject a pre-filtered neighbor list of distinct
    pairs instead, and ``alignments`` is then unread.
    """
    e1, e2 = kg1.check_entity(int(pair[0])), kg2.check_entity(int(pair[1]))
    t1 = (index1 or PathIndex(kg1, store, h)).table(e1)
    t2 = (index2 or PathIndex(kg2, store, h)).table(e2)
    if neighbor_pairs is None:
        neighbor_pairs = matched_neighbor_pairs(alignments.get, t1.groups, t2.groups)
    else:
        neighbor_pairs = list(neighbor_pairs)
    rows1, rows2, sims, neighbor = _mutual_best(t1, t2, neighbor_pairs)
    return Explanation(
        pair=(e1, e2),
        matched_neighbor_pairs=neighbor_pairs,
        tables=(t1, t2),
        rows1=rows1,
        rows2=rows2,
        sims=sims,
        neighbor=neighbor,
    )
