"""Subgraph explanations for alignment pairs.

An explanation for a pair (e1, e2) is built in two moves: find neighbor pairs
that the current alignment already matches within h hops of both centers, then
match the paths leading from each center to its matched neighbor. Both moves
read the centers' rows of a path index: the endpoints of a center's paths are
its h-hop neighborhood. Two paths are matched when each is the other's best
choice by cosine over path embeddings (mutual best). The union of triples
along matched paths is the explanation subgraph.

Performance notes. ``PathIndex`` is one table per side, built in one array
pass over the graph's step index (``Kg.step_keys``) for every center it is
given: the paths as integer step arrays sorted by center and endpoint, their
unit path embeddings as one float64 matrix (gathered, summed and divided by
length in the order ``path_embedding`` adds, in fixed-size row chunks), a mask
of all-zero embeddings, and each path's functionality weight. Its endpoints
are sorted CSR arrays (``hood_key``, ``run_start``, ``hood_start``), so a
neighborhood is a slice, a membership test is one ``np.searchsorted`` over
packed int64 keys, and a block's rows are found for many neighbor pairs at
once. Every row is summed element by element and normed by its own
``np.vecdot``, so its bits do not depend on which centers share the index.
``explanations`` is the one explanation builder: given each pair's neighbor
list and indexes that hold every pair's centers, it scores the path pairs of
many pairs' neighbor pairs together, each neighbor pair a block, with one
``np.vecdot`` per pass, and picks row and column bests with lexsorts per
block that keep the lowest-index tie rule. The repair's ``PairAnalyzer``
builds every graph through it, over one index per side. ``explanation`` (one
pair, its neighbors read off a mapping) and ``match_paths`` (one neighbor
pair) build indexes over the pair's own centers and call the same matcher;
they take no indexes and no neighbor list. A pass takes whole pairs up to
``_PASS_PAIRS`` scored path pairs (a larger pair gets a pass of its own).
That bound is a constant, not a setting: it caps the pass's temporaries, two
gathered unit rows per path pair, and no output depends on it, since every
value is computed per row and per block. ``adg.build_adg`` builds the
dependency graphs of many explanations at once. Similarities and norms go
through ``np.vecdot`` and never through a matrix product or an einsum:
vecdot takes, row by row, the BLAS dot that ``np.dot`` and
``np.linalg.norm`` take for one vector, so every value equals the per-pair
computation bit for bit, where a matrix product or einsum may sum in another
order. In
``tests/test_explain.py``, ``TestBatchedCoreIsExact`` keeps the per-pair
matcher as the reference and ``TestPathIndexIsExact`` the per-center path
build, and both check equality with ``==``.

Everything here is ints: a pair is (source index, target index), a path is
its tuple of step keys (see ``kg``), and a triple is a (side, subject,
relation, object) key, side 0 for the source graph and 1 for the target
graph. An explanation keeps only its matched paths, as rows of the two path
indexes, and for each match the position of its neighbor pair;
``adg.build_adg`` reads both directly. Its triple keys and path step keys are
derived from those rows on read, and labels are looked up only where output is
written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Container, Iterable, Mapping, Sequence

import numpy as np

# path_embedding is the single-path encoding the index reproduces, and
# neighborhood_entities the breadth-first search its endpoint runs
# reproduce; neither has a caller here, and both stay importable from this
# module, where bench/traced_exea.py wraps them
from .embedding import EmbeddingStore, path_embedding  # noqa: F401
from .errors import MissingEmbedding
from .kg import Kg, Step, check_hops, neighborhood_triples
from .kg import neighborhood_entities  # noqa: F401

# a triple of either graph: (side, subject, relation, object)
TripleKey = tuple[int, int, int, int]
# two matched paths, as step keys, and their cosine
PathMatch = tuple[tuple[Step, ...], tuple[Step, ...], float]


_CHUNK = 4096  # rows per pass of the float work, which keeps its temporaries small
# scored path pairs per matcher pass: each gathers two unit rows of 2 * dim
# float64 values, so this bounds the matcher's temporaries however many pairs
# a caller hands it at once
_PASS_PAIRS = 2048


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs ``starts[i], ..., starts[i] + counts[i] - 1``, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts, counts)


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``keys`` would sit in ``sorted_keys``, and whether it is
    there."""
    at = np.searchsorted(sorted_keys, keys)
    if not sorted_keys.size:
        return at, np.zeros(at.shape, dtype=bool)
    return at, sorted_keys.take(at, mode="clip") == keys


class PathIndex:
    """Every simple path of length <= h from the given centers (every entity
    by default) on one side, as arrays whose rows are sorted by (center,
    endpoint, first step, second step): within a center and an endpoint, the
    order in which ``enumerate_paths`` walks them.

    ``steps[p, k]`` is step k of path p as (0 outgoing / 1 incoming, relation,
    entity reached), -1 past the path's length. The endpoints are a sorted
    CSR array: ``hood_key`` holds one packed ``center * n_entities +
    endpoint`` key per run of rows that share a center and an endpoint,
    ascending; run i's rows are ``run_start[i]:run_start[i + 1]`` and center
    c's runs are ``hood_start[c]:hood_start[c + 1]``. A center's endpoints
    are its h-hop neighborhood, the entities
    ``neighborhood_entities`` finds, since every entity within h undirected
    hops ends some simple path of length <= h. ``unit`` holds unit path
    embeddings, with zero rows where ``zero`` marks an all-zero embedding;
    ``weight`` holds the product of per-step functionality weights.
    ``triples[p, k]`` is the (subject, relation, object) triple step k
    traverses, -1 past the path's length.

    Paths and embeddings depend only on the graph, the store and h, so one
    index serves every explanation call on its side.
    """

    def __init__(self, kg: Kg, store: EmbeddingStore, h: int, centers: Iterable[int] | None = None):
        check_hops(h)
        keys, start = kg.step_keys, kg.step_start
        degree = np.diff(start)
        centers = np.unique(np.arange(kg.n_entities) if centers is None else np.fromiter(centers, np.int64))
        # the one-step paths, then each one extended by a step that does not
        # return to its center
        center = np.repeat(centers, degree[centers])
        first = _ranges(start[centers], degree[centers])
        second = np.full(first.size, -1)
        if h == 2:
            reached = keys[first, 2]
            parent = np.repeat(np.arange(first.size), degree[reached])
            more = _ranges(start[reached], degree[reached])
            keep = keys[more, 2] != center[parent]
            parent, more = parent[keep], more[keep]
            center = np.concatenate([center, center[parent]])
            first = np.concatenate([first, first[parent]])
            second = np.concatenate([second, more])
        end = keys[np.where(second < 0, first, second), 2]
        # an anchor's steps are sorted, so step indices order as step keys do
        order = np.lexsort((second, first, end, center))
        center, first, second, end = center[order], first[order], second[order], end[order]
        n = center.size
        self.lengths = np.where(second < 0, 1, 2)
        self.steps = keys[np.stack([first, second], axis=1)[:, :h]]
        self.steps[:, 1:][second < 0] = -1  # past a one-step path's length
        # one run of rows per (center, endpoint), keyed center * n + endpoint
        self.n_entities = n_ent = kg.n_entities
        key = center * n_ent + end
        run = np.flatnonzero(np.diff(key, prepend=-1))
        self.hood_key = key[run]
        self.run_start = np.append(run, n)
        self.hood_start = np.searchsorted(self.hood_key, np.arange(n_ent + 1) * n_ent)
        ents = store.entity_matrix(kg.side)
        if max(centers.max(initial=-1), self.steps[:, :, 2].max(initial=-1)) >= ents.shape[0]:
            raise MissingEmbedding(f"paths on side {kg.side.value} reach entities without vectors")
        rels = store.relation_matrix(kg)
        if self.steps[:, :, 1].max(initial=-1) >= rels.shape[0]:
            raise MissingEmbedding(f"paths on side {kg.side.value} use relations without vectors")
        # per-relation weight of an outgoing step (inverse functionality) and
        # of an incoming one (functionality); relations without triples never
        # appear on a path
        step_weight = np.full((2, kg.n_relations), np.nan)
        for direction, table in enumerate((kg.ifunc_table, kg.func_table)):
            step_weight[direction, list(table)] = list(table.values())
        dim = rels.shape[1]
        self.unit = np.zeros((n, 2 * dim), dtype=np.float64)
        self.zero = np.empty(n, dtype=bool)
        self.weight = np.ones(n, dtype=np.float64)
        self.triples = np.full((n, h, 3), -1)
        for lo in range(0, n, _CHUNK):
            rows = slice(lo, lo + _CHUNK)
            steps, lengths, anchor = self.steps[rows], self.lengths[rows], center[rows]
            unit, weight, triples = self.unit[rows], self.weight[rows], self.triples[rows]
            # the same additions, in the same order, as path_embedding: the
            # anchor plus each intermediate entity in the first half, the step
            # relations in the second, then both halves divided by the length
            unit[:, :dim] = ents[anchor]
            for k in range(h):
                at = np.flatnonzero(lengths > k)
                incoming, r, u = steps[at, k].T
                unit[at, dim:] += rels[r]
                weight[at] *= step_weight[incoming, r]
                inner = np.flatnonzero(lengths > k + 1)
                unit[inner, :dim] += ents[steps[inner, k, 2]]
                a = anchor[at]
                triples[at, k] = np.where(incoming[:, None] == 1, np.c_[u, r, a], np.c_[a, r, u])
                anchor = steps[:, k, 2]
            unit /= lengths[:, None]
            norms = np.sqrt(np.vecdot(unit, unit))
            self.zero[rows] = norms == 0.0
            unit /= np.where(norms == 0.0, 1.0, norms)[:, None]

    def hood(self, center: int) -> np.ndarray:
        """The endpoints of ``center``'s paths, ascending: its h-hop
        neighborhood."""
        runs = slice(self.hood_start[center], self.hood_start[center + 1])
        return self.hood_key[runs] % self.n_entities

    def runs(self, centers: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The first row and the row count of the paths from each of
        ``centers`` to the matching entry of ``ends``; count 0 where none."""
        at, found = _lookup(self.hood_key, centers * self.n_entities + ends)
        start = self.run_start[at]
        return start, self.run_start[at + found] - start

    def key(self, row: int) -> tuple[Step, ...]:
        """The path in ``row`` as ``enumerate_paths`` gives it."""
        return tuple(map(tuple, self.steps[row, : self.lengths[row]].tolist()))


@dataclass(eq=False)
class Explanation:
    """The matched subgraph of one pair.

    The matched paths stay as rows of the two sides' path indexes:
    ``rows1[i]`` of ``indexes[0]`` matched ``rows2[i]`` of ``indexes[1]``
    with cosine ``sims[i]``, both paths leading to the neighbor pair
    ``matched_neighbor_pairs[neighbor[i]]``. Everything else is derived from
    these rows on read, so a cached explanation costs little more than its row
    arrays.
    """

    pair: tuple[int, int]
    matched_neighbor_pairs: list[tuple[int, int]]
    indexes: tuple[PathIndex, PathIndex] = field(repr=False)
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
        i1, i2 = self.indexes
        both = np.concatenate([_triple_keys(i1, self.rows1, 0), _triple_keys(i2, self.rows2, 1)])
        return frozenset(map(tuple, both.tolist()))

    def path_matches(self) -> list[PathMatch]:
        """Each matched path pair as step keys read from the index rows, with
        its cosine, in match order."""
        return _path_matches(*self.indexes, self.rows1, self.rows2, self.sims)


def _path_matches(
    i1: PathIndex, i2: PathIndex, rows1: np.ndarray, rows2: np.ndarray, sims: np.ndarray
) -> list[PathMatch]:
    return [
        (i1.key(i), i2.key(j), sim)
        for i, j, sim in zip(rows1.tolist(), rows2.tolist(), sims.tolist())
    ]


def _triple_keys(index: PathIndex, rows: np.ndarray, side: int) -> np.ndarray:
    """The triples that the paths in ``rows`` traverse, one (side, s, r, o)
    line each."""
    keys = index.triples[rows].reshape(-1, 3)
    keys = keys[keys[:, 0] >= 0]
    return np.concatenate([np.full((len(keys), 1), side), keys], axis=1)


def _first_per_group(order: np.ndarray, group: np.ndarray) -> np.ndarray:
    """The first entry of ``order`` for each run of equal ``group[order]``."""
    g = group[order]
    return order[np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))]


def _mutual_best(
    i1: PathIndex,
    i2: PathIndex,
    items: Sequence[tuple[tuple[int, int], Sequence[tuple[int, int]]]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mutual-best path matching for every neighbor pair of every item, an
    item being a (pair, neighbor pairs) couple.

    Each neighbor pair of an item is a block: the paths in ``i1`` from the
    item's source center to the neighbor's source entity against the paths
    in ``i2`` from its target center to the neighbor's target entity. Within
    a block a path takes the other side's path of highest cosine, the lowest
    row on ties, and a pair is kept when each side is the other's choice.
    All-zero paths score -2.0 and never match. The blocks are scored in
    passes of at most ``_PASS_PAIRS`` path pairs, cut between items; an item
    with more gets a pass of its own. Returns the matched rows of ``i1`` and
    ``i2``, their similarities, the position in its item's neighbor pairs of
    the pair each match was found for, and the position of that item,
    ordered by item, then by block, then by ``i1`` row.
    """
    pairs = np.array([pair for pair, _ in items], dtype=np.int64).reshape(-1, 2)
    counts = np.array([len(neighbor_pairs) for _, neighbor_pairs in items], dtype=np.int64)
    neighbors = np.array(
        [n for _, neighbor_pairs in items for n in neighbor_pairs], dtype=np.int64
    ).reshape(-1, 2)
    item = np.repeat(np.arange(len(items)), counts)
    pos = np.arange(item.size) - np.repeat(np.cumsum(counts) - counts, counts)
    start1, len1 = i1.runs(pairs[item, 0], neighbors[:, 0])
    start2, len2 = i2.runs(pairs[item, 1], neighbors[:, 1])
    blocks = np.stack([start1, len1, start2, len2, pos, item], axis=1)[(len1 > 0) & (len2 > 0)]
    sizes = np.zeros(len(items), dtype=np.int64)
    np.add.at(sizes, blocks[:, 5], blocks[:, 1] * blocks[:, 3])
    # cut between items: a pass ends before the item that would take it past
    # the budget, so an item over the budget gets a pass of its own
    cuts = [0]
    held = 0
    for i, size in enumerate(sizes.tolist()):
        if held and held + size > _PASS_PAIRS:
            cuts.append(i)
            held = 0
        held += size
    bounds = np.searchsorted(blocks[:, 5], cuts + [len(items)]).tolist()
    passes = [_match_blocks(i1, i2, blocks[a:b]) for a, b in zip(bounds, bounds[1:]) if a < b]
    if not passes:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=np.float64), empty, empty
    if len(passes) == 1:
        return passes[0]
    return tuple(np.concatenate(column) for column in zip(*passes))


def _match_blocks(
    i1: PathIndex, i2: PathIndex, blocks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One pass of ``_mutual_best`` over blocks, one (start1, len1, start2,
    len2, neighbor position, item) row each."""
    start1, len1, start2, len2, pos, item = blocks.T
    sizes = len1 * len2
    block = np.repeat(np.arange(len(blocks)), sizes)
    i, j = np.divmod(_ranges(np.zeros_like(sizes), sizes), len2[block])
    rows1 = start1[block] + i
    rows2 = start2[block] + j
    sims = np.vecdot(i1.unit[rows1], i2.unit[rows2])
    sims[i1.zero[rows1] | i2.zero[rows2]] = -2.0
    # one id per (block, source path) and per (block, target path)
    row_id = (np.cumsum(len1) - len1)[block] + i
    col_id = (np.cumsum(len2) - len2)[block] + j
    neg = -sims
    row_best = _first_per_group(np.lexsort((j, neg, row_id)), row_id)
    col_best = _first_per_group(np.lexsort((i, neg, col_id)), col_id)
    keep = row_best[(col_best[col_id[row_best]] == row_best) & (sims[row_best] > -2.0)]
    return rows1[keep], rows2[keep], sims[keep], pos[block[keep]], item[block[keep]]


def matched_neighbor_pairs(
    target_of: Callable[[int], int | None],
    hood1: Iterable[int],
    hood2: Container[int],
) -> list[tuple[int, int]]:
    """The matched-neighbor rule over given neighborhoods: each ``n1`` of
    ``hood1`` whose aligned target ``target_of(n1)`` lies in ``hood2``, sorted
    by source index. A neighborhood never holds its own center, so the
    central pair is never among them. Callers pass the endpoints of
    the centers' paths."""
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
) -> list[PathMatch]:
    """Mutual-best path matching between the two sides of one neighbor pair,
    as (source path, target path, cosine) with paths as step keys, over path
    indexes of the pair's own centers.

    Ties resolve toward the lexicographically first path (enumeration order).
    Paths whose embedding is all-zero never match. Returns an empty list when
    either side has no path to its neighbor.
    """
    e1, e2 = kg1.check_entity(int(pair[0])), kg2.check_entity(int(pair[1]))
    index1, index2 = PathIndex(kg1, store, h, [e1]), PathIndex(kg2, store, h, [e2])
    rows1, rows2, sims, _, _ = _mutual_best(
        index1, index2, [((e1, e2), [(int(neighbor_pair[0]), int(neighbor_pair[1]))])]
    )
    return _path_matches(index1, index2, rows1, rows2, sims)


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
    alignments: Mapping[int, int],
    h: int,
) -> Explanation:
    """Build the matched subgraph explanation for one pair, over path indexes
    of its own centers. ``alignments`` maps source to target, and the matched
    neighbors are read off the endpoints of the centers' paths; callers
    holding a pair list build the mapping once, not per call.
    """
    e1, e2 = kg1.check_entity(int(pair[0])), kg2.check_entity(int(pair[1]))
    index1, index2 = PathIndex(kg1, store, h, [e1]), PathIndex(kg2, store, h, [e2])
    neighbor_pairs = matched_neighbor_pairs(
        alignments.get, index1.hood(e1).tolist(), set(index2.hood(e2).tolist())
    )
    return explanations([(e1, e2)], [neighbor_pairs], index1, index2)[0]


def explanations(
    pairs: Sequence[tuple[int, int]],
    neighbor_lists: Sequence[Iterable[tuple[int, int]]],
    index1: PathIndex,
    index2: PathIndex,
) -> list[Explanation]:
    """The explanation of each pair from its list of distinct neighbor
    pairs, over indexes that hold every pair's centers, with the paths of all
    pairs matched together. Each equals what a call over its pair alone
    builds: a pass keeps every block's rows and tie rule to itself."""
    items = [
        ((int(e1), int(e2)), list(n)) for (e1, e2), n in zip(pairs, neighbor_lists, strict=True)
    ]
    rows1, rows2, sims, neighbor, item = _mutual_best(index1, index2, items)
    bounds = np.searchsorted(item, np.arange(len(items) + 1)).tolist()
    return [
        Explanation(
            pair=pair,
            matched_neighbor_pairs=neighbor_pairs,
            indexes=(index1, index2),
            rows1=rows1[a:b],
            rows2=rows2[a:b],
            sims=sims[a:b],
            neighbor=neighbor[a:b],
        )
        for (pair, neighbor_pairs), a, b in zip(items, bounds, bounds[1:])
    ]
