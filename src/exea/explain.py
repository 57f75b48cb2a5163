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
given, dropping each temporary once consumed (its peak stays within about
twice the finished index). A row holds no embedding, only step ids, the id
of a small relation-half table and a norm; a pass rebuilds the entity half
from the store's entity rows and the step anchors, summed in
``path_embedding``'s order, so no value depends on which centers share the
index. Distinct keys come from a sort
and a run-start mask (``_distinct``, ``_distinct_inverse``), since
``np.unique`` imports ``numpy.ma`` on its first call in a process.
``neighbor_lists`` is the one matched-neighbor rule: a gather of each
pair's source endpoints, their targets in a forward array (-1 for none)
and sorted membership tests against the target's endpoints and the banned
pairs, giving sorted packed int64 keys ``n * n_targets + t``: what the
repair's cache compares and ``explanations``, ``adg.build_adg`` and the
relation-conflict stage read; tuples are derived only for output.
``explanations`` is the one explanation builder: it scores the path pairs
of many neighbor pairs together, each neighbor pair a block, in passes
linear in their scored path pairs, rebuilding unit rows for its blocks'
rows only, with ``path_embedding``'s operations in its order. The repair's
batched confidence read (``adg.pair_confidences``) shares its block
setup (``_block_runs``), keeps a block of one path on each side exactly
when neither path is all-zero and scores only the others. A pass gathers
each path pair's two unit rows a chunk at a
time into two reused buffers of at most ``_DOT_BYTES``, small enough to
come from the heap, and scores each chunk with one ``np.vecdot``. Each
row's and each column's best is the first maximum of its run
(``_first_max``), the lowest-index tie rule, with column runs read through
each block's column-major order, so no sort is needed. A pass takes whole
pairs up to ``_PASS_PAIRS`` scored path pairs, a larger pair one of its
own; both constants cap temporaries and change no output. Similarities
and norms go through ``np.vecdot``, which takes, row by row, the BLAS dot
that ``np.dot`` and ``np.linalg.norm`` take for one vector, where a matrix
product or an einsum may sum in another order. ``explain_pairs`` matches
one pair per ``explanations`` call over one index per side of all its
pairs' centers; ``explanation`` and ``match_paths`` build indexes over one
pair's own centers. In ``tests/test_explain.py``, ``TestBatchedCoreIsExact``
keeps the per-pair matcher as the reference, ``TestPathIndexIsExact`` the
per-center path build, ``TestUnitRowsAreRebuiltExactly`` the whole unit
matrix and ``TestGatherEqualsWalk`` the breadth-first walk.

Everything here is ints: a pair is (source index, target index), a path is
its tuple of step keys (see ``kg``), and a triple is a (side, subject,
relation, object) key, side 0 for the source graph and 1 for the target
graph. An explanation keeps only its packed neighbor keys, its matched
paths as rows of the two path indexes, and for each match the position of
its neighbor pair; ``adg.build_adg`` reads them directly. Its neighbor
pairs as tuples, triple keys and path step keys are derived from those
arrays on read, and labels are looked up only where output is written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

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


_CHUNK = 512  # rows per pass of the norm work, which keeps its temporaries small
# scored path pairs per matcher pass: a pass holds a few int64 positions and
# a score per path pair and rebuilds at most one unit row (2 * dim float64
# values) per path pair and side, so this bounds the matcher's temporaries
# however many pairs a caller hands it at once
_PASS_PAIRS = 2048
# bytes of gathered unit rows per side in one matcher dot chunk: below glibc's
# default 128 KiB mmap threshold, so both buffers come from the heap, whose
# freed memory the next pass reuses, instead of faulting in fresh pages
# each time
_DOT_BYTES = 96 * 1024


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


# distinct values come from a sort and a run-start mask, not np.unique or the
# set routines built on it, whose first call in a process imports numpy.ma
def _run_starts(values: np.ndarray) -> np.ndarray:
    """A mask of where each run of equal values starts."""
    starts = np.ones(values.size, dtype=bool)
    starts[1:] = values[1:] != values[:-1]
    return starts


def _distinct(key: np.ndarray) -> np.ndarray:
    """The distinct keys, sorted."""
    key = np.sort(key)
    return key[_run_starts(key)]


def _distinct_inverse(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct keys, sorted, the position of each one's first
    occurrence in ``key``, and each key's position among them."""
    order = np.argsort(key, kind="stable")
    starts = _run_starts(key[order])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    first = order[starts]
    return key[first], first, inverse


class PathIndex:
    """Every simple path of length <= h from the given centers (every entity
    by default) on one side, as arrays whose rows are sorted by (center,
    endpoint, first step, second step): within a center and an endpoint, the
    order in which ``enumerate_paths`` walks them.

    ``step_ids[p, k]`` is step k of path p as a row of ``step_keys``, the
    graph's step index (shared, not copied), -1 past the path's length;
    ``lengths[p]`` is its step count. The endpoints are a sorted CSR array:
    ``hood_key`` holds one packed ``center * n_entities + endpoint`` key per
    run of rows that share a center and an endpoint, ascending; run i's rows
    are ``run_start[i]:run_start[i + 1]`` and center c's runs are
    ``hood_start[c]:hood_start[c + 1]``. A center's endpoints are its h-hop
    neighborhood, the entities ``neighborhood_entities`` finds, since every
    entity within h undirected hops ends some simple path of length <= h.

    A path's embedding is kept as ids and one norm, not as a row. Its entity
    half, the mean of its center and intermediate entity vectors, is rebuilt
    from ``ents``, the store's float32 entity matrix (shared, not copied), as
    ``(ents[c] + ents[m]) / 2`` in float64: c is the anchor of its first
    step and m that of its second (``step_anchor``, one entry per graph
    step), or c again for a one-step path, where the mean is exactly the
    center's vector.
    ``rel_half[rid[p]]`` is the mean of its relation vectors (one row per
    relation combination the index's paths use), ``norm[p]`` the Euclidean
    norm of the two halves side by side, 1.0 where ``zero`` marks an
    all-zero embedding. ``unit_rows`` rebuilds unit path embeddings for the
    rows asked for. ``weight`` holds the product of per-step functionality
    weights. Past the shared ``step_keys``, a path costs 30 bytes and a run
    12; the other arrays are sized by entities, steps or relation
    combinations.

    Paths and embeddings depend only on the graph, the store and h, so one
    index serves every explanation call on its side.
    """

    def __init__(self, kg: Kg, store: EmbeddingStore, h: int, centers: Iterable[int] | None = None):
        check_hops(h)
        # each temporary is dropped (del, or rebound one array at a time) as
        # soon as it is consumed: the build's peak stays near the finished
        # index instead of holding every pre-sort column beside its sorted copy
        keys, start = kg.step_keys, kg.step_start
        degree = np.diff(start)
        centers = _distinct(np.arange(kg.n_entities) if centers is None else np.fromiter(centers, np.int64))
        # the one-step paths, then each one extended by a step that does not
        # return to its center
        center = np.repeat(centers, degree[centers])
        first = _ranges(start[centers], degree[centers])
        second = np.full(first.size, -1)
        if h == 2:
            reached = keys[first, 2]
            parent = np.repeat(np.arange(first.size), degree[reached])
            more = _ranges(start[reached], degree[reached])
            del reached
            keep = keys[more, 2] != center[parent]
            parent = parent[keep]
            more = more[keep]
            del keep
            center = np.concatenate([center, center[parent]])
            first = np.concatenate([first, first[parent]])
            del parent
            second = np.concatenate([second, more])
            del more
        end = keys[np.where(second < 0, first, second), 2]
        # an anchor's steps are sorted, so step indices order as step keys do
        order = np.lexsort((second, first, end, center))
        center = center[order]
        first = first[order]
        second = second[order]
        end = end[order]
        del order
        n = center.size
        two = second >= 0
        self.lengths = (1 + two).astype(np.int8)
        self.step_keys = keys
        self.n_entities = n_ent = kg.n_entities
        self.step_ids = np.empty((n, h), dtype=np.int32)
        self.step_ids[:, 0] = first
        if h == 2:
            self.step_ids[:, 1] = second
        # the entity each step leaves: a path's center is its first step's
        # anchor and its intermediate entity its second step's
        self.step_anchor = np.repeat(np.arange(n_ent, dtype=np.int32), degree)
        del degree
        second = second[two]
        ents = store.entity_matrix(kg.side)
        middle = keys[first[two], 2]
        if max(centers.max(initial=-1), end.max(initial=-1), middle.max(initial=-1)) >= ents.shape[0]:
            raise MissingEmbedding(f"paths on side {kg.side.value} reach entities without vectors")
        del middle
        self.ents = ents
        rels = store.relation_matrix(kg)
        r1, r2 = keys[first, 1], keys[second, 1]
        if max(r1.max(initial=-1), r2.max(initial=-1)) >= rels.shape[0]:
            raise MissingEmbedding(f"paths on side {kg.side.value} use relations without vectors")
        # one run of rows per (center, endpoint), keyed center * n + endpoint
        key = center * n_ent + end
        del center, end
        run = np.flatnonzero(_run_starts(key))
        self.hood_key = key[run]
        del key
        self.run_start = np.append(run, n).astype(np.int32)
        del run
        self.hood_start = np.searchsorted(self.hood_key, np.arange(n_ent + 1) * n_ent)
        # row 0 weighs an outgoing step (inverse functionality), row 1 an
        # incoming one (functionality); a relation without triples is NaN
        # there and never appears on a path
        step_weight = np.stack([kg.ifunc, kg.func])
        self.weight = step_weight[keys[first, 0], r1]
        del first
        self.weight[two] *= step_weight[keys[second, 0], r2]
        del second
        # the relation half, with the same additions in the same order as
        # path_embedding: 0.0 plus each step relation, divided by the length;
        # a relation combination is keyed r1 * base + r2 + 1, base being the
        # relation count + 1 and r2 = -1 for a one-step path
        base = rels.shape[0] + 1
        rel_key = r1 * base
        del r1
        rel_key[two] += r2 + 1
        del r2
        rel_keys, _, rid = _distinct_inverse(rel_key)
        del rel_key
        self.rid = rid.astype(np.int32)
        del rid
        combo1, combo2 = np.divmod(rel_keys, base)
        self.rel_half = 0.0 + rels[combo1]
        inner = combo2 > 0
        self.rel_half[inner] += rels[combo2[inner] - 1]
        self.rel_half[inner] /= 2
        self.norm = np.empty(n, dtype=np.float64)
        for lo in range(0, n, _CHUNK):
            halves = self._halves(np.arange(lo, min(lo + _CHUNK, n)))
            self.norm[lo : lo + _CHUNK] = np.sqrt(np.vecdot(halves, halves))
        self.zero = self.norm == 0.0
        self.norm[self.zero] = 1.0

    def _halves(self, rows: np.ndarray) -> np.ndarray:
        """The entity and relation halves of ``rows``, side by side. The
        entity half is ``(center + middle) / 2`` in float64 over the store's
        float32 entity rows, the middle being the anchor of a two-step path's
        last step and the center again for a one-step path: a float32 value
        held as float64 doubles and halves exactly, so a one-step path's half
        is its center's vector."""
        ids = self.step_ids.take(rows, axis=0)
        first, last = ids[:, 0], ids[:, -1]
        center = self.ents.take(self.step_anchor.take(first), axis=0)
        middle = self.ents.take(self.step_anchor.take(np.where(last >= 0, last, first)), axis=0)
        # each half is summed and halved as a contiguous block, then the two
        # are copied side by side once: numpy's loops run several times
        # slower on a column slice of the result
        ent = np.add(center, middle, dtype=np.float64)
        ent /= 2
        return np.concatenate([ent, self.rel_half.take(self.rid.take(rows), axis=0)], axis=1)

    def unit_rows(self, rows: np.ndarray) -> np.ndarray:
        """The unit path embeddings of ``rows``, all-zero where ``zero`` is
        set: the halves divided by the norm, as ``path_embedding(...) /
        norm`` computes them, bit for bit."""
        unit = self._halves(rows)
        unit /= self.norm.take(rows)[:, None]
        return unit

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
        return tuple(map(tuple, self.step_keys[self.step_ids[row, : self.lengths[row]]].tolist()))


@dataclass(eq=False)
class Explanation:
    """The matched subgraph of one pair.

    ``neighbor_keys`` holds the matched neighbor pairs (n, t) packed as
    ``n * indexes[1].n_entities + t``, in node order. The matched paths stay
    as rows of the two sides' path indexes: ``rows1[i]`` of ``indexes[0]``
    matched ``rows2[i]`` of ``indexes[1]`` with cosine ``sims[i]``, both
    paths leading to the neighbor pair ``neighbor_keys[neighbor[i]]``.
    Everything else, the neighbor pairs as tuples included, is derived from
    these arrays on read, so an explanation costs little more than them.
    """

    pair: tuple[int, int]
    neighbor_keys: np.ndarray
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
    def matched_neighbor_pairs(self) -> list[tuple[int, int]]:
        """The matched neighbor pairs as (source, target) tuples, in node
        order: the form output is written in."""
        return _unpack_pairs(self.neighbor_keys, self.indexes[1].n_entities)

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


def _unpack_pairs(keys: np.ndarray, n_targets: int) -> list[tuple[int, int]]:
    """The (n, t) pairs that ``n * n_targets + t`` keys pack."""
    n, t = np.divmod(keys, n_targets)
    return list(zip(n.tolist(), t.tolist()))


def _path_matches(
    i1: PathIndex, i2: PathIndex, rows1: np.ndarray, rows2: np.ndarray, sims: np.ndarray
) -> list[PathMatch]:
    return [
        (i1.key(i), i2.key(j), sim)
        for i, j, sim in zip(rows1.tolist(), rows2.tolist(), sims.tolist())
    ]


def _triple_keys(index: PathIndex, rows: np.ndarray, side: int) -> np.ndarray:
    """The triples that the paths in ``rows`` traverse, one (side, s, r, o)
    line each: step k leaves its anchor (``step_anchor``), the center for
    k = 0 and otherwise the entity step k - 1 reached."""
    ids = index.step_ids[rows]
    ids = ids[ids >= 0]
    incoming, r, u = index.step_keys[ids].T
    a = index.step_anchor[ids]
    subject, obj = np.where(incoming == 1, u, a), np.where(incoming == 1, a, u)
    return np.stack([np.full(r.size, side), subject, r, obj], axis=1)


def _split_keys(
    neighbors: Sequence[np.ndarray], n_targets: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n, t) of every packed ``n * n_targets + t`` key of the lists
    ``neighbors``, concatenated, and the position of each key's list."""
    counts = np.array([keys.size for keys in neighbors], dtype=np.int64)
    n, t = np.divmod(np.concatenate([np.zeros(0, dtype=np.int64), *neighbors]), n_targets)
    return n, t, np.repeat(np.arange(counts.size), counts)


def _block_runs(
    i1: PathIndex,
    i2: PathIndex,
    pairs: Sequence[tuple[int, int]],
    neighbors: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each neighbor pair (n, t) of every item, item i being ``pairs[i]``
    with its neighbor pairs ``neighbors[i]``, packed as ``n * i2.n_entities
    + t``, as a block row (start1, len1, start2, len2, item): the run of
    paths in ``i1`` from the item's source center to n and the run in
    ``i2`` from its target center to t, length 0 where there is none; and
    the n and t of each row."""
    n, t, item = _split_keys(neighbors, i2.n_entities)
    centers = np.array(pairs, dtype=np.int64).reshape(-1, 2)[item]
    start1, len1 = i1.runs(centers[:, 0], n)
    start2, len2 = i2.runs(centers[:, 1], t)
    return np.stack([start1, len1, start2, len2, item], axis=1), n, t


def _mutual_best(
    i1: PathIndex,
    i2: PathIndex,
    pairs: Sequence[tuple[int, int]],
    neighbors: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mutual-best path matching for every block of ``_block_runs(i1, i2,
    pairs, neighbors)`` with paths on both sides.

    Within a block a path takes the other side's path of highest cosine,
    the lowest row on ties (the first maximum of its run, ``_first_max``,
    in the block's row-major or column-major order), and a pair is kept
    when each side is the other's choice. All-zero paths score -2.0 and
    never match. Returns the matched rows of ``i1`` and ``i2``, their
    similarities, the position in its item's neighbor pairs of the pair
    each match was found for, and that item's, ordered by item, then by
    block, then by ``i1`` row.
    """
    blocks = _block_runs(i1, i2, pairs, neighbors)[0]
    item = blocks[:, 4]
    at = np.flatnonzero((blocks[:, 1] > 0) & (blocks[:, 3] > 0))
    rows1, rows2, sims, block = _score_passes(i1, i2, blocks[at])
    found = at[block]
    # a block's position in its item's list: its row less the item's first
    return rows1, rows2, sims, found - np.searchsorted(item, item[found]), item[found]


def _score_passes(
    i1: PathIndex, i2: PathIndex, blocks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_score_blocks`` over ``blocks``, one (start1, len1, start2, len2,
    item) row each, by item, in passes of at most ``_PASS_PAIRS`` path
    pairs cut between items (an item over the budget gets a pass of its
    own); each match's block is its row in ``blocks``."""
    starts = np.flatnonzero(_run_starts(blocks[:, 4]))
    sizes = np.add.reduceat(blocks[:, 1] * blocks[:, 3], starts).tolist() if starts.size else []
    bounds, held = [0], 0
    for at, size in zip(starts.tolist(), sizes):
        if held and held + size > _PASS_PAIRS:
            bounds.append(at)
            held = 0
        held += size
    bounds.append(len(blocks))
    passes = [_score_blocks(i1, i2, blocks[a:b]) for a, b in zip(bounds, bounds[1:])]
    if len(passes) == 1:
        return passes[0]
    rows1, rows2, sims, _ = (np.concatenate(column) for column in zip(*passes))
    block = np.concatenate([found[3] + a for found, a in zip(passes, bounds)])
    return rows1, rows2, sims, block


def _score_blocks(
    i1: PathIndex, i2: PathIndex, blocks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The mutual-best pairs of ``blocks``, scored: the matched rows, their
    cosines and each match's block, by block, then by ``i1`` row."""
    start1, len1, start2, len2 = blocks[:, :4].T
    sizes = len1 * len2
    if not sizes.size:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=np.float64), empty
    block = np.repeat(np.arange(sizes.size), sizes)
    # a block's path pairs row-major: source path i, then target path j
    local = _ranges(np.zeros_like(sizes), sizes)
    i, j = np.divmod(local, len2[block])
    # one id per (block, source path) and per (block, target path): the
    # positions of i and j in the blocks' concatenated row runs, so unit
    # rows are rebuilt once per scored block row, not once per path pair
    rows1, rows2 = _ranges(start1, len1), _ranges(start2, len2)
    row_id = (np.cumsum(len1) - len1)[block] + i
    col_id = (np.cumsum(len2) - len2)[block] + j
    u1, u2 = i1.unit_rows(rows1), i2.unit_rows(rows2)
    sims = np.empty(local.size)
    # the pairs' unit rows are gathered a chunk at a time into two reused
    # buffers (mode="clip" takes straight into them; the ids are in range)
    chunk = max(1, _DOT_BYTES // max(1, u1.itemsize * u1.shape[1]))
    a, b = (np.empty((min(chunk, sims.size), u1.shape[1])) for _ in range(2))
    for lo in range(0, sims.size, chunk):
        n = min(chunk, sims.size - lo)
        np.take(u1, row_id[lo : lo + n], axis=0, out=a[:n], mode="clip")
        np.take(u2, col_id[lo : lo + n], axis=0, out=b[:n], mode="clip")
        np.vecdot(a[:n], b[:n], out=sims[lo : lo + n])
    sims[i1.zero[rows1][row_id] | i2.zero[rows2][col_id]] = -2.0
    # each row's best, ties to the lower j: the first maximum of its run
    row_best = _first_max(sims, np.repeat(len2, len1))
    # each column's best, ties to the lower i: the first maximum of its run
    # in each block's column-major order
    j, i = np.divmod(local, len1[block])
    col_major = (np.cumsum(sizes) - sizes)[block] + i * len2[block] + j
    col_best = col_major[_first_max(sims[col_major], np.repeat(len1, len2))]
    keep = row_best[(col_best[col_id[row_best]] == row_best) & (sims[row_best] > -2.0)]
    return rows1[row_id[keep]], rows2[col_id[keep]], sims[keep], block[keep]


def _first_max(scores: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The position of the first maximum of each run of ``scores``, the runs
    laid end to end with the given lengths, none empty: the pick of a sort by
    run, then descending score, then position (-0.0 and 0.0 tie), in one
    reduction and one search."""
    starts = np.cumsum(lengths) - lengths
    best = np.maximum.reduceat(scores, starts)
    hits = np.flatnonzero(scores == np.repeat(best, lengths))
    return hits[np.searchsorted(hits, starts)]


def neighbor_lists(
    index1: PathIndex,
    index2: PathIndex,
    forward: np.ndarray,
    keys: Sequence[tuple[int, int]],
    banned: np.ndarray | None = None,
) -> list[np.ndarray]:
    """The matched-neighbor rule for each (s, t) of ``keys``, in one gather:
    (n, forward[n]) for each endpoint n of s's paths in ``index1``,
    ascending, whose target ends a path of t in ``index2`` and whose packed
    key ``n * index2.n_entities + forward[n]`` is not in the sorted
    ``banned``; each key's pairs as those packed keys, ascending (views of
    one array). A target outside the target graph is none, and a
    neighborhood never holds its own center. Both indexes must hold the
    keys' centers."""
    s, t = np.array(keys, dtype=np.int64).reshape(-1, 2).T
    lo, hi = index1.hood_start[s], index1.hood_start[s + 1]
    # each endpoint n of a key's source, the key's position, n's target
    which = np.repeat(np.arange(len(keys)), hi - lo)
    n = index1.hood_key[_ranges(lo, hi - lo)] % index1.n_entities
    target = forward[n]
    # a target outside the graph would alias another center's packed key
    keep = (target >= 0) & (target < index2.n_entities)
    which, n, target = which[keep], n[keep], target[keep]
    keep = _lookup(index2.hood_key, t[which] * index2.n_entities + target)[1]
    packed = n * index2.n_entities + target
    if banned is not None:
        keep &= ~_lookup(banned, packed)[1]
    packed = packed[keep]
    bounds = np.searchsorted(which[keep], np.arange(len(keys) + 1)).tolist()
    return [packed[a:b] for a, b in zip(bounds, bounds[1:])]


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
    key = np.array([int(neighbor_pair[0]) * kg2.n_entities + int(neighbor_pair[1])])
    rows1, rows2, sims, _, _ = _mutual_best(index1, index2, [(e1, e2)], [key])
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
    of its own centers. ``alignments`` maps source to target; a source
    outside the source graph is never a neighbor, so its entry is dropped.
    """
    forward = np.full(kg1.n_entities, -1, dtype=np.int64)
    for s, t in alignments.items():
        if 0 <= s < kg1.n_entities:
            forward[s] = t
    return next(explain_pairs([pair], kg1, kg2, store, forward, h))


def explain_pairs(
    pairs: Sequence[tuple[int, int]],
    kg1: Kg,
    kg2: Kg,
    store: EmbeddingStore,
    forward: np.ndarray,
    h: int,
) -> Iterator[Explanation]:
    """The explanation of each of ``pairs`` in turn, under the alignment
    ``forward`` (``forward[s]`` the target of source s, -1 for none), over
    one path index per side that holds every pair's centers. Each pair is
    matched in its own ``explanations`` call, which keeps the matcher's
    temporaries to one pair's, and equals its ``explanation``."""
    pairs = [(kg1.check_entity(int(e1)), kg2.check_entity(int(e2))) for e1, e2 in pairs]
    index1 = PathIndex(kg1, store, h, [e1 for e1, _ in pairs])
    index2 = PathIndex(kg2, store, h, [e2 for _, e2 in pairs])
    for pair, neighbors in zip(pairs, neighbor_lists(index1, index2, forward, pairs)):
        yield explanations([pair], [neighbors], index1, index2)[0]


def explanations(
    pairs: Sequence[tuple[int, int]],
    neighbors: Sequence[np.ndarray],
    index1: PathIndex,
    index2: PathIndex,
) -> list[Explanation]:
    """The explanation of each pair from its distinct neighbor pairs, packed
    as ``n * index2.n_entities + t`` (what ``neighbor_lists`` gives), over
    indexes that hold every pair's centers, with the paths of all pairs
    matched together. Each equals what a call over its pair alone builds: a
    pass keeps every block's rows and tie rule to itself."""
    pairs = [(int(e1), int(e2)) for e1, e2 in pairs]
    neighbors = [np.asarray(keys, dtype=np.int64) for keys in neighbors]
    if len(neighbors) != len(pairs):
        raise ValueError(f"{len(pairs)} pairs but {len(neighbors)} neighbor lists")
    rows1, rows2, sims, neighbor, item = _mutual_best(index1, index2, pairs, neighbors)
    bounds = np.searchsorted(item, np.arange(len(pairs) + 1)).tolist()
    return [
        Explanation(
            pair=pair,
            neighbor_keys=keys,
            indexes=(index1, index2),
            rows1=rows1[a:b],
            rows2=rows2[a:b],
            sims=sims[a:b],
            neighbor=neighbor[a:b],
        )
        for pair, keys, a, b in zip(pairs, neighbors, bounds, bounds[1:])
    ]
