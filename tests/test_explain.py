"""Neighbor matching, mutual-best path matching, and explanation assembly."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exea.explain as explain_module
from exea.embedding import EmbeddingStore, path_embedding
from exea.errors import MissingEmbedding
from exea.explain import (
    PathIndex,
    candidate_triples,
    explanation,
    explanations,
    match_paths,
    neighbor_lists,
)
from exea.kg import Kg, Side, enumerate_paths, neighborhood_entities, neighborhood_triples
from exea.repair import AlignmentState, PairAnalyzer, RepairConfig
from exea.synth import SynthConfig, generate_pair

from test_adg import path_weight
from test_embedding import reference_cosine
from test_kg import make_kg, random_kg


def tgt_kg(n_ent, triples, n_rel=None):
    return make_kg(n_ent, triples, n_rel=n_rel, side=Side.TARGET)


def paired_store(rng, n1, n2, dim=4):
    return EmbeddingStore(
        {Side.SOURCE: rng.normal(size=(n1, dim)), Side.TARGET: rng.normal(size=(n2, dim))}
    )


def paths_to(kg, center, end, h):
    """The paths from ``center`` that end at ``end``, in enumeration order."""
    return [p for p in enumerate_paths(kg, center, h) if p[-1][2] == end]


def path_triples(center, steps):
    """The (subject, relation, object) triples a path traverses, in step order."""
    out = []
    anchor = center
    for rank, r, u in steps:
        out.append((anchor, r, u) if rank == 0 else (u, r, anchor))
        anchor = u
    return out


def matched_neighbor_pairs(target_of, hood1, hood2):
    """Reference for the matched-neighbor rule over given neighborhoods, a
    walk apart from the library's gather: each ``n1`` of ``hood1`` whose
    aligned target ``target_of(n1)`` lies in ``hood2``, sorted by source
    index. A neighborhood never holds its own center, so the central pair is
    never among them."""
    hits = []
    for n1 in hood1:
        t = target_of(n1)
        if t is not None and t in hood2:
            hits.append((n1, t))
    hits.sort()
    return hits


def matched_neighbors(pair, kg1, kg2, alignments, h):
    """Reference for the matched-neighbor rule: neighbor pairs already matched
    by ``alignments`` (source -> target) within h hops of both centers,
    excluding the central pair itself; sorted by source index. The
    neighborhoods come from a breadth-first search, so no embedding store is
    needed; the library reads the same pairs off the path indexes."""
    e1, e2 = int(pair[0]), int(pair[1])
    return matched_neighbor_pairs(
        alignments.get,
        neighborhood_entities(kg1, e1, h),
        set(neighborhood_entities(kg2, e2, h)),
    )


def endpoint_runs(index):
    """The endpoint runs of ``index`` read off its CSR arrays: for each
    center with paths, its endpoints, ascending, each mapped to its (start,
    stop) rows."""
    out = {}
    bounds = index.run_start.tolist()
    for i, key in enumerate(index.hood_key.tolist()):
        center, end = divmod(key, index.n_entities)
        out.setdefault(center, {})[end] = (bounds[i], bounds[i + 1])
    return out


def index_steps(index, rows):
    """The paths in ``rows`` as (direction, relation, entity reached) steps,
    -1 past each path's length: the step keys their step ids point to."""
    ids = index.step_ids[rows]
    return np.where(ids[..., None] >= 0, index.step_keys[ids], -1)


def row_triples(index, row):
    """The (subject, relation, object) triples the path in ``row`` traverses,
    in step order, as the library derives them for ``Explanation.triple_keys``."""
    return explain_module._triple_keys(index, np.array([row]), 0)[:, 1:].tolist()


def packed(pairs, n_targets):
    """(n, t) pairs as the packed ``n * n_targets + t`` keys ``explanations``
    takes."""
    return np.array([n * n_targets + t for n, t in pairs], dtype=np.int64)


def unpacked(keys, n_targets):
    """Packed ``n * n_targets + t`` keys as (n, t) pairs."""
    return [divmod(key, n_targets) for key in keys.tolist()]


def indexed_neighbors(pair, idx1, idx2, alignments):
    """The matched neighbors of ``pair`` read off shared path indexes, as
    ``explanation`` reads them off its own."""
    return matched_neighbor_pairs(
        alignments.get,
        endpoint_runs(idx1).get(pair[0], {}),
        endpoint_runs(idx2).get(pair[1], {}),
    )


class TestMatchedNeighbors:
    def test_governor_neighbors(self, governor_case):
        c = governor_case
        got = matched_neighbors((0, 0), c["kg1"], c["kg2"], c["alignments"], h=2)
        assert got == [(1, 1), (2, 2)]
        assert c["kg1"].entity_labels[got[0][0]] == "杰里·布朗"
        assert c["kg2"].entity_labels[got[0][1]] == "Jerry Brown"

    def test_no_alignments_no_pairs(self):
        kg1 = make_kg(2, [(0, 0, 1)])
        kg2 = tgt_kg(2, [(0, 0, 1)])
        assert matched_neighbors((0, 0), kg1, kg2, {}, h=2) == []

    def test_two_hop_neighbor_needs_h_two(self):
        kg1 = make_kg(3, [(0, 0, 1), (1, 0, 2)])
        kg2 = tgt_kg(3, [(0, 0, 1), (1, 0, 2)])
        alignments = {2: 2}
        assert matched_neighbors((0, 0), kg1, kg2, alignments, h=1) == []
        assert matched_neighbors((0, 0), kg1, kg2, alignments, h=2) == [(2, 2)]

    def test_neighbor_aligned_to_center_is_excluded(self):
        kg1 = make_kg(2, [(1, 0, 0)])
        kg2 = tgt_kg(2, [(1, 0, 0)])
        # 1 maps onto the central target itself; the target neighborhood
        # excludes its own center, so no pair may be produced
        assert matched_neighbors((0, 0), kg1, kg2, {1: 0}, h=2) == []

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            kg1 = random_kg(rng, 9, 2, 18)
            kg2 = random_kg(rng, 9, 2, 18, side=Side.TARGET)
            alignments = {
                int(s): int(rng.integers(0, 9)) for s in rng.choice(9, size=5, replace=False)
            }
            for h in (1, 2):
                e1, e2 = int(rng.integers(0, 9)), int(rng.integers(0, 9))
                got = set(matched_neighbors((e1, e2), kg1, kg2, alignments, h))
                n1s = set(neighborhood_entities(kg1, e1, h))
                n2s = set(neighborhood_entities(kg2, e2, h))
                expected = {
                    (n1, n2)
                    for n1 in n1s
                    for n2 in n2s
                    if alignments.get(n1) == n2 and (n1, n2) != (e1, e2)
                }
                assert got == expected

    def test_monotone_in_alignments(self):
        rng = np.random.default_rng(55)
        kg1 = random_kg(rng, 10, 2, 25)
        kg2 = random_kg(rng, 10, 2, 25, side=Side.TARGET)
        base = {0: 0, 3: 3}
        bigger = {**base, 5: 5, 7: 2}
        small = set(matched_neighbors((1, 1), kg1, kg2, base, 2))
        large = set(matched_neighbors((1, 1), kg1, kg2, bigger, 2))
        assert small <= large


class TestGatherEqualsWalk:
    """``neighbor_lists``, the library's one matched-neighbor gather, gives
    the breadth-first walk's lists (``matched_neighbors``) without the banned
    pairs, over indexes of every entity or of the keys' centers alone. The
    alignment may name sources outside the source graph and targets outside
    the target graph or below 0: the walk never finds those in a
    neighborhood, and the gather must mask them, since a target past the
    graph would alias another center's packed endpoint key."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.sampled_from([1, 2]),
        restricted=st.booleans(),
        n_keys=st.integers(1, 6),
    )
    def test_gather_equals_walk(self, seed, h, restricted, n_keys):
        rng = np.random.default_rng(seed)
        n1, n2 = (int(n) for n in rng.integers(3, 10, size=2))
        kg1 = rough_kg(rng, n1, 3, int(rng.integers(1, 2 * n1)), Side.SOURCE)
        kg2 = rough_kg(rng, n2, 3, int(rng.integers(1, 2 * n2)), Side.TARGET)
        store = paired_store(rng, n1, n2)
        alignments = {
            s: int(rng.integers(-3, n2 + 3)) for s in range(-2, n1 + 2) if rng.random() < 0.8
        }
        keys = [(int(rng.integers(n1)), int(rng.integers(n2))) for _ in range(n_keys)]
        centers1, centers2 = zip(*keys) if restricted else (None, None)
        idx1, idx2 = PathIndex(kg1, store, h, centers1), PathIndex(kg2, store, h, centers2)
        forward = np.full(n1, -1)
        for a, b in alignments.items():
            if 0 <= a < n1:
                forward[a] = b
        expected = [matched_neighbors(key, kg1, kg2, alignments, h) for key in keys]
        got = neighbor_lists(idx1, idx2, forward, keys)
        assert all(k.dtype == np.int64 for k in got)
        assert [unpacked(k, n2) for k in got] == expected
        banned = sorted({p for hits in expected for p in hits if rng.random() < 0.4})
        banned_keys = packed(banned, n2)
        got = neighbor_lists(idx1, idx2, forward, keys, banned_keys)
        assert [unpacked(k, n2) for k in got] == [
            [p for p in hits if p not in banned] for hits in expected
        ]
        for key, hits in zip(keys, expected):
            assert explanation(key, kg1, kg2, store, alignments, h).matched_neighbor_pairs == hits


def oracle_mutual_best(store, kg1, kg2, pair, neighbor_pair, h):
    """Recompute mutual-best matching with plain loops over raw cosines."""
    p1 = paths_to(kg1, pair[0], neighbor_pair[0], h)
    p2 = paths_to(kg2, pair[1], neighbor_pair[1], h)
    if not p1 or not p2:
        return []
    sims = [
        [
            reference_cosine(
                path_embedding(store, kg1, pair[0], a), path_embedding(store, kg2, pair[1], b)
            )
            for b in p2
        ]
        for a in p1
    ]
    out = []
    for i in range(len(p1)):
        j = max(range(len(p2)), key=lambda jj: (sims[i][jj], -jj))
        i_back = max(range(len(p1)), key=lambda ii: (sims[ii][j], -ii))
        if i_back == i:
            out.append((p1[i], p2[j], sims[i][j]))
    return out


def reference_match_paths(store, kg1, kg2, pair, neighbor_pair, h, stats=None):
    """The per-pair matcher the batched tables replaced, kept as the exact
    reference: unit path embeddings one path at a time, similarities by
    ``float(np.dot(a, b))``, -2.0 for all-zero paths, argmax both ways.
    ``stats["ties"]``, when given, counts rows and columns whose best
    similarity occurs more than once, where the lowest-index rule decides."""
    p1 = paths_to(kg1, pair[0], neighbor_pair[0], h)
    p2 = paths_to(kg2, pair[1], neighbor_pair[1], h)
    if not p1 or not p2:
        return []

    def unit(kg, center, path):
        vec = path_embedding(store, kg, center, path)
        norm = float(np.linalg.norm(vec))
        return None if norm == 0.0 else vec / norm

    u1 = [unit(kg1, pair[0], p) for p in p1]
    u2 = [unit(kg2, pair[1], p) for p in p2]
    sims = np.full((len(p1), len(p2)), -2.0, dtype=np.float64)
    for i, a in enumerate(u1):
        if a is None:
            continue
        for j, b in enumerate(u2):
            if b is None:
                continue
            sims[i, j] = float(np.dot(a, b))
    best1 = np.argmax(sims, axis=1)
    best2 = np.argmax(sims, axis=0)
    if stats is not None:
        for axis in (0, 1):
            top = sims.max(axis=axis, keepdims=True)
            stats["ties"] += int(((sims == top).sum(axis=axis) > 1)[top.ravel() > -2.0].sum())
    out = []
    for i, j in enumerate(best1):
        if sims[i, j] <= -2.0:
            continue
        if best2[j] == i:
            out.append((p1[i], p2[int(j)], float(sims[i, j])))
    return out


def tied_pair(rng, n_ent, n_rel, n_triples, h, integer):
    """Two graphs and a store built to stress the batched core: reciprocal
    triples (the same relation both ways; the path encoding ignores step
    direction, so such paths tie exactly) and some all-zero entity and
    relation rows (all-zero paths). ``integer``
    picks small integer vectors, which tie more often; otherwise the vectors
    are wide enough that a sum in another order (a matrix product, an
    einsum) changes last bits."""
    def graph(side):
        triples = set()
        while len(triples) < n_triples:
            s, o = (int(x) for x in rng.integers(0, n_ent, size=2))
            if s == o:
                continue
            r = int(rng.integers(0, n_rel))
            triples.add((s, r, o))
            if rng.random() < 0.4:
                triples.add((o, r, s))
        return make_kg(n_ent, sorted(triples), n_rel=n_rel, side=side)

    kg1, kg2 = graph(Side.SOURCE), graph(Side.TARGET)
    if integer:
        ents = {side: rng.integers(-1, 2, size=(n_ent, 3)).astype(float) for side in Side}
        rels = {side: rng.integers(-1, 2, size=(n_rel, 3)).astype(float) for side in Side}
    else:
        ents = {side: rng.normal(size=(n_ent, 24)) for side in Side}
        rels = {side: rng.normal(size=(n_rel, 24)) for side in Side}
    for side in Side:
        ents[side][rng.choice(n_ent, size=2, replace=False)] = 0.0
        rels[side][int(rng.integers(0, n_rel))] = 0.0
    native = rng.random() < 0.5
    store = EmbeddingStore(ents, rels if native else None)
    return kg1, kg2, store


class TestBatchedCoreIsExact:
    """The per-centre tables and the one-vecdot matcher reproduce the
    per-pair computation bit for bit: keys, order and similarity, with ``==``."""

    @pytest.mark.parametrize("h", [1, 2])
    def test_match_paths_equals_reference(self, h):
        rng = np.random.default_rng(1000 + 10 * h)
        compared = 0
        stats = {"ties": 0}
        for trial in range(12):
            kg1, kg2, store = tied_pair(rng, 9, 3, 22, h, integer=trial % 2 == 0)
            idx1 = PathIndex(kg1, store, h)
            idx2 = PathIndex(kg2, store, h)
            for e1, e2 in ((0, 0), (1, 2), (3, 3)):
                for n1 in range(9):
                    for n2 in range(9):
                        expected = reference_match_paths(
                            store, kg1, kg2, (e1, e2), (n1, n2), h, stats
                        )
                        neighbors = [packed([(n1, n2)], kg2.n_entities)]
                        [expl] = explanations([(e1, e2)], neighbors, idx1, idx2)
                        assert expl.path_matches() == expected
                        got = match_paths((e1, e2), (n1, n2), store, kg1, kg2, h)
                        assert got == expected
                        compared += len(expected)
        assert compared > 100
        assert stats["ties"] > 0

    @pytest.mark.parametrize("h", [1, 2])
    def test_explanation_equals_reference_over_all_blocks(self, h):
        rng = np.random.default_rng(2000 + 10 * h)
        for trial in range(12):
            kg1, kg2, store = tied_pair(rng, 10, 3, 25, h, integer=trial % 2 == 0)
            alignments = {int(s): int(rng.integers(0, 10)) for s in range(10)}
            for e in range(0, 10, 3):
                expl = explanation((e, e), kg1, kg2, store, alignments, h)
                expected = []
                for neighbor_pair in expl.matched_neighbor_pairs:
                    expected += reference_match_paths(store, kg1, kg2, (e, e), neighbor_pair, h)
                got = expl.path_matches()
                assert got == expected
                i1, i2 = expl.indexes
                weights = zip(i1.weight[expl.rows1].tolist(), i2.weight[expl.rows2].tolist())
                assert list(weights) == [
                    (path_weight(kg1, a), path_weight(kg2, b)) for a, b, _ in got
                ]
                triples = {(0, *t) for a, _, _ in got for t in path_triples(e, a)}
                triples |= {(1, *t) for _, b, _ in got for t in path_triples(e, b)}
                assert expl.triple_keys == triples

    @pytest.mark.parametrize("budget", ["each", "largest", "default", "all"])
    @pytest.mark.parametrize("h", [1, 2])
    def test_many_pairs_in_one_call_equal_reference(self, monkeypatch, h, budget):
        """One ``explanations`` call over many pairs equals the per-pair
        reference, items without blocks (no neighbor pairs, or none that a
        path reaches) included, whether the pass budget gives each item a pass
        (0), packs items under the largest one's size, stays at its default or
        takes all items in one pass."""
        passes = []
        score_blocks = explain_module._score_blocks

        def counted(i1, i2, blocks):
            passes.append({item for *_, item in blocks.tolist()})
            return score_blocks(i1, i2, blocks)

        monkeypatch.setattr(explain_module, "_score_blocks", counted)
        rng = np.random.default_rng(4000 + 10 * h)
        boundaries = shared = 0
        for trial in range(8):
            kg1, kg2, store = tied_pair(rng, 10, 3, 25, h, integer=trial % 2 == 0)
            idx1, idx2 = PathIndex(kg1, store, h), PathIndex(kg2, store, h)
            alignments = {int(s): int(rng.integers(0, 10)) for s in range(10)}
            pairs = [(int(a), int(b)) for a, b in rng.integers(0, 10, size=(12, 2))]
            lists = [indexed_neighbors(pair, idx1, idx2, alignments) for pair in pairs]
            # no neighbor pairs at all, and a neighbor pair no path reaches
            pairs += [(0, 0), (1, 1)]
            lists += [[], [(1, 1)]]
            sizes = []
            for (e1, e2), neighbor_pairs in zip(pairs, lists):
                g1, g2 = endpoint_runs(idx1).get(e1, {}), endpoint_runs(idx2).get(e2, {})
                sizes.append(sum(
                    (g1[n1][1] - g1[n1][0]) * (g2[n2][1] - g2[n2][0])
                    for n1, n2 in neighbor_pairs if n1 in g1 and n2 in g2
                ))
            limit = {"each": 0, "largest": max(sizes), "default": explain_module._PASS_PAIRS,
                     "all": 10**9}[budget]
            monkeypatch.setattr(explain_module, "_PASS_PAIRS", limit)
            passes.clear()
            got = explanations(pairs, [packed(n, kg2.n_entities) for n in lists], idx1, idx2)
            batch = passes[:]
            assert [(e.pair, e.matched_neighbor_pairs) for e in got] == list(zip(pairs, lists))
            for expl, pair, neighbor_pairs in zip(got, pairs, lists):
                expected, positions = [], []
                for pos, neighbor_pair in enumerate(neighbor_pairs):
                    found = reference_match_paths(store, kg1, kg2, pair, neighbor_pair, h)
                    expected += found
                    positions += [pos] * len(found)
                assert expl.path_matches() == expected
                assert expl.neighbor.tolist() == positions
                [alone] = explanations([pair], [packed(neighbor_pairs, kg2.n_entities)], idx1, idx2)
                assert expl == alone
                assert expl.neighbor.tolist() == alone.neighbor.tolist()
            assert got[-2].no_match and got[-1].no_match
            # an item's blocks share one pass, and a pass of several items
            # stays within the budget
            owners = [item for items in batch for item in items]
            assert len(owners) == len(set(owners))
            assert all(len(items) == 1 or sum(sizes[i] for i in items) <= limit for items in batch)
            assert len(batch) == 1 or budget != "all"
            boundaries += len(batch) - 1
            shared += sum(len(items) > 1 for items in batch)
        assert (boundaries > 0) == (budget in ("each", "largest"))
        assert (shared > 0) == (budget != "each")

    @pytest.mark.parametrize("h", [1, 2])
    def test_dot_chunk_changes_nothing(self, monkeypatch, h):
        """The matcher's dot chunks, one path pair each, the default or a
        whole pass at once, change no matched row, score, neighbor position or
        item, on the fixtures above and, at h = 2, on a dense item over
        ``_PASS_PAIRS``, which gets a pass of its own cut into many default
        chunks."""
        rng = np.random.default_rng(5000 + 10 * h)
        for trial in range(6):
            kg1, kg2, store = tied_pair(rng, 10, 3, 25, h, integer=trial % 2 == 0)
            alignments = {int(s): int(rng.integers(0, 10)) for s in range(10)}
            pairs = [(int(a), int(b)) for a, b in rng.integers(0, 10, size=(12, 2))]
            dense = trial == 0 and h == 2
            if dense:
                # every entity aligned to itself over a dense pair of graphs
                kg1, kg2, store = tied_pair(rng, 12, 2, 70, h, integer=False)
                alignments = {s: s for s in range(12)}
                pairs[0] = (0, 0)
            idx1, idx2 = PathIndex(kg1, store, h), PathIndex(kg2, store, h)
            lists = [indexed_neighbors(pair, idx1, idx2, alignments) for pair in pairs]
            if dense:
                g1, g2 = endpoint_runs(idx1)[0], endpoint_runs(idx2)[0]
                size = sum((g1[n][1] - g1[n][0]) * (g2[t][1] - g2[t][0]) for n, t in lists[0])
                assert size > explain_module._PASS_PAIRS
                row_bytes = idx1.unit_rows(np.array([0])).nbytes
                assert size * row_bytes > 4 * explain_module._DOT_BYTES
            lists = [packed(n, kg2.n_entities) for n in lists]
            got = {}
            for chunk in (1, explain_module._DOT_BYTES, 10**9):
                monkeypatch.setattr(explain_module, "_DOT_BYTES", chunk)
                got[chunk] = explain_module._mutual_best(idx1, idx2, pairs, lists)
            first, *others = got.values()
            assert first[0].size > 0
            for other in others:
                for a, b in zip(first, other):
                    assert a.dtype == b.dtype and a.tolist() == b.tolist()
            if dense:
                [expl] = explanations(pairs[:1], lists[:1], idx1, idx2)
                expected = []
                for neighbor_pair in unpacked(lists[0], kg2.n_entities):
                    expected += reference_match_paths(store, kg1, kg2, (0, 0), neighbor_pair, h)
                assert expl.path_matches() == expected

    @pytest.mark.parametrize("h", [1, 2])
    def test_table_rows_equal_path_embedding_over_norm(self, h):
        rng = np.random.default_rng(3000 + 10 * h)
        zero_rows = 0
        for trial in range(6):
            kg, _, store = tied_pair(rng, 9, 3, 22, h, integer=trial % 2 == 0)
            index = PathIndex(kg, store, h)
            for center in range(9):
                paths = enumerate_paths(kg, center, h)
                runs = endpoint_runs(index).get(center, {})
                rows = [row for a, b in runs.values() for row in range(a, b)]
                assert sorted(index.key(row) for row in rows) == paths
                for row in rows:
                    path = index.key(row)
                    assert index.weight[row] == path_weight(kg, path)
                    assert row_triples(index, row) == [
                        list(t) for t in path_triples(center, path)
                    ]
                    vec = path_embedding(store, kg, center, path)
                    norm = np.linalg.norm(vec)
                    if norm == 0.0:
                        assert index.zero[row]
                        zero_rows += 1
                    else:
                        assert not index.zero[row]
                        assert np.array_equal(index.unit_rows(np.array([row]))[0], vec / norm)
                for end, (start, stop) in runs.items():
                    steps = index_steps(index, np.arange(start, stop))
                    ends = steps[np.arange(stop - start), index.lengths[start:stop] - 1, 2]
                    assert (ends == end).all()
        assert zero_rows > 0


class TestFirstMax:
    """``_first_max`` picks each run's best as the matcher's former sort by
    run, descending score and position did: the highest score, the first
    position on ties, with -0.0 tying 0.0 and -2.0 (an all-zero path's
    score) an ordinary value."""

    scores = st.one_of(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0))

    @settings(max_examples=300, deadline=None)
    @example(runs=[[0.0, -0.0], [-0.0, 0.0], [-0.0]])
    @example(runs=[[-2.0], [-2.0, -2.0], [1.0, 1.0, -2.0]])
    @given(runs=st.lists(st.lists(scores, min_size=1, max_size=8), min_size=1, max_size=12))
    def test_equals_lexsort(self, runs):
        scores = np.array([s for run in runs for s in run])
        lengths = np.array([len(run) for run in runs])
        run = np.repeat(np.arange(len(runs)), lengths)
        order = np.lexsort((np.arange(scores.size), -scores, run))
        first = np.ones(order.size, dtype=bool)
        first[1:] = run[order][1:] != run[order][:-1]
        got = explain_module._first_max(scores, lengths)
        assert got.tolist() == order[first].tolist()


def rough_kg(rng, n_ent, n_rel, n_triples, side):
    """A graph with self-loops, reciprocal triples (o, r, s) beside (s, r, o),
    parallel triples (s, r', o) under a second relation, and two isolated
    entities, the last two indices."""
    linked = n_ent - 2
    triples = set()
    for _ in range(n_triples):
        s, o = (int(x) for x in rng.integers(0, linked, size=2))
        r = int(rng.integers(0, n_rel))
        triples.add((s, r, o))
        if rng.random() < 0.3:
            triples.add((o, r, s))
        if rng.random() < 0.3:
            triples.add((s, (r + 1) % n_rel, o))
    for _ in range(2):
        e = int(rng.integers(0, linked))
        triples.add((e, int(rng.integers(0, n_rel)), e))
    return make_kg(n_ent, sorted(triples), n_rel=n_rel, side=side)


class TestNeighborhoodIsTableEndpoints:
    """A center's h-hop neighborhood is read off its path table: every entity
    within h undirected hops ends some simple path of length <= h, and every
    path endpoint lies within h hops. Checked against the breadth-first
    search of ``neighborhood_entities`` and ``matched_neighbors``, for the
    neighbors ``explanation`` and the repair's ``PairAnalyzer`` read."""

    @pytest.mark.parametrize("h", [1, 2])
    def test_endpoints_equal_breadth_first_neighborhood(self, h):
        rng = np.random.default_rng(4000 + h)
        for _ in range(10):
            kg = rough_kg(rng, 10, 3, 14, Side.SOURCE)
            store = paired_store(rng, 10, 10)
            index = PathIndex(kg, store, h)
            runs = endpoint_runs(index)
            for e in range(kg.n_entities):
                hood = sorted(neighborhood_entities(kg, e, h))
                assert sorted(runs.get(e, {})) == hood
                assert index.hood(e).tolist() == hood

    @pytest.mark.parametrize("h", [1, 2])
    def test_explanation_neighbors_equal_matched_neighbors(self, h):
        rng = np.random.default_rng(5000 + h)
        found = 0
        for _ in range(6):
            kg1 = rough_kg(rng, 9, 3, 12, Side.SOURCE)
            kg2 = rough_kg(rng, 9, 3, 12, Side.TARGET)
            store = paired_store(rng, 9, 9)
            alignments = {int(s): int(rng.integers(0, 9)) for s in range(9) if rng.random() < 0.7}
            state = AlignmentState([], alignments.items(), n_sources=9, n_targets=9)
            analyzer = PairAnalyzer(kg1, kg2, store, state, RepairConfig(h=h))
            for e1 in range(9):
                for e2 in range(9):
                    expected = matched_neighbors((e1, e2), kg1, kg2, alignments, h)
                    expl = explanation((e1, e2), kg1, kg2, store, alignments, h)
                    assert expl.matched_neighbor_pairs == expected
                    [got] = neighbor_lists(analyzer.index1, analyzer.index2, state.forward,
                                           [(e1, e2)])
                    assert unpacked(got, 9) == expected
                    found += len(expected)
        assert found > 0


class TestHoodsAreSymmetric:
    """m lies in ``PathIndex.hood(n)`` exactly when n lies in ``hood(m)``:
    a simple path of at most h undirected steps read backwards is one too.
    The repair's analyzer stamps the sources whose lists a move may change
    as the moved source's own hood, so its stamps rest on this."""

    @settings(max_examples=80, deadline=None)
    @given(
        h=st.sampled_from([1, 2]),
        n_ent=st.integers(1, 9),
        triples=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 2), st.integers(0, 8)), max_size=24
        ),
    )
    @example(h=2, n_ent=4, triples=[(0, 0, 1), (1, 0, 0), (1, 1, 2), (2, 2, 2), (0, 1, 1)])
    def test_membership_is_symmetric(self, h, n_ent, triples):
        triples = sorted({(s % n_ent, r, o % n_ent) for s, r, o in triples})
        kg = make_kg(n_ent, triples, n_rel=3)
        index = PathIndex(kg, paired_store(np.random.default_rng(0), n_ent, n_ent), h)
        hoods = [set(index.hood(n).tolist()) for n in range(n_ent)]
        for n in range(n_ent):
            assert n not in hoods[n]
            for m in range(n_ent):
                assert (m in hoods[n]) == (n in hoods[m])


def reference_table(kg, store, h, center):
    """One center's paths as the per-center build made them, kept as the
    exact reference for ``PathIndex``: ``enumerate_paths`` order, sorted
    stably by endpoint, each row summed as ``path_embedding`` adds. Returns
    the fields by name, ``groups`` with rows counted from 0."""
    out_weight, in_weight = kg.ifunc, kg.func
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
    ends = steps[np.arange(n), lengths - 1, 2].tolist()
    groups = {}
    for row, end in enumerate(ends):
        start, _ = groups.get(end, (row, row))
        groups[end] = (start, row + 1)

    ents = store.entity_matrix(kg.side)
    rels = store.relation_matrix(kg)
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
        weight[rows] *= np.where(incoming, in_weight[r], out_weight[r])
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
    return {"steps": steps, "lengths": lengths, "unit": unit, "zero": zero,
            "weight": weight, "triples": triples, "groups": groups}


ROW_FIELDS = ("steps", "lengths", "unit", "zero", "weight", "triples")


def center_rows(index, center):
    """Center ``center``'s rows of ``index`` by field, as the per-center
    build lays them out: steps and triples derived from the step ids, unit
    rows rebuilt from the halves, ``groups`` with rows counted from the
    center's first row."""
    runs = endpoint_runs(index).get(center, {})
    lo = min((a for a, _ in runs.values()), default=0)
    hi = max((b for _, b in runs.values()), default=0)
    rows = np.arange(lo, hi)
    triples = np.full((rows.size, index.step_ids.shape[1], 3), -1)
    taken = index.step_ids[rows] >= 0
    triples[taken] = explain_module._triple_keys(index, rows, 0)[:, 1:]
    got = {
        "steps": index_steps(index, rows),
        "lengths": index.lengths[rows].astype(np.int64),
        "unit": index.unit_rows(rows),
        "zero": index.zero[rows],
        "weight": index.weight[rows],
        "triples": triples,
    }
    got["groups"] = {e: (a - lo, b - lo) for e, (a, b) in runs.items()}
    return got


def assert_same_rows(got, expected):
    assert got["groups"] == expected["groups"]
    for name in ROW_FIELDS:
        assert got[name].dtype == expected[name].dtype, name
        assert got[name].shape == expected[name].shape, name
        assert (got[name] == expected[name]).all(), name


def rough_store(rng, kg, integer):
    """Vectors for ``kg``'s side with two all-zero entity rows and one
    all-zero relation row; small integers (tie-heavy) or wide normals, and
    native relation vectors half the time."""
    if integer:
        ents = rng.integers(-1, 2, size=(kg.n_entities, 3)).astype(float)
        rels = rng.integers(-1, 2, size=(kg.n_relations, 3)).astype(float)
    else:
        ents = rng.normal(size=(kg.n_entities, 24))
        rels = rng.normal(size=(kg.n_relations, 24))
    ents[rng.choice(kg.n_entities, size=2, replace=False)] = 0.0
    rels[int(rng.integers(0, kg.n_relations))] = 0.0
    native = {kg.side: rels} if rng.random() < 0.5 else None
    return EmbeddingStore({kg.side: ents}, native)


class TestPathIndexIsExact:
    """The side-wide index equals the per-center build row for row: every
    field with ``==``, and each center's groups after its row offset. Graphs
    have self-loops, reciprocal and parallel triples and isolated entities;
    stores have all-zero rows and, every other trial, small integer vectors."""

    @pytest.mark.parametrize("h", [1, 2])
    def test_every_center_equals_reference_build(self, h):
        rng = np.random.default_rng(6000 + h)
        paths = zero = 0
        for trial in range(12):
            side = (Side.SOURCE, Side.TARGET)[trial % 2]
            kg = rough_kg(rng, 12, 3, 20, side)
            store = rough_store(rng, kg, integer=trial % 3 == 0)
            index = PathIndex(kg, store, h)
            for center in range(kg.n_entities):
                expected = reference_table(kg, store, h, center)
                assert_same_rows(center_rows(index, center), expected)
                paths += len(expected["lengths"])
                zero += int(expected["zero"].sum())
        assert paths > 300 * h
        assert zero > 0

    @pytest.mark.parametrize("h", [1, 2])
    def test_center_subsets_give_the_same_rows(self, h):
        rng = np.random.default_rng(7000 + h)
        for trial in range(10):
            kg = rough_kg(rng, 12, 3, 20, Side.SOURCE)
            store = rough_store(rng, kg, integer=trial % 2 == 0)
            full = PathIndex(kg, store, h)
            centers = rng.choice(kg.n_entities, size=int(rng.integers(1, 6)), replace=False)
            part = PathIndex(kg, store, h, centers.tolist())
            # the part's runs are exactly the given centers' runs
            with_paths = [c for c in centers.tolist() if c in endpoint_runs(full)]
            assert sorted(endpoint_runs(part)) == sorted(with_paths)
            for c in centers.tolist():
                assert_same_rows(center_rows(part, c), center_rows(full, c))


def whole_matrix_unit(kg, store, h, index):
    """The unit path embeddings of every row of ``index`` as the index once
    stored them, kept as the exact reference for ``PathIndex.unit_rows``:
    one float64 matrix, the center plus each intermediate entity in the first
    half and each step relation in the second (in ``path_embedding``'s
    order), both divided by the length, then each row by its norm (1.0 for an
    all-zero row), in row chunks of 4096."""
    n = index.lengths.size
    center = np.repeat(index.hood_key // index.n_entities, np.diff(index.run_start))
    steps, lengths = index_steps(index, np.arange(n)), index.lengths.astype(np.int64)
    ents, rels = store.entity_matrix(kg.side), store.relation_matrix(kg)
    dim = rels.shape[1]
    unit = np.zeros((n, 2 * dim), dtype=np.float64)
    for lo in range(0, n, 4096):
        rows = slice(lo, lo + 4096)
        chunk, chunk_steps, chunk_lengths = unit[rows], steps[rows], lengths[rows]
        chunk[:, :dim] = ents[center[rows]]
        for k in range(h):
            at = np.flatnonzero(chunk_lengths > k)
            chunk[at, dim:] += rels[chunk_steps[at, k, 1]]
            inner = np.flatnonzero(chunk_lengths > k + 1)
            chunk[inner, :dim] += ents[chunk_steps[inner, k, 2]]
        chunk /= chunk_lengths[:, None]
        norms = np.sqrt(np.vecdot(chunk, chunk))
        chunk /= np.where(norms == 0.0, 1.0, norms)[:, None]
    return unit


class TestUnitRowsAreRebuiltExactly:
    """``PathIndex`` keeps each path's embedding as two half ids and a norm;
    the rows it rebuilds equal the whole unit matrix it used to store, with
    ``==`` on every row (all-zero rows included), whichever rows a caller
    asks for and in whatever order, and the matcher picks the same matches
    however its passes are cut."""

    @pytest.mark.parametrize("h", [1, 2])
    def test_every_row_equals_whole_matrix_build(self, h):
        rng = np.random.default_rng(8000 + h)
        zero = 0
        for trial in range(8):
            kg, _, store = tied_pair(rng, 10, 3, 24, h, integer=trial % 2 == 0)
            if trial % 4 == 3:
                kg = rough_kg(rng, 12, 3, 20, Side.SOURCE)
                store = rough_store(rng, kg, integer=True)
            centers = None if trial % 3 else rng.choice(kg.n_entities, size=4, replace=False)
            index = PathIndex(kg, store, h, centers)
            expected = whole_matrix_unit(kg, store, h, index)
            n = index.lengths.size
            assert (index.unit_rows(np.arange(n)) == expected).all()
            assert (index.zero == ~expected.any(axis=1)).all()
            picked = rng.integers(0, n, size=3 * n)
            assert (index.unit_rows(picked) == expected[picked]).all()
            zero += int(index.zero.sum())
        assert zero > 0

    @pytest.mark.parametrize("h", [1, 2])
    def test_matcher_output_does_not_depend_on_pass_size(self, monkeypatch, h):
        rng = np.random.default_rng(8100 + h)
        matches = 0
        for trial in range(6):
            kg1, kg2, store = tied_pair(rng, 10, 3, 25, h, integer=trial % 2 == 0)
            idx1, idx2 = PathIndex(kg1, store, h), PathIndex(kg2, store, h)
            unit1 = whole_matrix_unit(kg1, store, h, idx1)
            unit2 = whole_matrix_unit(kg2, store, h, idx2)
            alignments = {int(s): int(rng.integers(0, 10)) for s in range(10)}
            pairs = [(int(a), int(b)) for a, b in rng.integers(0, 10, size=(15, 2))]
            lists = [indexed_neighbors(pair, idx1, idx2, alignments) for pair in pairs]
            lists = [packed(n, kg2.n_entities) for n in lists]
            got = {}
            for budget in (1, explain_module._PASS_PAIRS, 10**9):
                monkeypatch.setattr(explain_module, "_PASS_PAIRS", budget)
                got[budget] = explain_module._mutual_best(idx1, idx2, pairs, lists)
            first, *others = got.values()
            for other in others:
                for a, b in zip(first, other):
                    assert a.dtype == b.dtype and a.tolist() == b.tolist()
            rows1, rows2, sims = first[:3]
            assert sims.tolist() == np.vecdot(unit1[rows1], unit2[rows2]).tolist()
            matches += sims.size
        assert matches > 50


class TestPathIndexMemory:
    def test_array_bytes_per_path(self):
        """A path row holds ids, a norm, a weight and flags, not an embedding:
        every array the index holds, the half tables and the graph's shared
        step index included, comes to at most 64 bytes per path on a dense
        graph (the unit matrix alone took 2 * 32 * 8 = 512)."""
        result = generate_pair(SynthConfig(n_entities=200, density=8.0))
        for kg in (result.kg1, result.kg2):
            index = PathIndex(kg, result.perturbed_store, 2)
            held = sum(v.nbytes for v in vars(index).values() if isinstance(v, np.ndarray))
            assert index.lengths.size > 40_000
            assert held / index.lengths.size <= 64


class TestPathIndexMissingVectors:
    def test_entity_matrix_shorter_than_graph(self):
        kg = tgt_kg(4, [(0, 0, 1), (1, 0, 3)])
        store = EmbeddingStore({Side.TARGET: np.ones((3, 4))}, {Side.TARGET: np.ones((1, 4))})
        with pytest.raises(MissingEmbedding, match="side target reach entities without vectors"):
            PathIndex(kg, store, 2)

    def test_native_relation_vectors_shorter_than_relations(self):
        kg = make_kg(3, [(0, 0, 1), (1, 1, 2)], n_rel=2)
        store = EmbeddingStore({Side.SOURCE: np.ones((3, 4))}, {Side.SOURCE: np.ones((1, 4))})
        with pytest.raises(MissingEmbedding, match="side source use relations without vectors"):
            PathIndex(kg, store, 1)


class TestMatchPaths:
    def test_identical_copies_match_identically(self):
        rng = np.random.default_rng(7)
        triples = [(0, 0, 1), (0, 1, 1), (2, 0, 0)]
        kg1 = make_kg(3, triples, n_rel=2)
        kg2 = tgt_kg(3, triples, n_rel=2)
        rows = rng.normal(size=(3, 5))
        store = EmbeddingStore({Side.SOURCE: rows, Side.TARGET: rows})
        got = match_paths((0, 0), (1, 1), store, kg1, kg2, h=2)
        assert len(got) == len(paths_to(kg1, 0, 1, 2))
        for path1, path2, sim in got:
            assert path1 == path2
            assert sim == pytest.approx(1.0)

    def test_single_paths_forced(self, governor_case):
        c = governor_case
        got = match_paths((0, 0), (1, 1), c["store"], c["kg1"], c["kg2"], h=2)
        assert len(got) == 1
        assert len(got[0][0]) == 1
        assert len(got[0][1]) == 1

    def test_zero_dimension_vectors_match_nothing(self):
        """Vectors of dimension 0 make every path all-zero: its neighbors are
        found and none of its paths match."""
        triples = [(0, 0, 1), (1, 0, 2), (0, 0, 3)]
        kg1, kg2 = make_kg(4, triples, n_rel=1), tgt_kg(4, triples, n_rel=1)
        none = {side: np.zeros((4, 0)) for side in Side}
        store = EmbeddingStore(none, {side: np.zeros((1, 0)) for side in Side})
        expl = explanation((0, 0), kg1, kg2, store, {1: 1, 2: 2, 3: 3}, 2)
        assert expl.matched_neighbor_pairs == [(1, 1), (2, 2), (3, 3)]
        assert expl.no_match

    def test_empty_when_no_connecting_path(self):
        kg1 = make_kg(3, [(0, 0, 1)])
        kg2 = tgt_kg(3, [(0, 0, 1)])
        rng = np.random.default_rng(1)
        store = paired_store(rng, 3, 3)
        assert match_paths((0, 0), (2, 2), store, kg1, kg2, h=2) == []

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(40):
            kg1 = random_kg(rng, 8, 2, 16)
            kg2 = random_kg(rng, 8, 2, 16, side=Side.TARGET)
            store = paired_store(rng, 8, 8)
            e1, e2 = int(rng.integers(0, 8)), int(rng.integers(0, 8))
            n1, n2 = int(rng.integers(0, 8)), int(rng.integers(0, 8))
            if n1 == e1 or n2 == e2:
                continue
            got = match_paths((e1, e2), (n1, n2), store, kg1, kg2, h=2)
            expected = oracle_mutual_best(store, kg1, kg2, (e1, e2), (n1, n2), 2)
            assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in expected]
            for (_, _, s_got), (_, _, s_exp) in zip(got, expected):
                assert s_got == pytest.approx(s_exp, abs=1e-6)
            checked += len(got)
        assert checked > 20


class TestExplanation:
    def test_governor_selected_triples(self, governor_case):
        c = governor_case
        expl = explanation((0, 0), c["kg1"], c["kg2"], c["store"], c["alignments"], h=2)
        assert not expl.no_match
        keys = expl.triple_keys
        assert (0, 0, 0, 1) in keys  # 加文·纽森 前任 杰里·布朗
        assert (1, 1, 0, 0) in keys  # Jerry Brown predecessor Gavin Newsom
        assert (0, 0, 1, 2) in keys
        assert (1, 0, 1, 2) in keys
        assert len(expl.matched_neighbor_pairs) == 2
        assert len(expl.path_matches()) == 2

    def test_no_aligned_neighbors_flags_no_match(self):
        kg1 = make_kg(2, [(0, 0, 1)])
        kg2 = tgt_kg(2, [(0, 0, 1)])
        store = paired_store(np.random.default_rng(3), 2, 2)
        expl = explanation((0, 0), kg1, kg2, store, {}, h=2)
        assert expl.no_match
        assert expl.triple_keys == frozenset()
        assert expl.path_matches() == []

    def test_isomorphic_pair_recovers_full_one_hop_neighborhood(self):
        # reciprocal edges (s,r,o)+(o,r,s) are avoided: the relation half
        # ignores step direction, so their path embeddings tie exactly and mutual-best keeps one
        rng = np.random.default_rng(77)
        for _ in range(5):
            triples = []
            seen = set()
            while len(triples) < 20:
                s, o = (int(x) for x in rng.integers(0, 8, size=2))
                r = int(rng.integers(0, 3))
                if s == o or (s, r, o) in seen or (o, r, s) in seen:
                    continue
                seen.add((s, r, o))
                triples.append((s, r, o))
            kg1 = make_kg(8, triples, n_rel=3)
            kg2 = tgt_kg(8, list(kg1.triple_keys), n_rel=3)
            rows = rng.normal(size=(8, 6))
            store = EmbeddingStore({Side.SOURCE: rows, Side.TARGET: rows})
            identity = {i: i for i in range(8)}
            center = int(rng.integers(0, 8))
            if not neighborhood_entities(kg1, center, 1):
                continue
            expl = explanation((center, center), kg1, kg2, store, identity, h=1)
            expected = {(0, *t) for t in neighborhood_triples(kg1, center, 1)}
            expected |= {(1, *t) for t in neighborhood_triples(kg2, center, 1)}
            assert expl.triple_keys == expected

    def test_triples_stay_inside_candidate_set(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            kg1 = random_kg(rng, 9, 2, 20)
            kg2 = random_kg(rng, 9, 2, 20, side=Side.TARGET)
            store = paired_store(rng, 9, 9)
            alignments = {i: i for i in range(9)}
            e = int(rng.integers(0, 9))
            for h in (1, 2):
                expl = explanation((e, e), kg1, kg2, store, alignments, h=h)
                assert expl.triple_keys <= candidate_triples(kg1, kg2, (e, e), h)

    def test_path_triples_follow_steps(self):
        # 0 -r0-> 1 <-r1- 2: the table row of the two-step path from 0 holds
        # the triples it traverses, in step order
        kg = make_kg(3, [(0, 0, 1), (2, 1, 1)])
        store = EmbeddingStore({Side.SOURCE: np.random.default_rng(2).normal(size=(3, 4))})
        index = PathIndex(kg, store, 2, [0])
        rows = np.flatnonzero(index.lengths == 2).tolist()
        assert [index.key(row) for row in rows] == [((0, 0, 1), (1, 1, 2))]
        assert row_triples(index, rows[0]) == [[0, 0, 1], [2, 1, 1]]

    def test_shared_path_index_reuse(self, governor_case):
        c = governor_case
        idx1 = PathIndex(c["kg1"], c["store"], 2)
        idx2 = PathIndex(c["kg2"], c["store"], 2)
        neighbors = indexed_neighbors((0, 0), idx1, idx2, c["alignments"])
        [a] = explanations([(0, 0)], [packed(neighbors, c["kg2"].n_entities)], idx1, idx2)
        b = explanation((0, 0), c["kg1"], c["kg2"], c["store"], c["alignments"], 2)
        assert a.triple_keys == b.triple_keys
        assert a == b
