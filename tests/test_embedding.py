"""Embedding store, translation-derived relation vectors, path encodings,
similarity search, and the on-disk embedding format."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

import exea.embedding as embedding_module
from exea.embedding import (
    EmbeddingStore,
    greedy_align,
    load_embeddings,
    pair_cosines,
    path_embedding,
    save_embeddings,
    similarity_matrix,
    similarity_topk,
)
from exea.errors import MalformedLine, MissingEmbedding, NoRelationVectors, ZeroVector
from exea.kg import Kg, Side, enumerate_paths

from test_kg import make_kg


def reference_cosine(u, v) -> float:
    """Cosine in 64-bit as ``np.dot`` over the product of ``np.linalg.norm``:
    the per-pair computation that ``pair_cosines`` must equal bit for bit."""
    a = np.asarray(u, dtype=np.float64).ravel()
    b = np.asarray(v, dtype=np.float64).ravel()
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine is undefined for a zero vector")
    return float(np.dot(a, b) / (na * nb))


def one_pair_cosine(u, v) -> float:
    """``pair_cosines`` of two vectors, each in a one-row store."""
    st = store_from([u], [v])
    return pair_cosines(st, Side.SOURCE, [0], Side.TARGET, [0]).item()


def exact_rows(store, side, indices):
    """The rows ``indices`` of ``side`` over their ``np.linalg.norm``."""
    rows = store.entity_matrix(side)[list(indices)].astype(np.float64)
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def reference_sims(store, sources, targets):
    """Every cosine as one broadcast ``np.vecdot`` of rows over their
    ``np.linalg.norm``."""
    a, b = exact_rows(store, Side.SOURCE, sources), exact_rows(store, Side.TARGET, targets)
    return np.vecdot(a[:, None, :], b)


def reference_topk(store, sources, targets, k):
    """Top-k by one full sort of ``reference_sims``: each row ordered by a
    stable ``np.argsort`` of the negated scores, so ties go to the target
    listed first and -0.0 ties 0.0."""
    sims = reference_sims(store, sources, targets)
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    return np.asarray(targets, dtype=np.int64)[order], np.take_along_axis(sims, order, axis=1)


def bits(scores):
    """Each score's float64 bits, so -0.0 and 0.0 differ."""
    return np.asarray(scores, dtype=np.float64).view(np.int64).tolist()


def store_from(src_rows, tgt_rows=None, **kw):
    mats = {Side.SOURCE: np.asarray(src_rows, dtype=np.float64)}
    if tgt_rows is not None:
        mats[Side.TARGET] = np.asarray(tgt_rows, dtype=np.float64)
    return EmbeddingStore(mats, **kw)


class TestStore:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            store_from([[1.0, np.nan]])

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            store_from([[1.0, 0.0]], [[1.0, 0.0, 0.0]])

    def test_float32_storage_float64_reads(self):
        st = store_from([[0.1, 0.2]])
        assert st.entity_matrix(Side.SOURCE).dtype == np.float32
        assert st.entity_vec(Side.SOURCE, 0).dtype == np.float64

    def test_missing_rows(self):
        st = store_from([[1.0, 0.0]])
        with pytest.raises(MissingEmbedding):
            st.entity_vec(Side.SOURCE, 3)
        with pytest.raises(MissingEmbedding):
            st.entity_matrix(Side.TARGET)
        with pytest.raises(NoRelationVectors):
            st.relation_vecs(Side.SOURCE)


class TestDeriveRelationEmbedding:
    def test_single_triple_translation(self):
        kg = make_kg(2, [(0, 0, 1)])
        st = store_from([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(st.relation_matrix(kg)[0], [1.0, -1.0])

    def test_average_over_triples(self):
        kg = make_kg(4, [(0, 0, 1), (2, 0, 3)])
        st = store_from([[2.0, 0.0], [0.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
        np.testing.assert_allclose(st.relation_matrix(kg)[0], [1.0, 2.0])

    def test_model_vectors_take_precedence(self):
        kg = make_kg(2, [(0, 0, 1)])
        st = store_from(
            [[1.0, 0.0], [0.0, 1.0]],
            relation_vecs={Side.SOURCE: [[5.0, 5.0]]},
        )
        np.testing.assert_allclose(st.relation_matrix(kg)[0], [5.0, 5.0])
        np.testing.assert_allclose(st.derived_relation_matrix(kg)[0], [1.0, -1.0])

    def test_relation_without_triples(self):
        kg = make_kg(2, [(0, 0, 1)], n_rel=2)
        st = store_from([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(st.relation_matrix(kg)[1], [0.0, 0.0])

    def test_each_graph_gets_its_own_matrix(self):
        # two source-side graphs with one relation each share a store; the
        # second must not be served the first one's cached matrix
        st = store_from([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        first = make_kg(3, [(0, 0, 1)], n_rel=1, side=Side.SOURCE)
        second = make_kg(3, [(2, 0, 0)], n_rel=1, side=Side.SOURCE)
        np.testing.assert_array_equal(st.relation_matrix(first)[0], [1.0, -1.0])
        np.testing.assert_array_equal(st.relation_matrix(second)[0], [0.0, 1.0])
        np.testing.assert_array_equal(st.relation_matrix(first)[0], [1.0, -1.0])

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(3)
        from test_kg import random_kg

        for _ in range(10):
            kg = random_kg(rng, 8, 3, 20)
            st = store_from(rng.normal(size=(8, 5)))
            ents = st.entity_matrix(Side.SOURCE).astype(np.float64)
            for r, count in Counter(r for _, r, _ in kg.triple_keys).items():
                acc = np.zeros(5)
                for s, rr, o in kg.triple_keys:
                    if rr == r:
                        acc += ents[s] - ents[o]
                np.testing.assert_allclose(
                    st.relation_matrix(kg)[r], acc / count, atol=1e-12
                )


class TestPathEmbedding:
    def setup_method(self):
        # chain 0 -r0-> 1 -r1-> 2
        self.kg = make_kg(3, [(0, 0, 1), (1, 1, 2)])
        self.ents = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])

    def test_length_one_concatenates_center_and_relation(self):
        st = store_from(self.ents)
        steps = enumerate_paths(self.kg, 0, 1)[0]
        rel = st.relation_matrix(self.kg)[0]
        got = path_embedding(st, self.kg, 0, steps)
        np.testing.assert_allclose(got, np.concatenate([[1.0, 0.0], rel]))
        assert got.shape == (2 * st.dim,)

    def test_length_two_excludes_endpoint_entity(self):
        st = store_from(self.ents)
        steps = [p for p in enumerate_paths(self.kg, 0, 2) if len(p) == 2][0]
        r0, r1 = st.relation_matrix(self.kg)
        expected = np.concatenate([(self.ents[0] + self.ents[1]) / 2, (r0 + r1) / 2])
        np.testing.assert_allclose(path_embedding(st, self.kg, 0, steps), expected, rtol=1e-6)

    def test_zero_relation_vectors_leave_entity_half(self):
        st = store_from(self.ents, relation_vecs={Side.SOURCE: np.zeros((2, 2))})
        steps = [p for p in enumerate_paths(self.kg, 0, 2) if len(p) == 2][0]
        expected = np.concatenate([(self.ents[0] + self.ents[1]) / 2, [0.0, 0.0]])
        np.testing.assert_allclose(path_embedding(st, self.kg, 0, steps), expected, rtol=1e-6)


class TestCosine:
    def test_reference_values(self):
        assert one_pair_cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
        assert one_pair_cosine([1.0, 1.0], [2.0, 2.0]) == pytest.approx(1.0)
        assert one_pair_cosine([1.0, 0.0], [-3.0, 0.0]) == pytest.approx(-1.0)

    def test_scale_invariance(self):
        # the store narrows to float32, so the factors are powers of two,
        # which scale a float32 vector without rounding
        rng = np.random.default_rng(9)
        for _ in range(25):
            u, v = rng.normal(size=(2, 6))
            a = 2.0 ** int(rng.integers(-3, 4))
            assert one_pair_cosine(u, v) == pytest.approx(one_pair_cosine(a * u, v), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            one_pair_cosine([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroVector):
            one_pair_cosine([1.0, 0.0], [0.0, 0.0])


class TestCachedRowCosines:
    """pair_cosines reuses cached float64 rows and norms and still equals
    ``reference_cosine`` of the two entity vectors bit for bit."""

    def test_equal_to_cosine(self):
        rng = np.random.default_rng(41)
        st = store_from(rng.normal(size=(30, 32)), rng.normal(size=(25, 32)))
        norms = st.entity_norms(Side.SOURCE)
        for i in range(30):
            assert norms[i] == np.linalg.norm(st.entity_vec(Side.SOURCE, i))
        src = rng.integers(0, 30, size=200)
        tgt = rng.integers(0, 25, size=200)
        batch = pair_cosines(st, Side.SOURCE, src, Side.TARGET, tgt).tolist()
        for s, t, got in zip(src.tolist(), tgt.tolist(), batch):
            expected = reference_cosine(st.entity_vec(Side.SOURCE, s), st.entity_vec(Side.TARGET, t))
            assert got == expected

    def test_zero_and_missing_rows_rejected(self):
        st = store_from([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(ZeroVector):
            pair_cosines(st, Side.SOURCE, [1, 0], Side.TARGET, [0, 0])
        with pytest.raises(MissingEmbedding):
            pair_cosines(st, Side.SOURCE, [2], Side.TARGET, [0])
        with pytest.raises(MissingEmbedding):
            pair_cosines(st, Side.SOURCE, [1], Side.TARGET, [-1])


class TestSimilaritySearch:
    def test_topk_ranks_match_full_sort(self):
        rng = np.random.default_rng(17)
        st = store_from(rng.normal(size=(9, 4)), rng.normal(size=(13, 4)))
        sims = similarity_matrix(st, range(9), range(13))
        targets, scores = similarity_topk(st, range(9), range(13), k=5)
        for i in range(9):
            full = sorted(range(13), key=lambda j: (-sims[i, j], j))
            assert list(targets[i]) == full[:5]
            np.testing.assert_allclose(scores[i], sims[i, full[:5]])

    def test_ties_break_toward_lower_target_index(self):
        st = store_from([[1.0, 0.0]], [[2.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        targets, _ = similarity_topk(st, [0], [0, 1, 2], k=3)
        assert list(targets[0]) == [0, 1, 2]

    def test_block_partitioning_does_not_change_results(self, monkeypatch):
        """Blocks of 1 to 17 rows (where BLAS matrix kernels switch), of
        nearly all rows and of all rows, and a budget under one row's scores
        (one row per block), give the same top-k at several widths; every
        score equals the per-pair ``np.dot`` of the normalized rows. On
        targets with tied scores, every block size keeps the lowest targets
        of the run that k cuts."""
        rng = np.random.default_rng(29)
        for dim in (6, 32, 64):
            st = store_from(rng.normal(size=(40, dim)), rng.normal(size=(25, dim)))
            monkeypatch.setattr(embedding_module, "_TOPK_BLOCK_BYTES", 8 * 25 * 4096)
            whole_targets, whole_scores = similarity_topk(st, range(40), range(25), k=4)
            a, b = (st.entity_matrix(side).astype(np.float64) for side in (Side.SOURCE, Side.TARGET))
            a, b = a / np.linalg.norm(a, axis=1)[:, None], b / np.linalg.norm(b, axis=1)[:, None]
            for i in range(40):
                expected = [float(np.dot(a[i], b[j])) for j in whole_targets[i]]
                assert whole_scores[i].tolist() == expected
            for budget in [8 * 25 * rows for rows in [*range(1, 18), 39]] + [8 * 25 - 1, 0]:
                monkeypatch.setattr(embedding_module, "_TOPK_BLOCK_BYTES", budget)
                targets, scores = similarity_topk(st, range(40), range(25), k=4)
                np.testing.assert_array_equal(targets, whole_targets)
                np.testing.assert_array_equal(scores, whole_scores)
        # targets that repeat six rows, so that scores tie in runs of four or
        # five targets and k cuts through a run: every budget from one row
        # per block to all rows in one gives the lowest targets of the run
        rows = rng.normal(size=(6, 8))
        st = store_from(rng.normal(size=(40, 8)), rows[np.arange(25) % 6])
        a, b = (st.entity_matrix(side).astype(np.float64) for side in (Side.SOURCE, Side.TARGET))
        a, b = a / np.linalg.norm(a, axis=1)[:, None], b / np.linalg.norm(b, axis=1)[:, None]
        sims = [[float(np.dot(u, v)) for v in b] for u in a]
        for k in (3, 7, 25):
            expected = [sorted(range(25), key=lambda j: (-row[j], j))[:k] for row in sims]
            cut = sum(row[ranked[-1]] in [row[j] for j in range(25) if j not in ranked]
                      for row, ranked in zip(sims, expected))
            assert cut > 0 or k == 25
            for rows_per_block in range(1, 41):
                monkeypatch.setattr(embedding_module, "_TOPK_BLOCK_BYTES", 8 * 25 * rows_per_block)
                targets, scores = similarity_topk(st, range(40), range(25), k=k)
                assert targets.tolist() == expected
                assert scores.tolist() == [
                    [row[j] for j in ranked] for row, ranked in zip(sims, expected)
                ]

    @pytest.mark.parametrize("negative", [None, 0, 2, 3])
    def test_tie_at_the_kth_score_goes_to_the_lower_target(self, monkeypatch, negative):
        """k cuts through a run of exactly tied targets (cosine 0.0, one of
        them -0.0 where ``negative`` says) on every source, in blocks of one
        to all six sources, so the boundaries fall between tied rows in
        every way: every blocking keeps the lower tied targets, target 0
        and target 2, and drops target 3."""
        targets = [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 2.0], [-1.0, 0.0]]
        st = store_from([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]] * 2, targets)
        vecdot = np.vecdot

        def signed(*args, **kwargs):
            # a score of 0.0 read as -0.0 on the target ``negative``
            sims = vecdot(*args, **kwargs)
            flip = (np.arange(len(targets)) == negative) & (sims == 0.0)
            return np.where(flip, -0.0, sims)

        monkeypatch.setattr(np, "vecdot", signed)
        results = []
        for rows_per_block in range(1, 7):
            monkeypatch.setattr(embedding_module, "_TOPK_BLOCK_BYTES", 8 * 5 * rows_per_block)
            ranked, scores = similarity_topk(st, range(6), range(5), k=3)
            results.append((ranked.tolist(), scores.tolist()))
            if negative is not None and negative < 3:
                assert np.signbit(scores[:, 1 + (negative == 2)]).all()
        assert results == [([[1, 0, 2]] * 6, [[1.0, 0.0, 0.0]] * 6)] * 6

    def test_matrix_rows_do_not_depend_on_the_rows_scored_with_them(self):
        """A subset of 1 to 17 sources (where BLAS matrix kernels switch)
        gets, with ``==``, the rows the full matrix gives them, so
        ``greedy_align`` over a sampled subset picks what it picks over all
        sources; every entry equals the per-pair ``np.dot`` of the
        normalized rows."""
        rng = np.random.default_rng(31)
        for dim in (3, 32, 64):
            st = store_from(rng.normal(size=(40, dim)), rng.normal(size=(25, dim)))
            whole = similarity_matrix(st, range(40), range(25))
            a, b = (st.entity_matrix(side).astype(np.float64) for side in (Side.SOURCE, Side.TARGET))
            a, b = a / np.linalg.norm(a, axis=1)[:, None], b / np.linalg.norm(b, axis=1)[:, None]
            assert whole.tolist() == [[float(np.dot(u, v)) for v in b] for u in a]
            for rows in range(1, 18):
                for start in (0, 40 - rows):
                    got = similarity_matrix(st, range(start, start + rows), range(25))
                    assert got.tolist() == whole[start : start + rows].tolist()

    def test_k_wider_than_targets(self):
        st = store_from([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
        targets, scores = similarity_topk(st, [0], [0, 1], k=10)
        assert targets.shape == scores.shape == (1, 2)

    def test_greedy_align_is_rowwise_argmax(self, monkeypatch):
        """Equal to the dense matrix's first row maximum, target and score
        bits, in blocks of one to all eight sources, with targets 3 and 9
        copies of targets 1 and 2 so that some maxima tie."""
        rng = np.random.default_rng(37)
        tgt = rng.normal(size=(11, 5))
        tgt[[3, 9]] = tgt[[1, 2]]
        st = store_from(rng.normal(size=(8, 5)), tgt)
        sims = similarity_matrix(st, range(8), range(11))
        for rows_per_block in (1, 3, 8):
            monkeypatch.setattr(embedding_module, "_TOPK_BLOCK_BYTES", 8 * 11 * rows_per_block)
            got = greedy_align(st, range(8), range(11))
            assert [s for s, _, _ in got] == list(range(8))
            for s, t, score in got:
                assert t == int(np.argmax(sims[s]))
                assert score.hex() == float(sims[s, t]).hex()

    def test_zero_vector_raises(self):
        st = store_from([[0.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(ZeroVector):
            similarity_topk(st, [0], [0], k=1)


@strategies.composite
def topk_cases(draw):
    """Small stores whose rows take values in {-2, -1, 0, 1, 2} (or a few
    rounded normals), so that many scores tie exactly and zeros are common,
    with no zero row; a k up to past the target count; a block budget; and a
    sample of sources in any order, repeats allowed."""
    n_s = draw(strategies.integers(1, 9))
    n_t = draw(strategies.integers(1, 9))
    dim = draw(strategies.sampled_from([1, 2, 3, 8, 32]))
    seed = draw(strategies.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(strategies.booleans()):
        rows = rng.integers(-2, 3, size=(n_s + n_t, dim)).astype(np.float64)
    else:
        rows = np.round(rng.normal(size=(n_s + n_t, dim)), 1)
    rows[~rows.any(axis=1), 0] = 1.0
    # repeat some target rows, so whole runs of targets tie
    dup = rng.integers(0, n_t, size=n_t)
    copy = rng.random(n_t) < 0.4
    rows[n_s:][copy] = rows[n_s:][dup[copy]]
    store = store_from(rows[:n_s], rows[n_s:])
    k = draw(strategies.integers(1, n_t + 2))
    rows_per_block = draw(strategies.integers(1, n_s))
    sample = draw(strategies.lists(strategies.integers(0, n_s - 1), min_size=1, max_size=2 * n_s))
    return store, n_s, n_t, k, rows_per_block, sample


def signed_zeros(vecdot):
    """``vecdot`` with a 0.0 score read as -0.0 against every target whose
    last component is negative, so the kernel and the reference meet the
    same signed zeros."""

    def signed(x, y, **kwargs):
        sims = vecdot(x, y, **kwargs)
        return np.where((y[..., -1] < 0) & (sims == 0.0), -0.0, sims)

    return signed


class TestTopKIsExact:
    """``similarity_topk`` equals a full stable-argsort reference
    (``reference_topk``), with ``==`` on the targets and the score bits, on
    stores full of exact ties, with -0.0 against 0.0, at every block size,
    and for any subset of sources in any order, whose rows equal those of
    the all-sources call: one-to-many asks only for the sources it queues."""

    @settings(max_examples=200, deadline=None)
    @given(case=topk_cases(), negative_zeros=strategies.booleans())
    def test_equals_full_sort(self, case, negative_zeros):
        store, n_s, n_t, k, rows_per_block, sample = case
        with pytest.MonkeyPatch.context() as m:
            m.setattr(embedding_module, "_TOPK_BLOCK_BYTES", 8 * n_t * rows_per_block)
            if negative_zeros:
                m.setattr(np, "vecdot", signed_zeros(np.vecdot))
            expected = reference_topk(store, range(n_s), range(n_t), k)
            targets, scores = similarity_topk(store, range(n_s), range(n_t), k)
            sub_targets, sub_scores = similarity_topk(store, sample, range(n_t), k)
        assert targets.tolist() == expected[0].tolist()
        assert bits(scores) == bits(expected[1])
        assert sub_targets.tolist() == targets[sample].tolist()
        assert bits(sub_scores) == bits(scores[sample])


class TestEmbeddingFiles:
    def roundtrip(self, tmp_path, binary):
        rng = np.random.default_rng(5)
        st = EmbeddingStore(
            {Side.SOURCE: rng.normal(size=(4, 3)), Side.TARGET: rng.normal(size=(5, 3))},
            relation_vecs={Side.SOURCE: rng.normal(size=(2, 3))},
            name_relation_vecs={Side.TARGET: rng.normal(size=(2, 3))},
        )
        path = tmp_path / ("emb.bin" if binary else "emb.tsv")
        save_embeddings(path, st, binary=binary)
        back = load_embeddings(path)
        for side in (Side.SOURCE, Side.TARGET):
            np.testing.assert_array_equal(back.entity_matrix(side), st.entity_matrix(side))
        np.testing.assert_array_equal(back.relation_vecs(Side.SOURCE), st.relation_vecs(Side.SOURCE))
        np.testing.assert_array_equal(
            back.name_relation_vecs(Side.TARGET), st.name_relation_vecs(Side.TARGET)
        )

    def test_text_round_trip_is_exact(self, tmp_path):
        self.roundtrip(tmp_path, binary=False)

    def test_binary_round_trip_is_exact(self, tmp_path):
        self.roundtrip(tmp_path, binary=True)

    def test_header_written_as_documented(self, tmp_path):
        st = store_from([[1.0, 0.0], [0.0, 1.0]])
        p = tmp_path / "emb.tsv"
        save_embeddings(p, st)
        first = p.read_text(encoding="utf-8").splitlines()[0]
        assert first == "exea-emb v1 source 2 2"

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("not-a-header\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            load_embeddings(p)

    def test_wrong_value_count_reports_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("exea-emb v1 source 1 3\n0\t1.0 2.0\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as err:
            load_embeddings(p)
        assert err.value.line_no == 2

    def test_sparse_ids_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text(
            "exea-emb v1 source 2 1\n0\t1.0\n3\t2.0\n", encoding="utf-8"
        )
        with pytest.raises(MalformedLine):
            load_embeddings(p)
