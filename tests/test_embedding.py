"""Embedding store, translation-derived relation vectors, path encodings,
similarity search, and the on-disk embedding format."""

import numpy as np
import pytest

from exea.embedding import (
    EmbeddingStore,
    cosine,
    derive_relation_embedding,
    entity_cosine,
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
        np.testing.assert_allclose(derive_relation_embedding(st, kg, 0), [1.0, -1.0])

    def test_average_over_triples(self):
        kg = make_kg(4, [(0, 0, 1), (2, 0, 3)])
        st = store_from([[2.0, 0.0], [0.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
        np.testing.assert_allclose(derive_relation_embedding(st, kg, 0), [1.0, 2.0])

    def test_model_vectors_take_precedence(self):
        kg = make_kg(2, [(0, 0, 1)])
        st = store_from(
            [[1.0, 0.0], [0.0, 1.0]],
            relation_vecs={Side.SOURCE: [[5.0, 5.0]]},
        )
        np.testing.assert_allclose(derive_relation_embedding(st, kg, 0), [5.0, 5.0])

    def test_relation_without_triples(self):
        kg = make_kg(2, [(0, 0, 1)], n_rel=2)
        st = store_from([[1.0, 0.0], [0.0, 1.0]])
        from exea.errors import UnknownRelation

        with pytest.raises(UnknownRelation):
            derive_relation_embedding(st, kg, 1)

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(3)
        from test_kg import random_kg

        for _ in range(10):
            kg = random_kg(rng, 8, 3, 20)
            st = store_from(rng.normal(size=(8, 5)))
            ents = st.entity_matrix(Side.SOURCE).astype(np.float64)
            for r, count in kg.rel_triples.items():
                acc = np.zeros(5)
                for s, rr, o in kg.triple_keys:
                    if rr == r:
                        acc += ents[s] - ents[o]
                np.testing.assert_allclose(
                    derive_relation_embedding(st, kg, r), acc / count, atol=1e-12
                )


class TestPathEmbedding:
    def setup_method(self):
        # chain 0 -r0-> 1 -r1-> 2
        self.kg = make_kg(3, [(0, 0, 1), (1, 1, 2)])
        self.ents = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])

    def test_length_one_concatenates_center_and_relation(self):
        st = store_from(self.ents)
        path = enumerate_paths(self.kg, 0, 1)[0]
        rel = derive_relation_embedding(st, self.kg, 0)
        got = path_embedding(st, self.kg, path)
        np.testing.assert_allclose(got, np.concatenate([[1.0, 0.0], rel]))
        assert got.shape == (2 * st.dim,)

    def test_length_two_excludes_endpoint_entity(self):
        st = store_from(self.ents)
        path = [p for p in enumerate_paths(self.kg, 0, 2) if p.length == 2][0]
        r0 = derive_relation_embedding(st, self.kg, 0)
        r1 = derive_relation_embedding(st, self.kg, 1)
        expected = np.concatenate([(self.ents[0] + self.ents[1]) / 2, (r0 + r1) / 2])
        np.testing.assert_allclose(path_embedding(st, self.kg, path), expected, rtol=1e-6)

    def test_zero_relation_vectors_leave_entity_half(self):
        st = store_from(self.ents, relation_vecs={Side.SOURCE: np.zeros((2, 2))})
        path = [p for p in enumerate_paths(self.kg, 0, 2) if p.length == 2][0]
        expected = np.concatenate([(self.ents[0] + self.ents[1]) / 2, [0.0, 0.0]])
        np.testing.assert_allclose(path_embedding(st, self.kg, path), expected, rtol=1e-6)

    def test_signed_variant_negates_incoming(self):
        st = store_from(self.ents)
        path = [
            p for p in enumerate_paths(self.kg, 1, 1) if p.steps[0].direction.value == "in"
        ][0]  # incoming step from 0 via r0
        rel = derive_relation_embedding(st, self.kg, 0)
        unsigned = path_embedding(st, self.kg, path)
        signed = path_embedding(st, self.kg, path, signed=True)
        np.testing.assert_allclose(unsigned[2:], rel)
        np.testing.assert_allclose(signed[2:], -rel)
        np.testing.assert_allclose(unsigned[:2], signed[:2])


class TestCosine:
    def test_reference_values(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
        assert cosine([1.0, 1.0], [2.0, 2.0]) == pytest.approx(1.0)
        assert cosine([1.0, 0.0], [-3.0, 0.0]) == pytest.approx(-1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            u, v = rng.normal(size=(2, 6))
            a = float(rng.uniform(0.1, 10))
            assert cosine(u, v) == pytest.approx(cosine(a * u, v), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            cosine([0.0, 0.0], [1.0, 0.0])


class TestCachedRowCosines:
    """pair_cosines and entity_cosine reuse cached float64 rows and norms and
    still equal ``cosine`` of the two entity vectors bit for bit."""

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
            expected = cosine(st.entity_vec(Side.SOURCE, s), st.entity_vec(Side.TARGET, t))
            assert got == expected
            assert entity_cosine(st, Side.SOURCE, s, Side.TARGET, t) == expected

    def test_zero_and_missing_rows_rejected(self):
        st = store_from([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(ZeroVector):
            pair_cosines(st, Side.SOURCE, [1, 0], Side.TARGET, [0, 0])
        with pytest.raises(ZeroVector):
            entity_cosine(st, Side.SOURCE, 0, Side.TARGET, 0)
        with pytest.raises(MissingEmbedding):
            pair_cosines(st, Side.SOURCE, [2], Side.TARGET, [0])
        with pytest.raises(MissingEmbedding):
            entity_cosine(st, Side.SOURCE, 1, Side.TARGET, -1)


class TestSimilaritySearch:
    def test_topk_ranks_match_full_sort(self):
        rng = np.random.default_rng(17)
        st = store_from(rng.normal(size=(9, 4)), rng.normal(size=(13, 4)))
        sims = similarity_matrix(st, range(9), range(13))
        topk = similarity_topk(st, range(9), range(13), k=5)
        for i in range(9):
            full = sorted(range(13), key=lambda j: (-sims[i, j], j))
            assert list(topk.target_indices[i]) == full[:5]
            np.testing.assert_allclose(topk.scores[i], sims[i, full[:5]])

    def test_ties_break_toward_lower_target_index(self):
        st = store_from([[1.0, 0.0]], [[2.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        topk = similarity_topk(st, [0], [0, 1, 2], k=3)
        assert list(topk.target_indices[0]) == [0, 1, 2]

    def test_block_partitioning_does_not_change_results(self):
        rng = np.random.default_rng(29)
        st = store_from(rng.normal(size=(40, 6)), rng.normal(size=(25, 6)))
        a = similarity_topk(st, range(40), range(25), k=4, block_size=7)
        b = similarity_topk(st, range(40), range(25), k=4, block_size=4096)
        np.testing.assert_array_equal(a.target_indices, b.target_indices)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_k_wider_than_targets(self):
        st = store_from([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
        topk = similarity_topk(st, [0], [0, 1], k=10)
        assert topk.target_indices.shape == (1, 2)

    def test_greedy_align_is_rowwise_argmax(self):
        rng = np.random.default_rng(37)
        st = store_from(rng.normal(size=(8, 5)), rng.normal(size=(11, 5)))
        sims = similarity_matrix(st, range(8), range(11))
        got = greedy_align(st, range(8), range(11))
        for s, t, score in got:
            assert t == int(np.argmax(sims[s]))
            assert score == pytest.approx(sims[s].max())

    def test_zero_vector_raises(self):
        st = store_from([[0.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(ZeroVector):
            similarity_topk(st, [0], [0], k=1)


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
