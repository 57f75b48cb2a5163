import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exea import trainer
from exea.embedding import EmbeddingStore, greedy_align
from exea.errors import ConfigError, EmptyKg, NoSeedsWarning, TrainerFailure
from exea.kg import Kg, Side
from exea.synth import SynthConfig, generate_pair
from exea.trainer import TrainConfig, train

from conftest import make_isomorphic_pair, triples_of


def small_pair():
    rng = np.random.default_rng(5)
    return make_isomorphic_pair(rng, n=8, n_rel=2, extra=8)


def fixture_20():
    """Frozen regression fixture: 20 entities, half seeded, half held out."""
    rng = np.random.default_rng(1234)
    kg1, kg2, perm = make_isomorphic_pair(rng, n=20, n_rel=3, extra=40)
    order = rng.permutation(20)
    seeds = [(int(s), int(perm[s])) for s in order[:10]]
    held = [(int(s), int(perm[s])) for s in order[10:]]
    return kg1, kg2, seeds, held


class TestConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.dim > 0 and cfg.epochs > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"epochs": -1},
            {"learning_rate": 0.0},
            {"learning_rate": -0.1},
            {"negatives_per_positive": 0},
            {"margin": 0.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_zero_epochs_allowed(self):
        assert TrainConfig(epochs=0).epochs == 0


class TestValidation:
    def test_empty_graph(self):
        kg1, kg2, _ = small_pair()
        empty = Kg(Side.SOURCE, ["a", "b"], ["r"], [])
        with pytest.raises(EmptyKg):
            train(empty, kg2, [(0, 0)], TrainConfig(epochs=1))
        empty2 = Kg(Side.TARGET, ["a", "b"], ["r"], [])
        with pytest.raises(EmptyKg):
            train(kg1, empty2, [(0, 0)], TrainConfig(epochs=1))

    def test_no_seeds_warns_but_trains(self):
        kg1, kg2, _ = small_pair()
        with pytest.warns(NoSeedsWarning):
            store = train(kg1, kg2, [], TrainConfig(epochs=3))
        assert store.n_entities(Side.SOURCE) == kg1.n_entities
        assert store.n_entities(Side.TARGET) == kg2.n_entities

    def test_out_of_range_seed_pair(self):
        kg1, kg2, _ = small_pair()
        # a negative id must not wrap around to the last entity, nor an id
        # past int64 escape as an OverflowError
        for pair in [(0, 99), (99, 0), (-1, 0), (0, -5), (2**70, 0)]:
            with pytest.raises(ConfigError, match="outside the graphs"):
                train(kg1, kg2, [pair], TrainConfig(epochs=1))

    def test_divergence_reported(self):
        kg1, kg2, perm = small_pair()
        with pytest.raises(TrainerFailure):
            train(kg1, kg2, [(0, int(perm[0]))], TrainConfig(epochs=8, learning_rate=1e30))


class TestDeterminism:
    def test_identical_runs_identical_stores(self):
        kg1, kg2, perm = small_pair()
        seeds = [(i, int(perm[i])) for i in range(4)]
        cfg = TrainConfig(epochs=30, seed=11)
        a = train(kg1, kg2, seeds, cfg)
        b = train(kg1, kg2, seeds, cfg)
        for side in (Side.SOURCE, Side.TARGET):
            assert np.array_equal(a.entity_matrix(side), b.entity_matrix(side))
            assert np.array_equal(a.relation_vecs(side), b.relation_vecs(side))

    def test_different_seed_different_store(self):
        kg1, kg2, perm = small_pair()
        seeds = [(i, int(perm[i])) for i in range(4)]
        a = train(kg1, kg2, seeds, TrainConfig(epochs=5, seed=1))
        b = train(kg1, kg2, seeds, TrainConfig(epochs=5, seed=2))
        assert not np.array_equal(a.entity_matrix(Side.SOURCE), b.entity_matrix(Side.SOURCE))


class TestZeroEpochs:
    def test_is_seeded_initialization(self):
        kg1, kg2, perm = small_pair()
        cfg = TrainConfig(epochs=0, seed=3)
        a = train(kg1, kg2, [(0, int(perm[0]))], cfg)
        # init draws happen before any seed-pair use, so the seed list is inert
        b = train(kg1, kg2, [(1, int(perm[1])), (2, int(perm[2]))], cfg)
        for side in (Side.SOURCE, Side.TARGET):
            assert np.array_equal(a.entity_matrix(side), b.entity_matrix(side))
            norms = np.linalg.norm(a.entity_matrix(side).astype(np.float64), axis=1)
            assert np.allclose(norms, 1.0, atol=1e-6)

    def test_training_moves_parameters(self):
        kg1, kg2, perm = small_pair()
        seeds = [(0, int(perm[0]))]
        init = train(kg1, kg2, seeds, TrainConfig(epochs=0, seed=3))
        moved = train(kg1, kg2, seeds, TrainConfig(epochs=5, seed=3))
        assert not np.array_equal(
            init.entity_matrix(Side.SOURCE), moved.entity_matrix(Side.SOURCE)
        )


class TestQuality:
    def test_held_out_accuracy_regression(self):
        # measured 1.0 on this fixture; 0.8 is the frozen floor
        kg1, kg2, seeds, held = fixture_20()
        store = train(kg1, kg2, seeds, TrainConfig(seed=7))
        n = kg1.n_entities
        pred = {s: t for s, t, _ in greedy_align(store, range(n), range(n))}
        acc = sum(1 for s, t in held if pred.get(s) == t) / len(held)
        assert acc >= 0.8

    def test_seed_distance_shrinks(self):
        kg1, kg2, seeds, _ = fixture_20()
        cfg = TrainConfig(seed=7)
        init = train(kg1, kg2, seeds, TrainConfig(epochs=0, seed=cfg.seed))
        final = train(kg1, kg2, seeds, cfg)
        s1 = np.array([a for a, _ in seeds])
        s2 = np.array([b for _, b in seeds])

        def mean_dist(store):
            e1 = store.entity_matrix(Side.SOURCE).astype(np.float64)
            e2 = store.entity_matrix(Side.TARGET).astype(np.float64)
            return float(np.linalg.norm(e1[s1] - e2[s2], axis=1).mean())

        assert mean_dist(final) < mean_dist(init)

    def test_loss_decreases_in_moving_average(self):
        kg1, kg2, seeds, _ = fixture_20()
        _, losses = train(kg1, kg2, seeds, TrainConfig(seed=7), return_losses=True)
        arr = np.asarray(losses)
        assert np.all(np.isfinite(arr))
        w = 50
        assert arr[-w:].mean() <= arr[:w].mean()
        # the trend holds between consecutive quarters too
        q = len(arr) // 4
        quarters = [arr[i * q : (i + 1) * q].mean() for i in range(4)]
        assert quarters[3] <= quarters[0]

    def test_relation_vectors_returned(self):
        kg1, kg2, seeds, _ = fixture_20()
        store = train(kg1, kg2, seeds, TrainConfig(epochs=2, seed=7))
        assert store.has_relation_vecs(Side.SOURCE)
        assert store.relation_vecs(Side.SOURCE).shape == (kg1.n_relations, 32)
        assert store.relation_vecs(Side.TARGET).shape == (kg2.n_relations, 32)


# ---------------------------------------------------------------- exactness
# The reference trainer: one 2-D ``np.add.at`` per block, a full recheck of
# every slot in each redraw round and a ``pos_d`` refresh after every column.
# ``train`` must equal it bit for bit.

_REFERENCE_ALIGN_RATE = 0.5


def _reference_normalize_rows(mat):
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    np.maximum(norms, 1e-12, out=norms)
    mat /= norms


def _reference_init_side(rng, n_ent, n_rel, dim):
    ents = rng.standard_normal((n_ent, dim)) / np.sqrt(dim)
    _reference_normalize_rows(ents)
    rels = rng.standard_normal((max(n_rel, 1), dim)) / np.sqrt(dim)
    return ents, rels[:n_rel] if n_rel else np.zeros((0, dim))


class _ReferenceSideData:
    def __init__(self, kg):
        self.n_ent = kg.n_entities
        self.n_rel = kg.n_relations
        arr = np.asarray(kg.triple_keys, dtype=np.int64)
        self.s, self.r, self.o = arr[:, 0], arr[:, 1], arr[:, 2]
        self.m = arr.shape[0]
        self.true_keys = np.sort((self.s * self.n_rel + self.r) * self.n_ent + self.o)

    def sample_negatives(self, rng, k):
        neg = rng.integers(0, self.n_ent, size=(self.m, k))
        corrupt_head = rng.integers(0, 2, size=(self.m, k)).astype(bool)
        s_pos = self.s[:, None]
        o_pos = self.o[:, None]
        r_pos = self.r[:, None]
        for _ in range(4):
            s_neg = np.where(corrupt_head, neg, s_pos)
            o_neg = np.where(corrupt_head, o_pos, neg)
            keys = (s_neg * self.n_rel + r_pos) * self.n_ent + o_neg
            idx = np.searchsorted(self.true_keys, keys)
            idx = np.minimum(idx, self.true_keys.size - 1)
            bad = self.true_keys[idx] == keys
            if not bad.any():
                break
            neg = np.where(bad, rng.integers(0, self.n_ent, size=(self.m, k)), neg)
        s_neg = np.where(corrupt_head, neg, s_pos)
        o_neg = np.where(corrupt_head, o_pos, neg)
        return s_neg, o_neg


def reference_margin_step(E, R, data, s_neg, o_neg, lr, margin):
    s, r, o = data.s, data.r, data.o
    pos_d = E[s] + R[r] - E[o]
    pos_sq = np.einsum("ij,ij->i", pos_d, pos_d)
    loss = 0.0
    for j in range(s_neg.shape[1]):
        sj = s_neg[:, j]
        oj = o_neg[:, j]
        neg_d = E[sj] + R[r] - E[oj]
        neg_sq = np.einsum("ij,ij->i", neg_d, neg_d)
        viol = margin + pos_sq - neg_sq
        act = viol > 0
        if not act.any():
            continue
        loss += float(viol[act].sum())
        g_pos = (2.0 * lr) * pos_d[act]
        g_neg = (2.0 * lr) * neg_d[act]
        np.add.at(E, s[act], -g_pos)
        np.add.at(E, o[act], g_pos)
        np.add.at(R, r[act], -g_pos)
        np.add.at(E, sj[act], g_neg)
        np.add.at(E, oj[act], -g_neg)
        np.add.at(R, r[act], g_neg)
        pos_d = E[s] + R[r] - E[o]
        pos_sq = np.einsum("ij,ij->i", pos_d, pos_d)
    return loss


def reference_train(kg1, kg2, seed_alignment, cfg):
    """The float64 ``(E1, E2, R1, R2)`` and the per-epoch losses."""
    d1 = _ReferenceSideData(kg1)
    d2 = _ReferenceSideData(kg2)
    seeds = [(int(a), int(b)) for a, b in seed_alignment]
    rng = np.random.default_rng(cfg.seed)
    E1, R1 = _reference_init_side(rng, d1.n_ent, d1.n_rel, cfg.dim)
    E2, R2 = _reference_init_side(rng, d2.n_ent, d2.n_rel, cfg.dim)
    if seeds:
        s1 = np.asarray([a for a, _ in seeds], dtype=np.int64)
        s2 = np.asarray([b for _, b in seeds], dtype=np.int64)
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            total = 0.0
            for E, R, data in ((E1, R1, d1), (E2, R2, d2)):
                s_neg, o_neg = data.sample_negatives(rng, cfg.negatives_per_positive)
                total += reference_margin_step(
                    E, R, data, s_neg, o_neg, cfg.learning_rate, cfg.margin
                )
            if seeds:
                diff = E1[s1] - E2[s2]
                total += float(np.einsum("ij,ij->i", diff, diff).sum())
                step = _REFERENCE_ALIGN_RATE * diff
                np.add.at(E1, s1, -step)
                np.add.at(E2, s2, step)
            _reference_normalize_rows(E1)
            _reference_normalize_rows(E2)
            losses.append(total)
    return (E1, E2, R1, R2), losses


def _train_float64(monkeypatch, kg1, kg2, seeds, cfg):
    """``train``'s float64 matrices, read before the store narrows them to float32."""
    captured = {}

    def store(entity_vecs, relation_vecs=None):
        captured["mats"] = (
            entity_vecs[Side.SOURCE].copy(), entity_vecs[Side.TARGET].copy(),
            relation_vecs[Side.SOURCE].copy(), relation_vecs[Side.TARGET].copy(),
        )
        return EmbeddingStore(entity_vecs, relation_vecs=relation_vecs)

    monkeypatch.setattr(trainer, "EmbeddingStore", store)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoSeedsWarning)
        _, losses = train(kg1, kg2, seeds, cfg, return_losses=True)
    return captured["mats"], losses


def _graph(side, n_ent, n_rel, triples):
    return Kg(side, [f"e{i}" for i in range(n_ent)], [f"r{i}" for i in range(n_rel)], triples)


def _hub_pair():
    # entity 0 is the subject or object of most triples, so it repeats many
    # times inside one scatter block
    t1 = [(0, i % 2, i) for i in range(1, 12)] + [(i, 1, 0) for i in range(2, 12, 3)]
    t2 = [(i, i % 2, 0) for i in range(1, 12)] + [(0, 0, i) for i in range(3, 12, 4)]
    return _graph(Side.SOURCE, 12, 2, t1), _graph(Side.TARGET, 12, 2, t2)


def _single_relation_pair():
    rng = np.random.default_rng(9)
    return make_isomorphic_pair(rng, n=10, n_rel=1, extra=12)[:2]


def _complete_pair():
    # every (s, r, o) over 3 entities and 1 relation is a triple, so every
    # corruption is a positive and each slot is redrawn 4 times
    full = [(s, 0, o) for s in range(3) for o in range(3)]
    return _graph(Side.SOURCE, 3, 1, full), _graph(Side.TARGET, 3, 1, full)


class TestTrainerIsExact:
    def assert_exact(self, monkeypatch, kg1, kg2, seeds, cfg):
        mats, losses = _train_float64(monkeypatch, kg1, kg2, seeds, cfg)
        ref_mats, ref_losses = reference_train(kg1, kg2, seeds, cfg)
        for got, want in zip(mats, ref_mats):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert losses == ref_losses

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("epochs", [0, 1, 60])
    def test_hub_entity(self, monkeypatch, k, epochs):
        kg1, kg2 = _hub_pair()
        cfg = TrainConfig(dim=8, epochs=epochs, negatives_per_positive=k, seed=3)
        self.assert_exact(monkeypatch, kg1, kg2, [(0, 0), (1, 1), (5, 5)], cfg)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_single_relation(self, monkeypatch, k):
        kg1, kg2 = _single_relation_pair()
        cfg = TrainConfig(dim=6, epochs=60, negatives_per_positive=k, seed=4)
        self.assert_exact(monkeypatch, kg1, kg2, [(0, 1), (2, 3)], cfg)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_corruption_a_positive(self, monkeypatch, k):
        kg1, kg2 = _complete_pair()
        cfg = TrainConfig(dim=4, epochs=60, negatives_per_positive=k, seed=5)
        self.assert_exact(monkeypatch, kg1, kg2, [(0, 2)], cfg)

    @pytest.mark.parametrize("seeds", [[], [(0, 3), (0, 4), (2, 2), (0, 3)]])
    def test_no_and_duplicated_seeds(self, monkeypatch, seeds):
        kg1, kg2 = _hub_pair()
        cfg = TrainConfig(dim=8, epochs=60, negatives_per_positive=2, seed=6)
        self.assert_exact(monkeypatch, kg1, kg2, seeds, cfg)

    def test_regression_fixture(self, monkeypatch):
        kg1, kg2, seeds, _ = fixture_20()
        self.assert_exact(monkeypatch, kg1, kg2, seeds, TrainConfig(epochs=60, seed=7))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_small_graphs(self, data):
        def side_graph(side):
            n_ent = data.draw(st.integers(2, 9))
            n_rel = data.draw(st.integers(1, 3))
            triple = st.tuples(
                st.integers(0, n_ent - 1), st.integers(0, n_rel - 1), st.integers(0, n_ent - 1)
            )
            return _graph(side, n_ent, n_rel, data.draw(st.lists(triple, min_size=1, max_size=25)))

        kg1, kg2 = side_graph(Side.SOURCE), side_graph(Side.TARGET)
        pair = st.tuples(st.integers(0, kg1.n_entities - 1), st.integers(0, kg2.n_entities - 1))
        seeds = data.draw(st.lists(pair, max_size=4))
        cfg = TrainConfig(
            dim=data.draw(st.integers(1, 6)),
            epochs=data.draw(st.integers(0, 12)),
            negatives_per_positive=data.draw(st.integers(1, 3)),
            margin=data.draw(st.floats(1e-6, 2.0)),
            learning_rate=data.draw(st.floats(1e-4, 0.2)),
            seed=data.draw(st.integers(0, 2**16)),
        )
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.assert_exact(monkeypatch, kg1, kg2, seeds, cfg)

    @pytest.mark.parametrize("k", [2, 3])
    def test_columns_without_violations(self, monkeypatch, k):
        # two far-apart triples per side and a small margin: most columns
        # have no active row, so the next column reads the pos_d that an
        # earlier column left in its buffer
        kg1 = _graph(Side.SOURCE, 6, 1, [(0, 0, 1), (2, 0, 3)])
        kg2 = _graph(Side.TARGET, 6, 1, [(0, 0, 1), (4, 0, 5)])
        steps = []  # per step, whether each column had an active row
        step, gather = trainer._margin_step, trainer._gather

        def counted_step(P, at, data, *args):
            def counted_gather(mat, rows, out):
                if rows is data.r_row:  # a column starts with its relation rows
                    steps[-1].append(False)
                elif mat is not P:  # only an active column gathers gradients
                    steps[-1][-1] = True
                return gather(mat, rows, out)

            steps.append([])
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(trainer, "_gather", counted_gather)
                return step(P, at, data, *args)

        monkeypatch.setattr(trainer, "_margin_step", counted_step)
        cfg = TrainConfig(dim=4, epochs=40, margin=0.5, negatives_per_positive=k, seed=10)
        self.assert_exact(monkeypatch, kg1, kg2, [(0, 0)], cfg)
        assert all(len(columns) == k for columns in steps)
        assert any(not active for columns in steps for active in columns[:-1])

    def test_synth_graph(self, monkeypatch):
        # a generated graph fills the residue table at its real load, and
        # some corruptions are true triples, so the redraw rounds run
        result = generate_pair(SynthConfig(n_entities=200, rng_seed=2))
        positives = []
        positive = trainer._SideData._positive

        def count(self, *args):
            slots = positive(self, *args)
            positives.append(slots.size)
            return slots

        monkeypatch.setattr(trainer._SideData, "_positive", count)
        cfg = TrainConfig(dim=8, epochs=6, seed=8)
        self.assert_exact(monkeypatch, result.kg1, result.kg2, result.seeds, cfg)
        assert sum(positives) > 0


def _power_of_two_graph():
    # 16 entities and 2 relations: every key's low bits are its object's, so
    # a table of a power-of-two size would fold keys onto few residues
    rng = np.random.default_rng(21)
    triples = rng.integers(0, [16, 2, 16], size=(60, 3))
    return _graph(Side.SOURCE, 16, 2, [tuple(t) for t in triples])


def _all_corruptions(data):
    """Every head corruption of every triple, then every tail one, as the
    ``(neg, corrupt_head)`` blocks ``sample_negatives`` makes, one row per
    triple."""
    width = 2 * data.n_ent
    neg = np.tile(np.arange(data.n_ent), (data.m, 2))
    corrupt_head = np.broadcast_to(np.arange(width) < data.n_ent, (data.m, width))
    return neg, corrupt_head


class TestResidueCheck:
    """``_SideData._positive`` finds exactly the corruptions that a Python set
    of the true triples holds, however many false keys share a residue with a
    true one."""

    @pytest.mark.parametrize("slots", [1, 2, trainer._SLOTS_PER_TRIPLE])
    @pytest.mark.parametrize("graph", [
        lambda: _complete_pair()[0], lambda: _hub_pair()[0], lambda: _hub_pair()[1],
        _power_of_two_graph,
    ], ids=["complete", "hub-source", "hub-target", "power-of-two"])
    def test_equals_set_membership(self, monkeypatch, slots, graph):
        monkeypatch.setattr(trainer, "_SLOTS_PER_TRIPLE", slots)
        kg = graph()
        data = trainer._SideData(kg)
        assert data.marks.size == slots * data.m - 1
        truth = set(triples_of(kg))
        neg, corrupt_head = _all_corruptions(data)
        want = [
            i * neg.shape[1] + j
            for i, (s, r, o) in enumerate(triples_of(kg))
            for j, (e, head) in enumerate(zip(neg[i].tolist(), corrupt_head[i].tolist()))
            if ((e, r, o) if head else (s, r, e)) in truth
        ]
        whole = data._positive(neg, corrupt_head, data.head_kept[:, None], data.tail_kept[:, None])
        assert whole.tolist() == want
        # the redraw rounds pass flat slots with each slot's row
        rows = np.arange(neg.size) // neg.shape[1]
        flat = data._positive(
            neg.reshape(-1), corrupt_head.reshape(-1), data.head_kept[rows], data.tail_kept[rows]
        )
        assert flat.tolist() == want

    def test_small_table_lets_false_keys_through(self, monkeypatch):
        # with one slot per triple the residues of the true keys collide and
        # false keys reach the exact search, which must refuse them
        monkeypatch.setattr(trainer, "_SLOTS_PER_TRIPLE", 1)
        kg = _power_of_two_graph()
        data = trainer._SideData(kg)
        assert np.count_nonzero(data.marks) < data.m
        neg, corrupt_head = _all_corruptions(data)
        keys = np.where(corrupt_head, neg * (data.n_rel * data.n_ent) + data.head_kept[:, None],
                        data.tail_kept[:, None] + neg)
        marked = np.count_nonzero(data.marks[keys % data.marks.size])
        found = data._positive(neg, corrupt_head, data.head_kept[:, None], data.tail_kept[:, None])
        assert marked > found.size


class TestResidueTableMemory:
    def test_bytes_per_triple(self):
        """The table is one bool per slot, at most 16 bytes per true triple."""
        result = generate_pair(SynthConfig(n_entities=200, density=8.0))
        for kg in (result.kg1, result.kg2):
            data = trainer._SideData(kg)
            assert data.m > 1000
            assert data.marks.nbytes <= 16 * data.m


class TestTrainerMemory:
    def test_scratch_peak(self):
        """On the train-explain fixture (1,500 and 1,280 triples, dim 32) a
        few epochs of ``train`` peak under 2.8 MB of traced memory: three
        ``(m, dim)`` float scratch buffers (1.15 MB), the parameters, their
        flat-index tables, and one block's indices at a time. Four buffers,
        with indices built through two temporaries while another was held,
        peaked at 3.02 MB."""
        result = generate_pair(
            SynthConfig(n_entities=500, rename_noise=0.3, seed_fraction=0.2, rng_seed=0)
        )
        tracemalloc.start()
        try:
            train(result.kg1, result.kg2, result.seeds, TrainConfig(epochs=4, seed=7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.8e6
