"""Metrics: accuracy, sparsity, remove-and-retrain fidelity, stage ablations."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from exea.embedding import greedy_align
from exea.errors import ConfigError, EmptyCandidates, NotSubset
from exea.evaluate import (
    EvalReport,
    ablation,
    accuracy,
    explanation_sparsity_stats,
    fidelity,
    random_matched_explanations,
    sample_correct_pairs,
    sparsity,
    strip_triples,
)
from exea.explain import candidate_triples
from exea.kg import Side
from exea.synth import SynthConfig, generate_pair
from exea.trainer import TrainConfig, train

from conftest import make_isomorphic_pair
from test_kg import make_kg


class TestSparsity:
    def test_full_explanation_is_zero(self):
        cands = set(range(10))
        assert sparsity(cands, cands) == 0.0

    def test_three_of_ten(self):
        assert sparsity(set(range(10)), {0, 1, 2}) == pytest.approx(0.7)

    def test_empty_explanation_is_one(self):
        assert sparsity(set(range(4)), set()) == 1.0

    def test_empty_candidates_rejected(self):
        with pytest.raises(EmptyCandidates):
            sparsity(set(), set())

    def test_non_subset_rejected(self):
        with pytest.raises(NotSubset):
            sparsity({1, 2}, {3})

    def test_monotone_in_explanation_size(self):
        cands = set(range(30))
        values = [sparsity(cands, set(range(k))) for k in range(31)]
        assert values == sorted(values, reverse=True)
        assert all(0.0 <= v <= 1.0 for v in values)

    @given(data=st.data())
    def test_bounded_and_extreme_only_at_extremes(self, data):
        cands = data.draw(st.sets(st.integers(0, 99), min_size=1, max_size=40))
        kept = data.draw(st.sets(st.sampled_from(sorted(cands)), max_size=len(cands)))
        v = sparsity(cands, kept)
        assert 0.0 <= v <= 1.0
        assert (v == 0.0) == (kept == cands)
        assert (v == 1.0) == (not kept)


class TestAccuracy:
    def test_exact_match(self):
        gold = [(0, 0), (1, 1)]
        assert accuracy(gold, gold) == 1.0

    def test_disjoint(self):
        assert accuracy([(0, 1), (1, 0)], [(0, 0), (1, 1)]) == 0.0

    def test_three_of_four(self):
        gold = [(0, 0), (1, 1), (2, 2), (3, 3)]
        pred = [(0, 0), (1, 1), (2, 2), (3, 9)]
        assert accuracy(pred, gold) == 0.75

    def test_extra_predictions_do_not_inflate(self):
        gold = [(0, 0), (1, 1)]
        pred = [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert accuracy(pred, gold) == 1.0

    def test_empty_gold_rejected(self):
        with pytest.raises(ConfigError):
            accuracy([(0, 0)], [])

    @given(data=st.data())
    def test_bounded_and_insensitive_to_wrong_extras(self, data):
        pair = st.tuples(st.integers(0, 30), st.integers(0, 30))
        gold = data.draw(st.lists(pair, min_size=1, max_size=25, unique=True))
        pred = data.draw(st.lists(pair, max_size=25, unique=True))
        v = accuracy(pred, gold)
        assert 0.0 <= v <= 1.0
        extras = [p for p in [(77, 77), (78, 79)] if p not in gold]
        assert accuracy(list(pred) + extras, gold) == pytest.approx(v)


class TestSampleCorrectPairs:
    gold = [(i, i) for i in range(40)]
    pred = [(i, i) for i in range(0, 40, 2)] + [(i, i + 1) for i in range(1, 40, 2)]

    def test_only_correct_pairs(self):
        sample = sample_correct_pairs(self.pred, self.gold, 10, rng_seed=1)
        assert len(sample) == 10
        assert all(p in set(self.gold) for p in sample)
        assert all(p in set(self.pred) for p in sample)

    def test_pure_function_of_inputs(self):
        a = sample_correct_pairs(self.pred, self.gold, 10, rng_seed=1)
        b = sample_correct_pairs(self.pred, self.gold, 10, rng_seed=1)
        assert a == b
        c = sample_correct_pairs(self.pred, self.gold, 10, rng_seed=2)
        assert c != a

    def test_all_returned_when_fewer_than_requested(self):
        sample = sample_correct_pairs(self.pred, self.gold, 100, rng_seed=1)
        assert sample == sorted(set(self.pred) & set(self.gold))


class TestStripTriples:
    def test_removes_only_matching_side(self):
        kg1 = make_kg(3, [(0, 0, 1), (1, 0, 2)], side=Side.SOURCE)
        kg2 = make_kg(3, [(0, 0, 1), (1, 0, 2)], side=Side.TARGET)
        doomed = {next(iter(candidate_triples(kg1, kg2, (0, 0), 1)))}
        side = next(iter(doomed))[0]
        same, other = (kg1, kg2) if side == 0 else (kg2, kg1)
        assert len(strip_triples(same, doomed).triple_keys) == 1
        assert len(strip_triples(other, doomed).triple_keys) == 2

    def test_labels_survive(self):
        kg = make_kg(3, [(0, 0, 1), (1, 1, 2)])
        stripped = strip_triples(kg, set(candidate_triples(kg, kg, (0, 0), 2)))
        assert stripped.entity_labels == kg.entity_labels
        assert stripped.relation_labels == kg.relation_labels


@pytest.fixture(scope="module")
def trained_case():
    """Isomorphic 20-entity pair, deterministic trainer, five sampled correct
    held-out predictions with their full candidate sets."""
    rng = np.random.default_rng(1234)
    kg1, kg2, perm = make_isomorphic_pair(rng, n=20, n_rel=3, extra=40)
    order = rng.permutation(20)
    seeds = [(int(s), int(perm[s])) for s in order[:10]]
    cfg = TrainConfig(seed=7)
    store = train(kg1, kg2, seeds, cfg)
    held = [int(s) for s in order[10:]]
    pred = [(s, t) for s, t, _ in greedy_align(store, held, range(20))]
    gold = [(s, int(perm[s])) for s in held]
    sample = sample_correct_pairs(pred, gold, 5, rng_seed=3)
    full_expl = {p: candidate_triples(kg1, kg2, p, 2) for p in sample}
    return kg1, kg2, seeds, cfg, sample, full_expl


class TestFidelity:
    def test_identity_processing_gives_one(self, trained_case):
        kg1, kg2, seeds, cfg, sample, full_expl = trained_case
        assert len(sample) == 5
        assert fidelity(kg1, kg2, seeds, full_expl, cfg) == 1.0

    def test_empty_explanations_cost_fidelity(self, trained_case):
        kg1, kg2, seeds, cfg, sample, full_expl = trained_case
        empty = {p: set() for p in sample}
        fid = fidelity(kg1, kg2, seeds, empty, cfg)
        assert fid <= 1.0
        assert fid == pytest.approx(0.2)  # measured once on this fixture and pinned

    def test_union_rule_keeps_shared_triples(self, trained_case):
        # one pair keeps everything: triples shared with another pair's
        # candidate set must survive even though that pair keeps nothing
        kg1, kg2, seeds, cfg, sample, full_expl = trained_case
        keeper, dropper = sample[0], sample[1]
        expl = {keeper: full_expl[keeper], dropper: set()}
        removed = (full_expl[keeper] | candidate_triples(kg1, kg2, dropper, 2)) - full_expl[keeper]
        stripped1 = strip_triples(kg1, removed)
        kept_keys = set(stripped1.triple_keys)
        for side, s, r, o in full_expl[keeper]:
            if side == 0:
                assert (s, r, o) in kept_keys

    def test_foreign_triples_rejected(self, trained_case):
        kg1, kg2, seeds, cfg, sample, full_expl = trained_case
        alien = make_kg(40, [(30, 0, 31)], side=Side.SOURCE)
        bad = {sample[0]: set(candidate_triples(alien, kg2, (30, 0), 1))}
        with pytest.raises(NotSubset):
            fidelity(kg1, kg2, seeds, bad, cfg)

    def test_empty_sample_rejected(self, trained_case):
        kg1, kg2, seeds, cfg, _, _ = trained_case
        with pytest.raises(ConfigError):
            fidelity(kg1, kg2, seeds, {}, cfg)

    def test_duplicate_sources_rejected(self, trained_case):
        kg1, kg2, seeds, cfg, sample, full_expl = trained_case
        s, t = sample[0]
        dup = {(s, t): set(), (s, (t + 1) % 20): set()}
        with pytest.raises(ConfigError):
            fidelity(kg1, kg2, seeds, dup, cfg)


class TestRandomMatchedExplanations:
    def test_sizes_and_membership(self, trained_case):
        kg1, kg2, seeds, cfg, sample, full_expl = trained_case
        rand = random_matched_explanations(kg1, kg2, full_expl, 2, rng_seed=0)
        for p in sample:
            cands = candidate_triples(kg1, kg2, p, 2)
            assert rand[p] <= cands
            assert len(rand[p]) == len(full_expl[p])
            assert sparsity(cands, rand[p]) == sparsity(cands, full_expl[p])

    def test_deterministic(self, trained_case):
        kg1, kg2, seeds, cfg, sample, full_expl = trained_case
        a = random_matched_explanations(kg1, kg2, full_expl, 2, rng_seed=5)
        b = random_matched_explanations(kg1, kg2, full_expl, 2, rng_seed=5)
        assert a == b


class TestExplanationSparsityStats:
    def test_counts_empty_and_averages(self):
        kg = make_kg(4, [(0, 0, 1), (1, 0, 2), (2, 0, 3)])
        full = candidate_triples(kg, kg, (0, 0), 1)
        stats = explanation_sparsity_stats(kg, kg, {(0, 0): full, (1, 1): set()}, 1)
        mean, empty = stats
        assert empty == 1
        assert mean == pytest.approx(0.5)


@pytest.fixture(scope="module")
def ablation_fixture():
    cfg = SynthConfig(n_entities=120, conflict_injection=0.2, rng_seed=7)
    res = generate_pair(cfg)
    seed_set = {s for s, _ in res.seeds}
    free = [i for i in range(120) if i not in seed_set]
    raw = [(s, t) for s, t, _ in greedy_align(res.perturbed_store, free, range(120))]
    return res, raw


class TestAblation:
    def test_stage_accuracies(self, ablation_fixture):
        res, raw = ablation_fixture
        report = ablation(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds, res.gold)
        acc = report.per_stage_accuracy
        assert set(acc) == {"full", "no_cr1", "no_cr2", "no_cr3", "none"}
        raw_acc = accuracy(raw + list(res.seeds), res.gold)
        assert acc["none"] == pytest.approx(raw_acc)
        assert acc["full"] >= raw_acc
        assert acc["no_cr2"] < acc["full"]  # one-to-many resolution carries the fixture
        assert all(0.0 <= v <= 1.0 for v in acc.values())
        assert report.accuracy == acc["full"]
        assert 0.0 <= report.mean_sparsity <= 1.0
        assert report.fidelity is None
        assert report.sample_size == 120

    def test_report_replays_identically(self, ablation_fixture):
        res, raw = ablation_fixture
        a = ablation(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds, res.gold)
        b = ablation(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds, res.gold)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )
        assert "timings" not in a.to_json_dict()
        assert set(a.timings) == {"full", "no_cr1", "no_cr2", "no_cr3", "none"}

    def test_stage_subset(self, ablation_fixture):
        res, raw = ablation_fixture
        report = ablation(
            res.kg1, res.kg2, res.perturbed_store, raw, res.seeds, res.gold,
            stages=["none"],
        )
        assert set(report.per_stage_accuracy) == {"none"}
        assert report.accuracy == report.per_stage_accuracy["none"]
        assert report.mean_sparsity == 0.0

    def test_unknown_stage_rejected(self, ablation_fixture):
        res, raw = ablation_fixture
        with pytest.raises(ConfigError):
            ablation(
                res.kg1, res.kg2, res.perturbed_store, raw, res.seeds, res.gold,
                stages=["full", "no_cr9"],
            )

    def test_empty_stage_list_rejected(self, ablation_fixture):
        res, raw = ablation_fixture
        with pytest.raises(ConfigError, match="at least one stage"):
            ablation(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds, res.gold, stages=[])

    def test_config_snapshot_round_trips(self, ablation_fixture):
        res, raw = ablation_fixture
        report = ablation(
            res.kg1, res.kg2, res.perturbed_store, raw, res.seeds, res.gold,
            stages=["none"],
        )
        blob = json.loads(json.dumps(report.to_json_dict()))
        assert blob["config"]["repair"]["k"] == 10
        assert blob["config"]["stages"] == ["none"]
        assert isinstance(report, EvalReport)
