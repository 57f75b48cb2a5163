"""Conflict detection and repair: relation rules, one-to-many resolution,
low-confidence resolution, and the full pipeline."""

import itertools
import json
import math

import numpy as np
import pytest

from exea.adg import AdgConfig, sigmoid
from exea.embedding import EmbeddingStore, cosine, greedy_align, similarity_topk
from exea.errors import ConfigError, InvariantViolation, NoRelationVectors
from exea.kg import Kg, Side, Triple
from exea.repair import (
    AlignmentState,
    PairAnalyzer,
    RelationAlignment,
    RelationConflictReport,
    RepairConfig,
    apply_relation_repair,
    cross_kg_triples,
    detect_relation_conflicts,
    final_fill,
    mine_not_same_as_rules,
    mine_relation_alignment,
    one_to_one,
    repair,
    resolve_low_confidence,
    resolve_one_to_many,
)
from exea.synth import SynthConfig, generate_pair

from test_kg import make_kg, random_kg


def angles_to_rows(angles):
    return np.array([[math.cos(a), math.sin(a)] for a in np.radians(angles)])


def presidents_case():
    """Two officeholder graphs where a swapped successor triple contradicts a
    predicted pair through a mined not-same-as rule.

    Source: (Donald John Trump, followed by, Joe Biden). Target: Donald Trump
    has predecessor Barack Obama and successor Mike Pence. With the seed
    (Donald John Trump, Donald Trump) and the relation alignment
    followed-by <-> successor, the swapped triple (Donald Trump, successor,
    Joe Biden) joins (Donald Trump, predecessor, Barack Obama) under the rule
    (predecessor not-same-as successor) to derive that Joe Biden and Barack
    Obama differ, contradicting the predicted pair (1, 1).
    """
    kg1 = Kg(Side.SOURCE, ["Donald John Trump", "Joe Biden"], ["followed by"], [(0, 0, 1)])
    kg2 = Kg(
        Side.TARGET,
        ["Donald Trump", "Barack Obama", "Mike Pence"],
        ["predecessor", "successor"],
        [(0, 0, 1), (0, 1, 2)],
    )
    e1 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    e2 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    r1 = np.array([[1.0, 1.0, 0.0, 0.0]])
    r2 = np.array([[-1.0, -1.0, 0.0, 0.0], [1.0, 0.9, 0.0, 0.0]])
    store = EmbeddingStore(
        {Side.SOURCE: e1, Side.TARGET: e2},
        relation_vecs={Side.SOURCE: r1, Side.TARGET: r2},
    )
    seeds = [(0, 0)]
    raw = [(1, 1, cosine(e1[1], e2[1]))]
    cfg = RepairConfig(relation_vector_source="native")
    return kg1, kg2, store, seeds, raw, cfg


def star_pair(n_spokes, hub_angle1=0.0, hub_angle2=0.0, spoke_angles1=None, spoke_angles2=None,
              shared_relation=False):
    """Hub-and-spoke graphs on both sides with one spoke entity per index.

    Entity 0 is the hub; spokes are 1..n_spokes. With ``shared_relation`` all
    spokes hang off one relation (functionality 1/n), otherwise each spoke
    gets its own relation (functionality 1).
    """
    n = n_spokes + 1
    if shared_relation:
        t1 = [(0, 0, i) for i in range(1, n)]
        t2 = [(0, 0, i) for i in range(1, n)]
        n_rel = 1
    else:
        t1 = [(0, i - 1, i) for i in range(1, n)]
        t2 = [(0, i - 1, i) for i in range(1, n)]
        n_rel = n_spokes
    kg1 = make_kg(n, t1, n_rel=n_rel, side=Side.SOURCE)
    kg2 = make_kg(n, t2, n_rel=n_rel, side=Side.TARGET)
    a1 = [hub_angle1] + list(spoke_angles1)
    a2 = [hub_angle2] + list(spoke_angles2)
    store = EmbeddingStore({Side.SOURCE: angles_to_rows(a1), Side.TARGET: angles_to_rows(a2)})
    return kg1, kg2, store


BETA = sigmoid(0.5)


class TestRepairConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h": 0},
            {"h": 3},
            {"k": 0},
            {"beta": -0.1},
            {"beta": 1.5},
            {"score_lambda": -1.0},
            {"triple_budget": -1},
            {"candidate_cap": 0},
            {"relation_vector_source": "bert"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            RepairConfig(**kwargs)

    def test_effective_beta_defaults_to_sigmoid_theta(self):
        assert RepairConfig().effective_beta() == pytest.approx(sigmoid(0.5))
        custom = RepairConfig(adg=AdgConfig(theta=1.0))
        assert custom.effective_beta() == pytest.approx(sigmoid(1.0))

    def test_explicit_beta_wins(self):
        assert RepairConfig(beta=0.9).effective_beta() == 0.9


class TestAlignmentState:
    def test_seed_and_prediction_bookkeeping(self):
        state = AlignmentState([(0, 0)], [(1, 1, 0.9), (2, 1, 0.8)])
        assert state.is_seed_pair(0, 0)
        assert state.target_of(1) == 1
        assert state.provenance_of(0) == "seed"
        assert state.provenance_of(2) == "predicted"
        assert state.similarity_of(2) == pytest.approx(0.8)
        assert state.sources_of(1) == (1, 2)
        assert state.multi_claimed_targets() == [1]

    def test_non_injective_seeds_rejected(self):
        with pytest.raises(ConfigError):
            AlignmentState([(0, 0), (1, 0)])
        with pytest.raises(ConfigError):
            AlignmentState([(0, 0), (0, 1)])

    def test_duplicate_prediction_source_rejected(self):
        with pytest.raises(ConfigError):
            AlignmentState([], [(1, 1, 0.9), (1, 2, 0.8)])

    def test_prediction_for_seed_source_is_dropped(self):
        state = AlignmentState([(0, 0)], [(0, 5, 0.9)])
        assert state.target_of(0) == 0
        assert state.provenance_of(0) == "seed"
        assert 5 in state.target_universe

    @pytest.mark.parametrize("seeds,preds", [
        ([(7, 0)], []),
        ([(0, 7)], []),
        ([(-1, 0)], []),
        ([], [(7, 0, 0.5)]),
        ([], [(0, -2, 0.5)]),
    ])
    def test_out_of_range_rejected_when_bounds_given(self, seeds, preds):
        with pytest.raises(ConfigError):
            AlignmentState(seeds, preds, n_sources=5, n_targets=5)

    def test_seed_immutability(self):
        state = AlignmentState([(0, 0)], [(1, 1, 0.9)])
        with pytest.raises(InvariantViolation):
            state.unalign(0)
        with pytest.raises(InvariantViolation):
            state.align(0, 2, "repaired")

    def test_double_align_and_missing_unalign_rejected(self):
        state = AlignmentState([], [(1, 1, 0.9)])
        with pytest.raises(InvariantViolation):
            state.align(1, 2, "repaired")
        with pytest.raises(InvariantViolation):
            state.unalign(3)

    def test_mutation_log_and_version(self):
        state = AlignmentState([], [(1, 1, 0.9)])
        assert state.version == 0
        state.unalign(1)
        state.align(1, 2, "repaired", 0.7)
        assert state.mutations == [(1, 1), (1, 2)]
        assert state.version == 2

    def test_universe_and_unaligned_sets(self):
        state = AlignmentState([(0, 0)], [(1, 1, 0.9)], n_sources=4, n_targets=3)
        assert state.unaligned_sources == {2, 3}
        assert state.unaligned_targets == {2}

    def test_check_injective(self):
        state = AlignmentState([], [(1, 0, 0.9), (2, 0, 0.8)])
        with pytest.raises(InvariantViolation):
            state.check_injective()
        state.unalign(2)
        state.check_injective()


class TestMineRelationAlignment:
    def make_store(self, v1, v2):
        dim = np.asarray(v1).shape[1]
        ents = np.eye(max(3, dim))[:3, :dim]
        return EmbeddingStore(
            {Side.SOURCE: ents, Side.TARGET: ents},
            relation_vecs={Side.SOURCE: np.asarray(v1), Side.TARGET: np.asarray(v2)},
        )

    def kg_with_rels(self, n_rel, side):
        triples = [(0, r, 1) for r in range(n_rel)]
        return make_kg(3, triples, n_rel=n_rel, side=side)

    def test_identical_vector_sets_pair_identically(self):
        vecs = angles_to_rows([0, 60, 120])
        store = self.make_store(vecs, vecs)
        ra = mine_relation_alignment(
            store, self.kg_with_rels(3, Side.SOURCE), self.kg_with_rels(3, Side.TARGET), "native"
        )
        assert [(a.index, b.index) for a, b, _ in ra.pairs] == [(0, 0), (1, 1), (2, 2)]
        assert all(sim == pytest.approx(1.0) for _, _, sim in ra.pairs)

    def test_single_relation_per_side(self):
        store = self.make_store([[1.0, 0.0]], [[0.0, 1.0]])
        ra = mine_relation_alignment(
            store, self.kg_with_rels(1, Side.SOURCE), self.kg_with_rels(1, Side.TARGET), "native"
        )
        assert [(a.index, b.index) for a, b, _ in ra.pairs] == [(0, 0)]

    def test_mutual_best_only(self):
        # nearest-neighbor structure by angle: 0<->0 and 2<->2 are mutual,
        # source 1 prefers target 1 but target 1 prefers source 0, and
        # source 3 prefers target 2 which prefers source 2
        v1 = angles_to_rows([0, 50, 130, 170])
        v2 = angles_to_rows([10, 20, 140, 95])
        store = self.make_store(v1, v2)
        ra = mine_relation_alignment(
            store, self.kg_with_rels(4, Side.SOURCE), self.kg_with_rels(4, Side.TARGET), "native"
        )
        assert [(a.index, b.index) for a, b, _ in ra.pairs] == [(0, 0), (2, 2)]

    def test_zero_rows_never_participate(self):
        v1 = [[1.0, 0.0], [0.0, 0.0]]
        v2 = [[1.0, 0.0], [0.0, 0.0]]
        store = self.make_store(v1, v2)
        ra = mine_relation_alignment(
            store, self.kg_with_rels(2, Side.SOURCE), self.kg_with_rels(2, Side.TARGET), "native"
        )
        assert [(a.index, b.index) for a, b, _ in ra.pairs] == [(0, 0)]

    def test_derived_source_ignores_native_vectors(self):
        # entity geometry pairs the relations identically, while the planted
        # native vectors pair them crosswise
        ents = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        kg1 = make_kg(4, [(0, 0, 1), (2, 1, 3)], side=Side.SOURCE)
        kg2 = make_kg(4, [(0, 0, 1), (2, 1, 3)], side=Side.TARGET)
        native1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        native2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        store = EmbeddingStore(
            {Side.SOURCE: ents, Side.TARGET: ents},
            relation_vecs={Side.SOURCE: native1, Side.TARGET: native2},
        )
        derived = mine_relation_alignment(store, kg1, kg2, "derived")
        native = mine_relation_alignment(store, kg1, kg2, "native")
        assert [(a.index, b.index) for a, b, _ in derived.pairs] == [(0, 0), (1, 1)]
        assert [(a.index, b.index) for a, b, _ in native.pairs] == [(0, 1), (1, 0)]

    def test_name_source_and_missing_vectors(self):
        ents = np.eye(2)
        kg1 = self.kg_with_rels(2, Side.SOURCE)
        kg2 = self.kg_with_rels(2, Side.TARGET)
        plain = EmbeddingStore({Side.SOURCE: ents, Side.TARGET: ents})
        with pytest.raises(NoRelationVectors):
            mine_relation_alignment(plain, kg1, kg2, "native")
        with pytest.raises(NoRelationVectors):
            mine_relation_alignment(plain, kg1, kg2, "name")
        named = EmbeddingStore(
            {Side.SOURCE: ents, Side.TARGET: ents},
            name_relation_vecs={Side.SOURCE: angles_to_rows([0, 90]), Side.TARGET: angles_to_rows([5, 85])},
        )
        ra = mine_relation_alignment(named, kg1, kg2, "name")
        assert [(a.index, b.index) for a, b, _ in ra.pairs] == [(0, 0), (1, 1)]

    def test_unknown_source_rejected(self):
        ents = np.eye(2)
        store = EmbeddingStore({Side.SOURCE: ents, Side.TARGET: ents})
        with pytest.raises(ConfigError):
            mine_relation_alignment(store, self.kg_with_rels(1, Side.SOURCE), self.kg_with_rels(1, Side.TARGET), "bert")


def brute_force_rules(kg, rel_align):
    """Literal scan over all relation pairs and triples."""
    out = set()
    trips = kg.triple_keys
    for r1 in range(kg.n_relations):
        for r2 in range(r1 + 1, kg.n_relations):
            if rel_align.aligns(kg.relation(r1), kg.relation(r2)):
                continue
            so1 = {(s, o) for s, r, o in trips if r == r1}
            so2 = {(s, o) for s, r, o in trips if r == r2}
            if not so1 or not so2 or so1 & so2:
                continue
            if any(s1 == s2 and o1 != o2 for s1, o1 in so1 for s2, o2 in so2):
                out.add((r1, r2))
    return out


class TestMineNotSameAsRules:
    empty_align = RelationAlignment(pairs=())

    def test_presidents_rule_emitted(self):
        kg1, kg2, store, seeds, raw, cfg = presidents_case()
        ra = mine_relation_alignment(store, kg1, kg2, "native")
        rules = mine_not_same_as_rules(kg2, ra)
        assert [(r.r1.label, r.r2.label) for r in rules] == [("predecessor", "successor")]
        assert mine_not_same_as_rules(kg1, ra) == []

    def test_disjoint_subject_sets_give_no_rule(self):
        kg = make_kg(4, [(0, 0, 1), (2, 1, 3)])
        assert mine_not_same_as_rules(kg, self.empty_align) == []

    def test_shared_subject_object_pair_blocks_rule(self):
        kg = make_kg(3, [(0, 0, 1), (0, 1, 1), (0, 1, 2)])
        assert mine_not_same_as_rules(kg, self.empty_align) == []

    def test_aligned_pair_blocks_rule(self):
        kg = make_kg(3, [(0, 0, 1), (0, 1, 2)], side=Side.SOURCE)
        rules = mine_not_same_as_rules(kg, self.empty_align)
        assert [(r.r1.index, r.r2.index) for r in rules] == [(0, 1)]
        crossed = RelationAlignment(pairs=((kg.relation(0), kg.relation(1), 1.0),))
        assert mine_not_same_as_rules(kg, crossed) == []

    def test_rule_refs_are_canonical_and_sided(self):
        kg = make_kg(3, [(0, 1, 1), (0, 0, 2)], side=Side.TARGET)
        (rule,) = mine_not_same_as_rules(kg, self.empty_align)
        assert rule.side is Side.TARGET
        assert rule.r1.index < rule.r2.index

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            kg = random_kg(rng, 15, 4, 50)
            mined = {(r.r1.index, r.r2.index) for r in mine_not_same_as_rules(kg, self.empty_align)}
            assert mined == brute_force_rules(kg, self.empty_align), f"trial {trial}"


class TestCrossKgTriples:
    def build(self):
        kg1, kg2, store, seeds, raw, cfg = presidents_case()
        state = AlignmentState(seeds, raw, n_sources=kg1.n_entities, n_targets=kg2.n_entities)
        analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
        ra = mine_relation_alignment(store, kg1, kg2, "native")
        return kg1, kg2, store, state, analyzer, ra

    def expected_variants(self, kg1, kg2):
        djt, jb = kg1.entity(0), kg1.entity(1)
        fb = kg1.relation(0)
        dt, bo, mp = kg2.entity(0), kg2.entity(1), kg2.entity(2)
        pred, succ = kg2.relation(0), kg2.relation(1)
        return {
            # from (Donald John Trump, followed by, Joe Biden)
            Triple(dt, fb, jb), Triple(djt, succ, jb), Triple(djt, fb, bo),
            Triple(dt, succ, jb), Triple(dt, fb, bo), Triple(djt, succ, bo),
            Triple(dt, succ, bo),
            # from (Donald Trump, predecessor, Barack Obama); predecessor has
            # no aligned relation, so only entity swaps
            Triple(djt, pred, bo), Triple(dt, pred, jb), Triple(djt, pred, jb),
            # from (Donald Trump, successor, Mike Pence); Mike Pence unaligned
            Triple(djt, succ, mp), Triple(dt, fb, mp), Triple(djt, fb, mp),
        }

    def test_hand_enumerated_swap_set(self):
        kg1, kg2, store, state, analyzer, ra = self.build()
        adg = analyzer.adg(1, 1)
        got = cross_kg_triples(adg, state, ra, kg1, kg2)
        assert set(got) == self.expected_variants(kg1, kg2)
        assert Triple(kg2.entity(0), kg2.relation(1), kg1.entity(1)) in got

    def test_no_strong_edges_yields_nothing(self):
        kg1, kg2, store, seeds, raw, cfg = presidents_case()
        state = AlignmentState([], raw, n_sources=kg1.n_entities, n_targets=kg2.n_entities)
        analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
        ra = mine_relation_alignment(store, kg1, kg2, "native")
        adg = analyzer.adg(1, 1)
        assert adg.edges == []
        assert cross_kg_triples(adg, state, ra, kg1, kg2) == []

    def test_budget_zero_and_budget_cap(self):
        kg1, kg2, store, state, analyzer, ra = self.build()
        adg = analyzer.adg(1, 1)
        assert cross_kg_triples(adg, state, ra, kg1, kg2, budget=0) == []
        # budget 1 consults only Joe Biden's single source-side triple
        capped = cross_kg_triples(adg, state, ra, kg1, kg2, budget=1)
        base_one = {
            t for t in self.expected_variants(kg1, kg2)
            if t.relation.label in ("followed by", "successor") and t.object.label != "Mike Pence"
        }
        assert set(capped) == base_one
        assert len(capped) == 7

    def test_deterministic_order(self):
        kg1, kg2, store, state, analyzer, ra = self.build()
        adg = analyzer.adg(1, 1)
        a = cross_kg_triples(adg, state, ra, kg1, kg2)
        b = cross_kg_triples(adg, state, ra, kg1, kg2)
        assert a == b


class TestRelationConflictDetection:
    def test_presidents_central_pair_flagged(self):
        kg1, kg2, store, seeds, raw, cfg = presidents_case()
        state = AlignmentState(seeds, raw, n_sources=kg1.n_entities, n_targets=kg2.n_entities)
        analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
        ra = mine_relation_alignment(store, kg1, kg2, "native")
        rules = mine_not_same_as_rules(kg1, ra) + mine_not_same_as_rules(kg2, ra)
        found = detect_relation_conflicts(analyzer.adg(1, 1), rules, ra, state, kg1, kg2, cfg)
        assert found.central_flagged
        assert (1, 1) in found.derived_pairs
        assert found.pruned_neighbor_pairs == []

    def test_no_rules_leave_adg_unchanged(self):
        kg1, kg2, store, seeds, raw, cfg = presidents_case()
        state = AlignmentState(seeds, raw, n_sources=kg1.n_entities, n_targets=kg2.n_entities)
        analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
        ra = mine_relation_alignment(store, kg1, kg2, "native")
        adg = analyzer.adg(1, 1)
        found = detect_relation_conflicts(adg, [], ra, state, kg1, kg2, cfg)
        assert found.derived_pairs == []
        assert not found.central_flagged
        repaired = apply_relation_repair(adg, found, cfg.adg)
        assert repaired.confidence == pytest.approx(adg.confidence)
        assert len(repaired.neighbors) == len(adg.neighbors)

    def test_pruning_neighbor_recomputes_confidence(self):
        kg1, kg2, store, seeds, raw, cfg = presidents_case()
        state = AlignmentState(seeds, raw, n_sources=kg1.n_entities, n_targets=kg2.n_entities)
        analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
        adg = analyzer.adg(1, 1)
        assert adg.confidence == pytest.approx(sigmoid(1.0))
        report = RelationConflictReport(
            derived_pairs=[(0, 0)], pruned_neighbor_pairs=[(0, 0)], central_flagged=True
        )
        repaired = apply_relation_repair(adg, report, cfg.adg)
        assert repaired.neighbors == []
        assert repaired.edges == []
        assert repaired.confidence == pytest.approx(sigmoid(0.0))
        assert repaired.central_conflict

    def test_deep_chaining_flag_converges_to_same_facts(self):
        kg1, kg2, store, seeds, raw, _ = presidents_case()
        state = AlignmentState(seeds, raw, n_sources=kg1.n_entities, n_targets=kg2.n_entities)
        shallow_cfg = RepairConfig(relation_vector_source="native")
        deep_cfg = RepairConfig(relation_vector_source="native", deep_chaining=True)
        analyzer = PairAnalyzer(kg1, kg2, store, state, shallow_cfg)
        ra = mine_relation_alignment(store, kg1, kg2, "native")
        rules = mine_not_same_as_rules(kg2, ra)
        adg = analyzer.adg(1, 1)
        shallow = detect_relation_conflicts(adg, rules, ra, state, kg1, kg2, shallow_cfg)
        deep = detect_relation_conflicts(adg, rules, ra, state, kg1, kg2, deep_cfg)
        assert shallow.derived_pairs == deep.derived_pairs


class TestPairAnalyzer:
    def build(self):
        spokes1 = [50, 15]
        spokes2 = [53.13, 36.87]
        kg1, kg2, store = star_pair(2, spoke_angles1=spokes1, spoke_angles2=spokes2)
        state = AlignmentState([], [(0, 0, 1.0), (1, 1, 0.9)], n_sources=3, n_targets=3)
        analyzer = PairAnalyzer(kg1, kg2, store, state, RepairConfig())
        return state, analyzer

    def test_confidence_tracks_state_mutations(self):
        state, analyzer = self.build()
        with_neighbor = analyzer.confidence(1, 1)
        assert with_neighbor == pytest.approx(sigmoid(1.0))
        state.unalign(0)
        assert analyzer.confidence(1, 1) == pytest.approx(sigmoid(0.0))
        state.align(0, 0, "repaired", 1.0)
        assert analyzer.confidence(1, 1) == pytest.approx(with_neighbor)

    def test_banned_pairs_leave_matched_neighborhoods(self):
        state, analyzer = self.build()
        assert analyzer.confidence(1, 1) == pytest.approx(sigmoid(1.0))
        analyzer.ban([(0, 0)])
        assert analyzer.neighbor_pairs(1, 1) == []
        assert analyzer.confidence(1, 1) == pytest.approx(sigmoid(0.0))


class TestOneToOne:
    def build_town(self, predictions, k=3):
        """Seeded hub pair, two spokes per side, and an isolated entity 3 on
        each side. The matched hub gives any (spoke, spoke) pair confidence
        sigmoid(0.5); pairs touching an isolated entity get sigmoid(0)."""
        kg1 = make_kg(4, [(0, 0, 1), (0, 0, 2)], side=Side.SOURCE)
        kg2 = make_kg(4, [(0, 0, 1), (0, 0, 2)], side=Side.TARGET)
        e1 = angles_to_rows([0, 53.13, 50, 15])
        e2 = angles_to_rows([0, 53.13, 36.87, 90])
        store = EmbeddingStore({Side.SOURCE: e1, Side.TARGET: e2})
        state = AlignmentState([(0, 0)], predictions)
        analyzer = PairAnalyzer(kg1, kg2, store, state, RepairConfig(k=k))
        sources = sorted(state.source_universe - {0})
        topk = similarity_topk(store, sources, range(4), k)
        return state, analyzer, topk

    def test_injective_input_is_fixpoint(self):
        state, analyzer, topk = self.build_town([(1, 1, 0.99), (2, 2, 0.9)])
        displaced = one_to_one(state, analyzer)
        assert displaced == set()
        assert state.pairs() == [(0, 0, "seed", None), (1, 1, "predicted", 0.99), (2, 2, "predicted", 0.9)]

    def test_higher_confidence_claimant_wins(self):
        # source 3 is hubless, so its confidence sigmoid(0) loses to 2's sigmoid(0.5)
        state, analyzer, topk = self.build_town([(2, 1, 0.9), (3, 1, 0.99)])
        displaced = one_to_one(state, analyzer)
        assert displaced == {3}
        assert state.target_of(2) == 1
        assert state.target_of(3) is None

    def test_tie_goes_to_lower_source_index(self):
        state, analyzer, topk = self.build_town([(1, 1, 0.9), (2, 1, 0.99)])
        assert analyzer.confidence(1, 1) == pytest.approx(analyzer.confidence(2, 1))
        displaced = one_to_one(state, analyzer)
        assert displaced == {2}
        assert state.target_of(1) == 1

    def test_seed_claimant_is_unbeatable(self):
        state, analyzer, topk = self.build_town([(1, 0, 0.99)])
        displaced = one_to_one(state, analyzer)
        assert displaced == {1}
        assert state.target_of(0) == 0
        assert state.provenance_of(0) == "seed"


class TestResolveOneToMany:
    build_town = TestOneToOne.build_town

    def test_loser_reassigned_to_free_target(self):
        # both spokes claim target 1; loser 2 walks to its next candidate,
        # target 2, which is free
        state, analyzer, topk = self.build_town([(1, 1, 0.99), (2, 1, 0.97)])
        leftover, stats = resolve_one_to_many(state, analyzer, topk, 3)
        assert leftover == set()
        assert stats["evictions"] == 0
        assert dict((s, t) for s, t, _, _ in state.pairs()) == {0: 0, 1: 1, 2: 2}
        state.check_injective()

    def test_k1_stuck_loser_stays_unaligned(self):
        state, analyzer, topk = self.build_town([(1, 1, 0.99), (2, 1, 0.97)], k=1)
        leftover, stats = resolve_one_to_many(state, analyzer, topk, 1)
        assert leftover == {2}
        assert state.target_of(2) is None
        assert state.target_of(1) == 1

    def test_eviction_chain_respects_loop_guard(self):
        # displaced source 2 evicts the weaker incumbent 3 from target 2; the
        # queue size stays at one, so the loop stops and 3 is reported
        state, analyzer, topk = self.build_town([(1, 1, 0.99), (2, 1, 0.97), (3, 2, 0.9)])
        assert analyzer.confidence(2, 2) > analyzer.confidence(3, 2)
        leftover, stats = resolve_one_to_many(state, analyzer, topk, 3)
        assert stats["evictions"] == 1
        assert leftover == {3}
        assert state.target_of(2) == 2
        assert state.target_of(3) is None

    def test_never_evicts_stronger_incumbent(self):
        # hubless source 3 contests both occupied targets and wins neither
        state, analyzer, topk = self.build_town([(1, 1, 0.99), (2, 2, 0.9), (3, 1, 0.98)])
        leftover, stats = resolve_one_to_many(state, analyzer, topk, 2)
        assert stats["evictions"] == 0
        assert leftover == {3}
        assert state.target_of(1) == 1
        assert state.target_of(2) == 2


class TestResolveLowConfidence:
    def build_star(self, spoke_angles1, spoke_angles2, predictions, flagged=frozenset(), **cfg_kwargs):
        n = len(spoke_angles1)
        kg1, kg2, store = star_pair(n, spoke_angles1=spoke_angles1, spoke_angles2=spoke_angles2)
        state = AlignmentState([(0, 0)], predictions)
        cfg = RepairConfig(**cfg_kwargs)
        analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
        return state, analyzer, cfg, set(flagged)

    def test_confident_pairs_untouched(self):
        state, analyzer, cfg, flags = self.build_star(
            [50, 15], [53.13, 36.87], [(1, 1, 0.99), (2, 2, 0.9)]
        )
        assert analyzer.confidence(1, 1) == pytest.approx(sigmoid(1.0))
        leftover, stats = resolve_low_confidence(state, analyzer, cfg, set(), flags)
        assert stats["stripped"] == 0
        assert leftover == set()
        assert dict((s, t) for s, t, _, _ in state.pairs()) == {0: 0, 1: 1, 2: 2}

    def test_flag_is_consumed_once(self):
        state, analyzer, cfg, flags = self.build_star(
            [50, 15], [53.13, 36.87], [(1, 1, 0.99), (2, 2, 0.9)], flagged={1}
        )
        leftover, stats = resolve_low_confidence(state, analyzer, cfg, set(), flags)
        assert stats["stripped"] == 1
        assert leftover == set()
        assert state.target_of(1) == 1
        assert state.provenance_of(1) == "repaired"

    def test_low_confidence_pair_stripped_and_rematched(self):
        # source 2's prediction points at isolated target 3: no matched
        # neighbor, confidence sigmoid(0) < beta, so it is stripped and
        # rematched to the free in-star target 2
        kg1 = make_kg(3, [(0, 0, 1), (0, 1, 2)], side=Side.SOURCE)
        kg2 = make_kg(5, [(0, 0, 1), (0, 1, 2)], n_rel=2, side=Side.TARGET)
        store = EmbeddingStore({Side.SOURCE: angles_to_rows([0, 53.13, 50]),
                                Side.TARGET: angles_to_rows([0, 53.13, 45, 90, 170])})
        state = AlignmentState([(0, 0)], [(1, 1, 0.99), (2, 3, 0.7)])
        cfg = RepairConfig()
        analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
        assert analyzer.confidence(2, 3) < cfg.effective_beta()
        leftover, stats = resolve_low_confidence(state, analyzer, cfg, set(), set())
        assert stats["stripped"] == 1
        assert state.target_of(2) == 2
        assert leftover == set()

    def test_contest_by_score_evicts_weaker(self):
        # equal confidences, so the similarity term decides: source 2 sits
        # closer to target 1 than incumbent 1 does and takes it over
        state, analyzer, cfg, flags = self.build_star(
            [50, 42], [45, 90], [(1, 1, 0.9), (2, 2, 0.3)], flagged={1, 2}
        )
        sim11 = analyzer.similarity(1, 1)
        sim21 = analyzer.similarity(2, 1)
        assert sim21 > sim11
        leftover, stats = resolve_low_confidence(state, analyzer, cfg, set(), flags)
        assert stats["swaps"] == 1
        assert state.target_of(2) == 1
        assert state.target_of(1) == 2
        assert leftover == set()

    def test_greedy_result_matches_brute_force_on_separated_scores(self):
        spokes1 = [20, 60, 100]
        spokes2 = [22, 62, 102]
        state, analyzer, cfg, flags = self.build_star(
            spokes1, spokes2,
            [(1, 1, 0.9), (2, 2, 0.9), (3, 3, 0.9)], flagged={1, 2, 3},
        )
        score = {
            (s, t): analyzer.confidence(s, t) + analyzer.similarity(s, t)
            for s in (1, 2, 3)
            for t in (1, 2, 3)
        }
        best = max(
            itertools.permutations((1, 2, 3)),
            key=lambda perm: sum(score[(s, t)] for s, t in zip((1, 2, 3), perm)),
        )
        leftover, stats = resolve_low_confidence(state, analyzer, cfg, set(), flags)
        assert leftover == set()
        got = dict((s, t) for s, t, _, _ in state.pairs())
        assert tuple(got[s] for s in (1, 2, 3)) == best


class TestFinalFill:
    def test_descending_similarity_order(self):
        e1 = angles_to_rows([10, 30])
        e2 = angles_to_rows([28, 13])
        store = EmbeddingStore({Side.SOURCE: e1, Side.TARGET: e2})
        state = AlignmentState([], [], n_sources=2, n_targets=2)
        stats = final_fill(state, store)
        # best pair is (1, 0) at 2 degrees apart, then (0, 1) at 3 degrees;
        # the straight pairs at 18+ degrees never get a turn
        assert stats["filled"] == 2
        assert state.target_of(1) == 0
        assert state.target_of(0) == 1
        assert stats["unaligned_sources"] == []

    def test_pigeonhole_reports_leftover(self):
        e1 = angles_to_rows([0, 40, 80])
        e2 = angles_to_rows([1, 41])
        store = EmbeddingStore({Side.SOURCE: e1, Side.TARGET: e2})
        state = AlignmentState([], [], n_sources=3, n_targets=2)
        stats = final_fill(state, store)
        assert stats["filled"] == 2
        assert stats["unaligned_sources"] == [2]
        state.check_injective()

    def test_nothing_to_do(self):
        e = angles_to_rows([0, 40])
        store = EmbeddingStore({Side.SOURCE: e, Side.TARGET: e})
        state = AlignmentState([(0, 0)], [(1, 1, 0.9)], n_sources=2, n_targets=2)
        stats = final_fill(state, store)
        assert stats["filled"] == 0
        assert stats["unaligned_sources"] == []


class TestPresidentsPipeline:
    def test_flag_routes_to_low_confidence_and_pair_survives(self):
        kg1, kg2, store, seeds, raw, cfg = presidents_case()
        out = repair(kg1, kg2, store, raw, seeds, cfg)
        assert out.report.flagged_sources == [1]
        assert [1, 1] in out.report.derived_not_same_as
        assert out.report.rules == [
            {"side": "target", "r1": 0, "r2": 1, "r1_label": "predecessor", "r2_label": "successor"}
        ]
        assert {(a["source_label"], a["target_label"]) for a in out.report.relation_alignment} == {
            ("followed by", "successor")
        }
        # the flagged pair is re-examined and wins its own slot back
        assert dict(out.pairs) == {0: 0, 1: 1}
        assert out.state.provenance_of(1) == "repaired"
        assert out.report.low_confidence["stripped"] >= 1


@pytest.fixture(scope="module")
def conflict_fixture():
    cfg = SynthConfig(n_entities=200, conflict_injection=0.2, rng_seed=13)
    res = generate_pair(cfg)
    gold = dict(res.gold)
    seed_set = {s for s, _ in res.seeds}
    free = [i for i in range(200) if i not in seed_set]
    raw = greedy_align(res.perturbed_store, free, range(200))
    return res, gold, raw


class TestRepairPipeline:
    def accuracy(self, pairs, gold):
        return sum(1 for s, t in pairs if gold.get(s) == t)

    def test_repair_recovers_injected_conflicts(self, conflict_fixture):
        res, gold, raw = conflict_fixture
        raw_acc = self.accuracy([(s, t) for s, t, _ in raw], gold) + len(res.seeds)
        assert raw_acc == 160  # measured once on this frozen fixture and pinned
        out = repair(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds)
        acc = self.accuracy(out.pairs, gold)
        assert acc >= raw_acc
        assert acc == 200  # measured once on this frozen fixture and pinned
        out.state.check_injective()
        assert len(out.pairs) == 200

    def test_seeds_survive_bitwise(self, conflict_fixture):
        res, gold, raw = conflict_fixture
        out = repair(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds)
        final = dict(out.pairs)
        for s, t in res.seeds:
            assert final[s] == t
            assert out.state.provenance_of(s) == "seed"

    def test_deterministic_reruns(self, conflict_fixture):
        res, gold, raw = conflict_fixture
        a = repair(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds)
        b = repair(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds)
        assert a.pairs == b.pairs
        assert json.dumps(a.report.to_json_dict(), sort_keys=True) == json.dumps(
            b.report.to_json_dict(), sort_keys=True
        )

    def test_disabling_one_to_many_costs_accuracy(self, conflict_fixture):
        res, gold, raw = conflict_fixture
        full = repair(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds)
        ablated = repair(
            res.kg1, res.kg2, res.perturbed_store, raw, res.seeds,
            RepairConfig(enable_one_to_many=False),
        )
        assert ablated.report.one_to_many == {"skipped": True}
        assert self.accuracy(ablated.pairs, gold) < self.accuracy(full.pairs, gold)

    def test_all_stages_disabled_reproduces_raw(self, conflict_fixture):
        res, gold, raw = conflict_fixture
        out = repair(
            res.kg1, res.kg2, res.perturbed_store, raw, res.seeds,
            RepairConfig(
                enable_relation_repair=False,
                enable_one_to_many=False,
                enable_low_confidence=False,
            ),
        )
        expected = {s: t for s, t, _ in raw}
        expected.update(dict(res.seeds))
        assert dict(out.pairs) == expected

    def test_ideal_embeddings_need_no_repair(self):
        cfg = SynthConfig(n_entities=40, rng_seed=3, embedding_noise=0.0)
        res = generate_pair(cfg)
        gold = dict(res.gold)
        seed_set = {s for s, _ in res.seeds}
        free = [i for i in range(40) if i not in seed_set]
        raw = greedy_align(res.ideal_store, free, range(40))
        out = repair(res.kg1, res.kg2, res.ideal_store, raw, res.seeds)
        assert dict(out.pairs) == gold
        assert out.report.one_to_many["evictions"] == 0
        assert out.report.low_confidence["stripped"] == 0
        assert out.report.final_fill["filled"] == 0
        assert out.report.pruned_neighbor_pairs == []

    def test_report_is_json_serializable_with_snapshots(self, conflict_fixture):
        res, gold, raw = conflict_fixture
        out = repair(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds)
        blob = json.dumps(out.report.to_json_dict(), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["stages_enabled"] == {
            "relation_repair": True, "one_to_many": True, "low_confidence": True
        }
        assert len(parsed["confidence_before"]) == 200
        assert len(parsed["confidence_after"]) == 200
        for row in parsed["confidence_after"]:
            assert 0.0 <= row["confidence"] <= 1.0
        assert len(out.explanations) == 200
        assert len(out.adgs) == 200


class TestCachedExplanations:
    """repair() hands out the explanations and graphs its analyzer cached;
    each must equal a cold rebuild over the final state."""

    @pytest.mark.parametrize("rng_seed", [1, 2, 3])
    def test_cached_equals_cold_rebuild(self, rng_seed):
        res = generate_pair(SynthConfig(n_entities=200, conflict_injection=0.2, rng_seed=rng_seed))
        seed_set = {s for s, _ in res.seeds}
        free = [i for i in range(200) if i not in seed_set]
        raw = greedy_align(res.perturbed_store, free, range(200))
        cfg = RepairConfig()
        out = repair(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds, cfg)
        cold = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, out.state, cfg)
        cold.ban(tuple(p) for p in out.report.derived_not_same_as)
        assert len(out.pairs) == 200
        for s, t in out.pairs:
            cached, fresh = out.explanations[(s, t)], cold.explanation(s, t)
            assert cached.path_pairs == fresh.path_pairs
            assert cached.triple_keys == fresh.triple_keys
            assert cached.triples == fresh.triples
            assert out.adgs[(s, t)].confidence == cold.adg(s, t).confidence
            assert out.adgs[(s, t)] == cold.adg(s, t)
