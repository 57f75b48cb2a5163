"""Conflict detection and repair: relation rules, one-to-many resolution,
low-confidence resolution, and the full pipeline."""

import functools
import importlib
import itertools
import json
import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exea.cli
from exea.adg import Adg, AdgConfig, EdgeClass, sigmoid
from exea.embedding import (
    EmbeddingStore,
    greedy_align,
    pair_cosines,
    similarity_matrix,
    similarity_topk,
)
from exea.errors import ConfigError, InvariantViolation, NoRelationVectors
from exea.explain import Explanation, _ranges, explain_pairs, neighbor_lists
from exea.kg import Kg, Side, neighborhood_entities
from exea.repair import (
    REPAIRED,
    SEED,
    AlignmentState,
    ConflictTables,
    NotSameAsRule,
    PairAnalyzer,
    RelationAlignment,
    RepairConfig,
    _candidate_targets,
    _chain_rules,
    _outscores,
    _pack,
    _unpack,
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

from test_embedding import reference_cosine
from test_explain import matched_neighbors, reference_match_paths, unpacked
from conftest import adjacency
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
    raw = [(1, 1)]
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


def provenance_of(state, s):
    """The provenance of source ``s`` in ``state``, None when unaligned."""
    return next((prov for x, _, prov in state.pairs() if x == s), None)


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
        state = AlignmentState([(0, 0)], [(1, 1), (2, 1)], n_sources=3, n_targets=2)
        assert state.is_seed_pair(0, 0)
        assert state.forward[1] == 1
        assert provenance_of(state, 0) == "seed"
        assert provenance_of(state, 2) == "predicted"
        assert state.sources_of([1]) == [(1, 2)]
        assert state.multi_claimed_targets() == [1]

    def test_non_injective_seeds_rejected(self):
        with pytest.raises(ConfigError):
            AlignmentState([(0, 0), (1, 0)], [], n_sources=2, n_targets=2)
        with pytest.raises(ConfigError):
            AlignmentState([(0, 0), (0, 1)], [], n_sources=2, n_targets=2)

    def test_duplicate_prediction_source_rejected(self):
        with pytest.raises(ConfigError):
            AlignmentState([], [(1, 1), (1, 2)], n_sources=2, n_targets=3)

    def test_prediction_for_seed_source_is_dropped(self):
        state = AlignmentState([(0, 0)], [(0, 5)], n_sources=1, n_targets=6)
        assert state.forward[0] == 0
        assert provenance_of(state, 0) == "seed"
        assert 5 in state.unaligned_targets

    @pytest.mark.parametrize("seeds,preds", [
        ([(7, 0)], []),
        ([(0, 7)], []),
        ([(-1, 0)], []),
        ([], [(7, 0)]),
        ([], [(0, -2)]),
    ])
    def test_out_of_range_rejected_when_bounds_given(self, seeds, preds):
        with pytest.raises(ConfigError):
            AlignmentState(seeds, preds, n_sources=5, n_targets=5)

    def test_seed_immutability(self):
        state = AlignmentState([(0, 0)], [(1, 1)], n_sources=2, n_targets=3)
        with pytest.raises(InvariantViolation):
            state.unalign(0)
        with pytest.raises(InvariantViolation):
            state.align(0, 2, "repaired")

    def test_double_align_and_missing_unalign_rejected(self):
        state = AlignmentState([], [(1, 1)], n_sources=4, n_targets=3)
        with pytest.raises(InvariantViolation):
            state.align(1, 2, "repaired")
        with pytest.raises(InvariantViolation):
            state.unalign(3)

    def test_mutation_log(self):
        state = AlignmentState([], [(1, 1)], n_sources=2, n_targets=3)
        assert state.mutations == []
        state.unalign(1)
        state.align(1, 2, "repaired")
        assert state.mutations == [(1, 1), (1, 2)]

    def test_universe_and_unaligned_sets(self):
        state = AlignmentState([(0, 0)], [(1, 1)], n_sources=4, n_targets=3)
        assert state.unaligned_sources == {2, 3}
        assert state.unaligned_targets == {2}

    def test_forward_array_follows_the_pairs(self):
        state = AlignmentState([(0, 0)], [(1, 1), (2, 1), (3, 0)], n_sources=6, n_targets=4)

        def check():
            assert state.forward.dtype == np.int64
            targets = {s: t for s, t, _ in state.pairs()}
            assert state.forward.tolist() == [targets.get(s, -1) for s in range(6)]

        check()
        for op, *args in [("unalign", 2), ("align", 2, 3), ("unalign", 1), ("align", 5, 1),
                          ("unalign", 3), ("align", 1, 0), ("align", 3, 2)]:
            getattr(state, op)(*args, *(("repaired",) if op == "align" else ()))
            check()
        assert state.forward.tolist() == [0, 0, 3, 2, -1, 1]

    def test_check_injective(self):
        state = AlignmentState([], [(1, 0), (2, 0)], n_sources=3, n_targets=1)
        with pytest.raises(InvariantViolation):
            state.check_injective()
        state.unalign(2)
        state.check_injective()


class TestAlignmentStateAgainstDictModel:
    """``AlignmentState`` reads every answer off its forward array and its
    provenance; a model holding the alignment as a forward dict gives the
    same answers after any sequence of aligns and unaligns, refused ones
    included."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_dict_model(self, data):
        n_s, n_t = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        sources = st.integers(0, n_s - 1)
        targets = st.integers(0, n_t - 1)
        pairs = data.draw(st.lists(st.tuples(sources, targets), max_size=n_s))
        # one-to-one seeds: the first pair for each source and each target
        seeds: dict[int, int] = {}
        for s, t in pairs[: data.draw(st.integers(0, len(pairs)))]:
            if s not in seeds and t not in seeds.values():
                seeds[s] = t
        preds = data.draw(st.dictionaries(sources, targets))
        state = AlignmentState(seeds.items(), preds.items(), n_sources=n_s, n_targets=n_t)
        model = {s: (t, SEED) for s, t in seeds.items()}
        model.update((s, (t, "predicted")) for s, t in preds.items() if s not in seeds)
        log = []
        ops = st.tuples(st.sampled_from(["align", "unalign"]), sources, targets)
        for op, s, t in data.draw(st.lists(ops, max_size=30)):
            if s in seeds or (op == "align") == (s in model):
                with pytest.raises(InvariantViolation):
                    state.align(s, t, REPAIRED) if op == "align" else state.unalign(s)
            elif op == "align":
                state.align(s, t, REPAIRED)
                model[s] = (t, REPAIRED)
                log.append((s, t))
            else:
                assert state.unalign(s) == model[s][0]
                log.append((s, model.pop(s)[0]))
            claims = {x: sorted(a for a, (b, _) in model.items() if b == x) for x in range(n_t)}
            assert state.pairs() == [(a, b, p) for a, (b, p) in sorted(model.items())]
            assert state.forward.tolist() == [model.get(a, (-1,))[0] for a in range(n_s)]
            # no target (-1) and targets past the graph have no sources
            probes = range(-1, n_t + 2)
            expected = [tuple(claims.get(x, ())) for x in probes]
            assert state.sources_of(probes) == expected
            assert [state.sources_of([x])[0] for x in probes] == expected
            assert state.unaligned_sources == set(range(n_s)) - set(model)
            assert state.unaligned_targets == {x for x in range(n_t) if not claims[x]}
            multi = [x for x in range(n_t) if len(claims[x]) > 1]
            assert state.multi_claimed_targets() == multi
            if multi:
                with pytest.raises(InvariantViolation, match=f"target {multi[0]} is claimed"):
                    state.check_injective()
            else:
                state.check_injective()
            for a in range(-1, n_s + 1):
                if 0 <= a < n_s:
                    assert state.forward[a] == model.get(a, (-1,))[0]
                for b in range(n_t):
                    assert state.is_seed_pair(a, b) is (seeds.get(a) == b)
            assert state.mutations == log


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
        assert [(a, b) for a, b, _ in ra.pairs] == [(0, 0), (1, 1), (2, 2)]
        assert all(sim == pytest.approx(1.0) for _, _, sim in ra.pairs)

    def test_single_relation_per_side(self):
        store = self.make_store([[1.0, 0.0]], [[0.0, 1.0]])
        ra = mine_relation_alignment(
            store, self.kg_with_rels(1, Side.SOURCE), self.kg_with_rels(1, Side.TARGET), "native"
        )
        assert [(a, b) for a, b, _ in ra.pairs] == [(0, 0)]

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
        assert [(a, b) for a, b, _ in ra.pairs] == [(0, 0), (2, 2)]

    def test_zero_rows_never_participate(self):
        v1 = [[1.0, 0.0], [0.0, 0.0]]
        v2 = [[1.0, 0.0], [0.0, 0.0]]
        store = self.make_store(v1, v2)
        ra = mine_relation_alignment(
            store, self.kg_with_rels(2, Side.SOURCE), self.kg_with_rels(2, Side.TARGET), "native"
        )
        assert [(a, b) for a, b, _ in ra.pairs] == [(0, 0)]

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
        assert [(a, b) for a, b, _ in derived.pairs] == [(0, 0), (1, 1)]
        assert [(a, b) for a, b, _ in native.pairs] == [(0, 1), (1, 0)]

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
        assert [(a, b) for a, b, _ in ra.pairs] == [(0, 0), (1, 1)]

    def test_unknown_source_rejected(self):
        ents = np.eye(2)
        store = EmbeddingStore({Side.SOURCE: ents, Side.TARGET: ents})
        with pytest.raises(ConfigError):
            mine_relation_alignment(store, self.kg_with_rels(1, Side.SOURCE), self.kg_with_rels(1, Side.TARGET), "bert")


def brute_force_rules(kg):
    """Literal scan over all relation pairs and triples."""
    out = set()
    trips = kg.triple_keys
    for r1 in range(kg.n_relations):
        for r2 in range(r1 + 1, kg.n_relations):
            so1 = {(s, o) for s, r, o in trips if r == r1}
            so2 = {(s, o) for s, r, o in trips if r == r2}
            if not so1 or not so2 or so1 & so2:
                continue
            if any(s1 == s2 and o1 != o2 for s1, o1 in so1 for s2, o2 in so2):
                out.add((r1, r2))
    return out


class TestMineNotSameAsRules:
    def test_presidents_rule_emitted(self):
        kg1, kg2, store, seeds, raw, cfg = presidents_case()
        rules = mine_not_same_as_rules(kg2)
        labels = kg2.relation_labels
        assert [(labels[r.r1], labels[r.r2]) for r in rules] == [("predecessor", "successor")]
        assert mine_not_same_as_rules(kg1) == []

    def test_disjoint_subject_sets_give_no_rule(self):
        kg = make_kg(4, [(0, 0, 1), (2, 1, 3)])
        assert mine_not_same_as_rules(kg) == []

    def test_shared_subject_object_pair_blocks_rule(self):
        kg = make_kg(3, [(0, 0, 1), (0, 1, 1), (0, 1, 2)])
        assert mine_not_same_as_rules(kg) == []

    def test_aligned_pair_blocks_rule(self):
        kg = make_kg(3, [(0, 0, 1), (0, 1, 2)], side=Side.SOURCE)
        rules = mine_not_same_as_rules(kg)
        assert [(r.r1, r.r2) for r in rules] == [(0, 1)]

    def test_rule_refs_are_canonical_and_sided(self):
        kg = make_kg(3, [(0, 1, 1), (0, 0, 2)], side=Side.TARGET)
        (rule,) = mine_not_same_as_rules(kg)
        assert rule.side == 1
        assert rule.r1 < rule.r2

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            kg = random_kg(rng, 15, 4, 50)
            mined = {(r.r1, r.r2) for r in mine_not_same_as_rules(kg)}
            assert mined == brute_force_rules(kg), f"trial {trial}"


class Ref(NamedTuple):
    """An entity or relation of one side (0 source, 1 target): the value type
    of the reference enumeration and chaining below."""

    side: int
    index: int


class Trip(NamedTuple):
    subject: Ref
    relation: Ref
    object: Ref


def reference_strong_edge_entities(adg):
    pairs = []
    classes = list(EdgeClass)
    strong_nodes = {
        n for n, c in zip(adg.edge_neighbor.tolist(), adg.edge_class.tolist())
        if classes[c] is EdgeClass.STRONG
    }
    if strong_nodes:
        expl = adg.explanation
        pairs.append(expl.pair)
        pairs.extend(expl.matched_neighbor_pairs[i] for i in sorted(strong_nodes))
    return pairs


def reference_cross_kg_triples(adg, state, rel_align, kg1, kg2, budget=200):
    """The per-triple swap enumeration: ``Trip`` values, relation
    counterparts found by scanning ``rel_align`` for every base triple."""

    def rel_target_of(r):
        for a, b, _ in rel_align.pairs:
            if a == r:
                return b
        return None

    def rel_source_of(r):
        for a, b, _ in rel_align.pairs:
            if b == r:
                return a
        return None

    entity_pairs = reference_strong_edge_entities(adg)
    if not entity_pairs or budget == 0:
        return []
    fwd = {}
    rev = {}
    for s, t, _ in state.pairs():
        fwd[s] = t
        rev.setdefault(t, s)
    consulted = []
    seen_base = set()
    for e1, e2 in entity_pairs:
        for side, kg, ent in ((0, kg1, e1), (1, kg2, e2)):
            out_index, in_index = adjacency(kg)
            one_hop = sorted(
                [(ent, r, o) for r, o in out_index.get(ent, ())]
                + [(s, r, ent) for r, s in in_index.get(ent, ())]
            )
            for key in one_hop:
                tagged = (side, key)
                if tagged in seen_base:
                    continue
                seen_base.add(tagged)
                consulted.append(tagged)
                if len(consulted) >= budget:
                    break
            if len(consulted) >= budget:
                break
        if len(consulted) >= budget:
            break
    out = set()
    for side, (s, r, o) in consulted:
        subj, rel, obj = Ref(side, s), Ref(side, r), Ref(side, o)
        ents, rel_alt_of = (fwd, rel_target_of) if side == 0 else (rev, rel_source_of)
        subj_alt = Ref(1 - side, ents[s]) if s in ents else None
        obj_alt = Ref(1 - side, ents[o]) if o in ents else None
        r_alt = rel_alt_of(r)
        rel_alt = Ref(1 - side, r_alt) if r_alt is not None else None
        for use_s, use_r, use_o in itertools.product((False, True), repeat=3):
            if not (use_s or use_r or use_o):
                continue
            if (use_s and subj_alt is None) or (use_r and rel_alt is None) or (
                use_o and obj_alt is None
            ):
                continue
            out.add(Trip(subj_alt if use_s else subj, rel_alt if use_r else rel,
                         obj_alt if use_o else obj))
    return sorted(out, key=cross_key)


def reference_chain_rules(rules, cross, kg1, kg2):
    """Per-rule chaining: every rule against every subject's relation map,
    with ``Ref`` keys."""
    by_subject = {}

    def add(subj, rel, obj):
        by_subject.setdefault(subj, {}).setdefault(rel, set()).add(obj)

    for t in cross:
        add(t.subject, t.relation, t.object)
    kgs = (kg1, kg2)
    for subj in list(by_subject):
        kg = kgs[subj.side]
        if subj.index < kg.n_entities:
            for r, o in adjacency(kg)[0].get(subj.index, ()):
                add(subj, Ref(subj.side, r), Ref(subj.side, o))
    derived = set()
    for rule in rules:
        r1, r2 = Ref(rule.side, rule.r1), Ref(rule.side, rule.r2)
        for rel_map in by_subject.values():
            objs1 = rel_map.get(r1)
            objs2 = rel_map.get(r2)
            if not objs1 or not objs2:
                continue
            for a in objs1:
                for b in objs2:
                    if a == b or a.side == b.side:
                        continue
                    pair = (a, b) if a.side == 0 else (b, a)
                    derived.add((pair[0].index, pair[1].index))
    return derived


def cross_key(t):
    """A ``Trip`` as a (side, index) * 3 tuple."""
    return (*t.subject, *t.relation, *t.object)


def cross_keys(triples):
    return {cross_key(t) for t in triples}


def side_index(x, offset):
    """A ``ConflictTables`` id as its (side, index) pair."""
    return (0, x) if x < offset else (1, x - offset)


def cross_by_graph(rows, tables, n_graphs):
    """``cross_kg_triples`` rows as one list of (side, index) * 3 tuples per
    graph, in row order."""
    n1, r1 = tables.entity_offset, tables.relation_offset
    out = [[] for _ in range(n_graphs)]
    for g, s, r, o in rows.tolist():
        out[g].append((*side_index(s, n1), *side_index(r, r1), *side_index(o, n1)))
    return out


def derived_by_graph(rows, n_graphs):
    """``_chain_rules`` rows as one set of (source, target) facts per graph."""
    out = [set() for _ in range(n_graphs)]
    for g, s, t in rows.tolist():
        out[g].add((s, t))
    return out


class TestCrossKgTriples:
    def build(self):
        kg1, kg2, store, seeds, raw, cfg = presidents_case()
        state = AlignmentState(seeds, raw, n_sources=kg1.n_entities, n_targets=kg2.n_entities)
        analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
        ra = mine_relation_alignment(store, kg1, kg2, "native")
        return ConflictTables(kg1, kg2, state, ra), analyzer

    def expected_variants(self):
        djt, jb = Ref(0, 0), Ref(0, 1)
        fb = Ref(0, 0)
        dt, bo, mp = Ref(1, 0), Ref(1, 1), Ref(1, 2)
        pred, succ = Ref(1, 0), Ref(1, 1)
        return {
            # from (Donald John Trump, followed by, Joe Biden)
            Trip(dt, fb, jb), Trip(djt, succ, jb), Trip(djt, fb, bo),
            Trip(dt, succ, jb), Trip(dt, fb, bo), Trip(djt, succ, bo),
            Trip(dt, succ, bo),
            # from (Donald Trump, predecessor, Barack Obama); predecessor has
            # no aligned relation, so only entity swaps
            Trip(djt, pred, bo), Trip(dt, pred, jb), Trip(djt, pred, jb),
            # from (Donald Trump, successor, Mike Pence); Mike Pence unaligned
            Trip(djt, succ, mp), Trip(dt, fb, mp), Trip(djt, fb, mp),
        }

    def cross(self, tables, adg, budget=200):
        return cross_by_graph(cross_kg_triples([adg], tables, budget), tables, 1)[0]

    def test_hand_enumerated_swap_set(self):
        tables, analyzer = self.build()
        got = self.cross(tables, next(analyzer.graphs([(1, 1)])))
        assert set(got) == cross_keys(self.expected_variants())
        assert len(got) == len(self.expected_variants())
        # (Donald Trump, successor, Joe Biden)
        assert cross_key(Trip(Ref(1, 0), Ref(1, 1), Ref(0, 1))) in got

    def test_no_strong_edges_yields_nothing(self):
        kg1, kg2, store, seeds, raw, cfg = presidents_case()
        state = AlignmentState([], raw, n_sources=kg1.n_entities, n_targets=kg2.n_entities)
        analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
        ra = mine_relation_alignment(store, kg1, kg2, "native")
        adg = next(analyzer.graphs([(1, 1)]))
        assert len(adg.edge_neighbor) == 0
        assert self.cross(ConflictTables(kg1, kg2, state, ra), adg) == []

    def test_budget_zero_and_budget_cap(self):
        tables, analyzer = self.build()
        adg = next(analyzer.graphs([(1, 1)]))
        assert self.cross(tables, adg, budget=0) == []
        # budget 1 consults only Joe Biden's single source-side triple
        capped = self.cross(tables, adg, budget=1)
        kg1, kg2 = presidents_case()[:2]
        kgs = (kg1, kg2)
        base_one = {
            t for t in self.expected_variants()
            if kgs[t.relation.side].relation_labels[t.relation.index] in ("followed by", "successor")
            and kgs[t.object.side].entity_labels[t.object.index] != "Mike Pence"
        }
        assert set(capped) == cross_keys(base_one)
        assert len(capped) == 7

    def test_deterministic_order(self):
        tables, analyzer = self.build()
        adg = next(analyzer.graphs([(1, 1)]))
        a = cross_kg_triples([adg], tables)
        b = cross_kg_triples([adg, adg], tables)
        assert a.tolist() == b[b[:, 0] == 0].tolist()
        assert a[:, 1:].tolist() == b[b[:, 0] == 1][:, 1:].tolist()
        assert self.cross(tables, adg) == sorted(self.cross(tables, adg))


class TestRelationConflictDetection:
    def test_presidents_central_pair_flagged(self):
        kg1, kg2, store, seeds, raw, cfg = presidents_case()
        state = AlignmentState(seeds, raw, n_sources=kg1.n_entities, n_targets=kg2.n_entities)
        analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
        tables = ConflictTables(kg1, kg2, state, mine_relation_alignment(store, kg1, kg2, "native"))
        rules = mine_not_same_as_rules(kg1) + mine_not_same_as_rules(kg2)
        found = detect_relation_conflicts([next(analyzer.graphs([(1, 1)]))], rules, tables, cfg)
        assert found.flagged_pairs == [(1, 1)]
        assert (1, 1) in found.derived_pairs
        assert found.pruned_neighbor_pairs == []

    def test_no_rules_leave_adg_unchanged(self):
        kg1, kg2, store, seeds, raw, cfg = presidents_case()
        state = AlignmentState(seeds, raw, n_sources=kg1.n_entities, n_targets=kg2.n_entities)
        analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
        tables = ConflictTables(kg1, kg2, state, mine_relation_alignment(store, kg1, kg2, "native"))
        adg = next(analyzer.graphs([(1, 1)]))
        found = detect_relation_conflicts([adg], [], tables, cfg)
        assert found.derived_pairs == []
        assert found.pruned_neighbor_pairs == []
        assert found.flagged_pairs == []

    def test_pruning_neighbor_recomputes_confidence(self):
        kg1, kg2, store, seeds, raw, cfg = presidents_case()
        state = AlignmentState(seeds, raw, n_sources=kg1.n_entities, n_targets=kg2.n_entities)
        analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
        assert analyzer.adg(1, 1) == pytest.approx(sigmoid(1.0))
        # a contradicted neighbor pair is banned: it leaves the graph and the
        # confidence is recomputed without it
        analyzer.ban([(0, 0)])
        repaired = next(analyzer.graphs([(1, 1)]))
        assert repaired.explanation.matched_neighbor_pairs == []
        assert len(repaired.edge_neighbor) == 0
        assert repaired.confidence == pytest.approx(sigmoid(0.0))


@functools.cache
def conflict_stage_fixture(density):
    """An ``exea synth`` fixture (n=200, conflict 0.2) in the state the
    relation-conflict stage of ``repair()`` sees it."""
    res = generate_pair(
        SynthConfig(n_entities=200, density=density, conflict_injection=0.2, rng_seed=1)
    )
    seed_set = {s for s, _ in res.seeds}
    free = [i for i in range(200) if i not in seed_set]
    raw = [(s, t) for s, t, _ in greedy_align(res.perturbed_store, free, range(200))]
    state = AlignmentState(res.seeds, raw, n_sources=200, n_targets=200)
    cfg = RepairConfig()
    analyzer = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, state, cfg)
    rel_align = mine_relation_alignment(res.perturbed_store, res.kg1, res.kg2)
    rules = mine_not_same_as_rules(res.kg1) + mine_not_same_as_rules(res.kg2)
    return res, state, analyzer, rel_align, rules


class TestConflictStageIsExact:
    """The array conflict stage equals the object-level reference on every
    non-seed pair: the same cross triples in the same order, and the same
    derived, pruned and flagged pairs; and a graph's rows in a call over all
    of them equal its rows in a call of its own."""

    @pytest.mark.parametrize("density", [3, 8])
    def test_equals_reference(self, density):
        res, state, analyzer, rel_align, rules = conflict_stage_fixture(density)
        kg1, kg2 = res.kg1, res.kg2
        tables = ConflictTables(kg1, kg2, state, rel_align)
        adgs = list(analyzer.graphs([(s, t) for s, t, prov in state.pairs() if prov != SEED]))
        totals = {"cross": 0, "derived": 0, "pruned": 0, "flagged": 0}
        for budget in (1, 7, 200):
            all_cross = cross_kg_triples(adgs, tables, budget)
            all_cross_by_graph = cross_by_graph(all_cross, tables, len(adgs))
            all_derived = derived_by_graph(_chain_rules(rules, all_cross, tables, len(adgs)), len(adgs))
            for i, adg in enumerate(adgs):
                s, t = adg.explanation.pair
                node_pairs = set(adg.explanation.matched_neighbor_pairs)
                ref_cross = reference_cross_kg_triples(adg, state, rel_align, kg1, kg2, budget)
                own_cross = cross_kg_triples([adg], tables, budget)
                got_cross = cross_by_graph(own_cross, tables, 1)[0]
                assert got_cross == [cross_key(x) for x in ref_cross]
                assert all_cross_by_graph[i] == got_cross
                ref_derived = reference_chain_rules(rules, ref_cross, kg1, kg2)
                assert derived_by_graph(_chain_rules(rules, own_cross, tables, 1), 1)[0] == ref_derived
                assert all_derived[i] == ref_derived
                found = detect_relation_conflicts(
                    [adg], rules, tables, RepairConfig(triple_budget=budget)
                )
                assert found.derived_pairs == sorted(ref_derived)
                assert found.pruned_neighbor_pairs == sorted(ref_derived & node_pairs)
                assert found.flagged_pairs == ([(s, t)] if (s, t) in ref_derived else [])
                totals["cross"] += len(got_cross)
                totals["derived"] += len(ref_derived)
                totals["pruned"] += len(found.pruned_neighbor_pairs)
                totals["flagged"] += len(found.flagged_pairs)
            found = detect_relation_conflicts(adgs, rules, tables, RepairConfig(triple_budget=budget))
            assert found.derived_pairs == sorted(set().union(*all_derived))
            assert found.pruned_neighbor_pairs == sorted(
                set().union(*(d & set(a.explanation.matched_neighbor_pairs) for d, a in zip(all_derived, adgs)))
            )
            assert found.flagged_pairs == [
                a.explanation.pair for d, a in zip(all_derived, adgs) if a.explanation.pair in d
            ]
        assert rules and rel_align.pairs
        assert all(totals.values()), totals


def stub_adg(pair, neighbor_pairs, strong, n_targets):
    """What the conflict stage reads of a dependency graph: its pair, its
    matched neighbor pairs (as packed keys, and as tuples for the reference)
    and one Strong or Weak edge per neighbor."""
    classes = list(EdgeClass)
    keys = np.array([n * n_targets + t for n, t in neighbor_pairs], dtype=np.int64)
    return SimpleNamespace(
        explanation=SimpleNamespace(
            pair=pair, neighbor_keys=keys, matched_neighbor_pairs=list(neighbor_pairs)
        ),
        edge_neighbor=np.arange(len(neighbor_pairs)),
        edge_class=np.array(
            [classes.index(EdgeClass.STRONG if s else EdgeClass.WEAK) for s in strong], dtype=np.int64
        ),
    )


@st.composite
def conflict_cases(draw):
    """Small graphs with self-loops, an alignment with multi-claimed targets,
    a relation alignment that leaves relations without counterparts, rules
    of both sides and a few dependency graphs, some without Strong edges."""
    n1, n2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    nr1, nr2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def triples(n, nr):
        return draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, nr - 1), st.integers(0, n - 1)), max_size=12))

    kg1 = make_kg(n1, triples(n1, nr1), n_rel=nr1, side=Side.SOURCE)
    kg2 = make_kg(n2, triples(n2, nr2), n_rel=nr2, side=Side.TARGET)
    pred = draw(st.dictionaries(st.integers(0, n1 - 1), st.integers(0, n2 - 1)))
    state = AlignmentState([], sorted(pred.items()), n_sources=n1, n_targets=n2)
    rel_align = RelationAlignment(pairs=tuple(
        (a, b, 1.0) for a, b in draw(st.lists(st.tuples(st.integers(0, nr1 - 1), st.integers(0, nr2 - 1)), max_size=3))
    ))
    rules = [
        NotSameAsRule(side, a, b)
        for side, a, b in draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2)), max_size=4))
        if a != b and max(a, b) < (nr1, nr2)[side]
    ]
    pair = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
    adgs = [
        stub_adg(draw(pair), [p for p, _ in nbrs], [s for _, s in nbrs], n2)
        for nbrs in draw(st.lists(st.lists(st.tuples(pair, st.booleans()), max_size=3), min_size=1, max_size=4))
    ]
    return kg1, kg2, state, rel_align, rules, adgs


def join_shapes_case():
    """One source subject, 0, whose relation 0 reaches source objects 1 and 3
    and relation 1 reaches 2 and 4, all aligned to their own index, under
    the rule (0, 0, 1), in a graph whose central pair is (0, 0). The slot of
    0 holds two objects on each side of both relations, and the rule meets
    its relations in both roles: relation 0 on the source side and 1 on the
    target side, and the reverse."""
    kg1 = make_kg(5, [(0, 0, 1), (0, 0, 3), (0, 1, 2), (0, 1, 4)], side=Side.SOURCE)
    kg2 = make_kg(5, [], n_rel=1, side=Side.TARGET)
    state = AlignmentState([], [(e, e) for e in range(5)], n_sources=5, n_targets=5)
    adg = stub_adg((0, 0), [(1, 1)], [True], 5)
    return kg1, kg2, state, RelationAlignment(pairs=()), [NotSameAsRule(0, 0, 1)], [adg]


def hub_case():
    """A source subject, 0, with 240 out-edges: four under the two relations
    the rule (0, 0, 1) joins, to objects aligned to their own index, and the
    rest under eight relations that no rule names. The target side mirrors
    it, with every relation aligned to its own index and the rule mined
    there too, and the central pair is (0, 0)."""
    n, edges = 241, [(0, 0, 1), (0, 0, 2), (0, 1, 3), (0, 1, 4)]
    edges += [(0, 2 + o % 8, o) for o in range(5, n)]
    kg1 = make_kg(n, edges, n_rel=10, side=Side.SOURCE)
    kg2 = make_kg(n, edges, n_rel=10, side=Side.TARGET)
    state = AlignmentState([], [(e, e) for e in range(n)], n_sources=n, n_targets=n)
    rel_align = RelationAlignment(pairs=tuple((r, r, 1.0) for r in range(10)))
    adg = stub_adg((0, 0), [(1, 1), (3, 3)], [True, False], n)
    return kg1, kg2, state, rel_align, [NotSameAsRule(0, 0, 1), NotSameAsRule(1, 1, 0)], [adg]


class TestConflictStageEdges:
    """Self-loops, relations and entities without counterparts, graphs
    without Strong edges, rule-less and budget-0 calls, a rule met in both
    roles, runs of several objects on both sides and a hub subject: every
    graph of a many-graph call still equals the reference."""

    @given(conflict_cases(), st.sampled_from([0, 1, 3, 200]))
    @example(join_shapes_case(), 200)
    @example(hub_case(), 200)
    @settings(max_examples=150, deadline=None)
    def test_many_graph_call_equals_reference(self, case, budget):
        kg1, kg2, state, rel_align, rules, adgs = case
        tables = ConflictTables(kg1, kg2, state, rel_align)
        cross = cross_kg_triples(adgs, tables, budget)
        derived = derived_by_graph(_chain_rules(rules, cross, tables, len(adgs)), len(adgs))
        for adg, got_cross, got_derived in zip(adgs, cross_by_graph(cross, tables, len(adgs)), derived):
            ref_cross = reference_cross_kg_triples(adg, state, rel_align, kg1, kg2, budget)
            assert got_cross == [cross_key(x) for x in ref_cross]
            assert got_derived == reference_chain_rules(rules, ref_cross, kg1, kg2)
        found = detect_relation_conflicts(adgs, rules, tables, RepairConfig(triple_budget=budget))
        assert found.derived_pairs == sorted(set().union(*derived))

    def test_self_loop_is_one_base_triple(self):
        # entity 0 carries a self-loop and one more triple on each side
        kg1 = make_kg(2, [(0, 0, 0), (0, 1, 1)], side=Side.SOURCE)
        kg2 = make_kg(2, [(0, 0, 0), (0, 1, 1)], side=Side.TARGET)
        state = AlignmentState([], [(0, 0), (1, 1)], n_sources=2, n_targets=2)
        tables = ConflictTables(kg1, kg2, state, RelationAlignment(pairs=()))
        assert tables.hop_triples[tables.hop_start[0]:tables.hop_start[1]].tolist() == [0, 1]
        adg = stub_adg((0, 0), [(1, 1)], [True], 2)
        # the budget of 1 is spent on the self-loop, whose two swaps are emitted
        got = cross_by_graph(cross_kg_triples([adg], tables, budget=1), tables, 1)[0]
        assert got == [(0, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 1, 0)]

    def test_budget_zero_and_no_rules_derive_nothing(self):
        res, state, analyzer, rel_align, rules = conflict_stage_fixture(3)
        tables = ConflictTables(res.kg1, res.kg2, state, rel_align)
        adgs = list(analyzer.graphs([(s, t) for s, t, prov in state.pairs() if prov != SEED]))
        assert cross_kg_triples(adgs, tables, budget=0).shape == (0, 4)
        assert len(cross_kg_triples(adgs, tables))
        for found in (
            detect_relation_conflicts(adgs, rules, tables, RepairConfig(triple_budget=0)),
            detect_relation_conflicts(adgs, [], tables, RepairConfig()),
        ):
            assert found.derived_pairs == found.pruned_neighbor_pairs == found.flagged_pairs == []


class TestKeyPacking:
    """Packed keys stay exact and ordered up to the largest radices an int64
    holds, and larger ones raise instead of wrapping around."""

    @pytest.mark.parametrize(
        "radices",
        [
            [2, 2**31, 2**31],  # the product is exactly 2**63
            [1, 2**62 + 1],
            [3, 3_037_000_499, 1_000_000_007],
            [3, 5, 1 << 20, 1 << 20, 1 << 19],
            # a chunk's (graph, subject, relation, object) key at the
            # largest graph positions ConflictTables allows for 2**28
            # entity and 2**6 relation ids
            [2, 2**28, 2**6, 2**28],
        ],
    )
    def test_round_trip_and_order_at_the_largest_ranges(self, radices):
        rng = np.random.default_rng(0)
        assert math.prod(radices) <= 2**63
        extremes = [np.array([0, r - 1, r - 1, 0, r // 2], dtype=np.int64) for r in radices]
        drawn = [rng.integers(0, r, size=200, dtype=np.int64) for r in radices]
        columns = [np.concatenate([e, d]) for e, d in zip(extremes, drawn)]
        key = _pack(columns, radices)
        assert key.dtype == np.int64
        assert all((a == b).all() for a, b in zip(_unpack(key, radices), columns))
        rows = list(zip(*(c.tolist() for c in columns)))
        assert [rows[i] for i in np.argsort(key, kind="stable")] == sorted(rows)
        assert int(_pack([[r - 1] for r in radices], radices)[0]) == math.prod(radices) - 1

    @pytest.mark.parametrize("radices", [[2, 2**31, 2**31 + 1], [2**32, 2**32], [3, 2**62]])
    def test_overflowing_radices_raise(self, radices):
        with pytest.raises(InvariantViolation, match="int64-key"):
            _pack([np.zeros(1, dtype=np.int64)] * len(radices), radices)

    def test_graphs_too_large_for_a_chunk_key_raise(self):
        # (n1 + n2)**2 * (r1 + r2) entity and relation ids exceed 2**63
        class Huge:
            n_entities = 2**30
            n_relations = 2**4
            triple_keys = ()

        state = AlignmentState([], [], n_sources=0, n_targets=0)
        with pytest.raises(ConfigError, match="too large"):
            ConflictTables(Huge, Huge, state, RelationAlignment(pairs=()))


class TestConflictChunks:
    """The folded stage (derived, pruned and flagged pairs) and every other
    output of ``repair()`` do not depend on how the graphs are chunked."""

    def test_chunk_bound_changes_nothing(self, monkeypatch):
        repair_module = importlib.import_module("exea.repair")
        res = generate_pair(SynthConfig(n_entities=80, density=6, conflict_injection=0.2, rng_seed=3))
        seed_set = {s for s, _ in res.seeds}
        free = [i for i in range(80) if i not in seed_set]
        raw = [(s, t) for s, t, _ in greedy_align(res.perturbed_store, free, range(80))]
        chunk_sizes = {}
        reports = {}
        detect = repair_module.detect_relation_conflicts
        for rows in (0, repair_module._CONFLICT_ROWS, 10**9):
            sizes = []

            def counted(adgs, *args):
                sizes.append(len(adgs))
                return detect(adgs, *args)

            with monkeypatch.context() as m:
                m.setattr(repair_module, "_CONFLICT_ROWS", rows)
                m.setattr(repair_module, "detect_relation_conflicts", counted)
                out = repair(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds)
            chunk_sizes[rows] = sizes
            reports[rows] = (out.pairs, json.dumps(out.report.to_json_dict(), sort_keys=True))
        n_graphs = sum(chunk_sizes[0])
        assert chunk_sizes[0] == [1] * n_graphs
        assert chunk_sizes[10**9] == [n_graphs]
        assert 1 < len(chunk_sizes[repair_module._CONFLICT_ROWS]) < n_graphs
        assert reports[0] == reports[repair_module._CONFLICT_ROWS] == reports[10**9]
        report = out.report
        assert report.derived_not_same_as and report.pruned_neighbor_pairs and report.flagged_sources


def analyzer_neighbors(analyzer, keys):
    """The (n, t) matched neighbors the analyzer reads for each key under
    its state and banned pairs, through the one gather it reads them with."""
    lists = neighbor_lists(
        analyzer.index1, analyzer.index2, analyzer.state.forward, keys, analyzer._banned
    )
    return [unpacked(packed, analyzer.kg2.n_entities) for packed in lists]


class TestPairAnalyzer:
    def build(self):
        spokes1 = [50, 15]
        spokes2 = [53.13, 36.87]
        kg1, kg2, store = star_pair(2, spoke_angles1=spokes1, spoke_angles2=spokes2)
        state = AlignmentState([], [(0, 0), (1, 1)], n_sources=3, n_targets=3)
        analyzer = PairAnalyzer(kg1, kg2, store, state, RepairConfig())
        return state, analyzer

    def test_confidence_tracks_state_mutations(self):
        state, analyzer = self.build()
        with_neighbor = analyzer.adg(1, 1)
        assert with_neighbor == pytest.approx(sigmoid(1.0))
        state.unalign(0)
        assert analyzer.adg(1, 1) == pytest.approx(sigmoid(0.0))
        state.align(0, 0, "repaired")
        assert analyzer.adg(1, 1) == pytest.approx(with_neighbor)

    def test_banned_pairs_leave_matched_neighborhoods(self):
        state, analyzer = self.build()
        assert analyzer.adg(1, 1) == pytest.approx(sigmoid(1.0))
        analyzer.ban([(0, 0)])
        assert analyzer_neighbors(analyzer, [(1, 1)]) == [[]]
        assert analyzer.adg(1, 1) == pytest.approx(sigmoid(0.0))

    def test_cached_graph_lives_as_long_as_its_neighbor_list(self):
        """A cache entry, the packed matched-neighbor keys and the confidence
        of a graph and the epoch they were last checked at, keeps its keys
        while they stay the same and is replaced when they change; it never
        holds the graph."""
        state, analyzer = self.build()
        first = analyzer.adg(1, 1)
        entry = analyzer._cache[(1, 1)]
        assert analyzer_neighbors(analyzer, [(1, 1)]) == [[(0, 0)]]
        # the neighbor pair (0, 0) packs to 0 * 3 + 0
        assert entry[0].tolist() == [0] and entry[1] == first
        # source 2 lies within h hops of source 1, but its target 1 is the
        # center of the target side, so the matched-neighbor list of (1, 1) stays the same
        state.align(2, 1, REPAIRED)
        assert analyzer.adg(1, 1) == first
        assert analyzer._cache[(1, 1)][0] is entry[0]
        state.unalign(2)
        assert analyzer.adg(1, 1) == first
        assert analyzer._cache[(1, 1)][0] is entry[0]

        def cold():
            fresh = PairAnalyzer(analyzer.kg1, analyzer.kg2, analyzer.store, state, analyzer.cfg)
            fresh.ban(analyzer.banned_pairs)
            return next(fresh.graphs([(1, 1)]))

        state.align(2, 2, REPAIRED)
        grown = analyzer.adg(1, 1)
        assert analyzer._cache[(1, 1)][0] is not entry[0]
        assert grown == cold().confidence
        graph = next(analyzer.graphs([(1, 1)]))
        assert graph.explanation.matched_neighbor_pairs == [(0, 0), (2, 2)]
        assert graph == cold()
        entry = analyzer._cache[(1, 1)]
        analyzer.ban([(0, 0)])
        banned = analyzer.adg(1, 1)
        assert analyzer._cache[(1, 1)][0] is not entry[0]
        assert banned == cold().confidence
        graph = next(analyzer.graphs([(1, 1)]))
        assert graph.explanation.matched_neighbor_pairs == [(2, 2)]
        assert graph == cold()
        entry = analyzer._cache[(1, 1)]
        assert analyzer.adg(1, 1) == banned
        assert analyzer._cache[(1, 1)][0] is entry[0]
        assert all(
            type(keys) is np.ndarray and type(conf) is float and type(epoch) is int
            for keys, conf, epoch in analyzer._cache.values()
        )


    def test_entries_hold_arrays_of_their_own(self):
        """No cache entry is a view of a larger gather, however its key was
        read: a batched read with and without its lists handed in, a stale
        single lookup and a graph build. A graph build keeps the cached
        array itself of a key whose list did not change."""
        res, raw = lookup_fixture(3)
        state = AlignmentState(res.seeds, raw, n_sources=60, n_targets=60)
        analyzer = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, state, RepairConfig())
        keys = [(s, t) for s, t, _ in state.pairs()]

        def own_arrays():
            return all(entry[0].base is None for entry in analyzer._cache.values())

        analyzer.adgs(keys[:20])
        assert own_arrays()
        analyzer.adgs(keys[20:40], analyzer.neighbor_lists(keys[20:40]))
        assert own_arrays()
        # a key made stale by unaligning one of its matched neighbors
        seeds = {s for s, _ in res.seeds}
        key, n = next(
            (key, n) for key in keys[:40] if key[0] not in seeds
            for n in (analyzer._cache[key][0] // 60).tolist() if n not in seeds
        )
        state.unalign(n)
        stale = analyzer._cache[key][0]
        analyzer.adg(*key)
        assert analyzer._cache[key][0] is not stale
        assert own_arrays()
        before = {key: entry[0] for key, entry in analyzer._cache.items()}
        for _ in analyzer.graphs(keys):
            pass
        assert own_arrays()
        unchanged = [
            key for key, packed in before.items() if np.array_equal(packed, analyzer._cache[key][0])
        ]
        assert 0 < len(unchanged) < len(keys)
        assert all(analyzer._cache[key][0] is before[key] for key in unchanged)


@functools.cache
def small_synth():
    res = generate_pair(SynthConfig(n_entities=30, conflict_injection=0.2, rng_seed=5))
    seed_set = {s for s, _ in res.seeds}
    free = [i for i in range(30) if i not in seed_set]
    raw = [(s, t) for s, t, _ in greedy_align(res.perturbed_store, free, range(30))]
    return res, raw


ids = st.integers(0, 29)
mutation = st.one_of(
    st.tuples(st.just("align"), ids, ids),
    st.tuples(st.just("unalign"), ids, ids),
    st.tuples(st.just("ban"), ids, ids),
    st.tuples(st.just("look"), ids, ids),
)


class TestAnalyzerCacheAgainstColdRebuild:
    """After any sequence of alignment mutations, bans and lookups, the warm
    analyzer's matched neighbors and cached confidences equal those of an
    analyzer built cold on the final state with the same banned pairs."""

    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(mutation, max_size=25))
    def test_warm_equals_cold(self, steps):
        res, raw = small_synth()
        cfg = RepairConfig()
        state = AlignmentState(res.seeds, raw, n_sources=30, n_targets=30)
        seed_sources = {s for s, _ in res.seeds}
        warm = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, state, cfg)
        for op, s, t in steps:
            if op == "align" and s not in seed_sources and state.forward[s] < 0:
                state.align(s, t, REPAIRED)
            elif op == "unalign" and s not in seed_sources and state.forward[s] >= 0:
                state.unalign(s)
            elif op == "ban":
                warm.ban([(s, t)])
            warm.adg(s, t)
        cold = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, state, cfg)
        cold.ban(warm.banned_pairs)
        forward = {s: t for s, t, _ in state.pairs()}
        probes = [(s, t) for s, t, _ in state.pairs()] + [(s, t) for _, s, t in steps]
        for s, t in probes:
            hood2 = set(neighborhood_entities(res.kg2, t, cfg.h))
            expected = [
                (a, forward[a]) for a in neighborhood_entities(res.kg1, s, cfg.h)
                if forward.get(a) in hood2 and (a, forward[a]) != (s, t)
                and (a, forward[a]) not in warm.banned_pairs
            ]
            assert analyzer_neighbors(warm, [(s, t)]) == [expected]
            assert warm.adg(s, t) == cold.adg(s, t)
            assert unpacked(warm._cache[(s, t)][0], 30) == expected
        # the warm lookups above are done; a graph read refreshes the cache
        assert list(warm.graphs(probes)) == list(cold.graphs(probes))


class TestConfidenceCacheIsExact:
    """At every step of random align/unalign/ban sequences, every confidence
    a warm analyzer reads (one key at a time or batched) equals the
    confidence of the graph a cold analyzer builds for the same state and
    banned pairs, and each cache entry's packed neighbor keys decode to the
    breadth-first matched-neighbor walk minus the banned pairs."""

    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(mutation, min_size=1, max_size=25), batched=st.booleans())
    def test_every_read_equals_a_cold_build(self, steps, batched):
        res, raw = small_synth()
        cfg = RepairConfig()
        state = AlignmentState(res.seeds, raw, n_sources=30, n_targets=30)
        seed_sources = {s for s, _ in res.seeds}
        warm = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, state, cfg)
        for op, s, t in steps:
            if op == "align" and s not in seed_sources and state.forward[s] < 0:
                state.align(s, t, REPAIRED)
            elif op == "unalign" and s not in seed_sources and state.forward[s] >= 0:
                state.unalign(s)
            elif op == "ban":
                warm.ban([(s, t)])
            keys = [(s, t)] + [(a, b) for a, b, _ in state.pairs()][::4]
            got = warm.adgs(keys) if batched else [warm.adg(a, b) for a, b in keys]
            cold = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, state, cfg)
            cold.ban(warm.banned_pairs)
            alignments = {a: b for a, b, _ in state.pairs()}
            for key, lookup, graph in zip(keys, got, cold.graphs(keys)):
                assert lookup == graph.confidence
                packed, confidence, _ = warm._cache[key]
                assert confidence == lookup
                walk = matched_neighbors(key, res.kg1, res.kg2, alignments, cfg.h)
                assert unpacked(packed, 30) == [p for p in walk if p not in warm.banned_pairs]


class TestStampedReadsAreExact:
    """A warm analyzer reads a clean key's list and confidence off its cache
    with no gather, trusting the source stamps that moves and bans leave.
    After any sequence of aligns, unaligns and bans, several of them between
    two reads or none, every confidence it reads, one key at a time or
    batched, and every list it returns equals what an analyzer built cold on
    the same state and banned pairs reads."""

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(
        st.tuples(mutation, st.sampled_from([None, None, "one", "batch"])), min_size=1, max_size=24
    ))
    def test_every_read_equals_a_cold_read(self, steps):
        res, raw = small_synth()
        cfg = RepairConfig()
        state = AlignmentState(res.seeds, raw, n_sources=30, n_targets=30)
        seed_sources = {s for s, _ in res.seeds}
        warm = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, state, cfg)
        # every initial pair is cached first, so that later reads meet
        # entries that only the stamps can tell are stale
        keys = [(s, t) for s, t, _ in state.pairs()]
        warm.adgs(keys)
        for (op, s, t), read in steps + [(("look", 0, 0), "batch")]:
            if op == "align" and s not in seed_sources and state.forward[s] < 0:
                state.align(s, t, REPAIRED)
            elif op == "unalign" and s not in seed_sources and state.forward[s] >= 0:
                state.unalign(s)
            elif op == "ban":
                # the pair s is aligned in, when it is, which is a matched
                # neighbor of the keys around s
                warm.ban([(s, int(state.forward[s]) if state.forward[s] >= 0 else t)])
            if read is None:
                continue
            wanted = keys + [(s, t)]
            cold = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, state, cfg)
            cold.ban(warm.banned_pairs)
            got = warm.adgs(wanted) if read == "batch" else [warm.adg(a, b) for a, b in wanted]
            assert got == [cold.adg(a, b) for a, b in wanted]
            lists = warm.neighbor_lists(wanted)
            assert [x.tolist() for x in lists] == [x.tolist() for x in cold.neighbor_lists(wanted)]


@functools.cache
def lookup_fixture(density):
    res = generate_pair(
        SynthConfig(n_entities=60, density=density, conflict_injection=0.2, rng_seed=6)
    )
    seed_set = {s for s, _ in res.seeds}
    free = [i for i in range(60) if i not in seed_set]
    return res, [(s, t) for s, t, _ in greedy_align(res.perturbed_store, free, range(60))]


def aligned_neighbors(analyzer, s):
    """(n, target of n) for every aligned n within h hops of source s,
    sorted by n."""
    forward = analyzer.state.forward
    return [(n, t) for n in analyzer.index1.hood(s).tolist() if (t := int(forward[n])) >= 0]


class TestBatchedLookupIsExact:
    """``PairAnalyzer.adgs(keys)`` returns what one ``adg`` lookup per key
    returns, equal to a cold analyzer's lookups, and computes exactly the
    confidences those lookups compute: over duplicate keys, keys without a
    matched neighbor, banned pairs and entries that alignment mutations made
    stale, with the keys' neighbor lists gathered by ``adgs`` or handed in.
    A repair does not depend on where the matcher's or the analyzer's passes
    are cut."""

    @pytest.mark.parametrize("density", [3, 8])
    @pytest.mark.parametrize("h", [1, 2])
    def test_equals_per_key_lookups(self, monkeypatch, density, h):
        repair_module = importlib.import_module("exea.repair")
        res, raw = lookup_fixture(density)
        cfg = RepairConfig(h=h)
        state = AlignmentState(res.seeds, raw, n_sources=60, n_targets=60)
        batched = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, state, cfg)
        single = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, state, cfg)
        # confidences computed per analyzer, told apart by the index they
        # were matched over: a single lookup's from its explanation, a
        # batched read's straight from the neighbor lists
        builds = {id(batched.index1): 0, id(single.index1): 0}
        build_adg = repair_module.build_adg
        pair_confidences = repair_module.pair_confidences

        def counted(expls, *args):
            for expl in expls:
                key = id(expl.indexes[0])
                builds[key] = builds.get(key, 0) + 1
            return build_adg(expls, *args)

        # calls of the builder each lookup goes through, per analyzer: one
        # per batched read that computes anything (its keys fit one pass
        # here), none from the per-key lookups it ends with; one explanation
        # per confidence a single lookup computes
        monkeypatch.setattr(importlib.import_module("exea.adg"), "_PASS_NODES", 10**9)
        cores = {id(batched.index1): 0, id(single.index1): 0}
        explanations = repair_module.explanations

        def counted_pairs(pairs, neighbor_lists, index1, *args):
            builds[id(index1)] = builds.get(id(index1), 0) + len(pairs)
            cores[id(index1)] = cores.get(id(index1), 0) + bool(pairs)
            return pair_confidences(pairs, neighbor_lists, index1, *args)

        def core(pairs, neighbor_lists, index1, index2):
            cores[id(index1)] = cores.get(id(index1), 0) + 1
            return explanations(pairs, neighbor_lists, index1, index2)

        monkeypatch.setattr(repair_module, "build_adg", counted)
        monkeypatch.setattr(repair_module, "pair_confidences", counted_pairs)
        monkeypatch.setattr(repair_module, "explanations", core)
        rng = np.random.default_rng(100 * density + h)
        seed_sources = {s for s, _ in res.seeds}
        empty = stale = banned = 0
        hollow = []  # keys whose matched neighbors were all banned
        for round_ in range(5):
            pairs = [(s, t) for s, t, _ in state.pairs()]
            keys = pairs + [tuple(map(int, k)) for k in rng.integers(0, 60, size=(40, 2))]
            keys += hollow
            keys += [keys[int(i)] for i in rng.integers(0, len(keys), size=20)]
            before = [single._cache.get(key) for key in keys]
            calls, built = cores[id(batched.index1)], builds[id(batched.index1)]
            # every other round hands in the lists, duplicate keys' included
            lists = batched.neighbor_lists(keys) if round_ % 2 else None
            got = batched.adgs(keys, lists)
            assert builds[id(batched.index1)] > built
            assert cores[id(batched.index1)] == calls + 1
            single_calls, single_built = cores[id(single.index1)], builds[id(single.index1)]
            expected = [single.adg(s, t) for s, t in keys]
            assert builds[id(batched.index1)] == builds[id(single.index1)]
            # (graphs built for the comparisons below call the core too)
            assert (cores[id(single.index1)] - single_calls
                    == builds[id(single.index1)] - single_built)
            assert len(got) == len(expected) == len(keys)
            # the cache is left as the lookups leave it, and holds no graph
            for key in keys:
                got_keys, got_conf, _ = batched._cache[key]
                ref_keys, ref_conf, _ = single._cache[key]
                assert np.array_equal(got_keys, ref_keys) and got_conf == ref_conf
            after = [single._cache.get(key) for key in keys]
            assert got == expected
            cold = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, state, cfg)
            cold.ban(batched.banned_pairs)
            assert got == [cold.adg(s, t) for s, t in keys]
            empty += sum(not batched._cache[key][0].size for key in keys)
            stale += sum(
                old is not None and old[0] is not new[0] for old, new in zip(before, after)
            )
            banned += sum(
                p in batched.banned_pairs for key in keys for p in aligned_neighbors(single, key[0])
            )
            # move the alignment and ban some matched neighbors before the next round
            for s, t in pairs[::7]:
                if s not in seed_sources:
                    state.unalign(s)
            for s in sorted(state.unaligned_sources)[::3]:
                state.align(s, int(rng.integers(0, 60)), REPAIRED)
            matched = sorted({p for pairs in analyzer_neighbors(batched, keys) for p in pairs})
            ban = [matched[int(i)] for i in rng.integers(0, len(matched), size=3)]
            hollow.append(keys[int(rng.integers(0, len(keys)))])
            [hollow_neighbors] = analyzer_neighbors(batched, hollow[-1:])
            ban += hollow_neighbors
            batched.ban(ban)
            single.ban(ban)
        assert empty > 0 and stale > 0 and banned > 0

    def test_compares_stamped_keys_once_and_clean_keys_never(self, monkeypatch):
        """A read gathers and compares a key whose source lies within h
        hops of a source moved or banned since the key was last checked,
        once per time it is asked for (a batched read asks once per distinct
        key; handed lists were asked for by the caller), and any other
        cached key never: the counted ``adg`` lookup each key then goes
        through is handed the cached array itself and accepts it without a
        comparison."""
        repair_module = importlib.import_module("exea.repair")
        res, raw = lookup_fixture(3)
        state = AlignmentState(res.seeds, raw, n_sources=60, n_targets=60)
        analyzer = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, state, RepairConfig())
        keys = [(s, t) for s, t, _ in state.pairs()]
        keys += keys[:10]
        analyzer.adgs(keys)
        compared = [0]
        array_equal = np.array_equal
        handed, gathered = [], []
        lookup = analyzer.adg
        gather = repair_module.neighbor_lists

        def counted(*args):
            compared[0] += 1
            return array_equal(*args)

        def recorded(s, t, neighbors=None):
            handed.append(((s, t), neighbors))
            return lookup(s, t, neighbors)

        def gathering(index1, index2, forward, wanted, banned):
            gathered.extend(wanted)
            return gather(index1, index2, forward, wanted, banned)

        monkeypatch.setattr(np, "array_equal", counted)
        monkeypatch.setattr(analyzer, "adg", recorded)
        monkeypatch.setattr(repair_module, "neighbor_lists", gathering)
        seeds = {s for s, _ in res.seeds}
        movable = [s for s, _ in keys if s not in seeds]
        for round_, given in enumerate((None, "lists", None, "lists")):
            moved = set()
            if round_:
                # move two sources and ban one pair; the first round reads a
                # cache that nothing has touched since it was filled
                for s in movable[round_ : round_ + 2]:
                    target = state.unalign(s)
                    state.align(s, (target + round_) % 60, REPAIRED)
                    moved.add(s)
                n, t = movable[-round_], int(state.forward[movable[-round_]])
                analyzer.ban([(n, t)])
                moved.add(n)
            stamped = {
                key for key in keys if moved & set(analyzer.index1.hood(key[0]).tolist())
            }
            assert (0 < len(stamped) < len(set(keys))) == bool(round_)
            compared[0] = 0
            handed.clear()
            gathered.clear()
            lists = analyzer.neighbor_lists(keys) if given else None
            warm = analyzer.adgs(keys, lists)
            assert set(gathered) == stamped and len(gathered) == len(
                [key for key in (keys if given else dict.fromkeys(keys)) if key in stamped]
            )
            assert compared[0] == len(gathered)
            cold = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, state, RepairConfig())
            cold.ban(analyzer.banned_pairs)
            assert warm == cold.adgs(keys)
            assert [key for key, _ in handed] == keys
            assert all(neighbors is analyzer._cache[key][0] for key, neighbors in handed)
            # read again, nothing has moved: no key is gathered or compared
            compared[0] = 0
            gathered.clear()
            assert analyzer.adgs(keys) == warm
            assert compared[0] == 0 and not gathered

    def test_pass_budget_changes_nothing(self, monkeypatch):
        explain_module = importlib.import_module("exea.explain")
        res, raw = lookup_fixture(8)
        passes = {}
        outputs = {}
        score_blocks = explain_module._score_blocks
        for budget in (0, explain_module._PASS_PAIRS, 10**9):
            calls = [0]

            def counted(*args):
                calls[0] += 1
                return score_blocks(*args)

            with monkeypatch.context() as m:
                m.setattr(explain_module, "_PASS_PAIRS", budget)
                m.setattr(explain_module, "_score_blocks", counted)
                out = repair(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds)
            passes[budget] = calls[0]
            outputs[budget] = (out.pairs, json.dumps(out.report.to_json_dict(), sort_keys=True))
        assert passes[0] > passes[explain_module._PASS_PAIRS] > passes[10**9]
        assert outputs[0] == outputs[explain_module._PASS_PAIRS] == outputs[10**9]
        # the analyzer's passes over stale keys: one key each, the default,
        # and every stale key of a read at once; a graph pass builds its
        # explanations, a batched read's kernel pass matches its keys
        # straight, and each adds its class masses once
        repair_module = importlib.import_module("exea.repair")
        adg_module = importlib.import_module("exea.adg")
        default = adg_module._PASS_NODES
        for budget in (1, default, 10**9):
            calls = [0]
            explanations = repair_module.explanations
            class_masses = adg_module._class_masses

            def core(*args):
                calls[0] += 1
                return explanations(*args)

            def masses(*args):
                calls[0] += 1
                return class_masses(*args)

            with monkeypatch.context() as m:
                m.setattr(adg_module, "_PASS_NODES", budget)
                m.setattr(repair_module, "explanations", core)
                m.setattr(adg_module, "_class_masses", masses)
                out = repair(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds)
            passes[budget, "nodes"] = calls[0]
            report = json.dumps(out.report.to_json_dict(), sort_keys=True)
            outputs[budget, "nodes"] = (out.pairs, report)
        assert passes[1, "nodes"] > passes[default, "nodes"] >= passes[10**9, "nodes"]
        assert outputs[1, "nodes"] == outputs[default, "nodes"] == outputs[10**9, "nodes"]
        assert outputs[1, "nodes"] == outputs[10**9]


class TestScoredReadsKeepCosines:
    """The reads whose path cosines reach an output keep them: the graphs of
    ``RepairResult.adgs`` and the explanations of ``explain_pairs`` carry
    the per-path reference's cosines, one-by-one blocks included, and a
    stale single-key lookup still builds its explanation, while a batched
    read builds none."""

    def test_result_graphs_and_explain_pairs_equal_reference(self):
        res, raw = lookup_fixture(3)
        kg1, kg2, store = res.kg1, res.kg2, res.perturbed_store
        out = repair(kg1, kg2, store, raw, res.seeds)
        analyzer = out.analyzer
        expls = [adg.explanation for adg in out.adgs.values()]
        expls += list(explain_pairs(out.pairs, kg1, kg2, store, out.state.forward, 2))
        single = 0
        for expl in expls:
            expected = []
            for n, t in expl.matched_neighbor_pairs:
                expected += reference_match_paths(store, kg1, kg2, expl.pair, (n, t), 2)
                (_, len1), (_, len2) = (
                    index.runs(np.array([center]), np.array([end]))
                    for index, center, end in (
                        (analyzer.index1, expl.pair[0], n), (analyzer.index2, expl.pair[1], t)
                    )
                )
                single += (len1.tolist(), len2.tolist()) == ([1], [1])
            assert expl.path_matches() == expected
        assert single > 0

    def test_stale_single_lookup_builds_its_explanation(self, monkeypatch):
        repair_module = importlib.import_module("exea.repair")
        res, raw = lookup_fixture(3)
        state = AlignmentState(res.seeds, raw, n_sources=60, n_targets=60)
        analyzer = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, state, RepairConfig())
        built = []
        explanation = repair_module.explanation

        def counted(pair, *args):
            built.append(pair)
            return explanation(pair, *args)

        monkeypatch.setattr(repair_module, "explanation", counted)
        seeds = {s for s, _ in res.seeds}
        keys = [(s, t) for s, t, _ in state.pairs() if s not in seeds]
        # a key and one of its matched neighbors that is not a seed
        key, n = next(
            (key, n) for key in keys
            for n in (analyzer.neighbor_lists([key])[0] // 60).tolist() if n not in seeds
        )
        cold = analyzer.adg(*key)
        assert built == [key]
        assert analyzer.adg(*key) == cold and built == [key]
        # unaligning the neighbor makes the entry stale
        target = state.unalign(n)
        analyzer.adg(*key)
        assert built == [key, key]
        # realigned, it is stale again, and a batched read computes it (and
        # every other key) without an explanation
        state.align(n, target, REPAIRED)
        got = analyzer.adgs(keys)
        assert built == [key, key]
        assert got[keys.index(key)] == cold


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
        # the sources the pairs name: isolated source 3 takes part only where
        # a prediction names it
        n_sources = 1 + max(s for s, _ in [(0, 0), *predictions])
        state = AlignmentState([(0, 0)], predictions, n_sources=n_sources, n_targets=4)
        analyzer = PairAnalyzer(kg1, kg2, store, state, RepairConfig(k=k))
        topk, _ = similarity_topk(store, range(n_sources), range(4), k)
        return state, analyzer, topk

    def test_injective_input_is_fixpoint(self):
        state, analyzer, topk = self.build_town([(1, 1), (2, 2)])
        displaced = one_to_one(state, analyzer)
        assert displaced == set()
        assert state.pairs() == [(0, 0, "seed"), (1, 1, "predicted"), (2, 2, "predicted")]

    def test_higher_confidence_claimant_wins(self):
        # source 3 is hubless, so its confidence sigmoid(0) loses to 2's sigmoid(0.5)
        state, analyzer, topk = self.build_town([(2, 1), (3, 1)])
        displaced = one_to_one(state, analyzer)
        assert displaced == {3}
        assert state.forward[2] == 1
        assert state.forward[3] < 0

    def test_tie_goes_to_lower_source_index(self):
        state, analyzer, topk = self.build_town([(1, 1), (2, 1)])
        assert analyzer.adg(1, 1) == pytest.approx(analyzer.adg(2, 1))
        displaced = one_to_one(state, analyzer)
        assert displaced == {2}
        assert state.forward[1] == 1

    def test_seed_claimant_is_unbeatable(self):
        state, analyzer, topk = self.build_town([(1, 0)])
        displaced = one_to_one(state, analyzer)
        assert displaced == {1}
        assert state.forward[0] == 0
        assert provenance_of(state, 0) == "seed"


class TestResolveOneToMany:
    build_town = TestOneToOne.build_town

    def test_loser_reassigned_to_free_target(self):
        # both spokes claim target 1; loser 2 walks to its next candidate,
        # target 2, which is free
        state, analyzer, topk = self.build_town([(1, 1), (2, 1)])
        leftover, stats = resolve_one_to_many(state, analyzer, topk)
        assert leftover == set()
        assert stats["evictions"] == 0
        assert dict((s, t) for s, t, _ in state.pairs()) == {0: 0, 1: 1, 2: 2}
        state.check_injective()

    def test_k1_stuck_loser_stays_unaligned(self):
        state, analyzer, topk = self.build_town([(1, 1), (2, 1)], k=1)
        leftover, stats = resolve_one_to_many(state, analyzer, topk)
        assert leftover == {2}
        assert state.forward[2] < 0
        assert state.forward[1] == 1

    def test_eviction_chain_respects_loop_guard(self):
        # displaced source 2 evicts the weaker incumbent 3 from target 2; the
        # queue size stays at one, so the loop stops and 3 is reported
        state, analyzer, topk = self.build_town([(1, 1), (2, 1), (3, 2)])
        assert analyzer.adg(2, 2) > analyzer.adg(3, 2)
        leftover, stats = resolve_one_to_many(state, analyzer, topk)
        assert stats["evictions"] == 1
        assert leftover == {3}
        assert state.forward[2] == 2
        assert state.forward[3] < 0

    def test_never_evicts_stronger_incumbent(self):
        # hubless source 3 contests both occupied targets and wins neither
        state, analyzer, topk = self.build_town([(1, 1), (2, 2), (3, 1)], k=2)
        leftover, stats = resolve_one_to_many(state, analyzer, topk)
        assert stats["evictions"] == 0
        assert leftover == {3}
        assert state.forward[1] == 1
        assert state.forward[2] == 2


class TestResolveLowConfidence:
    def build_star(self, spoke_angles1, spoke_angles2, predictions, flagged=frozenset(), **cfg_kwargs):
        n = len(spoke_angles1)
        kg1, kg2, store = star_pair(n, spoke_angles1=spoke_angles1, spoke_angles2=spoke_angles2)
        state = AlignmentState([(0, 0)], predictions, n_sources=n + 1, n_targets=n + 1)
        cfg = RepairConfig(**cfg_kwargs)
        analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
        return state, analyzer, cfg, set(flagged)

    def test_confident_pairs_untouched(self):
        state, analyzer, cfg, flags = self.build_star(
            [50, 15], [53.13, 36.87], [(1, 1), (2, 2)]
        )
        assert analyzer.adg(1, 1) == pytest.approx(sigmoid(1.0))
        leftover, stats = resolve_low_confidence(state, analyzer, cfg, set(), flags)
        assert stats["stripped"] == 0
        assert leftover == set()
        assert dict((s, t) for s, t, _ in state.pairs()) == {0: 0, 1: 1, 2: 2}

    def test_flag_is_consumed_once(self):
        state, analyzer, cfg, flags = self.build_star(
            [50, 15], [53.13, 36.87], [(1, 1), (2, 2)], flagged={1}
        )
        leftover, stats = resolve_low_confidence(state, analyzer, cfg, set(), flags)
        assert stats["stripped"] == 1
        assert leftover == set()
        assert state.forward[1] == 1
        assert provenance_of(state, 1) == "repaired"

    def test_low_confidence_pair_stripped_and_rematched(self):
        # source 2's prediction points at isolated target 3: no matched
        # neighbor, confidence sigmoid(0) < beta, so it is stripped and
        # rematched to the free in-star target 2
        kg1 = make_kg(3, [(0, 0, 1), (0, 1, 2)], side=Side.SOURCE)
        kg2 = make_kg(5, [(0, 0, 1), (0, 1, 2)], n_rel=2, side=Side.TARGET)
        store = EmbeddingStore({Side.SOURCE: angles_to_rows([0, 53.13, 50]),
                                Side.TARGET: angles_to_rows([0, 53.13, 45, 90, 170])})
        state = AlignmentState([(0, 0)], [(1, 1), (2, 3)], n_sources=3, n_targets=5)
        cfg = RepairConfig()
        analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
        assert analyzer.adg(2, 3) < cfg.effective_beta()
        leftover, stats = resolve_low_confidence(state, analyzer, cfg, set(), set())
        assert stats["stripped"] == 1
        assert state.forward[2] == 2
        assert leftover == set()

    def test_contest_by_score_evicts_weaker(self):
        # equal confidences, so the similarity term decides: source 2 sits
        # closer to target 1 than incumbent 1 does and takes it over
        state, analyzer, cfg, flags = self.build_star(
            [50, 42], [45, 90], [(1, 1), (2, 2)], flagged={1, 2}
        )
        sim11, sim21 = pair_cosines(analyzer.store, Side.SOURCE, [1, 2], Side.TARGET, [1, 1])
        assert sim21 > sim11
        leftover, stats = resolve_low_confidence(state, analyzer, cfg, set(), flags)
        assert stats["swaps"] == 1
        assert state.forward[2] == 1
        assert state.forward[1] == 2
        assert leftover == set()

    def test_greedy_result_matches_brute_force_on_separated_scores(self):
        spokes1 = [20, 60, 100]
        spokes2 = [22, 62, 102]
        state, analyzer, cfg, flags = self.build_star(
            spokes1, spokes2,
            [(1, 1), (2, 2), (3, 3)], flagged={1, 2, 3},
        )
        pairs = list(itertools.product((1, 2, 3), repeat=2))
        sims = pair_cosines(
            analyzer.store, Side.SOURCE, [s for s, _ in pairs], Side.TARGET, [t for _, t in pairs]
        )
        score = {(s, t): analyzer.adg(s, t) + sim for (s, t), sim in zip(pairs, sims)}
        best = max(
            itertools.permutations((1, 2, 3)),
            key=lambda perm: sum(score[(s, t)] for s, t in zip((1, 2, 3), perm)),
        )
        leftover, stats = resolve_low_confidence(state, analyzer, cfg, set(), flags)
        assert leftover == set()
        got = dict((s, t) for s, t, _ in state.pairs())
        assert tuple(got[s] for s in (1, 2, 3)) == best


def reference_resolve_one_to_many(state, analyzer, topk):
    """The one-to-many stage with its own rematch loop, as it was written
    before it shared ``_rematch`` with the low-confidence stage."""
    displaced = one_to_one(state, analyzer)
    queue = displaced | state.unaligned_sources
    stats = {"initial_unaligned": len(queue), "iterations": 0, "evictions": 0}
    while len(queue) > 0:
        last_len = len(queue)
        stats["iterations"] += 1
        fresh = set()
        for e1 in sorted(queue):
            aligned = False
            for e2 in topk[e1].tolist():
                [holders] = state.sources_of([e2])
                if not holders:
                    state.align(e1, e2, REPAIRED)
                    aligned = True
                    break
                incumbent = holders[0]
                if state.is_seed_pair(incumbent, e2):
                    continue
                if analyzer.adg(e1, e2) > analyzer.adg(incumbent, e2):
                    state.unalign(incumbent)
                    state.align(e1, e2, REPAIRED)
                    fresh.add(incumbent)
                    stats["evictions"] += 1
                    aligned = True
                    break
            if not aligned:
                fresh.add(e1)
        queue = fresh
        if len(queue) >= last_len:
            break
    stats["leftover"] = len(queue)
    return queue, stats


def reference_similarity(store, s, t):
    """The per-pair ``np.dot`` cosine the low-confidence stage used to score
    with, before ``pair_cosines`` became the only one."""
    return reference_cosine(store.entity_vec(Side.SOURCE, s), store.entity_vec(Side.TARGET, t))


def reference_candidate_targets(e1, state, analyzer, beta, cap):
    """Candidate targets as the stage used to collect them: nearest first,
    capped, filtered by confidence >= beta, with the cosines and confidences
    that ranked and filtered them thrown away."""
    matched_targets = set()
    h = analyzer.cfg.h
    for u in neighborhood_entities(analyzer.kg1, e1, h):
        t = int(state.forward[u])
        if t >= 0:
            matched_targets.add(t)
    raw = set()
    for t_prime in matched_targets:
        raw |= set(neighborhood_entities(analyzer.kg2, t_prime, h))
    own = int(state.forward[e1])
    if own >= 0:
        raw.discard(own)
    if not raw:
        return []
    targets = sorted(raw)
    sims = pair_cosines(analyzer.store, Side.SOURCE, [e1] * len(targets), Side.TARGET, targets)
    ranked = sorted(zip(targets, sims.tolist()), key=lambda ts: (-ts[1], ts[0]))[:cap]
    return [t for t, _ in ranked if analyzer.adg(e1, t) >= beta]


def reference_resolve_low_confidence(state, analyzer, cfg, unaligned, flagged, rescored):
    """The low-confidence stage with its own rematch loop, as it was written
    before it shared ``_rematch`` with the one-to-many stage, and before it
    scored each candidate once. ``rescored[0]`` counts the confidence
    lookups its ranking repeats after ``reference_candidate_targets``."""
    beta = cfg.effective_beta()
    queue = set(unaligned)
    flags = set(flagged)
    stats = {"stripped": 0, "iterations": 0, "swaps": 0}
    last_len = -1
    while True:
        low = []
        for s, t, prov in state.pairs():
            if prov == SEED:
                continue
            if s in flags or analyzer.adg(s, t) < beta:
                low.append(s)
        for s in low:
            state.unalign(s)
            queue.add(s)
        stats["stripped"] += len(low)
        flags.clear()
        if last_len > -1 and len(queue) >= last_len:
            break
        last_len = len(queue)
        stats["iterations"] += 1
        fresh = set()
        for e1 in sorted(queue):
            candidates = reference_candidate_targets(e1, state, analyzer, beta, cfg.candidate_cap)
            rescored[0] += len(candidates)
            scored = sorted(
                (
                    (
                        analyzer.adg(e1, t)
                        + cfg.score_lambda * reference_similarity(analyzer.store, e1, t),
                        -t,
                    )
                    for t in candidates
                ),
                reverse=True,
            )
            aligned = False
            for score, neg_t in scored[: cfg.k]:
                e2 = -neg_t
                [holders] = state.sources_of([e2])
                if not holders:
                    state.align(e1, e2, REPAIRED)
                    aligned = True
                    break
                incumbent = holders[0]
                if state.is_seed_pair(incumbent, e2):
                    continue
                incumbent_score = analyzer.adg(incumbent, e2) + (
                    cfg.score_lambda * reference_similarity(analyzer.store, incumbent, e2)
                )
                if score > incumbent_score:
                    state.unalign(incumbent)
                    state.align(e1, e2, REPAIRED)
                    fresh.add(incumbent)
                    stats["swaps"] += 1
                    aligned = True
                    break
            if not aligned:
                fresh.add(e1)
        queue = fresh
    stats["leftover"] = len(queue)
    return queue, stats


@functools.cache
def rematch_fixture(rng_seed):
    res = generate_pair(SynthConfig(n_entities=200, conflict_injection=0.2, rng_seed=rng_seed))
    seed_set = {s for s, _ in res.seeds}
    free = [i for i in range(200) if i not in seed_set]
    return res, [(s, t) for s, t, _ in greedy_align(res.perturbed_store, free, range(200))]


class TestRematchIsExact:
    """Both stages on the shared ``_rematch`` walk equal their separate
    loops: the same final pairs, stats and mutation sequence, over whole
    ``repair()`` runs on ``exea synth`` fixtures (n=200, conflict 0.2) at
    k = 1 and k = 10. The low-confidence stage scores each candidate once and
    builds only the candidates its lazy ranking needs, and reads the
    incumbent's graph only when the confidence bounds leave a comparison
    open, so it makes at most the reference's dependency-graph lookups minus
    the confidences the reference's ranking looks up a second time, and
    fewer over the fixtures."""

    def run(self, monkeypatch, res, raw, cfg, reference):
        repair_module = importlib.import_module("exea.repair")
        lookups = [0]
        rescored = [0]
        adg = PairAnalyzer.adg

        def counted(analyzer, s, t, *rest):
            lookups[0] += 1
            return adg(analyzer, s, t, *rest)

        with monkeypatch.context() as m:
            m.setattr(PairAnalyzer, "adg", counted)
            if reference:
                m.setattr(repair_module, "resolve_one_to_many", reference_resolve_one_to_many)
                m.setattr(
                    repair_module,
                    "resolve_low_confidence",
                    functools.partial(reference_resolve_low_confidence, rescored=rescored),
                )
            out = repair(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds, cfg)
        return out, lookups[0], rescored[0]

    @pytest.mark.parametrize("k", [1, 10])
    def test_equals_separate_loops(self, monkeypatch, k):
        cfg = RepairConfig(k=k)
        moved = 0
        rescored_total = 0
        got_total = ref_total = 0
        for rng_seed in (1, 2, 3):
            res, raw = rematch_fixture(rng_seed)
            got, got_lookups, _ = self.run(monkeypatch, res, raw, cfg, reference=False)
            ref, ref_lookups, rescored = self.run(monkeypatch, res, raw, cfg, reference=True)
            assert got.pairs == ref.pairs
            assert got.report.one_to_many == ref.report.one_to_many
            assert got.report.low_confidence == ref.report.low_confidence
            assert got.report.to_json_dict() == ref.report.to_json_dict()
            assert got.state.mutations == ref.state.mutations
            assert got_lookups <= ref_lookups - rescored
            got_total += got_lookups
            ref_total += ref_lookups - rescored
            moved += got.report.one_to_many["evictions"] + got.report.low_confidence["swaps"]
            rescored_total += rescored
        assert moved > 0
        # the fixtures reach the stage's ranking, so a second scoring pass
        # would show up in the lookup count, and an eager ranking would read
        # as many graphs as the reference
        assert rescored_total > 0
        assert got_total < ref_total


class TestOneToManyReads:
    """One-to-many reads a walk's comparisons when the walk starts: each
    ``choices`` list equals the one a cold analyzer's graphs give on the
    same state and banned pairs, every contest's answer equals the
    comparison of two cold confidences, and a challenger without matched
    neighbors, at exactly sigmoid(0) = 0.5, loses unread."""

    @pytest.mark.parametrize("k", [1, 10])
    def test_every_answer_equals_a_cold_comparison(self, monkeypatch, k):
        repair_module = importlib.import_module("exea.repair")
        resolve, rematch = repair_module.resolve_one_to_many, repair_module._rematch
        walks = []  # (the walk's choices, the cold analyzer's)
        answers = []  # (the walk's answer, the cold comparison's, challenger unmatched)

        def recorded_resolve(state, analyzer, topk):
            cold = PairAnalyzer(analyzer.kg1, analyzer.kg2, analyzer.store, state, analyzer.cfg)
            cold.ban(analyzer.banned_pairs)

            def recorded_rematch(state, queue, choices):
                def recorded(e1):
                    got = choices(e1)
                    expected = []
                    # seed targets skipped, each contest won, the first free target
                    for e2 in topk[e1].tolist():
                        [holders] = state.sources_of([e2])
                        if not holders:
                            expected.append((e2, -1))
                            break
                        if state.is_seed_pair(holders[0], e2):
                            continue
                        cold._cache.clear()
                        challenger, held = cold.graphs([(e1, e2), (holders[0], e2)])
                        win = challenger.confidence > held.confidence
                        empty = not challenger.explanation.neighbor_keys.size
                        answers.append(((e2, holders[0]) in got, win, empty))
                        if win:
                            expected.append((e2, holders[0]))
                    walks.append((got, expected))
                    return got

                return rematch(state, queue, recorded)

            with monkeypatch.context() as m:
                m.setattr(repair_module, "_rematch", recorded_rematch)
                return resolve(state, analyzer, topk)

        monkeypatch.setattr(repair_module, "resolve_one_to_many", recorded_resolve)
        for rng_seed in (1, 2, 3):
            res, raw = rematch_fixture(rng_seed)
            repair(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds, RepairConfig(k=k))
        assert [got for got, _ in walks] == [cold for _, cold in walks]
        assert [got for got, _, _ in answers] == [cold for _, cold, _ in answers]
        # some comparisons evict; at k = 10 some challengers are unmatched
        # (at k = 1 a walk compares only at its nearest target, and on these
        # fixtures every such challenger has a matched neighbor)
        assert any(got for got, _, _ in answers)
        assert any(empty for _, _, empty in answers) is (k == 10)

    @staticmethod
    def build_hub(predictions, k):
        """A seeded hub (0, 0) with two spokes per side and isolated
        entities 3 and 4 on each side, the given predictions, and the top-k
        targets of every source."""
        kg1 = make_kg(5, [(0, 0, 1), (0, 0, 2)], side=Side.SOURCE)
        kg2 = make_kg(5, [(0, 0, 1), (0, 0, 2)], side=Side.TARGET)
        store = EmbeddingStore({
            Side.SOURCE: angles_to_rows([0, 50, 60, 40, 120]),
            Side.TARGET: angles_to_rows([0, 50, 60, 35, 170]),
        })
        state = AlignmentState([(0, 0)], predictions, n_sources=5, n_targets=5)
        analyzer = PairAnalyzer(kg1, kg2, store, state, RepairConfig(k=k))
        cold = PairAnalyzer(kg1, kg2, store, state, RepairConfig(k=k))
        return state, analyzer, cold, similarity_topk(store, range(5), range(5), k)[0]

    def test_unmatched_challenger_evicts_no_one(self):
        """Source 3 is isolated, so each of its keys has no matched neighbor
        and confidence exactly 0.5. Its four nearest targets are held by
        source 2 at 0.5 (target 3 is isolated), by spoke 1 above 0.5, by
        isolated source 4 at 0.5 and by the seed; the one free target, 4, is
        its farthest. It evicts no one, and no key of it is cached."""
        state, analyzer, cold, topk = self.build_hub([(1, 1), (2, 3), (4, 2)], k=4)
        assert topk[3].tolist() == [3, 1, 2, 0]
        assert [cold.adg(3, t) for t in (3, 1, 2)] == [0.5] * 3
        assert cold.adg(2, 3) == cold.adg(4, 2) == 0.5
        assert cold.adg(1, 1) > 0.5
        leftover, stats = resolve_one_to_many(state, analyzer, topk)
        assert leftover == {3}
        assert stats["evictions"] == 0
        assert [(s, t) for s, t, _ in state.pairs()] == [(0, 0), (1, 1), (2, 3), (4, 2)]
        assert not [key for key in analyzer._cache if key[0] == 3]

    def test_one_matched_neighbor_is_read(self):
        """Spoke 1's one matched neighbor, the seeded hub, lifts it above
        isolated source 4, which holds its nearest target at 0.5, so it
        evicts 4 (its other spoke neighbor, 2, is aligned outside target
        1's neighborhood)."""
        state, analyzer, cold, topk = self.build_hub([(2, 3), (3, 2), (4, 1)], k=1)
        assert analyzer_neighbors(cold, [(1, 1)]) == [[(0, 0)]]
        assert cold.adg(1, 1) > cold.adg(4, 1) == 0.5
        leftover, stats = resolve_one_to_many(state, analyzer, topk)
        assert stats["evictions"] == 1
        assert state.forward[1] == 1
        assert leftover == {4}


def nearest_candidates(e1, state, analyzer, cap):
    """The capped neighbor-sharing targets of ``e1``, nearest first, ties to
    the lower target, with their cosines."""
    i1, i2 = analyzer.index1, analyzer.index2
    matched = np.unique(state.forward[i1.hood(e1)])
    matched = matched[matched >= 0]
    lo, hi = i2.hood_start[matched], i2.hood_start[matched + 1]
    targets = np.unique(i2.hood_key[_ranges(lo, hi - lo)] % i2.n_entities)
    targets = targets[targets != state.forward[e1]]
    if not targets.size:
        return []
    sims = pair_cosines(
        analyzer.store, Side.SOURCE, np.full_like(targets, e1), Side.TARGET, targets
    )
    order = np.lexsort((targets, -sims))[:cap]
    return list(zip(targets[order].tolist(), sims[order].tolist()))


def reference_ranked_candidates(e1, state, analyzer, beta, cfg):
    """The low-confidence ranking as it was before it turned lazy: every
    capped candidate's graph read in one ``adgs`` call, the kept ones sorted
    by (-score, target), uncut."""
    nearest = nearest_candidates(e1, state, analyzer, cfg.candidate_cap)
    scored = []
    for (t, sim), conf in zip(nearest, analyzer.adgs((e1, t) for t, _ in nearest)):
        if conf >= beta:
            scored.append((t, conf + cfg.score_lambda * sim))
    return sorted(scored, key=lambda ts: (-ts[1], ts[0]))


class TestLazyRankingIsExact:
    """On every call of whole ``repair()`` runs on ``exea synth`` fixtures
    (n=200, conflict 0.2), the lazy ranking, read to its end, yields the
    eager reference's sorted list cut at k, and reads only keys the
    reference reads. Read to its end it reads fewer only where the cosine
    bounds separate the candidates within k yields (k = 1 at lambda = 1, and
    lambda = 5); at k = 10 with lambda = 1, or lambda = 0.1, it reads them
    all, and the rematch walk, which stops at its first taken target, is
    where it saves (``TestRematchIsExact``). With lambda = 0 no bound
    separates candidates, so it reads every candidate in one ``adgs`` call."""

    @pytest.mark.parametrize(
        "k, score_lambda, fewer",
        [(1, 1.0, True), (10, 5.0, True), (10, 1.0, False), (1, 0.1, False), (10, 0.0, False)],
    )
    def test_every_call_equals_reference(self, monkeypatch, k, score_lambda, fewer):
        repair_module = importlib.import_module("exea.repair")
        lazy = repair_module._candidate_targets
        calls = lazy_reads = ref_reads = 0

        def checked(e1, state, analyzer, beta, cfg):
            nonlocal calls, lazy_reads, ref_reads
            reads = []
            adgs = analyzer.adgs

            def recording(keys):
                keys = list(keys)
                reads.append(keys)
                return adgs(keys)

            analyzer.adgs = recording
            try:
                got = list(lazy(e1, state, analyzer, beta, cfg))
                lazy_keys = [key for keys in reads for key in keys]
                lazy_calls = len(reads)
                reads.clear()
                ref = reference_ranked_candidates(e1, state, analyzer, beta, cfg)
                ref_keys = [key for keys in reads for key in keys]
            finally:
                del analyzer.adgs
            assert got == ref[: cfg.k]
            assert len(set(lazy_keys)) == len(lazy_keys)
            assert set(lazy_keys) <= set(ref_keys)
            if cfg.score_lambda == 0:
                assert lazy_keys == ref_keys and lazy_calls == min(len(ref_keys), 1)
            calls += 1
            lazy_reads += len(lazy_keys)
            ref_reads += len(ref_keys)
            return iter(got)

        monkeypatch.setattr(repair_module, "_candidate_targets", checked)
        cfg = RepairConfig(k=k, score_lambda=score_lambda)
        for rng_seed in (1, 2, 3):
            res, raw = rematch_fixture(rng_seed)
            repair(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds, cfg)
        assert calls > 0
        assert (lazy_reads < ref_reads) == fewer


class TestRankingBounds:
    """The bounds behind the lazy ranking and the swap shortcut, on graphs
    whose confidences are set by hand, so that ties at a bound happen."""

    def setup_method(self):
        res, raw = rematch_fixture(1)
        self.state = AlignmentState(res.seeds, raw, n_sources=200, n_targets=200)
        self.analyzer = PairAnalyzer(
            res.kg1, res.kg2, res.perturbed_store, self.state, RepairConfig()
        )

    def test_a_tie_at_the_bound_goes_to_the_lower_target(self, monkeypatch):
        """A kept candidate i of the first read scores exactly the bound of
        the nearest unbuilt one, j, a lower target of confidence 1.0; every
        other candidate falls under the floor. j ranks first, and a ranking
        that yielded at a score equal to the bound would put i first."""
        cfg = RepairConfig(k=10, score_lambda=5.0)
        beta = cfg.effective_beta()
        confidence = {}

        def adgs(keys):
            return [confidence.get(t, 0.5) for _, t in keys]

        monkeypatch.setattr(self.analyzer, "adgs", adgs)
        ties = 0
        for e1 in range(200):
            nearest = nearest_candidates(e1, self.state, self.analyzer, cfg.candidate_cap)
            w = [cfg.score_lambda * sim for _, sim in nearest]
            # j: the first candidate outside the first read's window
            j = next((p for p in range(1, len(w)) if 1.0 + w[p] < beta + w[0]), None)
            if j is None:
                continue
            tie = 1.0 + w[j]
            i = next(
                (
                    i for i in range(1, j)
                    if nearest[j][0] < nearest[i][0]
                    and beta <= tie - w[i] <= 1.0
                    and (tie - w[i]) + w[i] == tie
                ),
                None,
            )
            if i is None:
                continue
            confidence.clear()
            confidence.update({nearest[i][0]: tie - w[i], nearest[j][0]: 1.0})
            got = list(_candidate_targets(e1, self.state, self.analyzer, beta, cfg))
            assert got == reference_ranked_candidates(e1, self.state, self.analyzer, beta, cfg)
            assert got == [(nearest[j][0], tie), (nearest[i][0], tie)]
            ties += 1
        assert ties > 0

    def test_swap_shortcut_equals_the_full_comparison(self, monkeypatch):
        """``_outscores`` decides as the incumbent's confidence + lambda *
        cosine does, at scores on and next to both bounds and the incumbent's
        own score, and reads no graph when a bound settles it. Incumbents are
        the fixture's aligned pairs and random pairs."""
        rng = np.random.default_rng(3)
        keys = [(s, t) for s, t, _ in self.state.pairs()][::4]
        keys += rng.integers(0, 200, size=(40, 2)).tolist()
        lookups = []
        adg = self.analyzer.adg
        monkeypatch.setattr(self.analyzer, "adg", lambda *key: lookups.append(key) or adg(*key))
        for score_lambda in (0.0, 1.0, 5.0):
            cfg = RepairConfig(score_lambda=score_lambda)
            for incumbent, e2 in keys:
                w = score_lambda * reference_similarity(self.analyzer.store, incumbent, e2)
                held = adg(incumbent, e2) + w
                for edge in (0.5 + w, held, 1.0 + w):
                    below, above = math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)
                    for score in (below, edge, above):
                        lookups.clear()
                        got = _outscores(self.analyzer, cfg, e2, score, incumbent)
                        assert got == (score > held)
                        assert (not lookups) == (score > 1.0 + w or score <= 0.5 + w)


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
        assert state.forward[1] == 0
        assert state.forward[0] == 1
        assert stats["unaligned_sources"] == []

    @pytest.mark.parametrize("rows1,rows2", [
        # sources 0 and 1 tie exactly for target 0: the lower source takes it
        ([[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]),
        # targets 0 and 1 tie exactly for source 0: it takes the lower target
        ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]]),
    ])
    def test_exact_tie_goes_to_lower_source_then_lower_target(self, rows1, rows2):
        store = EmbeddingStore({Side.SOURCE: np.array(rows1), Side.TARGET: np.array(rows2)})
        sims = similarity_matrix(store, [0, 1], [0, 1])
        assert sims.max() == 1.0 and (sims == 1.0).sum() == 2
        state = AlignmentState([], [], n_sources=2, n_targets=2)
        assert final_fill(state, store) == {"filled": 2, "unaligned_sources": []}
        assert [(s, t) for s, t, _ in state.pairs()] == [(0, 0), (1, 1)]

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
        state = AlignmentState([(0, 0)], [(1, 1)], n_sources=2, n_targets=2)
        stats = final_fill(state, store)
        assert stats["filled"] == 0
        assert stats["unaligned_sources"] == []


def reference_final_fill(state, store):
    """The Python-sorted final fill that the single numpy sort replaced, kept
    as the reference: every (similarity, -i, -j) tuple, sorted descending."""
    sources = sorted(state.unaligned_sources)
    targets = sorted(state.unaligned_targets)
    stats = {"filled": 0, "unaligned_sources": []}
    if sources and targets:
        sims = similarity_matrix(store, sources, targets)
        order = sorted(
            ((float(sims[i, j]), -i, -j) for i in range(len(sources)) for j in range(len(targets))),
            reverse=True,
        )
        used_s, used_t = set(), set()
        for sim, neg_i, neg_j in order:
            i, j = -neg_i, -neg_j
            if i in used_s or j in used_t:
                continue
            state.align(sources[i], targets[j], REPAIRED)
            used_s.add(i)
            used_t.add(j)
            stats["filled"] += 1
            if len(used_s) == len(sources) or len(used_t) == len(targets):
                break
    stats["unaligned_sources"] = sorted(state.unaligned_sources)
    return stats


# small integer vectors, so that many similarities tie exactly
tie_rows = st.lists(
    st.lists(st.integers(-1, 1), min_size=2, max_size=2).filter(any), min_size=1, max_size=7
)


class TestFinalFillEqualsTupleSort:
    @settings(max_examples=200, deadline=None)
    @given(rows1=tie_rows, rows2=tie_rows, data=st.data())
    def test_same_pairs_and_stats(self, rows1, rows2, data):
        n1, n2 = len(rows1), len(rows2)
        store = EmbeddingStore({Side.SOURCE: np.array(rows1, dtype=float),
                                Side.TARGET: np.array(rows2, dtype=float)})
        preds = data.draw(st.lists(
            st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1)),
            unique_by=(lambda p: p[0], lambda p: p[1]),
        ))
        got_state = AlignmentState([], preds, n_sources=n1, n_targets=n2)
        ref_state = AlignmentState([], preds, n_sources=n1, n_targets=n2)
        assert final_fill(got_state, store) == reference_final_fill(ref_state, store)
        assert got_state.pairs() == ref_state.pairs()

    def test_all_tied_fills_in_index_order(self):
        rows = np.ones((3, 2))
        store = EmbeddingStore({Side.SOURCE: rows, Side.TARGET: rows[:2]})
        state = AlignmentState([], [], n_sources=3, n_targets=2)
        assert final_fill(state, store) == {"filled": 2, "unaligned_sources": [2]}
        assert [(s, t) for s, t, _ in state.pairs()] == [(0, 0), (1, 1)]


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
        assert provenance_of(out.state, 1) == "repaired"
        assert out.report.low_confidence["stripped"] >= 1


@pytest.fixture(scope="module")
def conflict_fixture():
    cfg = SynthConfig(n_entities=200, conflict_injection=0.2, rng_seed=13)
    res = generate_pair(cfg)
    gold = dict(res.gold)
    seed_set = {s for s, _ in res.seeds}
    free = [i for i in range(200) if i not in seed_set]
    raw = [(s, t) for s, t, _ in greedy_align(res.perturbed_store, free, range(200))]
    return res, gold, raw


class TestRepairPipeline:
    def accuracy(self, pairs, gold):
        return sum(1 for s, t in pairs if gold.get(s) == t)

    def test_repair_recovers_injected_conflicts(self, conflict_fixture):
        res, gold, raw = conflict_fixture
        raw_acc = self.accuracy(raw, gold) + len(res.seeds)
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
            assert provenance_of(out.state, s) == "seed"

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
        expected = dict(raw)
        expected.update(dict(res.seeds))
        assert dict(out.pairs) == expected

    def test_ideal_embeddings_need_no_repair(self):
        cfg = SynthConfig(n_entities=40, rng_seed=3, embedding_noise=0.0)
        res = generate_pair(cfg)
        gold = dict(res.gold)
        seed_set = {s for s, _ in res.seeds}
        free = [i for i in range(40) if i not in seed_set]
        raw = [(s, t) for s, t, _ in greedy_align(res.ideal_store, free, range(40))]
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
        assert len(out.adgs) == 200


class TestCachedExplanations:
    """The graphs ``RepairResult.adgs`` builds for the final pairs, and
    their explanations, equal a cold analyzer's over the final state."""

    @pytest.mark.parametrize("rng_seed", [1, 2, 3])
    def test_cached_equals_cold_rebuild(self, rng_seed):
        res = generate_pair(SynthConfig(n_entities=200, conflict_injection=0.2, rng_seed=rng_seed))
        seed_set = {s for s, _ in res.seeds}
        free = [i for i in range(200) if i not in seed_set]
        raw = [(s, t) for s, t, _ in greedy_align(res.perturbed_store, free, range(200))]
        cfg = RepairConfig()
        out = repair(res.kg1, res.kg2, res.perturbed_store, raw, res.seeds, cfg)
        cold = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, out.state, cfg)
        cold.ban(tuple(p) for p in out.report.derived_not_same_as)
        assert len(out.pairs) == 200
        for (s, t), graph in zip(out.pairs, cold.graphs(out.pairs)):
            cached, fresh = out.adgs[(s, t)].explanation, graph.explanation
            assert cached.path_matches() == fresh.path_matches()
            assert cached.triple_keys == fresh.triple_keys
            assert cached == fresh
            assert out.adgs[(s, t)].confidence == cold.adg(s, t)
            assert out.adgs[(s, t)] == graph


class TestRepairKeepsNoGraphs:
    """``exea repair`` on an n=200 ``exea synth`` fixture: once ``repair()``
    returns, the analyzer's cache holds no dependency graph or explanation,
    and no graph is built after the final fill (its confidences are read
    without one), since nothing on the command's path reads
    ``RepairResult.adgs``."""

    def test_cache_holds_numbers_only(self, monkeypatch, tmp_path):
        repair_module = importlib.import_module("exea.repair")
        data, out = tmp_path / "data", tmp_path / "out"
        kgs = ["--kg1", str(data / "triples_1"), "--kg2", str(data / "triples_2")]
        emb = ["--emb", str(data / "embeddings.tsv"), "--seeds", str(data / "train_links")]
        assert exea.cli.main([
            "synth", "--out", str(data), "--n-entities", "200", "--conflict-injection", "0.2",
            "--rng-seed", "1",
        ]) == 0
        assert exea.cli.main(["infer", *kgs, *emb, "--out", str(data / "raw.tsv")]) == 0
        filled = [False]
        built = {"before fill": 0, "after fill": 0}
        analyzers = []
        final_fill = repair_module.final_fill
        build_adg = repair_module.build_adg

        def fill(*args):
            stats = final_fill(*args)
            filled[0] = True
            return stats

        def counted(expls, *args):
            built["after fill" if filled[0] else "before fill"] += len(expls)
            return build_adg(expls, *args)

        class Recorded(PairAnalyzer):
            def __init__(self, *args):
                super().__init__(*args)
                analyzers.append(self)

        monkeypatch.setattr(repair_module, "final_fill", fill)
        monkeypatch.setattr(repair_module, "build_adg", counted)
        monkeypatch.setattr(repair_module, "PairAnalyzer", Recorded)
        assert exea.cli.main([
            "repair", *kgs, *emb, "--pred", str(data / "raw.tsv"),
            "--out", str(out / "aligned.tsv"), "--report", str(out / "report.json"),
        ]) == 0
        assert filled[0] and built["before fill"] > 0
        assert built["after fill"] == 0
        [analyzer] = analyzers
        assert len(analyzer._cache) >= 200
        for value in analyzer._cache.values():
            packed, confidence, epoch = value
            assert type(packed) is np.ndarray and type(confidence) is float and type(epoch) is int
            assert not any(isinstance(v, (Adg, Explanation)) for v in value)
