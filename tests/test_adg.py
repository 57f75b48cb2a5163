"""Dependency-graph construction, edge weights, and gated confidence."""

import functools
import importlib
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exea.adg import (
    Adg,
    AdgConfig,
    EdgeClass,
    aggregate_confidence,
    build_adg,
    confidences,
    sigmoid,
)
from exea.embedding import EmbeddingStore, greedy_align, pair_cosines
from exea.errors import ConfigError
from exea.explain import explanation, explanations
from exea.kg import Side, enumerate_paths, functionality, inverse_functionality
from exea.repair import AlignmentState, PairAnalyzer, RepairConfig
from exea.synth import SynthConfig, generate_pair

from test_kg import make_kg


def path_weight(kg, steps):
    """Product of per-step functionality weights along the path ``steps``:
    an outgoing step weighs its relation's inverse functionality, an
    incoming one its functionality. The per-path reference for the weights
    that the path tables hold in bulk."""
    w = 1.0
    for rank, r, _ in steps:
        w *= inverse_functionality(kg, r) if rank == 0 else functionality(kg, r)
    return w


class TestSigmoid:
    def test_reference_points(self):
        assert sigmoid(0.0) == pytest.approx(0.5)
        assert sigmoid(0.5) == pytest.approx(1.0 / (1.0 + math.exp(-0.5)))
        assert sigmoid(0.5) == pytest.approx(0.6224593312018546)

    def test_matches_closed_form_on_grid(self):
        for x in np.linspace(-30, 30, 121):
            assert sigmoid(float(x)) == pytest.approx(1.0 / (1.0 + math.exp(-x)), rel=1e-12)


class TestPathWeight:
    def setup_method(self):
        # r0: func 1.0, ifunc 2/3; r1: func 1/2, ifunc 1/2
        self.kg = make_kg(6, [(0, 0, 1), (2, 0, 1), (3, 0, 4), (5, 1, 0), (5, 1, 0)])
        self.kg = make_kg(6, [(0, 0, 1), (2, 0, 1), (3, 0, 4), (5, 1, 0), (5, 1, 4), (0, 1, 4), (3, 1, 4)])

    # a step is (0 outgoing / 1 incoming, relation, entity reached)
    def test_outgoing_single_step_uses_inverse_functionality(self):
        path = [p for p in enumerate_paths(self.kg, 0, 1)
                if len(p) == 1 and p[0][0] == 0 and p[0][1] == 0][0]
        assert path_weight(self.kg, path) == pytest.approx(self.kg.ifunc[0])

    def test_incoming_single_step_uses_functionality(self):
        path = [p for p in enumerate_paths(self.kg, 1, 1) if p[0][0] == 1 and p[0][1] == 0][0]
        assert path_weight(self.kg, path) == pytest.approx(self.kg.func[0])

    def test_two_step_path_multiplies_step_weights(self):
        # 1 <-r0- 0 -r1-> 4 seen from 1: incoming r0 then outgoing r1
        paths = [p for p in enumerate_paths(self.kg, 1, 2) if len(p) == 2]
        target = [
            p for p in paths
            if p[0][0] == 1 and p[0][2] == 0 and p[1][0] == 0 and p[1][1] == 1
        ]
        assert target
        expected = self.kg.func[0] * self.kg.ifunc[1]
        assert path_weight(self.kg, target[0]) == pytest.approx(expected)


class TestEdgeWeight:
    """Edge classes and weights as ``build_adg`` gives them, on the chain
    0 -r0-> 1 -r0-> 2 copied to both sides. Each case leaves one source and
    one target path of the chosen lengths (from center 0 to entity 1 or 2),
    matched through one aligned neighbor pair."""

    def setup_method(self):
        self.kg1 = make_kg(3, [(0, 0, 1), (1, 0, 2)])
        self.kg2 = make_kg(3, [(0, 0, 1), (1, 0, 2)], side=Side.TARGET)
        rows = [[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]]
        self.store = EmbeddingStore({Side.SOURCE: rows, Side.TARGET: rows})

    def edge(self, len1, len2, cfg=None):
        """The class, weight and path pair of the one edge between centers
        (0, 0) whose only matched neighbor pair is (len1, len2)."""
        expl = explanation((0, 0), self.kg1, self.kg2, self.store, {len1: len2}, h=2)
        [adg] = build_adg([expl], self.store, cfg)
        (path1, path2, _), = expl.path_matches()
        assert (len(path1), len(path2)) == (len1, len2)
        assert adg.edge_neighbor.tolist() == [0]
        (c,), (w,) = adg.edge_class.tolist(), adg.edge_weight.tolist()
        return list(EdgeClass)[c], w, path1, path2

    def test_classification_covers_all_length_combinations(self):
        assert self.edge(1, 1)[0] is EdgeClass.STRONG
        assert self.edge(1, 2)[0] is EdgeClass.MODERATE
        assert self.edge(2, 1)[0] is EdgeClass.MODERATE
        assert self.edge(2, 2)[0] is EdgeClass.WEAK

    def test_strong_takes_min_of_path_weights(self):
        cls, w, path1, path2 = self.edge(1, 1)
        assert cls is EdgeClass.STRONG
        expected = min(path_weight(self.kg1, path1), path_weight(self.kg2, path2))
        assert w == pytest.approx(expected)

    def test_moderate_scales_by_alpha(self):
        for alpha in (0.25, 0.5, 1.0):
            cfg = AdgConfig(alpha=alpha, weak_weight=min(0.1, alpha))
            cls, w, path1, path2 = self.edge(1, 2, cfg)
            assert cls is EdgeClass.MODERATE
            expected = alpha * min(path_weight(self.kg1, path1), path_weight(self.kg2, path2))
            assert w == pytest.approx(expected)

    def test_weak_uses_configured_floor(self):
        cls, w, _, _ = self.edge(2, 2, AdgConfig(weak_weight=0.07))
        assert cls is EdgeClass.WEAK
        assert w == 0.07

    def test_weights_bounded_by_one(self):
        for lengths in ((1, 1), (1, 2), (2, 2)):
            _, w, _, _ = self.edge(*lengths)
            assert 0.0 <= w <= 1.0


class TestConfig:
    def test_defaults(self):
        cfg = AdgConfig()
        assert (cfg.alpha, cfg.weak_weight, cfg.theta, cfg.gamma) == (0.5, 0.1, 0.5, 0.3)

    def test_alpha_bounds(self):
        with pytest.raises(ConfigError):
            AdgConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            AdgConfig(alpha=1.5)

    def test_weak_weight_bounded_by_alpha(self):
        with pytest.raises(ConfigError):
            AdgConfig(alpha=0.3, weak_weight=0.4)
        AdgConfig(alpha=0.3, weak_weight=0.3)


class TestGatedConfidence:
    def test_strong_mass_alone_when_above_theta(self):
        cfg = AdgConfig()
        assert aggregate_confidence(0.8, 5.0, 5.0, cfg) == pytest.approx(sigmoid(0.8))

    def test_moderate_added_below_theta(self):
        cfg = AdgConfig()
        assert aggregate_confidence(0.4, 0.5, 9.0, cfg) == pytest.approx(sigmoid(0.9))

    def test_weak_added_only_when_moderate_below_gamma(self):
        cfg = AdgConfig()
        assert aggregate_confidence(0.1, 0.2, 0.3, cfg) == pytest.approx(sigmoid(0.6))
        assert aggregate_confidence(0.1, 0.35, 0.3, cfg) == pytest.approx(sigmoid(0.45))

    def test_boundary_values_close_gates(self):
        cfg = AdgConfig()
        # c_s exactly at theta keeps the gate shut
        assert aggregate_confidence(0.5, 1.0, 1.0, cfg) == pytest.approx(sigmoid(0.5))
        assert aggregate_confidence(0.2, 0.3, 1.0, cfg) == pytest.approx(sigmoid(0.5))

    def test_confidence_increases_with_strong_mass(self):
        cfg = AdgConfig()
        grid = np.linspace(0, 2, 40)
        vals = [aggregate_confidence(float(x), 0.0, 0.0, cfg) for x in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


mass = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
gate = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


class TestGatedConfidenceProperties:
    @given(c_s=mass, c_m=mass, c_w=mass, theta=gate, gamma=gate)
    def test_result_inside_unit_interval(self, c_s, c_m, c_w, theta, gamma):
        # float64 saturates to exactly 1.0 once the gated mass passes ~36.7
        v = aggregate_confidence(c_s, c_m, c_w, AdgConfig(theta=theta, gamma=gamma))
        assert 0.0 < v <= 1.0
        if c_s + c_m + c_w < 36.0:
            assert v < 1.0

    @given(c_s=mass, c_m=mass, c_w=mass)
    def test_gates_only_ever_add_mass(self, c_s, c_m, c_w):
        # aggregates are sums of nonnegative products, so the gated terms
        # can raise the strong baseline but never undercut it
        cfg = AdgConfig()
        v = aggregate_confidence(c_s, c_m, c_w, cfg)
        assert v >= sigmoid(c_s) - 1e-12
        assert v <= sigmoid(c_s + c_m + c_w) + 1e-12

    @given(c_s=mass, c_m=mass, c_w=mass, theta=gate)
    def test_strong_mass_at_or_above_theta_stands_alone(self, c_s, c_m, c_w, theta):
        assume(c_s >= theta)
        v = aggregate_confidence(c_s, c_m, c_w, AdgConfig(theta=theta))
        assert v == pytest.approx(sigmoid(c_s))

    @given(c_s=mass, c_m=mass, c_w=mass, gamma=gate)
    def test_weak_mass_ignored_once_moderate_reaches_gamma(self, c_s, c_m, c_w, gamma):
        assume(c_m >= gamma)
        cfg = AdgConfig(gamma=gamma)
        with_weak = aggregate_confidence(c_s, c_m, c_w, cfg)
        without_weak = aggregate_confidence(c_s, c_m, 0.0, cfg)
        assert with_weak == pytest.approx(without_weak)


unit = st.floats(min_value=0.0, max_value=1.0)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def adg_configs(draw):
    """Any configuration ``AdgConfig`` accepts."""
    alpha = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    weak_weight = draw(st.floats(min_value=0.0, max_value=alpha))
    return AdgConfig(alpha=alpha, weak_weight=weak_weight, theta=draw(finite), gamma=draw(finite))


@functools.cache
def bound_fixture():
    res = generate_pair(SynthConfig(n_entities=40, density=4, rng_seed=5))
    rng = np.random.default_rng(5)
    keys = [tuple(map(int, key)) for key in rng.integers(0, 40, size=(60, 2))]
    return res, keys + list(res.gold)


class TestConfidenceBounds:
    """Every confidence lies in [0.5, 1.0]: class masses are sums of
    non-negative weight * influence products, so the gated sum is >= 0 and
    its sigmoid is >= 0.5, and float64 saturates at exactly 1.0. The
    low-confidence ranking's early stop and its swap shortcut rest on this
    bound."""

    @given(
        cfg=adg_configs(),
        edges=st.lists(st.tuples(st.integers(0, 2), unit, unit), max_size=200),
    )
    def test_masses_of_any_weights_and_influences(self, cfg, edges):
        # weights as build_adg derives them: Strong the path weight,
        # Moderate alpha times it, Weak the floor; influences in [0, 1]
        mass = [0.0, 0.0, 0.0]
        for cls, w, influence in edges:
            mass[cls] += (w, cfg.alpha * w, cfg.weak_weight)[cls] * influence
        assert 0.5 <= aggregate_confidence(*mass, cfg) <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(cfg=adg_configs(), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0))
    def test_built_graphs(self, cfg, seed, scale):
        res, keys = bound_fixture()
        rng = np.random.default_rng(seed)
        store = EmbeddingStore(
            {side: scale * rng.normal(size=(40, 8)) for side in (Side.SOURCE, Side.TARGET)}
        )
        state = AlignmentState(res.seeds, [], n_sources=40, n_targets=40)
        analyzer = PairAnalyzer(res.kg1, res.kg2, store, state, RepairConfig(h=2, adg=cfg))
        for confidence in analyzer.adgs(keys):
            assert 0.5 <= confidence <= 1.0

    def test_saturation(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(40.0) == 1.0
        assert aggregate_confidence(40.0, 0.0, 0.0, AdgConfig()) == 1.0
        assert aggregate_confidence(0.0, 0.0, 0.0, AdgConfig()) == 0.5


class TestBuildAdg:
    def test_governor_graph(self, governor_case):
        c = governor_case
        expl = explanation((0, 0), c["kg1"], c["kg2"], c["store"], c["alignments"], h=2)
        [adg] = build_adg([expl], c["store"])
        assert len(expl.matched_neighbor_pairs) == 2
        assert len(adg.influence) == 3
        assert adg.edge_class.tolist() == [0, 0]  # both Strong
        weights = sorted(adg.edge_weight.tolist())
        assert weights == pytest.approx([0.757, 0.759], abs=1e-9)
        influences = sorted(adg.influence[1:])
        assert influences == pytest.approx([0.937, 0.96], abs=1e-6)
        assert adg.c_s == pytest.approx(c["expected_c_s"], abs=1e-5)
        assert adg.c_m == 0.0 and adg.c_w == 0.0
        assert adg.confidence == pytest.approx(c["expected_confidence"], abs=1e-5)
        assert abs(adg.confidence - 0.808) < 1e-3

    def test_influence_clamped_to_unit_interval(self):
        kg1 = make_kg(2, [(0, 0, 1)])
        kg2 = make_kg(2, [(0, 0, 1)], side=Side.TARGET)
        store = EmbeddingStore(
            {Side.SOURCE: [[1.0, 0.0], [1.0, 0.0]], Side.TARGET: [[-1.0, 0.0], [-1.0, 0.0]]}
        )
        expl = explanation((0, 0), kg1, kg2, store, {1: 1}, h=1)
        [adg] = build_adg([expl], store)
        assert adg.influence == [0.0, 0.0]

    def test_repeated_neighbor_pair_keeps_one_node_many_edges(self):
        triples = [(0, 0, 1), (0, 1, 1)]
        kg1 = make_kg(2, triples, n_rel=2)
        kg2 = make_kg(2, triples, n_rel=2, side=Side.TARGET)
        rows = np.array([[1.0, 0.2], [0.3, 0.9]])
        # distinct model relation vectors so the two parallel paths do not tie
        rels = np.array([[1.0, 0.0], [0.0, 1.0]])
        store = EmbeddingStore(
            {Side.SOURCE: rows, Side.TARGET: rows},
            relation_vecs={Side.SOURCE: rels, Side.TARGET: rels},
        )
        expl = explanation((0, 0), kg1, kg2, store, {1: 1}, h=1)
        [adg] = build_adg([expl], store)
        assert expl.matched_neighbor_pairs == [(1, 1)]
        assert adg.edge_neighbor.tolist() == [0, 0]

    def test_empty_explanation_gives_floor_confidence(self):
        kg1 = make_kg(2, [(0, 0, 1)])
        kg2 = make_kg(2, [(0, 0, 1)], side=Side.TARGET)
        store = EmbeddingStore(
            {Side.SOURCE: [[1.0, 0.0], [0.0, 1.0]], Side.TARGET: [[1.0, 0.0], [0.0, 1.0]]}
        )
        expl = explanation((0, 0), kg1, kg2, store, {}, h=1)
        [adg] = build_adg([expl], store)
        assert adg.c_s == adg.c_m == adg.c_w == 0.0
        assert adg.confidence == pytest.approx(0.5)

    def test_prune_neighbors_recomputes_confidence(self, governor_case):
        # a banned neighbor pair leaves the graph and the confidence is
        # recomputed without it; repair() bans contradicted pairs this way
        c = governor_case
        state = AlignmentState(c["seeds"], [(0, 0)], n_sources=c["kg1"].n_entities,
                               n_targets=c["kg2"].n_entities)
        analyzer = PairAnalyzer(c["kg1"], c["kg2"], c["store"], state, RepairConfig(h=2))
        assert len(next(analyzer.graphs([(0, 0)])).explanation.matched_neighbor_pairs) == 2
        analyzer.ban([(1, 1)])
        pruned = next(analyzer.graphs([(0, 0)]))
        assert pruned.explanation.matched_neighbor_pairs == [(2, 2)]
        assert len(pruned.edge_neighbor) == 1
        assert pruned.c_s == pytest.approx(0.937 * 0.757, abs=1e-5)
        assert pruned.confidence == pytest.approx(sigmoid(pruned.c_s))
        # banning every neighbor leaves the floor
        analyzer.ban([(2, 2)])
        assert analyzer.adg(0, 0) == pytest.approx(0.5)

    def test_confidence_function_matches_stored_value(self, governor_case):
        c = governor_case
        expl = explanation((0, 0), c["kg1"], c["kg2"], c["store"], c["alignments"], h=2)
        [adg] = build_adg([expl], c["store"])
        assert aggregate_confidence(adg.c_s, adg.c_m, adg.c_w, AdgConfig()) == pytest.approx(
            adg.confidence
        )


class Node(NamedTuple):
    """A node of the reference build: a matched pair and its influence."""

    pair: tuple[int, int]
    influence: float


def reference_build_adg(expl, kg1, kg2, store, cfg=None):
    """The per-path build: one matched path pair at a time for edge
    endpoints, lengths, weights and classes, each edge's node found from its
    path endpoints; returns the influences (central pair first), the edges as
    (node, class, weight) and the class masses."""
    cfg = cfg or AdgConfig()
    e1, e2 = expl.pair
    pairs = []
    node_of = {}
    for key in expl.matched_neighbor_pairs:
        if key not in node_of:
            node_of[key] = len(pairs)
            pairs.append(key)
    sims = pair_cosines(
        store,
        Side.SOURCE, [e1] + [a for a, _ in pairs],
        Side.TARGET, [e2] + [b for _, b in pairs],
    ).tolist()
    influence = [min(1.0, max(0.0, sim)) for sim in sims]
    neighbors = [Node(p, x) for p, x in zip(pairs, influence[1:])]
    edges = []
    for path1, path2, _ in expl.path_matches():
        key = (path1[-1][2], path2[-1][2])
        direct = (len(path1) == 1) + (len(path2) == 1)
        cls = {2: EdgeClass.STRONG, 1: EdgeClass.MODERATE, 0: EdgeClass.WEAK}[direct]
        if cls is EdgeClass.WEAK:
            w = cfg.weak_weight
        else:
            w = min(path_weight(kg1, path1), path_weight(kg2, path2))
            if cls is EdgeClass.MODERATE:
                w *= cfg.alpha
        edges.append((node_of[key], cls, w))
    sums = {EdgeClass.STRONG: 0.0, EdgeClass.MODERATE: 0.0, EdgeClass.WEAK: 0.0}
    for node, cls, w in edges:
        sums[cls] += w * neighbors[node].influence
    c_s, c_m, c_w = sums[EdgeClass.STRONG], sums[EdgeClass.MODERATE], sums[EdgeClass.WEAK]
    return influence, edges, c_s, c_m, c_w, aggregate_confidence(c_s, c_m, c_w, cfg)


def assert_equals_reference(adg, kg1, kg2, store, cfg=None):
    """``adg`` equals the per-path build of its explanation with ``==``;
    returns the reference edges."""
    influence, edges, c_s, c_m, c_w, conf = reference_build_adg(
        adg.explanation, kg1, kg2, store, cfg
    )
    classes = list(EdgeClass)
    got = zip(adg.edge_neighbor.tolist(), adg.edge_class.tolist(), adg.edge_weight.tolist())
    assert [(n, classes[c], w) for n, c, w in got] == edges
    assert adg.influence == influence
    assert (adg.c_s, adg.c_m, adg.c_w, adg.confidence) == (c_s, c_m, c_w, conf)
    return edges


def per_graph_build_adg(expl, store, cfg=None):
    """The one-graph build ``build_adg`` batches: one ``pair_cosines`` call
    over the graph's nodes, and the class masses added one edge at a time in
    a Python loop."""
    cfg = cfg or AdgConfig()
    (e1, e2), pairs = expl.pair, expl.matched_neighbor_pairs
    sims = pair_cosines(
        store,
        Side.SOURCE, [e1] + [a for a, _ in pairs],
        Side.TARGET, [e2] + [b for _, b in pairs],
    ).tolist()
    influence = [min(1.0, max(0.0, sim)) for sim in sims]
    (i1, i2), rows1, rows2 = expl.indexes, expl.rows1, expl.rows2
    len1, len2 = i1.lengths[rows1], i2.lengths[rows2]
    classes = 2 - (len1 == 1) - (len2 == 1)
    weights = np.minimum(i1.weight[rows1], i2.weight[rows2])
    weights[classes == 1] *= cfg.alpha
    weights[classes == 2] = cfg.weak_weight
    mass = [0.0, 0.0, 0.0]
    for n, c, w in zip(expl.neighbor.tolist(), classes.tolist(), weights.tolist()):
        mass[c] += w * influence[n + 1]
    c_s, c_m, c_w = mass
    return Adg(
        influence=influence,
        edge_neighbor=expl.neighbor,
        edge_class=classes,
        edge_weight=weights,
        c_s=c_s,
        c_m=c_m,
        c_w=c_w,
        confidence=aggregate_confidence(c_s, c_m, c_w, cfg),
        explanation=expl,
    )


class TestAdgFromTablesIsExact:
    """``build_adg`` reads edges from the path tables and equals the
    per-path build exactly (``==``, no tolerance) on every final pair of
    synth fixtures, under two ADG configurations, whether it builds one
    graph per call or many."""

    @pytest.mark.parametrize("pass_nodes", [1, "default", 10**9])
    def test_many_graphs_in_one_call_equal_references(self, monkeypatch, pass_nodes):
        adg_module = importlib.import_module("exea.adg")
        if pass_nodes != "default":
            monkeypatch.setattr(adg_module, "_PASS_NODES", pass_nodes)
        passes = []
        pass_arrays = adg_module._pass_arrays

        def counted(expls, *args):
            passes.append((len(expls), sum(1 + len(e.matched_neighbor_pairs) for e in expls)))
            return pass_arrays(expls, *args)

        monkeypatch.setattr(adg_module, "_pass_arrays", counted)
        res = generate_pair(
            SynthConfig(n_entities=200, density=8, conflict_injection=0.2, rng_seed=2)
        )
        kg1, kg2, store = res.kg1, res.kg2, res.perturbed_store
        seed_set = {s for s, _ in res.seeds}
        free = [i for i in range(200) if i not in seed_set]
        raw = [(s, t) for s, t, _ in greedy_align(store, free, range(200))]
        state = AlignmentState(res.seeds, raw, n_sources=200, n_targets=200)
        analyzer = PairAnalyzer(kg1, kg2, store, state, RepairConfig())
        rng = np.random.default_rng(8)
        keys = [(s, t) for s, t, _ in state.pairs()]
        keys += [tuple(map(int, k)) for k in rng.integers(0, 200, size=(100, 2))]
        lists = analyzer.neighbor_lists(keys)
        # empty neighbor lists, and neighbor pairs that no path reaches: nodes
        # without edges
        keys += keys[:20]
        lists += [np.zeros(0, dtype=np.int64)] * 10
        lists += [np.array([s * 200 + t]) for s, t in keys[10:20]]
        expls = explanations(keys, lists, analyzer.index1, analyzer.index2)
        # explanations over their own indexes start a pass of their own
        gold = dict(res.gold)
        own = [explanation(pair, kg1, kg2, store, gold, h=2) for pair in res.gold[:5]]
        expls = expls[:50] + own + expls[50:]
        assert sum(not e.matched_neighbor_pairs for e in expls) >= 10
        assert sum(e.no_match for e in expls if e.matched_neighbor_pairs) >= 10
        for cfg in (AdgConfig(), AdgConfig(alpha=0.3, weak_weight=0.2, theta=2.0, gamma=2.0)):
            passes.clear()
            got = build_adg(expls, store, cfg)
            assert len(got) == len(expls)
            for adg, expl in zip(got, expls):
                assert adg.explanation is expl
                assert adg.edge_neighbor is expl.neighbor
                assert adg.edge_class.base is None and adg.edge_weight.base is None
                assert adg == per_graph_build_adg(expl, store, cfg)
                assert_equals_reference(adg, kg1, kg2, store, cfg)
            assert sum(graphs for graphs, _ in passes) == len(expls)
            limit = adg_module._PASS_NODES
            assert all(graphs == 1 or nodes <= limit for graphs, nodes in passes)
            if pass_nodes == 1:
                assert len(passes) == len(expls)
            elif pass_nodes == 10**9:
                # one pass before the five own-index explanations, one each, one after
                assert len(passes) == 7
            else:
                assert len(passes) > 7
            # the confidence-only read takes the same passes and arithmetic
            built = len(passes)
            assert confidences(expls, store, cfg) == [adg.confidence for adg in got]
            assert len(passes) == 2 * built

    @pytest.mark.parametrize("density", [3, 8])
    def test_equals_reference(self, density):
        res = generate_pair(
            SynthConfig(n_entities=200, density=density, conflict_injection=0.2, rng_seed=2)
        )
        seed_set = {s for s, _ in res.seeds}
        free = [i for i in range(200) if i not in seed_set]
        raw = [(s, t) for s, t, _ in greedy_align(res.perturbed_store, free, range(200))]
        state = AlignmentState(res.seeds, raw, n_sources=200, n_targets=200)
        analyzer = PairAnalyzer(res.kg1, res.kg2, res.perturbed_store, state, RepairConfig())
        seen = set()
        for graph in analyzer.graphs([(s, t) for s, t, _ in state.pairs()]):
            expl = graph.explanation
            for cfg in (AdgConfig(), AdgConfig(alpha=0.3, weak_weight=0.2, theta=2.0, gamma=2.0)):
                [adg] = build_adg([expl], res.perturbed_store, cfg)
                edges = assert_equals_reference(adg, res.kg1, res.kg2, res.perturbed_store, cfg)
                seen.update(cls for _, cls, _ in edges)
        assert seen == set(EdgeClass)

    def test_neighbor_without_paths_keeps_its_position(self):
        # test_explain imports this module
        from test_explain import endpoint_runs

        # an injected neighbor pair whose source has no path from the center
        # gets a node but no block, so every later block sits one place
        # before its neighbor position; each edge must still take the node
        # its path endpoints name
        res = generate_pair(SynthConfig(n_entities=200, density=3, rng_seed=2))
        kg1, kg2, store = res.kg1, res.kg2, res.perturbed_store
        gold = dict(res.gold)
        checked = 0
        for e1, e2 in res.gold[:40]:
            expl = explanation((e1, e2), kg1, kg2, store, gold, h=2)
            if expl.no_match:
                continue
            hood = endpoint_runs(expl.indexes[0]).get(e1, {})
            far = next(x for x in range(kg1.n_entities) if x != e1 and x not in hood)
            injected = np.append(far * kg2.n_entities + gold[far], expl.neighbor_keys)
            [shifted] = explanations([(e1, e2)], [injected], *expl.indexes)
            [adg] = build_adg([shifted], store)
            assert_equals_reference(adg, kg1, kg2, store)
            assert adg.edge_neighbor is shifted.neighbor
            assert adg.edge_neighbor.tolist() == (expl.neighbor + 1).tolist()
            checked += 1
        assert checked >= 10
