from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

import exea.synth as synth_module
from exea.embedding import greedy_align, load_embeddings, similarity_topk
from exea.errors import DegenerateConfig
from exea.kg import Side, load_kg
from exea.synth import SynthConfig, generate_pair, write_dataset

from conftest import triples_of
from test_kg import make_kg


def undirected_connected(kg) -> bool:
    adj = {}
    for s, _, o in triples_of(kg):
        adj.setdefault(s, set()).add(o)
        adj.setdefault(o, set()).add(s)
    seen = {0}
    queue = deque([0])
    while queue:
        for u in adj.get(queue.popleft(), ()):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == kg.n_entities


def reference_pick_conflicts(rng, cfg, kg1, perm, seed_sources):
    """``synth._pick_conflicts`` scoring every entity as a victim."""
    n_conflicts = int(round(cfg.conflict_injection * cfg.n_entities))
    if n_conflicts == 0:
        return []
    neighbors = {i: set(kg1.steps(i)[:, 2].tolist()) for i in range(cfg.n_entities)}
    conflicted, protected, chosen = set(), set(), []
    for cand in rng.permutation(cfg.n_entities):
        if len(chosen) == n_conflicts:
            break
        s = int(cand)
        if s in seed_sources or s in protected or not neighbors[s]:
            continue
        anchors = sorted(u for u in neighbors[s] if u in seed_sources) or sorted(
            u for u in neighbors[s] if u not in conflicted
        )
        if not anchors:
            continue
        victims = [
            (len(neighbors[s] & neighbors[v]), -v)
            for v in range(cfg.n_entities)
            if v != s and v not in conflicted and neighbors[s] & neighbors[v]
        ]
        if not victims:
            continue
        victim = -max(victims)[1]
        protected.add(anchors[0])
        protected.add(victim)
        conflicted.add(s)
        chosen.append((s, victim, int(perm[victim])))
    if len(chosen) < n_conflicts:
        raise DegenerateConfig(
            f"could only place {len(chosen)} of {n_conflicts} conflicts: "
            "graph too sparse or seed fraction too high"
        )
    return sorted(chosen)


def outcome(cfg):
    """The conflicts ``generate_pair`` places, or the error it raises."""
    try:
        return generate_pair(cfg).conflicts
    except DegenerateConfig as exc:
        return str(exc)


class TestConflictSearchIsExact:
    """Victims are searched among a source's neighbors' neighbors only; the
    conflicts equal those of the all-entities scan."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=strategies.integers(2, 60),
        n_relations=strategies.integers(1, 4),
        density=strategies.floats(0.5, 6.0),
        rename_noise=strategies.sampled_from([0.0, 0.2]),
        seed_fraction=strategies.floats(0.0, 0.8),
        conflict_injection=strategies.floats(0.01, 0.6),
        rng_seed=strategies.integers(0, 2**16),
    )
    def test_equals_all_entities_scan(self, n, n_relations, density, rename_noise,
                                      seed_fraction, conflict_injection, rng_seed):
        cfg = SynthConfig(n_entities=n, n_relations=n_relations, density=density,
                          rename_noise=rename_noise, seed_fraction=seed_fraction,
                          conflict_injection=conflict_injection, rng_seed=rng_seed, dim=4)
        got = outcome(cfg)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(synth_module, "_pick_conflicts", reference_pick_conflicts)
            expected = outcome(cfg)
        assert got == expected

    def test_equals_all_entities_scan_on_a_bench_sized_graph(self):
        cfg = SynthConfig(n_entities=800, density=3.0, conflict_injection=0.2, rng_seed=1)
        got = generate_pair(cfg).conflicts
        with pytest.MonkeyPatch.context() as m:
            m.setattr(synth_module, "_pick_conflicts", reference_pick_conflicts)
            assert generate_pair(cfg).conflicts == got
        assert len(got) == 160


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_entities": 1},
            {"n_relations": 0},
            {"density": -1.0},
            {"dim": 0},
            {"rename_noise": 1.5},
            {"seed_fraction": -0.1},
            {"conflict_injection": 2.0},
            {"embedding_noise": -0.5},
            {"density": 0.0, "conflict_injection": 0.1},
        ],
    )
    def test_rejects_degenerate(self, kwargs):
        with pytest.raises(DegenerateConfig):
            SynthConfig(**kwargs)

    def test_infeasible_conflicts(self):
        # nearly everything seeded: not enough free sources to conflict
        cfg = SynthConfig(n_entities=20, seed_fraction=0.9, conflict_injection=0.5, rng_seed=1)
        with pytest.raises(DegenerateConfig):
            generate_pair(cfg)


class TestStructure:
    @settings(max_examples=200, deadline=None)
    @given(n=strategies.integers(2, 7), data=strategies.data())
    def test_connectivity_check_equals_breadth_first_search(self, n, data):
        # the generator's check walks the step index, which leaves out
        # self-loops; isolated entities and repeated edges included
        end = strategies.integers(0, n - 1)
        triples = data.draw(strategies.lists(strategies.tuples(end, strategies.just(0), end), max_size=8))
        kg = make_kg(n, triples, n_rel=1)
        assert synth_module._connected(kg) == undirected_connected(kg)

    def test_disconnected_target_is_redrawn(self, monkeypatch):
        # at this seed the first three degraded targets are disconnected, so
        # the generator redraws until one is connected, and keeps that one
        connected, seen = synth_module._connected, []
        monkeypatch.setattr(synth_module, "_connected", lambda kg: seen.append(connected(kg)) or seen[-1])
        res = generate_pair(SynthConfig(n_entities=40, density=2, rename_noise=0.3, rng_seed=4))
        assert seen == [True, False, False, False, True]
        assert undirected_connected(res.kg2)

    def test_gold_is_bijection(self):
        res = generate_pair(SynthConfig(n_entities=50, rng_seed=4))
        sources = [s for s, _ in res.gold]
        targets = [t for _, t in res.gold]
        assert sources == list(range(50))
        assert sorted(targets) == list(range(50))

    def test_target_mirrors_source_without_noise(self):
        res = generate_pair(SynthConfig(n_entities=40, rng_seed=2))
        gold = dict(res.gold)
        assert len(res.kg2.triple_keys) == len(res.kg1.triple_keys)
        pairs1 = {}
        for s, r, o in res.kg1.triple_keys:
            pairs1.setdefault(r, set()).add((gold[s], gold[o]))
        pairs2 = {}
        for s, r, o in res.kg2.triple_keys:
            pairs2.setdefault(r, set()).add((s, o))
        # some relation permutation carries kg1 onto kg2 exactly
        rel_map = {
            r: [r2 for r2, p2 in pairs2.items() if p2 == p1] for r, p1 in pairs1.items()
        }
        assert all(len(m) == 1 for m in rel_map.values())
        assert sorted(m[0] for m in rel_map.values()) == sorted(pairs2)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_connected_at_density_two(self, seed):
        res = generate_pair(
            SynthConfig(n_entities=60, density=2.0, rename_noise=0.15, rng_seed=seed)
        )
        assert undirected_connected(res.kg1)
        assert undirected_connected(res.kg2)

    def test_rename_noise_edits_triples(self):
        base = generate_pair(SynthConfig(n_entities=60, rng_seed=9))
        noisy = generate_pair(SynthConfig(n_entities=60, rename_noise=0.2, rng_seed=9))
        assert len(noisy.kg2.triple_keys) <= len(base.kg2.triple_keys)
        assert set(triples_of(noisy.kg2)) != set(triples_of(base.kg2))

    def test_seed_fraction(self):
        res = generate_pair(SynthConfig(n_entities=100, seed_fraction=0.25, rng_seed=5))
        assert len(res.seeds) == 25
        gold = dict(res.gold)
        assert all(gold[s] == t for s, t in res.seeds)


class TestEmbeddings:
    def test_ideal_recovers_gold(self):
        res = generate_pair(
            SynthConfig(n_entities=50, embedding_noise=0.0, rng_seed=3)
        )
        n = 50
        for store in (res.ideal_store, res.perturbed_store):
            pred = {s: t for s, t, _ in greedy_align(store, range(n), range(n))}
            assert pred == dict(res.gold)

    def test_conflicts_share_nearest_target(self):
        cfg = SynthConfig(n_entities=200, conflict_injection=0.2, rng_seed=13)
        res = generate_pair(cfg)
        assert len(res.conflicts) == 40
        gold = dict(res.gold)
        n = cfg.n_entities
        targets, _ = similarity_topk(
            res.perturbed_store, [s for s, _, _ in res.conflicts], range(n), 10
        )
        pred = {s: t for s, t, _ in greedy_align(res.perturbed_store, range(n), range(n))}
        for (s, victim, stolen), nearest in zip(res.conflicts, targets[:, 0].tolist()):
            assert gold[victim] == stolen
            assert nearest == stolen
            assert pred[victim] == stolen or victim in dict(res.seeds)

    def test_conflicted_sources_keep_a_clean_neighbor(self):
        res = generate_pair(SynthConfig(n_entities=200, conflict_injection=0.2, rng_seed=13))
        conflicted = {s for s, _, _ in res.conflicts}
        neighbors = {}
        for s, _, o in res.kg1.triple_keys:
            neighbors.setdefault(s, set()).add(o)
            neighbors.setdefault(o, set()).add(s)
        for s in conflicted:
            assert neighbors[s] - conflicted, f"source {s} has only conflicted neighbors"

    def test_pinned_conflict_fixture(self):
        # measured once on this config and pinned
        cfg = SynthConfig(n_entities=200, conflict_injection=0.2, rng_seed=13)
        res = generate_pair(cfg)
        n = cfg.n_entities
        pred = greedy_align(res.perturbed_store, range(n), range(n))
        gold = dict(res.gold)
        acc = sum(1 for s, t, _ in pred if gold[s] == t) / n
        shared = [t for t, c in Counter(t for _, t, _ in pred).items() if c > 1]
        assert acc == 160 / 200
        assert len(shared) == 34
        assert acc < 1.0 and len(shared) > 0


class TestDeterminism:
    def test_same_config_same_output(self):
        cfg = SynthConfig(n_entities=80, rename_noise=0.1, conflict_injection=0.1, rng_seed=21)
        a = generate_pair(cfg)
        b = generate_pair(cfg)
        assert a.kg1 == b.kg1 and a.kg2 == b.kg2
        assert a.gold == b.gold and a.seeds == b.seeds and a.conflicts == b.conflicts
        for side in (Side.SOURCE, Side.TARGET):
            assert np.array_equal(
                a.perturbed_store.entity_matrix(side), b.perturbed_store.entity_matrix(side)
            )
            assert np.array_equal(
                a.ideal_store.entity_matrix(side), b.ideal_store.entity_matrix(side)
            )

    def test_write_dataset_byte_identical(self, tmp_path):
        cfg = SynthConfig(n_entities=30, rng_seed=8)
        res = generate_pair(cfg)
        paths_a = write_dataset(res, tmp_path / "a")
        paths_b = write_dataset(generate_pair(cfg), tmp_path / "b")
        for name in paths_a:
            assert paths_a[name].read_bytes() == paths_b[name].read_bytes()


class TestDatasetRoundtrip:
    def test_reload_matches_result(self, tmp_path):
        res = generate_pair(SynthConfig(n_entities=30, rename_noise=0.1, rng_seed=8))
        paths = write_dataset(res, tmp_path)
        kg1 = load_kg(paths["triples_1"], paths["ent_ids_1"], paths["rel_ids_1"], Side.SOURCE)
        kg2 = load_kg(paths["triples_2"], paths["ent_ids_2"], paths["rel_ids_2"], Side.TARGET)
        assert kg1 == res.kg1
        assert kg2 == res.kg2
        store = load_embeddings(paths["embeddings.tsv"])
        for side in (Side.SOURCE, Side.TARGET):
            assert np.array_equal(
                store.entity_matrix(side), res.perturbed_store.entity_matrix(side)
            )
        links = [
            tuple(map(int, line.split("\t")))
            for line in paths["ent_links"].read_text().splitlines()
        ]
        assert tuple(links) == res.gold
