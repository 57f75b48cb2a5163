"""Triple store construction, indexing, statistics, neighborhoods, paths."""

import numpy as np
import pytest

from conftest import adjacency
from exea.errors import ConfigError, EmptyKg, MalformedLine, UnknownId, UnknownRelation
from exea.explain import candidate_triples
from exea.kg import (
    Kg,
    Side,
    enumerate_paths,
    functionality,
    inverse_functionality,
    load_kg,
    neighborhood_entities,
    neighborhood_triples,
)
from exea.synth import SynthConfig, generate_pair


def make_kg(n_ent, triples, n_rel=None, side=Side.SOURCE):
    if n_rel is None:
        n_rel = 1 + max((r for _, r, _ in triples), default=-1)
    ents = [f"e{i}" for i in range(n_ent)]
    rels = [f"r{i}" for i in range(n_rel)]
    return Kg(side, ents, rels, triples)


def random_kg(rng, n_ent, n_rel, n_triples, side=Side.SOURCE):
    triples = set()
    for _ in range(n_triples):
        s = int(rng.integers(0, n_ent))
        o = int(rng.integers(0, n_ent))
        if s == o:
            continue
        triples.add((s, int(rng.integers(0, n_rel)), o))
    return make_kg(n_ent, sorted(triples), n_rel=n_rel, side=side)


def loop_kg(rng, n_ent, n_rel, n_triples, side=Side.SOURCE):
    """A random graph that keeps self-loops and adds the reciprocal (o, r, s)
    of some of its triples."""
    triples = {tuple(int(x) for x in rng.integers(0, (n_ent, n_rel, n_ent))) for _ in range(n_triples)}
    triples |= {(s, r, s) for s, r, _ in list(triples)[:2]}
    triples |= {(o, r, s) for s, r, o in list(triples)[:5]}
    return make_kg(n_ent, sorted(triples), n_rel=n_rel, side=side)


def steps_of(kg, v):
    return list(map(tuple, kg.steps(v).tolist()))


class TestConstructionAndIndexes:
    def test_small_graph_indexes(self):
        kg = make_kg(3, [(0, 0, 1), (1, 0, 2)])
        assert steps_of(kg, 0) == [(0, 0, 1)]
        assert steps_of(kg, 1) == [(0, 0, 2), (1, 0, 0)]
        assert steps_of(kg, 2) == [(1, 0, 1)]
        assert kg.func.tolist() == kg.ifunc.tolist() == [1.0]

    def test_duplicate_triples_collapse(self):
        kg = make_kg(2, [(0, 0, 1), (0, 0, 1)])
        assert len(kg.triple_keys) == 1
        assert steps_of(kg, 0) == [(0, 0, 1)] and steps_of(kg, 1) == [(1, 0, 0)]

    def test_indexes_agree_with_brute_force(self):
        # every triple that is no self-loop is one step from each end, and
        # the step index holds nothing else
        rng = np.random.default_rng(11)
        for _ in range(20):
            kg = loop_kg(rng, 12, 3, 30)
            listed = [
                (v, r, u) if incoming == 0 else (u, r, v)
                for v in range(kg.n_entities)
                for incoming, r, u in steps_of(kg, v)
            ]
            edges = [t for t in kg.triple_keys if t[0] != t[2]]
            assert sorted(listed) == sorted(edges + edges)
            assert len(edges) < len(kg.triple_keys)
            assert list(kg.triple_keys) == sorted(set(kg.triple_keys))

    def test_step_index_lists_each_entitys_steps_in_walk_order(self):
        # self-loops and reciprocal triples included; an entity's steps are
        # the incident triples minus self-loops, sorted as enumerate_paths
        # walks them
        rng = np.random.default_rng(12)
        for _ in range(20):
            kg = loop_kg(rng, 10, 3, 25)
            out_index, in_index = adjacency(kg)
            assert kg.step_keys.dtype == kg.step_start.dtype == np.int64
            assert kg.step_start[0] == 0 and kg.step_start[-1] == len(kg.step_keys)
            for v in range(kg.n_entities):
                expected = sorted(
                    [(0, r, o) for r, o in out_index.get(v, ()) if o != v]
                    + [(1, r, s) for r, s in in_index.get(v, ()) if s != v]
                )
                got = kg.step_keys[kg.step_start[v]:kg.step_start[v + 1]]
                assert list(map(tuple, got.tolist())) == expected == steps_of(kg, v)

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(UnknownId):
            make_kg(2, [(0, 0, 5)])
        with pytest.raises(UnknownId):
            make_kg(2, [(0, 7, 1)], n_rel=1)

    def test_labels_and_entity_range_check(self):
        kg = make_kg(2, [(0, 0, 1)])
        assert (kg.side, kg.entity_labels[1], kg.relation_labels[0]) == (Side.SOURCE, "e1", "r0")
        assert kg.triple_keys[0] == (0, 0, 1)
        assert kg.check_entity(1) == 1
        for bad in (9, -1):
            with pytest.raises(UnknownId):
                kg.check_entity(bad)
            with pytest.raises(UnknownId):
                neighborhood_entities(kg, bad, 1)
            with pytest.raises(UnknownId):
                enumerate_paths(kg, bad, 1)


class TestFunctionality:
    def test_repeated_object(self):
        # two subjects share one object: every subject distinct, objects not
        kg = make_kg(3, [(0, 0, 2), (1, 0, 2)])
        assert functionality(kg, 0) == 1.0
        assert inverse_functionality(kg, 0) == 0.5

    def test_mixed_relation(self):
        kg = make_kg(5, [(0, 0, 1), (0, 0, 2), (3, 0, 2), (4, 1, 0)])
        assert functionality(kg, 0) == pytest.approx(2 / 3)
        assert inverse_functionality(kg, 0) == pytest.approx(2 / 3)
        assert functionality(kg, 1) == 1.0

    def test_tables_scale_to_integer_counts(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            kg = random_kg(rng, 10, 4, 40)
            counts = {}
            for _, r, _ in kg.triple_keys:
                counts[r] = counts.get(r, 0) + 1
            for r, count in counts.items():
                f = functionality(kg, r) * count
                inv = inverse_functionality(kg, r) * count
                assert abs(f - round(f)) < 1e-9
                assert abs(inv - round(inv)) < 1e-9
                assert 0 < functionality(kg, r) <= 1.0
                assert 0 < inverse_functionality(kg, r) <= 1.0

    def test_relation_without_triples(self):
        kg = make_kg(2, [(0, 0, 1)], n_rel=2)
        with pytest.raises(UnknownRelation):
            functionality(kg, 1)
        with pytest.raises(UnknownRelation):
            inverse_functionality(kg, 1)

    @pytest.mark.parametrize("r", [3, -1], ids=["n_relations", "minus-one"])
    def test_relation_out_of_range(self, r):
        # -1 would index the last relation of the arrays, which has triples
        kg = make_kg(2, [(0, 0, 1), (1, 2, 0)], n_rel=3)
        with pytest.raises(UnknownRelation):
            functionality(kg, r)
        with pytest.raises(UnknownRelation):
            inverse_functionality(kg, r)

    def test_arrays_equal_set_counts(self):
        # distinct subjects (objects) over triples per relation, from Python
        # sets; NaN exactly where a relation has no triples
        rng = np.random.default_rng(8)
        for _ in range(20):
            kg = loop_kg(rng, 9, 6, 15)
            assert kg.func.dtype == kg.ifunc.dtype == np.float64
            assert kg.func.shape == kg.ifunc.shape == (6,)
            for r in range(6):
                trs = [t for t in kg.triple_keys if t[1] == r]
                if not trs:
                    assert np.isnan(kg.func[r]) and np.isnan(kg.ifunc[r])
                    continue
                assert kg.func[r] == len({s for s, _, _ in trs}) / len(trs) == functionality(kg, r)
                assert kg.ifunc[r] == len({o for _, _, o in trs}) / len(trs) == inverse_functionality(kg, r)


def oracle_distances(kg, start):
    """Undirected breadth-first distances from ``start``, read off the
    triples alone."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            nbrs = {o for s, _, o in kg.triple_keys if s == v}
            nbrs |= {s for s, _, o in kg.triple_keys if o == v}
            for u in nbrs:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def oracle_neighborhood(kg, e, h):
    dist = oracle_distances(kg, e)
    keys = set()
    for s, r, o in kg.triple_keys:
        if min(dist.get(s, 10**9), dist.get(o, 10**9)) <= h - 1:
            keys.add((s, r, o))
    return keys


def oracle_paths(kg, e, h):
    """Exhaustive simple-path enumeration by repeated extension."""
    complete = []
    partial = [((e,), ())]
    for _ in range(h):
        grown = []
        for visited, steps in partial:
            v = visited[-1]
            for s, r, o in kg.triple_keys:
                if s == v and o not in visited:
                    grown.append((visited + (o,), steps + ((0, r, o),)))
                elif o == v and s not in visited:
                    grown.append((visited + (s,), steps + ((1, r, s),)))
        complete.extend(steps for _, steps in grown)
        partial = grown
    return sorted(complete)


class TestNeighborhoods:
    def test_chain_two_hops(self):
        # a-b-c-d chain: from a with h=2 only the first two edges are reached
        kg = make_kg(4, [(0, 0, 1), (1, 0, 2), (2, 0, 3)])
        assert neighborhood_triples(kg, 0, 2) == [(0, 0, 1), (1, 0, 2)]
        assert neighborhood_triples(kg, 0, 1) == [(0, 0, 1)]

    def test_direction_ignored_for_reachability(self):
        kg = make_kg(3, [(1, 0, 0), (2, 0, 1)])
        assert set(neighborhood_triples(kg, 0, 2)) == {(1, 0, 0), (2, 0, 1)}

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            kg = random_kg(rng, 14, 3, 35)
            e = int(rng.integers(0, 14))
            for h in (1, 2):
                got = neighborhood_triples(kg, e, h)
                assert set(got) == oracle_neighborhood(kg, e, h)
                assert got == sorted(got)

    def test_one_hop_subset_of_two_hop(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            kg = random_kg(rng, 10, 2, 25)
            e = int(rng.integers(0, 10))
            one = set(neighborhood_triples(kg, e, 1))
            two = set(neighborhood_triples(kg, e, 2))
            assert one <= two

    def test_neighbor_entities_exclude_center(self):
        kg = make_kg(4, [(0, 0, 1), (1, 0, 2), (2, 0, 3)])
        assert neighborhood_entities(kg, 0, 1) == [1]
        assert neighborhood_entities(kg, 0, 2) == [1, 2]

    @pytest.mark.parametrize("density", [3, 8])
    def test_neighbor_entities_never_hold_center_on_synth_fixtures(self, density):
        # the matched-neighbor rule relies on this to leave out the central pair
        res = generate_pair(SynthConfig(n_entities=200, density=density, rng_seed=4))
        for kg in (res.kg1, res.kg2, make_kg(3, [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 2)])):
            for e in range(kg.n_entities):
                for h in (1, 2):
                    assert e not in neighborhood_entities(kg, e, h)

    def test_hop_bound_validated(self):
        kg = make_kg(2, [(0, 0, 1)])
        for bad in (0, 3, -1):
            with pytest.raises(ConfigError, match="h must be"):
                neighborhood_triples(kg, 0, bad)
            with pytest.raises(ConfigError, match="h must be"):
                enumerate_paths(kg, 0, bad)


class TestSelfLoops:
    """Graphs with self-loops and reciprocal triples: a self-loop is in no
    step row, so the walks and neighborhoods must equal the oracles, which
    read the triples alone."""

    def test_walks_equal_oracles(self):
        rng = np.random.default_rng(43)
        loops = 0
        for _ in range(30):
            kg1 = loop_kg(rng, 9, 3, 20)
            kg2 = loop_kg(rng, 9, 3, 20, side=Side.TARGET)
            e1, e2 = (int(x) for x in rng.integers(0, 9, size=2))
            for h in (1, 2):
                hood1, hood2 = oracle_neighborhood(kg1, e1, h), oracle_neighborhood(kg2, e2, h)
                assert neighborhood_triples(kg1, e1, h) == sorted(hood1)
                assert candidate_triples(kg1, kg2, (e1, e2), h) == (
                    {(0, *t) for t in hood1} | {(1, *t) for t in hood2}
                )
                dist = oracle_distances(kg1, e1)
                assert neighborhood_entities(kg1, e1, h) == sorted(
                    v for v, d in dist.items() if 0 < d <= h
                )
                assert enumerate_paths(kg1, e1, h) == oracle_paths(kg1, e1, h)
                loops += sum(s == o for s, _, o in hood1 | hood2)
        assert loops > 0

    def test_center_self_loop_is_a_candidate(self):
        kg = make_kg(3, [(0, 0, 0), (0, 1, 1), (2, 0, 2)])
        assert neighborhood_triples(kg, 0, 1) == [(0, 0, 0), (0, 1, 1)]
        # at h=2, the self-loop of entity 1 hop away counts too; 2 is unreached
        kg = make_kg(3, [(0, 1, 1), (1, 0, 1), (2, 0, 2)])
        assert neighborhood_triples(kg, 0, 2) == [(0, 1, 1), (1, 0, 1)]
        assert enumerate_paths(kg, 0, 2) == [((0, 1, 1),)]


class TestPaths:
    def test_single_triple_both_perspectives(self):
        kg = make_kg(2, [(0, 0, 1)])
        # a step is (0 outgoing / 1 incoming, relation, entity reached)
        assert enumerate_paths(kg, 0, 1) == [((0, 0, 1),)]
        assert enumerate_paths(kg, 1, 1) == [((1, 0, 0),)]

    def test_no_entity_revisited(self):
        kg = make_kg(2, [(0, 0, 1), (1, 0, 0)])
        paths = enumerate_paths(kg, 0, 2)
        for steps in paths:
            seen = {0} | {u for _, _, u in steps}
            assert len(seen) == 1 + len(steps)

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            kg = random_kg(rng, 10, 3, 22)
            e = int(rng.integers(0, 10))
            for h in (1, 2):
                got = enumerate_paths(kg, e, h)
                assert got == oracle_paths(kg, e, h)
                assert got == sorted(got)

    def test_steps_are_backed_by_triples(self):
        rng = np.random.default_rng(41)
        kg = random_kg(rng, 12, 3, 30)
        triples = set(kg.triple_keys)
        for e in range(12):
            for steps in enumerate_paths(kg, e, 2):
                anchor = e
                for rank, r, u in steps:
                    if rank == 0:
                        assert (anchor, r, u) in triples
                    else:
                        assert (u, r, anchor) in triples
                    anchor = u


class TestLoading:
    def write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def make_files(self, tmp_path):
        t = self.write(tmp_path, "triples", "0\t0\t1\n1\t0\t2\n")
        e = self.write(tmp_path, "ents", "0\ta\n1\tb\n2\tc\n")
        r = self.write(tmp_path, "rels", "0\tr\n")
        return t, e, r

    def test_round_trip(self, tmp_path):
        t, e, r = self.make_files(tmp_path)
        kg = load_kg(t, e, r, Side.SOURCE)
        assert kg.entity_labels == ("a", "b", "c")
        assert kg.triple_keys == ((0, 0, 1), (1, 0, 2))
        assert steps_of(kg, 0) == [(0, 0, 1)]
        assert steps_of(kg, 2) == [(1, 0, 1)]

    def test_idempotent(self, tmp_path):
        t, e, r = self.make_files(tmp_path)
        assert load_kg(t, e, r, Side.SOURCE) == load_kg(t, e, r, Side.SOURCE)

    def test_malformed_triple_line_reports_position(self, tmp_path):
        _, e, r = self.make_files(tmp_path)
        t = self.write(tmp_path, "triples_bad", "0\t0\t1\n0\t1\n")
        with pytest.raises(MalformedLine) as err:
            load_kg(t, e, r, Side.SOURCE)
        assert err.value.line_no == 2

    def test_unknown_id_in_triples(self, tmp_path):
        # an id outside the label files is a malformed line of the triples
        # file; Kg() itself still raises UnknownId for programmatic input
        _, e, r = self.make_files(tmp_path)
        for line_no, text in ((1, "0\t0\t9\n"), (2, "0\t0\t1\n-1\t0\t1\n"), (1, "0\t1\t1\n")):
            t = self.write(tmp_path, "triples_bad", text)
            with pytest.raises(MalformedLine) as err:
                load_kg(t, e, r, Side.SOURCE)
            assert (err.value.path, err.value.line_no) == (str(t), line_no)

    def test_sparse_label_ids_rejected(self, tmp_path):
        t, _, r = self.make_files(tmp_path)
        e = self.write(tmp_path, "ents2", "0\ta\n2\tc\n")
        with pytest.raises(UnknownId):
            load_kg(t, e, r, Side.SOURCE)

    def test_empty_triple_file(self, tmp_path):
        t = self.write(tmp_path, "triples0", "")
        _, e, r = self.make_files(tmp_path)
        with pytest.raises(EmptyKg):
            load_kg(t, e, r, Side.SOURCE)
