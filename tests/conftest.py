"""Shared test fixtures.

``build_governor_case`` constructs a small bilingual alignment scenario with
exactly controlled relation functionalities and neighbor similarities, so the
expected dependency-graph confidence can be computed by hand:

* source side: (加文·纽森, 前任, 杰里·布朗) with ifunc(前任) = 0.759 and
  (加文·纽森, 政党, 民主党) with ifunc(政党) = 0.757, padded by filler triples
  disconnected from those five entities;
* target side: (Jerry Brown, predecessor, Gavin Newsom) with
  func(predecessor) = 0.86 and (Gavin Newsom, party, Democratic Party) with
  ifunc(party) = 0.9;
* neighbor cosines 0.96 (Jerry Brown pair) and 0.937 (Democratic Party pair).

Both central paths are single steps, so both edges are Strong with weights
min(0.759, 0.86) = 0.759 and min(0.757, 0.9) = 0.757, and the expected
confidence is sigmoid(0.96 * 0.759 + 0.937 * 0.757) = 0.8081...
"""

import functools
import math

import numpy as np
import pytest

from exea.embedding import EmbeddingStore
from exea.kg import Kg, Side


def triples_of(kg):
    """``kg``'s triples as a list of (subject, relation, object) int tuples."""
    return list(map(tuple, kg.triple_keys.tolist()))


@functools.cache
def adjacency(kg):
    """``kg``'s adjacency built from its triples alone, a reference apart from
    its step index: (subject -> sorted (relation, object) pairs, object ->
    sorted (relation, subject) pairs), a self-loop in both."""
    out, inc = {}, {}
    for s, r, o in triples_of(kg):
        out.setdefault(s, []).append((r, o))
        inc.setdefault(o, []).append((r, s))
    return (
        {s: tuple(sorted(v)) for s, v in out.items()},
        {o: tuple(sorted(v)) for o, v in inc.items()},
    )


def make_isomorphic_pair(rng, n=20, n_rel=3, extra=40):
    """Connected random graph and a relabeled copy under a permutation.

    Reciprocal edges (s,r,o)/(o,r,s) are skipped: under the path encoding,
    which ignores step direction, they embed identically and would make matching ambiguous.
    Returns (kg1, kg2, perm) with kg2 entity perm[i] mirroring kg1 entity i.
    """
    perm = rng.permutation(n)
    triples = set()
    order = rng.permutation(n)
    for i in range(1, n):
        triples.add((int(order[i - 1]), int(rng.integers(n_rel)), int(order[i])))
    while len(triples) < n - 1 + extra:
        s, o = rng.integers(n, size=2)
        if s == o:
            continue
        t = (int(s), int(rng.integers(n_rel)), int(o))
        if (t[2], t[1], t[0]) in triples:
            continue
        triples.add(t)
    ents = [f"e{i}" for i in range(n)]
    rels = [f"r{i}" for i in range(n_rel)]
    kg1 = Kg(Side.SOURCE, ents, rels, sorted(triples))
    mirrored = sorted((int(perm[s]), r, int(perm[o])) for s, r, o in triples)
    kg2 = Kg(Side.TARGET, ents, rels, mirrored)
    return kg1, kg2, perm


def build_governor_case():
    ent1 = ["加文·纽森", "杰里·布朗", "民主党"]
    rel1 = ["前任", "政党"]
    t1 = [(0, 0, 1), (0, 1, 2)]

    def fresh1():
        ent1.append(f"zh_filler_{len(ent1)}")
        return len(ent1) - 1

    objs = [fresh1() for _ in range(758)]
    for i in range(999):
        t1.append((fresh1(), 0, objs[min(i, 757)]))
    objs = [fresh1() for _ in range(756)]
    for i in range(999):
        t1.append((fresh1(), 1, objs[min(i, 755)]))

    ent2 = ["Gavin Newsom", "Jerry Brown", "Democratic Party"]
    rel2 = ["predecessor", "party"]
    t2 = [(1, 0, 0), (0, 1, 2)]

    def fresh2():
        ent2.append(f"en_filler_{len(ent2)}")
        return len(ent2) - 1

    subs = [fresh2() for _ in range(42)]
    for i in range(49):
        t2.append((subs[min(i, 41)], 0, fresh2()))
    objs = [fresh2() for _ in range(8)]
    for i in range(9):
        t2.append((fresh2(), 1, objs[min(i, 7)]))

    kg1 = Kg(Side.SOURCE, ent1, rel1, t1)
    kg2 = Kg(Side.TARGET, ent2, rel2, t2)

    filler = [math.sqrt(0.5), math.sqrt(0.5)]
    e1 = np.tile(filler, (len(ent1), 1))
    e1[0] = [0.6, 0.8]
    e1[1] = [1.0, 0.0]
    e1[2] = [0.0, 1.0]
    e2 = np.tile(filler, (len(ent2), 1))
    e2[0] = [0.6, 0.8]
    e2[1] = [0.96, 0.28]
    e2[2] = [math.sqrt(1.0 - 0.937**2), 0.937]
    store = EmbeddingStore({Side.SOURCE: e1, Side.TARGET: e2})

    expected_c_s = 0.96 * 0.759 + 0.937 * 0.757
    return {
        "kg1": kg1,
        "kg2": kg2,
        "store": store,
        "seeds": [(1, 1), (2, 2)],
        "pred": [(0, 0)],
        "alignments": {0: 0, 1: 1, 2: 2},
        "expected_c_s": expected_c_s,
        "expected_confidence": 1.0 / (1.0 + math.exp(-expected_c_s)),
    }


@pytest.fixture(scope="session")
def governor_case():
    return build_governor_case()
