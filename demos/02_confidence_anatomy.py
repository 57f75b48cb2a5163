#!/usr/bin/env python3
"""Dissect one alignment decision: explanation, dependency graph, confidence."""

import math

import numpy as np

from exea.adg import AdgConfig, EdgeClass, aggregate_confidence, build_adg, sigmoid
from exea.embedding import EmbeddingStore
from exea.explain import explanation
from exea.kg import Kg, Side

ent1 = ["加文·纽森", "杰里·布朗", "民主党", "加州", "旧金山"]
rel1 = ["前任", "政党", "出生地"]
t1 = [(0, 0, 1), (0, 1, 2), (1, 1, 2), (0, 2, 4)]

ent2 = ["Gavin Newsom", "Jerry Brown", "Democratic Party", "California", "San Francisco"]
rel2 = ["predecessor", "party", "born_in"]
t2 = [(0, 0, 1), (0, 1, 2), (1, 1, 2), (0, 2, 4)]

kg1 = Kg(Side.SOURCE, ent1, rel1, t1)
kg2 = Kg(Side.TARGET, ent2, rel2, t2)

# Hand-set 2d embeddings: matched concepts point the same way, with the
# target side nudged so neighbor cosines land below 1.
filler = math.sqrt(0.5)
e1 = np.array([[0.6, 0.8], [1.0, 0.0], [0.0, 1.0], [filler, filler], [0.8, 0.6]])
e2 = np.array(
    [
        [0.6, 0.8],
        [0.96, 0.28],
        [math.sqrt(1.0 - 0.937**2), 0.937],
        [filler, filler],
        [0.78, 0.64],
    ]
)
store = EmbeddingStore({Side.SOURCE: e1, Side.TARGET: e2})

pair = (0, 0)
alignments = {0: 0, 1: 1, 2: 2, 4: 4}
expl = explanation(pair, kg1, kg2, store, alignments, h=2)


def fmt_path(kg, center, steps):
    # a step is (0 outgoing / 1 incoming, relation, entity reached)
    out = kg.entity_labels[center]
    for rank, r, u in steps:
        arrow = "->" if rank == 0 else "<-"
        out += f" {arrow}[{kg.relation_labels[r]}] {kg.entity_labels[u]}"
    return out


print(f"explaining the pair ({ent1[0]}, {ent2[0]})")
print(f"\nmatched neighbor pairs (h=2): {len(expl.matched_neighbor_pairs)}")
for n1, n2 in expl.matched_neighbor_pairs:
    print(f"  {ent1[n1]} <-> {ent2[n2]}")

matches = expl.path_matches()
print(f"\nmutual-best path pairs: {len(matches)}")
for path1, path2, sim in matches:
    print(f"  {fmt_path(kg1, pair[0], path1)}")
    print(f"    <-> {fmt_path(kg2, pair[1], path2)}  (cos {sim:.3f})")
print(f"explanation subgraph: {len(expl.triple_keys)} triples")

cfg = AdgConfig()
adg = build_adg(expl, store, cfg)

# node 0 is the central pair; node 1 + n is matched neighbor pair n
print("\ndependency graph nodes (influence = clamped neighbor cosine):")
for (n1, n2), influence in zip(expl.matched_neighbor_pairs, adg.influence[1:]):
    print(f"  {ent1[n1]:<6} <-> {ent2[n2]:<16} influence {influence:.3f}")

# edge i of the graph stands for matched path pair i of the explanation
print("\nedges (class from path lengths, weight from relation functionalities):")
classes = list(EdgeClass)
for n, c, w, (path1, path2, _) in zip(
    adg.edge_neighbor.tolist(), adg.edge_class.tolist(), adg.edge_weight.tolist(), matches
):
    _, n2 = expl.matched_neighbor_pairs[n]
    lens = (len(path1), len(path2))
    print(
        f"  -> {ent2[n2]:<16} {classes[c].value:<8} "
        f"weight {w:.3f}  path lengths {lens}"
    )

print(f"\nclass masses: strong {adg.c_s:.3f}, moderate {adg.c_m:.3f}, weak {adg.c_w:.3f}")
print(f"confidence = gated sigmoid = {adg.confidence:.3f}")
gate = "strong mass stands alone" if adg.c_s >= cfg.theta else "moderate mass admitted"
print(f"(theta={cfg.theta}, gamma={cfg.gamma}: {gate})")

# The gate only lets weaker classes contribute while the stronger ones stay
# under their thresholds.
print("\ngate behavior at assorted mass combinations:")
print("  c_s   c_m   c_w   -> confidence   classes counted")
for c_s, c_m, c_w in [(0.7, 0.5, 0.2), (0.3, 0.4, 0.2), (0.3, 0.1, 0.2)]:
    v = aggregate_confidence(c_s, c_m, c_w, cfg)
    counted = "strong" if c_s >= cfg.theta else (
        "strong+moderate" if c_m >= cfg.gamma else "strong+moderate+weak"
    )
    print(f"  {c_s:.1f}   {c_m:.1f}   {c_w:.1f}   -> {v:.4f}       {counted}")

print(f"\nfloor for repair decisions: sigmoid(theta) = {sigmoid(cfg.theta):.4f}")
