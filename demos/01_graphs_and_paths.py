#!/usr/bin/env python3
"""Build a tiny knowledge graph by hand and poke at its structure."""

from exea.explain import neighborhood_entities
from exea.kg import Kg, Side, enumerate_paths, functionality, inverse_functionality

entities = [
    "Gavin Newsom",
    "Jerry Brown",
    "Democratic Party",
    "California",
    "Sacramento",
    "Kamala Harris",
]
relations = ["predecessor", "party", "governor_of", "capital", "senator_of"]
triples = [
    (1, 0, 0),  # Jerry Brown --predecessor--> Gavin Newsom
    (0, 1, 2),
    (1, 1, 2),
    (5, 1, 2),
    (0, 2, 3),
    (1, 2, 3),
    (3, 3, 4),
    (5, 4, 3),
]
kg = Kg(Side.SOURCE, entities, relations, triples)
print(f"graph: {kg.n_entities} entities, {kg.n_relations} relations, {len(kg.triple_keys)} triples")


def fmt_path(center, steps):
    # a step is (0 outgoing / 1 incoming, relation, entity reached)
    out = kg.entity_labels[center]
    for rank, r, u in steps:
        arrow = "->" if rank == 0 else "<-"
        out += f" {arrow}[{kg.relation_labels[r]}] {kg.entity_labels[u]}"
    return out


print("\n2-hop neighborhood of Gavin Newsom:")
for idx in sorted(neighborhood_entities(kg, 0, h=2)):
    print(f"  {kg.entity_labels[idx]}")

print("\npaths from Gavin Newsom up to 2 hops:")
for steps in enumerate_paths(kg, 0, h=2):
    print(f"  ({len(steps)} hop) {fmt_path(0, steps)}")

# Functionality is how close the relation is to assigning one object per
# subject; inverse functionality is the same idea seen from the object side.
print("\nrelation        func   ifunc")
for r in range(kg.n_relations):
    f, inv = functionality(kg, r), inverse_functionality(kg, r)
    print(f"{kg.relation_labels[r]:<15} {f:.3f}  {inv:.3f}")

print("\n'party' has three subjects sharing one object, so its inverse")
print("functionality drops; 'predecessor' is one-to-one here, so both are 1.")
