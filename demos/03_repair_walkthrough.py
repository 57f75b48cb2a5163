#!/usr/bin/env python3
"""Break a synthetic alignment with injected conflicts, then repair it."""

from exea.embedding import greedy_align
from exea.evaluate import accuracy
from exea.repair import RepairConfig, repair
from exea.synth import SynthConfig, generate_pair

cfg = SynthConfig(n_entities=150, conflict_injection=0.2, rng_seed=5)
data = generate_pair(cfg)
kg1, kg2, store = data.kg1, data.kg2, data.perturbed_store
print(
    f"fixture: {kg1.n_entities} entities/side, {len(data.seeds)} seeds, "
    f"{len(data.conflicts)} injected conflicts"
)

seed_sources = {s for s, _ in data.seeds}
sources = [s for s in range(kg1.n_entities) if s not in seed_sources]
raw = greedy_align(store, sources, range(kg2.n_entities))
raw_pairs = [(s, t) for s, t, _ in raw]

acc_raw = accuracy(list(data.seeds) + raw_pairs, data.gold)
dupes = len(raw_pairs) - len({t for _, t in raw_pairs})
print(f"\ngreedy inference: accuracy {acc_raw:.3f}, {dupes} targets claimed twice or more")

result = repair(kg1, kg2, store, raw_pairs, data.seeds, RepairConfig())
rep = result.report

print("\nrepair stages:")
print(f"  relation alignment: {len(rep.relation_alignment)} relation pairs")
print(f"  mined exclusion rules: {len(rep.rules)}")
print(f"  derived not-same-as facts: {len(rep.derived_not_same_as)}")
print(f"  neighbor pairs pruned by rules: {len(rep.pruned_neighbor_pairs)}")
print(f"  sources flagged as suspect: {len(rep.flagged_sources)}")
o2m, low, fill = rep.one_to_many, rep.low_confidence, rep.final_fill
print(
    f"  one-to-many pass: {o2m['initial_unaligned']} contested sources, "
    f"{o2m['evictions']} evictions over {o2m['iterations']} iterations"
)
print(
    f"  low-confidence pass: {low['stripped']} pairs stripped, "
    f"{low['swaps']} swaps over {low['iterations']} iterations"
)
print(f"  final fill: {fill['filled']} leftovers matched by raw similarity")

acc_rep = accuracy(list(data.seeds) + list(result.pairs), data.gold)


def mean_conf(rows):
    return sum(r["confidence"] for r in rows) / len(rows)


print(f"\nmean confidence {mean_conf(rep.confidence_before):.3f} -> {mean_conf(rep.confidence_after):.3f}")
print(f"accuracy {acc_raw:.3f} -> {acc_rep:.3f}")

targets = [t for _, t in result.pairs]
print(f"repaired alignment is injective: {len(targets) == len(set(targets))}")
