"""Conflict detection and repair for a predicted alignment.

Three conflict families are handled in sequence. Relation conflicts: mutually
aligned relations plus mined not-same-as rules are chained over cross-graph
triples; a derived not-same-as fact against a matched neighbor pair bans that
pair from future dependency graphs, one against a central pair flags it for
re-examination. One-to-many conflicts: targets claimed by several sources keep
the claimant with the highest dependency-graph confidence, and displaced
sources walk their top-k candidates, evicting weaker incumbents. Low-confidence
conflicts: pairs under the confidence floor are stripped and re-matched against
targets that share a matched neighbor, scored by confidence plus weighted
cosine. A final greedy pass fills any leftovers from the unclaimed targets.

Seed pairs are immutable throughout; every loop carries the source-count guard
that forces termination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .adg import Adg, AdgConfig, EdgeClass, build_adg, prune_neighbors, sigmoid
from .embedding import (
    EmbeddingStore,
    SimilarityTopK,
    entity_cosine,
    similarity_matrix,
    similarity_topk,
)
from .errors import ConfigError, InvariantViolation, NoRelationVectors
from .explain import Explanation, PathIndex, explanation, matched_neighbors
from .kg import EntityRef, Kg, RelationRef, Side, Triple, neighborhood_entities

RELATION_VECTOR_SOURCES = ("derived", "native", "name")

SEED = "seed"
PREDICTED = "predicted"
REPAIRED = "repaired"


@dataclass(frozen=True)
class RepairConfig:
    h: int = 2
    k: int = 10
    adg: AdgConfig = field(default_factory=AdgConfig)
    beta: float | None = None
    score_lambda: float = 1.0
    triple_budget: int = 200
    candidate_cap: int = 50
    relation_vector_source: str = "derived"
    enable_relation_repair: bool = True
    enable_one_to_many: bool = True
    enable_low_confidence: bool = True
    deep_chaining: bool = False
    signed_relation_paths: bool = False

    def __post_init__(self):
        if self.h not in (1, 2):
            raise ConfigError(f"h must be 1 or 2, got {self.h}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.beta is not None and not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if self.score_lambda < 0:
            raise ConfigError(f"score_lambda must be >= 0, got {self.score_lambda}")
        if self.triple_budget < 0:
            raise ConfigError(f"triple_budget must be >= 0, got {self.triple_budget}")
        if self.candidate_cap < 1:
            raise ConfigError(f"candidate_cap must be >= 1, got {self.candidate_cap}")
        if self.relation_vector_source not in RELATION_VECTOR_SOURCES:
            raise ConfigError(
                f"relation_vector_source must be one of {RELATION_VECTOR_SOURCES}, "
                f"got {self.relation_vector_source!r}"
            )

    def effective_beta(self) -> float:
        return sigmoid(self.adg.theta) if self.beta is None else self.beta


@dataclass(frozen=True)
class RelationAlignment:
    """Mutual-nearest-neighbor relation pairs between the two sides."""

    pairs: tuple[tuple[RelationRef, RelationRef, float], ...]

    def target_of(self, source_index: int) -> int | None:
        for a, b, _ in self.pairs:
            if a.index == source_index:
                return b.index
        return None

    def source_of(self, target_index: int) -> int | None:
        for a, b, _ in self.pairs:
            if b.index == target_index:
                return a.index
        return None

    def aligns(self, r1: RelationRef, r2: RelationRef) -> bool:
        for a, b, _ in self.pairs:
            if (a, b) in ((r1, r2), (r2, r1)):
                return True
        return False


@dataclass(frozen=True)
class NotSameAsRule:
    """Two relations of one graph that never share a (subject, object) pair:
    a subject carrying both relations has provably distinct objects."""

    side: Side
    r1: RelationRef
    r2: RelationRef


class AlignmentState:
    """Seed pairs plus the evolving predicted mapping.

    The forward map is always a function source -> target; the reverse map may
    hold several sources per target until one-to-many resolution has run.
    Seeds can never be realigned or removed. Every mutation is appended to
    ``mutations`` so confidence caches can invalidate affected neighborhoods.
    """

    def __init__(
        self,
        seeds: Iterable[tuple[int, int]],
        predictions: Iterable[tuple[int, int, float]] = (),
        n_sources: int | None = None,
        n_targets: int | None = None,
    ):
        def check_range(s: int, t: int, what: str) -> None:
            if s < 0 or (n_sources is not None and s >= n_sources):
                raise ConfigError(f"{what} source {s} is out of range")
            if t < 0 or (n_targets is not None and t >= n_targets):
                raise ConfigError(f"{what} target {t} is out of range")

        self._seed_forward: dict[int, int] = {}
        self._seed_reverse: dict[int, int] = {}
        for s, t in seeds:
            s, t = int(s), int(t)
            check_range(s, t, "seed")
            if self._seed_forward.get(s, t) != t or self._seed_reverse.get(t, s) != s:
                raise ConfigError(f"seed pairs are not one-to-one at ({s}, {t})")
            self._seed_forward[s] = t
            self._seed_reverse[t] = s
        self._forward: dict[int, tuple[int, str, float | None]] = {
            s: (t, SEED, None) for s, t in self._seed_forward.items()
        }
        self._reverse: dict[int, set[int]] = {
            t: {s} for s, t in self._seed_forward.items()
        }
        self.mutations: list[tuple[int, int]] = []
        sources = set(self._seed_forward)
        targets = set(self._seed_reverse)
        for s, t, sim in predictions:
            s, t = int(s), int(t)
            check_range(s, t, "predicted")
            sources.add(s)
            targets.add(t)
            if s in self._seed_forward:
                continue
            if s in self._forward:
                raise ConfigError(f"source {s} appears twice in the predictions")
            self._forward[s] = (t, PREDICTED, float(sim))
            self._reverse.setdefault(t, set()).add(s)
        if n_sources is not None:
            sources.update(range(n_sources))
        if n_targets is not None:
            targets.update(range(n_targets))
        self.source_universe = frozenset(sources)
        self.target_universe = frozenset(targets)

    @property
    def version(self) -> int:
        return len(self.mutations)

    def is_seed_source(self, s: int) -> bool:
        return s in self._seed_forward

    def is_seed_target(self, t: int) -> bool:
        return t in self._seed_reverse

    def is_seed_pair(self, s: int, t: int) -> bool:
        return self._seed_forward.get(s) == t

    def target_of(self, s: int) -> int | None:
        entry = self._forward.get(s)
        return entry[0] if entry else None

    def provenance_of(self, s: int) -> str | None:
        entry = self._forward.get(s)
        return entry[1] if entry else None

    def similarity_of(self, s: int) -> float | None:
        entry = self._forward.get(s)
        return entry[2] if entry else None

    def sources_of(self, t: int) -> tuple[int, ...]:
        return tuple(sorted(self._reverse.get(t, ())))

    def forward_map(self) -> dict[int, int]:
        return {s: e[0] for s, e in self._forward.items()}

    def pairs(self) -> list[tuple[int, int, str, float | None]]:
        return [(s, e[0], e[1], e[2]) for s, e in sorted(self._forward.items())]

    @property
    def unaligned_sources(self) -> set[int]:
        return set(self.source_universe) - set(self._forward)

    @property
    def unaligned_targets(self) -> set[int]:
        return {t for t in self.target_universe if not self._reverse.get(t)}

    def align(self, s: int, t: int, provenance: str, sim: float | None = None) -> None:
        if s in self._seed_forward:
            raise InvariantViolation("seed-immutability", f"cannot realign seed source {s}")
        if s in self._forward:
            raise InvariantViolation("single-claim", f"source {s} is already aligned")
        self._forward[s] = (t, provenance, sim)
        self._reverse.setdefault(t, set()).add(s)
        self.mutations.append((s, t))

    def unalign(self, s: int) -> int:
        if s in self._seed_forward:
            raise InvariantViolation("seed-immutability", f"cannot remove seed source {s}")
        if s not in self._forward:
            raise InvariantViolation("single-claim", f"source {s} is not aligned")
        t = self._forward.pop(s)[0]
        self._reverse[t].discard(s)
        self.mutations.append((s, t))
        return t

    def multi_claimed_targets(self) -> list[int]:
        return sorted(t for t, ss in self._reverse.items() if len(ss) > 1)

    def check_injective(self) -> None:
        for t, ss in self._reverse.items():
            if len(ss) > 1:
                raise InvariantViolation(
                    "injectivity", f"target {t} is claimed by sources {sorted(ss)}"
                )


class PairAnalyzer:
    """Explanation, dependency-graph, and confidence services for one repair
    run, with caching keyed to the alignment state.

    A cached entry for (s, t) stays valid until some mutation touches the
    h-hop neighborhood of s or of t; undirected BFS is symmetric, so the
    affected pairs are exactly the neighborhoods of the mutated entities.
    Banned pairs are filtered out of every matched-neighbor list.
    """

    def __init__(
        self,
        kg1: Kg,
        kg2: Kg,
        store: EmbeddingStore,
        state: AlignmentState,
        cfg: RepairConfig,
    ):
        self.kg1 = kg1
        self.kg2 = kg2
        self.store = store
        self.state = state
        self.cfg = cfg
        self.index1 = PathIndex(kg1, store, cfg.h, cfg.signed_relation_paths)
        self.index2 = PathIndex(kg2, store, cfg.h, cfg.signed_relation_paths)
        self.banned_pairs: set[tuple[int, int]] = set()
        self._hood1: dict[int, frozenset[int]] = {}
        self._hood2: dict[int, frozenset[int]] = {}
        # (s, t) -> its explanation and the dependency graph built from it
        self._cache: dict[tuple[int, int], tuple[Explanation, Adg]] = {}
        self._replayed = 0

    def hood1(self, e: int) -> frozenset[int]:
        got = self._hood1.get(e)
        if got is None:
            got = frozenset(neighborhood_entities(self.kg1, e, self.cfg.h))
            self._hood1[e] = got
        return got

    def hood2(self, e: int) -> frozenset[int]:
        got = self._hood2.get(e)
        if got is None:
            got = frozenset(neighborhood_entities(self.kg2, e, self.cfg.h))
            self._hood2[e] = got
        return got

    def _replay_mutations(self) -> None:
        log = self.state.mutations
        while self._replayed < len(log):
            src, tgt = log[self._replayed]
            self._replayed += 1
            touched_s = self.hood1(src) | {src}
            touched_t = self.hood2(tgt) | {tgt}
            stale = [
                key
                for key in self._cache
                if key[0] in touched_s or key[1] in touched_t
            ]
            for key in stale:
                del self._cache[key]

    def ban(self, pairs: Iterable[tuple[int, int]]) -> None:
        fresh = set(pairs) - self.banned_pairs
        if not fresh:
            return
        self.banned_pairs |= fresh
        stale = [
            (s, t)
            for s, t in self._cache
            if any(bs in self.hood1(s) or bt in self.hood2(t) for bs, bt in fresh)
        ]
        for key in stale:
            del self._cache[key]

    def neighbor_pairs(self, s: int, t: int) -> list[tuple[EntityRef, EntityRef]]:
        pairs = matched_neighbors((s, t), self.kg1, self.kg2, self.state.forward_map(), self.cfg.h)
        if self.banned_pairs:
            pairs = [p for p in pairs if (p[0].index, p[1].index) not in self.banned_pairs]
        return pairs

    def _entry(self, s: int, t: int) -> tuple[Explanation, Adg]:
        self._replay_mutations()
        key = (int(s), int(t))
        got = self._cache.get(key)
        if got is None:
            expl = explanation(
                key,
                self.kg1,
                self.kg2,
                self.store,
                None,
                self.cfg.h,
                signed=self.cfg.signed_relation_paths,
                index1=self.index1,
                index2=self.index2,
                neighbor_pairs=self.neighbor_pairs(*key),
            )
            got = (expl, build_adg(expl, self.kg1, self.kg2, self.store, self.cfg.adg))
            self._cache[key] = got
        return got

    def explanation(self, s: int, t: int) -> Explanation:
        return self._entry(s, t)[0]

    def adg(self, s: int, t: int) -> Adg:
        return self._entry(s, t)[1]

    def confidence(self, s: int, t: int) -> float:
        return self.adg(s, t).confidence

    def similarity(self, s: int, t: int) -> float:
        return entity_cosine(self.store, Side.SOURCE, s, Side.TARGET, t)


def _derived_relation_matrix(store: EmbeddingStore, kg: Kg) -> np.ndarray:
    """Translation-derived relation vectors, ignoring any model-native ones.
    Relations without triples get zero rows."""
    ents = store.entity_matrix(kg.side).astype(np.float64)
    mat = np.zeros((kg.n_relations, store.dim), dtype=np.float64)
    for r in range(kg.n_relations):
        trs = kg.relation_triples(r)
        if trs:
            s_idx = np.fromiter((t[0] for t in trs), dtype=np.int64)
            o_idx = np.fromiter((t[2] for t in trs), dtype=np.int64)
            mat[r] = (ents[s_idx] - ents[o_idx]).mean(axis=0)
    return mat


def _relation_vectors(
    store: EmbeddingStore, kg: Kg, source: str
) -> np.ndarray:
    if source == "derived":
        return _derived_relation_matrix(store, kg)
    if source == "native":
        if not store.has_relation_vecs(kg.side):
            raise NoRelationVectors(
                f"no model relation vectors for side {kg.side.value}"
            )
        return store.relation_vecs(kg.side).astype(np.float64)
    if not store.has_name_relation_vecs(kg.side):
        raise NoRelationVectors(
            f"no relation-name vectors for side {kg.side.value}"
        )
    return store.name_relation_vecs(kg.side).astype(np.float64)


def mine_relation_alignment(
    store: EmbeddingStore,
    kg1: Kg,
    kg2: Kg,
    source: str = "derived",
) -> RelationAlignment:
    """Mutual-nearest-neighbor matching over relation vectors.

    ``source`` picks where the vectors come from: translation-derived
    (default), model-native, or an external name-encoding file. Relations
    whose vector is all zero (no triples) never participate.
    """
    if source not in RELATION_VECTOR_SOURCES:
        raise ConfigError(
            f"relation vector source must be one of {RELATION_VECTOR_SOURCES}, got {source!r}"
        )
    v1 = _relation_vectors(store, kg1, source)
    v2 = _relation_vectors(store, kg2, source)
    n1_all = np.linalg.norm(v1, axis=1)
    n2_all = np.linalg.norm(v2, axis=1)
    rows1 = np.flatnonzero(n1_all > 0)
    rows2 = np.flatnonzero(n2_all > 0)
    if rows1.size == 0 or rows2.size == 0:
        return RelationAlignment(pairs=())
    u1 = v1[rows1] / n1_all[rows1, None]
    u2 = v2[rows2] / n2_all[rows2, None]
    sims = u1 @ u2.T
    best1 = np.argmax(sims, axis=1)
    best2 = np.argmax(sims, axis=0)
    pairs = []
    for i, j in enumerate(best1):
        if best2[j] == i:
            pairs.append(
                (
                    kg1.relation(int(rows1[i])),
                    kg2.relation(int(rows2[j])),
                    float(sims[i, j]),
                )
            )
    return RelationAlignment(pairs=tuple(pairs))


def mine_not_same_as_rules(kg: Kg, rel_align: RelationAlignment) -> list[NotSameAsRule]:
    """Relation pairs of one graph that (a) are distinct and not aligned to
    each other, (b) never share a (subject, object) pair, and (c) have at
    least one subject carrying both relations with different objects."""
    pair_sets: dict[int, set[tuple[int, int]]] = {}
    subj_objs: dict[int, dict[int, set[int]]] = {}
    for s, r, o in kg.triple_keys:
        pair_sets.setdefault(r, set()).add((s, o))
        subj_objs.setdefault(r, {}).setdefault(s, set()).add(o)
    rels = sorted(pair_sets)
    rules = []
    for i, r1 in enumerate(rels):
        for r2 in rels[i + 1 :]:
            ref1, ref2 = kg.relation(r1), kg.relation(r2)
            if rel_align.aligns(ref1, ref2):
                continue
            if pair_sets[r1] & pair_sets[r2]:
                continue
            # the (subject, object) sets are disjoint here, so any shared
            # subject witnesses two distinct objects
            if subj_objs[r1].keys() & subj_objs[r2].keys():
                rules.append(NotSameAsRule(kg.side, ref1, ref2))
    return rules


def _strong_edge_entities(adg: Adg) -> list[tuple[EntityRef, EntityRef]]:
    pairs = []
    strong_nodes = {e.neighbor for e in adg.edges if e.edge_class is EdgeClass.STRONG}
    if strong_nodes:
        pairs.append(adg.central.pair)
        pairs.extend(adg.neighbors[i].pair for i in sorted(strong_nodes))
    return pairs


def cross_kg_triples(
    adg: Adg,
    state: AlignmentState,
    rel_align: RelationAlignment,
    kg1: Kg,
    kg2: Kg,
    budget: int = 200,
) -> list[Triple]:
    """Swapped variants of the 1-hop triples of every entity on a Strong edge.

    Each aligned element (subject, object via the current alignment; relation
    via ``rel_align``) may be substituted by its counterpart; all non-empty
    substitution combinations are emitted. At most ``budget`` base triples are
    consulted, in node order, sides interleaved, triples sorted.
    """
    entity_pairs = _strong_edge_entities(adg)
    if not entity_pairs or budget == 0:
        return []
    fwd = {}
    rev = {}
    for s, t, _, _ in state.pairs():
        fwd[s] = t
        rev.setdefault(t, s)

    consulted: list[tuple[Side, tuple[int, int, int]]] = []
    seen_base: set[tuple[Side, tuple[int, int, int]]] = set()
    for e1, e2 in entity_pairs:
        for side, kg, ent in ((Side.SOURCE, kg1, e1), (Side.TARGET, kg2, e2)):
            one_hop = sorted(
                [(ent.index, r, o) for r, o in kg.out_index.get(ent.index, ())]
                + [(s, r, ent.index) for r, s in kg.in_index.get(ent.index, ())]
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

    out: set[Triple] = set()
    for side, (s, r, o) in consulted:
        if side is Side.SOURCE:
            subj, rel, obj = kg1.entity(s), kg1.relation(r), kg1.entity(o)
            subj_alt = kg2.entity(fwd[s]) if s in fwd else None
            obj_alt = kg2.entity(fwd[o]) if o in fwd else None
            r_alt = rel_align.target_of(r)
            rel_alt = kg2.relation(r_alt) if r_alt is not None else None
        else:
            subj, rel, obj = kg2.entity(s), kg2.relation(r), kg2.entity(o)
            subj_alt = kg1.entity(rev[s]) if s in rev else None
            obj_alt = kg1.entity(rev[o]) if o in rev else None
            r_alt = rel_align.source_of(r)
            rel_alt = kg1.relation(r_alt) if r_alt is not None else None
        for use_s in (False, True):
            for use_r in (False, True):
                for use_o in (False, True):
                    if not (use_s or use_r or use_o):
                        continue
                    if (use_s and subj_alt is None) or (use_r and rel_alt is None) or (
                        use_o and obj_alt is None
                    ):
                        continue
                    out.add(
                        Triple(
                            subj_alt if use_s else subj,
                            rel_alt if use_r else rel,
                            obj_alt if use_o else obj,
                        )
                    )
    return sorted(
        out,
        key=lambda t: (
            t.subject.side.value, t.subject.index,
            t.relation.side.value, t.relation.index,
            t.object.side.value, t.object.index,
        ),
    )


@dataclass
class RelationConflictReport:
    # derived cross-side not-same-as facts as (source index, target index)
    derived_pairs: list[tuple[int, int]]
    pruned_neighbor_pairs: list[tuple[int, int]]
    central_flagged: bool


def _chain_rules(
    rules: Sequence[NotSameAsRule],
    cross: Sequence[Triple],
    kg1: Kg,
    kg2: Kg,
    to_fixpoint: bool = False,
) -> set[tuple[int, int]]:
    """Forward-chain the rules over the cross triples plus the original graphs.

    Only instantiations touching at least one cross-graph triple can produce a
    fact about a (source, target) pair, so subjects are drawn from the cross
    triples and their original out-edges join in. With ``to_fixpoint`` the
    chaining repeats until no fact is new; derived not-same-as facts never
    match a rule body (bodies reference graph relations only), so the second
    round is where the repetition stops today.
    """
    by_subject: dict[EntityRef, dict[RelationRef, set[EntityRef]]] = {}

    def add(subj: EntityRef, rel: RelationRef, obj: EntityRef) -> None:
        by_subject.setdefault(subj, {}).setdefault(rel, set()).add(obj)

    for t in cross:
        add(t.subject, t.relation, t.object)
    kgs = {Side.SOURCE: kg1, Side.TARGET: kg2}
    for subj in list(by_subject):
        kg = kgs[subj.side]
        if subj.index < kg.n_entities and kg.entity(subj.index) == subj:
            for r, o in kg.out_index.get(subj.index, ()):
                add(subj, kg.relation(r), kg.entity(o))

    derived: set[tuple[int, int]] = set()
    while True:
        before = len(derived)
        for rule in rules:
            for rel_map in by_subject.values():
                objs1 = rel_map.get(rule.r1)
                objs2 = rel_map.get(rule.r2)
                if not objs1 or not objs2:
                    continue
                for a in objs1:
                    for b in objs2:
                        if a == b or a.side == b.side:
                            continue
                        pair = (a, b) if a.side is Side.SOURCE else (b, a)
                        derived.add((pair[0].index, pair[1].index))
        if not to_fixpoint or len(derived) == before:
            return derived


def detect_relation_conflicts(
    adg: Adg,
    rules: Sequence[NotSameAsRule],
    rel_align: RelationAlignment,
    state: AlignmentState,
    kg1: Kg,
    kg2: Kg,
    cfg: RepairConfig,
) -> RelationConflictReport:
    """Chain the rules over this graph's cross triples and report which node
    pairs are contradicted."""
    cross = cross_kg_triples(adg, state, rel_align, kg1, kg2, cfg.triple_budget)
    derived = _chain_rules(rules, cross, kg1, kg2, to_fixpoint=cfg.deep_chaining)
    node_pairs = {
        (n.pair[0].index, n.pair[1].index) for n in adg.neighbors
    }
    central = (adg.central.pair[0].index, adg.central.pair[1].index)
    pruned = sorted(derived & node_pairs)
    return RelationConflictReport(
        derived_pairs=sorted(derived),
        pruned_neighbor_pairs=pruned,
        central_flagged=central in derived,
    )


def apply_relation_repair(
    adg: Adg, report: RelationConflictReport, cfg: AdgConfig | None = None
) -> Adg:
    """Drop the contradicted neighbor nodes, recompute confidence, and carry
    the central soft-conflict flag."""
    pruned = prune_neighbors(adg, set(report.pruned_neighbor_pairs), cfg)
    pruned.central_conflict = adg.central_conflict or report.central_flagged
    return pruned


def one_to_one(state: AlignmentState, analyzer: PairAnalyzer) -> set[int]:
    """Keep the highest-confidence claimant per multi-claimed target (seeds
    are unbeatable; ties go to the lower source index). Returns the set of
    displaced sources."""
    contested = state.multi_claimed_targets()
    winners: dict[int, int] = {}
    for t in contested:
        claimants = state.sources_of(t)
        seed_claimants = [s for s in claimants if state.is_seed_pair(s, t)]
        if seed_claimants:
            winners[t] = seed_claimants[0]
            continue
        winners[t] = max(claimants, key=lambda s: (analyzer.confidence(s, t), -s))
    displaced = set()
    for t in contested:
        for s in state.sources_of(t):
            if s != winners[t]:
                state.unalign(s)
                displaced.add(s)
    return displaced


def resolve_one_to_many(
    state: AlignmentState,
    analyzer: PairAnalyzer,
    topk: SimilarityTopK,
    k: int,
) -> tuple[set[int], dict]:
    """Realign displaced sources through their top-k targets, evicting
    incumbents of strictly lower confidence. Returns the sources still
    unaligned and loop statistics."""
    displaced = one_to_one(state, analyzer)
    queue = displaced | state.unaligned_sources
    stats = {"initial_unaligned": len(queue), "iterations": 0, "evictions": 0}
    while len(queue) > 0:
        last_len = len(queue)
        stats["iterations"] += 1
        fresh: set[int] = set()
        for e1 in sorted(queue):
            aligned = False
            for e2, sim in topk.candidates(e1)[:k]:
                holders = state.sources_of(e2)
                if not holders:
                    state.align(e1, e2, REPAIRED, sim)
                    aligned = True
                    break
                incumbent = holders[0]
                if state.is_seed_pair(incumbent, e2):
                    continue
                if analyzer.confidence(e1, e2) > analyzer.confidence(incumbent, e2):
                    state.unalign(incumbent)
                    state.align(e1, e2, REPAIRED, sim)
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


def _candidate_targets(
    e1: int,
    state: AlignmentState,
    analyzer: PairAnalyzer,
    beta: float,
    cap: int,
) -> list[int]:
    """Targets sharing at least one matched neighbor with ``e1`` through the
    current alignment, nearest first, capped, then filtered by pairwise
    confidence >= beta."""
    matched_targets = set()
    for u in analyzer.hood1(e1):
        t = state.target_of(u)
        if t is not None:
            matched_targets.add(t)
    raw: set[int] = set()
    for t_prime in matched_targets:
        raw |= analyzer.hood2(t_prime)
    own = state.target_of(e1)
    if own is not None:
        raw.discard(own)
    if not raw:
        return []
    ranked = sorted(raw, key=lambda t: (-analyzer.similarity(e1, t), t))[:cap]
    return [t for t in ranked if analyzer.confidence(e1, t) >= beta]


def resolve_low_confidence(
    state: AlignmentState,
    analyzer: PairAnalyzer,
    cfg: RepairConfig,
    unaligned: set[int],
    flagged: set[int],
) -> tuple[set[int], dict]:
    """Strip pairs under the confidence floor (plus soft-flagged ones, once),
    then rematch them against neighbor-sharing candidates scored by
    confidence + lambda * similarity. Returns leftover sources and stats."""
    beta = cfg.effective_beta()
    queue = set(unaligned)
    flags = set(flagged)
    stats = {"stripped": 0, "iterations": 0, "swaps": 0}
    last_len = -1
    while True:
        low = []
        for s, t, prov, _ in state.pairs():
            if prov == SEED:
                continue
            if s in flags or analyzer.confidence(s, t) < beta:
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
        fresh: set[int] = set()
        for e1 in sorted(queue):
            candidates = _candidate_targets(e1, state, analyzer, beta, cfg.candidate_cap)
            scored = sorted(
                (
                    (analyzer.confidence(e1, t) + cfg.score_lambda * analyzer.similarity(e1, t), -t)
                    for t in candidates
                ),
                reverse=True,
            )
            aligned = False
            for score, neg_t in scored[: cfg.k]:
                e2 = -neg_t
                holders = state.sources_of(e2)
                if not holders:
                    state.align(e1, e2, REPAIRED, analyzer.similarity(e1, e2))
                    aligned = True
                    break
                incumbent = holders[0]
                if state.is_seed_pair(incumbent, e2):
                    continue
                incumbent_score = analyzer.confidence(incumbent, e2) + (
                    cfg.score_lambda * analyzer.similarity(incumbent, e2)
                )
                if score > incumbent_score:
                    state.unalign(incumbent)
                    state.align(e1, e2, REPAIRED, analyzer.similarity(e1, e2))
                    fresh.add(incumbent)
                    stats["swaps"] += 1
                    aligned = True
                    break
            if not aligned:
                fresh.add(e1)
        queue = fresh
    stats["leftover"] = len(queue)
    return queue, stats


def final_fill(state: AlignmentState, store: EmbeddingStore) -> dict:
    """Greedily match the remaining sources to unclaimed targets in descending
    similarity order. Sources left over when targets run out are reported."""
    sources = sorted(state.unaligned_sources)
    targets = sorted(state.unaligned_targets)
    stats = {"filled": 0, "unaligned_sources": []}
    if sources and targets:
        sims = similarity_matrix(store, sources, targets)
        order = sorted(
            ((float(sims[i, j]), -i, -j) for i in range(len(sources)) for j in range(len(targets))),
            reverse=True,
        )
        used_s: set[int] = set()
        used_t: set[int] = set()
        for sim, neg_i, neg_j in order:
            i, j = -neg_i, -neg_j
            if i in used_s or j in used_t:
                continue
            state.align(sources[i], targets[j], REPAIRED, sim)
            used_s.add(i)
            used_t.add(j)
            stats["filled"] += 1
            if len(used_s) == len(sources) or len(used_t) == len(targets):
                break
    stats["unaligned_sources"] = sorted(state.unaligned_sources)
    return stats


@dataclass
class RepairReport:
    stages_enabled: dict
    relation_alignment: list[dict]
    rules: list[dict]
    derived_not_same_as: list[list[int]]
    pruned_neighbor_pairs: list[list[int]]
    flagged_sources: list[int]
    one_to_many: dict
    low_confidence: dict
    final_fill: dict
    confidence_before: list[dict]
    confidence_after: list[dict]

    def to_json_dict(self) -> dict:
        return {
            "stages_enabled": self.stages_enabled,
            "relation_alignment": self.relation_alignment,
            "rules": self.rules,
            "derived_not_same_as": self.derived_not_same_as,
            "pruned_neighbor_pairs": self.pruned_neighbor_pairs,
            "flagged_sources": self.flagged_sources,
            "one_to_many": self.one_to_many,
            "low_confidence": self.low_confidence,
            "final_fill": self.final_fill,
            "confidence_before": self.confidence_before,
            "confidence_after": self.confidence_after,
        }


@dataclass
class RepairResult:
    pairs: tuple[tuple[int, int], ...]
    state: AlignmentState
    explanations: dict[tuple[int, int], Explanation]
    adgs: dict[tuple[int, int], Adg]
    report: RepairReport


def _confidence_snapshot(analyzer: PairAnalyzer, state: AlignmentState) -> list[dict]:
    return [
        {
            "source": s,
            "target": t,
            "provenance": prov,
            "confidence": analyzer.confidence(s, t),
        }
        for s, t, prov, _ in state.pairs()
    ]


def repair(
    kg1: Kg,
    kg2: Kg,
    store: EmbeddingStore,
    raw_alignment: Iterable[tuple[int, int, float]],
    seeds: Iterable[tuple[int, int]],
    cfg: RepairConfig | None = None,
) -> RepairResult:
    """Run the full conflict pipeline over a raw greedy alignment.

    Stage order: relation-conflict soft repair, one-to-many resolution,
    low-confidence resolution, final greedy fill. Disabled stages are skipped
    but the fill always runs. Injectivity of the output is enforced whenever
    one-to-many resolution is on.
    """
    cfg = cfg or RepairConfig()
    predictions = [(int(s), int(t), float(sim)) for s, t, sim in raw_alignment]
    state = AlignmentState(
        seeds,
        predictions,
        n_sources=kg1.n_entities,
        n_targets=kg2.n_entities,
    )
    analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
    confidence_before = _confidence_snapshot(analyzer, state)

    rel_align = RelationAlignment(pairs=())
    rules: list[NotSameAsRule] = []
    derived_all: set[tuple[int, int]] = set()
    pruned_all: set[tuple[int, int]] = set()
    flagged: set[int] = set()
    if cfg.enable_relation_repair:
        rel_align = mine_relation_alignment(store, kg1, kg2, cfg.relation_vector_source)
        rules = mine_not_same_as_rules(kg1, rel_align) + mine_not_same_as_rules(kg2, rel_align)
        if rules:
            for s, t, prov, _ in state.pairs():
                if prov == SEED:
                    continue
                found = detect_relation_conflicts(
                    analyzer.adg(s, t), rules, rel_align, state, kg1, kg2, cfg
                )
                derived_all.update(found.derived_pairs)
                pruned_all.update(found.pruned_neighbor_pairs)
                if found.central_flagged:
                    flagged.add(s)
        # a derived fact bans its pair from matched neighborhoods everywhere,
        # not only in the graph where it surfaced
        analyzer.ban(derived_all)

    unaligned = state.unaligned_sources
    otm_stats: dict = {"skipped": True}
    if cfg.enable_one_to_many:
        topk = similarity_topk(
            store, range(kg1.n_entities), range(kg2.n_entities), cfg.k
        )
        unaligned, otm_stats = resolve_one_to_many(state, analyzer, topk, cfg.k)

    low_stats: dict = {"skipped": True}
    if cfg.enable_low_confidence:
        unaligned, low_stats = resolve_low_confidence(state, analyzer, cfg, unaligned, flagged)

    fill_stats = final_fill(state, store)

    if cfg.enable_one_to_many:
        state.check_injective()
    for s, t in ((s, t) for s, t, p, _ in state.pairs() if p == SEED):
        if not state.is_seed_pair(s, t):
            raise InvariantViolation("seed-immutability", f"seed pair ({s}, {t}) was altered")

    final_pairs = tuple((s, t) for s, t, _, _ in state.pairs())
    explanations = {}
    adgs = {}
    for s, t in final_pairs:
        adgs[(s, t)] = analyzer.adg(s, t)
        explanations[(s, t)] = analyzer.explanation(s, t)
    confidence_after = [
        {
            "source": s,
            "target": t,
            "provenance": prov,
            "confidence": adgs[(s, t)].confidence,
        }
        for s, t, prov, _ in state.pairs()
    ]

    report = RepairReport(
        stages_enabled={
            "relation_repair": cfg.enable_relation_repair,
            "one_to_many": cfg.enable_one_to_many,
            "low_confidence": cfg.enable_low_confidence,
        },
        relation_alignment=[
            {
                "source": a.index,
                "target": b.index,
                "source_label": a.label,
                "target_label": b.label,
                "similarity": sim,
            }
            for a, b, sim in rel_align.pairs
        ],
        rules=[
            {
                "side": rule.side.value,
                "r1": rule.r1.index,
                "r2": rule.r2.index,
                "r1_label": rule.r1.label,
                "r2_label": rule.r2.label,
            }
            for rule in rules
        ],
        derived_not_same_as=sorted([s, t] for s, t in derived_all),
        pruned_neighbor_pairs=sorted([s, t] for s, t in pruned_all),
        flagged_sources=sorted(flagged),
        one_to_many=otm_stats,
        low_confidence=low_stats,
        final_fill=fill_stats,
        confidence_before=confidence_before,
        confidence_after=confidence_after,
    )
    return RepairResult(
        pairs=final_pairs,
        state=state,
        explanations=explanations,
        adgs=adgs,
        report=report,
    )
