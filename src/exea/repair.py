"""Conflict detection and repair for a predicted alignment.

Three conflict families are handled in sequence. Relation conflicts: mutually
aligned relations plus mined not-same-as rules are chained over cross-graph
triples; a derived not-same-as fact against a matched neighbor pair bans that
pair from future dependency graphs, one against a central pair flags it for
re-examination. One-to-many conflicts: targets claimed by several sources keep
the claimant with the highest dependency-graph confidence, and displaced
sources walk their top-k candidates, evicting incumbents of lower confidence.
Low-confidence conflicts: pairs under the confidence floor are stripped and
re-matched against targets that share a matched neighbor, ranked and compared
by confidence plus weighted cosine; each candidate is scored once, from the
cosines that rank it and the confidences that filter it. Both stages share one
rematch walk (``_rematch``) and differ only in the ranking and the comparison
they pass it.
A final greedy pass fills any leftovers from the unclaimed targets.

The alignment state holds a target and a provenance per source; no stage
reads a pair's similarity once it is aligned, so none is stored.

Seed pairs are immutable throughout; every loop carries the source-count guard
that forces termination.

The relation-conflict stage runs on integers: a cross-graph triple is six
ints, a (side, index) pair for each of its subject, relation and object, side
0 for the source graph and 1 for the target graph. The counterpart maps
(``Counterparts``) are built once per stage, which reads the alignment and
never changes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import islice, product
from typing import Callable, Iterable, Sequence

import numpy as np

from .adg import STRONG, Adg, AdgConfig, build_adg, sigmoid
from .embedding import (
    EmbeddingStore,
    SimilarityTopK,
    pair_cosines,
    similarity_matrix,
    similarity_topk,
)
from .errors import ConfigError, InvariantViolation
from .explain import PathIndex, explanation, matched_neighbor_pairs
# neighborhood_entities has no caller here: a center's neighborhood is read
# off its path index; it stays importable from this module, where
# bench/traced_exea.py wraps it
from .kg import SIDES, Kg, Side, check_hops, neighborhood_entities  # noqa: F401

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

    def __post_init__(self):
        check_hops(self.h)
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.beta is not None and not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if not (math.isfinite(self.score_lambda) and self.score_lambda >= 0):
            raise ConfigError(f"score_lambda must be finite and >= 0, got {self.score_lambda}")
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
    """Mutual-nearest-neighbor relation pairs between the two sides, as
    (source relation, target relation, cosine)."""

    pairs: tuple[tuple[int, int, float], ...]


@dataclass(frozen=True)
class NotSameAsRule:
    """Two relations of one graph that never share a (subject, object) pair:
    a subject carrying both relations has provably distinct objects. ``side``
    is 0 for the source graph and 1 for the target graph."""

    side: int
    r1: int
    r2: int


class AlignmentState:
    """Seed pairs plus the evolving predicted mapping.

    Sources are ``range(n_sources)`` and targets ``range(n_targets)``, the two
    graphs' entity counts; a pair outside them is a config error. The forward
    map is always a function source -> (target, provenance); the
    reverse map may hold several sources per target until one-to-many
    resolution has run.
    Seeds can never be realigned or removed. Every mutation is appended to
    ``mutations``, a record of what a run did; nothing in the library reads
    it back (the benchmark's trace reports its length).
    """

    def __init__(
        self,
        seeds: Iterable[tuple[int, int]],
        predictions: Iterable[tuple[int, int]],
        n_sources: int,
        n_targets: int,
    ):
        def check_range(s: int, t: int, what: str) -> None:
            if not 0 <= s < n_sources:
                raise ConfigError(f"{what} source {s} is out of range")
            if not 0 <= t < n_targets:
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
        self._forward: dict[int, tuple[int, str]] = {
            s: (t, SEED) for s, t in self._seed_forward.items()
        }
        self._reverse: dict[int, set[int]] = {
            t: {s} for s, t in self._seed_forward.items()
        }
        self.mutations: list[tuple[int, int]] = []
        for s, t in predictions:
            s, t = int(s), int(t)
            check_range(s, t, "predicted")
            if s in self._seed_forward:
                continue
            if s in self._forward:
                raise ConfigError(f"source {s} appears twice in the predictions")
            self._forward[s] = (t, PREDICTED)
            self._reverse.setdefault(t, set()).add(s)
        self.source_universe = frozenset(range(n_sources))
        self.target_universe = frozenset(range(n_targets))

    def is_seed_pair(self, s: int, t: int) -> bool:
        return self._seed_forward.get(s) == t

    def target_of(self, s: int) -> int | None:
        entry = self._forward.get(s)
        return entry[0] if entry else None

    def sources_of(self, t: int) -> tuple[int, ...]:
        return tuple(sorted(self._reverse.get(t, ())))

    def pairs(self) -> list[tuple[int, int, str]]:
        return [(s, t, prov) for s, (t, prov) in sorted(self._forward.items())]

    @property
    def unaligned_sources(self) -> set[int]:
        return set(self.source_universe) - set(self._forward)

    @property
    def unaligned_targets(self) -> set[int]:
        return {t for t in self.target_universe if not self._reverse.get(t)}

    def align(self, s: int, t: int, provenance: str) -> None:
        if s in self._seed_forward:
            raise InvariantViolation("seed-immutability", f"cannot realign seed source {s}")
        if s in self._forward:
            raise InvariantViolation("single-claim", f"source {s} is already aligned")
        self._forward[s] = (t, provenance)
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
    """Dependency graphs (each holding its explanation) and confidences for
    one repair run, with a cache that validates itself on every read.

    Both path indexes are built once, over every entity: the paths of s and t
    never change, and the explanation of (s, t), so its dependency graph, is a
    function of its matched-neighbor list. A cached graph is reused while
    ``neighbor_pairs(s, t)``, recomputed from the endpoints of those paths,
    the live alignment and the banned pairs, equals the list it was built
    from, and rebuilt when it differs. Entries are never evicted.
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
        self.index1 = PathIndex(kg1, store, cfg.h)
        self.index2 = PathIndex(kg2, store, cfg.h)
        self.banned_pairs: set[tuple[int, int]] = set()
        self._cache: dict[tuple[int, int], Adg] = {}

    def ban(self, pairs: Iterable[tuple[int, int]]) -> None:
        self.banned_pairs.update(pairs)

    def neighbor_pairs(self, s: int, t: int) -> list[tuple[int, int]]:
        pairs = matched_neighbor_pairs(
            self.state.target_of, self.index1.groups[s], self.index2.groups[t]
        )
        if self.banned_pairs:
            pairs = [p for p in pairs if p not in self.banned_pairs]
        return pairs

    def adg(self, s: int, t: int) -> Adg:
        key = (int(s), int(t))
        neighbors = self.neighbor_pairs(*key)
        got = self._cache.get(key)
        if got is None or got.explanation.matched_neighbor_pairs != neighbors:
            expl = explanation(
                key,
                self.kg1,
                self.kg2,
                self.store,
                None,
                self.cfg.h,
                index1=self.index1,
                index2=self.index2,
                neighbor_pairs=neighbors,
            )
            got = build_adg(expl, self.store, self.cfg.adg)
            self._cache[key] = got
        return got

    def confidence(self, s: int, t: int) -> float:
        return self.adg(s, t).confidence


def _relation_vectors(
    store: EmbeddingStore, kg: Kg, source: str
) -> np.ndarray:
    if source == "derived":
        return store.derived_relation_matrix(kg)
    if source == "native":
        return store.relation_vecs(kg.side).astype(np.float64)
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
            pairs.append((int(rows1[i]), int(rows2[j]), float(sims[i, j])))
    return RelationAlignment(pairs=tuple(pairs))


def mine_not_same_as_rules(kg: Kg) -> list[NotSameAsRule]:
    """Relation pairs of one graph that (a) are distinct, (b) never share a
    (subject, object) pair, and (c) have at least one subject carrying both
    relations with different objects.

    No relation alignment enters: it pairs a source relation with a target
    one, while both relations of a rule come from one graph."""
    pair_sets: dict[int, set[tuple[int, int]]] = {}
    subj_objs: dict[int, dict[int, set[int]]] = {}
    for s, r, o in kg.triple_keys:
        pair_sets.setdefault(r, set()).add((s, o))
        subj_objs.setdefault(r, {}).setdefault(s, set()).add(o)
    rels = sorted(pair_sets)
    side = SIDES.index(kg.side)
    rules = []
    for i, r1 in enumerate(rels):
        for r2 in rels[i + 1 :]:
            if pair_sets[r1] & pair_sets[r2]:
                continue
            # the (subject, object) sets are disjoint here, so any shared
            # subject witnesses two distinct objects
            if subj_objs[r1].keys() & subj_objs[r2].keys():
                rules.append(NotSameAsRule(side, r1, r2))
    return rules


@dataclass(frozen=True)
class Counterparts:
    """What each side's entities and relations stand for on the other side,
    indexed by side (0 source, 1 target). Entities follow the alignment, a
    target taking the first (lowest) source that claims it; relations follow
    the mined relation alignment."""

    entities: tuple[dict[int, int], dict[int, int]]
    relations: tuple[dict[int, int], dict[int, int]]

    @classmethod
    def of(cls, state: AlignmentState, rel_align: RelationAlignment) -> Counterparts:
        fwd: dict[int, int] = {}
        rev: dict[int, int] = {}
        for s, t, _ in state.pairs():
            fwd[s] = t
            rev.setdefault(t, s)
        rel_fwd: dict[int, int] = {}
        rel_rev: dict[int, int] = {}
        for a, b, _ in rel_align.pairs:
            rel_fwd.setdefault(a, b)
            rel_rev.setdefault(b, a)
        return cls((fwd, rev), (rel_fwd, rel_rev))


# a cross-graph triple: (subject side, s, relation side, r, object side, o),
# side 0 for the source graph and 1 for the target graph
CrossTriple = tuple[int, int, int, int, int, int]


def _strong_edge_entities(adg: Adg) -> list[tuple[int, int]]:
    """The central pair and, in node order, each neighbor pair on a Strong
    edge; nothing when there is no Strong edge."""
    strong = np.unique(adg.edge_neighbor[adg.edge_class == STRONG])
    if not strong.size:
        return []
    expl = adg.explanation
    return [expl.pair] + [expl.matched_neighbor_pairs[i] for i in strong.tolist()]


def cross_kg_triples(
    adg: Adg,
    counterparts: Counterparts,
    kg1: Kg,
    kg2: Kg,
    budget: int = 200,
) -> list[CrossTriple]:
    """Swapped variants of the 1-hop triples of every entity on a Strong edge.

    Each aligned element (subject and object through the alignment, relation
    through the relation alignment) may be replaced by its counterpart; all
    non-empty substitution combinations are emitted, distinct and sorted. At
    most ``budget`` base triples are consulted, in node order, sides
    interleaved, triples sorted.
    """
    entity_pairs = _strong_edge_entities(adg)
    if not entity_pairs or budget == 0:
        return []
    kgs = (kg1, kg2)
    consulted: list[tuple[int, tuple[int, int, int]]] = []
    seen_base: set[tuple[int, tuple[int, int, int]]] = set()
    for pair in entity_pairs:
        for side in (0, 1):
            kg, e = kgs[side], pair[side]
            one_hop = sorted(
                [(e, r, o) for r, o in kg.out_index.get(e, ())]
                + [(s, r, e) for r, s in kg.in_index.get(e, ())]
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

    out: set[CrossTriple] = set()
    for side, (s, r, o) in consulted:
        ents, rels = counterparts.entities[side], counterparts.relations[side]
        options = []
        for key, alt in ((s, ents.get(s)), (r, rels.get(r)), (o, ents.get(o))):
            options.append([(side, key)] if alt is None else [(side, key), (1 - side, alt)])
        # the first combination is the base triple itself; it is skipped here
        # and not removed afterwards, since another base's swap may yield it
        out.update(a + b + c for a, b, c in islice(product(*options), 1, None))
    return sorted(out)


@dataclass
class RelationConflictReport:
    # derived cross-side not-same-as facts as (source index, target index)
    derived_pairs: list[tuple[int, int]]
    pruned_neighbor_pairs: list[tuple[int, int]]
    central_flagged: bool


def _chain_rules(
    rules: Sequence[NotSameAsRule],
    cross: Sequence[CrossTriple],
    kg1: Kg,
    kg2: Kg,
) -> set[tuple[int, int]]:
    """Forward-chain the rules over the cross triples plus the original graphs.

    Only instantiations touching at least one cross-graph triple can produce a
    fact about a (source, target) pair, so subjects are drawn from the cross
    triples and their original out-edges join in. One round reaches the
    fixpoint: derived not-same-as facts never match a rule body, whose
    relations are graph relations. Entities and relations are (side, index)
    pairs throughout.
    """
    # relation -> subject -> objects
    index: dict[tuple[int, int], dict[tuple[int, int], set[tuple[int, int]]]] = {}
    subjects: set[tuple[int, int]] = set()
    for ss, s, rs, r, os_, o in cross:
        index.setdefault((rs, r), {}).setdefault((ss, s), set()).add((os_, o))
        subjects.add((ss, s))
    kgs = (kg1, kg2)
    for side, s in subjects:
        for r, o in kgs[side].out_index.get(s, ()):
            index.setdefault((side, r), {}).setdefault((side, s), set()).add((side, o))

    derived: set[tuple[int, int]] = set()
    for rule in rules:
        by1 = index.get((rule.side, rule.r1))
        by2 = index.get((rule.side, rule.r2))
        if not by1 or not by2:
            continue
        for subj in by1.keys() & by2.keys():
            objs2 = by2[subj]
            for a_side, a in by1[subj]:
                for b_side, b in objs2:
                    if a_side != b_side:
                        derived.add((a, b) if a_side == 0 else (b, a))
    return derived


def detect_relation_conflicts(
    adg: Adg,
    rules: Sequence[NotSameAsRule],
    counterparts: Counterparts,
    kg1: Kg,
    kg2: Kg,
    cfg: RepairConfig,
) -> RelationConflictReport:
    """Chain the rules over this graph's cross triples and report which node
    pairs are contradicted."""
    cross = cross_kg_triples(adg, counterparts, kg1, kg2, cfg.triple_budget)
    derived = _chain_rules(rules, cross, kg1, kg2)
    expl = adg.explanation
    return RelationConflictReport(
        derived_pairs=sorted(derived),
        pruned_neighbor_pairs=sorted(derived.intersection(expl.matched_neighbor_pairs)),
        central_flagged=expl.pair in derived,
    )


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


def _rematch(
    state: AlignmentState,
    queue: Iterable[int],
    ranked: Callable[[int], Sequence[tuple[int, float]]],
    better: Callable[[int, int, float, int], bool],
) -> tuple[set[int], int]:
    """Walk each queued source, lowest first, through ``ranked(e1)``, its
    (target, score) candidates best first: take the first unclaimed target,
    or evict a non-seed incumbent that ``better(e1, e2, score, incumbent)``
    ranks below ``e1``. Returns the sources left unaligned (evicted
    incumbents included) and the number of evictions."""
    fresh: set[int] = set()
    evictions = 0
    for e1 in sorted(queue):
        for e2, score in ranked(e1):
            holders = state.sources_of(e2)
            if holders:
                incumbent = holders[0]
                if state.is_seed_pair(incumbent, e2) or not better(e1, e2, score, incumbent):
                    continue
                state.unalign(incumbent)
                fresh.add(incumbent)
                evictions += 1
            state.align(e1, e2, REPAIRED)
            break
        else:
            fresh.add(e1)
    return fresh, evictions


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

    def ranked(e1: int) -> list[tuple[int, float]]:
        return topk.candidates(e1)[:k]

    def better(e1: int, e2: int, score: float, incumbent: int) -> bool:
        return analyzer.confidence(e1, e2) > analyzer.confidence(incumbent, e2)

    while len(queue) > 0:
        last_len = len(queue)
        stats["iterations"] += 1
        queue, evictions = _rematch(state, queue, ranked, better)
        stats["evictions"] += evictions
        if len(queue) >= last_len:
            break
    stats["leftover"] = len(queue)
    return queue, stats


def _candidate_targets(
    e1: int,
    state: AlignmentState,
    analyzer: PairAnalyzer,
    beta: float,
    cfg: RepairConfig,
) -> list[tuple[int, float]]:
    """Targets sharing at least one matched neighbor with ``e1`` through the
    current alignment, nearest first, capped at ``cfg.candidate_cap``, kept
    when their pairwise confidence is >= beta, each with its score confidence
    + lambda * cosine: best score first, ties to the lower target."""
    matched_targets = set()
    for u in analyzer.index1.groups[e1]:
        t = state.target_of(u)
        if t is not None:
            matched_targets.add(t)
    raw: set[int] = set()
    for t_prime in matched_targets:
        raw.update(analyzer.index2.groups[t_prime])
    own = state.target_of(e1)
    if own is not None:
        raw.discard(own)
    if not raw:
        return []
    targets = sorted(raw)
    sims = pair_cosines(analyzer.store, Side.SOURCE, [e1] * len(targets), Side.TARGET, targets)
    nearest = sorted(zip(targets, sims.tolist()), key=lambda ts: (-ts[1], ts[0]))
    scored = []
    for t, sim in nearest[: cfg.candidate_cap]:
        conf = analyzer.confidence(e1, t)
        if conf >= beta:
            scored.append((t, conf + cfg.score_lambda * sim))
    return sorted(scored, key=lambda ts: (-ts[1], ts[0]))


def resolve_low_confidence(
    state: AlignmentState,
    analyzer: PairAnalyzer,
    cfg: RepairConfig,
    unaligned: set[int],
    flagged: set[int],
) -> tuple[set[int], dict]:
    """Strip pairs under the confidence floor (plus soft-flagged ones, once),
    then rematch them against neighbor-sharing candidates scored by
    confidence + lambda * cosine. Returns leftover sources and stats."""
    beta = cfg.effective_beta()
    queue = set(unaligned)
    flags = set(flagged)
    stats = {"stripped": 0, "iterations": 0, "swaps": 0}

    def ranked(e1: int) -> list[tuple[int, float]]:
        return _candidate_targets(e1, state, analyzer, beta, cfg)[: cfg.k]

    def better(e1: int, e2: int, e1_score: float, incumbent: int) -> bool:
        conf = analyzer.confidence(incumbent, e2)
        sim = pair_cosines(analyzer.store, Side.SOURCE, [incumbent], Side.TARGET, [e2]).item()
        return e1_score > conf + cfg.score_lambda * sim

    last_len = -1
    while True:
        low = []
        for s, t, prov in state.pairs():
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
        queue, swaps = _rematch(state, queue, ranked, better)
        stats["swaps"] += swaps
    stats["leftover"] = len(queue)
    return queue, stats


def final_fill(state: AlignmentState, store: EmbeddingStore) -> dict:
    """Greedily match the remaining sources to unclaimed targets in descending
    similarity order, ties to the lower source, then the lower target. Sources
    left over when targets run out are reported."""
    sources = sorted(state.unaligned_sources)
    targets = sorted(state.unaligned_targets)
    stats = {"filled": 0, "unaligned_sources": []}
    if sources and targets:
        sims = similarity_matrix(store, sources, targets)
        # row-major flat indices: a stable sort keeps ties in (source, target) order
        order = np.argsort(-sims, axis=None, kind="stable")
        used_s: set[int] = set()
        used_t: set[int] = set()
        for flat in order.tolist():
            i, j = divmod(flat, len(targets))
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
        # the fields themselves: ``asdict`` would deep-copy every snapshot row
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class RepairResult:
    pairs: tuple[tuple[int, int], ...]
    state: AlignmentState
    adgs: dict[tuple[int, int], Adg]
    report: RepairReport


def _confidence_snapshot(
    state: AlignmentState, confidence: Callable[[int, int], float]
) -> list[dict]:
    return [
        {"source": s, "target": t, "provenance": prov, "confidence": confidence(s, t)}
        for s, t, prov in state.pairs()
    ]


def repair(
    kg1: Kg,
    kg2: Kg,
    store: EmbeddingStore,
    raw_alignment: Iterable[tuple[int, int]],
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
    state = AlignmentState(
        seeds,
        raw_alignment,
        n_sources=kg1.n_entities,
        n_targets=kg2.n_entities,
    )
    analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)
    confidence_before = _confidence_snapshot(state, analyzer.confidence)

    rel_align = RelationAlignment(pairs=())
    rules: list[NotSameAsRule] = []
    derived_all: set[tuple[int, int]] = set()
    pruned_all: set[tuple[int, int]] = set()
    flagged: set[int] = set()
    if cfg.enable_relation_repair:
        rel_align = mine_relation_alignment(store, kg1, kg2, cfg.relation_vector_source)
        rules = mine_not_same_as_rules(kg1) + mine_not_same_as_rules(kg2)
        if rules:
            # the stage reads the alignment and never changes it
            counterparts = Counterparts.of(state, rel_align)
            for s, t, prov in state.pairs():
                if prov == SEED:
                    continue
                found = detect_relation_conflicts(
                    analyzer.adg(s, t), rules, counterparts, kg1, kg2, cfg
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
    for s, t in ((s, t) for s, t, p in state.pairs() if p == SEED):
        if not state.is_seed_pair(s, t):
            raise InvariantViolation("seed-immutability", f"seed pair ({s}, {t}) was altered")

    final_pairs = tuple((s, t) for s, t, _ in state.pairs())
    adgs = {(s, t): analyzer.adg(s, t) for s, t in final_pairs}
    confidence_after = _confidence_snapshot(state, lambda s, t: adgs[(s, t)].confidence)

    report = RepairReport(
        stages_enabled={
            "relation_repair": cfg.enable_relation_repair,
            "one_to_many": cfg.enable_one_to_many,
            "low_confidence": cfg.enable_low_confidence,
        },
        relation_alignment=[
            {
                "source": a,
                "target": b,
                "source_label": kg1.relation_labels[a],
                "target_label": kg2.relation_labels[b],
                "similarity": sim,
            }
            for a, b, sim in rel_align.pairs
        ],
        rules=[
            {
                "side": SIDES[rule.side].value,
                "r1": rule.r1,
                "r2": rule.r2,
                "r1_label": (kg1, kg2)[rule.side].relation_labels[rule.r1],
                "r2_label": (kg1, kg2)[rule.side].relation_labels[rule.r2],
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
        adgs=adgs,
        report=report,
    )
