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
by confidence plus weighted cosine. Both stages share one rematch walk
(``_rematch``) and differ only in the choices they hand it: the (target,
holder) pairs a source may take, best first, a free target or one whose
non-seed holder it beats. A final greedy pass fills any leftovers from the
unclaimed targets.

The alignment state holds a target and a provenance per source; no stage
reads a pair's similarity once it is aligned, so none is stored.

Seed pairs are immutable throughout; every loop carries the source-count guard
that forces termination.

The stages compare confidences, which ``PairAnalyzer`` caches per pair
and reads paying only for what moved: only keys near a move or ban are
gathered and compared, and a stale one is computed straight from its
neighbor list (``adg.pair_confidences``). Full dependency graphs are built
only where their structure is read: one pass over the initial pairs (the
first confidence snapshot and the relation-conflict stage) and
``RepairResult.adgs``. A one-to-many walk reads every comparison it may
make when it starts, since the alignment stays fixed until the walk
aligns; a challenger without matched neighbors scores 0.5, the least a
confidence can, and loses unread. A low-confidence walk reads a
comparison only when it reaches it.

The relation-conflict stage runs as array passes over chunks of dependency
graphs. ``ConflictTables``, built once per stage (which reads the alignment
and never changes it), numbers both sides' entities and relations in one id
space, source ids first, and holds each entity's sorted 1-hop triples and
out-triples as index tables and every counterpart as an int array (-1 for
none). The chunks hand on the entities each graph visits, found once per
graph when the chunks are cut. Per chunk, each graph's position is a key
column: its Strong-edge entities' base triples are gathered and cut to its
budget, their swap variants emitted, its subjects' out-edges added, and in
each (graph, subject) slot every run of one relation's source-side objects
joined, row by row, with each target-side run whose relation a rule pairs
with its own, into derived facts. Rows are deduplicated by sorting packed int64 keys
(``_pack``) and masking adjacent repeats; the stage's result is the union of
its chunks', so it does not depend on where chunks end.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field, fields
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .adg import STRONG, Adg, AdgConfig, build_adg, pass_ranges, sigmoid
from .adg import _influence, pair_confidences
from .embedding import EmbeddingStore, check_rows, pair_cosines, similarity_matrix, similarity_topk
from .errors import ConfigError, InvariantViolation, MissingEmbedding
from .explain import Explanation, PathIndex, explanations, neighbor_lists
from .explain import _distinct, _distinct_inverse, _lookup, _ranges, _run_starts, _split_keys
# no caller here (a center's neighborhood is read off its path index), but
# bench/traced_exea.py wraps this module's neighborhood_entities
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
    """Seed pairs plus the evolving predicted mapping, as one int array.

    Sources are ``range(n_sources)`` and targets ``range(n_targets)``, the two
    graphs' entity counts; a pair outside them is a config error. The state
    holds ``forward`` (``forward[s]`` the target of s, -1 for none) and
    ``provenance`` (``provenance[s]`` how s got its target, None for none),
    so the forward map is a function; a target may have several sources
    until one-to-many resolution has run. The pairs, a target's sources, the
    unaligned and multi-claimed entities and the seed checks are all read off
    these two. Seeds can never be realigned or removed. Every mutation is
    appended to ``mutations`` as (source, target): ``PairAnalyzer`` reads
    the sources moved since its last read from it, and the benchmark's trace
    reports its length.
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

        forward = [-1] * n_sources
        self.provenance: list[str | None] = [None] * n_sources
        seed_source = [-1] * n_targets
        for s, t in seeds:
            s, t = int(s), int(t)
            check_range(s, t, "seed")
            if forward[s] not in (-1, t) or seed_source[t] not in (-1, s):
                raise ConfigError(f"seed pairs are not one-to-one at ({s}, {t})")
            forward[s], seed_source[t], self.provenance[s] = t, s, SEED
        for s, t in predictions:
            s, t = int(s), int(t)
            check_range(s, t, "predicted")
            if self.provenance[s] == SEED:
                continue
            if forward[s] >= 0:
                raise ConfigError(f"source {s} appears twice in the predictions")
            forward[s], self.provenance[s] = t, PREDICTED
        self.forward = np.array(forward, dtype=np.int64)
        self.n_targets = n_targets
        self.mutations: list[tuple[int, int]] = []

    def is_seed_pair(self, s: int, t: int) -> bool:
        return 0 <= s < self.forward.size and self.provenance[s] == SEED and int(self.forward[s]) == t

    def sources_of(self, targets: Iterable[int]) -> list[tuple[int, ...]]:
        """The sources aligned to each of ``targets``, ascending, in one pass
        over ``forward``; none for a target outside ``range(n_targets)``."""
        targets = [int(t) for t in targets]
        # one slot per target, and a last one that -1 (no target) reads
        wanted = np.zeros(self.n_targets + 1, dtype=bool)
        wanted[[t for t in targets if 0 <= t < self.n_targets]] = True
        sources = np.flatnonzero(wanted[self.forward])
        found: dict[int, list[int]] = {}
        for s, t in zip(sources.tolist(), self.forward[sources].tolist()):
            found.setdefault(t, []).append(s)
        return [tuple(found.get(t, ())) for t in targets]

    def pairs(self) -> list[tuple[int, int, str]]:
        sources = np.flatnonzero(self.forward >= 0).tolist()
        return [(s, t, self.provenance[s]) for s, t in zip(sources, self.forward[sources].tolist())]

    def _claims(self) -> np.ndarray:
        """The number of sources aligned to each target."""
        return np.bincount(self.forward[self.forward >= 0], minlength=self.n_targets)

    @property
    def unaligned_sources(self) -> set[int]:
        return set(np.flatnonzero(self.forward < 0).tolist())

    @property
    def unaligned_targets(self) -> set[int]:
        return set(np.flatnonzero(self._claims() == 0).tolist())

    def align(self, s: int, t: int, provenance: str) -> None:
        if self.provenance[s] == SEED:
            raise InvariantViolation("seed-immutability", f"cannot realign seed source {s}")
        if self.forward[s] >= 0:
            raise InvariantViolation("single-claim", f"source {s} is already aligned")
        self.forward[s] = t
        self.provenance[s] = provenance
        self.mutations.append((s, t))

    def unalign(self, s: int) -> int:
        if self.provenance[s] == SEED:
            raise InvariantViolation("seed-immutability", f"cannot remove seed source {s}")
        t = int(self.forward[s])
        if t < 0:
            raise InvariantViolation("single-claim", f"source {s} is not aligned")
        self.forward[s] = -1
        self.provenance[s] = None
        self.mutations.append((s, t))
        return t

    def multi_claimed_targets(self) -> list[int]:
        return np.flatnonzero(self._claims() > 1).tolist()

    def check_injective(self) -> None:
        multi = self.multi_claimed_targets()
        if multi:
            [claimants] = self.sources_of(multi[:1])
            raise InvariantViolation(
                "injectivity", f"target {multi[0]} is claimed by sources {list(claimants)}"
            )


def explanation(
    pair: tuple[int, int], neighbors: np.ndarray, index1: PathIndex, index2: PathIndex
) -> Explanation:
    """One pair's explanation from its packed matched-neighbor keys, through
    the batched core: what a lookup of one stale key computes its confidence
    from. bench/traced_exea.py counts these builds by this name."""
    return explanations([pair], [neighbors], index1, index2)[0]


class PairAnalyzer:
    """Dependency-graph confidences for one repair run, cached per pair.

    Both path indexes are built once, over every entity. The confidence of
    (s, t) is a function of its matched-neighbor list, the sorted packed
    int64 keys ``n * n_targets + t`` that ``neighbor_lists`` gathers; the
    cache holds that list, the confidence and the epoch the list was last
    checked at. A list depends only on ``forward`` and bans within h hops of
    s, and hoods are symmetric, so each move read off ``state.mutations``
    and each ``ban`` stamps every source within h hops of its source with a
    new epoch. A cached key with no newer stamp is clean: no gather, no
    comparison. Another is gathered, compared (``np.array_equal``) and
    recomputed only when its list changed.

    ``neighbor_lists`` copies each list it gathers that changed, once, out
    of its gather, so no entry holds a larger array; ``adg``, ``adgs`` and
    ``graphs`` cache the lists they are given, which are those copies or the
    cached arrays themselves.

    ``adg(s, t)``, the per-key lookup the benchmark's trace counts,
    recomputes a stale key from its graph, built over its explanation
    (``repair.explanation``). ``adgs(keys, lists)`` computes stale keys with
    ``adg.pair_confidences``, each neighbor's influence kept per source with
    its target (``pair_cosines`` works row by row), then looks every key up
    through ``adg`` with the cached array, which the identity check
    accepts. ``graphs(keys)`` builds full graphs for the first pass over the
    initial pairs and ``RepairResult.adgs``, caching each key's confidence.
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
        # the banned pairs as sorted n * n_targets + t keys
        self._banned = np.zeros(0, dtype=np.int64)
        # (s, t) -> (packed matched-neighbor keys, confidence, epoch checked)
        self._cache: dict[tuple[int, int], tuple[np.ndarray, float, int]] = {}
        # per source, the last epoch that moved or banned one within h hops;
        # the mutations stamped so far
        self._stamps = np.zeros(kg1.n_entities, dtype=np.int64)
        self._epoch = self._seen = 0
        # per source n, the influence of (n, target), target -1 for none
        self._influence = np.zeros(kg1.n_entities)
        self._influence_target = np.full(kg1.n_entities, -1)

    def _stamp(self, sources: Iterable[int]) -> None:
        """Stamp every source within h hops of ``sources`` with a new epoch."""
        self._epoch += 1
        for n in set(sources):
            self._stamps[self.index1.hood(n)] = self._epoch

    def ban(self, pairs: Iterable[tuple[int, int]]) -> None:
        pairs = list(pairs)
        self.banned_pairs.update(pairs)
        n, t = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        # a pair outside the graphs is never a matched neighbor
        ok = (n >= 0) & (n < self.kg1.n_entities) & (t >= 0) & (t < self.kg2.n_entities)
        self._banned = _distinct(np.concatenate([self._banned, n[ok] * self.kg2.n_entities + t[ok]]))
        self._stamp(n[ok].tolist())

    def neighbor_lists(self, keys: Sequence[tuple[int, int]]) -> list[np.ndarray]:
        """Each key's packed matched-neighbor keys under the current state
        and banned pairs: a cached key's own array while its list is
        unchanged, else a copy out of the gather. Only keys stamped since
        they were last checked are gathered, in one pass, and compared with
        their entries."""
        log = self.state.mutations
        if len(log) > self._seen:
            self._stamp(s for s, _ in log[self._seen :])
            self._seen = len(log)
        entries = [self._cache.get(key) for key in keys]
        stamps = self._stamps[[s for s, _ in keys]].tolist()
        stale = [i for i, (got, at) in enumerate(zip(entries, stamps)) if not got or at > got[2]]
        lists = [got and got[0] for got in entries]
        gathered = neighbor_lists(
            self.index1, self.index2, self.state.forward, [keys[i] for i in stale], self._banned
        )
        for i, packed in zip(stale, gathered):
            if lists[i] is not None and np.array_equal(lists[i], packed):
                self._cache[keys[i]] = (*entries[i][:2], self._epoch)
            else:
                lists[i] = packed.copy()
        return lists

    def adg(self, s: int, t: int, neighbors: np.ndarray | None = None) -> float:
        """The confidence of (s, t), recomputed unless its packed
        matched-neighbor keys, ``neighbors`` or else read through
        ``neighbor_lists``, are the cached array itself."""
        key = (int(s), int(t))
        if neighbors is None:
            [neighbors] = self.neighbor_lists([key])
        got = self._cache.get(key)
        if got is None or neighbors is not got[0]:
            expl = explanation(key, neighbors, self.index1, self.index2)
            conf = build_adg([expl], self.store, self.cfg.adg)[0].confidence
            got = self._cache[key] = (neighbors, conf, self._epoch)
        return got[1]

    def adgs(
        self, keys: Iterable[tuple[int, int]], lists: Sequence[np.ndarray] | None = None
    ) -> list[float]:
        """``[self.adg(s, t) for s, t in keys]``, with every stale or missing
        confidence computed in shared passes. ``lists``, when given, is the
        keys' ``neighbor_lists``, read under the current state."""
        keys = [(int(s), int(t)) for s, t in keys]
        if lists is None:
            distinct = list(dict.fromkeys(keys))
            current = dict(zip(distinct, self.neighbor_lists(distinct)))
        else:
            current = dict(zip(keys, lists))
        stale = [
            key for key, packed in current.items()
            if (got := self._cache.get(key)) is None or packed is not got[0]
        ]
        lists = [current[key] for key in stale]
        computed = pair_confidences(
            stale, lists, self.index1, self.index2, self.store, self.cfg.adg, self._influences
        )
        for key, packed, conf in zip(stale, lists, computed):
            self._cache[key] = (packed, conf, self._epoch)
        return [self.adg(s, t, self._cache[s, t][0]) for s, t in keys]

    def _influences(self, n: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Each node (n, t)'s influence, computed where n's kept one is for another target."""
        got = self._influence[n]
        miss = self._influence_target[n] != t
        if miss.any():
            n, t = n[miss], t[miss]
            got[miss] = self._influence[n] = _influence(self.store, n, t)
            self._influence_target[n] = t
        return got

    def graphs(self, keys: Sequence[tuple[int, int]]) -> Iterator[Adg]:
        """The dependency graph of each key under the current state, in
        order, built in ``adg.pass_ranges``' passes over full explanations;
        each key's confidence is cached as its pass is built, and a pass's
        graphs are released once the caller has moved past them."""
        keys = [(int(s), int(t)) for s, t in keys]
        lists = self.neighbor_lists(keys)
        epoch = self._epoch
        for batch in pass_ranges([packed.size for packed in lists]):
            expls = explanations(
                [keys[i] for i in batch], [lists[i] for i in batch], self.index1, self.index2
            )
            graphs = build_adg(expls, self.store, self.cfg.adg)
            for i, graph in zip(batch, graphs):
                entry = self._cache[keys[i]] = (lists[i], graph.confidence, epoch)
                # counted like any other read; the entry is fresh
                self.adg(*keys[i], entry[0])
            yield from graphs
            del graphs


def _relation_vectors(
    store: EmbeddingStore, kg: Kg, source: str
) -> np.ndarray:
    """One row per relation of ``kg`` from ``source``. Rows past the graph's
    relations are ignored, as entity rows past its entities are; a relation
    with triples but no row is a missing embedding, and one with neither
    gets a zero row, which never takes part in matching."""
    if source == "derived":
        return store.derived_relation_matrix(kg)
    vecs = store.relation_vecs(kg.side) if source == "native" else store.name_relation_vecs(kg.side)
    vecs = vecs[: kg.n_relations].astype(np.float64)
    used = np.array(kg.triple_keys, dtype=np.int64).reshape(-1, 3)[:, 1]
    missing = used[used >= len(vecs)]
    if missing.size:
        raise MissingEmbedding(
            f"{len(vecs)} {source} relation vectors on side {kg.side.value}, but relation "
            f"{missing.min()} has triples"
        )
    return np.concatenate([vecs, np.zeros((kg.n_relations - len(vecs), vecs.shape[1]))])


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


# a chunk of dependency graphs in the relation-conflict stage gathers fewer
# 1-hop base rows than this, or holds one graph; the stage's temporaries
# (swap variants, out-edges, rule joins) grow with a chunk, so this bounds
# its memory
_CONFLICT_ROWS = 2048
# a packed key holds any product of radices up to this
_KEY_RANGE = 1 << 63


def _pack(columns: Sequence[np.ndarray], radices: Sequence[int]) -> np.ndarray:
    """One int64 key per row of the int ``columns``, column i in [0,
    radices[i]) and the first column most significant, so keys order as the
    rows do. Radices whose product does not fit an int64 raise."""
    if math.prod(radices) > _KEY_RANGE:
        raise InvariantViolation("int64-key", f"radices {list(radices)} overflow an int64 key")
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for column, radix in zip(columns, radices):
        key = key * radix + column
    return key


def _unpack(key: np.ndarray, radices: Sequence[int]) -> list[np.ndarray]:
    """The columns that ``_pack(columns, radices)`` made ``key`` from."""
    columns = []
    for radix in reversed(radices[1:]):
        key, column = np.divmod(key, radix)
        columns.append(column)
    return [key, *reversed(columns)]


class ConflictTables:
    """The two graphs, the alignment and the relation alignment as the
    relation-conflict stage reads them: int arrays built once per stage,
    which reads the alignment and never changes it.

    Both sides share one numbering: source entity e is e and target entity e
    is ``entity_offset + e``, relations likewise with ``relation_offset``, so
    ids order as (side, index) pairs do. ``triples`` holds both graphs'
    (subject, relation, object) rows in these ids, each side's sorted; the
    triple ids of entity g's 1-hop triples (g as subject or object, a
    self-loop once) are ``hop_triples[hop_start[g]:hop_start[g + 1]]``,
    ascending, and its out-triples are rows ``out_start[g]:out_start[g +
    1]``. ``entity_counterparts[g]`` is g's counterpart on the other side,
    -1 for none: a source's target, a target's first (lowest) claimant.
    ``relation_counterparts`` follows the mined relation alignment.
    """

    def __init__(
        self, kg1: Kg, kg2: Kg, state: AlignmentState, rel_align: RelationAlignment
    ):
        n1, r1 = kg1.n_entities, kg1.n_relations
        self.entity_offset, self.relation_offset = n1, r1
        self.n_entities = n1 + kg2.n_entities
        self.n_relations = r1 + kg2.n_relations
        # the widest key a chunk packs is (graph, subject, relation, object)
        self.max_chunk = _KEY_RANGE // max(self.n_entities**2 * self.n_relations, 1)
        if self.max_chunk < 1:
            raise ConfigError("the graphs are too large for the relation-conflict stage's int64 keys")
        self.triples = np.concatenate([
            np.array(kg1.triple_keys, dtype=np.int64).reshape(-1, 3),
            np.array(kg2.triple_keys, dtype=np.int64).reshape(-1, 3) + (n1, r1, n1),
        ])
        subject, _, obj = self.triples.T
        ids = np.arange(len(self.triples))
        loop = subject == obj
        anchor = np.concatenate([subject, obj[~loop]])
        hop = np.concatenate([ids, ids[~loop]])
        order = np.lexsort((hop, anchor))
        self.hop_triples = hop[order]
        self.hop_start = np.searchsorted(anchor[order], np.arange(self.n_entities + 1))
        self.out_start = np.searchsorted(subject, np.arange(self.n_entities + 1))
        self.entity_counterparts = np.full(self.n_entities, -1)
        # in reverse, so that a target keeps its lowest claimant
        for s, t, _ in reversed(state.pairs()):
            self.entity_counterparts[s] = t + n1
            self.entity_counterparts[t + n1] = s
        self.relation_counterparts = np.full(self.n_relations, -1)
        for a, b, _ in reversed(rel_align.pairs):
            self.relation_counterparts[a] = b + r1
            self.relation_counterparts[b + r1] = a

    def visits(self, adg: Adg) -> np.ndarray:
        """The entities whose 1-hop triples ``adg``'s swaps start from: the
        central pair and, in node order, each neighbor pair on a Strong edge,
        source entity first; none when there is no Strong edge."""
        strong = _distinct(adg.edge_neighbor[adg.edge_class == STRONG])
        if not strong.size:
            return np.zeros(0, dtype=np.int64)
        expl = adg.explanation
        n, t = np.divmod(expl.neighbor_keys[strong], self.n_entities - self.entity_offset)
        s0, t0 = expl.pair
        return np.stack([np.append(s0, n), np.append(t0, t) + self.entity_offset], axis=1).ravel()

    def chunks(
        self, adgs: Iterable[Adg], rows: int
    ) -> Iterator[tuple[list[Adg], list[np.ndarray]]]:
        """``adgs`` in order, in runs that gather fewer than ``rows`` 1-hop
        base rows between them, or hold one graph, each with its graphs'
        ``visits``."""
        hop_count = np.diff(self.hop_start)
        chunk: list[Adg] = []
        visits: list[np.ndarray] = []
        held = 0
        for adg in adgs:
            visit = self.visits(adg)
            count = int(hop_count[visit].sum())
            if chunk and (held + count >= rows or len(chunk) == self.max_chunk):
                yield chunk, visits
                chunk, visits, held = [], [], 0
            chunk.append(adg)
            visits.append(visit)
            held += count
        if chunk:
            yield chunk, visits


# the seven non-empty (subject, relation, object) substitutions, as masks
_SWAPS = np.array(list(product((False, True), repeat=3))[1:])


def cross_kg_triples(
    adgs: Sequence[Adg],
    tables: ConflictTables,
    budget: int = 200,
    visits: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Swapped variants of the 1-hop triples of every entity on a Strong
    edge, for each graph in ``adgs``.

    Each aligned element (subject and object through the alignment, relation
    through the relation alignment) may be replaced by its counterpart; all
    non-empty substitution combinations are emitted. At most ``budget`` base
    triples are consulted per graph: its first distinct ones in node order,
    sides interleaved, each entity's triples sorted. Returns the distinct
    (graph, subject, relation, object) rows, sorted, with the graph as its
    position in ``adgs`` and the rest as ``tables`` ids. ``visits``, when
    given, is each graph's ``tables.visits``, as ``tables.chunks`` hands
    them over.
    """
    if visits is None:
        visits = [tables.visits(adg) for adg in adgs]
    entity = np.concatenate([np.zeros(0, dtype=np.int64), *visits])
    count = tables.hop_start[entity + 1] - tables.hop_start[entity]
    graph = np.repeat(np.repeat(np.arange(len(adgs)), [v.size for v in visits]), count)
    hop = tables.hop_triples[_ranges(tables.hop_start[entity], count)]
    # each repeated base triple's first visit, in walk order
    first = np.sort(_distinct_inverse(_pack([graph, hop], [len(adgs), len(tables.triples)]))[1])
    graph, hop = graph[first], hop[first]
    # a base's rank among its graph's distinct bases, in walk order
    consulted = np.arange(graph.size) - np.searchsorted(graph, graph) < budget
    graph, base = graph[consulted], tables.triples[hop[consulted]]
    alt = np.stack(
        [
            tables.entity_counterparts[base[:, 0]],
            tables.relation_counterparts[base[:, 1]],
            tables.entity_counterparts[base[:, 2]],
        ],
        axis=1,
    )
    # the base triple itself is not emitted here and not removed afterwards,
    # since another base's swap may yield it
    variant = np.where(_SWAPS[:, None, :], alt, base)
    ok = (variant >= 0).all(axis=2)
    radices = [len(adgs), tables.n_entities, tables.n_relations, tables.n_entities]
    key = _pack([np.broadcast_to(graph, ok.shape)[ok], *variant[ok].T], radices)
    return np.stack(_unpack(_distinct(key), radices), axis=1)


@dataclass
class RelationConflictReport:
    """What the rules derive over the cross triples of some dependency
    graphs: the distinct (source index, target index) not-same-as facts, the
    matched neighbor pairs a graph's own facts contradict, and the central
    pairs so contradicted, in graph order."""

    derived_pairs: list[tuple[int, int]]
    pruned_neighbor_pairs: list[tuple[int, int]]
    flagged_pairs: list[tuple[int, int]]


def _chain_rules(
    rules: Sequence[NotSameAsRule],
    cross: np.ndarray,
    tables: ConflictTables,
    n_graphs: int,
) -> np.ndarray:
    """Forward-chain the rules over each graph's cross triples plus the
    original graphs.

    Only instantiations touching at least one cross-graph triple can produce a
    fact about a (source, target) pair, so subjects are drawn from the cross
    triples and their original out-edges join in. One round reaches the
    fixpoint: derived not-same-as facts never match a rule body, whose
    relations are graph relations. Rows of one graph and subject (a slot)
    form runs of one relation and one object side; a source run joins each
    target run of its slot whose relation a rule pairs with its own, in
    either role, row by row. Returns the distinct (graph, source, target)
    facts, sorted.
    """
    if not rules or not cross.size:
        return np.zeros((0, 3), dtype=np.int64)
    # the relations the rules name, numbered, and which pairs of them a rule
    # joins; facts are symmetric, so in both orientations
    ends = np.array([(rule.r1, rule.r2) for rule in rules], dtype=np.int64)
    ends += tables.relation_offset * np.array([rule.side for rule in rules])[:, None]
    named = _distinct(ends.ravel())
    number = np.full(tables.n_relations, -1)
    number[named] = np.arange(named.size)
    first, second = number[ends].T
    joined = np.zeros((named.size, named.size), dtype=bool)
    joined[first, second] = joined[second, first] = True
    graph, subject, relation, obj = cross.T
    # cross rows are sorted, so each slot is a run of them
    new = _run_starts(graph) | _run_starts(subject)
    slot = np.cumsum(new) - 1
    graph, subject = graph[new], subject[new]
    n_slots = graph.size
    count = tables.out_start[subject + 1] - tables.out_start[subject]
    out = tables.triples[_ranges(tables.out_start[subject], count)]
    rows = [
        np.concatenate([slot, np.repeat(np.arange(n_slots), count)]),
        np.concatenate([relation, out[:, 1]]),
        np.concatenate([obj, out[:, 2]]),
    ]
    slot_radices = [n_slots, tables.n_relations, tables.n_entities]
    # a row whose relation no rule names joins nothing
    key = _pack(rows, slot_radices)[number[rows[1]] >= 0]
    slot, relation, obj = _unpack(_distinct(key), slot_radices)
    # rows are sorted and source ids come first, so a (slot, relation) run is
    # a run of source objects and then one of target objects
    n1 = tables.entity_offset
    side = obj >= n1
    start = np.flatnonzero(_run_starts(slot) | _run_starts(relation) | _run_starts(side))
    length = np.diff(start, append=obj.size)
    run_slot, run_relation = slot[start], number[relation[start]]
    # every source run meets every target run of its slot
    source, target = np.flatnonzero(~side[start]), np.flatnonzero(side[start])
    per_slot = np.bincount(run_slot[target], minlength=n_slots)
    met = per_slot[run_slot[source]]
    a = np.repeat(source, met)
    b = target[_ranges((np.cumsum(per_slot) - per_slot)[run_slot[source]], met)]
    joins = joined[run_relation[a], run_relation[b]]
    a, b = a[joins], b[joins]
    # a joined pair of runs joins each row of one with each of the other
    pairs = length[a] * length[b]
    at, width = _ranges(np.zeros_like(pairs), pairs), np.repeat(length[b], pairs)
    row_a = np.repeat(start[a], pairs) + at // width
    row_b = np.repeat(start[b], pairs) + at % width
    radices = [n_graphs, n1, tables.n_entities - n1]
    fact = _pack([graph[slot[row_a]], obj[row_a], obj[row_b] - n1], radices)
    return np.stack(_unpack(_distinct(fact), radices), axis=1)


def detect_relation_conflicts(
    adgs: Sequence[Adg],
    rules: Sequence[NotSameAsRule],
    tables: ConflictTables,
    cfg: RepairConfig,
    visits: Sequence[np.ndarray] | None = None,
) -> RelationConflictReport:
    """Chain the rules over each graph's cross triples and report which node
    pairs are contradicted; ``visits`` as ``cross_kg_triples`` takes it."""
    cross = cross_kg_triples(adgs, tables, cfg.triple_budget, visits)
    derived = _chain_rules(rules, cross, tables, len(adgs))
    n1 = tables.entity_offset
    radices = [len(adgs), n1, tables.n_entities - n1]
    facts = _pack(derived.T, radices)
    expls = [adg.explanation for adg in adgs]
    n, t, graph = _split_keys([expl.neighbor_keys for expl in expls], tables.n_entities - n1)
    # the facts are distinct and sorted, as their rows are
    pruned = _lookup(facts, _pack([graph, n, t], radices))[1]
    central = np.array([expl.pair for expl in expls], dtype=np.int64).reshape(-1, 2)
    flagged = _lookup(facts, _pack([np.arange(len(adgs)), *central.T], radices))[1]
    distinct = _unpack(_distinct(_pack(derived[:, 1:].T, radices[1:])), radices[1:])
    return RelationConflictReport(
        derived_pairs=list(zip(*(c.tolist() for c in distinct))),
        pruned_neighbor_pairs=sorted(set(zip(n[pruned].tolist(), t[pruned].tolist()))),
        flagged_pairs=list(map(tuple, central[flagged].tolist())),
    )


def one_to_one(state: AlignmentState, analyzer: PairAnalyzer) -> set[int]:
    """Keep the highest-confidence claimant per multi-claimed target (seeds
    are unbeatable; ties go to the lower source index). Returns the set of
    displaced sources."""
    targets = state.multi_claimed_targets()
    contested = dict(zip(targets, state.sources_of(targets)))
    winners: dict[int, int] = {}
    # the claimants of the targets that no seed holds, scored together
    scored: list[tuple[int, tuple[int, ...]]] = []
    for t, claimants in contested.items():
        seed_claimants = [s for s in claimants if state.is_seed_pair(s, t)]
        if seed_claimants:
            winners[t] = seed_claimants[0]
        else:
            scored.append((t, claimants))
    keys = [(s, t) for t, claimants in scored for s in claimants]
    confidence = dict(zip(keys, analyzer.adgs(keys)))
    for t, claimants in scored:
        winners[t] = max(claimants, key=lambda s: (confidence[(s, t)], -s))
    displaced = set()
    for t, claimants in contested.items():
        for s in claimants:
            if s != winners[t]:
                state.unalign(s)
                displaced.add(s)
    return displaced


def _rematch(
    state: AlignmentState,
    queue: Iterable[int],
    choices: Callable[[int], Iterable[tuple[int, int]]],
) -> tuple[set[int], int]:
    """Walk each queued source, lowest first, to the first of ``choices(e1)``,
    the (target, holder) pairs it may take, best first: a free target (holder
    -1) or one whose holder, a non-seed source, ``e1`` beats and evicts.
    Returns the sources left unaligned (evicted holders included) and the
    number of evictions."""
    fresh: set[int] = set()
    evictions = 0
    for e1 in sorted(queue):
        for e2, holder in choices(e1):
            if holder >= 0:
                state.unalign(holder)
                fresh.add(holder)
                evictions += 1
            state.align(e1, e2, REPAIRED)
            break
        else:
            fresh.add(e1)
    return fresh, evictions


def resolve_one_to_many(
    state: AlignmentState,
    analyzer: PairAnalyzer,
    k: int,
) -> tuple[set[int], dict]:
    """Realign displaced sources through their ``k`` nearest targets, best
    first, evicting incumbents of strictly lower confidence. Returns the
    sources still unaligned and loop statistics.

    A source's targets come from ``similarity_topk`` when it first enters
    the queue, in one call for every source entering with it; no other
    source's row is computed. Every target and every source is checked by
    ``check_rows`` when the stage starts, so a zero vector on either side is
    an error whether or not a walk reaches it, as when every source was
    ranked. The alignment does not move until a walk aligns, so ``choices``
    reads every comparison the walk may make when it starts: the holders in
    one pass over ``forward``, the confidences in one gather and shared
    passes."""
    targets = range(state.n_targets)
    check_rows(analyzer.store, Side.TARGET, targets)
    check_rows(analyzer.store, Side.SOURCE, range(state.forward.size))
    displaced = one_to_one(state, analyzer)
    queue = displaced | state.unaligned_sources
    stats = {"initial_unaligned": len(queue), "iterations": 0, "evictions": 0}
    nearest: dict[int, list[int]] = {}

    def choices(e1: int) -> list[tuple[int, int]]:
        ranked = nearest[e1]
        # each target up to the first free one whose holder is not a seed
        contests, free = [], []
        for e2, holders in zip(ranked, state.sources_of(ranked)):
            if not holders:
                free = [(e2, -1)]
                break
            if not state.is_seed_pair(holders[0], e2):
                contests.append((e2, holders[0]))
        n = len(contests)
        # the challengers' keys, then the holders'
        keys = [(e1, e2) for e2, _ in contests] + [(holder, e2) for e2, holder in contests]
        lists = analyzer.neighbor_lists(keys)
        # a challenger without matched neighbors has confidence sigmoid(0) =
        # 0.5, the least a confidence can be, so it beats no holder unread
        read = [i for i in range(n) if lists[i].size]
        both = read + [n + i for i in read]
        conf = analyzer.adgs([keys[i] for i in both], [lists[i] for i in both])
        won = [contests[i] for j, i in enumerate(read) if conf[j] > conf[len(read) + j]]
        return won + free

    while len(queue) > 0:
        entering = sorted(queue.difference(nearest))
        if entering:
            rows, _ = similarity_topk(analyzer.store, entering, targets, k)
            nearest.update(zip(entering, rows.tolist()))
        last_len = len(queue)
        stats["iterations"] += 1
        queue, evictions = _rematch(state, queue, choices)
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
) -> Iterator[tuple[int, float]]:
    """Targets sharing at least one matched neighbor with ``e1`` through the
    current alignment, nearest first, capped at ``cfg.candidate_cap``, kept
    when their pairwise confidence is >= beta, each with its score confidence
    + lambda * cosine: the first ``cfg.k`` by best score, ties to the lower
    target.

    The ranking is lazy and builds only the graphs it needs. A confidence
    lies in [0.5, 1] (a sigmoid of non-negative class masses), so an unbuilt
    candidate scores at most 1 + lambda * cosine, and the nearest unbuilt one
    bounds them all. The best kept candidate is yielded once its score is
    strictly above that bound, so no tie is decided by a bound. Otherwise one
    ``adgs`` call reads every unbuilt candidate whose bound reaches the best
    kept score, or, with none kept, beta + lambda * cosine of the nearest
    unbuilt one, the least that one scores if kept. With lambda = 0 the first
    read takes every candidate. The alignment does not move while the
    rematch walks a ranking, so each graph is what an eager read would build.
    """
    i1, i2 = analyzer.index1, analyzer.index2
    matched = _distinct(state.forward[i1.hood(e1)])
    matched = matched[matched >= 0]
    lo, hi = i2.hood_start[matched], i2.hood_start[matched + 1]
    targets = _distinct(i2.hood_key[_ranges(lo, hi - lo)] % i2.n_entities)
    targets = targets[targets != state.forward[e1]]
    if not targets.size:
        return
    sims = pair_cosines(
        analyzer.store, Side.SOURCE, np.full_like(targets, e1), Side.TARGET, targets
    )
    order = np.lexsort((targets, -sims))[: cfg.candidate_cap]
    nearest = targets[order].tolist()
    weighted = [cfg.score_lambda * sim for sim in sims[order].tolist()]
    # built candidates kept and not yet yielded, as (-score, target)
    kept: list[tuple[float, int]] = []
    built = yielded = 0
    while yielded < cfg.k:
        bound = 1.0 + weighted[built] if built < len(nearest) else -math.inf
        if kept and -kept[0][0] > bound:
            neg_score, t = heapq.heappop(kept)
            yield t, -neg_score
            yielded += 1
            continue
        if built == len(nearest):
            return
        floor = -kept[0][0] if kept else beta + weighted[built]
        end = built + 1
        while end < len(nearest) and 1.0 + weighted[end] >= floor:
            end += 1
        window = range(built, end)
        for i, conf in zip(window, analyzer.adgs((e1, nearest[i]) for i in window)):
            if conf >= beta:
                heapq.heappush(kept, (-(conf + weighted[i]), nearest[i]))
        built = end


def _outscores(analyzer: PairAnalyzer, cfg: RepairConfig, e2: int, score: float, incumbent: int) -> bool:
    """Whether a challenger's ``score`` beats the incumbent's score for
    ``e2``, its confidence + lambda * cosine. The confidence lies in [0.5,
    1], so the incumbent's graph is read only when those bounds leave it
    open."""
    sim = pair_cosines(analyzer.store, Side.SOURCE, [incumbent], Side.TARGET, [e2]).item()
    weighted = cfg.score_lambda * sim
    if score > 1.0 + weighted:
        return True
    if score <= 0.5 + weighted:
        return False
    return score > analyzer.adg(incumbent, e2) + weighted


def resolve_low_confidence(
    state: AlignmentState,
    analyzer: PairAnalyzer,
    cfg: RepairConfig,
    unaligned: set[int],
    flagged: set[int],
) -> tuple[set[int], dict]:
    """Strip pairs under the confidence floor (plus soft-flagged ones, once),
    then rematch them against neighbor-sharing candidates scored by
    confidence + lambda * cosine. Returns leftover sources and stats.

    A source's ``choices`` walks the lazy ``_candidate_targets`` and
    compares each holder through ``_outscores`` when the walk reaches it;
    both bound a confidence by [0.5, 1] before reading a graph, so the walk
    builds only the graphs its comparisons need."""
    beta = cfg.effective_beta()
    queue = set(unaligned)
    flags = set(flagged)
    stats = {"stripped": 0, "iterations": 0, "swaps": 0}

    def choices(e1: int) -> Iterator[tuple[int, int]]:
        for e2, score in _candidate_targets(e1, state, analyzer, beta, cfg):
            [holders] = state.sources_of([e2])
            holder = holders[0] if holders else -1
            if holder < 0 or (
                not state.is_seed_pair(holder, e2)
                and _outscores(analyzer, cfg, e2, score, holder)
            ):
                yield e2, holder

    last_len = -1
    while True:
        pairs = [(s, t) for s, t, prov in state.pairs() if prov != SEED]
        # a flagged pair is stripped unscored
        keys = [(s, t) for s, t in pairs if s not in flags]
        confidence = dict(zip(keys, analyzer.adgs(keys)))
        low = [s for s, t in pairs if s in flags or confidence[(s, t)] < beta]
        for s in low:
            state.unalign(s)
            queue.add(s)
        stats["stripped"] += len(low)
        flags.clear()
        if last_len > -1 and len(queue) >= last_len:
            break
        last_len = len(queue)
        stats["iterations"] += 1
        queue, swaps = _rematch(state, queue, choices)
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
    report: RepairReport
    analyzer: PairAnalyzer = field(repr=False, compare=False)

    @functools.cached_property
    def adgs(self) -> dict[tuple[int, int], Adg]:
        """The final pairs' dependency graphs, built from the final state
        and banned pairs the first time they are read."""
        return dict(zip(self.pairs, self.analyzer.graphs(self.pairs)))


def _confidence_snapshot(
    pairs: Sequence[tuple[int, int, str]], confidence: Iterable[float]
) -> list[dict]:
    """Each (s, t, provenance) of ``pairs`` with its confidence."""
    return [
        {"source": s, "target": t, "provenance": prov, "confidence": conf}
        for (s, t, prov), conf in zip(pairs, confidence)
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
    seeds = list(seeds)
    state = AlignmentState(
        seeds,
        raw_alignment,
        n_sources=kg1.n_entities,
        n_targets=kg2.n_entities,
    )
    analyzer = PairAnalyzer(kg1, kg2, store, state, cfg)

    rel_align = RelationAlignment(pairs=())
    rules: list[NotSameAsRule] = []
    if cfg.enable_relation_repair:
        rel_align = mine_relation_alignment(store, kg1, kg2, cfg.relation_vector_source)
        rules = mine_not_same_as_rules(kg1) + mine_not_same_as_rules(kg2)
    derived_all: set[tuple[int, int]] = set()
    pruned_all: set[tuple[int, int]] = set()
    flagged: set[int] = set()
    initial = state.pairs()
    keys = [(s, t) for s, t, _ in initial]
    # the state does not move until the stage ends, so one pass of full
    # graphs over the initial pairs gives both their confidences and the
    # stage's graphs; each chunk's facts are folded in and its graphs
    # dropped before the next is built
    before: list[float] = []

    def non_seed_graphs() -> Iterator[Adg]:
        for (_, _, prov), adg in zip(initial, analyzer.graphs(keys)):
            before.append(adg.confidence)
            if prov != SEED:
                yield adg

    graphs = non_seed_graphs()
    if rules:
        tables = ConflictTables(kg1, kg2, state, rel_align)
        for chunk, visits in tables.chunks(graphs, _CONFLICT_ROWS):
            found = detect_relation_conflicts(chunk, rules, tables, cfg, visits)
            derived_all.update(found.derived_pairs)
            pruned_all.update(found.pruned_neighbor_pairs)
            flagged.update(s for s, _ in found.flagged_pairs)
    # without rules only the confidences are read
    for _ in graphs:
        pass
    confidence_before = _confidence_snapshot(initial, before)
    if cfg.enable_relation_repair:
        # a derived fact bans its pair from matched neighborhoods everywhere,
        # not only in the graph where it surfaced
        analyzer.ban(derived_all)

    unaligned = state.unaligned_sources
    otm_stats: dict = {"skipped": True}
    if cfg.enable_one_to_many:
        unaligned, otm_stats = resolve_one_to_many(state, analyzer, cfg.k)

    low_stats: dict = {"skipped": True}
    if cfg.enable_low_confidence:
        unaligned, low_stats = resolve_low_confidence(state, analyzer, cfg, unaligned, flagged)

    fill_stats = final_fill(state, store)

    if cfg.enable_one_to_many:
        state.check_injective()
    for s, t in seeds:
        if not state.is_seed_pair(s, t):
            raise InvariantViolation("seed-immutability", f"seed pair ({s}, {t}) was altered")

    final = state.pairs()
    final_pairs = tuple((s, t) for s, t, _ in final)
    confidence_after = _confidence_snapshot(final, analyzer.adgs(final_pairs))

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
    return RepairResult(pairs=final_pairs, state=state, report=report, analyzer=analyzer)
