"""Synthetic graph-pair generation with a known gold alignment.

A random connected graph is built for the source side, the target side is a
renamed copy under entity and relation permutations (the gold alignment),
optionally degraded by dropping or rewiring a fraction of its triples. Ideal
embeddings give each gold pair the same unit vector; the perturbed store adds
Gaussian noise and, for a chosen fraction of sources, blends the source vector
toward another source's gold target so several sources share one nearest
target. Every draw comes from one seeded generator, so a config fully
determines the output.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import EmbeddingStore, save_embeddings
from .errors import DegenerateConfig
from .kg import Kg, Side

# Blend fraction pulling a conflicted source toward the stolen target: at 0.6
# the stolen target is clearly nearest while the source's own gold target
# stays close enough to sit in a small top-k candidate list.
_CONFLICT_BLEND = 0.6

_CONNECT_RETRIES = 50


@dataclass(frozen=True)
class SynthConfig:
    n_entities: int = 200
    n_relations: int = 8
    density: float = 3.0
    rename_noise: float = 0.0
    seed_fraction: float = 0.3
    embedding_noise: float = 0.05
    conflict_injection: float = 0.0
    rng_seed: int = 0
    dim: int = 32

    def __post_init__(self):
        if self.n_entities < 2:
            raise DegenerateConfig(f"n_entities must be >= 2, got {self.n_entities}")
        if self.n_relations < 1:
            raise DegenerateConfig(f"n_relations must be >= 1, got {self.n_relations}")
        for name in ("density", "embedding_noise"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise DegenerateConfig(f"{name} must be finite and >= 0, got {value}")
        if self.dim < 1:
            raise DegenerateConfig(f"dim must be >= 1, got {self.dim}")
        if self.rng_seed < 0:
            raise DegenerateConfig(f"rng_seed must be >= 0, got {self.rng_seed}")
        for name in ("rename_noise", "seed_fraction", "conflict_injection"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DegenerateConfig(f"{name} must be in [0, 1], got {value}")
        if self.density == 0 and self.conflict_injection > 0:
            raise DegenerateConfig(
                "conflict injection needs triples: density 0 leaves no neighborhoods"
            )


@dataclass(frozen=True)
class SynthResult:
    cfg: SynthConfig
    kg1: Kg
    kg2: Kg
    gold: tuple[tuple[int, int], ...]
    seeds: tuple[tuple[int, int], ...]
    ideal_store: EmbeddingStore
    perturbed_store: EmbeddingStore
    conflicts: tuple[tuple[int, int, int], ...]
    """Injected conflicts as (source, victim source, shared target)."""


def _connected(n: int, triples) -> bool:
    if n <= 1:
        return True
    adj: dict[int, set[int]] = {}
    for s, _, o in triples:
        adj.setdefault(s, set()).add(o)
        adj.setdefault(o, set()).add(s)
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in adj.get(v, ()):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == n


def _build_source_triples(rng: np.random.Generator, cfg: SynthConfig) -> list[tuple[int, int, int]]:
    n, n_rel = cfg.n_entities, cfg.n_relations
    m_target = int(round(cfg.density * n))
    if m_target == 0:
        return []
    if m_target > n * (n - 1) // 2 * n_rel:
        raise DegenerateConfig(
            f"density {cfg.density} asks for more triples than the graph can hold"
        )
    triples: set[tuple[int, int, int]] = set()
    occupied: set[tuple[int, int]] = set()

    def try_add(s: int, r: int, o: int) -> None:
        # one directed triple per (unordered pair, relation): a reciprocal
        # copy would encode to the identical path vector, since a path's
        # relation part ignores step direction
        key = (min(s, o), max(s, o), r)
        if s == o or key in occupied:
            return
        triples.add((s, r, o))
        occupied.add(key)

    order = rng.permutation(n)
    for i in range(1, min(n, m_target + 1)):
        try_add(int(order[i - 1]), int(rng.integers(n_rel)), int(order[i]))
    while len(triples) < m_target:
        need = m_target - len(triples)
        ss = rng.integers(n, size=2 * need + 8)
        oo = rng.integers(n, size=2 * need + 8)
        rr = rng.integers(n_rel, size=2 * need + 8)
        for s, r, o in zip(ss, rr, oo):
            if len(triples) >= m_target:
                break
            try_add(int(s), int(r), int(o))
    return sorted(triples)


def _degrade_target_triples(
    rng: np.random.Generator,
    mapped: list[tuple[int, int, int]],
    cfg: SynthConfig,
) -> list[tuple[int, int, int]]:
    n_edit = int(round(cfg.rename_noise * len(mapped)))
    if n_edit == 0:
        return sorted(mapped)
    picked = set(rng.choice(len(mapped), size=n_edit, replace=False).tolist())
    kept = [t for i, t in enumerate(mapped) if i not in picked]
    result = set(kept)
    occupied = {(min(s, o), max(s, o), r) for s, r, o in kept}
    for i in sorted(picked):
        s, r, _ = mapped[i]
        if rng.integers(2) == 0:
            continue  # drop
        for o in rng.integers(cfg.n_entities, size=8):
            o = int(o)
            key = (min(s, o), max(s, o), r)
            if s != o and key not in occupied:
                result.add((s, r, o))
                occupied.add(key)
                break
    return sorted(result)


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    mat = rng.standard_normal((n, dim))
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    while (bad := norms < 1e-9).any():
        mat[bad[:, 0]] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
    return mat / norms


def _pick_conflicts(
    rng: np.random.Generator,
    cfg: SynthConfig,
    kg1: Kg,
    perm: np.ndarray,
    seed_sources: set[int],
) -> list[tuple[int, int, int]]:
    n_conflicts = int(round(cfg.conflict_injection * cfg.n_entities))
    if n_conflicts == 0:
        return []
    # the step rows leave self-loops out, and the generator makes none
    neighbors = {i: set(kg1.steps(i)[:, 2].tolist()) for i in range(cfg.n_entities)}
    conflicted: set[int] = set()
    protected: set[int] = set()
    chosen: list[tuple[int, int, int]] = []
    for cand in rng.permutation(cfg.n_entities):
        if len(chosen) == n_conflicts:
            break
        s = int(cand)
        if s in seed_sources or s in protected or not neighbors[s]:
            continue
        # keep one neighbor permanently unconflicted so the true pair stays
        # recognizable through its matched neighborhood
        anchors = sorted(u for u in neighbors[s] if u in seed_sources) or sorted(
            u for u in neighbors[s] if u not in conflicted
        )
        if not anchors:
            continue
        # step rows run both ways, so the entities sharing a neighbor with s
        # are its neighbors' neighbors
        near = set().union(*(neighbors[u] for u in neighbors[s]))
        near.discard(s)
        victims = [(len(neighbors[s] & neighbors[v]), -v) for v in near - conflicted]
        if not victims:
            continue
        _, neg_v = max(victims)
        victim = -neg_v
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


def generate_pair(cfg: SynthConfig) -> SynthResult:
    rng = np.random.default_rng(cfg.rng_seed)
    n, n_rel = cfg.n_entities, cfg.n_relations

    triples1 = _build_source_triples(rng, cfg)
    check_connectivity = cfg.density >= 2
    if check_connectivity and not _connected(n, triples1):
        raise DegenerateConfig("source graph construction produced a disconnected graph")

    perm = rng.permutation(n)
    rel_perm = rng.permutation(n_rel)
    mapped = [(int(perm[s]), int(rel_perm[r]), int(perm[o])) for s, r, o in triples1]
    triples2 = _degrade_target_triples(rng, mapped, cfg)
    if check_connectivity:
        for _ in range(_CONNECT_RETRIES):
            if _connected(n, triples2):
                break
            triples2 = _degrade_target_triples(rng, mapped, cfg)
        else:
            raise DegenerateConfig(
                f"target graph still disconnected after {_CONNECT_RETRIES} rewires; "
                "lower rename_noise or raise density"
            )

    kg1 = Kg(Side.SOURCE, [f"s{i}" for i in range(n)], [f"p{i}" for i in range(n_rel)], triples1)
    kg2 = Kg(Side.TARGET, [f"t{i}" for i in range(n)], [f"q{i}" for i in range(n_rel)], triples2)

    gold = tuple((i, int(perm[i])) for i in range(n))
    n_seeds = int(round(cfg.seed_fraction * n))
    seed_sources = sorted(int(x) for x in rng.choice(n, size=n_seeds, replace=False))
    seeds = tuple((s, int(perm[s])) for s in seed_sources)

    e1 = _unit_rows(rng, n, cfg.dim)
    e2 = np.empty_like(e1)
    e2[perm] = e1
    ideal = EmbeddingStore({Side.SOURCE: e1, Side.TARGET: e2})

    p1 = e1 + cfg.embedding_noise * rng.standard_normal(e1.shape)
    p2 = e2 + cfg.embedding_noise * rng.standard_normal(e2.shape)
    conflicts = _pick_conflicts(rng, cfg, kg1, perm, set(seed_sources))
    for s, _, stolen in conflicts:
        own = p1[s] / np.linalg.norm(p1[s])
        toward = p2[stolen] / np.linalg.norm(p2[stolen])
        p1[s] = (1.0 - _CONFLICT_BLEND) * own + _CONFLICT_BLEND * toward
    perturbed = EmbeddingStore({Side.SOURCE: p1, Side.TARGET: p2})

    return SynthResult(
        cfg=cfg,
        kg1=kg1,
        kg2=kg2,
        gold=gold,
        seeds=seeds,
        ideal_store=ideal,
        perturbed_store=perturbed,
        conflicts=tuple(conflicts),
    )


DATASET_FILES = (
    "ent_ids_1",
    "ent_ids_2",
    "rel_ids_1",
    "rel_ids_2",
    "triples_1",
    "triples_2",
    "ent_links",
    "train_links",
    "embeddings.tsv",
    "embeddings_ideal.tsv",
)


def write_dataset(result: SynthResult, out_dir: str | Path) -> dict[str, Path]:
    """Write the pair as id/label, triple, and link TSVs plus embedding files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / name for name in DATASET_FILES}

    def dump(name: str, rows) -> None:
        text = "".join("\t".join(str(c) for c in row) + "\n" for row in rows)
        paths[name].write_text(text, encoding="utf-8")

    dump("ent_ids_1", enumerate(result.kg1.entity_labels))
    dump("ent_ids_2", enumerate(result.kg2.entity_labels))
    dump("rel_ids_1", enumerate(result.kg1.relation_labels))
    dump("rel_ids_2", enumerate(result.kg2.relation_labels))
    dump("triples_1", result.kg1.triple_keys)
    dump("triples_2", result.kg2.triple_keys)
    dump("ent_links", result.gold)
    dump("train_links", result.seeds)
    save_embeddings(paths["embeddings.tsv"], result.perturbed_store)
    save_embeddings(paths["embeddings_ideal.tsv"], result.ideal_store)
    return paths
