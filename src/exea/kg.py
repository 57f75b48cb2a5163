"""Indexed knowledge-graph triple stores.

A graph lives on one side of an alignment task (source or target). Entities
and relations are dense integer indices with human-readable labels; triples
are stored deduplicated together with adjacency indexes and per-relation
functionality statistics used as edge weights elsewhere.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .errors import EmptyKg, MalformedLine, UnknownId, UnknownRelation

MAX_HOPS = 2


class Side(Enum):
    SOURCE = "source"
    TARGET = "target"


class Direction(Enum):
    OUTGOING = "out"
    INCOMING = "in"


@dataclass(frozen=True)
class EntityRef:
    side: Side
    index: int
    label: str


@dataclass(frozen=True)
class RelationRef:
    side: Side
    index: int
    label: str


@dataclass(frozen=True)
class Triple:
    subject: EntityRef
    relation: RelationRef
    object: EntityRef

    def key(self) -> tuple[int, int, int]:
        return (self.subject.index, self.relation.index, self.object.index)


@dataclass(frozen=True)
class PathStep:
    """One traversed edge: OUTGOING means the anchor was the subject."""

    direction: Direction
    relation: RelationRef
    entity: EntityRef

    def key(self) -> tuple[int, int, int]:
        rank = 0 if self.direction is Direction.OUTGOING else 1
        return (rank, self.relation.index, self.entity.index)


@dataclass(frozen=True)
class RelationPath:
    """A simple path anchored at ``center``; each step records the entity reached."""

    center: EntityRef
    steps: tuple[PathStep, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a relation path needs at least one step")

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def endpoint(self) -> EntityRef:
        return self.steps[-1].entity

    def key(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(step.key() for step in self.steps)


def _validate_hops(h: int) -> None:
    if not isinstance(h, int) or not 1 <= h <= MAX_HOPS:
        raise ValueError(f"hop bound must be an integer in [1, {MAX_HOPS}], got {h!r}")


class Kg:
    """An immutable, fully indexed triple store for one side.

    Attributes
    ----------
    out_index : dict mapping subject index to a sorted tuple of (relation, object)
    in_index : dict mapping object index to a sorted tuple of (relation, subject)
    rel_triples : dict mapping relation index to its triple count
    func_table / ifunc_table : per-relation functionality statistics; a
        relation is functional (value 1.0) when no subject repeats, and
        inverse-functional when no object repeats.
    """

    def __init__(
        self,
        side: Side,
        entity_labels: Sequence[str],
        relation_labels: Sequence[str],
        triples: Iterable[tuple[int, int, int]],
    ):
        self.side = side
        self.entity_labels = tuple(str(x) for x in entity_labels)
        self.relation_labels = tuple(str(x) for x in relation_labels)
        n_ent = len(self.entity_labels)
        n_rel = len(self.relation_labels)

        keys = sorted(set((int(s), int(r), int(o)) for s, r, o in triples))
        for s, r, o in keys:
            if not 0 <= s < n_ent:
                raise UnknownId(f"subject id {s} outside [0, {n_ent}) on side {side.value}")
            if not 0 <= o < n_ent:
                raise UnknownId(f"object id {o} outside [0, {n_ent}) on side {side.value}")
            if not 0 <= r < n_rel:
                raise UnknownId(f"relation id {r} outside [0, {n_rel}) on side {side.value}")
        self._triple_keys = tuple(keys)
        self._triple_key_set = frozenset(keys)

        out: dict[int, list[tuple[int, int]]] = {}
        inc: dict[int, list[tuple[int, int]]] = {}
        by_rel: dict[int, list[tuple[int, int, int]]] = {}
        for s, r, o in keys:
            out.setdefault(s, []).append((r, o))
            inc.setdefault(o, []).append((r, s))
            by_rel.setdefault(r, []).append((s, r, o))
        self.out_index = {s: tuple(sorted(v)) for s, v in out.items()}
        self.in_index = {o: tuple(sorted(v)) for o, v in inc.items()}
        self._triples_by_relation = {r: tuple(v) for r, v in by_rel.items()}

        self.rel_triples = {r: len(v) for r, v in self._triples_by_relation.items()}
        self.func_table = {}
        self.ifunc_table = {}
        for r, trs in self._triples_by_relation.items():
            subjects = {s for s, _, _ in trs}
            objects = {o for _, _, o in trs}
            self.func_table[r] = len(subjects) / len(trs)
            self.ifunc_table[r] = len(objects) / len(trs)

        self._entity_refs: list[EntityRef | None] = [None] * n_ent
        self._relation_refs: list[RelationRef | None] = [None] * n_rel

    @property
    def n_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def n_relations(self) -> int:
        return len(self.relation_labels)

    @property
    def triple_keys(self) -> tuple[tuple[int, int, int], ...]:
        return self._triple_keys

    @property
    def triples(self) -> tuple[Triple, ...]:
        return tuple(self.triple(s, r, o) for s, r, o in self._triple_keys)

    def has_triple(self, s: int, r: int, o: int) -> bool:
        return (s, r, o) in self._triple_key_set

    def entity(self, index: int) -> EntityRef:
        if not 0 <= index < self.n_entities:
            raise UnknownId(f"entity id {index} outside [0, {self.n_entities}) on side {self.side.value}")
        ref = self._entity_refs[index]
        if ref is None:
            ref = EntityRef(self.side, index, self.entity_labels[index])
            self._entity_refs[index] = ref
        return ref

    def relation(self, index: int) -> RelationRef:
        if not 0 <= index < self.n_relations:
            raise UnknownId(f"relation id {index} outside [0, {self.n_relations}) on side {self.side.value}")
        ref = self._relation_refs[index]
        if ref is None:
            ref = RelationRef(self.side, index, self.relation_labels[index])
            self._relation_refs[index] = ref
        return ref

    def triple(self, s: int, r: int, o: int) -> Triple:
        return Triple(self.entity(s), self.relation(r), self.entity(o))

    def relation_triples(self, r: int) -> tuple[tuple[int, int, int], ...]:
        return self._triples_by_relation.get(r, ())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Kg):
            return NotImplemented
        return (
            self.side == other.side
            and self.entity_labels == other.entity_labels
            and self.relation_labels == other.relation_labels
            and self._triple_keys == other._triple_keys
        )

    def __hash__(self):
        return hash((self.side, self.entity_labels, self.relation_labels, self._triple_keys))

    def __repr__(self):
        return (
            f"Kg(side={self.side.value}, entities={self.n_entities}, "
            f"relations={self.n_relations}, triples={len(self._triple_keys)})"
        )


def _resolve_relation_index(kg: Kg, r: RelationRef | int) -> int:
    return r.index if isinstance(r, RelationRef) else int(r)


def functionality(kg: Kg, r: RelationRef | int) -> float:
    """|distinct subjects| / |triples| for relation ``r``."""
    idx = _resolve_relation_index(kg, r)
    if idx not in kg.func_table:
        raise UnknownRelation(f"relation {idx} has no triples on side {kg.side.value}")
    return kg.func_table[idx]


def inverse_functionality(kg: Kg, r: RelationRef | int) -> float:
    """|distinct objects| / |triples| for relation ``r``."""
    idx = _resolve_relation_index(kg, r)
    if idx not in kg.ifunc_table:
        raise UnknownRelation(f"relation {idx} has no triples on side {kg.side.value}")
    return kg.ifunc_table[idx]


def _undirected_neighbors(kg: Kg, v: int) -> set[int]:
    nbrs = {o for _, o in kg.out_index.get(v, ())}
    nbrs.update(s for _, s in kg.in_index.get(v, ()))
    return nbrs


def _hop_distances(kg: Kg, start: int, cutoff: int) -> dict[int, int]:
    """Undirected BFS distances from ``start`` up to ``cutoff`` hops."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if dist[v] == cutoff:
            continue
        for u in _undirected_neighbors(kg, v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def neighborhood_entities(kg: Kg, e: EntityRef | int, h: int) -> list[int]:
    """Entity indices within ``h`` undirected hops of ``e``, excluding ``e`` itself."""
    _validate_hops(h)
    start = e.index if isinstance(e, EntityRef) else int(e)
    kg.entity(start)
    dist = _hop_distances(kg, start, h)
    return sorted(v for v in dist if v != start)


def neighborhood_triples(kg: Kg, e: EntityRef | int, h: int) -> list[Triple]:
    """Triples reachable by an undirected breadth-first expansion of at most ``h`` edges.

    A triple belongs to the neighborhood when one of its endpoints lies within
    ``h - 1`` hops of ``e``, i.e. the triple's own edge is the at-most-h-th
    traversed edge. Returned sorted by (subject, relation, object) indices.
    """
    _validate_hops(h)
    start = e.index if isinstance(e, EntityRef) else int(e)
    kg.entity(start)
    inner = _hop_distances(kg, start, h - 1)
    keys: set[tuple[int, int, int]] = set()
    for v in inner:
        for r, o in kg.out_index.get(v, ()):
            keys.add((v, r, o))
        for r, s in kg.in_index.get(v, ()):
            keys.add((s, r, v))
    return [kg.triple(*k) for k in sorted(keys)]


def enumerate_path_keys(
    kg: Kg, e: EntityRef | int, h: int
) -> list[tuple[tuple[int, int, int], ...]]:
    """The ``key()`` of every path ``enumerate_paths`` yields, in the same order,
    built from integers alone: each step is (0 outgoing / 1 incoming,
    relation, entity reached)."""
    _validate_hops(h)
    start = e.index if isinstance(e, EntityRef) else int(e)
    kg.entity(start)  # UnknownId for an entity outside the graph
    keys: list[tuple[tuple[int, int, int], ...]] = []

    def incident_steps(v: int) -> list[tuple[int, int, int]]:
        steps = [(0, r, o) for r, o in kg.out_index.get(v, ())]
        steps.extend((1, r, s) for r, s in kg.in_index.get(v, ()))
        steps.sort()
        return steps

    def walk(v: int, visited: set[int], prefix: tuple[tuple[int, int, int], ...]) -> None:
        for step in incident_steps(v):
            u = step[2]
            if u in visited:
                continue
            steps = prefix + (step,)
            keys.append(steps)
            if len(steps) < h:
                walk(u, visited | {u}, steps)

    walk(start, {start}, ())
    return keys


def enumerate_paths(kg: Kg, e: EntityRef | int, h: int) -> list[RelationPath]:
    """All simple paths of length 1..h starting at ``e``, in lexicographic step order.

    Both edge directions are traversed; an OUTGOING step follows a triple whose
    subject is the current anchor, an INCOMING step one whose object is. Paths
    never revisit an entity.
    """
    start = e.index if isinstance(e, EntityRef) else int(e)
    keys = enumerate_path_keys(kg, start, h)
    center = kg.entity(start)
    directions = (Direction.OUTGOING, Direction.INCOMING)
    return [
        RelationPath(
            center,
            tuple(PathStep(directions[rank], kg.relation(r), kg.entity(u)) for rank, r, u in key),
        )
        for key in keys
    ]


def _read_label_file(path: str | Path, what: str) -> list[str]:
    labels: dict[int, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise MalformedLine(path, line_no, f"expected 2 tab-separated columns, got {len(parts)}")
            try:
                idx = int(parts[0])
            except ValueError:
                raise MalformedLine(path, line_no, f"non-integer {what} id {parts[0]!r}") from None
            if idx in labels:
                raise MalformedLine(path, line_no, f"duplicate {what} id {idx}")
            labels[idx] = parts[1]
    if sorted(labels) != list(range(len(labels))):
        raise UnknownId(f"{what} ids in {path} must be dense 0..{len(labels) - 1}")
    return [labels[i] for i in range(len(labels))]


def _read_triple_file(path: str | Path) -> list[tuple[int, int, int]]:
    triples = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise MalformedLine(path, line_no, f"expected 3 tab-separated columns, got {len(parts)}")
            try:
                triples.append((int(parts[0]), int(parts[1]), int(parts[2])))
            except ValueError:
                raise MalformedLine(path, line_no, "non-integer id in triple") from None
    return triples


def load_kg(
    triples_path: str | Path,
    entity_labels_path: str | Path,
    relation_labels_path: str | Path,
    side: Side,
    allow_empty: bool = False,
) -> Kg:
    """Load one side from TSV files: triples (3 int columns) plus id/label maps."""
    entity_labels = _read_label_file(entity_labels_path, "entity")
    relation_labels = _read_label_file(relation_labels_path, "relation")
    triples = _read_triple_file(triples_path)
    if not triples and not allow_empty:
        raise EmptyKg(f"no triples in {triples_path}")
    return Kg(side, entity_labels, relation_labels, triples)
