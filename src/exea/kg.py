"""Indexed knowledge-graph triple stores.

A graph lives on one side of an alignment task (source or target). Entities
and relations are dense integer indices; their human-readable labels sit in
``Kg.entity_labels`` and ``Kg.relation_labels`` and are read only where output
is written. A graph keeps two stores: ``triple_keys``, its distinct
(subject, relation, object) triples sorted, the only store that holds
self-loops; and the step index ``step_keys``/``step_start``, every entity's
steps in walk order, which ``Kg.steps`` reads and every graph walk goes
through. Per-relation functionality statistics, used as edge weights
elsewhere, sit in the arrays ``func`` and ``ifunc``.

A path from a center is a tuple of step keys, one per traversed edge: (0
outgoing / 1 incoming, relation, entity reached). Outgoing means the anchor of
the step was the triple's subject. Where both sides meet (explanation
triples, cross-graph triples, mined rules), a side is the int 0 for the
source graph and 1 for the target graph, its position in ``SIDES``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, EmptyKg, MalformedLine, UnknownId, UnknownRelation

MAX_HOPS = 2


class Side(Enum):
    SOURCE = "source"
    TARGET = "target"


# a side's int tag is its position here: 0 source, 1 target
SIDES = tuple(Side)

# one step of a path: (0 outgoing / 1 incoming, relation, entity reached)
Step = tuple[int, int, int]


def check_hops(h: int) -> None:
    """The one hop-bound rule: ``h`` is an integer in [1, MAX_HOPS]."""
    if not isinstance(h, int) or not 1 <= h <= MAX_HOPS:
        raise ConfigError(f"h must be an integer in [1, {MAX_HOPS}], got {h!r}")


class Kg:
    """An immutable, fully indexed triple store for one side.

    Attributes
    ----------
    triple_keys : the distinct (subject, relation, object) triples, sorted;
        self-loops are kept here only.
    step_keys / step_start : the steps a path can take, as int64 (0 out / 1 in,
        relation, entity reached) rows; entity v's, without self-loops, are
        ``step_keys[step_start[v]:step_start[v + 1]]``, in walk order, which
        ``steps(v)`` returns.
    func / ifunc : float64 per-relation functionality statistics, |distinct
        subjects| / |triples| and |distinct objects| / |triples|, NaN for a
        relation without triples; a relation is functional (value 1.0) when
        no subject repeats, and inverse-functional when no object repeats.
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
        s, r, o = np.array(keys, dtype=np.int64).reshape(-1, 3).T

        # distinct subjects (objects) per relation over its triple count; the
        # distinct keys come from np.sort, since np.unique's first call in a
        # process imports numpy.ma, about 10 ms
        count = np.bincount(r, minlength=n_rel)
        used = count > 0
        self.func = np.full(n_rel, np.nan)
        self.ifunc = np.full(n_rel, np.nan)
        for table, end in ((self.func, s), (self.ifunc, o)):
            key = np.sort(r * n_ent + end)
            distinct = np.bincount(key[np.diff(key, prepend=-1) != 0] // n_ent, minlength=n_rel)
            table[used] = distinct[used] / count[used]

        # a triple is an outgoing step from its subject, an incoming one from its object
        loop = s == o
        s, r, o = s[~loop], r[~loop], o[~loop]
        anchor = np.concatenate([s, o])
        steps = np.stack([np.repeat([0, 1], s.size), np.concatenate([r, r]), np.concatenate([o, s])], axis=1)
        order = np.lexsort((steps[:, 2], steps[:, 1], steps[:, 0], anchor))
        self.step_keys = steps[order]
        self.step_start = np.searchsorted(anchor[order], np.arange(n_ent + 1))

    @property
    def n_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def n_relations(self) -> int:
        return len(self.relation_labels)

    @property
    def triple_keys(self) -> tuple[tuple[int, int, int], ...]:
        return self._triple_keys

    def check_entity(self, index: int) -> int:
        """``index`` itself; UnknownId when it is outside the graph."""
        if not 0 <= index < self.n_entities:
            raise UnknownId(f"entity id {index} outside [0, {self.n_entities}) on side {self.side.value}")
        return index

    def steps(self, v: int) -> np.ndarray:
        """Entity ``v``'s step rows, in walk order."""
        return self.step_keys[self.step_start[v] : self.step_start[v + 1]]

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


def _relation_stat(kg: Kg, table: np.ndarray, r: int) -> float:
    if not 0 <= r < kg.n_relations or np.isnan(table[r]):
        raise UnknownRelation(f"relation {r} has no triples on side {kg.side.value}")
    return float(table[r])


def functionality(kg: Kg, r: int) -> float:
    """|distinct subjects| / |triples| for relation ``r``."""
    return _relation_stat(kg, kg.func, r)


def inverse_functionality(kg: Kg, r: int) -> float:
    """|distinct objects| / |triples| for relation ``r``."""
    return _relation_stat(kg, kg.ifunc, r)


def _hop_distances(kg: Kg, start: int, cutoff: int) -> dict[int, int]:
    """Undirected BFS distances from ``start`` up to ``cutoff`` hops."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if dist[v] == cutoff:
            continue
        for u in kg.steps(v)[:, 2].tolist():
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def neighborhood_entities(kg: Kg, e: int, h: int) -> list[int]:
    """Entity indices within ``h`` undirected hops of ``e``, excluding ``e`` itself."""
    check_hops(h)
    start = kg.check_entity(int(e))
    dist = _hop_distances(kg, start, h)
    return sorted(v for v in dist if v != start)


def neighborhood_triples(kg: Kg, e: int, h: int) -> list[tuple[int, int, int]]:
    """Triples reachable by an undirected breadth-first expansion of at most ``h`` edges.

    A triple belongs to the neighborhood when one of its endpoints lies within
    ``h - 1`` hops of ``e``, i.e. the triple's own edge is the at-most-h-th
    traversed edge. Returned as (subject, relation, object) keys, sorted.
    """
    check_hops(h)
    start = kg.check_entity(int(e))
    triples = kg.triple_keys
    keys: set[tuple[int, int, int]] = set()
    for v in _hop_distances(kg, start, h - 1):
        # v's out-triples, self-loops included, are its run of the sorted
        # triples; its in-triples are its incoming steps
        lo = bisect_left(triples, (v,))
        keys.update(triples[lo : bisect_left(triples, (v + 1,), lo)])
        keys.update((u, r, v) for incoming, r, u in kg.steps(v).tolist() if incoming)
    return sorted(keys)


def enumerate_paths(kg: Kg, e: int, h: int) -> list[tuple[Step, ...]]:
    """All simple paths of length 1..h starting at ``e``, in lexicographic step
    order, each as its tuple of step keys.

    Both edge directions are traversed; an outgoing step (0) follows a triple
    whose subject is the current anchor, an incoming step (1) one whose object
    is. Paths never revisit an entity.
    """
    check_hops(h)
    start = kg.check_entity(int(e))
    keys: list[tuple[Step, ...]] = []

    def walk(v: int, visited: set[int], prefix: tuple[Step, ...]) -> None:
        for step in map(tuple, kg.steps(v).tolist()):
            u = step[2]
            if u in visited:
                continue
            steps = prefix + (step,)
            keys.append(steps)
            if len(steps) < h:
                walk(u, visited | {u}, steps)

    walk(start, {start}, ())
    return keys


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


def _read_triple_file(path: str | Path, n_ent: int, n_rel: int) -> list[tuple[int, int, int]]:
    """The triples of ``path``; an id outside its label file's range is a
    malformed line."""
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
                s, r, o = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise MalformedLine(path, line_no, "non-integer id in triple") from None
            for what, x, n in (("subject", s, n_ent), ("relation", r, n_rel), ("object", o, n_ent)):
                if not 0 <= x < n:
                    raise MalformedLine(path, line_no, f"{what} id {x} outside [0, {n})")
            triples.append((s, r, o))
    return triples


def load_kg(
    triples_path: str | Path,
    entity_labels_path: str | Path,
    relation_labels_path: str | Path,
    side: Side,
) -> Kg:
    """Load one side from TSV files: triples (3 int columns) plus id/label maps."""
    entity_labels = _read_label_file(entity_labels_path, "entity")
    relation_labels = _read_label_file(relation_labels_path, "relation")
    triples = _read_triple_file(triples_path, len(entity_labels), len(relation_labels))
    if not triples:
        raise EmptyKg(f"no triples in {triples_path}")
    return Kg(side, entity_labels, relation_labels, triples)
