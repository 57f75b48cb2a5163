"""Embedding storage, similarity search, and path encodings.

Vectors are stored as 32-bit floats; every similarity or aggregation is
accumulated in 64-bit. The on-disk format is sectioned: a text section starts
with ``exea-emb v1 <kind> <count> <dim>`` followed by one ``id<TAB>values``
row per vector, and a binary section starts with ``exea-emb v1b ...`` followed
by packed little-endian records (uint32 id + dim float32 values). One file may
concatenate several sections (entity vectors per side, optional relation
vectors, optional relation-name vectors).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    MalformedLine,
    MissingEmbedding,
    NoRelationVectors,
    ZeroVector,
)
from .kg import Kg, Side, Step

ENTITY_KIND = {Side.SOURCE: "source", Side.TARGET: "target"}
RELATION_KIND = {Side.SOURCE: "source-rel", Side.TARGET: "target-rel"}
NAME_KIND = {Side.SOURCE: "source-rel-name", Side.TARGET: "target-rel-name"}
_KIND_BY_TOKEN = (
    {v: ("entity", k) for k, v in ENTITY_KIND.items()}
    | {v: ("relation", k) for k, v in RELATION_KIND.items()}
    | {v: ("name", k) for k, v in NAME_KIND.items()}
)

_TEXT_MAGIC = "exea-emb v1"
_BINARY_MAGIC = "exea-emb v1b"


def _as_matrix(arr, what: str) -> np.ndarray:
    m = np.asarray(arr, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{what} must be a 2-d array, got shape {m.shape}")
    # check finiteness after the narrowing cast: values past float32 range
    # would otherwise overflow to inf silently
    with np.errstate(over="ignore"):
        out = np.ascontiguousarray(m, dtype=np.float32)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{what} contains non-finite or out-of-range values")
    return out


class EmbeddingStore:
    """Entity vectors per side plus optional relation and relation-name vectors."""

    def __init__(
        self,
        entity_vecs: Mapping[Side, np.ndarray],
        relation_vecs: Mapping[Side, np.ndarray] | None = None,
        name_relation_vecs: Mapping[Side, np.ndarray] | None = None,
    ):
        if not entity_vecs:
            raise ValueError("entity_vecs must cover at least one side")
        self._entity = {side: _as_matrix(m, f"entity vectors ({side.value})") for side, m in entity_vecs.items()}
        self._relation = {
            side: _as_matrix(m, f"relation vectors ({side.value})")
            for side, m in (relation_vecs or {}).items()
        }
        self._name_relation = {
            side: _as_matrix(m, f"relation-name vectors ({side.value})")
            for side, m in (name_relation_vecs or {}).items()
        }
        dims = {m.shape[1] for m in self._entity.values()}
        dims.update(m.shape[1] for m in self._relation.values())
        if len(dims) != 1:
            raise ValueError(f"inconsistent vector dimensions: {sorted(dims)}")
        self.dim = dims.pop()
        # name encodings may have their own dimension, one for both sides
        name_dims = {m.shape[1] for m in self._name_relation.values()}
        if len(name_dims) > 1:
            raise ValueError(f"relation-name vectors differ in dimension: {sorted(name_dims)}")
        self._derived_relation: dict[Side, tuple[Kg, np.ndarray]] = {}
        self._entity_norms: dict[Side, np.ndarray] = {}

    def sides(self) -> list[Side]:
        return [s for s in (Side.SOURCE, Side.TARGET) if s in self._entity]

    def entity_matrix(self, side: Side) -> np.ndarray:
        if side not in self._entity:
            raise MissingEmbedding(f"no entity vectors for side {side.value}")
        return self._entity[side]

    def n_entities(self, side: Side) -> int:
        return self.entity_matrix(side).shape[0]

    def entity_vec(self, side: Side, index: int) -> np.ndarray:
        mat = self.entity_matrix(side)
        if not 0 <= index < mat.shape[0]:
            raise MissingEmbedding(f"entity {index} has no vector on side {side.value}")
        return mat[index].astype(np.float64)

    def entity_norms(self, side: Side) -> np.ndarray:
        """Norms of the side's entity vectors, computed once per side in
        64-bit as ``sqrt(vecdot(v, v))``: the BLAS dot that ``np.linalg.norm``
        takes for one vector, so each equals ``np.linalg.norm(entity_vec(side,
        i))`` bit for bit."""
        got = self._entity_norms.get(side)
        if got is None:
            rows = self.entity_matrix(side).astype(np.float64)
            got = np.sqrt(np.vecdot(rows, rows))
            self._entity_norms[side] = got
        return got

    def has_relation_vecs(self, side: Side) -> bool:
        return side in self._relation

    def relation_vecs(self, side: Side) -> np.ndarray:
        if side not in self._relation:
            raise NoRelationVectors(f"no model relation vectors for side {side.value}")
        return self._relation[side]

    def has_name_relation_vecs(self, side: Side) -> bool:
        return side in self._name_relation

    def name_relation_vecs(self, side: Side) -> np.ndarray:
        if side not in self._name_relation:
            raise NoRelationVectors(f"no relation-name vectors for side {side.value}")
        return self._name_relation[side]

    def relation_matrix(self, kg: Kg) -> np.ndarray:
        """Relation vectors for ``kg``'s side: model-supplied when present,
        otherwise ``derived_relation_matrix(kg)``."""
        if kg.side in self._relation:
            return self._relation[kg.side].astype(np.float64)
        return self.derived_relation_matrix(kg)

    def derived_relation_matrix(self, kg: Kg) -> np.ndarray:
        """Relation vectors for ``kg`` derived by translation, ignoring any
        model-supplied ones: row r is the mean of (subject - object) entity
        vectors over r's triples, a zero row when r has none.

        The result is cached per side for the last graph asked for; the cache
        holds that graph, so a different ``Kg`` on the same side is never
        served another graph's matrix.
        """
        cached = self._derived_relation.get(kg.side)
        if cached is not None and cached[0] is kg:
            return cached[1]
        ents = self.entity_matrix(kg.side).astype(np.float64)
        mat = np.zeros((kg.n_relations, self.dim), dtype=np.float64)
        # the triples grouped by relation, each group in its sorted order, so
        # each mean adds its rows in that order
        s_idx, rel, o_idx = kg.triple_keys[np.argsort(kg.triple_keys[:, 1], kind="stable")].T
        bad = np.maximum(s_idx, o_idx) >= ents.shape[0]
        if bad.any():
            raise MissingEmbedding(f"triples of relation {rel[bad.argmax()]} reference entities without vectors")
        diff = ents[s_idx] - ents[o_idx]
        bounds = np.searchsorted(rel, np.arange(kg.n_relations + 1)).tolist()
        for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if lo < hi:
                mat[r] = diff[lo:hi].mean(axis=0)
        self._derived_relation[kg.side] = (kg, mat)
        return mat


def path_embedding(
    store: EmbeddingStore, kg: Kg, center: int, steps: Sequence[Step]
) -> np.ndarray:
    """Encode the path ``steps`` from ``center`` as ``concat(entity_part,
    relation_part)`` of length 2*dim.

    The entity part averages the anchor entity and the intermediate entities
    (the endpoint is excluded); the relation part averages the step relation
    vectors, whatever the step's direction.
    """
    n = len(steps)
    ent = store.entity_vec(kg.side, center)
    for _, _, u in steps[:-1]:
        ent = ent + store.entity_vec(kg.side, u)
    rel_mat = store.relation_matrix(kg)
    rel = np.zeros(store.dim, dtype=np.float64)
    for _, r, _ in steps:
        if not 0 <= r < rel_mat.shape[0]:
            raise MissingEmbedding(f"relation {r} has no vector on side {kg.side.value}")
        rel = rel + rel_mat[r]
    return np.concatenate([ent / n, rel / n])


def pair_cosines(
    store: EmbeddingStore, side1: Side, rows1: Sequence[int], side2: Side, rows2: Sequence[int]
) -> np.ndarray:
    """Cosine of each pair (``rows1[i]`` on ``side1``, ``rows2[i]`` on ``side2``),
    in 64-bit; a zero-norm vector is an error.

    Equal bit for bit to ``np.dot`` of the two float64 entity vectors over the
    product of their ``np.linalg.norm``: the dot is the same BLAS dot, taken by
    ``np.vecdot`` row by row (a matrix product or an einsum may sum in another
    order), over norms from ``entity_norms``.
    """
    a, b = store.entity_matrix(side1), store.entity_matrix(side2)
    i = np.asarray(rows1, dtype=np.int64)
    j = np.asarray(rows2, dtype=np.int64)
    for idx, mat, side in ((i, a, side1), (j, b, side2)):
        if idx.size and (idx.min() < 0 or idx.max() >= mat.shape[0]):
            raise MissingEmbedding(f"entity index outside store on side {side.value}")
    na, nb = store.entity_norms(side1)[i], store.entity_norms(side2)[j]
    if not (np.all(na) and np.all(nb)):
        raise ZeroVector("cosine is undefined for a zero vector")
    return np.vecdot(a[i].astype(np.float64), b[j].astype(np.float64)) / (na * nb)


def check_rows(store: EmbeddingStore, side: Side, indices) -> np.ndarray:
    """``indices`` as an array, once each is known to name a nonzero entity
    vector on ``side``: an index outside the store is ``MissingEmbedding``,
    and a zero vector is ``ZeroVector`` naming the first in ``indices``'
    order."""
    mat = store.entity_matrix(side)
    idx = np.asarray(list(indices), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= mat.shape[0]):
        raise MissingEmbedding(f"entity index outside store on side {side.value}")
    zero = np.flatnonzero(~mat[idx].any(axis=1))
    if zero.size:
        raise ZeroVector(f"entity {int(idx[zero[0]])} on side {side.value} has a zero vector")
    return idx


def _normalized_rows(store: EmbeddingStore, side: Side, indices) -> np.ndarray:
    """The rows ``indices`` of the side's entity vectors in 64-bit, each over
    its own ``np.linalg.norm``, so a row does not depend on the others asked
    for; the rows are checked by ``check_rows``."""
    rows = store.entity_matrix(side)[check_rows(store, side, indices)].astype(np.float64)
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def similarity_matrix(store: EmbeddingStore, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
    """Dense cosine matrix between source-side rows and target-side rows.

    Each entry is one ``np.vecdot`` of a normalized source row and a
    normalized target row, as in ``similarity_topk``, so a source's row does
    not depend on which other sources are scored with it; a matrix product
    picks its kernel, and with it the order of its sums, by the row count."""
    a = _normalized_rows(store, Side.SOURCE, sources)
    b = _normalized_rows(store, Side.TARGET, targets)
    return np.vecdot(a[:, None, :], b)


# bytes of one score block of similarity_topk and greedy_align: a block
# takes as many source rows as fit, at least one, which bounds its
# temporaries (the scores, their negation and the sort order) however many
# sources and targets there are; no output depends on it, since every score
# is its own np.vecdot
_TOPK_BLOCK_BYTES = 1 << 20


def _cosine_blocks(store: EmbeddingStore, sources: list[int], targets: list[int]):
    """``(start, sims)`` for consecutive blocks of ``sources``, as many rows
    as ``_TOPK_BLOCK_BYTES`` holds scores for: ``sims`` is the block's rows
    of ``similarity_matrix(store, sources, targets)``, each entry one
    ``np.vecdot``, the BLAS dot ``np.dot`` takes, so it does not depend on
    the block; a matrix product would pick its kernel, and with it the
    order of its sums, by the block's row count."""
    if not targets:
        raise ValueError("a similarity search needs at least one target")
    b = _normalized_rows(store, Side.TARGET, targets)
    block = max(1, _TOPK_BLOCK_BYTES // (8 * len(targets)))
    for start in range(0, len(sources), block):
        a = _normalized_rows(store, Side.SOURCE, sources[start : start + block])
        yield start, np.vecdot(a[:, None, :], b)


def similarity_topk(
    store: EmbeddingStore,
    sources: Sequence[int],
    targets: Sequence[int],
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k by cosine: row i holds the k nearest targets of
    ``sources[i]`` (all targets when there are fewer) and their scores,
    descending, ties to the target listed first. Sources are scored in
    blocks (``_cosine_blocks``), so the result does not depend on which
    other sources are asked for with them: one-to-many asks only for the
    sources it queues."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sources = [int(s) for s in sources]
    targets = [int(t) for t in targets]
    width = min(k, len(targets))
    tgt_arr = np.asarray(targets, dtype=np.int64)
    out_idx = np.empty((len(sources), width), dtype=np.int64)
    out_scores = np.empty((len(sources), width), dtype=np.float64)
    for start, sims in _cosine_blocks(store, sources, targets):
        order = np.argsort(-sims, axis=1, kind="stable")[:, :width]
        out_idx[start : start + len(sims)] = tgt_arr[order]
        out_scores[start : start + len(sims)] = np.take_along_axis(sims, order, axis=1)
    return out_idx, out_scores


def greedy_align(
    store: EmbeddingStore, sources: Sequence[int], targets: Sequence[int]
) -> list[tuple[int, int, float]]:
    """Each source takes its nearest target by cosine (ties: lower target
    index), one ``_cosine_blocks`` block at a time, so no source-by-target
    matrix is held."""
    sources = [int(s) for s in sources]
    targets = [int(t) for t in targets]
    if not sources:
        return []
    best = np.empty(len(sources), dtype=np.int64)
    scores = np.empty(len(sources), dtype=np.float64)
    for start, sims in _cosine_blocks(store, sources, targets):
        j = np.argmax(sims, axis=1)
        best[start : start + len(sims)] = j
        scores[start : start + len(sims)] = sims[np.arange(len(sims)), j]
    return list(zip(sources, np.asarray(targets)[best].tolist(), scores.tolist()))


def _section_payload(kind: str, ids: np.ndarray, mat: np.ndarray, binary: bool) -> bytes:
    count, dim = mat.shape
    if binary:
        head = f"{_BINARY_MAGIC} {kind} {count} {dim}\n".encode("utf-8")
        body = io.BytesIO()
        ids32 = ids.astype("<u4")
        rows = mat.astype("<f4")
        for i in range(count):
            body.write(ids32[i].tobytes())
            body.write(rows[i].tobytes())
        return head + body.getvalue()
    # one template per row: "%.9e" formats a float as f"{v:.9e}" does
    row = "%d\t" + " ".join(["%.9e"] * dim) + "\n"
    body = "".join([row % (i, *values) for i, values in zip(ids.tolist(), mat.tolist())])
    return f"{_TEXT_MAGIC} {kind} {count} {dim}\n{body}".encode("utf-8")


def save_embeddings(path: str | Path, store: EmbeddingStore, binary: bool = False) -> None:
    """Write every section the store holds, source side first."""
    chunks = []
    for side in (Side.SOURCE, Side.TARGET):
        for kinds, present, getter in (
            (ENTITY_KIND, side in store._entity, store.entity_matrix),
            (RELATION_KIND, store.has_relation_vecs(side), store.relation_vecs),
            (NAME_KIND, store.has_name_relation_vecs(side), store.name_relation_vecs),
        ):
            if not present:
                continue
            mat = getter(side)
            ids = np.arange(mat.shape[0], dtype=np.int64)
            chunks.append(_section_payload(kinds[side], ids, np.asarray(mat, dtype=np.float64), binary))
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def _parse_header(path, line_no: int, line: str) -> tuple[str, str, int, int]:
    parts = line.split(" ")
    if len(parts) != 5 or parts[0] != "exea-emb" or parts[1] not in ("v1", "v1b"):
        raise MalformedLine(path, line_no, f"bad section header {line!r}")
    token = parts[2]
    if token not in _KIND_BY_TOKEN:
        raise MalformedLine(path, line_no, f"unknown section kind {token!r}")
    try:
        count, dim = int(parts[3]), int(parts[4])
    except ValueError:
        raise MalformedLine(path, line_no, "non-integer count or dim in header") from None
    if count < 1 or dim < 1:
        raise MalformedLine(path, line_no, "count and dim must be positive")
    return parts[1], token, count, dim


def _fill_section(path, token, rows: dict[int, np.ndarray], count: int, dim: int, sections) -> None:
    if sorted(rows) != list(range(count)):
        raise MalformedLine(path, 0, f"section {token!r} ids must be dense 0..{count - 1}")
    mat = np.vstack([rows[i] for i in range(count)])
    family, side = _KIND_BY_TOKEN[token]
    if (family, side) in sections:
        raise MalformedLine(path, 0, f"duplicate section {token!r}")
    sections[(family, side)] = mat.reshape(count, dim)


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Read a sectioned embedding file (text or binary, detected per section)."""
    sections: dict[tuple[str, Side], np.ndarray] = {}
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0
    line_no = 0
    while pos < len(data):
        nl = data.find(b"\n", pos)
        if nl < 0:
            raise MalformedLine(path, line_no + 1, "truncated header")
        line_no += 1
        header = data[pos:nl].decode("utf-8", errors="replace")
        version, token, count, dim = _parse_header(path, line_no, header)
        pos = nl + 1
        rows: dict[int, np.ndarray] = {}
        if version == "v1b":
            rec = 4 + 4 * dim
            need = rec * count
            if len(data) - pos < need:
                raise MalformedLine(path, line_no, f"binary section {token!r} truncated")
            block = data[pos : pos + need]
            for i in range(count):
                off = i * rec
                idx = int(np.frombuffer(block, dtype="<u4", count=1, offset=off)[0])
                vec = np.frombuffer(block, dtype="<f4", count=dim, offset=off + 4).astype(np.float64)
                if idx in rows:
                    raise MalformedLine(path, line_no, f"duplicate id {idx} in section {token!r}")
                rows[idx] = vec
            pos += need
        else:
            for _ in range(count):
                nl = data.find(b"\n", pos)
                if nl < 0:
                    raise MalformedLine(path, line_no + 1, f"text section {token!r} truncated")
                line_no += 1
                text = data[pos:nl].decode("utf-8")
                pos = nl + 1
                cols = text.split("\t")
                if len(cols) != 2:
                    raise MalformedLine(path, line_no, "expected id<TAB>values")
                try:
                    idx = int(cols[0])
                    vec = np.array([float(x) for x in cols[1].split(" ") if x], dtype=np.float64)
                except ValueError:
                    raise MalformedLine(path, line_no, "non-numeric value") from None
                if vec.shape[0] != dim:
                    raise MalformedLine(path, line_no, f"expected {dim} values, got {vec.shape[0]}")
                if idx in rows:
                    raise MalformedLine(path, line_no, f"duplicate id {idx} in section {token!r}")
                rows[idx] = vec
        _fill_section(path, token, rows, count, dim, sections)
    entity = {side: m for (fam, side), m in sections.items() if fam == "entity"}
    relation = {side: m for (fam, side), m in sections.items() if fam == "relation"}
    names = {side: m for (fam, side), m in sections.items() if fam == "name"}
    if not entity:
        raise MalformedLine(path, 0, "file contains no entity sections")
    try:
        return EmbeddingStore(entity, relation or None, names or None)
    except ValueError as exc:  # non-finite or out-of-range values, mixed dimensions
        raise MalformedLine(path, 0, str(exc)) from None
