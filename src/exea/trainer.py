"""A small deterministic translational embedding trainer.

Each side's triples are fit with a margin loss on squared translation error
(subject + relation should land on object, corrupted triples should not), and
seed alignment pairs are pulled together by a quadratic penalty so the two
spaces share coordinates. Everything is plain numpy full-batch gradient
descent with seeded negative sampling: the same config always produces the
same store, bit for bit. Sampling redraws a corruption that happens to be a
true triple at most 4 times, so on a small or dense graph an accidental
positive can survive into the batch.

Whether a corruption is a true triple is decided by a binary search over the
sorted true keys, but only for the keys that a residue table marks: every true
key's residue is marked, so the table never hides a true triple, and with
``_SLOTS_PER_TRIPLE`` slots per triple about one false key in that many is
searched at all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingStore
from .errors import ConfigError, EmptyKg, NoSeedsWarning, TrainerFailure
from .kg import Kg, Side


# Step size for the seed-alignment loss 0.5*sum(|e1 - e2|^2). At 0.5 each
# epoch moves both members of a seed pair to their midpoint, the exact
# minimizer of that epoch's alignment term.
_ALIGN_RATE = 0.5

# Slots of the residue table per true triple: about one false key in this
# many shares a residue with a true key and goes on to the exact search.
_SLOTS_PER_TRIPLE = 16


@dataclass(frozen=True)
class TrainConfig:
    dim: int = 32
    epochs: int = 800
    learning_rate: float = 0.02
    negatives_per_positive: int = 2
    margin: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be positive, got {self.dim}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.negatives_per_positive < 1:
            raise ConfigError(
                f"negatives_per_positive must be >= 1, got {self.negatives_per_positive}"
            )
        for name in ("learning_rate", "margin"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _normalize_rows(mat: np.ndarray) -> None:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    np.maximum(norms, 1e-12, out=norms)
    mat /= norms


def _init_side(rng: np.random.Generator, n_ent: int, n_rel: int, dim: int) -> np.ndarray:
    """One side's parameters: ``n_ent`` entity rows, then ``n_rel`` relation rows."""
    ents = rng.standard_normal((n_ent, dim)) / np.sqrt(dim)
    _normalize_rows(ents)
    rels = rng.standard_normal((max(n_rel, 1), dim)) / np.sqrt(dim)
    return np.concatenate([ents, rels[:n_rel]])


def _flat_rows(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Flat indices of ``rows`` in a C-ordered matrix with ``cols.size`` columns.

    ``ufunc.at`` with them on the flattened matrix takes numpy's fast 1-D path
    and applies each element's updates in the order of ``rows``, as the 2-D
    call on the matrix would.
    """
    return (rows[:, None] * cols.size + cols).ravel()


def _gather(mat: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``mat[rows]`` into the head of ``out``. The rows are in range, so mode
    "clip" changes none; it spares ``take`` the copy of ``out`` "raise" makes."""
    return np.take(mat, rows, axis=0, out=out[: rows.size], mode="clip")


class _SideData:
    def __init__(self, kg: Kg):
        if not kg.triple_keys:
            raise EmptyKg(f"cannot train on an empty graph (side {kg.side.value})")
        self.n_ent = kg.n_entities
        self.n_rel = kg.n_relations
        arr = np.asarray(kg.triple_keys, dtype=np.int64)
        self.s, self.r, self.o = arr[:, 0], arr[:, 1], arr[:, 2]
        self.m = arr.shape[0]
        self.r_row = self.r + self.n_ent  # relation rows of the side's parameters
        # the parts of a key (s * n_rel + r) * n_ent + o a corrupted head or tail keeps
        self.head_kept = self.r * self.n_ent + self.o
        self.tail_kept = (self.s * self.n_rel + self.r) * self.n_ent
        self.true_keys = np.sort(self.tail_kept + self.o)
        # marks[key % marks.size] is set for every true key. The size is odd,
        # so a power-of-two entity count does not fold keys onto few residues.
        self.marks = np.zeros(_SLOTS_PER_TRIPLE * self.m - 1, dtype=bool)
        self.marks[self.true_keys % self.marks.size] = True

    def _positive(self, neg, corrupt_head, head_kept, tail_kept) -> np.ndarray:
        """The flat positions of the corruptions that are true triples.

        Only a key whose residue is marked can be one; the binary search over
        the true keys decides for those.
        """
        keys = np.where(
            corrupt_head, neg * (self.n_rel * self.n_ent) + head_kept, tail_kept + neg
        ).reshape(-1)
        hit = np.flatnonzero(self.marks[keys % self.marks.size])
        cand = keys[hit]
        idx = np.minimum(np.searchsorted(self.true_keys, cand), self.true_keys.size - 1)
        return hit[self.true_keys[idx] == cand]

    def sample_negatives(self, rng: np.random.Generator, k: int):
        """Corrupt head or tail uniformly; redraw accidental positives.

        A redraw round draws a full ``(m, k)`` block from ``rng``. After the
        fourth round a slot that is still a true triple is returned as it is.
        """
        neg = rng.integers(0, self.n_ent, size=(self.m, k))
        corrupt_head = rng.integers(0, 2, size=(self.m, k)).astype(bool)
        flat_neg, flat_head = neg.reshape(-1), corrupt_head.reshape(-1)
        slots = self._positive(neg, corrupt_head, self.head_kept[:, None], self.tail_kept[:, None])
        for _ in range(4):
            if not slots.size:
                break
            flat_neg[slots] = rng.integers(0, self.n_ent, size=(self.m, k)).reshape(-1)[slots]
            # only a redrawn slot can have turned into a positive
            rows = slots // k
            slots = slots[self._positive(
                flat_neg[slots], flat_head[slots], self.head_kept[rows], self.tail_kept[rows]
            )]
        s_neg = np.where(corrupt_head, neg, self.s[:, None])
        o_neg = np.where(corrupt_head, self.o[:, None], neg)
        return s_neg, o_neg


def _distances(P, heads, rels, tails, out, tmp) -> np.ndarray:
    """``P[heads] + rels - P[tails]``, evaluated left to right, into ``out``."""
    d = _gather(P, heads, out)
    d += rels
    d -= _gather(P, tails, tmp)
    return d


def _margin_step(P, data: _SideData, s_neg, o_neg, lr: float, margin: float, work) -> float:
    """One gradient step on one side's margin loss, which it returns.

    ``work`` is ``(4, >= m, dim)`` float scratch shared by both sides, so the
    step's large arrays reuse memory instead of faulting in fresh pages.
    """
    flat, cols = P.reshape(-1), np.arange(P.shape[1])
    rel_buf, pos_buf, neg_buf, tmp = work
    s, o = data.s, data.o
    loss = 0.0
    stale = True  # pos_d is unset or P has changed since it was computed
    for j in range(s_neg.shape[1]):
        sj = s_neg[:, j]
        oj = o_neg[:, j]
        rels = _gather(P, data.r_row, rel_buf)
        if stale:
            pos_d = _distances(P, s, rels, o, pos_buf, tmp)
            pos_sq = np.einsum("ij,ij->i", pos_d, pos_d)
        neg_d = _distances(P, sj, rels, oj, neg_buf, tmp)
        neg_sq = np.einsum("ij,ij->i", neg_d, neg_d)
        viol = margin + pos_sq - neg_sq
        act = np.flatnonzero(viol > 0)
        stale = act.size > 0
        if not stale:
            continue
        loss += float(viol[act].sum())
        # tmp and rels are free again until the next column
        g_pos = _gather(pos_d, act, tmp).reshape(-1)
        g_pos *= 2.0 * lr
        g_neg = _gather(neg_d, act, rel_buf).reshape(-1)
        g_neg *= 2.0 * lr
        # subtracting g adds -g bit for bit; the order per element is s, o, r, sj, oj, r
        r_idx = _flat_rows(data.r_row[act], cols)
        np.subtract.at(flat, _flat_rows(s[act], cols), g_pos)
        np.add.at(flat, _flat_rows(o[act], cols), g_pos)
        np.subtract.at(flat, r_idx, g_pos)
        np.add.at(flat, _flat_rows(sj[act], cols), g_neg)
        np.subtract.at(flat, _flat_rows(oj[act], cols), g_neg)
        np.add.at(flat, r_idx, g_neg)
    return loss


def train(
    kg1: Kg,
    kg2: Kg,
    seed_alignment,
    cfg: TrainConfig,
    return_losses: bool = False,
):
    """Fit entity and relation vectors for both sides.

    ``seed_alignment`` is an iterable of (source, target) index pairs; without
    any, a warning is issued and the two spaces are trained independently.
    """
    d1 = _SideData(kg1)
    d2 = _SideData(kg2)
    seeds = [(int(a), int(b)) for a, b in seed_alignment]
    if not all(0 <= a < d1.n_ent and 0 <= b < d2.n_ent for a, b in seeds):
        raise ConfigError("seed alignment references entities outside the graphs")
    if not seeds:
        warnings.warn(
            "training without seed pairs: the two embedding spaces are not aligned",
            NoSeedsWarning,
            stacklevel=2,
        )
    rng = np.random.default_rng(cfg.seed)
    P1 = _init_side(rng, d1.n_ent, d1.n_rel, cfg.dim)
    P2 = _init_side(rng, d2.n_ent, d2.n_rel, cfg.dim)
    E1, R1 = P1[: d1.n_ent], P1[d1.n_ent :]
    E2, R2 = P2[: d2.n_ent], P2[d2.n_ent :]
    if seeds:
        s1 = np.asarray([a for a, _ in seeds], dtype=np.int64)
        s2 = np.asarray([b for _, b in seeds], dtype=np.int64)
        cols = np.arange(cfg.dim)
        seed_at1, seed_at2 = _flat_rows(s1, cols), _flat_rows(s2, cols)

    m = max(d1.m, d2.m)
    work = np.empty((4, m, cfg.dim))
    losses = []
    # divergence shows up as non-finite parameters, checked below, so the
    # intermediate overflow warnings carry no extra information
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            total = 0.0
            for P, data in ((P1, d1), (P2, d2)):
                s_neg, o_neg = data.sample_negatives(rng, cfg.negatives_per_positive)
                total += _margin_step(P, data, s_neg, o_neg, cfg.learning_rate, cfg.margin, work)
            if seeds:
                diff = E1[s1] - E2[s2]
                total += float(np.einsum("ij,ij->i", diff, diff).sum())
                step = (_ALIGN_RATE * diff).ravel()
                np.subtract.at(P1.reshape(-1), seed_at1, step)
                np.add.at(P2.reshape(-1), seed_at2, step)
            _normalize_rows(E1)
            _normalize_rows(E2)
            losses.append(total)

    for mat in (E1, E2, R1, R2):
        with np.errstate(over="ignore"):
            narrowed = mat.astype(np.float32)
        if not np.all(np.isfinite(narrowed)):
            raise TrainerFailure("training diverged: non-finite parameters")
    rel_vecs = {}
    if d1.n_rel:
        rel_vecs[Side.SOURCE] = R1
    if d2.n_rel:
        rel_vecs[Side.TARGET] = R2
    store = EmbeddingStore(
        {Side.SOURCE: E1, Side.TARGET: E2},
        relation_vecs=rel_vecs or None,
    )
    return (store, losses) if return_losses else store
