"""Metrics and experiment harness: accuracy, explanation sparsity,
retrain-based fidelity, and repair-stage ablations.

Fidelity follows a remove-and-retrain protocol: for a sample of correctly
predicted pairs, every candidate triple outside the sampled explanations is
removed from both graphs, the embeddings are retrained once on the stripped
dataset, and the surviving fraction of correct greedy predictions is reported.
A triple inside any sampled explanation is kept even when another sample would
have removed it.

A set of triples holds (side, subject, relation, object) keys, side 0 for
the source graph and 1 for the target graph, as in
``Explanation.triple_keys`` and ``candidate_triples``.
"""

import time
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .embedding import EmbeddingStore, greedy_align
from .errors import ConfigError, EmptyCandidates, NotSubset
from .explain import TripleKey, candidate_triples
from .kg import SIDES, Kg
from .repair import RepairConfig, repair
from .trainer import TrainConfig, train

STAGE_NAMES = ("full", "no_cr1", "no_cr2", "no_cr3", "none")

# toggles: (relation repair, one-to-many resolution, low-confidence resolution)
_STAGE_TOGGLES = {
    "full": (True, True, True),
    "no_cr1": (False, True, True),
    "no_cr2": (True, False, True),
    "no_cr3": (True, True, False),
    "none": (False, False, False),
}


def sparsity(candidates: set, kept: set) -> float:
    """Fraction of candidate triples the explanation leaves out."""
    if not candidates:
        raise EmptyCandidates("sparsity needs a non-empty candidate set")
    if not kept <= candidates:
        raise NotSubset("explanation triples must come from the candidate set")
    return 1.0 - len(kept) / len(candidates)


def accuracy(predicted: Iterable[tuple[int, int]], gold: Iterable[tuple[int, int]]) -> float:
    """Fraction of gold pairs present in the prediction."""
    gold_set = {(int(s), int(t)) for s, t in gold}
    if not gold_set:
        raise ConfigError("gold alignment is empty")
    pred_set = {(int(s), int(t)) for s, t in predicted}
    return len(pred_set & gold_set) / len(gold_set)


def sample_correct_pairs(
    predicted: Iterable[tuple[int, int]],
    gold: Iterable[tuple[int, int]],
    n: int,
    rng_seed: int = 0,
) -> list[tuple[int, int]]:
    """Deterministic sample of up to ``n`` correctly predicted pairs."""
    gold_set = {(int(s), int(t)) for s, t in gold}
    correct = sorted({(int(s), int(t)) for s, t in predicted} & gold_set)
    if len(correct) <= n:
        return correct
    rng = np.random.default_rng(rng_seed)
    picked = rng.choice(len(correct), size=n, replace=False)
    return [correct[i] for i in sorted(picked)]


def strip_triples(kg: Kg, removed: set[TripleKey]) -> Kg:
    """Copy of the graph without the removed triples of its side; labels are
    untouched."""
    side = SIDES.index(kg.side)
    banned = np.array([key[1:] for key in removed if key[0] == side], dtype=np.int64).reshape(-1, 3)
    # the banned rows are distinct, as the set's keys are, so a stable sort
    # puts each removed triple right before the one banned row equal to it
    rows = np.concatenate([kg.triple_keys, banned])
    order = np.lexsort(rows.T[::-1])
    gone = order[:-1][(np.diff(rows[order], axis=0) == 0).all(axis=1)]
    return Kg(kg.side, kg.entity_labels, kg.relation_labels, np.delete(kg.triple_keys, gone, axis=0))


def random_matched_explanations(
    kg1: Kg,
    kg2: Kg,
    explanations: Mapping[tuple[int, int], set],
    h: int = 2,
    rng_seed: int = 0,
) -> dict[tuple[int, int], set]:
    """Size-matched random baseline: for each pair, a uniform subset of its
    candidate triples with the same cardinality as the given explanation, so
    per-pair sparsity matches exactly."""
    rng = np.random.default_rng(rng_seed)
    out = {}
    for pair in sorted(explanations):
        cands = sorted(candidate_triples(kg1, kg2, pair, h))
        size = min(len(explanations[pair]), len(cands))
        picked = rng.choice(len(cands), size=size, replace=False) if cands else []
        out[pair] = {cands[i] for i in picked}
    return out


def fidelity(
    kg1: Kg,
    kg2: Kg,
    seeds: Iterable[tuple[int, int]],
    explanations: Mapping[tuple[int, int], set],
    trainer_cfg: TrainConfig,
    h: int = 2,
) -> float:
    """Fraction of the sampled pairs still predicted correctly after the
    remove-and-retrain protocol. ``explanations`` maps each sampled pair to
    its kept triple set."""
    if not explanations:
        raise ConfigError("fidelity needs at least one sampled explanation")
    pairs = sorted((int(s), int(t)) for s, t in explanations)
    if len({s for s, _ in pairs}) != len(pairs):
        raise ConfigError("sampled pairs must have distinct source entities")
    keep: set[TripleKey] = set()
    all_candidates: set[TripleKey] = set()
    for pair in pairs:
        cands = candidate_triples(kg1, kg2, pair, h)
        kept = set(explanations[pair])
        if not kept <= cands:
            raise NotSubset(f"explanation for pair {pair} leaves its candidate set")
        all_candidates |= cands
        keep |= kept
    removed = all_candidates - keep
    kg1_stripped = strip_triples(kg1, removed)
    kg2_stripped = strip_triples(kg2, removed)
    store = train(kg1_stripped, kg2_stripped, seeds, trainer_cfg)
    expected = dict(pairs)
    predicted = greedy_align(store, sorted(expected), range(kg2.n_entities))
    still_correct = sum(1 for s, t, _ in predicted if expected[s] == t)
    return still_correct / len(pairs)


@dataclass
class EvalReport:
    accuracy: float
    mean_sparsity: float
    fidelity: float | None
    per_stage_accuracy: dict[str, float]
    sample_size: int
    empty_explanations: int
    config: dict
    timings: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        # timings stay out: written artifacts must be identical across reruns
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "timings"}


def explanation_sparsity_stats(
    kg1: Kg,
    kg2: Kg,
    explanations: Mapping[tuple[int, int], set],
    h: int = 2,
) -> tuple[float, int]:
    """Mean sparsity over the pairs plus the count of empty explanations,
    which stand in for matches the semantics could not justify."""
    values = []
    empty = 0
    for pair in sorted(explanations):
        kept = explanations[pair]
        if not kept:
            empty += 1
        values.append(sparsity(candidate_triples(kg1, kg2, pair, h), kept))
    return (sum(values) / len(values) if values else 0.0), empty


def ablation(
    kg1: Kg,
    kg2: Kg,
    store: EmbeddingStore,
    raw_alignment: Iterable[tuple[int, int]],
    seeds: Iterable[tuple[int, int]],
    gold: Iterable[tuple[int, int]],
    cfg: RepairConfig | None = None,
    stages: Iterable[str] = STAGE_NAMES,
) -> EvalReport:
    """Repair once per requested stage combination and report the accuracy of
    each run, plus sparsity stats for the fully repaired explanations."""
    cfg = cfg or RepairConfig()
    raw = [(int(s), int(t)) for s, t in raw_alignment]
    gold_pairs = [(int(s), int(t)) for s, t in gold]
    stages = list(stages)
    if not stages:
        raise ConfigError("ablation needs at least one stage")
    unknown = [s for s in stages if s not in _STAGE_TOGGLES]
    if unknown:
        raise ConfigError(f"unknown ablation stages: {unknown}")

    per_stage: dict[str, float] = {}
    timings: dict[str, float] = {}
    full_result = None
    for name in stages:
        cr1, cr2, cr3 = _STAGE_TOGGLES[name]
        stage_cfg = replace(
            cfg,
            enable_relation_repair=cr1,
            enable_one_to_many=cr2,
            enable_low_confidence=cr3,
        )
        started = time.perf_counter()
        result = repair(kg1, kg2, store, raw, seeds, stage_cfg)
        timings[name] = time.perf_counter() - started
        per_stage[name] = accuracy(result.pairs, gold_pairs)
        if name == "full":
            full_result = result

    mean_sparsity, empty = 0.0, 0
    if full_result is not None:
        triples_by_pair = {
            pair: adg.explanation.triple_keys for pair, adg in full_result.adgs.items()
        }
        mean_sparsity, empty = explanation_sparsity_stats(kg1, kg2, triples_by_pair, cfg.h)

    return EvalReport(
        accuracy=per_stage.get("full", per_stage[stages[0]]),
        mean_sparsity=mean_sparsity,
        fidelity=None,
        per_stage_accuracy=per_stage,
        sample_size=len(gold_pairs),
        empty_explanations=empty,
        config={"repair": asdict(cfg), "stages": stages},
        timings=timings,
    )
