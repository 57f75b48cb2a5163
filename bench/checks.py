"""Output checks, computed from the files apart from the program.

Each check parses the files itself (alignment and triple TSVs, the sectioned
embedding text format, the JSON reports) and recomputes what it compares
against: sha256 digests, Hits@1, the cosine argmax of an alignment, and the
ADG confidence through ``adg_reference``. Nothing is compared with a stored
copy of an earlier output. Every check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np

import adg_reference

# |reference - program| allowed for an ADG confidence. Both sides compute in
# 64-bit from the same 32-bit vectors and differ only in summation order.
CONFIDENCE_TOLERANCE = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_pairs(path: Path) -> list[tuple[int, int]]:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line:
            s, t = line.split("\t")
            rows.append((int(s), int(t)))
    return rows


def read_triples(path: Path) -> list[tuple[int, int, int]]:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line:
            s, r, o = line.split("\t")
            rows.append((int(s), int(r), int(o)))
    return rows


def count_rows(path: Path) -> int:
    return sum(1 for line in Path(path).read_text(encoding="utf-8").splitlines() if line)


def read_embeddings(path: Path) -> dict[str, np.ndarray]:
    """Sections of a text embedding file by kind ("source", "target", ...).

    Values are narrowed to 32-bit, the precision the program stores, then
    widened again for arithmetic.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    sections: dict[str, np.ndarray] = {}
    pos = 0
    while pos < len(lines):
        magic, version, kind, count, dim = lines[pos].split(" ")
        if (magic, version) != ("exea-emb", "v1"):
            raise ValueError(f"{path}: unexpected section header {lines[pos]!r}")
        count, dim = int(count), int(dim)
        mat = np.full((count, dim), np.nan)
        for line in lines[pos + 1 : pos + 1 + count]:
            idx, values = line.split("\t")
            mat[int(idx)] = [float(v) for v in values.split(" ")]
        sections[kind] = mat.astype(np.float32).astype(np.float64)
        pos += 1 + count
    return sections


def hits1(pairs, gold) -> float:
    """Share of gold pairs present in ``pairs``."""
    gold = set(gold)
    return len(set(pairs) & gold) / len(gold)


def check_manifest(out_dir: Path, outputs: dict[str, Path]) -> list[str]:
    """The manifest next to the outputs names exactly these outputs, each
    with the sha256 of the file as it is now."""
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text(encoding="utf-8"))
    recorded = manifest.get("output_hashes", {})
    problems = []
    if set(recorded) != set(outputs):
        problems.append(f"manifest lists outputs {sorted(recorded)}, expected {sorted(outputs)}")
    for name, path in outputs.items():
        if recorded.get(name) != sha256(path):
            problems.append(f"manifest hash of {name} does not match {path}")
    return problems


def check_fixture(fixture: Path, n: int) -> list[str]:
    """The gold alignment is a bijection of n entities and holds the seeds."""
    gold = read_pairs(fixture / "ent_links")
    seeds = read_pairs(fixture / "train_links")
    problems = []
    if sorted(s for s, _ in gold) != list(range(n)) or sorted(t for _, t in gold) != list(range(n)):
        problems.append("ent_links is not a bijection of the entities")
    if not set(seeds) <= set(gold):
        problems.append("train_links holds pairs outside ent_links")
    return problems


def check_argmax(pred, seeds, emb: dict[str, np.ndarray]) -> list[str]:
    """Every non-seed source appears once, matched to its cosine argmax over
    all targets (ties to the lower index); seed sources do not appear."""
    src, tgt = emb["source"], emb["target"]
    seed_sources = {s for s, _ in seeds}
    expected_sources = [s for s in range(src.shape[0]) if s not in seed_sources]
    problems = []
    if [s for s, _ in pred] != expected_sources:
        return ["prediction rows are not the non-seed sources in order"]
    a = src / np.linalg.norm(src, axis=1, keepdims=True)
    b = tgt / np.linalg.norm(tgt, axis=1, keepdims=True)
    best = np.argmax(a[expected_sources] @ b.T, axis=1)
    wrong = [(s, t) for (s, t), j in zip(pred, best) if t != int(j)]
    if wrong:
        problems.append(f"{len(wrong)} predictions are not the cosine argmax, first {wrong[0]}")
    return problems


def check_trained_embeddings(emb: dict[str, np.ndarray], n1: int, n2: int) -> list[str]:
    problems = []
    for kind, n in (("source", n1), ("target", n2)):
        mat = emb.get(kind)
        if mat is None or mat.shape[0] != n:
            problems.append(f"trained embeddings lack {n} {kind} rows")
        elif not np.all(np.isfinite(mat)):
            problems.append(f"trained {kind} embeddings hold non-finite values")
    return problems


def check_fidelity(report: dict, pred, gold, sample_n: int) -> list[str]:
    """Accuracy and sample size match the benchmark's own count; fidelity and
    sparsity lie in their ranges."""
    correct = len(set(pred) & set(gold))
    problems = []
    if report["accuracy"] != correct / len(gold):
        problems.append(f"accuracy {report['accuracy']} != {correct}/{len(gold)}")
    if report["sample_size"] != min(sample_n, correct):
        problems.append(f"sample_size {report['sample_size']} != min({sample_n}, {correct})")
    if not 0.0 <= report["fidelity"] <= 1.0:
        problems.append(f"fidelity {report['fidelity']} outside [0, 1]")
    if not 0.0 < report["mean_sparsity"] < 1.0:
        problems.append(f"mean_sparsity {report['mean_sparsity']} outside (0, 1)")
    return problems


def check_repair(pairs, seeds, raw, gold, report: dict, n1: int, n2: int) -> list[str]:
    """Injective, seed-preserving, in range, never worse than seeds plus raw,
    and the report's confidences cover exactly the output pairs."""
    problems = []
    sources = Counter(s for s, _ in pairs)
    targets = Counter(t for _, t in pairs)
    if sorted(sources) != list(range(n1)) or max(sources.values()) != 1:
        problems.append("not every source appears exactly once")
    if max(targets.values()) != 1:
        problems.append(f"target {targets.most_common(1)[0][0]} appears twice")
    if not all(0 <= s < n1 and 0 <= t < n2 for s, t in pairs):
        problems.append("an id is out of range")
    pair_set = set(pairs)
    missing = [p for p in seeds if p not in pair_set]
    if missing:
        problems.append(f"seed pair {missing[0]} is missing or changed")
    before = hits1(list(seeds) + list(raw), gold)
    after = hits1(pairs, gold)
    if after < before:
        problems.append(f"repair lowered Hits@1 from {before} to {after}")
    after_rows = report["confidence_after"]
    graded = [(row["source"], row["target"]) for row in after_rows]
    if len(graded) != len(pairs) or set(graded) != pair_set:
        problems.append("confidence_after does not cover exactly the output pairs")
    seed_set = set(seeds)
    for row in after_rows:
        key = (row["source"], row["target"])
        if not 0.0 < row["confidence"] < 1.0:
            problems.append(f"confidence of {key} is {row['confidence']}, outside (0, 1)")
            break
        if (row["provenance"] == "seed") != (key in seed_set):
            problems.append(f"provenance of {key} is {row['provenance']!r}")
            break
    return problems


def load_reference_sides(fixture: Path, emb: dict[str, np.ndarray]):
    sides = []
    for k, kind in (("1", "source"), ("2", "target")):
        n_rel = count_rows(fixture / f"rel_ids_{k}")
        graph = adg_reference.Graph(read_triples(fixture / f"triples_{k}"), n_rel)
        sides.append(adg_reference.Side(graph, emb[kind]))
    return sides


def check_confidences(report: dict, pairs, side1, side2, sample: int, seed: int) -> list[str]:
    """Re-grade a seeded sample of output pairs with the reference, with the
    report's derived not-same-as pairs as the ban list."""
    alignment = dict(pairs)
    banned = {(s, t) for s, t in report["derived_not_same_as"]}
    program = {(row["source"], row["target"]): row["confidence"] for row in report["confidence_after"]}
    picked = random.Random(seed).sample(sorted(pairs), min(sample, len(pairs)))
    problems = []
    for pair in picked:
        ref = adg_reference.confidence(pair, alignment, banned, side1, side2)
        got = program.get(pair)
        if got is None or not math.isclose(ref, got, rel_tol=0.0, abs_tol=CONFIDENCE_TOLERANCE):
            problems.append(f"confidence of {pair}: program {got}, reference {ref}")
    return problems


def governor_case():
    """The hand-computed case of the exea test suite, as plain lists.

    Source: (0 -r0-> 1) with ifunc(r0) = 0.759 and (0 -r1-> 2) with
    ifunc(r1) = 0.757, padded by filler triples away from entities 0-2.
    Target: (1 -r0-> 0) with func(r0) = 0.86 and (0 -r1-> 2) with
    ifunc(r1) = 0.9. Neighbour cosines are 0.96 and 0.937, so both edges are
    Strong and the confidence of (0, 0) is sigmoid(0.96 * 0.759 + 0.937 * 0.757).
    """
    t1 = [(0, 0, 1), (0, 1, 2)]
    n1 = 3
    objs = list(range(n1, n1 + 758))
    n1 += 758
    for i in range(999):
        t1.append((n1, 0, objs[min(i, 757)]))
        n1 += 1
    objs = list(range(n1, n1 + 756))
    n1 += 756
    for i in range(999):
        t1.append((n1, 1, objs[min(i, 755)]))
        n1 += 1
    t2 = [(1, 0, 0), (0, 1, 2)]
    n2 = 3
    subs = list(range(n2, n2 + 42))
    n2 += 42
    for i in range(49):
        t2.append((subs[min(i, 41)], 0, n2))
        n2 += 1
    objs = list(range(n2, n2 + 8))
    n2 += 8
    for i in range(9):
        t2.append((n2, 1, objs[min(i, 7)]))
        n2 += 1
    filler = [math.sqrt(0.5), math.sqrt(0.5)]
    e1 = np.tile(filler, (n1, 1))
    e1[0], e1[1], e1[2] = [0.6, 0.8], [1.0, 0.0], [0.0, 1.0]
    e2 = np.tile(filler, (n2, 1))
    e2[0], e2[1], e2[2] = [0.6, 0.8], [0.96, 0.28], [math.sqrt(1.0 - 0.937**2), 0.937]
    side1 = adg_reference.Side(adg_reference.Graph(t1, 2), e1.astype(np.float32))
    side2 = adg_reference.Side(adg_reference.Graph(t2, 2), e2.astype(np.float32))
    expected = 1.0 / (1.0 + math.exp(-(0.96 * 0.759 + 0.937 * 0.757)))
    return side1, side2, {0: 0, 1: 1, 2: 2}, expected


def check_reference() -> list[str]:
    """The ADG reference reproduces the hand-computed governor case."""
    side1, side2, alignment, expected = governor_case()
    got = adg_reference.confidence((0, 0), alignment, set(), side1, side2)
    if abs(got - expected) > 1e-6:
        return [f"ADG reference gives {got} on the governor case, expected {expected}"]
    return []
