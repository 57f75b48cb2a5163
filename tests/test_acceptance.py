"""Release gate checks, one per criterion, each printing a pass/fail line.

Heavy artifacts are shared: the 60-run repair grid (rng seeds 1-20 crossed
with three conflict-injection rates at n=200) feeds criteria 3, 4, and 5, and
the n=500 fidelity comparison stands alone. Run with
``pytest tests/test_acceptance.py -s`` to see the summary lines.
"""

import dataclasses
import itertools
import time
from dataclasses import dataclass

import numpy as np
import pytest

from exea.adg import AdgConfig, aggregate_confidence, build_adg, sigmoid
from exea.cli import main
from exea.embedding import EmbeddingStore, greedy_align
from exea.evaluate import (
    accuracy,
    explanation_sparsity_stats,
    fidelity,
    random_matched_explanations,
    sample_correct_pairs,
)
from exea.explain import explanation, match_paths
from exea.kg import Side, neighborhood_entities
from exea.repair import RepairConfig, mine_not_same_as_rules, repair
from exea.synth import SynthConfig, generate_pair, write_dataset
from exea.trainer import TrainConfig

from test_explain import matched_neighbors, oracle_mutual_best
from test_kg import make_kg
from test_repair import brute_force_rules


def report(num: int, ok: bool, detail: str) -> str:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return detail


GRID_SEEDS = tuple(range(1, 21))
GRID_CONFLICTS = (0.0, 0.1, 0.2)


@dataclass
class GridRun:
    seed: int
    conflict: float
    injective: bool
    acc_raw: float
    acc_repaired: float
    repair_seconds: float
    stage_costs: dict[str, float] | None


def read_pairs(path):
    return [tuple(int(x) for x in line.split("\t"))
            for line in path.read_text().splitlines()]


def run_grid_cell(seed: int, conflict: float, workdir) -> GridRun:
    result = generate_pair(SynthConfig(
        n_entities=200, conflict_injection=conflict, rng_seed=seed,
    ))
    data = workdir / "data"
    write_dataset(result, data)
    raw_path = workdir / "raw.tsv"
    assert main([
        "infer", "--kg1", str(data / "triples_1"),
        "--kg2", str(data / "triples_2"),
        "--emb", str(data / "embeddings.tsv"),
        "--seeds", str(data / "train_links"), "--out", str(raw_path),
    ]) == 0
    started = time.perf_counter()
    assert main([
        "repair", "--kg1", str(data / "triples_1"),
        "--kg2", str(data / "triples_2"),
        "--emb", str(data / "embeddings.tsv"),
        "--seeds", str(data / "train_links"), "--pred", str(raw_path),
        "--out", str(workdir / "a_star.tsv"),
        "--report", str(workdir / "report.json"),
    ]) == 0
    repair_seconds = time.perf_counter() - started

    repaired = read_pairs(workdir / "a_star.tsv")
    raw = read_pairs(raw_path)
    gold = read_pairs(data / "ent_links")
    seeds = read_pairs(data / "train_links")
    sources = [s for s, _ in repaired]
    targets = [t for _, t in repaired]
    injective = (len(set(sources)) == len(sources)
                 and len(set(targets)) == len(targets))
    acc_raw = accuracy(seeds + raw, gold)
    acc_repaired = accuracy(repaired, gold)

    stage_costs = None
    if conflict == 0.2:
        raw_pairs = [(s, t) for s, t, _ in greedy_align(
            result.perturbed_store,
            [s for s in range(200) if s not in {a for a, _ in result.seeds}],
            range(200),
        )]
        stage_costs = {}
        for name, flags in (
            ("no_cr1", (False, True, True)),
            ("no_cr2", (True, False, True)),
            ("no_cr3", (True, True, False)),
        ):
            cfg = dataclasses.replace(
                RepairConfig(),
                enable_relation_repair=flags[0],
                enable_one_to_many=flags[1],
                enable_low_confidence=flags[2],
            )
            out = repair(result.kg1, result.kg2, result.perturbed_store,
                         raw_pairs, result.seeds, cfg)
            stage_costs[name] = acc_repaired - accuracy(out.pairs, gold)

    return GridRun(seed, conflict, injective, acc_raw, acc_repaired,
                   repair_seconds, stage_costs)


@pytest.fixture(scope="module")
def repair_grid(tmp_path_factory):
    root = tmp_path_factory.mktemp("grid")
    runs = []
    for seed, conflict in itertools.product(GRID_SEEDS, GRID_CONFLICTS):
        cell = root / f"s{seed}_c{int(conflict * 10)}"
        cell.mkdir()
        runs.append(run_grid_cell(seed, conflict, cell))
    return runs


def test_criterion_1_reference_confidence(governor_case):
    c = governor_case
    started = time.perf_counter()
    expl = explanation((0, 0), c["kg1"], c["kg2"], c["store"], c["alignments"], h=2)
    [adg] = build_adg([expl], c["store"])
    elapsed = time.perf_counter() - started
    ok = abs(adg.confidence - 0.808) <= 1e-3 and elapsed < 1.0
    detail = report(1, ok, f"confidence {adg.confidence:.5f} "
                           f"(target 0.808 +/- 0.001) in {elapsed:.3f}s")
    assert ok, detail


def test_criterion_2_gated_confidence():
    checked = 0
    for theta, gamma in ((0.5, 0.3), (0.7, 0.5), (0.2, 0.1)):
        cfg = AdgConfig(theta=theta, gamma=gamma)
        c_s_grid = list(np.linspace(0.0, 1.0, 11)) + [theta - 1e-6, theta, theta + 1e-6]
        c_m_grid = list(np.linspace(0.0, 1.0, 11)) + [gamma - 1e-6, gamma, gamma + 1e-6]
        c_w_grid = np.linspace(0.0, 1.0, 6)
        for c_s, c_m, c_w in itertools.product(c_s_grid, c_m_grid, c_w_grid):
            arg = float(c_s)
            if c_s < theta:
                arg += float(c_m)
                if c_m < gamma:
                    arg += float(c_w)
            got = aggregate_confidence(float(c_s), float(c_m), float(c_w), cfg)
            assert got == pytest.approx(sigmoid(arg), abs=1e-12), (c_s, c_m, c_w)
            checked += 1
    beta = RepairConfig().effective_beta()
    ok = (AdgConfig().theta == 0.5
          and beta == pytest.approx(sigmoid(0.5))
          and abs(beta - 0.6225) < 1e-4)
    detail = report(2, ok, f"{checked} grid points gate correctly; "
                           f"default floor sigmoid(0.5) = {beta:.4f}")
    assert ok, detail


def test_criterion_3_injectivity(repair_grid):
    bad = [(r.seed, r.conflict) for r in repair_grid if not r.injective]
    slowest = max(r.repair_seconds for r in repair_grid)
    ok = not bad and slowest < 30.0
    detail = report(3, ok, f"{len(repair_grid) - len(bad)}/{len(repair_grid)} "
                           f"fixtures injective, slowest repair {slowest:.1f}s")
    assert ok, detail


def test_criterion_4_repair_never_hurts(repair_grid):
    regressions = [
        (r.seed, r.conflict, r.acc_raw, r.acc_repaired)
        for r in repair_grid if r.acc_repaired < r.acc_raw
    ]
    deltas = [r.acc_repaired - r.acc_raw for r in repair_grid if r.conflict > 0]
    mean_delta = sum(deltas) / len(deltas)
    ok = not regressions and mean_delta > 0
    detail = report(4, ok, f"accuracy preserved on {len(repair_grid)}/60 runs, "
                           f"mean gain {mean_delta:+.4f} where conflicts were injected")
    assert ok, detail


def test_criterion_5_one_to_many_stage_dominates(repair_grid):
    costly = 0
    runs = [r for r in repair_grid if r.stage_costs is not None]
    for r in runs:
        c = r.stage_costs
        if c["no_cr2"] > c["no_cr1"] and c["no_cr2"] > c["no_cr3"]:
            costly += 1
    ok = len(runs) == 20 and costly >= 15
    detail = report(5, ok, f"disabling one-to-many resolution costs most "
                           f"on {costly}/{len(runs)} seeds (need >= 15)")
    assert ok, detail


def test_criterion_6_fidelity_beats_random():
    started = time.perf_counter()
    result = generate_pair(SynthConfig(
        n_entities=500, rename_noise=0.3, seed_fraction=0.2, rng_seed=0,
    ))
    n = result.cfg.n_entities
    free = [s for s in range(n) if s not in {a for a, _ in result.seeds}]
    raw = [(s, t) for s, t, _ in greedy_align(result.perturbed_store, free, range(n))]
    sample = sample_correct_pairs(raw, result.gold, 100, rng_seed=0)
    context = dict(list(result.seeds) + raw)
    expl = {
        pair: explanation(pair, result.kg1, result.kg2,
                          result.perturbed_store, context, 2).triple_keys
        for pair in sample
    }
    rand = random_matched_explanations(result.kg1, result.kg2, expl, h=2, rng_seed=0)
    mean_sp, _ = explanation_sparsity_stats(result.kg1, result.kg2, expl, 2)
    rand_sp, _ = explanation_sparsity_stats(result.kg1, result.kg2, rand, 2)
    cfg = TrainConfig(seed=7)
    fid = fidelity(result.kg1, result.kg2, result.seeds, expl, cfg, h=2)
    fid_rand = fidelity(result.kg1, result.kg2, result.seeds, rand, cfg, h=2)
    elapsed = time.perf_counter() - started
    ok = (len(sample) == 100
          and abs(mean_sp - rand_sp) <= 0.02
          and fid - fid_rand >= 0.05
          and elapsed < 300.0)
    detail = report(6, ok, f"fidelity {fid:.3f} vs random {fid_rand:.3f} "
                           f"(gap {fid - fid_rand:+.3f}, need >= 0.05) at matched "
                           f"sparsity {mean_sp:.3f}/{rand_sp:.3f} in {elapsed:.0f}s")
    assert ok, detail


def test_criterion_7_rule_miner_matches_brute_force():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    graphs = mismatches = total_rules = 0
    for g in range(10):
        triples = set()
        while len(triples) < 300:
            s, o = (int(x) for x in rng.integers(0, 80, size=2))
            if s != o:
                triples.add((s, int(rng.integers(0, 6)), o))
        side = Side.SOURCE if g % 2 == 0 else Side.TARGET
        kg = make_kg(80, sorted(triples), n_rel=6, side=side)
        mined = {(rule.r1, rule.r2) for rule in mine_not_same_as_rules(kg)}
        expected = brute_force_rules(kg)
        graphs += 1
        total_rules += len(expected)
        if mined != expected:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = graphs == 10 and mismatches == 0 and total_rules > 0 and elapsed < 10.0
    detail = report(7, ok, f"{graphs - mismatches}/{graphs} graphs identical to "
                           f"brute force ({total_rules} rules) in {elapsed:.1f}s")
    assert ok, detail


def random_graph(rng, n_ent, n_rel, n_triples, side=Side.SOURCE):
    triples = set()
    while len(triples) < n_triples:
        s, o = (int(x) for x in rng.integers(0, n_ent, size=2))
        if s != o:
            triples.add((s, int(rng.integers(0, n_rel)), o))
    return make_kg(n_ent, sorted(triples), n_rel=n_rel, side=side)


def test_criterion_8_explanation_oracles():
    rng = np.random.default_rng(88)
    neighbor_checks = path_checks = 0
    for _ in range(50):
        n1 = int(rng.integers(8, 31))
        n2 = int(rng.integers(8, 31))
        kg1 = random_graph(rng, n1, 3, 2 * n1)
        kg2 = random_graph(rng, n2, 3, 2 * n2, side=Side.TARGET)
        store = EmbeddingStore({
            Side.SOURCE: rng.normal(size=(n1, 6)),
            Side.TARGET: rng.normal(size=(n2, 6)),
        })
        aligned_sources = rng.choice(n1, size=min(n1, 10), replace=False)
        alignments = {int(s): int(rng.integers(0, n2)) for s in aligned_sources}
        e1, e2 = int(rng.integers(0, n1)), int(rng.integers(0, n2))

        got = set(matched_neighbors((e1, e2), kg1, kg2, alignments, 2))
        hood1 = set(neighborhood_entities(kg1, e1, 2))
        hood2 = set(neighborhood_entities(kg2, e2, 2))
        expected = {
            (a, b) for a in hood1 for b in hood2
            if alignments.get(a) == b and (a, b) != (e1, e2)
        }
        assert got == expected, (e1, e2)
        # the library reads the same pairs off its path indexes
        expl = explanation((e1, e2), kg1, kg2, store, alignments, 2)
        assert expl.matched_neighbor_pairs == sorted(expected), (e1, e2)
        neighbor_checks += 1

        for pair in sorted(expected)[:3]:
            got_paths = match_paths((e1, e2), pair, store, kg1, kg2, 2)
            oracle = oracle_mutual_best(store, kg1, kg2, (e1, e2), pair, 2)
            assert [(a, b) for a, b, _ in got_paths] == [(a, b) for a, b, _ in oracle]
            for (_, _, s_got), (_, _, s_exp) in zip(got_paths, oracle):
                assert s_got == pytest.approx(s_exp, abs=1e-9)
            path_checks += 1
    ok = neighbor_checks == 50 and path_checks > 30
    detail = report(8, ok, f"{neighbor_checks} neighbor sets and {path_checks} "
                           f"path matchings equal the exhaustive oracles")
    assert ok, detail


def test_criterion_9_byte_identical_reruns(tmp_path):
    data = tmp_path / "data"
    emb2 = tmp_path / "emb2.tsv"
    raw = tmp_path / "raw.tsv"
    fixed = tmp_path / "a_star.tsv"
    rep = tmp_path / "report.json"
    expl = tmp_path / "expl.json"
    adg = tmp_path / "adg.json"
    evl = tmp_path / "eval.json"

    def kg():
        return ["--kg1", str(data / "triples_1"), "--kg2", str(data / "triples_2"),
                "--emb", str(data / "embeddings.tsv")]

    commands = {
        "synth": ["synth", "--out", str(data), "--n-entities", "30",
                  "--conflict-injection", "0.2", "--rng-seed", "3"],
        "train": ["train", "--kg1", str(data / "triples_1"),
                  "--kg2", str(data / "triples_2"),
                  "--seeds", str(data / "train_links"), "--out", str(emb2),
                  "--dim", "8", "--epochs", "40"],
        "infer": lambda: ["infer", *kg(), "--seeds", str(data / "train_links"),
                          "--out", str(raw)],
        "repair": lambda: ["repair", *kg(), "--seeds", str(data / "train_links"),
                           "--pred", str(raw), "--out", str(fixed),
                           "--report", str(rep)],
        "explain": lambda: ["explain", *kg(), "--alignment", str(fixed),
                            "--pair", *map(str, read_pairs(fixed)[0]),
                            "--out", str(expl)],
        "adg": lambda: ["adg", *kg(), "--alignment", str(fixed),
                        "--pair", *map(str, read_pairs(fixed)[0]),
                        "--out", str(adg)],
        "eval": lambda: ["eval", *kg(), "--mode", "ablation",
                         "--seeds", str(data / "train_links"), "--pred", str(raw),
                         "--gold", str(data / "ent_links"), "--out", str(evl)],
    }

    unstable = []
    for name, argv in commands.items():
        argv1 = argv() if callable(argv) else argv
        assert main(argv1) == 0, name
        out_dir = data if name == "synth" else tmp_path
        snapshot = {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
        }
        assert main(argv1) == 0, name
        after = {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
        }
        if snapshot != after:
            unstable.append(name)
    ok = not unstable
    detail = report(9, ok, f"{len(commands) - len(unstable)}/{len(commands)} "
                           f"subcommands byte-identical on rerun"
                           + (f"; unstable: {unstable}" if unstable else ""))
    assert ok, detail
