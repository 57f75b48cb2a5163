"""Tests of the benchmark itself: the ADG reference, the output checker and
the span accounting of a traced run.

    python3 -m pytest -q bench

They run exea on fixtures of 60 and 150 entities and take about 15 s.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import adg_reference
import checks
import run as bench

TINY_REPAIR = bench.Workload(
    "tiny-repair", 60, ("--n-entities", "60", "--density", "3", "--conflict-injection", "0.2"),
    1, True,
)
SMALL_TRAIN = bench.Workload(
    "small-train", 150, ("--n-entities", "150", "--rename-noise", "0.3", "--seed-fraction", "0.2"),
    0, False,
)


def new_run(workload, work: Path) -> bench.Run:
    (work / "logs").mkdir(parents=True, exist_ok=True)
    return bench.Run(workload, seed=3, fixture_seed=workload.fixture_seed, work=work)


@pytest.fixture(scope="module")
def repaired(tmp_path_factory):
    """A tiny repair workload run once, untraced then traced."""
    work = tmp_path_factory.mktemp("repair")
    run = new_run(TINY_REPAIR, work)
    metrics = bench.measure(run, seconds=0.0, trace=True)
    return run, metrics


def test_reference_reproduces_governor_case():
    side1, side2, alignment, expected = checks.governor_case()
    got = adg_reference.confidence((0, 0), alignment, set(), side1, side2)
    assert got == pytest.approx(0.8081, abs=1e-4)
    assert got == pytest.approx(expected, abs=1e-6)
    assert checks.check_reference() == []


def test_reference_bans_and_gates():
    side1, side2, alignment, _ = checks.governor_case()
    # banning the Jerry Brown pair leaves only the party edge, 0.937 * 0.757
    got = adg_reference.confidence((0, 0), alignment, {(1, 1)}, side1, side2)
    assert got == pytest.approx(1.0 / (1.0 + math.exp(-0.937 * 0.757)), abs=1e-6)
    assert adg_reference.confidence((0, 0), {}, set(), side1, side2) == 0.5


def test_good_outputs_pass(repaired):
    run, metrics = repaired
    assert run.problems == []
    assert run.failed == 0
    # setup (synth, infer), one round (repair), the traced pass (all three)
    assert run.attempted == 6
    assert 0.0 < metrics["hits1"] <= 1.0


def rewrite(run: bench.Run, name: str, text: str) -> None:
    """Replace a repair output and fix its manifest hash, so that only the
    content checks can catch the change."""
    cmd = bench.timed_commands(run)[0]
    path = run.path(cmd.outputs[name])
    path.write_text(text, encoding="utf-8")
    manifest_path = run.path(cmd.out_dir) / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["output_hashes"][name] = checks.sha256(path)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def verify_repair(run: bench.Run) -> list[str]:
    fresh = bench.Run(run.workload, run.seed, run.fixture_seed, run.work)
    return bench.verify(fresh, bench.timed_commands(fresh)[0])


@pytest.fixture
def pristine(repaired):
    run, _ = repaired
    keep = {p: p.read_bytes() for p in run.path("out").iterdir()}
    yield run
    for p, data in keep.items():
        p.write_bytes(data)


def test_checker_passes_pristine_outputs(pristine):
    assert verify_repair(pristine) == []


def test_duplicated_target_fails(pristine):
    pairs = pristine.pairs("out/aligned.tsv")
    pairs[1] = (pairs[1][0], pairs[0][1])
    rewrite(pristine, "out", "".join(f"{s}\t{t}\n" for s, t in pairs))
    problems = verify_repair(pristine)
    assert any("appears twice" in p for p in problems), problems


def test_changed_seed_pair_fails(pristine):
    seeds = set(pristine.pairs("fixture/train_links"))
    pairs = pristine.pairs("out/aligned.tsv")
    i = next(i for i, p in enumerate(pairs) if p in seeds)
    j = next(j for j, p in enumerate(pairs) if p not in seeds)
    # swap the targets of a seed pair and a predicted pair: still injective
    (si, ti), (sj, tj) = pairs[i], pairs[j]
    pairs[i], pairs[j] = (si, tj), (sj, ti)
    rewrite(pristine, "out", "".join(f"{s}\t{t}\n" for s, t in pairs))
    problems = verify_repair(pristine)
    assert any("seed pair" in p for p in problems), problems


def test_manifest_mismatch_fails(pristine):
    path = pristine.path("out/report.json")
    report = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    problems = verify_repair(pristine)
    assert any("manifest hash of report" in p for p in problems), problems


def test_failed_check_counts_as_failed_operation(pristine):
    pristine.path("out/aligned.tsv").write_text("0\t0\n", encoding="utf-8")
    fresh = bench.Run(pristine.workload, pristine.seed, pristine.fixture_seed, pristine.work)
    bench.record(fresh, "repair", bench.verify(fresh, bench.timed_commands(fresh)[0]))
    assert (fresh.attempted, fresh.failed) == (1, 1)


def test_self_times_account_for_wall(repaired):
    _, metrics = repaired
    self_total = sum(
        value for name, value in metrics.items()
        if name in bench.PER_LAYER and name.endswith("_s") and name != "trace.overhead_s"
    )
    untraced = metrics["setup_wall_s"] + metrics["round_wall_s"]
    assert self_total - metrics["trace.overhead_s"] == pytest.approx(untraced, abs=1e-6)
    assert metrics["adg.build_calls"] <= metrics["repair.adg_lookups"]
    assert metrics["explain.explanation_calls"] > 0
    assert metrics["synth.generate_s"] > 0


def test_train_explain_checks_pass(tmp_path):
    run = new_run(SMALL_TRAIN, tmp_path)
    metrics = bench.measure(run, seconds=0.0, trace=False)
    assert run.problems == []
    assert run.attempted == bench.SETUP_REPEATS + 3
    assert metrics["hits1"] > 0.2
    # the calibration loop ran alongside and has stopped
    assert metrics["cpu_s"] > 0 and metrics["setup_s"] > 0
    assert len(bench.read_chunks(run.path("calibration.txt"))) > 0


def test_speed_rescales_by_the_chunks_of_a_span():
    ref = bench.REFERENCE_CHUNK_S
    chunks = [(0.0, 1.0, ref), (1.0, 2.0, 2 * ref), (2.0, 3.0, 2 * ref), (3.0, 4.0, 4 * ref)]
    # the mean of the chunks inside the span: the CPU ran at half speed
    assert bench.speed(chunks, 0.5, 3.5) == pytest.approx(0.5)
    # a span shorter than a chunk takes the chunks it overlaps
    assert bench.speed(chunks, 0.2, 0.4) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        bench.speed(chunks, 5.0, 6.0)


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == bench.END_TO_END_UNITS
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == {name: bench.unit_of(name) for name in bench.PER_LAYER}
