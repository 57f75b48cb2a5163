"""Benchmark for exea: repair, explanation and training, end to end and layer by layer.

    python3 bench/run.py --workload repair-wide --seed 1 --seconds 10 --trace 0

Builds a fixture with ``exea synth`` (plus ``exea infer`` for the repair
workloads), then runs the workload's timed commands through the exea command
line as child processes, in whole rounds, until ``--seconds`` have passed.
The children run on one CPU, which ``calibrate.py`` shares at low priority to
measure how fast that CPU runs; the times reported are the children's CPU
seconds rescaled to a reference speed. Every command's outputs are checked
against computations made apart from the program (see ``checks.py``). With
``--trace 1`` the run also repeats the
set-up and timed commands once through ``traced_exea.py``, which wraps each
layer's public functions in spans, and reports per-layer metrics. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Run outputs go to ``.bench_runs/<workload>/``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

# One BLAS thread in this process and in every child, on every commit: exea's
# matrix products are small, and on a two-core machine a second BLAS thread
# only adds run-to-run noise.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import numpy as np  # noqa: E402  (imported after the thread count is set)

import checks  # noqa: E402

# Every exea child and the calibration loop run on this one CPU.
CPU = max(os.sched_getaffinity(0))
# CPU seconds of one calibrate.py chunk at the reference speed: times are
# rescaled to the speed at which a chunk takes exactly this long.
REFERENCE_CHUNK_S = 0.005
SETUP_REPEATS = 5  # set-ups per untraced run; setup_s is their median
REFERENCE_SAMPLE = 40  # repaired pairs re-graded by the ADG reference per run
SAMPLE_N = 100  # fidelity sample size
TRAINER_SEED = 7

DATASET_FILES = (
    "ent_ids_1", "ent_ids_2", "rel_ids_1", "rel_ids_2", "triples_1", "triples_2",
    "ent_links", "train_links", "embeddings.tsv", "embeddings_ideal.tsv",
)
KGS = ["--kg1", "fixture/triples_1", "--kg2", "fixture/triples_2"]


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    synth: tuple[str, ...]  # synth flags besides --out and --rng-seed
    fixture_seed: int
    repair: bool  # repair workload (setup adds infer) or train-explain


WORKLOADS = {
    w.name: w
    for w in (
        Workload("repair-wide", 800,
                 ("--n-entities", "800", "--density", "3", "--conflict-injection", "0.2"),
                 1, True),
        Workload("repair-dense", 200,
                 ("--n-entities", "200", "--density", "8", "--conflict-injection", "0.0"),
                 1, True),
        Workload("train-explain", 500,
                 ("--n-entities", "500", "--rename-noise", "0.3", "--seed-fraction", "0.2"),
                 0, False),
    )
}

# span name -> self-time metric; every span name has one, so the self times
# of a traced command add up to its wall time
SELF_TIME = {
    "cli.main": "cli.self_s",
    "kg.load": "kg.load_s",
    "kg.enumerate_paths": "kg.enumerate_paths_s",
    "kg.neighborhood": "kg.neighborhood_s",
    "embedding.load": "embedding.load_s",
    "embedding.save": "embedding.save_s",
    "embedding.topk": "embedding.topk_s",
    "embedding.greedy_align": "embedding.greedy_align_s",
    "embedding.path_embedding": "embedding.path_embedding_s",
    "explain.explanation": "explain.explanation_s",
    "explain.match_paths": "explain.match_paths_s",
    "adg.build": "adg.build_s",
    "repair.repair": "repair.self_s",
    "repair.ban": "repair.ban_s",
    "repair.rule_mining": "repair.rule_mining_s",
    "repair.conflict_detection": "repair.conflict_detection_s",
    "repair.one_to_many": "repair.one_to_many_s",
    "repair.low_confidence": "repair.low_confidence_s",
    "repair.final_fill": "repair.final_fill_s",
    "trainer.train": "trainer.train_s",
    "evaluate.fidelity": "evaluate.fidelity_s",
    "evaluate.sparsity": "evaluate.sparsity_s",
    "evaluate.candidate_triples": "evaluate.candidate_triples_s",
    "synth.generate": "synth.generate_s",
    "synth.write": "synth.write_s",
}
# span name -> call-count metric
CALLS = {
    "embedding.path_embedding": "embedding.path_embedding_calls",
    "explain.explanation": "explain.explanation_calls",
    "explain.match_paths": "explain.match_paths_calls",
    "adg.build": "adg.build_calls",
    "trainer.train": "trainer.train_calls",
}
COUNTERS = ("kg.paths", "repair.adg_lookups", "repair.mutations", "repair.cross_triples")

END_TO_END_UNITS = {"cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "hits1": "fraction"}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "fraction"
    return "count"


PER_LAYER = (
    sorted(set(SELF_TIME.values()) | set(CALLS.values()) | set(COUNTERS))
    + ["repair.adg_hit_ratio", "trainer.triple_epochs_per_s", "trace.overhead_s"]
)


@dataclass
class Command:
    """One exea invocation: its arguments, the directory holding its outputs
    and manifest, the outputs the manifest must name, and its checks."""

    name: str
    args: list[str]
    out_dir: str
    outputs: dict[str, str]
    check: Callable[["Run"], list[str]]


@dataclass
class Run:
    """State of one benchmark invocation."""

    workload: Workload
    seed: int
    fixture_seed: int
    work: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    sides: tuple | None = None  # ADG-reference view of the fixture, built once

    def path(self, rel: str) -> Path:
        return self.work / rel

    def pairs(self, rel: str):
        return checks.read_pairs(self.path(rel))

    def embeddings(self, rel: str):
        return checks.read_embeddings(self.path(rel))

    def reference_sides(self):
        if self.sides is None:
            fixture = self.path("fixture")
            emb = checks.read_embeddings(fixture / "embeddings.tsv")
            self.sides = checks.load_reference_sides(fixture, emb)
        return self.sides


# ---------------------------------------------------------------- commands


def _check_synth(run: Run) -> list[str]:
    return checks.check_fixture(run.path("fixture"), run.workload.n)


def _check_raw(run: Run) -> list[str]:
    return checks.check_argmax(
        run.pairs("raw/raw.tsv"), run.pairs("fixture/train_links"),
        run.embeddings("fixture/embeddings.tsv"),
    )


def _check_repair(run: Run) -> list[str]:
    n = run.workload.n
    pairs = run.pairs("out/aligned.tsv")
    report = json.loads(run.path("out/report.json").read_text(encoding="utf-8"))
    problems = checks.check_repair(
        pairs, run.pairs("fixture/train_links"), run.pairs("raw/raw.tsv"),
        run.pairs("fixture/ent_links"), report, n, n,
    )
    side1, side2 = run.reference_sides()
    return problems + checks.check_confidences(
        report, pairs, side1, side2, REFERENCE_SAMPLE, run.seed
    )


def _check_train(run: Run) -> list[str]:
    n = run.workload.n
    return checks.check_trained_embeddings(run.embeddings("model/emb.tsv"), n, n)


def _check_pred(run: Run) -> list[str]:
    seeds = run.pairs("fixture/train_links")
    pred = run.pairs("pred/pred.tsv")
    problems = checks.check_argmax(pred, seeds, run.embeddings("model/emb.tsv"))
    seed_fraction = len(seeds) / run.workload.n
    score = checks.hits1(seeds + pred, run.pairs("fixture/ent_links"))
    if score <= seed_fraction:
        problems.append(f"Hits@1 {score} does not exceed the seed fraction {seed_fraction}")
    return problems


def _check_eval(run: Run) -> list[str]:
    report = json.loads(run.path("eval/eval.json").read_text(encoding="utf-8"))
    return checks.check_fidelity(
        report, run.pairs("pred/pred.tsv"), run.pairs("fixture/ent_links"), SAMPLE_N
    )


def setup_commands(run: Run) -> list[Command]:
    wl = run.workload
    cmds = [Command(
        "synth",
        ["synth", "--out", "fixture", *wl.synth, "--rng-seed", str(run.fixture_seed)],
        "fixture", {name: f"fixture/{name}" for name in DATASET_FILES}, _check_synth,
    )]
    if wl.repair:
        cmds.append(Command(
            "infer",
            ["infer", *KGS, "--emb", "fixture/embeddings.tsv", "--seeds", "fixture/train_links",
             "--out", "raw/raw.tsv"],
            "raw", {"out": "raw/raw.tsv"}, _check_raw,
        ))
    return cmds


def timed_commands(run: Run) -> list[Command]:
    if run.workload.repair:
        return [Command(
            "repair",
            ["repair", *KGS, "--emb", "fixture/embeddings.tsv", "--seeds", "fixture/train_links",
             "--pred", "raw/raw.tsv", "--out", "out/aligned.tsv", "--report", "out/report.json"],
            "out", {"out": "out/aligned.tsv", "report": "out/report.json"}, _check_repair,
        )]
    seed = str(TRAINER_SEED)
    return [
        Command(
            "train",
            ["train", *KGS, "--seeds", "fixture/train_links", "--out", "model/emb.tsv",
             "--rng-seed", seed],
            "model", {"out": "model/emb.tsv"}, _check_train,
        ),
        Command(
            "infer",
            ["infer", *KGS, "--emb", "model/emb.tsv", "--seeds", "fixture/train_links",
             "--out", "pred/pred.tsv"],
            "pred", {"out": "pred/pred.tsv"}, _check_pred,
        ),
        Command(
            "eval",
            ["eval", "--mode", "fidelity", *KGS, "--emb", "model/emb.tsv",
             "--seeds", "fixture/train_links", "--pred", "pred/pred.tsv",
             "--gold", "fixture/ent_links", "--out", "eval/eval.json",
             "--sample-n", str(SAMPLE_N), "--rng-seed", seed],
            "eval", {"out": "eval/eval.json"}, _check_eval,
        ),
    ]


# ---------------------------------------------------------------- running


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass(frozen=True)
class Usage:
    """What one child used: its span on the monotonic clock, its user plus
    system CPU seconds and its peak resident set in MB."""

    start: float
    end: float
    cpu: float
    rss: float

    @property
    def wall(self) -> float:
        return self.end - self.start


def pin_to_cpu() -> None:
    os.sched_setaffinity(0, {CPU})


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[int, Usage]:
    """Run a child on ``CPU`` to its end; return its exit code and usage."""
    with open(log, "wb") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT, preexec_fn=pin_to_cpu)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, Usage(start, end, cpu, usage.ru_maxrss / 1024.0)


def execute(run: Run, cmd: Command, tag: str, spans: Path | None = None) -> Usage:
    """One operation: run the command, then check its outputs. Returns what
    the child used."""
    out_dir = run.path(cmd.out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    # made beforehand because `exea train` does not create its output directory
    out_dir.mkdir(parents=True)
    if spans is None:
        argv = [sys.executable, "-m", "exea.cli", *cmd.args]
    else:
        argv = [sys.executable, str(BENCH / "traced_exea.py"), str(spans), "--", *cmd.args]
    log = run.path(f"logs/{tag}.log")
    code, usage = spawn(argv, run.work, log)
    if code != 0:
        record(run, tag, [f"exited with code {code}, see {log}"])
    else:
        record(run, tag, verify(run, cmd))
    return usage


def verify(run: Run, cmd: Command) -> list[str]:
    """Check a command's outputs. The first run of a command in this
    invocation gets the full checks; every later run must reproduce its
    outputs byte for byte."""
    out_dir = run.path(cmd.out_dir)
    try:
        problems = checks.check_manifest(out_dir, {k: run.path(v) for k, v in cmd.outputs.items()})
        digests = {p.name: checks.sha256(p) for p in sorted(out_dir.iterdir())}
        if cmd.out_dir not in run.digests:
            run.digests[cmd.out_dir] = digests
            problems += cmd.check(run)
        elif digests != run.digests[cmd.out_dir]:
            problems.append("outputs differ from the first run of this command")
    except Exception as exc:  # a malformed output is a failed operation
        problems = [f"checking raised {type(exc).__name__}: {exc}"]
    return problems


def record(run: Run, tag: str, problems: list[str]) -> None:
    run.attempted += 1
    if problems:
        run.failed += 1
        run.problems += [f"{tag}: {p}" for p in problems]


def run_commands(run: Run, cmds: list[Command], tag: str,
                 trace_dir: Path | None = None) -> list[Usage]:
    """Run commands in order, traced into ``trace_dir/<i>.npz`` when given;
    return what each one used."""
    return [
        execute(run, cmd, f"{tag}-{i}-{cmd.name}",
                None if trace_dir is None else trace_dir / f"{i}.npz")
        for i, cmd in enumerate(cmds)
    ]


# ---------------------------------------------------------------- calibration


@contextmanager
def calibration(path: Path):
    """Run calibrate.py on ``CPU``, writing its chunks to ``path``, while the
    block runs. On the way out it is stopped and waited for, so every chunk it
    ran is in the file."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "calibrate.py"), str(path), str(CPU)],
                            env=child_env(), stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30.0
        while not (path.is_file() and path.stat().st_size):
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the calibration loop did not start")
            time.sleep(0.01)
        yield
    finally:
        proc.terminate()
        proc.wait()


def read_chunks(path: Path) -> list[tuple[float, ...]]:
    """The (start, end, CPU seconds) of every chunk calibrate.py wrote."""
    with open(path, encoding="utf-8") as fh:
        return [tuple(map(float, line.split())) for line in fh if line.endswith("\n")]


def speed(chunks: list[tuple[float, ...]], start: float, end: float) -> float:
    """How fast ``CPU`` ran from ``start`` to ``end`` against the reference:
    ``REFERENCE_CHUNK_S`` over the mean CPU time of the calibration chunks
    that ran within that span, or that overlap it when none fits inside. The
    mean, not the median: a chunk that was preempted pays for refilling the
    caches, and so does the exea child that shares its CPU."""
    inside = [cpu for s, e, cpu in chunks if start <= s and e <= end]
    if not inside:
        inside = [cpu for s, e, cpu in chunks if s < end and start < e]
    if not inside:
        raise RuntimeError(f"no calibration chunk ran between {start} and {end}")
    return REFERENCE_CHUNK_S / statistics.fmean(inside)


# ---------------------------------------------------------------- tracing


def layer_metrics(trace_dir: Path, walls: list[float]) -> dict[str, float]:
    """Per-layer metrics from the span files ``trace_dir/<i>.npz`` of one
    traced pass, the i-th child's wall time being ``walls[i]``. The part of a
    child's wall outside its ``cli.main`` span (interpreter start-up, imports)
    counts as ``cli`` self time; so does the whole wall of a child that left
    no span file."""
    self_time = dict.fromkeys(SELF_TIME.values(), 0.0)
    counts = dict.fromkeys(list(CALLS.values()) + list(COUNTERS), 0.0)
    counts["trainer.triple_epochs"] = 0.0
    train_time = 0.0
    for i, wall in enumerate(walls):
        path = trace_dir / f"{i}.npz"
        if not path.is_file():
            self_time["cli.self_s"] += wall
            continue
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            which, parent = data["span_name"], data["parent"]
            duration = data["end"] - data["start"]
            for name, amount in json.loads(str(data["counts"])).items():
                counts[name] += amount
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
        own = duration - covered
        for idx, name in enumerate(names):
            mine = which == idx
            self_time[SELF_TIME[name]] += float(own[mine].sum())
            if name in CALLS:
                counts[CALLS[name]] += int(mine.sum())
            if name == "trainer.train":
                train_time += float(duration[mine].sum())
            if name == "cli.main":
                self_time["cli.self_s"] += wall - float(duration[mine].sum())
    metrics = {**self_time, **counts}
    lookups = counts["repair.adg_lookups"]
    metrics["repair.adg_hit_ratio"] = 1.0 - counts["adg.build_calls"] / lookups if lookups else 0.0
    epochs = metrics.pop("trainer.triple_epochs")
    metrics["trainer.triple_epochs_per_s"] = epochs / train_time if train_time else 0.0
    return metrics


# ---------------------------------------------------------------- main


def measure(run: Run, seconds: float, trace: bool) -> dict[str, float]:
    """Set up, then run whole rounds of the timed commands for ``seconds``.
    Untraced, the calibration loop shares the children's CPU, and ``cpu_s``
    and ``setup_s`` are CPU seconds rescaled to the reference speed. Traced,
    it does not run, and the traced pass follows."""
    wl = run.workload
    chunk_file = run.path("calibration.txt")
    with nullcontext() if trace else calibration(chunk_file):
        setups = [
            run_commands(run, setup_commands(run), f"setup{i}")
            for i in range(1 if trace else SETUP_REPEATS)
        ]
        rounds = []
        started = time.monotonic()
        while not rounds or time.monotonic() - started < seconds:
            rounds.append(run_commands(run, timed_commands(run), f"round{len(rounds)}"))
    if wl.repair:
        score = checks.hits1(run.pairs("out/aligned.tsv"), run.pairs("fixture/ent_links"))
    else:
        score = checks.hits1(
            run.pairs("fixture/train_links") + run.pairs("pred/pred.tsv"),
            run.pairs("fixture/ent_links"),
        )
    round_walls = [sum(u.wall for u in r) for r in rounds]
    metrics = {
        "peak_rss_mb": statistics.median(max(u.rss for u in r) for r in rounds),
        "hits1": score,
        "setup_wall_s": statistics.median(sum(u.wall for u in s) for s in setups),
        "round_wall_s": statistics.median(round_walls),
    }
    summary = (f"{wl.name}: {len(setups)} set-ups, {len(rounds)} rounds; "
               f"round walls {', '.join(f'{w:.3f}' for w in round_walls)} s")
    if not trace:
        chunks = read_chunks(chunk_file)

        def scaled(group: list[Usage]) -> float:
            return sum(u.cpu * speed(chunks, u.start, u.end) for u in group)

        round_cpu = [scaled(r) for r in rounds]
        metrics["cpu_s"] = statistics.median(round_cpu)
        metrics["setup_s"] = statistics.median(scaled(s) for s in setups)
        summary += (f", rescaled CPU {', '.join(f'{c:.3f}' for c in round_cpu)} s"
                    f" ({len(chunks)} calibration chunks)")
    print(summary, flush=True)
    if trace:
        trace_dir = run.path("trace")
        trace_dir.mkdir()
        cmds = setup_commands(run) + timed_commands(run)
        traced = [u.wall for u in run_commands(run, cmds, "traced", trace_dir)]
        layers = layer_metrics(trace_dir, traced)
        untraced = metrics["setup_wall_s"] + metrics["round_wall_s"]
        layers["trace.overhead_s"] = sum(traced) - untraced
        metrics.update(layers)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the sample of repaired pairs the ADG reference re-grades")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run whole rounds of the timed commands until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced pass and report per-layer metrics")
    parser.add_argument("--fixture-seed", type=int, default=None,
                        help="exea synth --rng-seed (default: the workload's, see README.md)")
    args = parser.parse_args(argv)

    if not (SRC / "exea" / "cli.py").is_file():
        print(f"bench: no exea sources under {SRC}", file=sys.stderr)
        return 2
    problems = checks.check_reference()
    if problems:
        print(f"bench: {problems[0]}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = RUNS / wl.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    run = Run(wl, args.seed, wl.fixture_seed if args.fixture_seed is None else args.fixture_seed, work)
    metrics = measure(run, args.seconds, bool(args.trace))

    names = PER_LAYER if args.trace else list(END_TO_END_UNITS)
    for name in names:
        print(f"  {name:34s} {metrics[name]:>14.6g} {unit_of(name)}")
    print(f"  operations attempted {run.attempted}, failed {run.failed}")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)} for name in names},
    }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
