"""Golden bytes: one ``exea synth`` fixture through infer, repair, sparsity,
fidelity, explain and adg, and the hashes of repair variants on it.

The files under ``tests/golden/`` were written by these same commands on
``exea synth --n-entities 200 --density 3 --conflict-injection 0.2
--rng-seed 1``: ``aligned.tsv`` and ``report.json`` by ``exea repair`` over
``exea infer``'s predictions, ``sparsity.json`` by ``exea eval --mode
sparsity`` over that repaired alignment, ``fidelity.json`` by ``exea eval
--mode fidelity`` over the predictions (20 epochs, 10 sampled pairs), and
``explain.json`` and ``adg.json`` by ``exea explain`` and ``exea adg`` for
one pair each of the repaired alignment. A change that is meant to keep the
outputs must leave them byte for byte; one that changes them on purpose
rewrites them and says why, as with ``demos/expected``.

``variants.json`` holds sha256s rather than files: ``aligned.tsv`` and
``report.json`` of the same repair with ``--h 1``, ``--k 1`` and
``--score-lambda 0``, and the JSON and CSV of ``exea eval --mode ablation``,
which runs the rule-less repairs and reads the full repair's graphs. It also
holds ``aligned.tsv`` and ``report.json`` of the repair over ``exea infer``'s
predictions on each benchmark repair fixture: ``wide`` (``--n-entities 800
--density 3 --conflict-injection 0.2 --rng-seed 1``) and ``dense``
(``--n-entities 200 --density 8 --conflict-injection 0 --rng-seed 1``).
Its ``synth/`` keys pin the golden fixture's own graph and link files, as
``exea synth`` writes them. Running this file as a script, ``PYTHONPATH=src
python tests/test_golden.py``, rewrites it.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from exea.cli import main

GOLDEN = Path(__file__).parent / "golden"
VARIANTS = GOLDEN / "variants.json"

# variant name -> the flags it adds to the golden repair
REPAIR_VARIANTS = {"h1": ["--h", "1"], "k1": ["--k", "1"], "lambda0": ["--score-lambda", "0"]}

# exea synth flags besides --out and --rng-seed 1: the golden fixture's, and
# each benchmark repair fixture's
GOLDEN_SYNTH = ["--n-entities", "200", "--density", "3", "--conflict-injection", "0.2"]
BENCH_FIXTURES = {
    "wide": ["--n-entities", "800", "--density", "3", "--conflict-injection", "0.2"],
    "dense": ["--n-entities", "200", "--density", "8", "--conflict-injection", "0"],
}
# the graph and link files of an exea synth fixture, hashed under synth/
SYNTH_FILES = (
    "triples_1", "triples_2", "ent_ids_1", "ent_ids_2", "rel_ids_1", "rel_ids_2",
    "ent_links", "train_links",
)


def make_data(data: Path, synth: list[str] = GOLDEN_SYNTH) -> list[str]:
    """Write an ``exea synth`` fixture and its predictions to ``data``;
    return the graph and embedding flags every command takes."""
    assert main(["synth", "--out", str(data), *synth, "--rng-seed", "1"]) == 0
    graphs = ["--kg1", str(data / "triples_1"), "--kg2", str(data / "triples_2"),
              "--emb", str(data / "embeddings.tsv")]
    assert main([
        "infer", *graphs, "--seeds", str(data / "train_links"), "--out", str(data / "raw.tsv"),
    ]) == 0
    return graphs


def run_repair(data: Path, graphs: list[str], out: Path, *flags: str) -> None:
    assert main([
        "repair", *graphs, "--seeds", str(data / "train_links"), "--pred", str(data / "raw.tsv"),
        "--out", str(out / "aligned.tsv"), "--report", str(out / "report.json"), *flags,
    ]) == 0


def variant_hashes(data: Path, graphs: list[str], root: Path) -> dict[str, str]:
    """sha256 of each variant output, keyed ``<variant>/<file>``."""
    files = []
    for name, flags in REPAIR_VARIANTS.items():
        run_repair(data, graphs, root / name, *flags)
        files += [root / name / "aligned.tsv", root / name / "report.json"]
    ablation = root / "ablation"
    assert main([
        "eval", *graphs, "--mode", "ablation", "--seeds", str(data / "train_links"),
        "--pred", str(data / "raw.tsv"), "--gold", str(data / "ent_links"),
        "--out", str(ablation / "ablation.json"), "--csv", str(ablation / "ablation.csv"),
    ]) == 0
    files += [ablation / "ablation.json", ablation / "ablation.csv"]
    return file_hashes(files)


def bench_hashes(name: str, root: Path) -> dict[str, str]:
    """sha256 of the repair outputs on one benchmark fixture, keyed
    ``<fixture>/<file>``."""
    data = root / "data"
    run_repair(data, make_data(data, BENCH_FIXTURES[name]), root / name)
    return file_hashes([root / name / "aligned.tsv", root / name / "report.json"])


def synth_hashes(data: Path) -> dict[str, str]:
    """sha256 of the fixture's graph and link files, keyed ``synth/<file>``."""
    return {f"synth/{name}": sha256_of(data / name) for name in SYNTH_FILES}


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def file_hashes(files: list[Path]) -> dict[str, str]:
    return {f"{p.parent.name}/{p.name}": sha256_of(p) for p in files}


def golden_hashes(prefix: str | None = None) -> dict[str, str]:
    """The stored hashes, those under ``<prefix>/`` if given, else the
    variants' (every key outside the benchmark fixtures and ``synth/``)."""
    stored = json.loads(VARIANTS.read_text())
    if prefix is not None:
        return {k: v for k, v in stored.items() if k.split("/")[0] == prefix}
    return {k: v for k, v in stored.items() if k.split("/")[0] not in {*BENCH_FIXTURES, "synth"}}


@pytest.fixture(scope="module")
def fixture_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("golden") / "data"
    return data, make_data(data)


@pytest.fixture(scope="module")
def outputs(fixture_data, tmp_path_factory):
    data, graphs = fixture_data
    out = tmp_path_factory.mktemp("golden-out")
    run_repair(data, graphs, out)
    assert main([
        "eval", *graphs, "--mode", "sparsity", "--alignment", str(out / "aligned.tsv"),
        "--out", str(out / "sparsity.json"),
    ]) == 0
    assert main([
        "eval", *graphs, "--mode", "fidelity", "--seeds", str(data / "train_links"),
        "--pred", str(data / "raw.tsv"), "--gold", str(data / "ent_links"), "--epochs", "20",
        "--sample-n", "10", "--out", str(out / "fidelity.json"),
    ]) == 0
    for command, pair in [("explain", ("0", "195")), ("adg", ("2", "188"))]:
        assert main([
            command, *graphs, "--alignment", str(out / "aligned.tsv"), "--pair", *pair,
            "--out", str(out / f"{command}.json"),
        ]) == 0
    return out


@pytest.mark.parametrize(
    "name",
    ["aligned.tsv", "report.json", "sparsity.json", "fidelity.json", "explain.json", "adg.json"],
)
def test_outputs_equal_golden_bytes(outputs, name):
    assert (outputs / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_synth_hashes_equal_golden(fixture_data):
    assert synth_hashes(fixture_data[0]) == golden_hashes("synth")


def test_variant_hashes_equal_golden(fixture_data, tmp_path):
    assert variant_hashes(*fixture_data, tmp_path) == golden_hashes()


@pytest.mark.parametrize("name", list(BENCH_FIXTURES))
def test_bench_fixture_hashes_equal_golden(name, tmp_path):
    assert bench_hashes(name, tmp_path) == golden_hashes(name)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        data = Path(d) / "data"
        hashes = variant_hashes(data, make_data(data), Path(d)) | synth_hashes(data)
        for name in BENCH_FIXTURES:
            hashes |= bench_hashes(name, Path(d) / name)
    VARIANTS.write_text(json.dumps(hashes, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(hashes)} hashes to {VARIANTS}", file=sys.stderr)
