"""Golden bytes: one ``exea synth`` fixture through infer, repair and sparsity.

The files under ``tests/golden/`` were written by these same commands on
``exea synth --n-entities 200 --density 3 --conflict-injection 0.2
--rng-seed 1``: ``aligned.tsv`` and ``report.json`` by ``exea repair`` over
``exea infer``'s predictions, and ``sparsity.json`` by ``exea eval --mode
sparsity`` over that repaired alignment. A change that is meant to keep the
outputs must leave them byte for byte; one that changes them on purpose
rewrites them and says why, as with ``demos/expected``.
"""

from pathlib import Path

import pytest

from exea.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    data, out = root / "data", root / "out"
    assert main([
        "synth", "--out", str(data), "--n-entities", "200", "--density", "3",
        "--conflict-injection", "0.2", "--rng-seed", "1",
    ]) == 0
    graphs = ["--kg1", str(data / "triples_1"), "--kg2", str(data / "triples_2"),
              "--emb", str(data / "embeddings.tsv")]
    assert main([
        "infer", *graphs, "--seeds", str(data / "train_links"), "--out", str(data / "raw.tsv"),
    ]) == 0
    assert main([
        "repair", *graphs, "--seeds", str(data / "train_links"), "--pred", str(data / "raw.tsv"),
        "--out", str(out / "aligned.tsv"), "--report", str(out / "report.json"),
    ]) == 0
    assert main([
        "eval", *graphs, "--mode", "sparsity", "--alignment", str(out / "aligned.tsv"),
        "--out", str(out / "sparsity.json"),
    ]) == 0
    return out


@pytest.mark.parametrize("name", ["aligned.tsv", "report.json", "sparsity.json"])
def test_outputs_equal_golden_bytes(outputs, name):
    assert (outputs / name).read_bytes() == (GOLDEN / name).read_bytes()
