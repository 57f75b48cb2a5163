"""Golden bytes: one ``exea synth`` fixture through infer, repair, sparsity,
fidelity, explain and adg.

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
