"""No exea command imports ``numpy.ma``.

``np.unique`` and the set routines built on it (``np.union1d``, and
``np.isin`` when its keys span a wide range) import ``numpy.ma`` on their
first call in a process, about 10 ms. The library takes distinct values from
a sort and a run-start mask instead, so each command here runs in a fresh
interpreter on a tiny ``exea synth`` fixture and reports whether the module
was loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from exea.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = (
    "import sys; from exea.cli import main; code = main(sys.argv[1:]); "
    "print('numpy.ma' in sys.modules); sys.exit(code)"
)


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("numpy_ma")
    data = root / "data"
    assert main([
        "synth", "--out", str(data), "--n-entities", "30", "--conflict-injection", "0.2",
        "--rng-seed", "3",
    ]) == 0
    graphs = ["--kg1", str(data / "triples_1"), "--kg2", str(data / "triples_2"),
              "--emb", str(data / "embeddings.tsv")]
    assert main([
        "infer", *graphs, "--seeds", str(data / "train_links"), "--out", str(data / "raw.tsv"),
    ]) == 0
    return root, data, graphs


def commands(data: Path, graphs: list[str], out: Path) -> dict[str, list[str]]:
    seeds, raw = ["--seeds", str(data / "train_links")], str(data / "raw.tsv")
    return {
        "explain": ["explain", *graphs, "--alignment", raw, "--pair", "0", "0",
                    "--out", str(out / "explain.json")],
        "adg": ["adg", *graphs, "--alignment", raw, "--pair", "0", "0",
                "--out", str(out / "adg.json")],
        "repair": ["repair", *graphs, *seeds, "--pred", raw, "--out", str(out / "aligned.tsv"),
                   "--report", str(out / "report.json")],
        "sparsity": ["eval", "--mode", "sparsity", *graphs, "--alignment", raw,
                     "--out", str(out / "sparsity.json")],
        "fidelity": ["eval", "--mode", "fidelity", *graphs, *seeds, "--pred", raw,
                     "--gold", str(data / "ent_links"), "--epochs", "2", "--sample-n", "3",
                     "--out", str(out / "fidelity.json")],
    }


@pytest.mark.parametrize("command", ["explain", "adg", "repair", "sparsity", "fidelity"])
def test_command_leaves_numpy_ma_unloaded(fixture, command):
    root, data, graphs = fixture
    argv = commands(data, graphs, root / command)[command]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    run = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
