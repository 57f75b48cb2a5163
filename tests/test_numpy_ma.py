"""Each exea command, run in a fresh interpreter, imports only what it runs.

``np.unique`` and the set routines built on it (``np.union1d``, and
``np.isin`` when its keys span a wide range) import ``numpy.ma`` on their
first call in a process, about 10 ms. The library takes distinct values from
a sort and a run-start mask instead, so no command here may load it.

The package resolves its exports on first use and the command line imports
a module only for the commands that run it, so each command loads its own
set of ``exea`` modules, pinned here. A fresh interpreter per command is the
point: in one process an earlier command has already bound the names a later
one forgot to ask for. Each command runs on a tiny ``exea synth`` fixture
and must exit 0.

The manifests hash through the interpreter's built-in SHA-256, so a command
that draws no random numbers never imports ``_hashlib``, which maps
OpenSSL's libcrypto, several MB resident.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from exea.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = (
    "import json, sys; from exea.cli import main; code = main(sys.argv[1:]); "
    "print(json.dumps({'numpy.ma': 'numpy.ma' in sys.modules, "
    "'_hashlib': '_hashlib' in sys.modules, "
    "'exea': sorted(m for m in sys.modules if m.split('.')[0] == 'exea')})); sys.exit(code)"
)
# every command loads these: the package, the command line and what it
# imports eagerly
BASE = {"exea", "exea.cli", "exea.errors", "exea.kg", "exea.embedding"}
# all of it but the synthetic generator: evaluate imports repair and trainer
EVAL = BASE | {"exea.explain", "exea.adg", "exea.repair", "exea.trainer", "exea.evaluate"}
MODULES = {
    "synth": BASE | {"exea.synth"},
    "infer": BASE,
    "train": BASE | {"exea.trainer"},
    "explain": BASE | {"exea.explain"},
    "adg": BASE | {"exea.explain", "exea.adg"},
    "repair": BASE | {"exea.explain", "exea.adg", "exea.repair"},
    "accuracy": EVAL,
    "sparsity": EVAL,
    "fidelity": EVAL,
    "ablation": EVAL,
}


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
    gold = ["--gold", str(data / "ent_links")]
    return {
        "synth": ["synth", "--out", str(out / "data"), "--n-entities", "20", "--rng-seed", "4"],
        "infer": ["infer", *graphs, *seeds, "--out", str(out / "raw.tsv")],
        "train": ["train", *graphs[:4], *seeds, "--epochs", "2", "--out", str(out / "emb.tsv")],
        "explain": ["explain", *graphs, "--alignment", raw, "--pair", "0", "0",
                    "--out", str(out / "explain.json")],
        "adg": ["adg", *graphs, "--alignment", raw, "--pair", "0", "0",
                "--out", str(out / "adg.json")],
        "repair": ["repair", *graphs, *seeds, "--pred", raw, "--out", str(out / "aligned.tsv"),
                   "--report", str(out / "report.json")],
        "accuracy": ["eval", "--mode", "accuracy", "--pred", raw, *gold,
                     "--out", str(out / "accuracy.json")],
        "sparsity": ["eval", "--mode", "sparsity", *graphs, "--alignment", raw,
                     "--out", str(out / "sparsity.json")],
        "fidelity": ["eval", "--mode", "fidelity", *graphs, *seeds, "--pred", raw, *gold,
                     "--epochs", "2", "--sample-n", "3", "--out", str(out / "fidelity.json")],
        "ablation": ["eval", "--mode", "ablation", *graphs, *seeds, "--pred", raw, *gold,
                     "--out", str(out / "ablation.json"), "--csv", str(out / "ablation.csv")],
    }


@pytest.fixture(scope="module")
def probe(fixture):
    """Run a command once in a fresh interpreter; return what it loaded."""
    root, data, graphs = fixture
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    loaded = {}

    def run(command: str) -> dict:
        if command not in loaded:
            argv = commands(data, graphs, root / command)[command]
            proc = subprocess.run(
                [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            loaded[command] = json.loads(proc.stdout.strip().splitlines()[-1])
        return loaded[command]

    return run


@pytest.mark.parametrize("command", ["explain", "adg", "repair", "sparsity", "fidelity"])
def test_command_leaves_numpy_ma_unloaded(probe, command):
    assert probe(command)["numpy.ma"] is False


# the commands that draw random numbers: numpy.random imports secrets, and
# with it hashlib's OpenSSL backend
RANDOM = {"synth", "train", "fidelity"}


@pytest.mark.parametrize("command", [c for c in MODULES if c not in RANDOM])
def test_command_leaves_openssl_unmapped(probe, command):
    assert probe(command)["_hashlib"] is False


@pytest.mark.parametrize("command", list(MODULES))
def test_command_loads_only_its_modules(probe, command):
    assert set(probe(command)["exea"]) == MODULES[command]
