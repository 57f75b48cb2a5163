"""Every name the benchmark's tracer wraps, and every name the package
exports, resolves: a library function deleted or renamed under them fails
here, not only in a traced benchmark run."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exea

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "traced_exea.py"


def test_tracer_installs_over_the_library():
    """``install`` in ``bench/traced_exea.py`` replaces each name it wraps
    with a wrapper, and raises ``AttributeError`` for a name the library no
    longer has. It runs in a child process, since it rebinds names in the
    library's modules."""
    code = "import runpy, sys; t = runpy.run_path(sys.argv[1]); t['install'](t['Tracer']())"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(TRACER)], capture_output=True, text=True, timeout=60
    )
    assert "AttributeError" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr


def test_every_export_resolves():
    """Each export is the object its defining module holds under that name."""
    assert [name for name in exea.__all__ if not hasattr(exea, name)] == []
    for name in exea.__all__:
        value = getattr(exea, name)
        assert value is getattr(importlib.import_module(value.__module__), name), name
        assert value.__module__.startswith("exea."), name


# run in a fresh interpreter; prints whether ``exea.repair`` and ``from exea
# import repair`` give the function and ``sys.modules["exea.repair"]`` the module
REPAIR_PROBE = """
import sys, tempfile, types
first = sys.argv[1]
if first == "package":
    import exea
elif first == "submodule":
    import exea.repair
else:
    import exea.cli
    d = tempfile.mkdtemp()
    graphs = ["--kg1", d + "/triples_1", "--kg2", d + "/triples_2", "--emb", d + "/embeddings.tsv",
              "--seeds", d + "/train_links"]
    for argv in (["synth", "--out", d, "--n-entities", "20", "--rng-seed", "2"],
                 ["infer", *graphs, "--out", d + "/raw.tsv"],
                 ["repair", *graphs, "--pred", d + "/raw.tsv", "--out", d + "/aligned.tsv",
                  "--report", d + "/report.json"]):
        assert exea.cli.main(argv) == 0, argv
import exea
from exea import repair
module = sys.modules["exea.repair"]
print(isinstance(exea.repair, types.FunctionType), isinstance(repair, types.FunctionType),
      isinstance(module, types.ModuleType) and module.repair is repair is exea.repair)
"""


@pytest.mark.parametrize("first", ["package", "cli-repair", "submodule"])
def test_repair_is_the_function_after_any_import(first):
    """The package exports the function ``repair``, whichever import ran
    first; importing the submodule ``exea.repair`` binds its name on the
    package, and the function must stay there."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run([sys.executable, "-c", REPAIR_PROBE, first], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True"]
