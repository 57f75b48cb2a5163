"""Every name the benchmark's tracer wraps, and every name the package
exports, resolves: a library function deleted or renamed under them fails
here, not only in a traced benchmark run."""

import subprocess
import sys
from pathlib import Path

import exea

TRACER = Path(__file__).resolve().parent.parent / "bench" / "traced_exea.py"


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
    assert [name for name in exea.__all__ if not hasattr(exea, name)] == []
