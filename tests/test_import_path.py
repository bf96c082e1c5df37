"""The CLI runs on numpy alone: scipy stays off its import path."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import os, sys, tempfile
sys.path.insert(0, os.path.join(sys.argv[1], "bench"))
import workloads

import blochdd.cli

scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not scipy, scipy[:5]
assert "numpy.random" in sys.modules
loaded = set(sys.modules)
with tempfile.TemporaryDirectory() as tmp:
    for name in ("critical_point", "tomo_telegraph"):
        w = workloads.make(name, 11, "smoke")
        path = os.path.join(tmp, name + ".json")
        with open(path, "w") as fh:
            fh.write(w.config_text())
        assert blochdd.cli.main(w.argv(path, os.path.join(tmp, name))) == 0
added = sorted(m for m in set(sys.modules) - loaded if m.split(".")[0] in ("numpy", "scipy"))
assert not added, added
"""


def test_cli_import_and_runs_load_no_scipy_and_no_late_numpy_module():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, ROOT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
