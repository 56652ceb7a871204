"""No repro subpackage imports networkx, which is not a dependency."""

import subprocess
import sys
from pathlib import Path

import repro

# every repro subpackage, imported into one fresh interpreter, then the
# names of the third-party top-level modules it loaded
PROBE = """
import importlib, pkgutil, sys
import repro
for info in pkgutil.iter_modules(repro.__path__):
    if info.ispkg:
        importlib.import_module("repro." + info.name)
print(" ".join(sorted(sys.modules)))
"""


def test_subpackages_do_not_import_networkx():
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=src,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    modules = done.stdout.split()
    assert "repro.space" in modules and "repro.serve" in modules
    assert "networkx" not in modules
