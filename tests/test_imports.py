"""What the package imports: no networkx, and no name it never uses."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: an identifier inside a string constant (quoted annotations, __all__)
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

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


def _unused_imports(path):
    """``file:line: name`` for each imported name the module never uses.

    A name counts as used when it appears as an ``ast.Name`` (``np`` in
    ``np.zeros`` included) or as an identifier inside a string constant,
    which covers quoted annotations of ``TYPE_CHECKING`` imports.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(IDENTIFIER.findall(node.value))
    where = path.relative_to(PACKAGE.parent)
    return [f"{where}:{line}: {name}"
            for name, line in sorted(imported.items())
            if name not in used]


def test_every_imported_name_is_used():
    unused = [problem for path in sorted(PACKAGE.rglob("*.py"))
              if path.name != "__init__.py"
              for problem in _unused_imports(path)]
    assert unused == []
