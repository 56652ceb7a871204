#!/usr/bin/env python
"""Validate run-directory artifacts against their schemas.

Checks JSONL event logs (``events.jsonl``, written by traced searches
and by ``repro serve``) and search checkpoints (``checkpoint.json``)
with the validators dispatched by :mod:`repro.obs.schema`.

Usage::

    python scripts/check_schema.py               # everything under runs/
    python scripts/check_schema.py runs/my-run   # a run directory
    python scripts/check_schema.py events.jsonl runs/my-run/checkpoint.json

Exits 0 when every file validates, 1 otherwise.  Wired into the test
suite via ``tests/obs/test_schema.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.schema import validate_path  # noqa: E402
from repro.obs.trace import EVENTS_FILENAME  # noqa: E402


def default_targets() -> list:
    """Everything validatable under the repo's ``runs/`` directory."""
    targets = []
    runs_dir = REPO_ROOT / "runs"
    if runs_dir.is_dir():
        targets.extend(sorted(runs_dir.glob(f"*/{EVENTS_FILENAME}")))
        targets.extend(sorted(runs_dir.glob("*/checkpoint.json")))
    return targets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="run dirs, events.jsonl or checkpoint.json "
                             "files (default: runs/*)")
    args = parser.parse_args(argv)
    targets = [Path(p) for p in args.paths] or default_targets()
    if not targets:
        print("nothing to validate (no runs/ found)")
        return 0
    failures = 0
    for target in targets:
        try:
            errors = validate_path(target)
        except (OSError, ValueError) as exc:
            errors = [f"unreadable: {exc}"]
        if errors:
            failures += 1
            print(f"FAIL {target}")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"ok   {target}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
