"""Entry point for ``python -m repro``."""

import sys

from .cli import main
from .resilience.checkpoint import CheckpointError

if __name__ == "__main__":
    try:
        sys.exit(main())
    except CheckpointError as exc:
        # a checkpoint is outside input: one line naming it, no traceback
        sys.exit(f"repro: {exc}")
