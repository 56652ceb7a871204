"""Entry point for ``python -m repro``."""

import sys

from .cli import main
from .env import EnvVarError
from .resilience.checkpoint import CheckpointError

if __name__ == "__main__":
    try:
        sys.exit(main())
    except (CheckpointError, EnvVarError) as exc:
        # a checkpoint or a BOMP_* value is outside input: one line
        # naming it, no traceback
        sys.exit(f"repro: {exc}")
