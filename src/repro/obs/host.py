"""Host metadata stamped next to wall-clock measurements.

A timing only means something on the machine and numeric stack it was
taken on, so the repository benchmark (``python3 perfbench/run.py``)
prints this block with every result and the serving daemon records it
in ``serve_stats.json``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["host_metadata", "cpu_model"]


def cpu_model() -> Optional[str]:
    """The CPU model string, or ``None`` when the platform hides it."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or None


def host_metadata() -> Dict[str, Any]:
    """The host facts that make a wall-clock measurement comparable."""
    import os
    import platform

    import numpy as np

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "cpu": cpu_model(),
    }
