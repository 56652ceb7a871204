"""Shared plumbing: locating the sources, timing, memory, reporting."""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

from stats import OpCounter, median

#: the checkout root: the directory holding ``perfbench/``
ROOT = Path(__file__).resolve().parent.parent

#: scratch space for artifacts, inside the checkout and ignored by git
WORK_DIR = ROOT / ".perfbench-work"


class SourcesMissing(RuntimeError):
    """The checkout has no ``src/repro`` package to benchmark."""


def use_sources() -> None:
    """Put the checkout's ``src`` first on the import path.

    The benchmark measures the code of the checkout it sits in, never an
    installed copy, so a directory without the sources is an error.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SourcesMissing(f"no repro sources under {src}")
    sys.path.insert(0, str(src))


@contextlib.contextmanager
def work_dir() -> Iterator[Path]:
    """A private scratch directory under the checkout, removed on exit."""
    path = WORK_DIR / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def median_setup(build: Callable[[], object], repeats: int,
                 speed: "HostSpeed",
                 release: Callable[[object], None] = lambda _: None
                 ) -> Tuple[float, List[float], object]:
    """Build once untimed, then ``repeats`` times timed.

    Returns the median seconds, every timing and the last result.  The
    untimed first build takes the lazy imports and first-touch costs,
    which made the first two of three timed builds read twice the rest.
    Each timed build is divided by the host slowdown sampled either side
    of it.  Every result but the last is handed to ``release`` so its
    resources (daemon threads, arenas) are gone before the next build.
    """
    times: List[float] = []
    built = build()
    after = speed.sample()
    for _ in range(repeats):
        release(built)
        built = None             # freed before the next build allocates
        before = after
        elapsed, built = timed(build)
        after = speed.sample()
        times.append(elapsed / speed.factor((before + after) / 2))
    return median(times), times, built


def _calibration_loop() -> int:
    total = 0
    for i in range(2000):
        total += i * i % 7
    return total


class HostSpeed:
    """Tracks how fast the host runs interpreter-bound code right now.

    On a shared two-vCPU host the same Python loop flips between speeds
    up to 1.6x apart every few seconds, and the repository's code (small
    numpy calls under Python dispatch) flips with it while their ratio
    moves by a few percent.  A fixed pure-Python loop, timed next to the
    measured work, therefore gives the slowdown to divide out.
    Normalised figures read in milliseconds of a host on which the loop
    takes :data:`REF_MS`; raw figures are printed beside them.
    """

    #: loop time on the reference host (two-vCPU Xeon VM, quiet phase)
    REF_MS = 0.125
    REPEATS = 5

    def __init__(self) -> None:
        self.samples: List[float] = []       # loop milliseconds

    def sample(self) -> float:
        """Time the loop; record and return the median milliseconds."""
        times = []
        for _ in range(self.REPEATS):
            start = time.perf_counter()
            _calibration_loop()
            times.append(time.perf_counter() - start)
        loop_ms = median(times) * 1e3
        self.samples.append(loop_ms)
        return loop_ms

    def factor(self, loop_ms: float) -> float:
        """Slowdown relative to the reference host (1.0 = reference)."""
        return loop_ms / self.REF_MS


def slowdown_note(speed: HostSpeed) -> str:
    factors = [speed.factor(ms) for ms in speed.samples]
    return (f"host slowdown vs reference over {len(factors)} calibration "
            f"samples: median {median(factors):.2f}, range "
            f"{min(factors):.2f}-{max(factors):.2f}; gated figures are "
            f"divided by it, raw ones shown beside them")


@dataclass
class Metric:
    """One reported figure with its unit and the samples behind it."""

    value: float
    unit: str
    n: int = 1
    note: str = ""


@dataclass
class Report:
    """What a workload hands back to ``run.py``."""

    ops: OpCounter = field(default_factory=OpCounter)
    #: the end-to-end figures under their specific names (``search_s``,
    #: ``infer.ips``, ``serve.light.p99_ms``, ...)
    named: Dict[str, Metric] = field(default_factory=dict)
    #: per-layer figures from the traced run
    layers: Dict[str, Metric] = field(default_factory=dict)
    #: accounting lines: how the traced totals add up, tracing overhead
    notes: List[str] = field(default_factory=list)


def print_table(title: str, metrics: Dict[str, Metric]) -> None:
    print(f"== {title}")
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        note = f"  {metric.note}" if metric.note else ""
        print(f"   {name:<{width}}  {metric.value:>14.6g} {metric.unit:<8}"
              f" n={metric.n}{note}")


def share(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole else "n/a"
