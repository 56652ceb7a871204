"""Deterministic phase/kernel profiler layered on the span tracer.

The span tracer answers *where did the wall-clock go per phase*; this
module answers *which kernel burned it* — inclusive/exclusive wall time
and call counts per nn/infer kernel (conv im2col, matmul, BN, pooling,
dense, fake-quant, arena stage kinds), attributed to the pipeline phase
(train/ptq/qaft/eval/final_training) that was open when the kernel ran.

Pay-for-what-you-use, like the tracer: instrumented call sites go through
:func:`kernel`, which returns a shared no-op context manager unless a
:class:`KernelProfiler` has been activated (``BOMP_PROFILE=1``, the CLI
``--profile`` flag, or :func:`use_profiler` in tests).  The profiler only
reads clocks — never RNGs — so profiled runs are bit-identical to
unprofiled runs.

Two modes:

- ``"time"`` (``BOMP_PROFILE=1``): wall-time + call counts, < 3%% overhead
  on the smoke path;
- ``"alloc"`` (``BOMP_PROFILE=alloc``): additionally counts ndarray
  constructor calls per kernel and per phase, and tracks each phase's
  tracemalloc peak/net bytes.  Heavier (tracemalloc hooks every
  allocation); use it for targeted memory hunts, not routine runs.

Exclusive time uses the classic timer-stack subtraction: a frame's
exclusive cost is its duration minus the summed durations of its direct
children, so nested kernels (conv forward -> fake-quant) never
double-count.  Phase attribution is driven by the tracer — ``phase``-kind
spans push/pop the profiler's phase stack (see
:meth:`repro.obs.trace.Span.__enter__`).  A phase is recorded by its span
alone: the profiler keeps the stack only to key kernels by phase, and in
alloc mode writes the phase's ``allocs``, ``peak_bytes`` and
``net_bytes`` into the closing span's tags.

Workers profile with their own :class:`KernelProfiler` and flush the
kernel aggregate into their private trace recorder
(:func:`KernelProfiler.flush_to`); the resulting kernel-scope
``"profile"`` events ship through ``TrialOutcome.events`` and merge like
any other event.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from ..env import EnvVarError

if TYPE_CHECKING:  # pragma: no cover
    from .trace import Span

#: environment variable enabling profiling ("1"/"time" or "alloc")
PROFILE_ENV = "BOMP_PROFILE"

#: every accepted ``BOMP_PROFILE`` spelling (case-insensitive) and the
#: mode it selects; any other value is refused
PROFILE_SPELLINGS: Dict[str, Optional[str]] = {
    **dict.fromkeys(("", "0", "off", "false", "no")),
    **dict.fromkeys(("1", "time", "on", "yes", "true"), "time"),
    **dict.fromkeys(("2", "alloc", "allocs", "mem", "memory"), "alloc"),
}

#: supported profiling modes
MODES = ("time", "alloc")

#: numpy functions counted as explicit ndarray allocations (alloc mode):
#: the constructors and the copying helpers; the arena executor's
#: steady-state test asserts none of them runs
NDARRAY_CONSTRUCTORS = ("empty", "zeros", "ones", "full",
                        "empty_like", "zeros_like", "ones_like", "full_like",
                        "pad", "concatenate", "ascontiguousarray", "copy")


def mode_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[str]:
    """Profiling mode requested by ``BOMP_PROFILE`` (``None`` = off).

    Raises :class:`~repro.env.EnvVarError` for a spelling outside
    :data:`PROFILE_SPELLINGS`.
    """
    source = environ if environ is not None else os.environ
    value = source.get(PROFILE_ENV, "")
    try:
        return PROFILE_SPELLINGS[value.strip().lower()]
    except KeyError:
        raise EnvVarError(
            f"{PROFILE_ENV}={value!r}: expected one of "
            f"{', '.join(s for s in PROFILE_SPELLINGS if s)} "
            f"(or empty)") from None


class _KernelStat:
    """Aggregate for one (phase, kernel) pair."""

    __slots__ = ("calls", "incl_s", "excl_s", "allocs")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.excl_s = 0.0
        self.allocs = 0


class _KernelTimer:
    """Context manager timing one kernel invocation (profiler on)."""

    __slots__ = ("profiler", "name", "_t0", "_a0", "child_s", "child_allocs")

    def __init__(self, profiler: "KernelProfiler", name: str) -> None:
        self.profiler = profiler
        self.name = name

    def __enter__(self) -> "_KernelTimer":
        self.child_s = 0.0
        self.child_allocs = 0
        self.profiler._kstack.append(self)
        self._a0 = self.profiler.alloc_count
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        dur = time.perf_counter() - self._t0
        profiler = self.profiler
        allocs = profiler.alloc_count - self._a0
        stack = profiler._kstack
        while stack and stack[-1] is not self:
            stack.pop()  # tolerate out-of-order exits, like the tracer
        if stack:
            stack.pop()
        if stack:
            parent = stack[-1]
            parent.child_s += dur
            parent.child_allocs += allocs
        stat = profiler._kernel_stat(self.name)
        stat.calls += 1
        stat.incl_s += dur
        stat.excl_s += dur - self.child_s
        stat.allocs += allocs - self.child_allocs


class _NullTimer:
    """The shared do-nothing timer returned when profiling is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_TIMER = _NullTimer()


class KernelProfiler:
    """Accumulates per-(phase, kernel) wall time, calls, and allocations.

    Create one per scope you want attributed (one per trial in workers,
    one for the parent process), activate it with :func:`activate` /
    :func:`use_profiler`, and :meth:`flush_to` a recorder when done.
    """

    def __init__(self, mode: str = "time") -> None:
        if mode not in MODES:
            raise ValueError(f"unknown profile mode {mode!r}; "
                             f"expected one of {MODES}")
        self.mode = mode
        self.kernels: Dict[Tuple[str, str], _KernelStat] = {}
        self.alloc_count = 0  # bumped by the constructor wrappers
        self._kstack: List[_KernelTimer] = []
        # each entry: (name, alloc0, tracemalloc_cur0 or None)
        self._pstack: List[tuple] = []

    # -- collection --------------------------------------------------------
    def timer(self, name: str) -> _KernelTimer:
        return _KernelTimer(self, name)

    def current_phase(self) -> str:
        return self._pstack[-1][0] if self._pstack else ""

    def _kernel_stat(self, name: str) -> _KernelStat:
        key = (self.current_phase(), name)
        stat = self.kernels.get(key)
        if stat is None:
            stat = self.kernels[key] = _KernelStat()
        return stat

    def phase_started(self, name: str) -> None:
        """Called by the tracer when a ``phase``-kind span opens."""
        mem0 = None
        if self.mode == "alloc" and tracemalloc.is_tracing():
            mem0 = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        self._pstack.append((name, self.alloc_count, mem0))

    def phase_finished(self, span: "Span") -> None:
        """Called by the tracer when a ``phase``-kind span closes.

        Pops the phase; in alloc mode, writes its ndarray allocation
        count and tracemalloc peak and net bytes into ``span.tags``.
        """
        while self._pstack and self._pstack[-1][0] != span.name:
            self._pstack.pop()  # tolerate out-of-order exits
        if not self._pstack:
            return
        _, alloc0, mem0 = self._pstack.pop()
        if mem0 is not None:
            current, peak = tracemalloc.get_traced_memory()
            span.tags.update(allocs=self.alloc_count - alloc0,
                             peak_bytes=peak - mem0,
                             net_bytes=current - mem0)

    # -- export ------------------------------------------------------------
    def events(self, trial: Optional[int] = None) -> List[Dict[str, Any]]:
        """The accumulated kernel stats as ``"profile"`` trace events."""
        alloc = self.mode == "alloc"
        return [{"type": "profile", "scope": "kernel", "name": name,
                 "phase": phase, "mode": self.mode, "trial": trial,
                 "calls": stat.calls, "excl_s": stat.excl_s,
                 "incl_s": stat.incl_s,
                 "allocs": stat.allocs if alloc else None,
                 "peak_bytes": None, "net_bytes": None, "tags": {}}
                for (phase, name), stat in sorted(self.kernels.items())]

    def flush_to(self, recorder: Any, trial: Optional[int] = None) -> int:
        """Emit the accumulated stats into ``recorder`` and reset.

        Returns the number of events emitted.  Safe to call on the no-op
        recorder (the stats are still cleared).
        """
        events = self.events(trial=trial)
        for event in events:
            recorder.event(event)
        self.reset()
        return len(events)

    def reset(self) -> None:
        """Drop accumulated stats (open stacks are left untouched)."""
        self.kernels.clear()


# -- process-wide activation ------------------------------------------------
_active: Optional[KernelProfiler] = None

# alloc-mode bookkeeping: constructor wrappers and tracemalloc are enabled
# once and refcounted, so nested alloc profilers (run-level + per-trial)
# compose.
_alloc_depth = 0
_started_tracemalloc = False
_saved_constructors: Dict[str, Any] = {}


def _counting(original: Any) -> Any:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        profiler = _active
        if profiler is not None:
            profiler.alloc_count += 1
        return wrapper.__wrapped__(*args, **kwargs)
    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", "ndarray_constructor")
    return wrapper


def _enable_alloc_tracking() -> None:
    global _alloc_depth, _started_tracemalloc
    _alloc_depth += 1
    if _alloc_depth > 1:
        return
    if not tracemalloc.is_tracing():
        tracemalloc.start()
        _started_tracemalloc = True
    import numpy as np
    for name in NDARRAY_CONSTRUCTORS:
        original = getattr(np, name)
        _saved_constructors[name] = original
        setattr(np, name, _counting(original))


def _disable_alloc_tracking() -> None:
    global _alloc_depth, _started_tracemalloc
    if _alloc_depth == 0:
        return
    _alloc_depth -= 1
    if _alloc_depth:
        return
    import numpy as np
    for name, original in _saved_constructors.items():
        setattr(np, name, original)
    _saved_constructors.clear()
    if _started_tracemalloc:
        tracemalloc.stop()
        _started_tracemalloc = False


def current() -> Optional[KernelProfiler]:
    """The active profiler, or ``None`` when profiling is off."""
    return _active


def current_mode() -> Optional[str]:
    """The active profiler's mode, or ``None`` when profiling is off."""
    return _active.mode if _active is not None else None


def activate(profiler: Optional[KernelProfiler]) -> Optional[KernelProfiler]:
    """Install ``profiler`` process-wide; returns the previous one."""
    global _active
    previous = _active
    if profiler is not None and profiler.mode == "alloc":
        _enable_alloc_tracking()
    _active = profiler
    if previous is not None and previous.mode == "alloc":
        _disable_alloc_tracking()
    return previous


@contextmanager
def use_profiler(
        profiler: Optional[KernelProfiler]) -> Iterator[
            Optional[KernelProfiler]]:
    """Scoped :func:`activate`; restores the previous profiler on exit."""
    previous = activate(profiler)
    try:
        yield profiler
    finally:
        activate(previous)


def kernel(name: str) -> Any:
    """A kernel timer on the active profiler (no-op when profiling is off).

    This is the hot-path hook: one module-global read and one shared
    object when off, one :class:`_KernelTimer` when on.
    """
    profiler = _active
    if profiler is None:
        return _NULL_TIMER
    return _KernelTimer(profiler, name)
