"""Observability: one event log per run, one report over it.

The package instruments the whole BOMP-NAS loop without touching its
results:

- :mod:`repro.obs.trace` — hierarchical spans
  (``run > pool.batch > trial > phase > epoch``) and raw metric events,
  recorded by a process-wide current recorder that defaults to a no-op,
  so instrumentation is free until a :class:`TraceRecorder` /
  :class:`RunTracer` is installed; a :class:`RunTracer` streams the
  run's ``events.jsonl``, the only run record (search, infer, serve);
- :mod:`repro.obs.console` — line-buffered CLI progress reporting;
- :mod:`repro.obs.profile` — pay-for-what-you-use deterministic kernel
  profiler (wall time, call counts, allocation attribution) keyed by the
  open phase span, enabled via ``BOMP_PROFILE=1`` / ``--profile``; a
  phase's own figures live on its span;
- :mod:`repro.obs.report` — the ``repro report <run_dir>`` dashboard
  (text + SVG) of any run kind, every figure computed from raw events
  folded once into a :class:`RunReport`;
- :mod:`repro.obs.profreport` — the kernel hotspot table and
  flame/icicle SVG ``repro report`` draws from that report;
- :mod:`repro.obs.schema` — validators for event logs and checkpoints;
- :mod:`repro.obs.host` — the host metadata stamped next to timings.

Performance itself is measured by the repository benchmark,
``python3 perfbench/run.py`` (workloads, metrics and regression bounds
in ``BENCHMARK.json``), which reads its per-layer breakdown from these
spans and profiler tables.

Enabling ``--trace`` or ``--profile`` must never change a trial result:
instrumentation only reads values and clocks, never the run's random
generators (enforced by ``tests/parallel/test_determinism.py`` and
``tests/obs/test_profile.py``).
"""

from .console import ConsoleReporter
from .profile import (KernelProfiler, current_mode, kernel, mode_from_env,
                      use_profiler)
from .profile import current as current_profiler
from .profreport import flame_svg, render_hotspots
from .report import RunReport, load_report, render_text, write_report
from .trace import (EVENTS_FILENAME, NULL_RECORDER, TRACE_SCHEMA_VERSION,
                    Recorder, RunTracer, Span, TraceRecorder, get_recorder,
                    read_events, read_events_tolerant, set_recorder, span,
                    use_recorder)

__all__ = [
    "Recorder", "TraceRecorder", "RunTracer", "Span",
    "get_recorder", "set_recorder", "use_recorder", "span",
    "read_events", "read_events_tolerant", "NULL_RECORDER",
    "TRACE_SCHEMA_VERSION", "EVENTS_FILENAME",
    "ConsoleReporter",
    "KernelProfiler", "kernel", "use_profiler", "current_profiler",
    "current_mode", "mode_from_env",
    "render_hotspots", "flame_svg",
    "RunReport", "load_report", "render_text", "write_report",
]
