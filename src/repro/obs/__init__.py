"""Observability: structured tracing, metrics, and search-health reports.

The package instruments the whole BOMP-NAS loop without touching its
results:

- :mod:`repro.obs.trace` — hierarchical spans
  (``run > trial > phase > epoch``) and a process-wide current recorder
  that defaults to a no-op, so instrumentation is free until a
  :class:`TraceRecorder` / :class:`RunTracer` is installed;
- :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms, aggregated live and rebuildable from event logs;
- :mod:`repro.obs.console` — line-buffered CLI progress reporting;
- :mod:`repro.obs.profile` — pay-for-what-you-use deterministic phase and
  kernel profiler (wall time, call counts, allocation attribution),
  enabled via ``BOMP_PROFILE=1`` / ``--profile``;
- :mod:`repro.obs.report` — the ``repro report <run_dir>`` search-health
  dashboard (text + SVG);
- :mod:`repro.obs.profreport` — ``repro profile <run_dir>`` hotspot
  tables and flame/icicle SVGs over the profile events;
- :mod:`repro.obs.schema` — validators for event logs, checkpoints and
  serving stats;
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
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import (KernelProfiler, current_mode, kernel, mode_from_env,
                      use_profiler)
from .profile import current as current_profiler
from .profreport import ProfileView, flame_svg, load_profile, render_hotspots
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
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "ConsoleReporter",
    "KernelProfiler", "kernel", "use_profiler", "current_profiler",
    "current_mode", "mode_from_env",
    "ProfileView", "load_profile", "render_hotspots", "flame_svg",
    "RunReport", "load_report", "render_text", "write_report",
]
