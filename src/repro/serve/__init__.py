"""``repro.serve``: multi-model serving for ``.bomp`` artifacts.

The serving stack, bottom to top:

- :mod:`~repro.serve.queueing` — bounded per-model queues, one-shot
  request futures, the admission/timeout error taxonomy;
- :mod:`~repro.serve.registry` — named models over the content-hash
  artifact cache (compile once, share the immutable program);
- :mod:`~repro.serve.batcher` — dynamic batching workers, each with a
  private :class:`~repro.infer.engine.ArenaExecutor`;
- :mod:`~repro.serve.daemon` — the stdlib-HTTP front end, admission
  control, and graceful drain (``repro serve``);
- :mod:`~repro.serve.report` — the SLO report over ``serve_stats.json``
  (``repro serve-report``);
- :mod:`~repro.serve.bench` — a deterministic ``.bomp`` artifact for
  tests, the smoke script and the benchmark.

Serving latency (queue wait vs. execute per request) is measured by the
repository benchmark, ``python3 perfbench/run.py`` (its ``infer``
workload; metrics in ``BENCHMARK.json``), which drives
:meth:`ServeDaemon.submit` directly.
"""

from .batcher import BatchWorker, ModelRuntime
from .daemon import (STATS_FILENAME, STATS_SCHEMA_VERSION, ServeConfig,
                     ServeDaemon)
from .queueing import (AdmissionError, ModelDraining, ModelQueue,
                       QueueFullError, RequestTimeout, ServeRequest,
                       UnknownModel)
from .registry import ModelEntry, ModelRegistry, RegistryError
from .report import (ModelSLO, ServeReport, ServeStatsError, build_report,
                     load_serve_stats, render_serve_report,
                     validate_serve_stats)

__all__ = [
    "AdmissionError", "BatchWorker", "ModelDraining", "ModelEntry",
    "ModelQueue", "ModelRegistry", "ModelRuntime", "ModelSLO",
    "QueueFullError", "RegistryError", "RequestTimeout", "ServeConfig",
    "ServeDaemon", "ServeReport", "ServeRequest", "ServeStatsError",
    "STATS_FILENAME", "STATS_SCHEMA_VERSION", "UnknownModel",
    "build_report", "load_serve_stats", "render_serve_report",
    "validate_serve_stats",
]
