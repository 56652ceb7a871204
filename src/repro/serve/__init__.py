"""``repro.serve``: multi-model serving for ``.bomp`` artifacts.

The serving stack, bottom to top:

- :mod:`~repro.serve.queueing` — bounded per-model queues, one-shot
  request futures, the admission/timeout error taxonomy;
- :mod:`~repro.serve.registry` — named models over the content-hash
  artifact cache (compile once, share the immutable program);
- :mod:`~repro.serve.batcher` — dynamic batching workers, each with a
  private :class:`~repro.infer.engine.ArenaExecutor`;
- :mod:`~repro.serve.daemon` — the stdlib-HTTP front end, admission
  control, graceful drain, and the run's ``events.jsonl`` (``repro
  serve``; ``repro report`` renders its SLO table);
- :mod:`~repro.serve.bench` — a deterministic ``.bomp`` artifact for
  tests, the smoke script and the benchmark.

Serving latency (queue wait vs. execute per request) is measured by the
repository benchmark, ``python3 perfbench/run.py`` (its ``infer``
workload; metrics in ``BENCHMARK.json``), which drives
:meth:`ServeDaemon.submit` directly.
"""

from .batcher import BatchWorker, ModelRuntime
from .daemon import ServeConfig, ServeDaemon
from .queueing import (AdmissionError, ModelDraining, ModelQueue,
                       QueueFullError, RequestTimeout, ServeRequest,
                       UnknownModel)
from .registry import ModelEntry, ModelRegistry, RegistryError

__all__ = [
    "AdmissionError", "BatchWorker", "ModelDraining", "ModelEntry",
    "ModelQueue", "ModelRegistry", "ModelRuntime", "QueueFullError",
    "RegistryError", "RequestTimeout", "ServeConfig", "ServeDaemon",
    "ServeRequest", "UnknownModel",
]
