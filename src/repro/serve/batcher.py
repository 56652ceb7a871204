"""The dynamic batcher: per-model worker threads with private arenas.

Concurrent single-image requests are coalesced into arena-sized batches:
each :class:`BatchWorker` loops on
:meth:`~repro.serve.queueing.ModelQueue.take_batch` (block for the first
request, wait up to ``max_wait_s`` for more, never past ``max_batch``),
stacks the images into its preallocated staging buffer, and executes the
whole batch through its *own*
:class:`~repro.infer.engine.ArenaExecutor`.  Short batches — a lone
request at low load, the odd tail of a drain — run on the executor's
prefix-view path, so every batch size ``1..max_batch`` is bit-identical
to the serial ``repro infer`` reference on the same images (the test
suite asserts this).

Threading model: the compiled :class:`~repro.infer.engine.Program` is
shared and immutable; everything mutable (arena, staging buffer, logits
scratch) is owned by exactly one worker thread, because an executor
belongs to one thread.  ``workers_per_model > 1`` therefore scales
concurrency by adding arenas, never by sharing one.

Per-request bookkeeping feeds the SLO metrics
(``serve.<model>.latency_s`` histograms, ``serve.<model>.timeouts``
counters, batch-size histograms) through the thread-safe
:mod:`repro.obs.metrics` registry owned by the daemon.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

from ..infer.engine import ArenaExecutor
from ..obs.metrics import MetricsRegistry
from ..obs.trace import get_recorder
from .queueing import ModelQueue, RequestTimeout, ServeRequest
from .registry import ModelEntry

#: sub-second latency buckets (seconds) for the serve SLO histograms —
#: the default trace buckets top out too coarse below 1 ms
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0)

#: batch-size buckets: exact counts up to 16, then coarse
BATCH_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16, 32, 64, 128, 256)


class BatchWorker(threading.Thread):
    """One arena, one thread, one model: drains batches until closed."""

    def __init__(self, entry: ModelEntry, queue: ModelQueue,
                 metrics: MetricsRegistry, max_batch: int,
                 max_wait_s: float, worker_index: int = 0) -> None:
        super().__init__(
            name=f"serve-{entry.name}-w{worker_index}", daemon=True)
        self.entry = entry
        self.queue = queue
        self.metrics = metrics
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.batches_run = 0
        self.images_run = 0
        # private execution state — never shared across threads
        self.executor = ArenaExecutor(entry.program, max_batch)
        h, w, c = entry.input_shape
        self._stage_x = np.empty((max_batch, h, w, c), dtype=np.float32)
        self._logits = np.empty((max_batch, entry.num_classes),
                                dtype=np.float32)
        prefix = f"serve.{entry.name}"
        self._m_latency = metrics.histogram(f"{prefix}.latency_s",
                                            LATENCY_BUCKETS)
        self._m_batch = metrics.histogram(f"{prefix}.batch_size",
                                          BATCH_BUCKETS)
        self._m_requests = metrics.counter(f"{prefix}.requests")
        self._m_batches = metrics.counter(f"{prefix}.batches")
        self._m_timeouts = metrics.counter(f"{prefix}.timeouts")
        self._m_errors = metrics.counter(f"{prefix}.errors")

    def run(self) -> None:
        while True:
            batch = self.queue.take_batch(self.max_batch, self.max_wait_s)
            if batch is None:
                return                      # queue drained and closed
            self._run_batch(batch)

    # -- one batch ----------------------------------------------------------
    def _run_batch(self, batch: List[ServeRequest]) -> None:
        live = self._drop_expired(batch)
        if not live:
            return
        n = len(live)
        recorder = get_recorder()
        try:
            x = self._stage_x[:n]
            for i, request in enumerate(live):
                x[i] = request.image
            logits = self._logits[:n]
            if recorder.enabled:
                with recorder.span("serve.batch", model=self.entry.name,
                                   images=n):
                    self.executor.run_batch_into(x, logits)
            else:
                self.executor.run_batch_into(x, logits)
        except BaseException as exc:  # answer everyone, keep the worker up
            self._m_errors.inc(n)
            for request in live:
                request.set_error(exc)
            return
        self.batches_run += 1
        self.images_run += n
        self._m_batches.inc()
        self._m_requests.inc(n)
        self._m_batch.observe(n)
        for i, request in enumerate(live):
            # copy out: the logits scratch is reused for the next batch
            request.set_result(logits[i].copy())
            self._m_latency.observe(request.latency_s)

    def _drop_expired(self,
                      batch: List[ServeRequest]) -> List[ServeRequest]:
        """Fail requests whose client deadline passed while they queued."""
        live = []
        for request in batch:
            if request.expired():
                self._m_timeouts.inc()
                request.set_error(RequestTimeout(
                    f"{self.entry.name}: spent too long in queue"))
            else:
                live.append(request)
        return live


class ModelRuntime:
    """A loaded model plus its queue and worker pool; the serving unit."""

    def __init__(self, entry: ModelEntry, metrics: MetricsRegistry,
                 max_batch: int = 8, max_wait_s: float = 0.005,
                 queue_depth: int = 64, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers_per_model must be >= 1")
        self.entry = entry
        self.queue = ModelQueue(entry.name, maxsize=queue_depth)
        self.metrics = metrics
        self._m_shed = metrics.counter(f"serve.{entry.name}.shed")
        self._m_depth = metrics.gauge(f"serve.{entry.name}.queue_depth")
        self.workers = [
            BatchWorker(entry, self.queue, metrics, max_batch=max_batch,
                        max_wait_s=max_wait_s, worker_index=i)
            for i in range(workers)]

    def start(self) -> None:
        for worker in self.workers:
            worker.start()

    def submit(self, request: ServeRequest) -> None:
        """Admit one request (sheds on a full queue, counts the shed)."""
        try:
            self.queue.submit(request)
        except Exception:
            self._m_shed.inc()
            raise
        self._m_depth.set(self.queue.depth)

    def stop(self, drain: bool = True,
             timeout_s: Optional[float] = 30.0) -> int:
        """Close the queue, finish (or flush) the backlog, join workers.

        With ``drain`` every admitted request is still answered; without
        it the backlog is failed fast.  Returns the number of requests
        flushed (0 for a clean drain).
        """
        self.queue.close()
        flushed = 0
        if not drain:
            from .queueing import ModelDraining
            flushed = self.queue.flush(
                ModelDraining(f"{self.entry.name}: shut down"))
        for worker in self.workers:
            if worker.ident is not None:       # joining an unstarted
                worker.join(timeout_s)         # thread is an error
        return flushed

    def describe(self) -> dict:
        info = self.entry.describe()
        info.update(queue_depth=self.queue.depth,
                    queue_capacity=self.queue.maxsize,
                    workers=len(self.workers),
                    draining=self.queue.closed,
                    batches_run=sum(w.batches_run for w in self.workers),
                    images_run=sum(w.images_run for w in self.workers))
        return info
