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

Each outcome is recorded once, by the object that sees it, as one raw
event, before the request is answered: a ``serve.batch`` span per
batch, a ``serve.<model>.latency_s`` histogram observation per answered
request (tagged with its ``request`` id), and a
``serve.<model>.timeouts`` / ``serve.<model>.errors`` counter per
queue-expired or failed request (the worker), or ``serve.<model>.shed``
per shed request (the runtime).  ``repro report`` computes the SLO table
from these events; the live counts behind ``/v1/stats`` are plain ints
owned by the same objects (:meth:`ModelRuntime.describe`).
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

import numpy as np

from ..infer.engine import ArenaExecutor
from ..obs.trace import Recorder, get_recorder
from .queueing import ModelQueue, QueueFullError, RequestTimeout, ServeRequest
from .registry import ModelEntry


class BatchWorker(threading.Thread):
    """One arena, one thread, one model: drains batches until closed.

    ``recorder`` receives the worker's events; ``None`` means the
    process-wide current recorder at each emit.
    """

    def __init__(self, entry: ModelEntry, queue: ModelQueue,
                 max_batch: int, max_wait_s: float, worker_index: int = 0,
                 recorder: Optional[Recorder] = None) -> None:
        super().__init__(
            name=f"serve-{entry.name}-w{worker_index}", daemon=True)
        self.entry = entry
        self.queue = queue
        self.recorder = recorder
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        # live counts, written only by this thread
        self.batches_run = 0
        self.images_run = 0
        self.timeouts = 0
        self.errors = 0
        # private execution state — never shared across threads
        self.executor = ArenaExecutor(entry.program, max_batch)
        h, w, c = entry.input_shape
        self._stage_x = np.empty((max_batch, h, w, c), dtype=np.float32)
        self._logits = np.empty((max_batch, entry.num_classes),
                                dtype=np.float32)
        self._latency = f"serve.{entry.name}.latency_s"
        self._timeout = f"serve.{entry.name}.timeouts"
        self._error = f"serve.{entry.name}.errors"

    def run(self) -> None:
        while True:
            batch = self.queue.take_batch(self.max_batch, self.max_wait_s)
            if batch is None:
                return                      # queue drained and closed
            self._run_batch(batch)

    # -- one batch ----------------------------------------------------------
    def _run_batch(self, batch: List[ServeRequest]) -> None:
        recorder = self.recorder or get_recorder()
        live = self._drop_expired(batch, recorder)
        if not live:
            return
        n = len(live)
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
            self.errors += n
            for request in live:
                recorder.counter(self._error)
                request.set_error(exc)
            return
        self.batches_run += 1
        self.images_run += n
        for i, request in enumerate(live):
            # each outcome is logged before its waiter wakes, so a client
            # holding its answer finds the event in the log even if the
            # daemon is killed at once
            done_at = time.monotonic()
            recorder.observe(self._latency, done_at - request.enqueued_at,
                             request=request.id)
            # copy out: the logits scratch is reused for the next batch
            request.set_result(logits[i].copy(), done_at)

    def _drop_expired(self, batch: List[ServeRequest],
                      recorder: Recorder) -> List[ServeRequest]:
        """Fail requests whose client deadline passed while they queued."""
        live = []
        for request in batch:
            if request.expired():
                self.timeouts += 1
                recorder.counter(self._timeout)
                request.set_error(RequestTimeout(
                    f"{self.entry.name}: spent too long in queue"))
            else:
                live.append(request)
        return live


class ModelRuntime:
    """A loaded model plus its queue and worker pool; the serving unit."""

    def __init__(self, entry: ModelEntry, max_batch: int = 8,
                 max_wait_s: float = 0.005, queue_depth: int = 64,
                 workers: int = 1,
                 recorder: Optional[Recorder] = None) -> None:
        if workers < 1:
            raise ValueError("workers_per_model must be >= 1")
        self.entry = entry
        self.queue = ModelQueue(entry.name, maxsize=queue_depth)
        self.recorder = recorder
        self.workers = [
            BatchWorker(entry, self.queue, max_batch=max_batch,
                        max_wait_s=max_wait_s, worker_index=i,
                        recorder=recorder)
            for i in range(workers)]

    def start(self) -> None:
        for worker in self.workers:
            worker.start()

    def submit(self, request: ServeRequest) -> None:
        """Admit one request (sheds on a full queue, records the shed)."""
        try:
            self.queue.submit(request)
        except QueueFullError:
            (self.recorder or get_recorder()).counter(
                f"serve.{self.entry.name}.shed")
            raise

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
                    images_run=sum(w.images_run for w in self.workers),
                    shed=self.queue.shed,
                    timeouts=sum(w.timeouts for w in self.workers),
                    errors=sum(w.errors for w in self.workers))
        return info
