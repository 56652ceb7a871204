"""Admission control: bounded per-model queues with shedding and drain.

Every inference request becomes a :class:`ServeRequest` — a one-shot
future the HTTP handler thread blocks on while a batch worker fills it.
Requests are admitted into a :class:`ModelQueue`, the backpressure unit:

- **bounded** — a full queue sheds the request immediately
  (:class:`QueueFullError`, HTTP 429) instead of letting latency grow
  without bound; the queue depth *is* the admission policy, and the
  queue counts its sheds (``shed``; a drain refusal is not a shed);
- **deadline-aware** — a request older than its client deadline when a
  worker picks it up fails fast (:class:`RequestTimeout`, HTTP 504)
  rather than wasting a batch slot on an answer nobody is waiting for;
- **drainable** — :meth:`ModelQueue.close` flips the queue into drain
  mode: new submissions are refused (:class:`ModelDraining`, HTTP 503)
  while everything already admitted is still batched, executed, and
  answered.  This is the SIGTERM story: close every queue, join the
  workers, exit with zero dropped in-flight requests.

:meth:`ModelQueue.take_batch` implements the dynamic-batching wait
discipline (first request blocks, then up to ``max_wait_s`` for the
batch to fill); the loop that calls it lives in
:mod:`repro.serve.batcher`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import List, Optional

import numpy as np


class AdmissionError(RuntimeError):
    """A request was refused at the door (never entered a queue)."""

    status = 503


class QueueFullError(AdmissionError):
    """The model's queue is at capacity — shed, client should back off."""

    status = 429


class ModelDraining(AdmissionError):
    """The queue (or the whole daemon) is draining for shutdown/evict."""

    status = 503


class UnknownModel(AdmissionError):
    """No model with that name is loaded."""

    status = 404


class RequestTimeout(RuntimeError):
    """The request's client deadline passed while it waited in queue."""

    status = 504


#: request ids: ``next`` on an ``itertools.count`` is one C call, atomic
#: under the GIL, so ids are unique across the handler threads
_request_ids = itertools.count(1)


class ServeRequest:
    """One single-image inference request; a one-shot future.

    The submitting thread calls :meth:`wait`; a batch worker calls
    :meth:`set_result` or :meth:`set_error` exactly once.  ``id`` is an
    integer unique within the process, which the worker's latency event
    carries as its ``request`` tag.  ``image`` is the float32 HWC array;
    ``logits`` is filled with a private copy of the worker's output row
    (the arena is reused for the next batch, so the row must be copied
    out before the worker moves on).
    """

    __slots__ = ("id", "model", "image", "enqueued_at", "deadline",
                 "logits", "error", "done_at", "_done")

    def __init__(self, model: str, image: np.ndarray,
                 timeout_s: Optional[float] = None) -> None:
        self.id = next(_request_ids)
        self.model = model
        self.image = image
        self.enqueued_at = time.monotonic()
        self.deadline = (self.enqueued_at + timeout_s
                         if timeout_s is not None else None)
        self.logits: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.done_at: Optional[float] = None
        self._done = threading.Event()

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) \
            > self.deadline

    def set_result(self, logits: np.ndarray,
                   done_at: Optional[float] = None) -> None:
        """Answer the waiter; its latency ends at ``done_at`` (default
        now)."""
        self.logits = logits
        self.done_at = time.monotonic() if done_at is None else done_at
        self._done.set()

    def set_error(self, error: BaseException) -> None:
        self.error = error
        self.done_at = time.monotonic()
        self._done.set()

    def wait(self, timeout_s: Optional[float] = None) -> np.ndarray:
        """Block until a worker answers; raises the worker's error."""
        if not self._done.wait(timeout_s):
            raise RequestTimeout(
                f"{self.model}: no response within {timeout_s}s")
        if self.error is not None:
            raise self.error
        return self.logits

    @property
    def latency_s(self) -> Optional[float]:
        """Queue-entry to answer, the latency the SLO histograms track."""
        if self.done_at is None:
            return None
        return self.done_at - self.enqueued_at


class ModelQueue:
    """A bounded FIFO of :class:`ServeRequest` with batch takeout.

    One queue per loaded model; ``maxsize`` bounds *queued* requests
    (in-flight batches are additionally bounded by the number of workers,
    each of which holds at most one batch — together these are the
    per-model concurrency limit).
    """

    def __init__(self, name: str, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError("queue maxsize must be >= 1")
        self.name = name
        self.maxsize = maxsize
        self.closed = False
        self.shed = 0
        self._items: "deque[ServeRequest]" = deque()
        self._cond = threading.Condition()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def depth(self) -> int:
        return len(self._items)

    def submit(self, request: ServeRequest) -> None:
        """Admit one request, or shed it (raises, nothing enqueued)."""
        with self._cond:
            if self.closed:
                raise ModelDraining(f"{self.name}: draining, not "
                                    "accepting new requests")
            if len(self._items) >= self.maxsize:
                self.shed += 1
                raise QueueFullError(
                    f"{self.name}: queue full ({self.maxsize} waiting)")
            self._items.append(request)
            self._cond.notify()

    def take_batch(self, max_batch: int,
                   max_wait_s: float) -> Optional[List[ServeRequest]]:
        """Block for the next batch; ``None`` means drained — worker exits.

        Blocks until at least one request is queued, then keeps waiting —
        up to ``max_wait_s`` past the *first* takeout attempt — for the
        batch to fill to ``max_batch``.  A closed queue never waits: the
        remaining requests are flushed in ``max_batch``-sized bites so
        drain completes as fast as the executor can go.
        """
        with self._cond:
            while not self._items:
                if self.closed:
                    return None
                self._cond.wait()
            if not self.closed and len(self._items) < max_batch:
                deadline = time.monotonic() + max_wait_s
                while len(self._items) < max_batch and not self.closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
            batch = [self._items.popleft()
                     for _ in range(min(max_batch, len(self._items)))]
            return batch

    def close(self) -> None:
        """Refuse new submissions; wake workers to flush what remains."""
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    def flush(self, error: BaseException) -> int:
        """Fail everything still queued (hard shutdown); returns count."""
        with self._cond:
            dropped = 0
            while self._items:
                self._items.popleft().set_error(error)
                dropped += 1
            return dropped
