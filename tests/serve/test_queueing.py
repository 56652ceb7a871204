"""Admission control unit tests: futures, bounded queues, batch takeout."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.serve.queueing import (ModelDraining, ModelQueue, QueueFullError,
                                  RequestTimeout, ServeRequest)


def req(timeout_s=None):
    return ServeRequest("m", np.zeros((2, 2, 3), np.float32),
                        timeout_s=timeout_s)


class TestServeRequest:
    def test_result_round_trip(self):
        request = req()
        logits = np.arange(4.0, dtype=np.float32)
        request.set_result(logits)
        assert np.array_equal(request.wait(1.0), logits)
        assert request.latency_s >= 0.0

    def test_error_propagates_to_waiter(self):
        request = req()
        request.set_error(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            request.wait(1.0)

    def test_wait_times_out(self):
        with pytest.raises(RequestTimeout):
            req().wait(0.01)

    def test_expiry_follows_deadline(self):
        assert not req().expired()              # no deadline, never expires
        request = req(timeout_s=60.0)
        assert not request.expired()
        assert request.expired(now=request.deadline + 1.0)

    def test_ids_unique_across_threads(self):
        """Handler threads create requests concurrently: eight threads
        (more than cores) at a shortened switch interval never draw the
        same id."""
        n_threads, per_thread = 8, 500
        ids = [[] for _ in range(n_threads)]

        def create(index):
            ids[index].extend(req().id for _ in range(per_thread))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=create, args=(i,))
                       for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        drawn = [i for chunk in ids for i in chunk]
        assert len(set(drawn)) == len(drawn) == n_threads * per_thread

    def test_wait_unblocks_cross_thread(self):
        request = req()
        threading.Timer(0.02, request.set_result,
                        args=(np.zeros(2, np.float32),)).start()
        assert request.wait(5.0).shape == (2,)


class TestModelQueue:
    def test_fifo_and_depth(self):
        queue = ModelQueue("m", maxsize=4)
        first, second = req(), req()
        queue.submit(first)
        queue.submit(second)
        assert queue.depth == 2
        batch = queue.take_batch(max_batch=2, max_wait_s=0.0)
        assert batch == [first, second]
        assert queue.depth == 0

    def test_full_queue_sheds(self):
        queue = ModelQueue("m", maxsize=1)
        queue.submit(req())
        with pytest.raises(QueueFullError):
            queue.submit(req())
        assert queue.depth == 1                # the shed one never entered
        assert queue.shed == 1

    def test_closed_queue_refuses(self):
        queue = ModelQueue("m")
        queue.close()
        with pytest.raises(ModelDraining):
            queue.submit(req())
        assert queue.shed == 0                 # a drain refusal is no shed

    def test_shed_count_exact_under_contention(self):
        """Handler threads shed concurrently; no shed is lost."""
        queue = ModelQueue("m", maxsize=5)
        n_threads, per_thread = 16, 200
        refused = [0] * n_threads

        def submit(index):
            for _ in range(per_thread):
                try:
                    queue.submit(req())
                except QueueFullError:
                    refused[index] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert queue.depth == 5
        assert queue.shed == sum(refused) == n_threads * per_thread - 5

    def test_take_batch_caps_at_max_batch(self):
        queue = ModelQueue("m", maxsize=8)
        for _ in range(5):
            queue.submit(req())
        assert len(queue.take_batch(max_batch=3, max_wait_s=0.0)) == 3
        assert len(queue.take_batch(max_batch=3, max_wait_s=0.0)) == 2

    def test_take_batch_waits_to_fill(self):
        queue = ModelQueue("m")
        queue.submit(req())
        late = req()
        threading.Timer(0.03, queue.submit, args=(late,)).start()
        batch = queue.take_batch(max_batch=2, max_wait_s=2.0)
        assert len(batch) == 2 and batch[1] is late

    def test_closed_queue_flushes_without_waiting(self):
        queue = ModelQueue("m")
        queue.submit(req())
        queue.close()
        start = time.monotonic()
        batch = queue.take_batch(max_batch=8, max_wait_s=10.0)
        assert len(batch) == 1
        assert time.monotonic() - start < 1.0   # did not sit out max_wait
        assert queue.take_batch(max_batch=8, max_wait_s=10.0) is None

    def test_close_wakes_blocked_worker(self):
        queue = ModelQueue("m")
        result = []
        worker = threading.Thread(
            target=lambda: result.append(queue.take_batch(4, 0.01)))
        worker.start()
        time.sleep(0.02)                        # let it block on empty
        queue.close()
        worker.join(5.0)
        assert result == [None]

    def test_flush_fails_backlog(self):
        queue = ModelQueue("m")
        requests = [req() for _ in range(3)]
        for request in requests:
            queue.submit(request)
        queue.close()
        assert queue.flush(ModelDraining("bye")) == 3
        for request in requests:
            with pytest.raises(ModelDraining):
                request.wait(0.1)

    def test_error_statuses(self):
        assert QueueFullError("x").status == 429
        assert ModelDraining("x").status == 503
        assert RequestTimeout("x").status == 504
