"""Dynamic batcher: bit-identity with serial inference, error isolation.

The acceptance property of the whole subsystem lives here: any
concurrent mix of single-image requests, coalesced into batches of any
size up to the arena capacity — including the odd tail of a drain — must
produce logits bit-identical to the serial ``repro infer`` path on the
same images.
"""

import threading

import numpy as np
import pytest

from repro.obs.trace import TraceRecorder
from repro.serve.batcher import ModelRuntime
from repro.serve.queueing import RequestTimeout, ServeRequest
from repro.serve.registry import ModelRegistry


def make_runtime(path, **kwargs):
    registry = ModelRegistry()
    entry = registry.load("m", path)
    runtime = ModelRuntime(entry, **kwargs)
    runtime.start()
    return runtime


def counters(recorder):
    return [e["name"] for e in recorder.events if e["type"] == "counter"]


class TestBitIdentity:
    @pytest.mark.parametrize("n_images", [1, 3, 8, 11])
    def test_any_load_matches_serial(self, serve_artifact_path,
                                     serve_reference_program,
                                     serve_images, n_images):
        """Batches of every size 1..max_batch, odd tails included.

        11 images through a max_batch-4 runtime must split as 4+4+3 (or
        smaller under scheduling jitter) — every split is bit-identical.
        """
        runtime = make_runtime(serve_artifact_path, max_batch=4,
                               max_wait_s=0.002)
        x = serve_images[:n_images]
        requests = [ServeRequest("m", image, timeout_s=60.0)
                    for image in x]
        for request in requests:
            runtime.submit(request)
        served = np.stack([request.wait(60.0) for request in requests])
        runtime.stop()
        reference = serve_reference_program.run(x, batch_size=n_images)
        assert np.array_equal(served, reference)

    def test_concurrent_submitters_match_serial(self, serve_artifact_path,
                                                serve_reference_program,
                                                serve_images):
        """8 client threads racing into one queue: answers still exact."""
        runtime = make_runtime(serve_artifact_path, max_batch=8,
                               max_wait_s=0.005, queue_depth=64)
        n_clients, per_client = 8, 4
        x = serve_images[:n_clients * per_client]
        out = [None] * n_clients

        def client(index):
            lo = index * per_client
            requests = [runtime.submit(r) or r for r in
                        (ServeRequest("m", image, timeout_s=60.0)
                         for image in x[lo:lo + per_client])]
            out[index] = np.stack([r.wait(60.0) for r in requests])

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        runtime.stop()
        served = np.concatenate(out)
        reference = serve_reference_program.run(x, batch_size=x.shape[0])
        assert np.array_equal(served, reference)

    def test_multiple_workers_match_serial(self, serve_artifact_path,
                                           serve_reference_program,
                                           serve_images):
        """Two workers = two private arenas over one shared program."""
        runtime = make_runtime(serve_artifact_path, max_batch=4,
                               max_wait_s=0.002, workers=2)
        requests = [ServeRequest("m", image, timeout_s=60.0)
                    for image in serve_images]
        for request in requests:
            runtime.submit(request)
        served = np.stack([request.wait(60.0) for request in requests])
        runtime.stop()
        reference = serve_reference_program.run(
            serve_images, batch_size=serve_images.shape[0])
        assert np.array_equal(served, reference)


class TestFailureIsolation:
    def test_expired_requests_fail_fast(self, serve_artifact_path,
                                        serve_images):
        recorder = TraceRecorder()
        runtime = make_runtime(serve_artifact_path, recorder=recorder,
                               max_batch=4, max_wait_s=0.0)
        request = ServeRequest("m", serve_images[0], timeout_s=60.0)
        request.deadline = request.enqueued_at - 1.0   # already expired
        runtime.submit(request)
        with pytest.raises(RequestTimeout):
            request.wait(10.0)
        runtime.stop()
        assert runtime.describe()["timeouts"] == 1
        assert counters(recorder) == ["serve.m.timeouts"]

    def test_executor_error_answers_batch_and_worker_survives(
            self, serve_artifact_path, serve_images):
        recorder = TraceRecorder()
        runtime = make_runtime(serve_artifact_path, recorder=recorder,
                               max_batch=4, max_wait_s=0.0)
        worker = runtime.workers[0]
        original = worker.executor.run_batch_into
        calls = {"n": 0}

        def flaky(x, out):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("arena exploded")
            return original(x, out)

        worker.executor.run_batch_into = flaky
        doomed = ServeRequest("m", serve_images[0], timeout_s=60.0)
        runtime.submit(doomed)
        with pytest.raises(RuntimeError, match="arena exploded"):
            doomed.wait(10.0)
        # the worker thread must still be alive and serving
        healthy = ServeRequest("m", serve_images[1], timeout_s=60.0)
        runtime.submit(healthy)
        assert healthy.wait(10.0).shape == (10,)
        runtime.stop()
        assert runtime.describe()["errors"] == 1
        assert counters(recorder) == ["serve.m.errors"]
        latencies = [e for e in recorder.events
                     if e["name"] == "serve.m.latency_s"]
        assert len(latencies) == 1            # the healthy request only

    def test_outcomes_logged_before_waiters_wake(self, serve_artifact_path,
                                                 serve_images):
        """A client holding its answer finds the outcome in the log even
        if the daemon is killed at once: each latency event and each
        error counter is recorded while its request is still unanswered,
        and a latency event holds the request's own latency."""
        by_id = {}
        answered_at_record = []

        class Watching(TraceRecorder):
            def observe(self, name, value, trial=None, **tags):
                request = by_id[tags["request"]]
                answered_at_record.append(request.done_at is not None)
                super().observe(name, value, trial, **tags)

            def counter(self, name, value=1, trial=None, **tags):
                answered_at_record.append(doomed.done_at is not None)
                super().counter(name, value, trial, **tags)

        recorder = Watching()
        runtime = make_runtime(serve_artifact_path, recorder=recorder,
                               max_batch=4, max_wait_s=0.002)
        worker = runtime.workers[0]
        original = worker.executor.run_batch_into
        calls = {"n": 0}

        def flaky(x, out):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("arena exploded")
            return original(x, out)

        worker.executor.run_batch_into = flaky
        doomed = ServeRequest("m", serve_images[0], timeout_s=60.0)
        runtime.submit(doomed)
        with pytest.raises(RuntimeError, match="arena exploded"):
            doomed.wait(10.0)
        requests = [ServeRequest("m", image, timeout_s=60.0)
                    for image in serve_images[:6]]
        by_id.update((request.id, request) for request in requests)
        for request in requests:
            runtime.submit(request)
        for request in requests:
            request.wait(60.0)
        runtime.stop()
        assert answered_at_record == [False] * 7
        logged = {e["tags"]["request"]: e["value"] for e in recorder.events
                  if e["name"] == "serve.m.latency_s"}
        assert logged == {request.id: request.latency_s
                          for request in requests}

    def test_hard_stop_flushes_backlog(self, serve_artifact_path,
                                       serve_images):
        # workers never started: the backlog can only leave via flush
        registry = ModelRegistry()
        entry = registry.load("m", serve_artifact_path)
        runtime = ModelRuntime(entry, max_batch=4)
        stalled = [ServeRequest("m", image, timeout_s=60.0)
                   for image in serve_images[:3]]
        for request in stalled:
            runtime.submit(request)
        flushed = runtime.stop(drain=False, timeout_s=0.1)
        assert flushed == 3
        for request in stalled:
            with pytest.raises(Exception):
                request.wait(0.1)
