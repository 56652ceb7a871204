"""Daemon end-to-end: HTTP protocol, admission statuses, graceful drain."""

import http.client
import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest

from repro.obs.schema import validate_path
from repro.serve import (ModelDraining, QueueFullError, ServeConfig,
                         ServeDaemon, UnknownModel)
from repro.serve.daemon import MAX_BODY_BYTES, STATS_FILENAME

from .conftest import IMAGE_SIZE


@pytest.fixture
def daemon(serve_artifact_path, tmp_path):
    daemon = ServeDaemon(ServeConfig(
        port=0, max_batch=4, max_wait_ms=2.0, queue_depth=32,
        run_dir=str(tmp_path / "run")))
    daemon.load_model("m", serve_artifact_path)
    yield daemon
    daemon.shutdown(drain=True)


@pytest.fixture
def base_url(daemon):
    host, port = daemon.start()
    return f"http://{host}:{port}"


def get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def post_raw(url, body=b"", content_length=None):
    """POST raw bytes; ``content_length`` overrides the true length."""
    parts = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port,
                                            timeout=30)
    try:
        connection.putrequest("POST", parts.path)
        connection.putheader("Content-Length", content_length
                             if content_length is not None
                             else str(len(body)))
        connection.endheaders(body or None)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestHTTP:
    def test_healthz_and_models(self, base_url):
        status, health = get(base_url + "/healthz")
        assert status == 200 and health == {"status": "ok",
                                            "models": ["m"]}
        _, listing = get(base_url + "/v1/models")
        assert listing["models"][0]["name"] == "m"
        assert listing["models"][0]["input_shape"] == [IMAGE_SIZE,
                                                       IMAGE_SIZE, 3]

    def test_predict_single_and_batch(self, base_url, serve_images):
        one = serve_images[0].tolist()
        status, body = post(base_url + "/v1/models/m/predict",
                            {"inputs": one})
        assert status == 200 and body["batch"] == 1
        status, body = post(base_url + "/v1/models/m/predict",
                            {"inputs": serve_images[:5].tolist(),
                             "return_logits": True})
        assert status == 200 and body["batch"] == 5
        assert len(body["logits"]) == 5 and len(body["logits"][0]) == 10

    def test_predict_rejects_bad_inputs(self, base_url, serve_images,
                                        serve_reference_program):
        url = base_url + "/v1/models/m/predict"
        status, body = post(url, {"inputs": [[1, 2], [3]]})
        assert status == 400 and "numeric array" in body["error"]
        wrong = np.zeros((2, IMAGE_SIZE + 1, IMAGE_SIZE, 3)).tolist()
        status, body = post(url, {"inputs": wrong})
        assert status == 400 and "expected images" in body["error"]
        # malformed framing: answered, never a dropped connection
        for length in ("abc", "-1", "1.5", "0x10"):
            status, body = post_raw(url, content_length=length)
            assert status == 400 and "Content-Length" in body["error"]
        for length in (str(MAX_BODY_BYTES + 1), "9" * 5000):
            status, body = post_raw(url, content_length=length)
            assert status == 413 and "limit" in body["error"]
        # an integer too long for int() is not valid JSON either
        status, body = post_raw(url, b'{"timeout_ms": ' + b"9" * 5000 + b"}")
        assert status == 400 and "JSON" in body["error"]
        # non-finite images pass the shape check but not the boundary
        for value in (float("nan"), float("inf")):
            image = np.full((IMAGE_SIZE, IMAGE_SIZE, 3), value).tolist()
            status, body = post(url, {"inputs": image})
            assert status == 400 and "finite" in body["error"]
        image = serve_images[0].tolist()
        for timeout_ms in ("abc", None, True, 0, -5, float("nan"),
                           float("inf"), 10 ** 400):
            status, body = post(url, {"inputs": image,
                                      "timeout_ms": timeout_ms})
            assert status == 400 and "timeout_ms" in body["error"], \
                timeout_ms
        # the daemon still serves, with exact answers
        status, body = post(url, {"inputs": serve_images[:3].tolist(),
                                  "timeout_ms": 30_000,
                                  "return_logits": True})
        assert status == 200
        reference = serve_reference_program.run(serve_images[:3],
                                                batch_size=3)
        assert np.array_equal(np.asarray(body["logits"],
                                         dtype=np.float32), reference)

    def test_unknown_model_404(self, base_url, serve_images):
        status, _ = post(base_url + "/v1/models/ghost/predict",
                         {"inputs": serve_images[0].tolist()})
        assert status == 404

    def test_load_evict_over_http(self, base_url, serve_artifact_path,
                                  daemon):
        status, body = post(base_url + "/v1/models/second/load",
                            {"path": str(serve_artifact_path)})
        assert status == 200 and body["loaded"]["name"] == "second"
        assert "second" in daemon.model_names()
        request = urllib.request.Request(
            base_url + "/v1/models/second", method="DELETE")
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
        assert "second" not in daemon.model_names()

    def test_stats_endpoint(self, base_url):
        status, stats = get(base_url + "/v1/stats")
        assert status == 200
        assert stats["schema"] == 1 and "serve.requests" in stats["metrics"]

    def test_eight_concurrent_clients(self, base_url, serve_images,
                                      serve_reference_program):
        """The acceptance bar: >= 8 concurrent clients, exact answers."""
        n_clients = 8
        outs = [None] * n_clients
        failures = []

        def client(index):
            image = serve_images[index]
            try:
                status, body = post(base_url + "/v1/models/m/predict",
                                    {"inputs": image.tolist(),
                                     "return_logits": True})
                assert status == 200, body
                outs[index] = np.asarray(body["logits"][0],
                                         dtype=np.float32)
            except Exception as exc:            # pragma: no cover
                failures.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        served = np.stack(outs)
        reference = serve_reference_program.run(
            serve_images[:n_clients], batch_size=n_clients)
        assert np.array_equal(served, reference)


class TestAdmission:
    def test_shed_when_queue_full(self, serve_artifact_path,
                                  serve_images):
        daemon = ServeDaemon(ServeConfig(max_batch=4, queue_depth=1))
        daemon.load_model("m", serve_artifact_path)
        runtime = daemon.runtime("m")
        # hold the queue lock so the worker cannot drain while we fill
        with runtime.queue._cond:
            runtime.queue._items.append(
                object())                       # depth == maxsize
            with pytest.raises(QueueFullError):
                daemon.submit("m", serve_images[0])
            runtime.queue._items.pop()
        snapshot = daemon.metrics.snapshot()
        assert snapshot["serve.shed"]["value"] == 1
        assert snapshot["serve.m.shed"]["value"] == 1
        daemon.shutdown(drain=False)

    def test_unknown_model_raises(self, serve_artifact_path):
        daemon = ServeDaemon(ServeConfig())
        with pytest.raises(UnknownModel):
            daemon.submit("ghost", np.zeros((2, 2, 3), np.float32))
        daemon.shutdown()


class TestDrain:
    def test_draining_refuses_new_work(self, serve_artifact_path,
                                       serve_images):
        daemon = ServeDaemon(ServeConfig(max_batch=4))
        daemon.load_model("m", serve_artifact_path)
        daemon.shutdown(drain=True)
        with pytest.raises(ModelDraining):
            daemon.submit("m", serve_images[0])

    def test_drain_answers_backlog_and_writes_stats(
            self, serve_artifact_path, serve_images, tmp_path):
        run_dir = tmp_path / "run"
        daemon = ServeDaemon(ServeConfig(
            port=0, max_batch=4, max_wait_ms=50.0,
            run_dir=str(run_dir)))
        daemon.start()
        daemon.load_model("m", serve_artifact_path)
        requests = [daemon.submit("m", image, timeout_s=60.0)
                    for image in serve_images[:6]]
        stats = daemon.shutdown(drain=True)
        # every admitted request was answered, none flushed
        for request in requests:
            assert request.wait(10.0).shape == (10,)
        assert stats["flushed_requests"] == 0
        assert stats["drained_cleanly"] is True
        assert daemon.wait(1.0)                  # stopped event set
        stats_file = run_dir / STATS_FILENAME
        assert stats_file.exists()
        assert validate_path(stats_file) == []
        assert json.loads(stats_file.read_text())["metrics"][
            "serve.m.requests"]["value"] == 6.0

    def test_second_shutdown_is_idempotent(self, serve_artifact_path):
        daemon = ServeDaemon(ServeConfig())
        daemon.load_model("m", serve_artifact_path)
        first = daemon.shutdown(drain=True)
        second = daemon.shutdown(drain=True)
        assert second["draining"] is True
        assert first["schema"] == second["schema"] == 1

    def test_load_refused_while_draining(self, serve_artifact_path):
        daemon = ServeDaemon(ServeConfig())
        daemon.shutdown(drain=True)
        from repro.serve.registry import RegistryError
        with pytest.raises(RegistryError, match="draining"):
            daemon.load_model("m", serve_artifact_path)
