"""Daemon end-to-end: HTTP protocol, admission statuses, graceful drain,
and the run's event log."""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.obs.report import load_report, render_text
from repro.obs.schema import validate_path
from repro.obs.trace import read_events
from repro.serve import (ModelDraining, QueueFullError, ServeConfig,
                         ServeDaemon, UnknownModel)
from repro.serve.daemon import MAX_BODY_BYTES

from .conftest import IMAGE_SIZE

REPO_ROOT = Path(__file__).resolve().parents[2]


def counters(run_dir):
    return [e["name"] for e in read_events(run_dir)
            if e["type"] == "counter"]


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


def post_framing_only(url, header, value):
    """POST with one framing header and no body sent; returns the status,
    the JSON payload and the response's ``Connection`` header."""
    parts = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port,
                                            timeout=30)
    try:
        connection.putrequest("POST", parts.path)
        connection.putheader(header, value)
        connection.endheaders()
        response = connection.getresponse()
        return (response.status, json.loads(response.read()),
                response.getheader("Connection"))
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
        # a chunked body is refused unread and the connection closed,
        # so its chunks are never parsed as the next request line
        status, body, connection = post_framing_only(
            url, "Transfer-Encoding", "chunked")
        assert status == 411 and "Content-Length" in body["error"]
        assert connection == "close"
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

    def test_stats_endpoint(self, base_url, serve_images):
        post(base_url + "/v1/models/m/predict",
             {"inputs": serve_images[:3].tolist()})
        status, stats = get(base_url + "/v1/stats")
        assert status == 200
        [model] = stats["models"]
        assert model["images_run"] == 3 and model["batches_run"] >= 1
        assert model["shed"] == model["timeouts"] == model["errors"] == 0
        # live counts only: latency percentiles come from repro report
        assert "metrics" not in stats
        assert not any("p99" in key for key in model)

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
                                  serve_images, tmp_path):
        daemon = ServeDaemon(ServeConfig(max_batch=4, queue_depth=1,
                                         run_dir=str(tmp_path / "run")))
        daemon.load_model("m", serve_artifact_path)
        runtime = daemon.runtime("m")
        # hold the queue lock so the worker cannot drain while we fill
        with runtime.queue._cond:
            runtime.queue._items.append(
                object())                       # depth == maxsize
            with pytest.raises(QueueFullError):
                daemon.submit("m", serve_images[0])
            runtime.queue._items.pop()
        stats = daemon.shutdown(drain=False)
        assert stats["models"][0]["shed"] == 1
        # counted once, by the runtime that saw it
        assert counters(tmp_path / "run") == ["serve.m.shed"]

    def test_drain_refusal_is_not_a_shed(self, serve_artifact_path,
                                         serve_images, tmp_path):
        daemon = ServeDaemon(ServeConfig(max_batch=4,
                                         run_dir=str(tmp_path / "run")))
        daemon.load_model("m", serve_artifact_path)
        daemon.runtime("m").queue.close()
        with pytest.raises(ModelDraining):
            daemon.submit("m", serve_images[0])
        stats = daemon.shutdown(drain=True)
        assert stats["models"][0]["shed"] == 0
        assert counters(tmp_path / "run") == []

    def test_queue_expired_request_counted_once(self, serve_artifact_path,
                                                serve_images, tmp_path):
        """An expiry is counted by the worker only, not also by the
        handler that answers 504."""
        daemon = ServeDaemon(ServeConfig(port=0, max_batch=4,
                                         max_wait_ms=0.0,
                                         run_dir=str(tmp_path / "run")))
        daemon.load_model("m", serve_artifact_path)
        host, port = daemon.start()
        status, body = post(f"http://{host}:{port}/v1/models/m/predict",
                            {"inputs": serve_images[0].tolist(),
                             "timeout_ms": 0.001})
        assert status == 504, body
        stats = daemon.shutdown(drain=True)
        assert stats["models"][0]["timeouts"] == 1
        assert counters(tmp_path / "run") == ["serve.m.timeouts"]

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

    def test_drain_answers_backlog_and_writes_event_log(
            self, serve_artifact_path, serve_images, tmp_path):
        run_dir = tmp_path / "run"
        daemon = ServeDaemon(ServeConfig(
            port=0, max_batch=4, max_wait_ms=50.0, slo_p99_ms=60_000.0,
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
        assert stats["models"][0]["images_run"] == 6
        assert daemon.wait(1.0)                  # stopped event set
        assert validate_path(run_dir) == []
        events = read_events(run_dir)
        assert events[0]["type"] == "meta"
        assert events[0]["serve"]["slo_p99_ms"] == 60_000.0
        assert "host" in events[0]
        [drain] = [e for e in events if e.get("name") == "serve.drain"]
        assert drain["tags"]["flushed"] == 0 and drain["tags"]["clean"]
        report = load_report(run_dir)
        assert len(report.served["m"].latencies_s) == 6
        assert report.ok() and report.warnings == []

    def test_served_log_has_latencies_and_no_stage_spans(
            self, serve_artifact_path, serve_images, tmp_path):
        """One latency event per answered request; the daemon's tracer
        is never process-wide, so no ``infer.*`` stage span gets in."""
        run_dir = tmp_path / "run"
        daemon = ServeDaemon(ServeConfig(port=0, max_batch=4,
                                         max_wait_ms=2.0,
                                         run_dir=str(run_dir)))
        daemon.load_model("m", serve_artifact_path)
        host, port = daemon.start()
        status, _ = post(f"http://{host}:{port}/v1/models/m/predict",
                         {"inputs": serve_images[:7].tolist()})
        assert status == 200
        daemon.shutdown(drain=True)
        events = read_events(run_dir)
        latencies = [e for e in events if e["type"] == "hist"]
        assert [e["name"] for e in latencies] == ["serve.m.latency_s"] * 7
        names = {e["name"] for e in events if e["type"] == "span"}
        assert not any(name.startswith("infer.") for name in names)
        assert {"serve.load", "serve.batch", "serve.drain"} <= names

    def test_request_ids_tag_one_latency_event_each(
            self, serve_artifact_path, serve_images, tmp_path):
        """A two-image predict returns two distinct request ids, in
        input order, and the log holds exactly one latency event tagged
        with each."""
        run_dir = tmp_path / "run"
        daemon = ServeDaemon(ServeConfig(port=0, max_batch=4,
                                         max_wait_ms=2.0,
                                         run_dir=str(run_dir)))
        daemon.load_model("m", serve_artifact_path)
        host, port = daemon.start()
        status, body = post(f"http://{host}:{port}/v1/models/m/predict",
                            {"inputs": serve_images[:2].tolist()})
        daemon.shutdown(drain=True)
        assert status == 200
        ids = body["request_ids"]
        assert len(ids) == 2 and ids[0] < ids[1]      # submitted in order
        assert all(isinstance(i, int) for i in ids)
        tagged = [e["tags"].get("request") for e in read_events(run_dir)
                  if e["type"] == "hist"
                  and e["name"] == "serve.m.latency_s"]
        assert sorted(tagged) == sorted(ids)
        check = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts/check_schema.py"),
             str(run_dir)], capture_output=True, text=True, timeout=120)
        assert check.returncode == 0, check.stdout + check.stderr

    def test_no_run_dir_records_into_current_recorder(
            self, serve_artifact_path, serve_images):
        from repro.obs.trace import TraceRecorder, use_recorder
        daemon = ServeDaemon(ServeConfig(max_batch=4))
        daemon.load_model("m", serve_artifact_path)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            daemon.predict("m", serve_images[:2], timeout_s=60.0)
        daemon.shutdown(drain=True)
        names = [e["name"] for e in recorder.events]
        assert names.count("serve.m.latency_s") == 2
        assert "serve.batch" in names

    def test_second_shutdown_is_idempotent(self, serve_artifact_path):
        daemon = ServeDaemon(ServeConfig())
        daemon.load_model("m", serve_artifact_path)
        first = daemon.shutdown(drain=True)
        second = daemon.shutdown(drain=True)
        assert second["draining"] is True
        assert first["models"] == second["models"]

    def test_load_refused_while_draining(self, serve_artifact_path):
        daemon = ServeDaemon(ServeConfig())
        daemon.shutdown(drain=True)
        from repro.serve.registry import RegistryError
        with pytest.raises(RegistryError, match="draining"):
            daemon.load_model("m", serve_artifact_path)


class TestServeProcess:
    """``repro serve --run-dir D`` as a process, ended by a signal."""

    def _serve(self, artifact, run_dir):
        env = dict(os.environ,
                   PYTHONPATH=str(REPO_ROOT / "src") + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--model", f"m={artifact}", "--run-dir", str(run_dir),
             "--slo-p99-ms", "60000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        for line in proc.stdout:
            match = re.search(r"serving on (http://\S+)", line)
            if match:
                return proc, match.group(1)
        proc.kill()
        raise AssertionError(f"daemon never came up: {proc.stderr.read()}")

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL])
    def test_log_survives_the_signal(self, serve_artifact_path,
                                     serve_images, tmp_path, sig):
        run_dir = tmp_path / "run"
        proc, base = self._serve(serve_artifact_path, run_dir)
        try:
            status, _ = post(base + "/v1/models/m/predict",
                             {"inputs": serve_images[:3].tolist()})
            assert status == 200
        finally:
            proc.send_signal(sig)
            out, err = proc.communicate(timeout=60)
        assert validate_path(run_dir) == [], err
        report = load_report(run_dir)
        assert len(report.served["m"].latencies_s) == 3
        text = render_text(report)
        assert "serving:" in text and "p99 ms" in text
        if sig == signal.SIGTERM:
            assert proc.returncode == 0, err
            assert report.drain_span is not None and report.ok()
            assert "drained cleanly" in out  # cmd_serve prints the report
        else:
            assert report.drain_span is None
            assert "no drain recorded" in text
