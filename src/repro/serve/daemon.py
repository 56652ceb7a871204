"""The serving daemon: stdlib-HTTP front end over the batching runtime.

Zero new dependencies, matching the repo's style: the front end is an
``http.server.ThreadingHTTPServer`` speaking a small JSON protocol.
Each connection gets a handler thread that validates the request, splits
it into single-image :class:`~repro.serve.queueing.ServeRequest` futures,
admits them through the model's bounded queue, and blocks until the
batch workers answer.  The dynamic batcher therefore coalesces requests
*across* connections — eight concurrent clients sending one image each
become one eight-image arena batch.

Endpoints (all JSON)::

    GET    /healthz                     liveness + drain state
    GET    /v1/models                   loaded models + queue stats
    POST   /v1/models/<name>/load       {"path": "<file.bomp>"}
    DELETE /v1/models/<name>            drain + evict one model
    POST   /v1/models/<name>/predict    {"inputs": [...], "timeout_ms": n,
                                         "return_logits": false}
    GET    /v1/stats                    metrics snapshot (SLO source)

Admission failures map to HTTP status codes (429 shed, 503 draining,
404 unknown model, 504 deadline exceeded, 400 malformed, 413 body over
:data:`MAX_BODY_BYTES`), so clients can tell backpressure from
brokenness.  Malformed input — bad framing, a non-finite image, a
``timeout_ms`` that is not a positive number — is answered at the HTTP
boundary and never reaches a queue.

Lifecycle: :meth:`ServeDaemon.shutdown` with ``drain=True`` (what the
CLI's SIGTERM handler calls) closes every queue first — new work is
refused — lets the workers finish the admitted backlog, answers the
waiting handler threads, then stops the HTTP server and writes the
``serve_stats.json`` SLO snapshot into the run directory.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..obs.host import host_metadata
from ..obs.metrics import MetricsRegistry
from ..obs.trace import get_recorder
from .queueing import (AdmissionError, RequestTimeout, ServeRequest,
                       UnknownModel)
from .batcher import ModelRuntime
from .registry import ModelRegistry, RegistryError

#: serve_stats.json schema version (append-only: keys are only added)
STATS_SCHEMA_VERSION = 1

STATS_FILENAME = "serve_stats.json"

#: largest request body the front end reads; a longer ``Content-Length``
#: is answered 413 without reading the body
MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclass
class ServeConfig:
    """Daemon knobs; every field has a serving-sane default."""

    host: str = "127.0.0.1"
    port: int = 8700                  # 0 = ephemeral (tests, bench)
    max_batch: int = 8                # arena capacity per worker
    max_wait_ms: float = 5.0          # batch-fill deadline
    queue_depth: int = 64             # admitted-but-unbatched bound
    workers_per_model: int = 1        # arenas (threads) per model
    default_timeout_ms: float = 30_000.0   # server-side request deadline
    slo_p99_ms: Optional[float] = None     # reported-against target
    run_dir: Optional[str] = None          # serve_stats.json destination

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        if data["run_dir"] is not None:    # accept pathlib.Path too
            data["run_dir"] = str(data["run_dir"])
        return data


class ServeDaemon:
    """Registry + per-model runtimes + HTTP front end, one process."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 registry: Optional[ModelRegistry] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.registry = registry if registry is not None else ModelRegistry()
        self._runtimes: Dict[str, ModelRuntime] = {}
        self._lock = threading.Lock()
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._draining = False
        self._stopped = threading.Event()
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        self._m_requests = self.metrics.counter("serve.requests")
        self._m_shed = self.metrics.counter("serve.shed")
        self._m_timeouts = self.metrics.counter("serve.timeouts")

    # -- model management ---------------------------------------------------
    def load_model(self, name: str, path: Union[str, Path]) -> ModelRuntime:
        """Load ``path`` under ``name`` and start its batch workers.

        Reloading an existing name drains the old runtime first, then
        swaps in the new one — a re-export rolls over without dropping
        admitted requests.
        """
        if self._draining:
            raise RegistryError("daemon is draining; load refused")
        recorder = get_recorder()
        with recorder.span("serve.load", model=name):
            entry = self.registry.load(name, path)
            runtime = ModelRuntime(
                entry, self.metrics,
                max_batch=self.config.max_batch,
                max_wait_s=self.config.max_wait_ms / 1000.0,
                queue_depth=self.config.queue_depth,
                workers=self.config.workers_per_model)
        with self._lock:
            old = self._runtimes.get(name)
            runtime.start()
            self._runtimes[name] = runtime
        if old is not None:
            old.stop(drain=True)
        return runtime

    def evict_model(self, name: str, drain: bool = True) -> None:
        with self._lock:
            runtime = self._runtimes.pop(name, None)
        if runtime is None:
            raise UnknownModel(f"no model named {name!r}")
        runtime.stop(drain=drain)
        self.registry.evict(name)

    def runtime(self, name: str) -> ModelRuntime:
        runtime = self._runtimes.get(name)
        if runtime is None:
            raise UnknownModel(f"no model named {name!r}")
        return runtime

    def model_names(self) -> List[str]:
        return sorted(self._runtimes)

    # -- request path -------------------------------------------------------
    def submit(self, model: str, image: np.ndarray,
               timeout_s: Optional[float] = None) -> ServeRequest:
        """Admit one single-image request; returns its future.

        The in-process entry point: HTTP handlers, the load generator,
        and tests all go through here, so they share admission,
        batching, and metrics behavior exactly.
        """
        runtime = self.runtime(model)
        request = ServeRequest(model, image, timeout_s=timeout_s)
        try:
            runtime.submit(request)
        except AdmissionError:
            self._m_shed.inc()
            raise
        self._m_requests.inc()
        return request

    def predict(self, model: str, images: np.ndarray,
                timeout_s: Optional[float] = None) -> np.ndarray:
        """Blocking convenience: submit each image, gather the logits."""
        if timeout_s is None:
            timeout_s = self.config.default_timeout_ms / 1000.0
        requests = [self.submit(model, image, timeout_s=timeout_s)
                    for image in images]
        rows = []
        for request in requests:
            try:
                rows.append(request.wait(timeout_s * 2))
            except RequestTimeout:
                self._m_timeouts.inc()
                raise
        return np.stack(rows)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Start the HTTP server thread; returns the bound (host, port)."""
        if self._server is not None:
            raise RuntimeError("daemon already started")
        handler = _make_handler(self)
        self._server = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler)
        self._server_thread = threading.Thread(
            target=self._server.serve_forever, name="serve-http",
            daemon=True)
        self._server_thread.start()
        self.started_at = time.time()
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("daemon not started")
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def wait(self, timeout_s: Optional[float] = None) -> bool:
        """Block until shutdown is requested or done (the CLI main loop)."""
        return self._stopped.wait(timeout_s)

    def request_shutdown(self) -> None:
        """Wake :meth:`wait`; safe to call from a signal handler.

        Only sets an event — the waiting thread performs the actual
        drain, since :meth:`shutdown` takes locks and joins threads,
        neither of which belongs inside a signal handler.
        """
        self._stopped.set()

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        """Stop everything; returns the final stats payload.

        Drain order matters: close admission first (clients get 503 and
        can fail over), let the batch workers empty the admitted
        backlog, answer the blocked handler threads, and only then tear
        down the HTTP server — so an in-flight request is never dropped
        by a clean shutdown.
        """
        with self._lock:
            already = self._draining
            self._draining = True
            runtimes = list(self._runtimes.values())
        if already:
            return self.stats_snapshot()
        recorder = get_recorder()
        with recorder.span("serve.drain", models=len(runtimes),
                           clean=drain):
            flushed = sum(runtime.stop(drain=drain)
                          for runtime in runtimes)
        if self._server is not None:
            self._server.shutdown()        # stop accepting connections
            self._server.server_close()    # join handler threads
            if self._server_thread is not None:
                self._server_thread.join(10.0)
        self.stopped_at = time.time()
        stats = self.stats_snapshot(flushed=flushed, drained=drain)
        if self.config.run_dir:
            run_dir = Path(self.config.run_dir)
            run_dir.mkdir(parents=True, exist_ok=True)
            (run_dir / STATS_FILENAME).write_text(
                json.dumps(stats, indent=2, sort_keys=True) + "\n")
        self._stopped.set()
        return stats

    @property
    def draining(self) -> bool:
        return self._draining

    def stats_snapshot(self, flushed: int = 0,
                       drained: bool = True) -> Dict[str, Any]:
        """The ``serve_stats.json`` payload (also ``GET /v1/stats``)."""
        with self._lock:
            runtimes = [self._runtimes[name]
                        for name in sorted(self._runtimes)]
        return {
            "schema": STATS_SCHEMA_VERSION,
            "started_at": self.started_at,
            "stopped_at": self.stopped_at,
            "draining": self._draining,
            "drained_cleanly": drained,
            "flushed_requests": flushed,
            "config": self.config.to_dict(),
            "host": host_metadata(),
            "models": [runtime.describe() for runtime in runtimes],
            "metrics": self.metrics.snapshot(),
        }


# -- the HTTP protocol ------------------------------------------------------

def _timeout_seconds(timeout_ms: Any) -> Optional[float]:
    """A request's ``timeout_ms`` in seconds; ``None`` unless it is a
    finite positive number (not a bool) that a thread can wait on."""
    if isinstance(timeout_ms, bool) \
            or not isinstance(timeout_ms, (int, float)):
        return None
    try:
        seconds = float(timeout_ms) / 1000.0
    except OverflowError:                  # an int beyond float range
        return None
    # the handler waits twice the deadline; NaN fails both comparisons
    if not 0.0 < seconds <= threading.TIMEOUT_MAX / 2:
        return None
    return seconds


def _make_handler(daemon: ServeDaemon):
    """A handler class closed over ``daemon`` (stdlib handler API)."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve/" + str(STATS_SCHEMA_VERSION)

        # -- plumbing -----------------------------------------------------
        def log_message(self, *args: Any) -> None:
            pass                          # quiet; metrics cover it

        def _send(self, status: int, payload: Dict[str, Any]) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _error(self, status: int, message: str) -> None:
            self._send(status, {"error": message})

        def _reject_body(self, status: int, message: str) -> None:
            """Answer without reading the body, then hang up: the next
            request on this connection cannot be found."""
            self.close_connection = True
            self._error(status, message)

        def _read_json(self) -> Optional[Dict[str, Any]]:
            text = (self.headers.get("Content-Length") or "0").strip()
            if not (text.isascii() and text.isdigit()):
                self._reject_body(400, f"Content-Length must be a "
                                       f"non-negative integer, got "
                                       f"{text!r}")
                return None
            # int() refuses digit strings thousands long; one longer
            # than the cap's own is over the cap anyway
            digits = text.lstrip("0") or "0"
            if len(digits) > len(str(MAX_BODY_BYTES)) \
                    or int(digits) > MAX_BODY_BYTES:
                self._reject_body(413, f"Content-Length exceeds the "
                                       f"{MAX_BODY_BYTES}-byte limit")
                return None
            length = int(digits)
            raw = self.rfile.read(length) if length else b"{}"
            try:
                payload = json.loads(raw.decode() or "{}")
            except ValueError:    # bad JSON or UTF-8, or an int too long
                self._error(400, "body is not valid JSON")
                return None
            if not isinstance(payload, dict):
                self._error(400, "body must be a JSON object")
                return None
            return payload

        def _model_route(self) -> Optional[Tuple[str, str]]:
            """``/v1/models/<name>[/<verb>]`` -> (name, verb or '')."""
            parts = [p for p in self.path.split("/") if p]
            if len(parts) in (3, 4) and parts[:2] == ["v1", "models"]:
                return parts[2], parts[3] if len(parts) == 4 else ""
            return None

        # -- verbs --------------------------------------------------------
        def do_GET(self) -> None:
            if self.path == "/healthz":
                self._send(200, {
                    "status": "draining" if daemon.draining else "ok",
                    "models": daemon.model_names()})
            elif self.path == "/v1/models":
                self._send(200, {"models": [
                    daemon.runtime(name).describe()
                    for name in daemon.model_names()]})
            elif self.path == "/v1/stats":
                self._send(200, daemon.stats_snapshot())
            else:
                self._error(404, f"no route {self.path!r}")

        def do_DELETE(self) -> None:
            route = self._model_route()
            if route is None or route[1]:
                self._error(404, f"no route {self.path!r}")
                return
            try:
                daemon.evict_model(route[0])
            except UnknownModel as exc:
                self._error(exc.status, str(exc))
                return
            self._send(200, {"evicted": route[0]})

        def do_POST(self) -> None:
            route = self._model_route()
            if route is None:
                self._error(404, f"no route {self.path!r}")
                return
            name, verb = route
            payload = self._read_json()
            if payload is None:
                return
            if verb == "load":
                self._post_load(name, payload)
            elif verb == "predict":
                self._post_predict(name, payload)
            else:
                self._error(404, f"unknown action {verb!r}")

        def _post_load(self, name: str, payload: Dict[str, Any]) -> None:
            path = payload.get("path")
            if not isinstance(path, str):
                self._error(400, "load needs a 'path' string")
                return
            try:
                runtime = daemon.load_model(name, path)
            except (RegistryError, OSError, ValueError) as exc:
                self._error(400, f"load failed: {exc}")
                return
            self._send(200, {"loaded": runtime.describe()})

        def _post_predict(self, name: str,
                          payload: Dict[str, Any]) -> None:
            try:
                runtime = daemon.runtime(name)
            except UnknownModel as exc:
                self._error(exc.status, str(exc))
                return
            try:
                images = np.asarray(payload.get("inputs"),
                                    dtype=np.float32)
            except (TypeError, ValueError):
                self._error(400, "'inputs' must be a numeric array")
                return
            shape = runtime.entry.input_shape
            if images.shape == shape:
                images = images[None]      # one image, un-batched
            if images.ndim != 4 or images.shape[1:] != shape:
                self._error(400, f"expected images of shape "
                                 f"{list(shape)}, got "
                                 f"{list(images.shape)}")
                return
            if not np.isfinite(images).all():
                self._error(400, "'inputs' must be finite (no NaN or "
                                 "infinity)")
                return
            timeout_s = _timeout_seconds(payload.get(
                "timeout_ms", daemon.config.default_timeout_ms))
            if timeout_s is None:
                self._error(400, "'timeout_ms' must be a finite positive "
                                 "number")
                return
            try:
                requests = [daemon.submit(name, image,
                                          timeout_s=timeout_s)
                            for image in images]
            except AdmissionError as exc:
                self._error(exc.status, str(exc))
                return
            rows = []
            try:
                for request in requests:
                    rows.append(request.wait(timeout_s * 2))
            except RequestTimeout as exc:
                daemon._m_timeouts.inc()
                self._error(exc.status, str(exc))
                return
            except Exception as exc:       # executor failure
                self._error(500, f"inference failed: {exc}")
                return
            logits = np.stack(rows)
            response: Dict[str, Any] = {
                "model": name,
                "predictions": np.argmax(logits, axis=1).tolist(),
                "batch": int(logits.shape[0]),
            }
            if payload.get("return_logits"):
                response["logits"] = logits.tolist()
            self._send(200, response)

    return Handler
