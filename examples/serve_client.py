"""Talk to a ``repro serve`` daemon over its JSON/HTTP protocol.

Self-contained: builds a tiny ``.bomp`` artifact, starts a ``ServeDaemon``
in-process on an ephemeral port, then exercises the full client protocol
with nothing but ``urllib`` — exactly what an external client would do
against ``python -m repro serve``:

- ``GET  /healthz``                         liveness probe,
- ``POST /v1/models/<name>/load``           hot-load an artifact,
- ``GET  /v1/models``                       registry listing,
- ``POST /v1/models/<name>/predict``        single image and batch,
  (concurrent single-image requests are coalesced by the dynamic
  batcher into one arena pass — same bits as serial inference),
- ``GET  /v1/stats``                        live per-model counts
  (batches, images, shed, timeouts, errors),
- graceful drain on shutdown.

The daemon streams its event log to ``<run_dir>/events.jsonl`` (one
latency event per answered request); ``python -m repro report
<run_dir>`` turns it into the SLO table with exact percentiles.

To point this at a real daemon instead, start one in another terminal:

    python -m repro serve --model demo=model.bomp --port 8700

and set BASE = "http://127.0.0.1:8700".

Run:
    python examples/serve_client.py      # ~30 seconds
"""

import json
import tempfile
import threading
import urllib.request
from pathlib import Path

import numpy as np

from repro.serve import ServeConfig, ServeDaemon
from repro.serve.bench import make_bench_artifact


def call(base: str, method: str, route: str, payload=None):
    """One JSON round trip; returns the decoded response body."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        base + route, data=data, method=method,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read().decode())


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        artifact_path = make_bench_artifact(Path(tmp) / "demo.bomp",
                                            image_size=16, seed=7)
        daemon = ServeDaemon(ServeConfig(port=0, max_batch=8,
                                         max_wait_ms=5.0,
                                         run_dir=Path(tmp) / "serve"))
        host, port = daemon.start()
        base = f"http://{host}:{port}"
        try:
            print(f"daemon up at {base}")
            print("healthz:", call(base, "GET", "/healthz"))

            call(base, "POST", "/v1/models/demo/load",
                 {"path": str(artifact_path)})
            models = call(base, "GET", "/v1/models")["models"]
            info = next(m for m in models if m["name"] == "demo")
            print(f"loaded 'demo': input {info['input_shape']}, "
                  f"{info['num_classes']} classes\n")

            rng = np.random.default_rng(23)
            shape = tuple(info["input_shape"])
            one = rng.standard_normal(shape).astype(np.float32)
            reply = call(base, "POST", "/v1/models/demo/predict",
                         {"inputs": one.tolist()})
            print(f"single image  -> class {reply['predictions'][0]}")

            batch = rng.standard_normal((6,) + shape).astype(np.float32)
            reply = call(base, "POST", "/v1/models/demo/predict",
                         {"inputs": batch.tolist(),
                          "return_logits": True})
            print(f"batch of 6    -> classes {reply['predictions']} "
                  f"(logits shape {np.asarray(reply['logits']).shape})")

            # concurrent clients: the batcher coalesces these into
            # shared arena passes; results match serial bit-for-bit
            answers = [None] * 8

            def client(i: int) -> None:
                body = {"inputs": batch[i % 6].tolist()}
                answers[i] = call(base, "POST",
                                  "/v1/models/demo/predict",
                                  body)["predictions"][0]

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            print(f"8 concurrent  -> classes {answers}\n")

            stats = call(base, "GET", "/v1/stats")
            served = next(m for m in stats["models"]
                          if m["name"] == "demo")
            mean_batch = served["images_run"] / served["batches_run"]
            print(f"served {served['images_run']} images in "
                  f"{served['batches_run']} arena passes "
                  f"(mean batch {mean_batch:.2f})")
        finally:
            stats = daemon.shutdown(drain=True)
            print(f"drained cleanly: {stats['drained_cleanly']}")


if __name__ == "__main__":
    main()
