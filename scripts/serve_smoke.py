#!/usr/bin/env python
"""CI smoke test for the serving daemon: HTTP round trip + clean drain.

Builds a small deterministic artifact, starts ``ServeDaemon`` on an
ephemeral port, loads the model over HTTP, sends a concurrent burst of
predict requests from real socket clients, checks the answers against
the serial ``repro infer`` reference (bit-identical logits), drains,
validates the ``events.jsonl`` left behind (one latency event per
request, no ``infer.*`` stage spans), and renders it with ``repro
report``.  Everything a deploy would do, in a few seconds::

    PYTHONPATH=src python scripts/serve_smoke.py

Exits 0 on success, 1 with a diagnosis otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.cli import main as repro_main  # noqa: E402
from repro.infer.artifact import load_artifact  # noqa: E402
from repro.obs.schema import validate_path  # noqa: E402
from repro.obs.trace import read_events  # noqa: E402
from repro.serve import ServeConfig, ServeDaemon  # noqa: E402
from repro.serve.bench import make_bench_artifact  # noqa: E402

N_CLIENTS = 8
IMAGES_PER_CLIENT = 4


def _post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bomp-serve-smoke-") as tmp:
        artifact_path = Path(tmp) / "smoke.bomp"
        make_bench_artifact(artifact_path)
        run_dir = Path(tmp) / "run"
        daemon = ServeDaemon(ServeConfig(
            port=0, max_batch=4, max_wait_ms=2.0, run_dir=str(run_dir)))
        host, port = daemon.start()
        base = f"http://{host}:{port}"

        health = json.loads(
            urllib.request.urlopen(base + "/healthz", timeout=10).read())
        assert health["status"] == "ok", health
        _post(base, "/v1/models/smoke/load", {"path": str(artifact_path)})

        rng = np.random.default_rng(11)
        images = rng.normal(size=(N_CLIENTS * IMAGES_PER_CLIENT,
                                  16, 16, 3)).astype(np.float32)
        results: list = [None] * N_CLIENTS
        failures: list = []

        def client(index: int) -> None:
            lo = index * IMAGES_PER_CLIENT
            batch = images[lo:lo + IMAGES_PER_CLIENT]
            try:
                results[index] = _post(
                    base, "/v1/models/smoke/predict",
                    {"inputs": batch.tolist(), "return_logits": True})
            except Exception as exc:
                failures.append(f"client {index}: {exc}")

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(N_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            print("FAIL concurrent clients:", *failures, sep="\n  ")
            return 1

        served = np.concatenate([
            np.asarray(results[i]["logits"], dtype=np.float32)
            for i in range(N_CLIENTS)])
        reference = load_artifact(artifact_path).compile(
            name="reference").run(images, batch_size=images.shape[0])
        if not np.array_equal(served, reference):
            worst = float(np.abs(served - reference).max())
            print(f"FAIL served logits differ from serial reference "
                  f"(max abs diff {worst})")
            return 1

        stats = daemon.shutdown(drain=True)
        answered = stats["models"][0]["images_run"]
        if answered != images.shape[0]:
            print(f"FAIL {answered} of {images.shape[0]} requests answered")
            return 1
        errors = validate_path(run_dir)
        if errors:
            print("FAIL events.jsonl:", *errors, sep="\n  ")
            return 1
        events = read_events(run_dir)
        latencies = [e for e in events
                     if e.get("name") == "serve.smoke.latency_s"]
        stage_spans = [e for e in events if e["type"] == "span"
                       and e["name"].startswith("infer.")]
        if len(latencies) != images.shape[0] or stage_spans:
            print(f"FAIL events.jsonl holds {len(latencies)} latency "
                  f"events for {images.shape[0]} requests and "
                  f"{len(stage_spans)} infer.* spans")
            return 1
        if repro_main(["report", str(run_dir)]) != 0:
            print("FAIL repro report exited non-zero")
            return 1
        print(f"serve smoke ok: {N_CLIENTS} concurrent clients, "
              f"{answered} requests, bit-identical to serial "
              f"inference, clean drain, event log valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
