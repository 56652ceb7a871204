"""The serving section of the ``infer`` workload: open-loop requests.

One generator thread sends requests on a seeded Poisson schedule through
``ServeDaemon.submit``, to one worker with ``max_batch`` 8 and a 2 ms
``max_wait``.  Two fixed rates: ``light``, about a quarter of capacity,
where batches stay near one image so batching is bypassed, and
``heavy``, about two thirds of capacity, where batching is engaged.  A
queueing or batching change should move ``heavy`` and leave ``light``
alone.  A fixed rate ladder then finds the highest rate whose p99 stays
under the latency limit with nothing shed and no growing backlog.  Each
request is timed from when it was *due*, so a stall also charges the
requests queued behind it.  HTTP is left out: an open loop over HTTP
needs a connection per in-flight request, more than two cores allow.

These figures are printed but not gated.  On a shared two-vCPU host the
generator and the worker compete for the same two cores: across five
runs the light p50 spread by 17-37% of its median and its p99 by
37-65%, with or without the host-speed normalisation that steadies
``infer`` and ``search``.  The traced run gives the serve layer's
per-layer metrics.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from common import HostSpeed, Metric, Report, median_setup, share
from stats import Summary, interpolate_rate, median, percentile

#: the queue holds a whole phase, so the ladder finds the limit by
#: latency and backlog, never by shedding (the daemon's default is 64)
MAX_BATCH, MAX_WAIT_MS, QUEUE_DEPTH = 8, 2.0, 1024
SETUP_REPEATS = 3
#: requests per phase: 1000 leave ten beyond the p99
REQUESTS = 1000
LIGHT_RPS, HEAVY_RPS = 100.0, 300.0
#: the rate ladder: ``light``, ``heavy``, then these until a rung fails
LADDER_RPS = (350.0, 400.0, 450.0, 500.0, 560.0, 630.0, 700.0, 800.0)
#: p99 limit of the ladder, set on the steep part of the latency curve
#: (p99 went 22, 80, 128 ms at 100, 300, 350 req/s), where the crossing
#: follows capacity rather than scheduling noise
LIMIT_MS = 100.0
#: a client gives up on a request after this long; a full queue drains
#: in under 3 s on the reference host
TIMEOUT_S = 30.0

LAYER_METRICS = [("serve.load_s", "s")] + [
    (f"serve.{phase}.{name}", unit) for phase in ("light", "heavy")
    for name, unit in (("queue_wait_ms", "ms"), ("execute_ms", "ms"),
                       ("answer_ms", "ms"), ("batch_mean", "count"),
                       ("generator_late_p99_ms", "ms"))]


class _Built:
    """One set-up: a daemon with the model loaded and warm."""

    def __init__(self, path, images: np.ndarray) -> None:
        from repro.infer.artifact import ArtifactCache
        from repro.serve.daemon import ServeConfig, ServeDaemon
        from repro.serve.registry import ModelRegistry
        # a private cache, so every set-up compiles instead of hitting
        self.daemon = ServeDaemon(
            ServeConfig(max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS,
                        queue_depth=QUEUE_DEPTH, workers_per_model=1),
            registry=ModelRegistry(ArtifactCache()))
        start = time.perf_counter()
        self.runtime = self.daemon.load_model("bench", path)
        self.load_s = time.perf_counter() - start
        self.daemon.predict("bench", images[:2])

    def close(self) -> None:
        self.daemon.shutdown(drain=True)


@dataclass
class Phase:
    """One fixed-rate run of the open loop, with its raw samples."""

    rate: float
    latency_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    depth: List[int] = field(default_factory=list)
    answered: list = field(default_factory=list)
    shed: int = 0
    timeouts: int = 0
    wrong: int = 0

    @property
    def failed(self) -> int:
        return self.shed + self.timeouts + self.wrong

    @property
    def backlog_grew(self) -> bool:
        """Queue depth in the last quarter above the first by a batch."""
        quarter = max(1, len(self.depth) // 4)
        return (np.mean(self.depth[-quarter:])
                - np.mean(self.depth[:quarter]) >= MAX_BATCH)

    def ok(self) -> bool:
        return (self.failed == 0 and not self.backlog_grew
                and percentile(self.latency_ms, 99.0) <= LIMIT_MS)


def _drive(built: _Built, images: np.ndarray, expected: np.ndarray,
           rate: float, seed: int) -> Phase:
    """Send :data:`REQUESTS` on a seeded Poisson schedule; time from due."""
    from repro.serve.queueing import AdmissionError, RequestTimeout
    rng = np.random.default_rng([seed, int(rate)])
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=REQUESTS))
    picks = rng.integers(0, images.shape[0], size=REQUESTS)
    phase = Phase(rate)
    queue = built.runtime.queue
    sent = []
    t0 = time.monotonic() + 0.01
    for offset, pick in zip(offsets, picks):
        due = t0 + offset
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        phase.late_ms.append((time.monotonic() - due) * 1e3)
        phase.depth.append(queue.depth)
        try:
            request = built.daemon.submit("bench", images[pick],
                                          timeout_s=TIMEOUT_S)
        except AdmissionError:
            phase.shed += 1
            continue
        sent.append((due, int(pick), request))
    for due, pick, request in sent:
        try:
            logits = request.wait(TIMEOUT_S)
        except RequestTimeout:
            phase.timeouts += 1
            continue
        if not np.array_equal(logits, expected[pick]):
            phase.wrong += 1
            continue
        phase.latency_ms.append((request.done_at - due) * 1e3)
        phase.answered.append(request)
    return phase


def _count(report: Report, phase: Phase) -> None:
    report.ops.ok(len(phase.latency_ms))
    for reason, n in (("shed", phase.shed), ("timeout", phase.timeouts),
                      ("logits differ from serial Program.run",
                       phase.wrong)):
        if n:
            report.ops.fail(reason, n)


def _expected(program, images: np.ndarray) -> np.ndarray:
    """Serial ``Program.run`` logits, one image at a time."""
    return np.concatenate([program.run(images[i:i + 1], batch_size=1)
                           for i in range(images.shape[0])])


def measure(path, images: np.ndarray, seed: int, trace: bool,
            report: Report) -> None:
    """Serve the ``.bomp`` at ``path``, add the figures to ``report``."""
    setup_s, setup_all, built = median_setup(
        lambda: _Built(path, images), SETUP_REPEATS, HostSpeed(),
        release=lambda b: b.close())
    try:
        expected = _expected(built.runtime.entry.program, images)
        if trace:
            _traced(built, images, expected, seed, report)
        else:
            report.named["serve.setup_s"] = Metric(
                setup_s, "s", len(setup_all),
                "daemon + load (compile, arena) + warm-up")
            _untraced(built, images, expected, seed, report)
    finally:
        built.close()


def _latency(report: Report, name: str, phase: Phase) -> None:
    summary = Summary.of(phase.latency_ms)
    report.named[f"serve.{name}.p50_ms"] = Metric(
        summary.p50, "ms", summary.n, f"{phase.rate:g} req/s")
    report.named[f"serve.{name}.p99_ms"] = Metric(
        summary.tail, "ms", summary.n,
        f"p{summary.tail_q:g} (the highest the sample supports)")


def _untraced(built, images, expected, seed: int, report: Report) -> None:
    light = _drive(built, images, expected, LIGHT_RPS, seed)
    heavy = _drive(built, images, expected, HEAVY_RPS, seed)
    for phase in (light, heavy):
        _count(report, phase)
    _latency(report, "light", light)
    _latency(report, "heavy", heavy)
    rungs = [light, heavy]
    for rate in LADDER_RPS:
        if not rungs[-1].ok():
            break
        rung = _drive(built, images, expected, rate, seed)
        _count(report, rung)
        rungs.append(rung)
    ladder = [{"rate": r.rate, "tail_ms": percentile(r.latency_ms, 99.0)
               if r.latency_ms else float("inf"), "ok": r.ok()}
              for r in rungs]
    max_rps = interpolate_rate(ladder, LIMIT_MS)
    report.named["serve.max_rps"] = Metric(
        max_rps or 0.0, "1/s", len(rungs),
        f"p99 <= {LIMIT_MS:g} ms; rungs " + ", ".join(
            f"{r['rate']:g}:{r['tail_ms']:.1f}ms{'' if r['ok'] else '!'}"
            for r in ladder))
    if max_rps is None:
        report.ops.fail("no rung met the latency limit")


class _Probe:
    """Wraps the queue's ``take_batch`` and the worker's executor call.

    Instance attributes shadow the methods for the traced run only; the
    worker looks both up on every batch, so the wrappers see every batch
    taken after the one it was already blocked in.
    """

    def __init__(self, runtime) -> None:
        self.queue = runtime.queue
        self.executor = runtime.workers[0].executor
        self.lock = threading.Lock()
        self.dequeued: Dict[int, float] = {}
        self.executed: Dict[int, tuple] = {}
        self.execute_ms: List[float] = []
        self.batch_sizes: List[int] = []
        self._batch: list = []
        take_batch = self.queue.take_batch
        run_batch_into = self.executor.run_batch_into

        def timed_take(max_batch, max_wait_s):
            batch = take_batch(max_batch, max_wait_s)
            now = time.monotonic()
            with self.lock:
                for request in batch or ():
                    self.dequeued[id(request)] = now
                if batch:
                    self.batch_sizes.append(len(batch))
                    self._batch = batch
            return batch

        def timed_run(x, logits):
            start = time.monotonic()
            run_batch_into(x, logits)
            end = time.monotonic()
            with self.lock:
                self.execute_ms.append((end - start) * 1e3)
                for request in self._batch:
                    self.executed[id(request)] = (start, end)

        self.queue.take_batch = timed_take
        self.executor.run_batch_into = timed_run

    def reset(self) -> None:
        with self.lock:
            self.dequeued, self.executed = {}, {}
            self.execute_ms, self.batch_sizes = [], []

    def close(self) -> None:
        del self.queue.take_batch
        del self.executor.run_batch_into


def _traced(built, images, expected, seed: int, report: Report) -> None:
    """Both fixed-rate phases untraced, then again traced and probed."""
    from repro.obs.trace import TraceRecorder, use_recorder
    rates = (("light", LIGHT_RPS), ("heavy", HEAVY_RPS))
    plain = {}
    for name, rate in rates:
        plain[name] = _drive(built, images, expected, rate, seed)
        _count(report, plain[name])
    report.layers["serve.load_s"] = Metric(built.load_s, "s", 1,
                                           "registry load + worker start")
    probe = _Probe(built.runtime)
    try:
        built.daemon.predict("bench", images[:2])  # leaves the old take
        for name, rate in rates:
            probe.reset()
            recorder = TraceRecorder()
            with use_recorder(recorder):
                phase = _drive(built, images, expected, rate, seed)
            _count(report, phase)
            _probe_layers(report, name, phase, probe, recorder, plain[name])
    finally:
        probe.close()


def _probe_layers(report: Report, name: str, phase: Phase, probe: _Probe,
                  recorder, plain: Phase) -> None:
    """Split each answered request into queue wait, execute and answer."""
    wait, staging, execute, answer, total = [], [], [], [], []
    for request in phase.answered:
        dequeued = probe.dequeued.get(id(request))
        executed = probe.executed.get(id(request))
        if dequeued is None or executed is None:
            continue
        wait.append((dequeued - request.enqueued_at) * 1e3)
        staging.append((executed[0] - dequeued) * 1e3)
        execute.append((executed[1] - executed[0]) * 1e3)
        answer.append((request.done_at - executed[1]) * 1e3)
        total.append((request.done_at - request.enqueued_at) * 1e3)
    layers = report.layers
    layers[f"serve.{name}.queue_wait_ms"] = Metric(
        median(wait), "ms", len(wait), "median, enqueued -> dequeued")
    layers[f"serve.{name}.execute_ms"] = Metric(
        median(probe.execute_ms), "ms", len(probe.execute_ms),
        "median per batch")
    layers[f"serve.{name}.answer_ms"] = Metric(
        median(answer), "ms", len(answer), "median, batch end -> done_at")
    layers[f"serve.{name}.batch_mean"] = Metric(
        float(np.mean(probe.batch_sizes)), "count", len(probe.batch_sizes))
    layers[f"serve.{name}.generator_late_p99_ms"] = Metric(
        percentile(phase.late_ms, 99.0), "ms", len(phase.late_ms),
        "how late the generator sent; moves nothing")
    spans = sum(e["dur_s"] * 1e3 for e in recorder.events
                if e.get("type") == "span" and e["name"] == "serve.batch")
    whole = sum(total)
    traced_p50, plain_p50 = median(phase.latency_ms), median(plain.latency_ms)
    report.notes += [
        f"{name}: enqueue-to-done over {len(total)} of "
        f"{len(phase.answered)} requests is queue wait "
        f"{share(sum(wait), whole)} + staging {share(sum(staging), whole)}"
        f" + execute {share(sum(execute), whole)} + answer "
        f"{share(sum(answer), whole)}; serve.batch spans {spans:.1f} ms "
        f"vs wrapped executor {sum(probe.execute_ms):.1f} ms",
        f"{name}: tracing overhead on p50 {traced_p50:.3f} ms vs untraced "
        f"{plain_p50:.3f} ms ({share(traced_p50 - plain_p50, plain_p50)})",
    ]
