"""Workload ``infer``: the deployed seed model, offline and served.

The same engine is used in two opposite ways over the same images.
``Program.run`` at batch 256 works through an 81 MB arena, far beyond
cache; per-image calls at batch 1 fit in cache, and the per-stage Python
dispatch dominates.  A blocking or vectorisation change that helps one
phase and hurts the other shows here.  The model is the seed
architecture at 8 bits and 16 px, PTQ-calibrated on synthetic images and
shipped as a ``.bomp`` built by the benchmark; the workload seed draws
its weights, calibration data and the images.  The same model is then
served through the daemon (:mod:`serving`); those figures are reported
but not gated.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from common import (HostSpeed, Metric, Report, median_setup, peak_rss_mb,
                    share, slowdown_note, timed, work_dir)
import serving
from stats import Summary, median

BITS, IMAGE_SIZE = 8, 16
BATCH = 256
#: rounds of (one batch-256 call + one batch-1 call per image); four
#: give 1024 batch-1 samples, enough for a p99
MIN_ROUNDS = 4
#: batch-1 calls between two host-speed calibrations
CAL_EVERY = 16
SETUP_REPEATS = 5
TRACED_BATCHES = 3

#: the compiled seed architecture, stage by stage (checked at run time)
STAGE_KINDS = ("conv", "dw", "conv") + ("conv", "dw", "conv") * 6 \
    + ("conv", "gap", "dense")

LAYER_METRICS = [
    ("infer.compile_s", "s"), ("infer.executor_build_s", "s"),
    ("infer.quantize_input_ms", "ms"), ("infer.arena_bytes", "bytes"),
    ("infer.ndarray_allocs_per_image", "count"),
    ("nn.fq_forward_ips", "1/s"),
]
for _i, _kind in enumerate(STAGE_KINDS):
    LAYER_METRICS += [(f"infer.stage.{_i:02d}.b{BATCH}_ms", "ms"),
                      (f"infer.stage.{_i:02d}.b1_ms", "ms")]
    if _kind in ("conv", "dw", "dense"):
        LAYER_METRICS.append((f"infer.stage.{_i:02d}.gmacs", "GMAC/s"))
LAYER_METRICS += serving.LAYER_METRICS


def _images(seed: int) -> np.ndarray:
    from repro.data.synthetic import load_dataset
    data = load_dataset("cifar10", n_train=1, n_test=BATCH,
                        image_size=IMAGE_SIZE, seed=seed + 1)
    return np.ascontiguousarray(data.x_test, dtype=np.float32)


class _Built:
    """One set-up: the artifact, its program and both executors."""

    def __init__(self, seed: int, work) -> None:
        from repro.infer.artifact import load_artifact
        from repro.serve.bench import make_bench_artifact
        self.path = make_bench_artifact(work / "infer.bomp", bits=BITS,
                                        image_size=IMAGE_SIZE, seed=seed)
        start = time.perf_counter()
        self.artifact = load_artifact(self.path)
        self.program = self.artifact.compile(name="perfbench")
        self.compile_s = time.perf_counter() - start
        self.executor_build_s, _ = timed(
            lambda: (self.program.executor(BATCH), self.program.executor(1)))


def run(seed: int, seconds: float, trace: bool) -> Report:
    report = Report()
    with work_dir() as work:
        _measure(seed, seconds, trace, work, report)
    return report


def _measure(seed: int, seconds: float, trace: bool, work,
             report: Report) -> None:
    setup_s, setup_all, built = median_setup(
        lambda: _Built(seed, work), SETUP_REPEATS, HostSpeed())
    program = built.program
    x = _images(seed)
    reference = program.run_batch_reference(x)
    logits = program.run(x, batch_size=BATCH)          # warm-up
    report.ops.check(np.array_equal(logits, reference),
                     "arena logits differ from run_batch_reference")
    report.ops.check(tuple(s.kind for s in program.stages) == STAGE_KINDS,
                     "compiled stage list differs from the seed program")
    for i in range(8):
        program.run(x[i:i + 1], batch_size=1)
    report.named["setup_s"] = Metric(setup_s, "s", len(setup_all),
                                     "artifact + compile + executors")
    if trace:
        _traced(built, x, reference, report)
    else:
        _untraced(program, x, reference, seconds, report)
    report.named["peak_rss_mb"] = Metric(peak_rss_mb(), "MB")
    serving.measure(built.path, x, seed, trace, report)


class _Samples:
    """Per-call seconds, raw and divided by the host slowdown."""

    def __init__(self) -> None:
        self.speed = HostSpeed()
        self.raw256: List[float] = []
        self.raw1: List[float] = []
        self.b256: List[float] = []
        self.b1: List[float] = []


def _round(program, x, reference, report: Report, s: _Samples) -> None:
    """One batch-256 call, then every image alone, each checked.

    The calibration loop runs around the batch-256 call and after every
    :data:`CAL_EVERY` batch-1 calls; each call is normalised by the mean
    slowdown of the samples either side of it.
    """
    before = s.speed.sample()
    start = time.perf_counter()
    logits = program.run(x, batch_size=BATCH)
    elapsed = time.perf_counter() - start
    after = s.speed.sample()
    s.raw256.append(elapsed)
    s.b256.append(elapsed / s.speed.factor((before + after) / 2))
    report.ops.check(np.array_equal(logits, reference),
                     "batch-256 logits differ from the reference")
    group: List[float] = []
    for i in range(x.shape[0]):
        start = time.perf_counter()
        row = program.run(x[i:i + 1], batch_size=1)
        group.append(time.perf_counter() - start)
        report.ops.check(np.array_equal(row[0], logits[i]),
                         "batch-1 row differs from the batch-256 row")
        if len(group) == CAL_EVERY or i == x.shape[0] - 1:
            before, after = after, s.speed.sample()
            slowdown = s.speed.factor((before + after) / 2)
            s.raw1 += group
            s.b1 += [t / slowdown for t in group]
            group = []


def _untraced(program, x, reference, seconds: float,
              report: Report) -> None:
    s = _Samples()
    start = time.perf_counter()
    while len(s.b256) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        _round(program, x, reference, report, s)
    report.named["infer.ips"] = Metric(
        BATCH / median(s.b256), "1/s", len(s.b256),
        f"batch {BATCH}; raw {BATCH / median(s.raw256):.1f}")
    summary = Summary.of(s.b1).scaled(1e3)
    raw = Summary.of(s.raw1).scaled(1e3)
    report.named["infer.b1_p50_ms"] = Metric(
        summary.p50, "ms", summary.n, f"raw {raw.p50:.4f}")
    report.named["infer.b1_p99_ms"] = Metric(
        summary.tail, "ms", summary.n,
        f"p{summary.tail_q:g} (the highest the sample supports); "
        f"raw {raw.tail:.4f}")
    report.notes.append(slowdown_note(s.speed))


def _stage_ms(events, names: Dict[str, int]) -> Dict[int, List[float]]:
    per_stage: Dict[int, List[float]] = {}
    for event in events:
        if event.get("type") == "span" and event["name"] in names:
            per_stage.setdefault(names[event["name"]], []).append(
                event["dur_s"] * 1e3)
    return per_stage


def _batch_ms(events) -> List[float]:
    return [e["dur_s"] * 1e3 for e in events
            if e.get("type") == "span" and e["name"] == "infer.batch"]


def _traced(built, x, reference, report: Report) -> None:
    from repro.obs import profile
    from repro.obs.trace import TraceRecorder, use_recorder

    program = built.program
    plain = _Samples()
    _round(program, x, reference, report, plain)
    plain256, plain1 = plain.raw256, plain.raw1

    names = {f"infer.{s.name}": i for i, s in enumerate(program.stages)}
    traced = {}
    for label, batch, calls in ((f"b{BATCH}", BATCH, TRACED_BATCHES),
                                ("b1", 1, x.shape[0])):
        recorder = TraceRecorder()
        profiler = profile.KernelProfiler("time")
        with use_recorder(recorder), profile.use_profiler(profiler):
            for i in range(calls):
                lo = (i * batch) % x.shape[0]
                out = program.run(x[lo:lo + batch], batch_size=batch)
                report.ops.check(np.array_equal(out, reference[lo:lo + batch]),
                                 "traced logits differ from the reference")
        quantize = profiler.kernels.get(("", "infer.quantize_input"))
        traced[label] = (_stage_ms(recorder.events, names),
                         _batch_ms(recorder.events), quantize)

    layers = report.layers
    layers["infer.compile_s"] = Metric(built.compile_s, "s")
    layers["infer.executor_build_s"] = Metric(
        built.executor_build_s, "s", 1, f"batch {BATCH} and batch 1")
    for label, batch in ((f"b{BATCH}", BATCH), ("b1", 1)):
        per_stage, batch_ms, quantize = traced[label]
        for i, stage in enumerate(program.stages):
            ms = median(per_stage[i])
            layers[f"infer.stage.{i:02d}.{label}_ms"] = Metric(
                ms, "ms", len(per_stage[i]),
                f"{stage.kind} {stage.name} {stage.macs} MACs/image")
            if label == f"b{BATCH}" and stage.macs:
                layers[f"infer.stage.{i:02d}.gmacs"] = Metric(
                    stage.macs * batch / (ms * 1e-3) / 1e9, "GMAC/s",
                    len(per_stage[i]))
        quantize_ms = quantize.excl_s / quantize.calls * 1e3
        if label == "b1":
            layers["infer.quantize_input_ms"] = Metric(
                quantize_ms, "ms", quantize.calls, "batch 1")
        parts = sum(map(sum, per_stage.values())) + quantize.excl_s * 1e3
        plain = median(plain256 if batch == BATCH else plain1) * 1e3
        report.notes.append(
            f"{label}: stage spans + input quantization {parts:.1f} ms = "
            f"{share(parts, sum(batch_ms))} of the {len(batch_ms)} traced "
            f"batch spans ({sum(batch_ms):.1f} ms); tracing overhead on the "
            f"median call vs untraced {plain:.3f} ms: "
            f"{share(median(batch_ms) - plain, plain)}")

    executor = program.executor(BATCH)
    layers["infer.arena_bytes"] = Metric(executor.alloc_bytes, "bytes")
    profiler = profile.KernelProfiler("alloc")
    images = 0
    with profile.use_profiler(profiler):
        for _ in range(2):
            program.run(x, batch_size=BATCH)
            images += BATCH
        for i in range(64):
            program.run(x[i:i + 1], batch_size=1)
            images += 1
    layers["infer.ndarray_allocs_per_image"] = Metric(
        profiler.alloc_count / images, "count", images,
        f"{profiler.alloc_count} ndarray constructors in the loop")

    model = built.artifact.rebuild()
    model.forward(x)
    forward = []
    for _ in range(3):
        elapsed, _ = timed(lambda: model.forward(x))
        forward.append(elapsed)
    layers["nn.fq_forward_ips"] = Metric(
        x.shape[0] / median(forward), "1/s", len(forward),
        f"fake-quant float forward, batch {BATCH}")
    report.notes.append(
        f"int_over_float (integer batch-{BATCH} time / fake-quant float "
        f"time): {median(plain256) / median(forward):.2f}")
