"""Workload ``search``: a serial BOMP-NAS search over a fixed trial budget.

Training dominates every trial (train + QAFT took 40.6 s of 46.4 s of
phase time in a profiled smoke search), so ``nn`` and ``quant`` kernel
changes show here while ``infer`` and ``serve`` do no work.  The search
runs with ``workers=1``: a two-process pool on a shared two-core host does
not repeat within a tenth.

The workload seed generates the synthetic CIFAR-10 data; the search's own
seed is fixed.  All trials fall in the optimizer's random phase, so the
candidate architectures, and with them the compute a search costs, are
the same for every workload seed: once the GP proposes, its picks follow
the data, and a five-seed trial swung ``search_s`` between 8 s and 15 s.
The GP proposal cost is still measured, in the traced run, by one extra
``ask_batch`` on the fitted optimizer after the search.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from typing import Dict, Iterator, List

from common import (HostSpeed, Metric, Report, median_setup, peak_rss_mb,
                    share, slowdown_note, timed)
from stats import OpCounter, Summary, median

#: search budget: trials, epochs and data volume of one search
TRIALS = 8
N_TRAIN, N_TEST, IMAGE_SIZE, BATCH = 64, 32, 12, 32
#: BO seed: its random-phase candidates cost a balanced 0.3-1.5 s each
SEARCH_SEED = 3
#: candidates per proposal round; one, so the progress hook fires after
#: every trial and the host speed is sampled either side of each
PROPOSAL_BATCH = 1
#: five searches give 40 trials, enough for the p75 the tail is held at
MIN_SEARCHES = 5
TAIL_Q = 75.0
SETUP_REPEATS = 5

#: the ``nn.*`` and ``quant.*_fq`` kernels of the profiler's time mode
KERNELS = ("nn.bn.bwd", "nn.bn.fwd", "nn.conv2d.bwd", "nn.conv2d.fwd",
           "nn.conv2d.im2col", "nn.conv2d.matmul", "nn.dense.bwd",
           "nn.dense.fwd", "nn.dwconv.bwd", "nn.dwconv.fwd", "nn.pool.bwd",
           "nn.pool.fwd", "quant.act_fq", "quant.weight_fq")

LAYER_METRICS = [
    ("nn.train_s", "s"), ("nn.train_ips", "1/s"), ("nn.eval_s", "s"),
    ("quant.ptq_s", "s"), ("quant.qaft_s", "s"),
    ("nas.trial_p50_s", "s"), ("nas.best_score", "score"),
    ("bo.ask_s", "s"), ("bo.tell_s", "s"), ("bo.gp_ask_s", "s"),
    ("space.build_s", "s"), ("parallel.engine_s", "s"),
] + [(f"kernel.{k}.{stat}", unit) for k in KERNELS
     for stat, unit in (("excl_s", "s"), ("calls", "count"))]


def _config():
    from repro.nas.config import ScalePreset, SearchConfig
    scale = ScalePreset("perfbench", trials=TRIALS, early_epochs=1,
                        qaft_epochs=1, final_epochs=1, final_qaft_epochs=1,
                        n_train=N_TRAIN, n_test=N_TEST,
                        image_size=IMAGE_SIZE, batch_size=BATCH,
                        n_initial_random=TRIALS)
    return SearchConfig(dataset="cifar10", scale=scale, seed=SEARCH_SEED)


def _setup(seed: int):
    from repro.data.synthetic import load_dataset
    from repro.nas.search import BOMPNAS
    dataset = load_dataset("cifar10", n_train=N_TRAIN, n_test=N_TEST,
                           image_size=IMAGE_SIZE, seed=seed)
    return BOMPNAS(_config(), dataset)


def digest(trials) -> str:
    """Hash of every trial's genome and objectives, exact to the bit."""
    from repro.nas.trial import genome_to_dict
    rows = [[genome_to_dict(t.genome), repr(t.score), repr(t.accuracy),
             repr(t.fp_accuracy), t.size_bits, t.macs] for t in trials]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _search(nas):
    start = time.perf_counter()
    result = nas.run(final_training=False, workers=1,
                     batch_size=PROPOSAL_BATCH)
    return time.perf_counter() - start, result.trials


def _check(trials, reference: str, ops: OpCounter) -> str:
    """Count each trial as one operation; a bad search fails them all."""
    got = digest(trials)
    bad = [t for t in trials if not math.isfinite(t.score)]
    if len(trials) != TRIALS:
        ops.fail("trial count differs from the budget",
                 abs(TRIALS - len(trials)) or 1)
    if bad:
        ops.fail("non-finite score", len(bad))
    if reference and got != reference:
        ops.fail("trial digest differs between searches", len(trials))
    elif not bad and len(trials) == TRIALS:
        ops.ok(len(trials))
    return got


def run(seed: int, seconds: float, trace: bool) -> Report:
    report = Report()
    setup_s, setup_all, nas = median_setup(lambda: _setup(seed),
                                           SETUP_REPEATS, HostSpeed())
    # lazy imports and first-touch allocations stay out of the timing
    nas.evaluate_candidate(nas.space.seed_genome(), 0)
    report.named["setup_s"] = Metric(setup_s, "s", len(setup_all),
                                     "dataset + search object")
    if trace:
        _traced(nas, report)
    else:
        _untraced(seconds, nas, report)
    report.named["peak_rss_mb"] = Metric(peak_rss_mb(), "MB")
    return report


def _normalised_search(nas, speed: HostSpeed):
    """One search with the host speed sampled before and after each trial.

    Returns the raw wall seconds, the trials, the wall with each trial's
    share divided by the slowdown around it (and the rest by the mean
    slowdown), and the normalised trial times.
    """
    marks = [speed.sample()]
    wall, trials = _search(_setup_like(
        nas, progress=lambda result: marks.append(speed.sample())))
    slowdowns = [speed.factor((a + b) / 2) for a, b in zip(marks, marks[1:])]
    per_trial = [t.wall_time_s / f for t, f in zip(trials, slowdowns)]
    rest = wall - sum(t.wall_time_s for t in trials)
    norm_wall = sum(per_trial) + rest / median(slowdowns)
    return wall, trials, norm_wall, per_trial


def _untraced(seconds: float, nas, report: Report) -> None:
    speed = HostSpeed()
    walls: List[float] = []
    norm_walls: List[float] = []
    trial_s: List[float] = []
    raw_trial_s: List[float] = []
    best: List[float] = []
    reference = ""
    start = time.perf_counter()
    while len(walls) < MIN_SEARCHES or time.perf_counter() - start < seconds:
        wall, trials, norm_wall, per_trial = _normalised_search(nas, speed)
        reference = reference or digest(trials)
        _check(trials, reference, report.ops)
        walls.append(wall)
        norm_walls.append(norm_wall)
        trial_s.extend(per_trial)
        raw_trial_s.extend(t.wall_time_s for t in trials)
        best.append(max(t.score for t in trials))
    search_s = median(norm_walls)
    report.named["search_s"] = Metric(
        search_s, "s", len(walls),
        f"{TRIALS} trials per search; raw {median(walls):.3f}")
    report.named["search.trials_per_s"] = Metric(TRIALS / search_s, "1/s",
                                                 len(walls))
    report.named["search.best_score"] = Metric(
        best[0], "score", len(best), "Eq. 1; identical in every search")
    summary = Summary.of(trial_s, max_q=TAIL_Q).scaled(1e3)
    report.named["search.trial.p50_ms"] = Metric(
        summary.p50, "ms", summary.n,
        f"raw {median(raw_trial_s) * 1e3:.3f}")
    report.named["search.trial.tail_ms"] = Metric(
        summary.tail, "ms", summary.n,
        f"p{summary.tail_q:g} (the highest the sample supports)")
    report.notes += [f"search digest {reference[:16]} identical across "
                     f"{len(walls)} searches", slowdown_note(speed)]


def _setup_like(nas, progress=None):
    """A fresh search object over the same dataset and config."""
    from repro.nas.search import BOMPNAS
    return BOMPNAS(nas.config, nas.dataset, progress=progress)


class _Timers:
    """Seconds and call counts per wrapped public function."""

    def __init__(self) -> None:
        self.seconds: Dict[str, List[float]] = {}
        self.samples = 0          # samples x epochs through early training
        self.in_qaft = False

    def add(self, key: str, elapsed: float) -> None:
        self.seconds.setdefault(key, []).append(elapsed)

    def total(self, key: str) -> float:
        return sum(self.seconds.get(key, ()))

    def metric(self, key: str, note: str = "") -> Metric:
        """Total seconds in ``key``, with its call count."""
        return Metric(self.total(key), "s", len(self.seconds.get(key, ())),
                      note)

    def wrap(self, key: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(key, time.perf_counter() - start)
        return wrapper


@contextlib.contextmanager
def _patched(obj, name: str, value) -> Iterator[None]:
    original = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, original)


def _traced(nas, report: Report) -> None:
    """One untraced search, then the same search traced and wrapped."""
    from repro.nas import search as search_mod
    from repro.nn.trainer import Trainer
    from repro.obs import profile
    from repro.obs.trace import TraceRecorder, use_recorder

    speed = HostSpeed()
    _, plain_trials, plain_s, _ = _normalised_search(nas, speed)
    reference = _check(plain_trials, "", report.ops)

    timers = _Timers()
    traced = _setup_like(nas)
    optimizers = []
    make_optimizer = traced.make_optimizer

    def make_wrapped_optimizer():
        optimizer = make_optimizer()
        optimizers.append((optimizer, optimizer.ask_batch))
        optimizer.ask_batch = timers.wrap("bo.ask", optimizer.ask_batch)
        optimizer.tell = timers.wrap("bo.tell", optimizer.tell)
        return optimizer

    fit = Trainer.fit

    def timed_fit(self, x, labels, epochs, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fit(self, x, labels, epochs, *args, **kwargs)
        finally:
            if not timers.in_qaft:
                timers.add("nn.train", time.perf_counter() - start)
                timers.samples += int(x.shape[0]) * int(epochs)

    qaft = timers.wrap("quant.qaft", search_mod.quantization_aware_finetune)

    def timed_qaft(*args, **kwargs):
        timers.in_qaft = True          # its Trainer.fit is not early training
        try:
            return qaft(*args, **kwargs)
        finally:
            timers.in_qaft = False

    traced.make_optimizer = make_wrapped_optimizer
    traced.evaluate_candidate = timers.wrap("nas.trial",
                                            traced.evaluate_candidate)
    recorder = TraceRecorder()
    profiler = profile.KernelProfiler("time")
    with contextlib.ExitStack() as stack:
        stack.enter_context(_patched(Trainer, "fit", timed_fit))
        stack.enter_context(_patched(search_mod,
                                     "quantization_aware_finetune",
                                     timed_qaft))
        for name, key in (("apply_policy", "quant.ptq"),
                          ("calibrate", "quant.ptq"),
                          ("evaluate_classifier", "nn.eval"),
                          ("build_model", "space.build")):
            stack.enter_context(_patched(
                search_mod, name,
                timers.wrap(key, getattr(search_mod, name))))
        stack.enter_context(use_recorder(recorder))
        stack.enter_context(profile.use_profiler(profiler))
        before = speed.sample()
        traced_s, trials = _search(traced)
        slowdown = speed.factor((before + speed.sample()) / 2)
    _check(trials, reference, report.ops)

    # the GP proposal the random-phase search never reached
    _, ask_batch = optimizers[-1]
    gp_ask_s, _ = timed(lambda: ask_batch(PROPOSAL_BATCH))

    layers = report.layers
    trial_total = timers.total("nas.trial")
    bo_total = timers.total("bo.ask") + timers.total("bo.tell")
    train_s = timers.total("nn.train")
    n_trials = len(timers.seconds.get("nas.trial", ()))
    layers["nn.train_s"] = timers.metric("nn.train", "early training")
    layers["nn.train_ips"] = Metric(timers.samples / train_s, "1/s",
                                    n_trials, "samples x epochs / s")
    layers["nn.eval_s"] = timers.metric("nn.eval")
    layers["quant.ptq_s"] = timers.metric("quant.ptq")
    layers["quant.qaft_s"] = timers.metric("quant.qaft")
    layers["nas.trial_p50_s"] = Metric(
        median(timers.seconds["nas.trial"]), "s", n_trials)
    layers["nas.best_score"] = Metric(max(t.score for t in trials),
                                      "score", len(trials))
    layers["bo.ask_s"] = timers.metric("bo.ask", "random phase")
    layers["bo.tell_s"] = timers.metric("bo.tell")
    layers["bo.gp_ask_s"] = Metric(gp_ask_s, "s", 1,
                                   f"GP fit + pool over {len(trials)} obs")
    layers["space.build_s"] = timers.metric("space.build")
    layers["parallel.engine_s"] = Metric(traced_s - trial_total - bo_total,
                                         "s", 1, "run wall - trials - BO")

    kernels: Dict[str, List[float]] = {}
    phases: Dict[str, float] = {}
    for event in recorder.events:
        if event.get("type") == "profile" and event.get("scope") == "kernel":
            stat = kernels.setdefault(event["name"], [0.0, 0])
            stat[0] += event["excl_s"]
            stat[1] += event["calls"]
        elif event.get("type") == "span" and event.get("kind") == "phase":
            phases[event["name"]] = phases.get(event["name"], 0.0) \
                + event["dur_s"]
    for name in KERNELS:
        excl, calls = kernels.get(name, (0.0, 0))
        layers[f"kernel.{name}.excl_s"] = Metric(excl, "s", calls)
        layers[f"kernel.{name}.calls"] = Metric(calls, "count", calls)

    phase_total = sum(phases.values())
    kernel_total = sum(kernels[name][0] for name in kernels
                       if name in KERNELS)
    report.notes += [
        f"tracing overhead: traced search {traced_s / slowdown:.3f} s vs "
        f"untraced {plain_s:.3f} s, both host-normalised "
        f"({share(traced_s / slowdown - plain_s, plain_s)}; includes the "
        f"PTQ-accuracy evaluation tracing turns on)",
        f"phase spans {phase_total:.3f} s + BO {bo_total:.3f} s = "
        f"{share(phase_total + bo_total, traced_s)} of the traced search_s "
        f"{traced_s:.3f} s; the engine and in-trial bookkeeping hold the "
        f"rest (phase spans cover {share(phase_total, trial_total)} of "
        f"trial time)",
        f"cross-check: train span {phases.get('train', 0):.3f} s vs "
        f"wrapped Trainer.fit {train_s:.3f} s; qaft span "
        f"{phases.get('qaft', 0):.3f} s vs wrapped "
        f"{timers.total('quant.qaft'):.3f} s",
        f"nn/quant kernels (exclusive) cover "
        f"{share(kernel_total, phase_total)} of phase time",
    ]
