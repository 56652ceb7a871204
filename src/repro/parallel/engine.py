"""Fault-tolerant process-pool trial evaluation with a picklable protocol.

The engine maps :class:`TrialSpec`\\ s (genome + trial index + seed) to
lists of :class:`~repro.nas.trial.TrialResult`\\ s, either in-process
(``workers <= 1``) or on a :class:`concurrent.futures.ProcessPoolExecutor`.
Each worker builds its evaluation state (dataset, search space, evaluator)
exactly once — from a small regeneration spec when the dataset carries
one, so the training arrays are never pickled per task — and caches it in
module globals for the lifetime of the pool.

Because trials are deterministically seeded (:mod:`repro.parallel.seeding`)
and results are consumed in spec order, the engine's output is identical
regardless of worker count, completion order, or whether the pool could be
created at all — and regardless of *worker failures*: a
:class:`RetryPolicy` governs per-trial timeouts, bounded retry with
exponential backoff on worker errors and corrupt outcomes, pool respawn
after crashes (``BrokenProcessPool``), and graceful degradation to serial
in-process evaluation when the pool repeatedly dies.  Every fault is
surfaced through one :mod:`repro.obs` counter event (``pool.retries``,
``pool.crashes``, ``pool.timeout_kills``, ``pool.respawns``,
``pool.degraded``, ``pool.start_failures``) and the console reporter.

Each :meth:`TrialEngine.evaluate` call is one ``pool.batch`` span
(tags ``tasks``, ``workers``, ``parallel``), and the batch's trial
spans are ingested as its children: the span is the batch's only
record.  Readers derive utilisation, skew and task times from it, and a
trial's queue wait is its span's ``t_wall`` minus the batch's.

The worker path hosts the deterministic fault-injection hooks of
:mod:`repro.resilience.faults` (``BOMP_FAULTS``), which is how the tier-1
test suite exercises each failure mode on demand.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..data.datasets import Dataset
from ..obs import profile
from ..obs.console import ConsoleReporter
from ..obs.trace import TraceRecorder, get_recorder, use_recorder
from ..resilience.faults import corrupt_outcome_due, inject_trial_fault
from ..space.genome import MixedPrecisionGenome

if TYPE_CHECKING:  # pragma: no cover
    from ..nas.config import SearchConfig
    from ..nas.cost import CostModel
    from ..nas.search import BOMPNAS
    from ..nas.trial import TrialResult
    from ..space.space import SearchSpace

#: candidates proposed per BO/evolution ask round.  Deliberately NOT tied
#: to the worker count: the proposal schedule (and therefore the search
#: result) must be identical for any ``workers`` value, so worker count can
#: never leak into experiment cache keys.
DEFAULT_TRIAL_BATCH = 4

#: hard cap on the default worker count (diminishing returns past this for
#: the smoke/medium scales, and it bounds memory: each worker holds one
#: dataset + one model).
MAX_DEFAULT_WORKERS = 8

#: default per-trial wall-clock budget before the pool is presumed hung.
#: Generous — even paper-scale trials finish well inside an hour — so it
#: only ever fires on a genuinely wedged worker.
DEFAULT_TRIAL_TIMEOUT_S = 3600.0


def default_workers() -> int:
    """Default worker count: available CPUs, capped at 8."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, MAX_DEFAULT_WORKERS))


class TrialEvaluationError(RuntimeError):
    """A worker failed to evaluate a trial; carries the worker traceback."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the engine reacts to worker faults.

    Args:
        trial_timeout_s: per-trial wall-clock budget on the pool; a trial
            exceeding it is presumed hung, the pool is killed and respawned,
            and the trial retried.  ``None`` disables timeouts.  The serial
            path never times out (there is no second process to recover in).
        max_retries: bounded per-trial retries of *failed* outcomes (worker
            exceptions, corrupt results).  Exhaustion raises
            :class:`TrialEvaluationError` — a deterministic bug should fail
            the run, not loop forever.
        backoff_s: base of the exponential backoff slept before a retry or
            pool respawn (``backoff_s * 2**(attempt-1)``).
        max_pool_respawns: pool deaths (crash, timeout kill) tolerated over
            the engine's lifetime before it degrades to serial in-process
            evaluation for the remainder of the run.
    """

    trial_timeout_s: Optional[float] = DEFAULT_TRIAL_TIMEOUT_S
    max_retries: int = 2
    backoff_s: float = 0.05
    max_pool_respawns: int = 2

    def __post_init__(self) -> None:
        # written so that NaN fails too
        if self.trial_timeout_s is not None and \
                not 0 < self.trial_timeout_s < math.inf:
            raise ValueError(
                "trial_timeout_s must be finite and positive, or None")
        if self.max_retries < 0 or self.max_pool_respawns < 0:
            raise ValueError("retry/respawn budgets must be non-negative")
        if not 0 <= self.backoff_s < math.inf:
            raise ValueError("backoff_s must be finite and non-negative")


@dataclass(frozen=True)
class TrialSpec:
    """Everything a worker needs to evaluate one candidate.

    The spec is deliberately tiny and picklable: the genome, the index the
    trial will occupy in the result list, and the pre-derived trial seed.
    The heavy, run-constant state (config, dataset, space) ships once per
    worker through the pool initializer, never per task.  ``trace`` asks
    the worker to collect span/metric events for this trial, and
    ``profile`` additionally activates a per-trial kernel profiler
    (``"time"`` or ``"alloc"``); neither may ever affect the results
    themselves (instrumentation reads clocks, not RNGs).
    """

    index: int
    genome: MixedPrecisionGenome
    seed: int
    trace: bool = False
    profile: Optional[str] = None


@dataclass
class TrialOutcome:
    """What a worker sends back: results (plus trace events), or an error."""

    index: int
    results: Optional[List["TrialResult"]] = None
    error: Optional[str] = None
    events: Optional[List[Dict[str, Any]]] = None


@dataclass
class _WorkerPayload:
    """Run-constant state shipped once per worker via the initializer.

    ``dataset_spec`` (when the dataset carries regeneration provenance)
    takes precedence over ``dataset``: workers rebuild the arrays from the
    spec's seed instead of unpickling them.
    """

    config: "SearchConfig"
    dataset: Optional[Dataset]
    dataset_spec: Optional[Dict[str, Any]]
    cost_model: Optional["CostModel"]
    space: Optional["SearchSpace"]


# -- worker-side globals ----------------------------------------------------
_WORKER_STATE: Dict[str, Any] = {}


def _init_worker(payload: _WorkerPayload) -> None:
    """Pool initializer: stash the payload; build the evaluator lazily."""
    _WORKER_STATE["payload"] = payload
    _WORKER_STATE.pop("evaluator", None)


def _build_evaluator(payload: _WorkerPayload) -> "BOMPNAS":
    from ..nas.search import BOMPNAS
    dataset = payload.dataset
    if payload.dataset_spec is not None:
        from ..data.synthetic import make_synthetic_dataset
        dataset = make_synthetic_dataset(**payload.dataset_spec)
    if dataset is None:
        raise TrialEvaluationError("worker has neither dataset nor spec")
    return BOMPNAS(payload.config, dataset, cost_model=payload.cost_model,
                   space=payload.space)


def _evaluate_spec(evaluator: "BOMPNAS", spec: TrialSpec) -> TrialOutcome:
    """Evaluate one spec, collecting trace events when the spec asks.

    Shared by the worker task and the serial path so both produce the same
    outcome shape: per-trial events are collected in a private recorder
    and shipped back through the outcome, never written directly — the
    parent's recorder merges them in spec order into one stream.  When the
    spec asks for profiling, a per-trial :class:`KernelProfiler` is
    activated around the evaluation (temporarily displacing any run-level
    profiler on the serial path, so kernel time is attributed per trial)
    and flushed into the same event list.
    """
    if not spec.trace and not spec.profile:
        results = evaluator.evaluate_candidate(spec.genome, spec.index,
                                               seed=spec.seed)
        return TrialOutcome(index=spec.index, results=results)
    recorder = TraceRecorder()
    with use_recorder(recorder):
        if spec.profile:
            profiler = profile.KernelProfiler(spec.profile)
            with profile.use_profiler(profiler):
                results = evaluator.evaluate_candidate(
                    spec.genome, spec.index, seed=spec.seed)
            profiler.flush_to(recorder, trial=spec.index)
        else:
            results = evaluator.evaluate_candidate(spec.genome, spec.index,
                                                   seed=spec.seed)
    return TrialOutcome(index=spec.index, results=results,
                        events=recorder.events)


def _run_trial(spec: TrialSpec) -> TrialOutcome:
    """Worker task: evaluate one spec with the cached evaluator.

    Hosts the deterministic fault-injection hooks: an injected ``crash``
    never returns, a ``hang`` sleeps into the engine's timeout, an
    ``error`` ships back as a normal worker-error outcome, and a
    ``corrupt`` fault replaces the real outcome with a structurally
    invalid one the engine must reject.
    """
    try:
        inject_trial_fault(spec.index)
        evaluator = _WORKER_STATE.get("evaluator")
        if evaluator is None:
            evaluator = _build_evaluator(_WORKER_STATE["payload"])
            _WORKER_STATE["evaluator"] = evaluator
        outcome = _evaluate_spec(evaluator, spec)
        if corrupt_outcome_due(spec.index):
            return TrialOutcome(index=spec.index, results=None, error=None)
        return outcome
    except Exception:  # noqa: BLE001 — ship the full traceback back
        return TrialOutcome(index=spec.index,
                            error=traceback.format_exc())


def _outcome_problem(spec: TrialSpec,
                     outcome: Any) -> Optional[str]:
    """Why ``outcome`` is unusable for ``spec`` (``None`` = it is fine).

    Catches worker errors *and* corrupt outcomes: wrong type, mismatched
    index, missing results, non-finite objective values.
    """
    if not isinstance(outcome, TrialOutcome):
        return (f"worker returned {type(outcome).__name__}, "
                "not a TrialOutcome")
    if outcome.error is not None:
        return outcome.error
    if outcome.index != spec.index:
        return (f"corrupt outcome: index {outcome.index} != "
                f"spec index {spec.index}")
    if not outcome.results:
        return "corrupt outcome: carries neither results nor an error"
    for result in outcome.results:
        if not (math.isfinite(result.score)
                and math.isfinite(result.accuracy)):
            return (f"corrupt outcome: non-finite objectives "
                    f"(score={result.score!r}, "
                    f"accuracy={result.accuracy!r})")
    return None


def _pick_start_method() -> str:
    """Prefer fork (cheap, copy-on-write dataset) where available."""
    override = os.environ.get("BOMP_MP_START")
    methods = multiprocessing.get_all_start_methods()
    if override:
        if override not in methods:
            raise ValueError(
                f"BOMP_MP_START={override!r} unavailable; have {methods}")
        return override
    return "fork" if "fork" in methods else "spawn"


class TrialEngine:
    """Evaluates batches of trial specs, serial or on a process pool.

    Args:
        config: the run's search config (ships to workers).
        dataset: the run's dataset.  If it carries a regeneration ``spec``
            (see :class:`repro.data.datasets.Dataset`), workers rebuild it
            from the seed instead of unpickling the arrays.
        workers: pool size; ``<= 1`` means in-process serial evaluation.
        cost_model / space: optional evaluator collaborators, forwarded.
        evaluator: an existing in-process evaluator to reuse on the serial
            path (avoids rebuilding the search space).
        retry_policy: fault-handling policy (default: ``RetryPolicy()``).
        reporter: console reporter for recovery/diagnostic lines (default:
            a stderr reporter, so library users see pool failures without
            polluting stdout results).

    Use as a context manager; the pool (if any) is torn down on exit.
    """

    def __init__(self, config: "SearchConfig", dataset: Dataset,
                 workers: int = 1,
                 cost_model: Optional["CostModel"] = None,
                 space: Optional["SearchSpace"] = None,
                 evaluator: Optional["BOMPNAS"] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 reporter: Optional[ConsoleReporter] = None) -> None:
        self.config = config
        self.dataset = dataset
        self.workers = max(1, int(workers))
        self.cost_model = cost_model
        self.space = space
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())
        self.reporter = (reporter if reporter is not None
                         else ConsoleReporter(stream=sys.stderr))
        self._evaluator = evaluator
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_deaths = 0
        self._degraded = False

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "TrialEngine":
        if self.workers > 1 and not self._degraded:
            self._pool = self._try_start_pool()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        self._kill_pool()

    @property
    def parallel(self) -> bool:
        """True while a live process pool backs evaluation."""
        return self._pool is not None

    @property
    def degraded(self) -> bool:
        """True once repeated pool deaths forced permanent serial mode."""
        return self._degraded

    def _try_start_pool(self) -> Optional[ProcessPoolExecutor]:
        payload = _WorkerPayload(
            config=self.config,
            dataset=None if self.dataset.spec is not None else self.dataset,
            dataset_spec=self.dataset.spec,
            cost_model=self.cost_model, space=self.space)
        try:
            context = multiprocessing.get_context(_pick_start_method())
            return ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context,
                initializer=_init_worker, initargs=(payload,))
        except Exception as exc:  # noqa: BLE001 — any failure → serial
            # surface the reason instead of swallowing it: console line,
            # obs counter (tagged with the cause), and the warning existing
            # callers already catch
            reason = f"{type(exc).__name__}: {exc}"
            self.reporter.info(
                f"process pool unavailable ({reason}); falling back to "
                "in-process serial evaluation")
            get_recorder().counter("pool.start_failures", reason=reason)
            warnings.warn(
                f"multiprocessing unavailable ({exc!r}); "
                f"falling back to in-process serial evaluation",
                RuntimeWarning, stacklevel=2)
            return None

    def _kill_pool(self) -> None:
        """Tear the pool down hard (workers may be hung or already dead)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 — already reaped
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 — executor already broken
            pass
        for process in processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover — SIGTERM-immune
                try:
                    process.kill()
                    process.join(timeout=1)
                except Exception:  # noqa: BLE001
                    pass

    def _pool_failed(self, reason: str) -> None:
        """Kill the pool and either respawn it or degrade to serial."""
        recorder = get_recorder()
        self._kill_pool()
        self._pool_deaths += 1
        if self._pool_deaths > self.retry_policy.max_pool_respawns:
            self._degraded = True
            recorder.counter("pool.degraded")
            message = (f"process pool died {self._pool_deaths} times "
                       f"(last: {reason}); degrading to in-process serial "
                       "evaluation for the rest of the run")
            self.reporter.info(message)
            warnings.warn(message, RuntimeWarning, stacklevel=3)
            return
        recorder.counter("pool.respawns")
        self.reporter.info(
            f"process pool failure ({reason}); respawning "
            f"(death {self._pool_deaths}/"
            f"{self.retry_policy.max_pool_respawns} tolerated)")
        time.sleep(self.retry_policy.backoff_s
                   * (2 ** (self._pool_deaths - 1)))
        self._pool = self._try_start_pool()

    # -- evaluation --------------------------------------------------------
    def _serial_evaluator(self) -> "BOMPNAS":
        if self._evaluator is None:
            from ..nas.search import BOMPNAS
            self._evaluator = BOMPNAS(self.config, self.dataset,
                                      cost_model=self.cost_model,
                                      space=self.space)
        return self._evaluator

    def evaluate(self, specs: List[TrialSpec]) -> List[List["TrialResult"]]:
        """Evaluate specs, returning result lists in spec order.

        Worker faults are handled per :attr:`retry_policy`: failed or
        corrupt outcomes are retried with backoff (exhaustion raises
        :class:`TrialEvaluationError` with the worker traceback), hung
        trials are timed out and the pool respawned, and a repeatedly
        dying pool degrades to serial evaluation of the remaining specs —
        results are bit-identical in every case because trials are
        deterministically seeded.
        """
        if not specs:
            return []
        recorder = get_recorder()
        with recorder.span("pool.batch", tasks=len(specs),
                           workers=self.workers) as batch:
            outcomes: Dict[int, TrialOutcome] = {}
            if self._pool is not None:
                self._evaluate_pooled(specs, outcomes)
            remaining = [s for s in specs if s.index not in outcomes]
            if remaining:
                for outcome in self._evaluate_serial(remaining):
                    outcomes[outcome.index] = outcome
            batch.tags["parallel"] = self._pool is not None
            batches: List[List["TrialResult"]] = []
            for spec in specs:
                outcome = outcomes[spec.index]
                if outcome.error is not None:
                    raise TrialEvaluationError(
                        f"trial {spec.index} failed in worker:\n"
                        f"{outcome.error}")
                recorder.ingest(outcome.events)  # trial spans: children
                batches.append(outcome.results)
        return batches

    def _evaluate_pooled(self, specs: List[TrialSpec],
                         out: Dict[int, TrialOutcome]) -> None:
        """Run specs on the pool, applying the retry/timeout policy.

        Fills ``out`` with every spec the pool managed to evaluate; specs
        still missing afterwards (pool degraded away) are the caller's to
        finish serially.
        """
        policy = self.retry_policy
        recorder = get_recorder()
        attempts = {spec.index: 0 for spec in specs}
        pending = list(specs)
        while pending and self._pool is not None:
            try:
                futures = [(spec, self._pool.submit(_run_trial, spec))
                           for spec in pending]
            except Exception as exc:  # noqa: BLE001 — broken at submit
                self._pool_failed(f"submit failed ({exc!r})")
                continue
            pool_death: Optional[str] = None
            unresolved: List[Tuple[TrialSpec, Any]] = []
            for position, (spec, future) in enumerate(futures):
                try:
                    outcome = future.result(timeout=policy.trial_timeout_s)
                except FuturesTimeout:
                    recorder.counter("pool.timeout_kills", trial=spec.index)
                    pool_death = (f"trial {spec.index} produced no result "
                                  f"within {policy.trial_timeout_s:.0f}s "
                                  "(presumed hung)")
                    unresolved = futures[position:]
                    break
                except Exception as exc:  # noqa: BLE001 — pool died
                    recorder.counter("pool.crashes", trial=spec.index)
                    pool_death = (f"worker crashed evaluating trial "
                                  f"{spec.index} ({type(exc).__name__})")
                    unresolved = futures[position:]
                    break
                problem = _outcome_problem(spec, outcome)
                if problem is None:
                    out[spec.index] = outcome
                    continue
                attempts[spec.index] += 1
                kind = ("error" if isinstance(outcome, TrialOutcome)
                        and outcome.error is not None else "corrupt")
                recorder.counter("pool.retries", trial=spec.index,
                                 reason=kind)
                if attempts[spec.index] > policy.max_retries:
                    raise TrialEvaluationError(
                        f"trial {spec.index} failed after "
                        f"{attempts[spec.index]} attempts "
                        f"({policy.max_retries} retries):\n{problem}")
                self.reporter.info(
                    f"trial {spec.index}: {kind} outcome; retrying "
                    f"({attempts[spec.index]}/{policy.max_retries})")
                time.sleep(policy.backoff_s
                           * (2 ** (attempts[spec.index] - 1)))
            if pool_death is not None:
                # harvest whatever finished before the pool went down —
                # deterministic seeding makes completed results reusable
                for spec, future in unresolved:
                    if spec.index in out:
                        continue
                    if future.done() and not future.cancelled() \
                            and future.exception() is None:
                        outcome = future.result()
                        if _outcome_problem(spec, outcome) is None:
                            out[spec.index] = outcome
                self._pool_failed(pool_death)
            pending = [s for s in pending if s.index not in out]

    def _evaluate_serial(self, specs: List[TrialSpec]) -> List[TrialOutcome]:
        evaluator = self._serial_evaluator()
        outcomes = []
        for spec in specs:
            try:
                outcomes.append(_evaluate_spec(evaluator, spec))
            except Exception:  # noqa: BLE001 — symmetric with worker path
                outcomes.append(TrialOutcome(index=spec.index,
                                             error=traceback.format_exc()))
        return outcomes
