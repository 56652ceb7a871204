"""Parallel trial evaluation: batched BO ask + process-pool candidates.

The BOMP-NAS loop is embarrassingly parallel at the trial level: early
training, quantization, QAFT and evaluation of one candidate never read
another candidate's state.  This package provides the machinery to exploit
that:

- :mod:`repro.parallel.seeding` — deterministic per-trial seeding, so a
  trial's outcome depends only on ``(run seed, trial index, genome)`` and
  parallel runs are bit-identical to serial ones regardless of completion
  order or worker count;
- :mod:`repro.parallel.engine` — a picklable :class:`TrialSpec` /
  :class:`TrialOutcome` worker protocol and the :class:`TrialEngine`
  process pool (with graceful in-process degradation).

Candidate *proposal* stays in the parent process: the Bayesian optimizer's
``ask_batch(q)`` (constant-liar fantasies) and the evolutionary
``ask_batch`` propose q candidates up front, the engine evaluates them in
parallel, and results are told back in proposal order.

Performance is measured by the repository benchmark
(``python3 perfbench/run.py``, workloads and bounds in
``BENCHMARK.json``), whose ``search`` workload reports the run time
spent outside trials and the optimizer as ``parallel.engine_s``.
``tests/parallel/test_determinism.py`` asserts that serial and parallel
runs are bit-identical.
"""

from .engine import (DEFAULT_TRIAL_BATCH, RetryPolicy, TrialEngine,
                     TrialEvaluationError, TrialOutcome, TrialSpec,
                     default_workers)
from .seeding import trial_seed

__all__ = [
    "TrialEngine", "TrialSpec", "TrialOutcome", "TrialEvaluationError",
    "RetryPolicy", "DEFAULT_TRIAL_BATCH", "default_workers",
    "trial_seed",
]
