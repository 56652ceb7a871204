"""The BOMP-NAS search loop (Fig. 1 of the paper).

Each trial: the BO search strategy selects a candidate DNN + quantization
policy (1); the DNN is early-trained in full precision (2); quantized
according to the policy (3); fine-tuned quantization-aware (4); evaluated
(5); the (accuracy, model size) objectives are scalarized by Eq. (1) into a
score (5a) which updates the GP surrogate (6).  After the trial budget is
spent, the Pareto-optimal candidates are finally trained (7).

Search modes reduce this loop: PTQ modes skip step (4); the post-NAS
baseline skips (3) and (4) entirely and scores full-precision accuracy
against the deployment (8-bit) size.

The ``policies_per_trial`` option implements the paper's future-work
proposal: re-use one early-trained network to evaluate several quantization
policies, feeding each to the surrogate.

Trials are embarrassingly parallel: each draws all randomness from a
deterministic per-trial seed (:mod:`repro.parallel.seeding`), the optimizer
proposes candidates in constant-liar batches (``ask_batch``), and a
:class:`~repro.parallel.engine.TrialEngine` evaluates each batch — serial
in-process or on a process pool — producing bit-identical results for any
``workers`` value.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..bo.optimizer import BayesianOptimizer
from ..bo.acquisition import make_acquisition
from ..bo.kernels import make_kernel
from ..bo.scalarization import scalarize
from ..data.datasets import Dataset
from ..nn.losses import evaluate_classifier
from ..nn.network import Sequential
from ..nn.optim import Adam, CosineDecayLR, Optimizer
from ..nn.serialization import load_state_dict, state_dict
from ..nn.trainer import Trainer
from ..obs import profile
from ..obs.console import ConsoleReporter
from ..obs.trace import RunTracer, get_recorder, use_recorder
from ..parallel.engine import (DEFAULT_TRIAL_BATCH, RetryPolicy, TrialEngine,
                               TrialSpec)
from ..parallel.seeding import trial_seed
from ..resilience.checkpoint import (CheckpointError, SearchCheckpoint,
                                     checkpoint_path, load_checkpoint,
                                     restoring_from, save_checkpoint)
from ..quant.apply import apply_policy, calibrate, remove_quantizers
from ..quant.policy import QuantizationPolicy
from ..quant.qaft import quantization_aware_finetune
from ..quant.size import model_size_bits
from ..space.builder import build_model, count_macs
from ..space.genome import MixedPrecisionGenome
from ..space.space import SearchSpace
from .config import LEARNING_RATE, QAFT_LEARNING_RATE, SearchConfig
from .cost import CostModel
from .results import SearchResult, config_from_dict, config_to_dict
from .trial import TrialResult

ProgressFn = Callable[[TrialResult], None]


class BOMPNAS:
    """Bayesian Optimization Mixed-Precision NAS.

    A comparator search is a subclass that swaps the strategy through
    three hooks, read only in the parent process: :meth:`make_optimizer`
    (anything with ``ask_batch`` and ``tell``), :meth:`objective` and
    :meth:`final_candidates`.  Pool workers build a plain ``BOMPNAS``
    from the config, so no subclass may override
    :meth:`evaluate_candidate`.

    Args:
        config: run recipe (mode, scale, scalarization, seed).
        dataset: pre-generated dataset; its ``num_classes`` must match the
            config's dataset name (10 or 100).
        cost_model: simulated GPU-hour accounting.
        progress: optional per-trial callback (for logging).
    """

    def __init__(self, config: SearchConfig, dataset: Dataset,
                 cost_model: Optional[CostModel] = None,
                 progress: Optional[ProgressFn] = None,
                 space: Optional[SearchSpace] = None) -> None:
        expected_classes = 10 if config.dataset == "cifar10" else 100
        if dataset.num_classes != expected_classes:
            raise ValueError(
                f"dataset has {dataset.num_classes} classes but config "
                f"expects {expected_classes}")
        if space is not None and space.dataset != config.dataset:
            raise ValueError(
                f"space is for {space.dataset!r} but config expects "
                f"{config.dataset!r}")
        self.config = config
        self.dataset = dataset
        self.space = space if space is not None else SearchSpace(
            config.dataset)
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.progress = progress
        self.rng = np.random.default_rng(config.seed)
        self._fixed_policy = self._make_fixed_policy()

    # -- mode plumbing -----------------------------------------------------
    def _make_fixed_policy(self) -> Optional[QuantizationPolicy]:
        mode = self.config.mode
        if mode.search_policy:
            return None
        return self.space.seed_policy(mode.fixed_bits)

    def _sample_genome(self, rng: np.random.Generator) -> MixedPrecisionGenome:
        if self._fixed_policy is None:
            return self.space.random_genome(rng)
        return MixedPrecisionGenome(self.space.random_arch(rng),
                                    self._fixed_policy)

    def _mutate_genome(self, genome: MixedPrecisionGenome,
                       rng: np.random.Generator) -> MixedPrecisionGenome:
        policy_fixed = self._fixed_policy is not None
        return self.space.mutate(genome, rng, policy_fixed=policy_fixed)

    def make_optimizer(self) -> BayesianOptimizer:
        scale = self.config.scale
        return BayesianOptimizer(
            self.space, self.rng,
            kernel=make_kernel(self.config.kernel, length_scale=0.1),
            acquisition=make_acquisition(self.config.acquisition),
            n_initial_random=scale.n_initial_random,
            sample_fn=self._sample_genome,
            mutate_fn=self._mutate_genome)

    def objective(self, trial: TrialResult) -> float:
        """The score told to the search strategy, live and on resume."""
        return trial.score

    def final_candidates(self, result: SearchResult) -> List[TrialResult]:
        """The trials step (7) finally trains."""
        return result.pareto_trials()

    def make_training_optimizer(self, model: Sequential,
                                epochs: int) -> Optimizer:
        """The full-precision training optimizer (early & final training):
        Adam, which converges fastest in early training, under cosine
        decay."""
        scale = self.config.scale
        steps_per_epoch = -(-scale.n_train // scale.batch_size)
        schedule = CosineDecayLR(LEARNING_RATE,
                                 max(1, epochs * steps_per_epoch))
        return Adam(model.parameters(), schedule)

    # -- candidate evaluation (steps 2-5a of Fig. 1) -------------------------
    def early_train(self, genome: MixedPrecisionGenome,
                    rng: Optional[np.random.Generator] = None) -> Sequential:
        """Step (2): build and early-train a candidate in full precision."""
        scale = self.config.scale
        rng = rng if rng is not None else self.rng
        model = build_model(genome.arch, self.dataset.num_classes, rng=rng)
        trainer = Trainer(model, self.make_training_optimizer(
            model, scale.early_epochs))
        trainer.fit(self.dataset.x_train, self.dataset.y_train,
                    epochs=scale.early_epochs, batch_size=scale.batch_size,
                    rng=rng)
        return model

    def quantize_and_evaluate(self, model: Sequential,
                              policy: QuantizationPolicy,
                              rng: Optional[np.random.Generator] = None,
                              phase_times: Optional[Dict[str, float]] = None
                              ) -> tuple:
        """Steps (3)-(5): quantize per policy, optionally QAFT, evaluate.

        Returns ``(accuracy, size_bits)`` of the deployed candidate.  When
        ``phase_times`` is given, the PTQ / QAFT / eval span durations are
        accumulated into it under those keys.
        """
        scale = self.config.scale
        mode = self.config.mode
        rng = rng if rng is not None else self.rng
        recorder = get_recorder()
        with recorder.span("ptq", kind="phase") as ptq_span:
            apply_policy(model, policy, observer_kind=self.config.observer)
            calibrate(model, self.dataset.x_train,
                      batch_size=scale.batch_size)
        run_qaft = mode.qaft_in_loop and scale.qaft_epochs > 0
        ptq_accuracy: Optional[float] = None
        if run_qaft and recorder.enabled:
            # PTQ accuracy before fine-tuning, for the qaft.recovery delta.
            # Pure inference (no RNG, no state updates), so traced results
            # stay bit-identical to untraced ones.
            _, ptq_accuracy = evaluate_classifier(
                model, self.dataset.x_test, self.dataset.y_test)
        qaft_seconds = 0.0
        if run_qaft:
            with recorder.span("qaft", kind="phase") as qaft_span:
                quantization_aware_finetune(
                    model, self.dataset.x_train, self.dataset.y_train,
                    epochs=scale.qaft_epochs,
                    learning_rate=QAFT_LEARNING_RATE,
                    batch_size=scale.batch_size, rng=rng)
            qaft_seconds = qaft_span.duration
        with recorder.span("eval", kind="phase") as eval_span:
            _, accuracy = evaluate_classifier(model, self.dataset.x_test,
                                              self.dataset.y_test)
            size = model_size_bits(model)
        if ptq_accuracy is not None:
            recorder.gauge("qaft.recovery", accuracy - ptq_accuracy,
                           ptq_accuracy=ptq_accuracy, accuracy=accuracy)
        if phase_times is not None:
            phase_times["ptq"] += ptq_span.duration
            phase_times["qaft"] += qaft_seconds
            phase_times["eval"] += eval_span.duration
        return accuracy, size

    def evaluate_candidate(self, genome: MixedPrecisionGenome,
                           index: int,
                           seed: Optional[int] = None) -> List[TrialResult]:
        """Run one full trial; several results if policies_per_trial > 1.

        All randomness comes from a generator seeded by
        ``trial_seed(config.seed, index)`` (or the explicit ``seed``), so
        the outcome depends only on ``(genome, config, index)`` — never on
        evaluation order or which process runs it.

        All wall-times come from spans: ``phase_times`` are the span
        durations and ``wall_time_s`` the enclosing trial-span segment,
        so the phases sum to the wall-time up to bookkeeping slack.
        """
        scale = self.config.scale
        mode = self.config.mode
        if seed is None:
            seed = trial_seed(self.config.seed, index)
        rng = np.random.default_rng(seed)
        recorder = get_recorder()
        results: List[TrialResult] = []
        with recorder.span("trial", kind="trial", trial=index) as trial_span:
            with recorder.span("train", kind="phase") as train_span:
                model = self.early_train(genome, rng=rng)
            with recorder.span("eval", kind="phase") as fp_eval_span:
                _, fp_accuracy = evaluate_classifier(
                    model, self.dataset.x_test, self.dataset.y_test)
                macs = count_macs(model, self.dataset.image_shape[:2])
                params = model.num_parameters()

            policies = [genome.policy]
            for _ in range(self.config.policies_per_trial - 1):
                policies.append(self.space.mutate_policy(genome.policy, rng,
                                                         n_mutations=3))
            snapshot = state_dict(model) if len(policies) > 1 else None

            for policy_index, policy in enumerate(policies):
                first = policy_index == 0
                phases = {"train": train_span.duration if first else 0.0,
                          "ptq": 0.0, "qaft": 0.0,
                          "eval": fp_eval_span.duration if first else 0.0}
                segment_start = trial_span.elapsed()
                if snapshot is not None and policy_index > 0:
                    remove_quantizers(model)
                    load_state_dict(model, snapshot)
                if mode.quantize_in_loop:
                    accuracy, size = self.quantize_and_evaluate(
                        model, policy, rng=rng, phase_times=phases)
                else:
                    # post-NAS baseline: full-precision accuracy, scored
                    # against the deployment (8-bit homogeneous) size
                    accuracy = fp_accuracy
                    size = model_size_bits(model,
                                           self.space.seed_policy(
                                               mode.fixed_bits))
                score = scalarize(accuracy, size, self.config.scalarization,
                                  macs=macs)
                qaft_epochs = (scale.qaft_epochs if mode.qaft_in_loop else 0)
                gpu_hours = self.cost_model.trial_hours(
                    macs, scale.n_train,
                    early_epochs=scale.early_epochs if first else 0,
                    qaft_epochs=qaft_epochs)
                elapsed = trial_span.elapsed()
                # the first result owns the shared train + FP-eval prefix
                wall_time = elapsed if first else elapsed - segment_start
                results.append(TrialResult(
                    index=index + policy_index,
                    genome=MixedPrecisionGenome(genome.arch, policy),
                    accuracy=accuracy, fp_accuracy=fp_accuracy,
                    size_bits=size, size_kb=size / (8 * 1024),
                    score=score, macs=macs, params=params,
                    train_seconds=train_span.duration,
                    gpu_hours=gpu_hours,
                    wall_time_s=wall_time, phase_times=phases))
                if recorder.enabled:
                    recorder.gauge("trial.score", score,
                                   trial=index + policy_index,
                                   accuracy=accuracy,
                                   size_kb=size / (8 * 1024),
                                   fp_accuracy=fp_accuracy)
            trial_span.tags.update(results=len(results))
        return results

    # -- checkpoint plumbing -------------------------------------------------
    def _restore(self, resume_from, optimizer: BayesianOptimizer,
                 batch_size: Optional[int]) -> tuple:
        """Load a checkpoint and rebuild the mid-search state from it.

        Returns ``(trials, batches_done, proposal_batch)``.  The GP
        training data is replayed through ``tell`` (deterministic given
        the recorded genomes/scores); the RNG stream and seed-anchor flag
        are restored from the snapshot, so the next ``ask_batch`` proposes
        exactly what the uninterrupted run would have proposed.
        """
        checkpoint = load_checkpoint(resume_from)
        expected = config_to_dict(self.config)
        # normalized, so a key the checkpoint predates reads as its
        # default; a key this code does not write is a mismatch
        with restoring_from(resume_from):
            recorded = config_to_dict(config_from_dict(checkpoint.config))
        mismatched = sorted(
            {key for key in expected if expected[key] != recorded[key]}
            | set(checkpoint.config) - set(expected))
        if mismatched:
            raise CheckpointError(
                f"checkpoint {checkpoint_path(resume_from)} was written by "
                f"a different run configuration (mismatched: "
                f"{', '.join(mismatched)})")
        if batch_size is not None and batch_size != checkpoint.batch_size:
            raise CheckpointError(
                f"checkpoint {checkpoint_path(resume_from)} was written "
                f"with batch_size="
                f"{checkpoint.batch_size}, cannot resume with "
                f"batch_size={batch_size} (the proposal schedule is part "
                "of the search result)")
        with restoring_from(resume_from):
            trials = [TrialResult.from_dict(t) for t in checkpoint.trials]
            for trial in trials:
                optimizer.tell(trial.genome, self.objective(trial))
            optimizer.restore_state(checkpoint.optimizer)
        return trials, checkpoint.batch_index, checkpoint.batch_size

    def _save_checkpoint(self, checkpoint_dir,
                         optimizer: BayesianOptimizer,
                         trials: List[TrialResult], proposal_batch: int,
                         total: int, batches_done: int) -> None:
        save_checkpoint(checkpoint_dir, SearchCheckpoint(
            config=config_to_dict(self.config),
            dataset_spec=self.dataset.spec,
            batch_size=proposal_batch, total_trials=total,
            batch_index=batches_done,
            trials=[t.as_dict() for t in trials],
            optimizer=optimizer.state_dict()))

    # -- the loop -------------------------------------------------------------
    def run(self, final_training: bool = True, workers: int = 1,
            batch_size: Optional[int] = None,
            tracer: Optional[RunTracer] = None,
            checkpoint_dir=None, resume_from=None,
            retry_policy: Optional[RetryPolicy] = None,
            reporter: Optional[ConsoleReporter] = None) -> SearchResult:
        """Run the search; optionally finally train the Pareto set.

        Args:
            final_training: finally train the Pareto-optimal candidates.
            workers: process-pool size for trial evaluation; ``<= 1`` runs
                in-process.  The result is bit-identical for any value.
            batch_size: candidates proposed per constant-liar ``ask_batch``
                round (default :data:`DEFAULT_TRIAL_BATCH`).  Part of the
                search schedule — unlike ``workers`` it *does* change which
                candidates are proposed.
            tracer: optional :class:`~repro.obs.trace.RunTracer`; when
                given, its recorder is installed for the duration of the
                run and the full event stream goes to its run directory.
                Tracing never changes the search result.
            checkpoint_dir: when given, the full search state is
                atomically persisted to ``<checkpoint_dir>/checkpoint.json``
                after every BO batch (and once more after final training
                completes nothing new — the last batch checkpoint already
                covers the trial history).
            resume_from: directory (or checkpoint path) of an interrupted
                run to continue.  The resumed search is bit-identical to
                an uninterrupted one; the config must match and
                ``batch_size``, if given, must equal the checkpointed one.
            retry_policy: worker fault-handling policy, forwarded to the
                :class:`~repro.parallel.engine.TrialEngine` (default:
                ``RetryPolicy()``).
            reporter: console reporter for engine recovery diagnostics.
        """
        from .final_training import train_final_models  # cycle guard
        recorder = tracer.recorder if tracer is not None else get_recorder()
        # honour BOMP_PROFILE when traced and no profiler was installed by
        # the caller; either way the active profiler is flushed into the
        # trace when the run span closes (and per trial by the engine)
        profiler = None
        if recorder.enabled and profile.current() is None:
            profile_mode = profile.mode_from_env()
            if profile_mode is not None:
                profiler = profile.KernelProfiler(profile_mode)
        with use_recorder(recorder), profile.use_profiler(
                profiler if profiler is not None else profile.current()):
            optimizer = self.make_optimizer()
            per_candidate = self.config.policies_per_trial
            total = self.config.scale.trials
            trials: List[TrialResult] = []
            batches_done = 0
            if resume_from is not None:
                trials, batches_done, resumed_batch = self._restore(
                    resume_from, optimizer, batch_size)
                proposal_batch = resumed_batch
                if checkpoint_dir is None:
                    checkpoint_dir = resume_from
            else:
                proposal_batch = max(1, batch_size if batch_size is not None
                                     else DEFAULT_TRIAL_BATCH)
            engine = TrialEngine(self.config, self.dataset, workers=workers,
                                 cost_model=self.cost_model,
                                 space=self.space, evaluator=self,
                                 retry_policy=retry_policy,
                                 reporter=reporter)
            if recorder.enabled:
                recorder.meta(run=self.config.describe(),
                              dataset=self.config.dataset,
                              mode=self.config.mode.name,
                              scale=self.config.scale.name,
                              seed=self.config.seed,
                              workers=workers, trials=total,
                              resumed_at_trial=(len(trials)
                                                if resume_from else None))
            with recorder.span("run", kind="run",
                               mode=self.config.mode.name,
                               dataset=self.config.dataset,
                               seed=self.config.seed):
                with engine:
                    while len(trials) < total:
                        remaining = -(-(total - len(trials)) //
                                      per_candidate)
                        genomes = optimizer.ask_batch(
                            min(proposal_batch, remaining))
                        specs = []
                        for j, genome in enumerate(genomes):
                            index = len(trials) + j * per_candidate
                            specs.append(TrialSpec(
                                index=index, genome=genome,
                                seed=trial_seed(self.config.seed, index),
                                trace=recorder.enabled,
                                profile=profile.current_mode()))
                        for batch in engine.evaluate(specs):
                            for result in batch:
                                optimizer.tell(result.genome,
                                               self.objective(result))
                                trials.append(result)
                                if self.progress is not None:
                                    self.progress(result)
                        batches_done += 1
                        if checkpoint_dir is not None:
                            self._save_checkpoint(
                                checkpoint_dir, optimizer, trials,
                                proposal_batch, total, batches_done)
                result = SearchResult(config=self.config, trials=trials)
                if final_training:
                    with recorder.span("final_training", kind="phase"):
                        result.final_models = train_final_models(
                            self, self.final_candidates(result))
            # run-level profile stats (final training, out-of-trial work);
            # per-trial stats were flushed by the engine with trial indices
            active_profiler = profile.current()
            if active_profiler is not None and recorder.enabled:
                active_profiler.flush_to(recorder)
        return result
