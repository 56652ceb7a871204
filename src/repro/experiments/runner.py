"""Shared experiment orchestration with on-disk result caching.

Several figures and tables are views over the *same* search runs (Fig. 2
and Fig. 3 share the CIFAR-10 MP QAFT search; Figs. 5/6/8 and Table IV
share the ablation runs).  The :class:`ExperimentContext` memoizes search
results per configuration, in memory and as JSON under a cache directory,
so each search runs exactly once per scale/seed no matter how many
benchmarks consume it.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from pathlib import Path
from typing import Dict, Optional

from ..baselines.jasq import JASQSearch
from ..baselines.micronas import MicroNASSearch
from ..bo.scalarization import ScalarizationConfig
from ..data.datasets import Dataset
from ..data.synthetic import synthetic_cifar10, synthetic_cifar100
from ..env import EnvVarError
from ..nas.config import ScalePreset, SearchConfig, get_mode, get_scale
from ..nas.results import SearchResult
from ..nas.search import BOMPNAS
from ..obs.trace import RunTracer
from ..resilience.checkpoint import CheckpointError

#: paper reference values for the two datasets' scalarization configs
REF_SIZE = {"cifar10": 8.0, "cifar100": 6.0}

#: CIFAR-100-space candidates are ~10x the compute of CIFAR-10 ones (width
#: multipliers up to 1.3 on the full base widths), so reduced-scale runs
#: use a lighter protocol there; ``paper`` scale is never overridden.
CIFAR100_TRIAL_FRACTION = 0.45
CIFAR100_MAX_EARLY_EPOCHS = 3
CIFAR100_MAX_FINAL_EPOCHS = 4


def default_cache_dir() -> Path:
    return Path(os.environ.get("BOMP_CACHE_DIR", ".bomp_cache"))


def _env_workers() -> int:
    """``BOMP_WORKERS`` (default 1); anything but a positive integer is
    refused."""
    value = os.environ.get("BOMP_WORKERS", "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise EnvVarError(f"BOMP_WORKERS={value!r}: expected a positive "
                          f"integer")
    return workers


class ExperimentContext:
    """Datasets + memoized search runs for the benchmark harness."""

    def __init__(self, scale_name: Optional[str] = None, seed: int = 7,
                 cache_dir: Optional[Path] = None,
                 use_disk_cache: bool = True,
                 workers: Optional[int] = None,
                 trace_dir: Optional[Path] = None,
                 checkpoint_dir: Optional[Path] = None) -> None:
        self.scale: ScalePreset = get_scale(scale_name)
        self.seed = seed
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.use_disk_cache = use_disk_cache
        # Worker count never enters cache keys: per-trial seeding makes
        # results bit-identical for any value, so parallelism is purely an
        # execution detail.  Tracing is an execution detail for the same
        # reason: event logs are a side product, never a cache input.
        if workers is None:
            workers = _env_workers()
        self.workers = max(1, workers)
        if trace_dir is None:
            env_dir = os.environ.get("BOMP_TRACE_DIR")
            trace_dir = Path(env_dir) if env_dir else None
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        # Checkpointing, like tracing, is an execution detail: it never
        # enters cache keys, and a resumed search is bit-identical to an
        # uninterrupted one, so cached results stay valid either way.
        if checkpoint_dir is None:
            env_dir = os.environ.get("BOMP_CHECKPOINT_DIR")
            checkpoint_dir = Path(env_dir) if env_dir else None
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self._datasets: Dict[str, Dataset] = {}
        self._results: Dict[str, SearchResult] = {}

    # -- datasets ----------------------------------------------------------
    def dataset(self, name: str) -> Dataset:
        if name not in self._datasets:
            loader = {"cifar10": synthetic_cifar10,
                      "cifar100": synthetic_cifar100}[name]
            self._datasets[name] = loader(
                n_train=self.scale.n_train, n_test=self.scale.n_test,
                image_size=self.scale.image_size, seed=self.seed)
        return self._datasets[name]

    def config(self, dataset: str, mode: str, **overrides) -> SearchConfig:
        """A search config at this context's scale with paper references."""
        scalarization = ScalarizationConfig(
            ref_accuracy=0.8, ref_model_size=REF_SIZE[dataset])
        scale = self._dataset_scale(dataset)
        return SearchConfig(
            dataset=dataset, mode=get_mode(mode), scale=scale,
            scalarization=scalarization, seed=self.seed, **overrides)

    def _dataset_scale(self, dataset: str) -> ScalePreset:
        if dataset != "cifar100" or self.scale.name == "paper":
            return self.scale
        from dataclasses import replace
        return replace(
            self.scale, name=f"{self.scale.name}-c100",
            trials=max(6, int(self.scale.trials * CIFAR100_TRIAL_FRACTION)),
            early_epochs=min(self.scale.early_epochs,
                             CIFAR100_MAX_EARLY_EPOCHS),
            final_epochs=min(self.scale.final_epochs,
                             CIFAR100_MAX_FINAL_EPOCHS))

    # -- cached runs ----------------------------------------------------------
    def _cache_key(self, kind: str, config: SearchConfig, extra: str = ""
                   ) -> str:
        payload = "|".join([
            kind, config.describe(), str(config.seed),
            str(config.policies_per_trial), config.kernel,
            config.acquisition, config.observer, extra])
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def _load_cached(self, key: str) -> Optional[SearchResult]:
        if key in self._results:
            return self._results[key]
        if self.use_disk_cache:
            path = self.cache_dir / f"{key}.json"
            if path.exists():
                result = SearchResult.load(str(path))
                self._results[key] = result
                return result
        return None

    def _store(self, key: str, result: SearchResult) -> None:
        self._results[key] = result
        if self.use_disk_cache:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            result.save(str(self.cache_dir / f"{key}.json"))

    def cached_result(self, key: str, builder) -> SearchResult:
        """Memoize an arbitrary derived :class:`SearchResult` by key.

        Used for derived artifacts that are not plain searches (the seed
        evaluation point, PTQ-searched models re-finalized with QAFT) so
        they survive across processes like search results do.
        """
        digest = hashlib.sha256(
            f"{key}|{self.scale.name}|{self.seed}".encode()).hexdigest()[:16]
        cached = self._load_cached(digest)
        if cached is not None:
            return cached
        result = builder()
        self._store(digest, result)
        return result

    def run_search(self, dataset: str, mode: str,
                   final_training: bool = True,
                   **overrides) -> SearchResult:
        """Run (or fetch) a BOMP-NAS search in the given mode."""
        config = self.config(dataset, mode, **overrides)
        key = self._cache_key("bomp", config,
                              extra=f"final={final_training}")
        cached = self._load_cached(key)
        if cached is not None:
            if final_training and not cached.final_models:
                # a cached search whose finals were stripped/never run:
                # backfill final training (deterministic per trial)
                from ..nas.final_training import train_final_models
                evaluator = BOMPNAS(config, self.dataset(dataset))
                cached.final_models = train_final_models(
                    evaluator, cached.pareto_trials())
                self._store(key, cached)
            return cached
        if not final_training:
            # a finally-trained run of the same search supersedes this one
            richer = self._load_cached(
                self._cache_key("bomp", config, extra="final=True"))
            if richer is not None:
                return richer
        tracer = self._make_tracer("bomp", config)
        run_dir = self._checkpoint_run_dir("bomp", config)
        resume_from = None
        if run_dir is not None:
            from ..resilience.checkpoint import has_checkpoint
            if has_checkpoint(run_dir):
                resume_from = run_dir
        try:
            try:
                result = BOMPNAS(config, self.dataset(dataset)).run(
                    final_training=final_training, workers=self.workers,
                    tracer=tracer, checkpoint_dir=run_dir,
                    resume_from=resume_from)
            except CheckpointError as error:
                if resume_from is None:
                    raise
                # stale/incompatible checkpoint (e.g. the scale changed
                # between invocations): fall back to a fresh run
                warnings.warn(f"ignoring checkpoint at {resume_from}: "
                              f"{error}", RuntimeWarning)
                result = BOMPNAS(config, self.dataset(dataset)).run(
                    final_training=final_training, workers=self.workers,
                    tracer=tracer, checkpoint_dir=run_dir)
        finally:
            if tracer is not None:
                tracer.close()
        self._store(key, result)
        return result

    def _checkpoint_run_dir(self, kind: str,
                            config: SearchConfig) -> Optional[Path]:
        """Per-search checkpoint directory under ``checkpoint_dir``."""
        if self.checkpoint_dir is None:
            return None
        return self.checkpoint_dir / (
            f"{kind}-{config.mode.name}-{config.dataset}-"
            f"{config.scale.name}-seed{config.seed}")

    def _make_tracer(self, kind: str,
                     config: SearchConfig) -> Optional[RunTracer]:
        """A per-search run tracer under ``trace_dir``, if tracing is on."""
        if self.trace_dir is None:
            return None
        run_dir = self.trace_dir / (
            f"{kind}-{config.mode.name}-{config.dataset}-"
            f"{config.scale.name}-seed{config.seed}")
        return RunTracer(run_dir)

    def run_jasq(self, dataset: str, final_training: bool = True
                 ) -> SearchResult:
        """Run (or fetch) the JASQ evolutionary baseline."""
        config = self.config(dataset, "mp_ptq")
        key = self._cache_key("jasq", config,
                              extra=f"final={final_training}")
        cached = self._load_cached(key)
        if cached is not None:
            return cached
        result = JASQSearch(config, self.dataset(dataset)).run(
            final_training=final_training, workers=self.workers)
        self._store(key, result)
        return result

    def run_micronas(self, dataset: str, size_budget_kb: float = 16.0,
                     final_training: bool = True) -> SearchResult:
        """Run (or fetch) the muNAS-like constrained baseline."""
        config = self.config(dataset, "fixed8_ptq")
        key = self._cache_key("micronas", config,
                              extra=f"budget={size_budget_kb}"
                                    f"|final={final_training}")
        cached = self._load_cached(key)
        if cached is not None:
            return cached
        result = MicroNASSearch(config, self.dataset(dataset),
                                size_budget_kb=size_budget_kb).run(
            final_training=final_training, workers=self.workers)
        self._store(key, result)
        return result
