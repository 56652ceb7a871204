"""Search result container with Pareto extraction and JSON persistence."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Tuple

from ..bo.pareto import pareto_front, pareto_indices
from .config import (SCALE_PRESETS, ScalarizationConfig, ScalePreset,
                     SearchConfig, get_mode)
from .trial import FinalModelResult, TrialResult


class ResultError(ValueError):
    """A payload or file is not a search result."""


def config_to_dict(config: SearchConfig) -> Dict:
    """Portable representation of a :class:`SearchConfig`.

    Shared by :class:`SearchResult` persistence and the resilience layer's
    checkpoints, so the two on-disk formats can never drift apart.
    """
    return {
        "dataset": config.dataset,
        "mode": config.mode.name,
        "scale": config.scale.name,
        "scale_params": asdict(config.scale),
        "ref_accuracy": config.scalarization.ref_accuracy,
        "ref_model_size": config.scalarization.ref_model_size,
        "ref_macs": config.scalarization.ref_macs,
        "seed": config.seed,
        "policies_per_trial": config.policies_per_trial,
        "kernel": config.kernel,
        "acquisition": config.acquisition,
        "observer": config.observer,
    }


def config_from_dict(raw: Dict) -> SearchConfig:
    """Inverse of :func:`config_to_dict`.

    Tolerates older payloads: keys added since (``scale_params``,
    ``policies_per_trial``, ``kernel``, ``acquisition``, ``observer``,
    ``ref_macs``) fall back to the values those runs used.
    """
    if "scale_params" in raw:
        scale = ScalePreset(**raw["scale_params"])
    else:
        scale = SCALE_PRESETS[raw["scale"]]
    return SearchConfig(
        dataset=raw["dataset"], mode=get_mode(raw["mode"]),
        scale=scale,
        scalarization=ScalarizationConfig(
            ref_accuracy=raw["ref_accuracy"],
            ref_model_size=raw["ref_model_size"],
            ref_macs=raw.get("ref_macs")),
        seed=raw["seed"],
        policies_per_trial=raw.get("policies_per_trial", 1),
        kernel=raw.get("kernel", "matern52"),
        acquisition=raw.get("acquisition", "ucb"),
        observer=raw.get("observer", "minmax"))


@dataclass
class SearchResult:
    """Everything a finished search produced."""

    config: SearchConfig
    trials: List[TrialResult]
    final_models: List[FinalModelResult] = field(default_factory=list)

    # -- Pareto views -----------------------------------------------------
    def pareto_trial_indices(self) -> List[int]:
        accuracies = [t.accuracy for t in self.trials]
        sizes = [t.size_kb for t in self.trials]
        return pareto_indices(accuracies, sizes)

    def pareto_trials(self) -> List[TrialResult]:
        return [self.trials[i] for i in self.pareto_trial_indices()]

    def candidate_front(self) -> List[Tuple[float, float]]:
        """(accuracy, size_kb) Pareto front over in-search candidates."""
        return pareto_front([t.accuracy for t in self.trials],
                            [t.size_kb for t in self.trials])

    def final_front(self) -> List[Tuple[float, float]]:
        """(accuracy, size_kb) front over finally-trained models."""
        if not self.final_models:
            return []
        return pareto_front([m.accuracy for m in self.final_models],
                            [m.size_kb for m in self.final_models])

    # -- cost --------------------------------------------------------------
    def search_gpu_hours(self) -> float:
        """Total simulated cost of the search loop (excl. final training)."""
        return sum(t.gpu_hours for t in self.trials)

    def final_training_gpu_hours(self) -> float:
        return sum(m.gpu_hours for m in self.final_models)

    # -- summaries ----------------------------------------------------------
    def best_trial(self) -> TrialResult:
        if not self.trials:
            raise ValueError("no trials recorded")
        return max(self.trials, key=lambda t: t.score)

    def score_trajectory(self) -> List[float]:
        """Best-so-far score after each trial (BO convergence curve)."""
        best = float("-inf")
        trajectory = []
        for trial in self.trials:
            best = max(best, trial.score)
            trajectory.append(best)
        return trajectory

    def summary(self) -> str:
        lines = [f"Search: {self.config.describe()}",
                 f"  trials: {len(self.trials)}",
                 f"  simulated search cost: "
                 f"{self.search_gpu_hours():.2f} GPU-hours"]
        if self.trials:
            best = self.best_trial()
            lines.append(
                f"  best trial #{best.index}: acc={best.accuracy:.3f} "
                f"size={best.size_kb:.2f} kB score={best.score:.3f}")
        if self.final_models:
            lines.append(f"  final Pareto models: {len(self.final_models)}")
            for m in sorted(self.final_models, key=lambda m: m.size_kb):
                deployed = ("" if m.deployed_accuracy is None else
                            f" int-engine={m.deployed_accuracy:.3f}")
                lines.append(f"    acc={m.accuracy:.3f} "
                             f"size={m.size_kb:.2f} kB{deployed}")
        return "\n".join(lines)

    # -- persistence ----------------------------------------------------------
    def as_dict(self) -> Dict:
        return {
            "config": config_to_dict(self.config),
            "trials": [t.as_dict() for t in self.trials],
            "final_models": [m.as_dict() for m in self.final_models],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SearchResult":
        """Inverse of :meth:`as_dict`; a payload that lacks or mistypes
        its fields raises :class:`ResultError`."""
        try:
            return cls(
                config=config_from_dict(data["config"]),
                trials=[TrialResult.from_dict(t) for t in data["trials"]],
                final_models=[FinalModelResult.from_dict(m)
                              for m in data["final_models"]])
        except (AttributeError, IndexError, KeyError, TypeError,
                ValueError) as exc:
            raise ResultError(f"not a search result "
                              f"({type(exc).__name__}: {exc})") from exc

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=2)

    @classmethod
    def load(cls, path: str) -> "SearchResult":
        """Read a saved result; any failure is one :class:`ResultError`
        naming ``path``."""
        try:
            with open(path) as handle:
                return cls.from_dict(json.load(handle))
        except (OSError, ValueError) as exc:
            raise ResultError(f"cannot read {path}: {exc}") from exc
