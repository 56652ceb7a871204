"""Atomic search checkpoints: persist/restore full BOMP-NAS search state.

A checkpoint is written after every BO batch and captures everything a
resumed run needs to be *bit-identical* to an uninterrupted one:

- the run's config (the same dict :class:`~repro.nas.results.SearchResult`
  serializes) and the dataset regeneration spec;
- the full trial history (GP training data is replayed from it: telling
  the recorded ``(genome, score)`` pairs back rebuilds the surrogate's
  observations, encodings, and dedup set exactly);
- the optimizer's non-replayable state: the RNG bit-generator state and
  the seed-anchor flag (both consumed outside ``tell``);
- the search schedule (proposal batch size, total trials) and how many
  batches have completed.

Writes are atomic: the payload goes to a temp file in the run directory
(flushed and fsynced), then ``os.replace`` renames it over
``checkpoint.json``.  A process killed mid-write leaves the previous
checkpoint intact; a stale ``checkpoint.json.tmp.*`` is ignored by
readers.  :func:`~repro.resilience.faults.checkpoint_fault` hooks sit on
both sides of the rename so the fault harness can kill the process at
either point.

The schema is validated by :func:`validate_checkpoint` (wired into
``scripts/check_schema.py`` alongside the event-log and serving-stats
schemas).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .faults import checkpoint_fault

#: bump when a field is renamed/removed (additions are compatible)
CHECKPOINT_SCHEMA_VERSION = 1

#: checkpoint filename inside a run directory
CHECKPOINT_FILENAME = "checkpoint.json"

#: fields every checkpoint payload must carry
CHECKPOINT_FIELDS = ("schema", "config", "batch_size", "total_trials",
                     "batch_index", "trials", "optimizer")

#: fields the optimizer-state sub-object must carry
OPTIMIZER_STATE_FIELDS = ("seed_given", "rng_state")


class CheckpointError(RuntimeError):
    """A checkpoint is missing, malformed, or incompatible with the run."""


@dataclass
class SearchCheckpoint:
    """The persisted state of a search at a batch boundary.

    ``config`` and ``trials`` are stored as the plain dicts produced by the
    ``nas`` layer's own serializers, so the checkpoint module stays free of
    search-layer imports and the formats cannot drift apart.
    """

    config: Dict[str, Any]
    batch_size: int
    total_trials: int
    batch_index: int
    trials: List[Dict[str, Any]]
    optimizer: Dict[str, Any]
    dataset_spec: Optional[Dict[str, Any]] = None
    schema: int = CHECKPOINT_SCHEMA_VERSION

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SearchCheckpoint":
        problems = validate_checkpoint(payload)
        if problems:
            raise CheckpointError(
                "invalid checkpoint: " + "; ".join(problems))
        return cls(config=payload["config"],
                   batch_size=int(payload["batch_size"]),
                   total_trials=int(payload["total_trials"]),
                   batch_index=int(payload["batch_index"]),
                   trials=list(payload["trials"]),
                   optimizer=payload["optimizer"],
                   dataset_spec=payload.get("dataset_spec"),
                   schema=int(payload["schema"]))


def checkpoint_path(run_dir: Union[str, Path]) -> Path:
    """The checkpoint path for a run directory (or a direct file path)."""
    path = Path(run_dir)
    if path.is_dir() or path.suffix != ".json":
        return path / CHECKPOINT_FILENAME
    return path


def save_checkpoint(run_dir: Union[str, Path],
                    checkpoint: SearchCheckpoint) -> Path:
    """Atomically persist ``checkpoint`` to ``<run_dir>/checkpoint.json``.

    Write-to-temp + fsync + rename: a crash at any point leaves either the
    previous checkpoint or the new one, never a torn file.  The fault
    hooks fire with the checkpoint's batch index (``ckpt-tear`` before the
    rename, ``ckpt-kill`` after).
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / CHECKPOINT_FILENAME
    tmp = run_dir / f"{CHECKPOINT_FILENAME}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(checkpoint.as_dict(), handle, indent=2)
        handle.flush()
        os.fsync(handle.fileno())
    checkpoint_fault("ckpt-tear", checkpoint.batch_index)
    os.replace(tmp, path)
    checkpoint_fault("ckpt-kill", checkpoint.batch_index)
    return path


def load_checkpoint(run_dir: Union[str, Path]) -> SearchCheckpoint:
    """Load and validate ``<run_dir>/checkpoint.json``."""
    path = checkpoint_path(run_dir)
    if not path.exists():
        raise CheckpointError(f"no checkpoint found at {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}")
    return SearchCheckpoint.from_dict(payload)


def has_checkpoint(run_dir: Union[str, Path]) -> bool:
    """True if ``run_dir`` holds a checkpoint file."""
    return checkpoint_path(run_dir).exists()


# -- schema validation ------------------------------------------------------
def validate_checkpoint(payload: Any) -> List[str]:
    """Validate a parsed checkpoint payload; returns problems (empty = ok)."""
    if not isinstance(payload, dict):
        return ["checkpoint payload is not a JSON object"]
    problems: List[str] = []
    for name in CHECKPOINT_FIELDS:
        if name not in payload:
            problems.append(f"missing field {name!r}")
    if problems:
        return problems
    if payload["schema"] != CHECKPOINT_SCHEMA_VERSION:
        problems.append(f"schema {payload['schema']!r} != "
                        f"{CHECKPOINT_SCHEMA_VERSION}")
    if not isinstance(payload["config"], dict):
        problems.append("'config' must be an object")
    for name in ("batch_size", "total_trials", "batch_index"):
        value = payload[name]
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{name!r} must be an integer, got {value!r}")
    if isinstance(payload.get("batch_size"), int) and \
            payload["batch_size"] < 1:
        problems.append("'batch_size' must be >= 1")
    trials = payload["trials"]
    if not isinstance(trials, list):
        problems.append("'trials' must be a list")
    else:
        for index, trial in enumerate(trials):
            if not isinstance(trial, dict):
                problems.append(f"trial {index}: not a JSON object")
                continue
            for name in ("index", "genome", "score"):
                if name not in trial:
                    problems.append(
                        f"trial {index}: missing field {name!r}")
    optimizer = payload["optimizer"]
    if not isinstance(optimizer, dict):
        problems.append("'optimizer' must be an object")
    else:
        for name in OPTIMIZER_STATE_FIELDS:
            if name not in optimizer:
                problems.append(f"optimizer state missing field {name!r}")
        rng_state = optimizer.get("rng_state")
        if rng_state is not None and (
                not isinstance(rng_state, dict)
                or "bit_generator" not in rng_state):
            problems.append(
                "optimizer 'rng_state' must be a bit-generator state "
                "object with a 'bit_generator' field")
    spec = payload.get("dataset_spec")
    if spec is not None and not isinstance(spec, dict):
        problems.append("'dataset_spec' must be an object or null")
    return problems


def validate_checkpoint_file(path: Union[str, Path]) -> List[str]:
    """Validate a checkpoint file (run directory or direct path)."""
    resolved = checkpoint_path(path)
    if not resolved.exists():
        return [f"{resolved}: no checkpoint found"]
    try:
        payload = json.loads(resolved.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{resolved}: unreadable ({exc})"]
    return [f"{resolved}: {p}" for p in validate_checkpoint(payload)]
