"""Deployable artifacts: one self-contained file from search to device.

``repro export`` materializes a searched candidate out of a saved run
(a ``SearchResult`` JSON or a resilience checkpoint), re-runs final
training exactly as :func:`repro.nas.final_training.train_final_model`
would — the rng is derived from ``(config seed, trial index)``, so the
artifact is bit-reproducible — and writes a single file::

    BOMPDEPL | version | header JSON | quant container v2 | BN-stats npz

The header carries the genome, class count, input geometry, and the
dataset regeneration spec; the container carries quantized weights,
biases, and activation grids; the npz carries the BatchNorm statistics
and affine parameters (the only trained state the container omits).
``repro infer`` rebuilds the fake-quant reference model from these three
parts with bit-identical logits, compiles the integer program, and
evaluates deployed accuracy — with no access to the original run.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..nn.layers import BatchNorm2D
from ..nn.module import FLOAT, Module
from ..quant.export import export_model, rebuild_into
from .compile import compile_model
from .engine import Program

ARTIFACT_MAGIC = b"BOMPDEPL"
ARTIFACT_VERSION = 1


class ArtifactError(ValueError):
    """An artifact file is malformed or inconsistent with its model."""


def collect_bn_stats(model: Module) -> Dict[str, np.ndarray]:
    """BatchNorm statistics + affine params, keyed by traversal order.

    The quant container stores weights, biases, and activation grids;
    BN running statistics and gamma/beta are the remaining trained state
    a rebuilt model needs.  Keys are positional (``bn0.gamma`` ...)
    because :meth:`Module.modules` traversal order is deterministic for a
    fixed architecture.
    """
    stats: Dict[str, np.ndarray] = {}
    for index, module in enumerate(
            m for m in model.modules() if isinstance(m, BatchNorm2D)):
        stats[f"bn{index}.gamma"] = module.gamma.data
        stats[f"bn{index}.beta"] = module.beta.data
        stats[f"bn{index}.running_mean"] = module.running_mean
        stats[f"bn{index}.running_var"] = module.running_var
    return stats


def restore_bn_stats(model: Module, stats: Dict[str, np.ndarray]) -> None:
    """Inverse of :func:`collect_bn_stats` onto a same-architecture model."""
    norms = [m for m in model.modules() if isinstance(m, BatchNorm2D)]
    expected = 4 * len(norms)
    if len(stats) != expected:
        raise ArtifactError(
            f"model has {len(norms)} BatchNorm layers ({expected} stat "
            f"arrays), artifact has {len(stats)}")
    for index, module in enumerate(norms):
        module.gamma.data = stats[f"bn{index}.gamma"].astype(FLOAT)
        module.beta.data = stats[f"bn{index}.beta"].astype(FLOAT)
        module.running_mean = \
            stats[f"bn{index}.running_mean"].astype(FLOAT)
        module.running_var = stats[f"bn{index}.running_var"].astype(FLOAT)


@dataclass
class DeployableArtifact:
    """Everything needed to rebuild, compile, and evaluate one model."""

    genome: Any                   # MixedPrecisionGenome
    num_classes: int
    image_size: int
    container: bytes              # quant.export container (version 2)
    bn_stats: Dict[str, np.ndarray]
    in_channels: int = 3
    dataset_spec: Optional[Dict[str, Any]] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    def rebuild(self) -> Module:
        """Reconstruct the fake-quant reference model (bit-identical)."""
        from ..space.builder import build_model
        model = build_model(self.genome.arch, self.num_classes,
                            rng=np.random.default_rng(0))
        restore_bn_stats(model, self.bn_stats)
        try:
            rebuild_into(model, self.container)
        except (struct.error, ValueError, IndexError) as exc:
            raise ArtifactError(f"malformed quant container: {exc}") \
                from exc
        model.set_training(False)
        return model

    def compile(self, name: str = "model") -> Program:
        """Rebuild and compile into an integer-only :class:`Program`."""
        return compile_model(self.rebuild(), self.image_size, name=name)

    def test_set(self) -> Tuple[np.ndarray, np.ndarray]:
        """Regenerate the evaluation split from the stored dataset spec."""
        if self.dataset_spec is None:
            raise ArtifactError("artifact records no dataset spec; "
                                "supply evaluation images explicitly")
        from ..data.synthetic import make_synthetic_dataset
        dataset = make_synthetic_dataset(**self.dataset_spec)
        return dataset.x_test, dataset.y_test


def artifact_to_bytes(artifact: DeployableArtifact) -> bytes:
    """Serialize an artifact to the single-file container format."""
    from ..nas.trial import genome_to_dict
    header = {
        "genome": genome_to_dict(artifact.genome),
        "num_classes": artifact.num_classes,
        "image_size": artifact.image_size,
        "in_channels": artifact.in_channels,
        "dataset_spec": artifact.dataset_spec,
        "meta": artifact.meta,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    npz = io.BytesIO()
    np.savez(npz, **artifact.bn_stats)
    npz_bytes = npz.getvalue()
    stream = io.BytesIO()
    stream.write(ARTIFACT_MAGIC)
    stream.write(struct.pack("<I", ARTIFACT_VERSION))
    for blob in (header_bytes, artifact.container, npz_bytes):
        stream.write(struct.pack("<I", len(blob)))
        stream.write(blob)
    return stream.getvalue()


def artifact_from_bytes(data: bytes) -> DeployableArtifact:
    """Inverse of :func:`artifact_to_bytes`.

    Raises :class:`ArtifactError` for any input it cannot parse.
    """
    from ..nas.trial import genome_from_dict
    stream = io.BytesIO(data)
    if stream.read(len(ARTIFACT_MAGIC)) != ARTIFACT_MAGIC:
        raise ArtifactError("not a BOMP deployment artifact")

    def read(length: int) -> bytes:
        chunk = stream.read(length)
        if len(chunk) != length:
            raise ArtifactError("truncated artifact")
        return chunk

    (version,) = struct.unpack("<I", read(4))
    if version != ARTIFACT_VERSION:
        raise ArtifactError(f"unsupported artifact version {version}")
    header_bytes, container, npz = (read(struct.unpack("<I", read(4))[0])
                                    for _ in range(3))
    try:
        with np.load(io.BytesIO(npz)) as archive:
            bn_stats = {key: archive[key] for key in archive.files}
    except Exception as exc:
        # corrupt zip framing, CRCs, flags or npy headers surface as
        # errors from zipfile, zlib, numpy and tokenize alike
        raise ArtifactError(f"malformed BN-stats archive: {exc!r}") \
            from exc
    try:
        header = json.loads(header_bytes.decode())
        return DeployableArtifact(
            genome=genome_from_dict(header["genome"]),
            num_classes=int(header["num_classes"]),
            image_size=int(header["image_size"]),
            in_channels=int(header.get("in_channels", 3)),
            container=container, bn_stats=bn_stats,
            dataset_spec=header.get("dataset_spec"),
            meta=header.get("meta", {}))
    except (ValueError, KeyError, TypeError, AttributeError,
            RecursionError) as exc:
        raise ArtifactError(f"malformed artifact header: {exc!r}") from exc


def save_artifact(artifact: DeployableArtifact,
                  path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_bytes(artifact_to_bytes(artifact))
    return path


def load_artifact(path: Union[str, Path]) -> DeployableArtifact:
    return artifact_from_bytes(Path(path).read_bytes())


# -- content-hash artifact cache -------------------------------------------

@dataclass
class CachedArtifact:
    """One compiled ``.bomp`` entry: the immutable share-everything unit.

    ``program`` is compiled once per *content* and then shared by any
    number of threads: it is frozen, and an executor belongs to one
    thread (:meth:`~repro.infer.engine.Program.executor` keeps one per
    calling thread).
    """

    digest: str
    artifact: DeployableArtifact
    program: Program


class ArtifactCache:
    """In-memory LRU of compiled ``.bomp`` artifacts, keyed by content.

    Rebuilding and compiling an artifact costs ~100× more than reading
    and hashing its bytes, so every load re-reads the file, hashes it
    (SHA-256), and reuses the compiled program when the *content* is
    unchanged — the file may move, be re-exported bit-identically, or be
    loaded under several model names and still hit.  A changed file
    yields a new digest: the stale entry for that path is dropped
    immediately (not merely aged out), so a registry reload after
    re-export can never serve the old weights.

    Thread-safe: the serving registry loads models from concurrent HTTP
    handler threads.  A race on the same digest may compile twice; the
    loser's program is discarded, which wastes work but never shares a
    half-built entry.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CachedArtifact]" = OrderedDict()
        self._path_digest: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def load(self, path: Union[str, Path],
             name: Optional[str] = None) -> CachedArtifact:
        """The cached (artifact, compiled program) for ``path``'s content."""
        from ..obs.trace import get_recorder
        path = Path(path)
        key = str(path.resolve())
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        with self._lock:
            stale = self._path_digest.get(key)
            if stale is not None and stale != digest:
                self._entries.pop(stale, None)     # file changed on disk
            self._path_digest[key] = digest
            entry = self._entries.get(digest)
            if entry is not None:
                self._entries.move_to_end(digest)
                self.hits += 1
        recorder = get_recorder()
        if entry is not None:
            if recorder.enabled:
                recorder.counter("infer.artifact_cache.hits")
            return entry
        artifact = artifact_from_bytes(data)
        program = artifact.compile(name=name or path.stem)
        entry = CachedArtifact(digest=digest, artifact=artifact,
                               program=program)
        with self._lock:
            self.misses += 1
            self._entries[digest] = entry
            self._entries.move_to_end(digest)
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                for k, d in list(self._path_digest.items()):
                    if d == evicted:
                        del self._path_digest[k]
        if recorder.enabled:
            recorder.counter("infer.artifact_cache.misses")
        return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._path_digest.clear()


#: the process-wide default cache (``repro infer`` loops, serve registry)
_DEFAULT_CACHE = ArtifactCache()


def default_artifact_cache() -> ArtifactCache:
    return _DEFAULT_CACHE


def load_artifact_cached(path: Union[str, Path],
                         name: Optional[str] = None) -> CachedArtifact:
    """Load + compile through the process-wide :class:`ArtifactCache`."""
    return _DEFAULT_CACHE.load(path, name=name)


def build_artifact(model: Module, genome: Any, num_classes: int,
                   image_size: int, in_channels: int = 3,
                   dataset_spec: Optional[Dict[str, Any]] = None,
                   meta: Optional[Dict[str, Any]] = None
                   ) -> DeployableArtifact:
    """Package a quantized model + its genome into an artifact."""
    return DeployableArtifact(
        genome=genome, num_classes=num_classes, image_size=image_size,
        in_channels=in_channels, container=export_model(model),
        bn_stats=collect_bn_stats(model), dataset_spec=dataset_spec,
        meta=dict(meta or {}))


# -- materialization from a saved run -------------------------------------

def _load_run(source: Union[str, Path]):
    """``(config, dataset, trials)`` from a result JSON or checkpoint.

    ``source`` may be a ``SearchResult`` JSON, a ``checkpoint.json``, or a
    run directory containing either (``result.json`` preferred).
    """
    from ..nas.results import ResultError, SearchResult, config_from_dict
    from ..nas.trial import TrialResult
    path = Path(source)
    if path.is_dir():
        for candidate in ("result.json", "checkpoint.json"):
            if (path / candidate).exists():
                path = path / candidate
                break
        else:
            raise ArtifactError(
                f"{path}: no result.json or checkpoint.json found")
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from exc
    if isinstance(payload, dict) and "optimizer" in payload:
        # a resilience checkpoint
        from ..data.synthetic import make_synthetic_dataset
        from ..resilience.checkpoint import CheckpointError, SearchCheckpoint
        try:
            checkpoint = SearchCheckpoint.from_dict(payload)
            if checkpoint.dataset_spec is None:
                raise CheckpointError("checkpoint records no dataset spec")
            config = config_from_dict(checkpoint.config)
            dataset = make_synthetic_dataset(**checkpoint.dataset_spec)
            trials = [TrialResult.from_dict(t) for t in checkpoint.trials]
        except CheckpointError as exc:
            raise ArtifactError(f"{path}: {exc}") from exc
        except (AttributeError, IndexError, KeyError, TypeError,
                ValueError) as exc:
            raise ArtifactError(f"{path}: invalid checkpoint "
                                f"({type(exc).__name__}: {exc})") from exc
    else:                               # a SearchResult JSON
        from ..data.synthetic import load_dataset
        try:
            result = SearchResult.from_dict(payload)
        except ResultError as exc:
            raise ArtifactError(f"{path}: {exc}") from exc
        config = result.config
        scale = config.scale
        dataset = load_dataset(config.dataset, n_train=scale.n_train,
                               n_test=scale.n_test,
                               image_size=scale.image_size,
                               seed=config.seed)
        trials = result.trials
    if not trials:
        raise ArtifactError(f"{path}: run contains no trials")
    return config, dataset, trials


def _pick_trial(trials, trial_index: Optional[int]):
    if trial_index is None:
        return max(trials, key=lambda t: t.score)
    for trial in trials:
        if trial.index == trial_index:
            return trial
    raise ArtifactError(
        f"no trial with index {trial_index} "
        f"(run has {[t.index for t in trials]})")


def export_run(source: Union[str, Path],
               trial_index: Optional[int] = None,
               force_qaft: Optional[bool] = None):
    """Materialize a deployable artifact from a saved run.

    Re-runs final training of the selected trial (default: highest
    score) on the regenerated dataset — the deterministic
    ``(seed, trial index)`` rng makes this reproduce the original
    final-trained weights exactly.  Returns
    ``(artifact, FinalModelResult)``.
    """
    from ..nas.final_training import materialize_final_model
    from ..nas.search import BOMPNAS
    config, dataset, trials = _load_run(source)
    trial = _pick_trial(trials, trial_index)
    nas = BOMPNAS(config, dataset)
    model, final = materialize_final_model(nas, trial,
                                           force_qaft=force_qaft)
    meta = {
        "trial_index": trial.index,
        "mode": config.mode.name,
        "seed": config.seed,
        "accuracy": final.accuracy,
        "fp_accuracy": final.fp_accuracy,
        "size_kb": final.size_kb,
    }
    if final.deployed_accuracy is not None:
        meta["deployed_accuracy"] = final.deployed_accuracy
    artifact = build_artifact(
        model, trial.genome, dataset.num_classes,
        image_size=dataset.image_shape[0],
        in_channels=dataset.image_shape[2],
        dataset_spec=dataset.spec, meta=meta)
    return artifact, final
