"""The model registry: named, compiled ``.bomp`` artifacts, shared safely.

Loading a model is *compile-once, share the immutable program*: the
registry goes through the content-hash
:class:`~repro.infer.artifact.ArtifactCache`, so re-loading the same
file (or the same bytes under a different name) reuses the compiled
:class:`~repro.infer.engine.Program`.  What is shared is strictly
read-only: the program and its stages are frozen, with read-only
arrays.  What is *not* shared are arenas, because an executor belongs
to one thread: each batch worker builds its own
:class:`~repro.infer.engine.ArenaExecutor` (see
:mod:`repro.serve.batcher`), and :meth:`Program.executor` hands every
calling thread its own.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..infer.artifact import (ArtifactCache, DeployableArtifact,
                              default_artifact_cache)
from ..infer.engine import Program
from .queueing import UnknownModel

#: model names become metric-name components (``serve.<model>.latency_s``)
#: and URL path segments, so keep them to one unambiguous token
NAME_PATTERN = re.compile(r"^[A-Za-z0-9_-]{1,64}$")


class RegistryError(ValueError):
    """A model could not be (un)registered."""


@dataclass
class ModelEntry:
    """One served model: the immutable compiled form plus bookkeeping."""

    name: str
    path: str
    digest: str
    artifact: DeployableArtifact
    program: Program
    #: (image_size, image_size, in_channels) — request shape validation
    input_shape: Tuple[int, int, int] = field(init=False)
    num_classes: int = field(init=False)

    def __post_init__(self) -> None:
        self.input_shape = (self.program.image_size,
                            self.program.image_size,
                            self.program.in_channels)
        self.num_classes = self.program.stages[-1].out_shape[0]

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name, "path": self.path,
            "digest": self.digest[:12],
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
            "stages": len(self.program.stages),
            "macs_per_image": self.program.total_macs(),
            "meta": self.artifact.meta,
        }


class ModelRegistry:
    """Name -> :class:`ModelEntry`, backed by the shared artifact cache.

    Thread-safe for the daemon's concurrent load/evict/lookup traffic;
    the heavyweight compile happens outside the registry lock (inside
    the artifact cache), so a slow load never blocks lookups of other
    models.
    """

    def __init__(self, cache: Optional[ArtifactCache] = None) -> None:
        self.cache = cache if cache is not None else default_artifact_cache()
        self._lock = threading.Lock()
        self._models: Dict[str, ModelEntry] = {}

    def load(self, name: str, path: Union[str, Path]) -> ModelEntry:
        """Load (or reload) ``path`` as model ``name``.

        Reloading an unchanged file is nearly free (cache hit on the
        content hash); reloading a re-exported file compiles the new
        content and atomically replaces the entry.
        """
        if not NAME_PATTERN.match(name):
            raise RegistryError(
                f"invalid model name {name!r} (want {NAME_PATTERN.pattern})")
        path = Path(path)
        if not path.is_file():
            raise RegistryError(f"{path}: no such artifact file")
        cached = self.cache.load(path, name=name)
        entry = ModelEntry(name=name, path=str(path), digest=cached.digest,
                           artifact=cached.artifact, program=cached.program)
        with self._lock:
            self._models[name] = entry
        return entry

    def evict(self, name: str) -> ModelEntry:
        with self._lock:
            entry = self._models.pop(name, None)
        if entry is None:
            raise UnknownModel(f"no model named {name!r}")
        return entry

    def get(self, name: str) -> ModelEntry:
        entry = self._models.get(name)
        if entry is None:
            raise UnknownModel(f"no model named {name!r}")
        return entry

    def names(self) -> List[str]:
        return sorted(self._models)

    def entries(self) -> List[ModelEntry]:
        with self._lock:
            return [self._models[name] for name in sorted(self._models)]

    def __contains__(self, name: str) -> bool:
        return name in self._models

    def __len__(self) -> int:
        return len(self._models)
