"""Search configuration: modes, scale presets and the run recipe.

**Modes** map one-to-one onto the paper's experiments:

- ``mp_qaft``   — BOMP-NAS proper: MP policy searched, QAFT in the loop
  (Figs. 2/4, Tables II-IV).
- ``mp_ptq``    — MP policy searched, PTQ only (Fig. 6 ablation).
- ``fixed8_ptq``— architecture-only search, homogeneous 8-bit PTQ
  (Fig. 8 / Table IV ablation).
- ``fixed4_qaft``— architecture-only search, homogeneous 4-bit QAFT
  (Fig. 7 ablation).
- ``fp_nas``    — the post-NAS-quantization baseline: no quantization in
  the loop at all; networks are homogeneously quantized to 8-bit after the
  search (Section IV "baseline").

**Scale presets** shrink the protocol so it runs on CPU-minutes instead of
GPU-hours while keeping every pipeline stage intact.  ``paper`` is the full
protocol (100 trials, 20 early epochs + 1 QAFT, 200 + 5 final).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..bo.acquisition import ACQUISITIONS
from ..bo.kernels import KERNELS
from ..bo.scalarization import ScalarizationConfig
from ..env import EnvVarError
from ..quant.observers import OBSERVERS


@dataclass(frozen=True)
class SearchMode:
    """What is searched and how candidates are evaluated."""

    name: str
    search_policy: bool          # MP policy part of the genome?
    quantize_in_loop: bool       # quantize candidates before evaluation?
    qaft_in_loop: bool           # fine-tune quantization-aware in the loop?
    fixed_bits: Optional[int]    # homogeneous bitwidth when not searching MP
    description: str = ""

    def __post_init__(self) -> None:
        if self.search_policy and self.fixed_bits is not None:
            raise ValueError("cannot both search policy and fix bits")
        if not self.search_policy and self.fixed_bits is None:
            raise ValueError("non-MP modes need fixed_bits")
        if self.qaft_in_loop and not self.quantize_in_loop:
            raise ValueError("QAFT in loop requires quantization in loop")


SEARCH_MODES: Dict[str, SearchMode] = {
    "mp_qaft": SearchMode(
        "mp_qaft", search_policy=True, quantize_in_loop=True,
        qaft_in_loop=True, fixed_bits=None,
        description="BOMP-NAS: MP QAFT-aware NAS"),
    "mp_ptq": SearchMode(
        "mp_ptq", search_policy=True, quantize_in_loop=True,
        qaft_in_loop=False, fixed_bits=None,
        description="MP PTQ-aware NAS (ablation)"),
    "fixed8_ptq": SearchMode(
        "fixed8_ptq", search_policy=False, quantize_in_loop=True,
        qaft_in_loop=False, fixed_bits=8,
        description="8-bit PTQ-aware NAS (ablation)"),
    "fixed4_qaft": SearchMode(
        "fixed4_qaft", search_policy=False, quantize_in_loop=True,
        qaft_in_loop=True, fixed_bits=4,
        description="4-bit QAFT-aware NAS (ablation)"),
    "fp_nas": SearchMode(
        "fp_nas", search_policy=False, quantize_in_loop=False,
        qaft_in_loop=False, fixed_bits=8,
        description="post-NAS quantization baseline (NAS-then-quantize)"),
}


def get_mode(name: str) -> SearchMode:
    if name not in SEARCH_MODES:
        raise ValueError(
            f"unknown mode {name!r}; choices: {sorted(SEARCH_MODES)}")
    return SEARCH_MODES[name]


@dataclass(frozen=True)
class ScalePreset:
    """Protocol scale: trials, epochs, data volume, image size."""

    name: str
    trials: int
    early_epochs: int
    qaft_epochs: int
    final_epochs: int
    final_qaft_epochs: int
    n_train: int
    n_test: int
    image_size: int
    batch_size: int
    n_initial_random: int

    def __post_init__(self) -> None:
        if min(self.trials, self.early_epochs, self.final_epochs,
               self.n_train, self.n_test, self.image_size,
               self.batch_size, self.n_initial_random) <= 0:
            raise ValueError("all scale parameters must be positive")
        if self.qaft_epochs < 0 or self.final_qaft_epochs < 0:
            raise ValueError("QAFT epoch counts must be non-negative")


SCALE_PRESETS: Dict[str, ScalePreset] = {
    # tiny — unit/integration tests
    "unit": ScalePreset("unit", trials=4, early_epochs=1, qaft_epochs=1,
                        final_epochs=1, final_qaft_epochs=1, n_train=96,
                        n_test=48, image_size=8, batch_size=32,
                        n_initial_random=2),
    # default for the benchmark harness: minutes per search on CPU
    "smoke": ScalePreset("smoke", trials=14, early_epochs=4, qaft_epochs=1,
                         final_epochs=7, final_qaft_epochs=1, n_train=768,
                         n_test=300, image_size=12, batch_size=16,
                         n_initial_random=4),
    # larger sweep for overnight CPU runs
    "medium": ScalePreset("medium", trials=40, early_epochs=8, qaft_epochs=1,
                          final_epochs=40, final_qaft_epochs=2, n_train=1500,
                          n_test=500, image_size=16, batch_size=64,
                          n_initial_random=5),
    # the paper's protocol (Section III-A)
    "paper": ScalePreset("paper", trials=100, early_epochs=20, qaft_epochs=1,
                         final_epochs=200, final_qaft_epochs=5,
                         n_train=50000, n_test=10000, image_size=32,
                         batch_size=128, n_initial_random=5),
}


def get_scale(name: Optional[str] = None) -> ScalePreset:
    """Scale preset by name, defaulting to the ``BOMP_SCALE`` env var.

    An unknown ``name`` raises ``ValueError``; an unknown ``BOMP_SCALE``
    raises :class:`~repro.env.EnvVarError` naming the variable.
    """
    if name is None:
        value = os.environ.get("BOMP_SCALE", "smoke")
        if value not in SCALE_PRESETS:
            raise EnvVarError(f"BOMP_SCALE={value!r}: expected one of "
                              f"{', '.join(sorted(SCALE_PRESETS))}")
        return SCALE_PRESETS[value]
    if name not in SCALE_PRESETS:
        raise ValueError(
            f"unknown scale {name!r}; choices: {sorted(SCALE_PRESETS)}")
    return SCALE_PRESETS[name]


#: peak learning rate of early and final training (Adam, cosine decay)
LEARNING_RATE = 0.01

#: constant learning rate of quantization-aware fine-tuning (SGD)
QAFT_LEARNING_RATE = 0.002


@dataclass(frozen=True)
class SearchConfig:
    """Everything a BOMP-NAS run needs besides the dataset itself."""

    dataset: str = "cifar10"
    mode: SearchMode = SEARCH_MODES["mp_qaft"]
    scale: ScalePreset = SCALE_PRESETS["smoke"]
    scalarization: ScalarizationConfig = field(
        default_factory=ScalarizationConfig)
    seed: int = 0
    policies_per_trial: int = 1  # paper future-work extension when > 1
    kernel: str = "matern52"
    acquisition: str = "ucb"
    observer: str = "minmax"

    def __post_init__(self) -> None:
        if self.dataset not in ("cifar10", "cifar100"):
            raise ValueError(f"unknown dataset {self.dataset!r}")
        for field_name, choices in (("kernel", KERNELS),
                                    ("acquisition", ACQUISITIONS),
                                    ("observer", OBSERVERS)):
            if getattr(self, field_name) not in choices:
                raise ValueError(f"unknown {field_name} "
                                 f"{getattr(self, field_name)!r}")
        if self.policies_per_trial < 1:
            raise ValueError("policies_per_trial must be >= 1")
        if self.policies_per_trial > 1 and not self.mode.search_policy:
            raise ValueError(
                "policies_per_trial > 1 requires an MP search mode")

    def describe(self) -> str:
        return (f"{self.mode.name} on {self.dataset} "
                f"[{self.scale.name}: {self.scale.trials} trials, "
                f"{self.scale.early_epochs}+{self.scale.qaft_epochs} epochs, "
                f"ref_acc={self.scalarization.ref_accuracy}, "
                f"ref_size={self.scalarization.ref_model_size}]")
