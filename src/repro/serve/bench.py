"""A deterministic ``.bomp`` artifact for serving tests and benchmarks.

``make_bench_artifact`` builds a servable model without running a
search, so the serving tests, ``scripts/serve_smoke.py``,
``examples/serve_client.py`` and the repository benchmark
(``python3 perfbench/run.py``) all start from the same few-second
artifact.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def make_bench_artifact(path: Path, dataset: str = "cifar10",
                        bits: int = 8, image_size: int = 16,
                        seed: int = 7,
                        calibration_images: int = 64) -> Path:
    """Write a deterministic ``.bomp`` artifact without running a search.

    The seed architecture, homogeneously quantized at ``bits`` and
    PTQ-calibrated on synthetic images.  Weights are untrained —
    throughput and batching behavior do not care — which keeps the
    serving tests and the CI smoke test a few seconds instead of a full
    search + final training.
    """
    from ..data.synthetic import load_dataset
    from ..infer.artifact import build_artifact, save_artifact
    from ..quant.apply import apply_policy, calibrate
    from ..space.builder import build_model
    from ..space.genome import MixedPrecisionGenome
    from ..space.space import SearchSpace

    data = load_dataset(dataset, n_train=max(calibration_images, 1),
                        n_test=64, image_size=image_size, seed=seed)
    space = SearchSpace(dataset)
    num_classes = {"cifar10": 10, "cifar100": 100}[dataset]
    model = build_model(space.seed_arch(), num_classes,
                        rng=np.random.default_rng(seed))
    policy = space.seed_policy(bits)
    apply_policy(model, policy)
    calibrate(model, data.x_train[:calibration_images])
    model.set_training(False)
    genome = MixedPrecisionGenome(space.seed_arch(), policy)
    artifact = build_artifact(
        model, genome, num_classes, image_size=image_size,
        in_channels=int(data.x_train.shape[3]), dataset_spec=data.spec,
        meta={"bench": True, "bits": bits, "seed": seed})
    return save_artifact(artifact, path)
