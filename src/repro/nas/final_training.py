"""Final training of Pareto-optimal candidates (step 7 of Fig. 1).

Pareto-optimal genomes are re-trained from scratch for the full epoch
budget (200 epochs in the paper), with data augmentation, then quantized
according to their policy and — in QAFT modes — fine-tuned
quantization-aware for a few epochs (5 in the paper).  PTQ search modes
apply no QAFT in final training either, matching Section III ("In the
final training, also no QAFT is applied in this case").

``force_qaft=True`` re-finalizes PTQ-searched models *with* QAFT — the
"MP PTQ-NAS (QAFT)" variant of Fig. 5.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..data.datasets import shift_flip_augment
from ..nn.losses import evaluate_classifier

from ..nn.trainer import Trainer
from ..quant.apply import apply_policy, calibrate
from ..quant.qaft import quantization_aware_finetune
from ..quant.size import model_size_bits
from ..space.builder import build_model, count_macs
from .config import QAFT_LEARNING_RATE
from .trial import FinalModelResult, TrialResult

if TYPE_CHECKING:  # pragma: no cover
    from .search import BOMPNAS


def _deployed_accuracy(model, dataset, trial_index: int) -> Optional[float]:
    """Integer-engine test accuracy, or ``None`` if uncompilable.

    Compiling can fail legitimately — e.g. weight bits above the engine's
    8-bit ceiling, or a layer left unquantized — in which case the result
    simply records no deployed figure rather than failing final training.
    """
    from ..infer.compile import CompileError, compile_model
    try:
        program = compile_model(model, dataset.image_shape[0],
                                name=f"trial{trial_index}")
    except CompileError:
        return None
    return program.accuracy(dataset.x_test, dataset.y_test)


def materialize_final_model(nas: "BOMPNAS", trial: TrialResult,
                            force_qaft: Optional[bool] = None
                            ) -> Tuple["object", FinalModelResult]:
    """Fully train one Pareto-optimal candidate; return (model, result).

    The rng is derived deterministically from (config seed, trial index),
    so re-finalizing the same trial with a different deployment treatment
    (e.g. ``force_qaft``) starts from *identical* full-precision training —
    treatment comparisons like Fig. 5's "MP PTQ-NAS (QAFT)" curve are
    paired, not confounded by training noise.  The same determinism lets
    ``repro export`` re-materialize the exact deployed weights from a
    saved run (see :mod:`repro.infer.artifact`).
    """
    import numpy as np
    config = nas.config
    scale = config.scale
    dataset = nas.dataset
    rng = np.random.default_rng([config.seed, trial.index])
    model = build_model(trial.genome.arch, dataset.num_classes, rng=rng)
    trainer = Trainer(model,
                      nas.make_training_optimizer(model,
                                                  scale.final_epochs),
                      augment=shift_flip_augment())
    trainer.fit(dataset.x_train, dataset.y_train,
                epochs=scale.final_epochs, batch_size=scale.batch_size,
                rng=rng)
    _, fp_accuracy = evaluate_classifier(model, dataset.x_test,
                                         dataset.y_test)

    apply_qaft = (config.mode.qaft_in_loop if force_qaft is None
                  else force_qaft)
    policy = trial.genome.policy
    if not config.mode.quantize_in_loop:
        # post-NAS baseline: homogeneous 8-bit PTQ after the search
        policy = nas.space.seed_policy(config.mode.fixed_bits)
        apply_qaft = False
    apply_policy(model, policy, observer_kind=config.observer)
    calibrate(model, dataset.x_train, batch_size=scale.batch_size)
    qaft_epochs = scale.final_qaft_epochs if apply_qaft else 0
    if qaft_epochs > 0:
        quantization_aware_finetune(
            model, dataset.x_train, dataset.y_train, epochs=qaft_epochs,
            learning_rate=QAFT_LEARNING_RATE,
            batch_size=scale.batch_size, rng=rng)
    _, accuracy = evaluate_classifier(model, dataset.x_test, dataset.y_test)
    size = model_size_bits(model)
    macs = count_macs(model, dataset.image_shape[:2])
    gpu_hours = nas.cost_model.final_training_hours(
        macs, scale.n_train, scale.final_epochs, qaft_epochs)
    deployed = _deployed_accuracy(model, dataset, trial.index)
    result = FinalModelResult(
        trial_index=trial.index, genome=trial.genome,
        accuracy=accuracy, fp_accuracy=fp_accuracy,
        size_bits=size, size_kb=size / (8 * 1024),
        gpu_hours=gpu_hours, candidate_accuracy=trial.accuracy,
        candidate_size_kb=trial.size_kb, deployed_accuracy=deployed)
    return model, result


def train_final_model(nas: "BOMPNAS", trial: TrialResult,
                      force_qaft: Optional[bool] = None) -> FinalModelResult:
    """Fully train one Pareto-optimal candidate and deploy it."""
    _, result = materialize_final_model(nas, trial, force_qaft=force_qaft)
    return result


def train_final_models(nas: "BOMPNAS", trials: List[TrialResult],
                       force_qaft: Optional[bool] = None
                       ) -> List[FinalModelResult]:
    """Finally train every Pareto-optimal candidate of a search."""
    return [train_final_model(nas, trial, force_qaft=force_qaft)
            for trial in trials]
