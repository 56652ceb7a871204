"""The sequential (NAS-then-quantize) baseline, fully staged.

Section III-A defines the baseline as *post-NAS quantization*: first search
for the best full-precision architecture, then separately search the best
quantization policy for that fixed architecture.  The paper's baseline runs
BOMP-NAS with no quantization in the loop and homogeneous 8-bit PTQ at the
end (mode ``fp_nas``); this module additionally implements the full
two-stage pipeline with a second-stage *policy* search, demonstrating the
sub-optimality of decoupling that Section II describes ("the best
architecture in a float32 DNN may not be the best architecture in an int8
DNN").
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from ..bo.scalarization import scalarize
from ..data.datasets import Dataset
from ..nas.config import SearchConfig, get_mode
from ..nas.results import SearchResult
from ..nas.search import BOMPNAS
from ..nn.serialization import load_state_dict, state_dict
from ..quant.apply import remove_quantizers
from ..quant.policy import QuantizationPolicy
from ..space.genome import MixedPrecisionGenome


class SequentialSearch:
    """Two-stage NAS-then-quantize pipeline.

    Stage 1: full-precision architecture search (mode ``fp_nas``).
    Stage 2: random + local policy search for the best architecture, using
    the *already trained* stage-1 network under PTQ (no retraining), which
    is how post-hoc quantization policy searches operate.
    """

    def __init__(self, config: SearchConfig, dataset: Dataset,
                 policy_trials: int = 20) -> None:
        if policy_trials < 1:
            raise ValueError("policy_trials must be >= 1")
        self.config = replace(config, mode=get_mode("fp_nas"))
        self.policy_trials = policy_trials
        self._evaluator = BOMPNAS(self.config, dataset)

    def run(self) -> Tuple[SearchResult,
                           List[Tuple[QuantizationPolicy, float, float]]]:
        """Run both stages.

        Returns the stage-1 search result and the stage-2 policy trials as
        ``(policy, accuracy, size_kb)`` tuples, sorted by Eq. (1) score
        (best first).
        """
        stage1 = self._evaluator.run(final_training=True)
        best_trial = stage1.best_trial()
        policies = self._policy_search(best_trial.genome)
        return stage1, policies

    def _policy_search(self, genome: MixedPrecisionGenome
                       ) -> List[Tuple[QuantizationPolicy, float, float]]:
        """Stage 2: search quantization policies for a fixed architecture.

        Each policy is applied, calibrated and scored by
        :meth:`BOMPNAS.quantize_and_evaluate`, as in the search loop.
        """
        evaluator = self._evaluator
        space = evaluator.space
        rng = evaluator.rng
        model = evaluator.early_train(genome)
        snapshot = state_dict(model)
        results: List[Tuple[QuantizationPolicy, float, float]] = []
        scored: List[float] = []
        best_policy: Optional[QuantizationPolicy] = None
        for trial in range(self.policy_trials):
            if best_policy is not None and rng.random() < 0.5:
                policy = space.mutate_policy(best_policy, rng,
                                             n_mutations=2)
            else:
                policy = space.random_policy(rng)
            remove_quantizers(model)
            load_state_dict(model, snapshot)
            accuracy, size = evaluator.quantize_and_evaluate(model, policy)
            score = scalarize(accuracy, size, self.config.scalarization)
            results.append((policy, accuracy, size / (8 * 1024)))
            scored.append(score)
            if best_policy is None or score >= max(scored):
                best_policy = policy
        order = np.argsort(scored)[::-1]
        return [results[int(i)] for i in order]
