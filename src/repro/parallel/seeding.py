"""Deterministic per-trial seeding.

Every trial draws all of its randomness (weight init, batch shuffling,
QAFT, policy mutations for ``policies_per_trial``) from an rng seeded by
``trial_seed(run_seed, trial_index)``.  Because the seed depends only on
the run seed and the trial's index — not on which worker evaluates it or
in which order trials complete — a parallel search reproduces a serial
one bit for bit.

The namespace constant keeps trial streams disjoint from the other
derived streams in the codebase (final training seeds with
``[config.seed, trial_index]`` directly).
"""

from __future__ import annotations

import numpy as np

#: namespace separating in-search trial streams from other derived streams
TRIAL_SEED_NAMESPACE = 0x7B0539

_UINT64_MASK = (1 << 64) - 1


def trial_seed(run_seed: int, trial_index: int) -> int:
    """A stable 64-bit seed for trial ``trial_index`` of run ``run_seed``."""
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    sequence = np.random.SeedSequence(
        [TRIAL_SEED_NAMESPACE, int(run_seed) & _UINT64_MASK,
         int(trial_index)])
    return int(sequence.generate_state(1, dtype=np.uint64)[0])
