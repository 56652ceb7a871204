"""Parity across the search space, not just the seed architecture.

Each example draws a genome from ``SearchSpace`` (either CIFAR menu,
with its random {4..8}-bit policy), builds, calibrates and compiles it
at 8 px with no training, and requires:

- the program to hold only the stage kinds the engine lowers —
  ``conv``, ``dw``, ``gap`` and ``dense``;
- ``Program.run`` at an odd batch size to equal
  ``run_batch_reference`` bit for bit, so prefix views and every
  drawn kernel, width and repetition count go through the arena;
- every ``check_parity`` segment to stay within its LSB budget.

Top-1 agreement is not asserted: an untrained network has no logit
margin, so legitimate sub-LSB drift may flip its argmax.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infer import check_parity, compile_model
from repro.quant import apply_policy, calibrate
from repro.space import SearchSpace, build_model

IMAGE_SIZE = 8
IMAGES = 11
BATCH = 5        # odd: 11 images run as 5 + 5 + a 1-image tail
CLASSES = {"cifar10": 10, "cifar100": 100}
STAGE_KINDS = {"conv", "dw", "gap", "dense"}


@given(dataset=st.sampled_from(sorted(CLASSES)),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=12, deadline=None)
def test_drawn_genome_is_exact_and_within_budget(dataset, seed):
    rng = np.random.default_rng(seed)
    genome = SearchSpace(dataset).random_genome(rng)
    model = build_model(genome.arch, CLASSES[dataset], rng=rng)
    apply_policy(model, genome.policy)
    x = rng.normal(size=(IMAGES, IMAGE_SIZE, IMAGE_SIZE, 3)).astype(
        np.float32)
    calibrate(model, x)
    model.set_training(False)
    program = compile_model(model, IMAGE_SIZE, name="drawn")
    assert {stage.kind for stage in program.stages} <= STAGE_KINDS

    reference = np.concatenate([
        program.run_batch_reference(x[s:s + BATCH])
        for s in range(0, IMAGES, BATCH)])
    np.testing.assert_array_equal(program.run(x, batch_size=BATCH),
                                  reference, err_msg=genome.arch.describe())

    report = check_parity(model, program, x)
    for stage in report.stages:
        assert stage.max_abs_diff <= stage.tolerance, (
            f"{genome.arch.describe()}\n{report.format()}")
