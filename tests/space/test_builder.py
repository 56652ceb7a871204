"""Tests for genome -> model construction."""

import numpy as np
import pytest

from repro.nn import Conv2D, Dense, DepthwiseConv2D, InvertedBottleneck
from repro.quant import quantizable_layers
from repro.space import (ArchGenome, BlockGenes, SearchSpace, build_model,
                         count_macs, quantization_slot_names, scaled_width,
                         stem_channels)


def genome_with_reps(c10_space, reps):
    """Seed genome with per-block repetitions overridden."""
    seed = c10_space.seed_arch()
    blocks = []
    for genes, n in zip(seed.blocks, reps):
        blocks.append(BlockGenes(genes.kernel, genes.width_multiplier,
                                 genes.expansion, n))
    return ArchGenome(blocks=tuple(blocks), conv2_filters=seed.conv2_filters)


class TestScaledWidth:
    def test_rounding(self):
        assert scaled_width(16, 0.1) == 2
        assert scaled_width(24, 0.1) == 2
        assert scaled_width(320, 0.3) == 96

    def test_floor_of_one(self):
        assert scaled_width(16, 0.01) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            scaled_width(0, 0.1)
        with pytest.raises(ValueError):
            scaled_width(16, 0.0)


class TestBuildModel:
    def test_seed_forward_shape(self, c10_space, rng):
        model = build_model(c10_space.seed_arch(), 10, rng=rng)
        out = model.forward(np.zeros((2, 16, 16, 3), dtype=np.float32))
        assert out.shape == (2, 10)

    def test_seed_has_23_quantizable_layers(self, c10_space, rng):
        model = build_model(c10_space.seed_arch(), 10, rng=rng)
        assert len(quantizable_layers(model)) == 23

    def test_seed_is_one_chain_from_stem_to_classifier(self, c10_space,
                                                       rng):
        model = build_model(c10_space.seed_arch(), 10, rng=rng)
        kinds = [type(layer).__name__ for layer in model.layers]
        assert kinds == (["ConvBNReLU"] + ["InvertedBottleneck"] * 7
                         + ["ConvBNReLU", "GlobalAvgPool2D", "Dense"])
        # the quantizable layers meet the slots in the slot list's order
        slots = [layer.quant_slot for layer in quantizable_layers(model)]
        assert slots == quantization_slot_names()

    def test_seed_has_22_convolutions_and_one_dense(self, c10_space, rng):
        model = build_model(c10_space.seed_arch(), 10, rng=rng)
        layers = quantizable_layers(model)
        convs = [layer for layer in layers
                 if isinstance(layer, (Conv2D, DepthwiseConv2D))]
        dense = [layer for layer in layers if isinstance(layer, Dense)]
        assert len(convs) == 22
        assert dense == [model.layers[-1]]

    @pytest.mark.parametrize("dataset", ["cifar10", "cifar100"])
    def test_every_repeat_after_the_first_is_residual(self, dataset, rng):
        space = SearchSpace(dataset)
        for _ in range(4):
            model = build_model(space.random_arch(rng), 10, rng=rng)
            for block in model.layers:
                if not isinstance(block, InvertedBottleneck):
                    continue
                assert block.use_residual == (
                    block.stride == 1
                    and block.in_channels == block.out_channels)
                if not block.name.endswith("_r0"):
                    assert block.use_residual, block.name

    def test_all_layers_tagged(self, c10_space, rng):
        model = build_model(c10_space.random_arch(rng), 10, rng=rng)
        for layer in quantizable_layers(model):
            assert getattr(layer, "quant_slot", None) is not None

    def test_repetitions_share_slots(self, c10_space, rng):
        genome = genome_with_reps(c10_space, [1, 3, 1, 1, 1, 1, 1])
        model = build_model(genome, 10, rng=rng)
        ib2_layers = [l for l in quantizable_layers(model)
                      if l.quant_slot and l.quant_slot.startswith("ib2.")]
        assert len(ib2_layers) == 9  # 3 reps x (expand, dw, project)
        slots = {l.quant_slot for l in ib2_layers}
        assert slots == {"ib2.expand", "ib2.dw", "ib2.project"}

    def test_zero_repetition_block_absent(self, c10_space, rng):
        genome = genome_with_reps(c10_space, [1, 0, 0, 0, 0, 0, 1])
        model = build_model(genome, 10, rng=rng)
        slots = {l.quant_slot for l in quantizable_layers(model)}
        assert not any(s.startswith(("ib2.", "ib3.")) for s in slots)
        assert any(s.startswith("ib7.") for s in slots)

    def test_two_stride2_reductions(self, c10_space, rng):
        model = build_model(c10_space.seed_arch(), 10, rng=rng)
        strides = [block.stride for block in model.layers
                   if isinstance(block, InvertedBottleneck)]
        assert strides.count(2) == 2
        # reductions at blocks 5 and 7 (index 4 and 6 in the bottleneck list)
        assert strides[4] == 2
        assert strides[6] == 2

    def test_stride_deferred_when_block5_absent(self, c10_space, rng):
        genome = genome_with_reps(c10_space, [1, 1, 1, 1, 0, 1, 1])
        model = build_model(genome, 10, rng=rng)
        bottlenecks = [b for b in model.layers
                       if isinstance(b, InvertedBottleneck)]
        strided = [b.name for b in bottlenecks if b.stride == 2]
        assert len(strided) == 2
        assert strided[0].startswith("ib6")  # picked up block 5's stride

    def test_residuals_only_within_repeats(self, c10_space, rng):
        genome = genome_with_reps(c10_space, [1, 2, 1, 1, 1, 1, 1])
        # widen block 2 so its channel count differs from block 1's
        blocks = list(genome.blocks)
        blocks[1] = BlockGenes(blocks[1].kernel, 0.3, blocks[1].expansion,
                               blocks[1].repetitions)
        genome = ArchGenome(blocks=tuple(blocks),
                            conv2_filters=genome.conv2_filters)
        model = build_model(genome, 10, rng=rng)
        reps = [b for b in model.layers if isinstance(b, InvertedBottleneck)
                and b.name.startswith("ib2")]
        assert len(reps) == 2
        assert not reps[0].use_residual  # channel change (2 -> 7)
        assert reps[1].use_residual      # same channels, stride 1

    def test_stem_scales_with_block1_width(self, c10_space):
        tiny = c10_space.seed_arch()
        assert stem_channels(tiny) == max(4, round(32 * 0.1))

    def test_trains_on_tiny_input(self, c10_space, rng, tiny_dataset):
        model = build_model(c10_space.seed_arch(),
                            tiny_dataset.num_classes, rng=rng)
        from repro.nn import SGD, ConstantLR, Trainer
        trainer = Trainer(model, SGD(model.parameters(), ConstantLR(0.01)))
        history = trainer.fit(tiny_dataset.x_train[:32],
                              tiny_dataset.y_train[:32], epochs=1,
                              batch_size=16, rng=rng)
        assert np.isfinite(history.train_loss[0])

    def test_num_classes_validation(self, c10_space, rng):
        with pytest.raises(ValueError):
            build_model(c10_space.seed_arch(), 1, rng=rng)


class TestCountMacs:
    def test_seed_at_32_matches_constant(self, c10_space, rng):
        from repro.nas import SEED_MACS_32
        model = build_model(c10_space.seed_arch(), 10, rng=rng)
        assert count_macs(model, (32, 32)) == SEED_MACS_32

    def test_scales_with_resolution(self, c10_space, rng):
        model = build_model(c10_space.seed_arch(), 10, rng=rng)
        m16 = count_macs(model, (16, 16))
        m32 = count_macs(model, (32, 32))
        assert 3.0 < m32 / m16 < 5.0  # ~4x, modulo rounding of odd sizes

    def test_wider_model_more_macs(self, c10_space, rng):
        seed = c10_space.seed_arch()
        wide_blocks = tuple(
            BlockGenes(g.kernel, 0.3, g.expansion, g.repetitions)
            for g in seed.blocks)
        wide = ArchGenome(blocks=wide_blocks,
                          conv2_filters=seed.conv2_filters)
        narrow = build_model(seed, 10, rng=rng)
        wider = build_model(wide, 10, rng=rng)
        assert count_macs(wider, (16, 16)) > count_macs(narrow, (16, 16))

    def test_invalid_size(self, c10_space, rng):
        model = build_model(c10_space.seed_arch(), 10, rng=rng)
        with pytest.raises(ValueError):
            count_macs(model, (0, 16))
