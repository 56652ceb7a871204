"""A search on the production kernels equals one on the reference kernels.

Layer-level oracle tests compare one call at a time; this runs a whole
unit-scale search twice in one process, once as shipped and once with the
frozen reference ``DepthwiseConv2D``, ``BatchNorm2D`` and ``ReLU6`` patched
into the model builder and the reference straight-through mask into the
quantizer, and requires bit-identical trials.  Every candidate has an
expansion-1 first block, so its depthwise conv and the stem's batch norm
read the kxk stem conv's channel-major output: the layout path a layer
test alone can get right while the search still drifts.
"""

import dataclasses

from repro.data import make_synthetic_dataset
from repro.nas import BOMPNAS, SearchConfig, get_mode
from repro.nas.trial import genome_to_dict
from repro.nn import blocks
from repro.quant import apply

from .layer_oracle import (OracleActivationQuantizer, OracleBatchNorm2D,
                           OracleDepthwiseConv2D, OracleReLU6)


def _trials(scale):
    dataset = make_synthetic_dataset(
        "tiny-diff", num_classes=10, n_train=scale.n_train,
        n_test=scale.n_test, image_size=scale.image_size, seed=3)
    config = SearchConfig(dataset="cifar10", mode=get_mode("mp_qaft"),
                          scale=scale, seed=0)
    result = BOMPNAS(config, dataset).run(final_training=False, workers=1)
    return [(genome_to_dict(t.genome), float(t.score).hex(),
             float(t.accuracy).hex(), float(t.fp_accuracy).hex())
            for t in result.trials]


def test_search_matches_reference_kernels(unit_scale, monkeypatch):
    scale = dataclasses.replace(unit_scale, trials=2, n_initial_random=2)
    production = _trials(scale)
    assert len(production) == 2
    assert all(genome["blocks"][0][2] == 1 for genome, *_ in production)

    built = set()

    def counted(oracle):
        class Counted(oracle):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.add(oracle)
        return Counted

    monkeypatch.setattr(blocks, "DepthwiseConv2D",
                        counted(OracleDepthwiseConv2D))
    monkeypatch.setattr(blocks, "BatchNorm2D", counted(OracleBatchNorm2D))
    monkeypatch.setattr(blocks, "ReLU6", counted(OracleReLU6))
    monkeypatch.setattr(apply, "ActivationQuantizer",
                        counted(OracleActivationQuantizer))
    reference = _trials(scale)
    assert built == {OracleDepthwiseConv2D, OracleBatchNorm2D, OracleReLU6,
                     OracleActivationQuantizer}, \
        "a reference class was never instantiated"
    assert production == reference
