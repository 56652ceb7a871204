"""Shared fixture: one traced unit-scale search reused by the obs tests."""

import pytest

from repro.data import make_synthetic_dataset
from repro.nas import BOMPNAS, SearchConfig, get_mode
from repro.obs.trace import RunTracer


@pytest.fixture(scope="session")
def traced_run(tmp_path_factory, unit_scale):
    """(run_dir, SearchResult) of a traced serial unit-scale search.

    ``batch_size=1`` makes the BO loop sequential, so the GP fits after
    ``n_initial_random`` real observations and the trace contains GP
    diagnostics (marginal likelihood, acquisition, residuals).
    """
    run_dir = tmp_path_factory.mktemp("obs") / "run"
    dataset = make_synthetic_dataset(
        "tiny-obs", num_classes=10, n_train=unit_scale.n_train,
        n_test=unit_scale.n_test, image_size=unit_scale.image_size, seed=5)
    config = SearchConfig(dataset="cifar10", mode=get_mode("mp_qaft"),
                          scale=unit_scale, seed=0)
    with RunTracer(run_dir) as tracer:
        result = BOMPNAS(config, dataset).run(
            final_training=False, workers=1, batch_size=1, tracer=tracer)
    return run_dir, result
