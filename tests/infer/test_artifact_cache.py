"""Content-hash artifact cache: hits, staleness eviction, LRU bound."""

import threading

import numpy as np
import pytest

from repro.infer import build_artifact, save_artifact
from repro.infer.artifact import (ArtifactCache, default_artifact_cache,
                                  load_artifact_cached)
from repro.space import MixedPrecisionGenome

from .conftest import make_quantized_model


@pytest.fixture(scope="module")
def artifact_file(c10_space, infer_dataset, tmp_path_factory):
    model = make_quantized_model(c10_space, c10_space.seed_policy(8),
                                 infer_dataset, float_epochs=0,
                                 qaft_epochs=0)
    genome = MixedPrecisionGenome(c10_space.seed_arch(),
                                  c10_space.seed_policy(8))
    artifact = build_artifact(model, genome, num_classes=10,
                              image_size=infer_dataset.x_train.shape[1])
    path = tmp_path_factory.mktemp("cache") / "model.bomp"
    return save_artifact(artifact, path)


@pytest.fixture(scope="module")
def artifact_file_4bit(c10_space, infer_dataset, tmp_path_factory):
    model = make_quantized_model(c10_space, c10_space.seed_policy(4),
                                 infer_dataset, float_epochs=0,
                                 qaft_epochs=0)
    genome = MixedPrecisionGenome(c10_space.seed_arch(),
                                  c10_space.seed_policy(4))
    artifact = build_artifact(model, genome, num_classes=10,
                              image_size=infer_dataset.x_train.shape[1])
    path = tmp_path_factory.mktemp("cache4") / "model4.bomp"
    return save_artifact(artifact, path)


class TestCacheHits:
    def test_second_load_reuses_program(self, artifact_file):
        cache = ArtifactCache()
        first = cache.load(artifact_file)
        second = cache.load(artifact_file)
        assert first.program is second.program
        assert first.artifact is second.artifact
        assert cache.hits == 1 and cache.misses == 1

    def test_same_bytes_other_path_hits(self, artifact_file, tmp_path):
        copy = tmp_path / "elsewhere.bomp"
        copy.write_bytes(artifact_file.read_bytes())
        cache = ArtifactCache()
        assert cache.load(artifact_file).program \
            is cache.load(copy).program
        assert cache.hits == 1

    def test_cached_program_still_correct(self, artifact_file,
                                          infer_dataset):
        cache = ArtifactCache()
        entry = cache.load(artifact_file)
        x = infer_dataset.x_train[:8]
        expected = entry.artifact.compile(name="fresh").run(
            x, batch_size=8)
        again = cache.load(artifact_file)
        assert np.array_equal(again.program.run(x, batch_size=8),
                              expected)


class TestStaleness:
    def test_changed_file_drops_stale_entry(self, artifact_file,
                                            artifact_file_4bit,
                                            tmp_path):
        target = tmp_path / "model.bomp"
        target.write_bytes(artifact_file.read_bytes())
        cache = ArtifactCache()
        old = cache.load(target)
        target.write_bytes(artifact_file_4bit.read_bytes())
        new = cache.load(target)
        assert new.digest != old.digest
        assert cache.misses == 2
        # the stale entry is gone, not merely demoted
        assert len(cache) == 1


class TestBounds:
    def test_lru_evicts_oldest(self, artifact_file, artifact_file_4bit,
                               tmp_path):
        cache = ArtifactCache(capacity=1)
        cache.load(artifact_file)
        cache.load(artifact_file_4bit)
        assert len(cache) == 1
        cache.load(artifact_file)               # evicted -> miss again
        assert cache.misses == 3 and cache.hits == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ArtifactCache(capacity=0)

    def test_concurrent_loads_share_one_program(self, artifact_file):
        cache = ArtifactCache()
        seen = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            seen.append(cache.load(artifact_file))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) == 1
        # losers of a compile race are discarded: later loads all serve
        # the single cached entry
        assert cache.load(artifact_file).program \
            is cache.load(artifact_file).program


class TestDefaultCache:
    def test_module_level_helper_uses_shared_cache(self, artifact_file):
        shared = default_artifact_cache()
        shared.clear()
        before = shared.misses
        entry = load_artifact_cached(artifact_file)
        again = load_artifact_cached(artifact_file)
        assert entry.program is again.program
        assert shared.misses == before + 1
