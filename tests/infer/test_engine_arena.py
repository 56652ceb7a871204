"""Arena-executor tests: bit-identity against the fresh-allocation
reference across policies, stage types and batch shapes (end to end and
stage by stage), the allocation-free steady-state contract and its
observability counters, and one Program shared by many threads."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.infer import compile_model
from repro.infer.engine import BLOCK_ELEMS, ArenaExecutor, Program
from repro.nn.conv import Conv2D, DepthwiseConv2D
from repro.nn.layers import BatchNorm2D, Dense, GlobalAvgPool2D, ReLU6
from repro.nn.network import Sequential
from repro.quant import QuantizationPolicy, apply_policy, calibrate


def _tagged(layer, slot):
    layer.quant_slot = slot
    return layer


@pytest.fixture(scope="module")
def zoo_program():
    """A stage zoo the search space never emits in one network: strided
    same-pad conv, bare depthwise, valid-pad biased conv, strided 1x1
    feeding the pool — at mixed {4..8}-bit weights."""
    rng = np.random.default_rng(21)
    model = Sequential([
        _tagged(Conv2D(3, 8, 3, stride=2, rng=rng, name="c1"), "a"),
        BatchNorm2D(8, name="bn1"),
        ReLU6(name="r1"),
        _tagged(DepthwiseConv2D(8, 3, rng=rng, name="dw"), "b"),
        BatchNorm2D(8, name="bn2"),
        ReLU6(name="r2"),
        _tagged(Conv2D(8, 10, 2, padding="valid", use_bias=True,
                       rng=rng, name="c2"), "c"),
        _tagged(Conv2D(10, 12, 1, stride=2, rng=rng, name="c3"), "d"),
        GlobalAvgPool2D(),
        _tagged(Dense(12, 10, rng=rng, name="fc"), "e"),
    ])
    model.layers[6].bias.data = rng.normal(0.0, 0.5, 10).astype(np.float32)
    apply_policy(model, QuantizationPolicy(
        {"a": 7, "b": 5, "c": 8, "d": 6, "e": 4}))
    calibrate(model, rng.normal(size=(64, 16, 16, 3)).astype(np.float32))
    model.set_training(False)
    return compile_model(model, 16, name="zoo")


def _reference(program, x, batch_size):
    return np.concatenate(
        [program.run_batch_reference(x[s:s + batch_size])
         for s in range(0, x.shape[0], batch_size)])


class TestBitIdentity:
    """Arena execution must be bit-identical to the reference path."""

    @pytest.mark.parametrize("batch_size", [1, 3, 7, 32, 96])
    def test_program8(self, program8, infer_dataset, batch_size):
        x = infer_dataset.x_train[:13 if batch_size < 16 else 256]
        hot = program8.run(x, batch_size=batch_size)
        np.testing.assert_array_equal(hot,
                                      _reference(program8, x, batch_size))

    @pytest.mark.parametrize("batch_size", [5, 64])
    def test_mixed_policy(self, program_mixed, infer_dataset, batch_size):
        x = infer_dataset.x_train[:160]
        np.testing.assert_array_equal(
            program_mixed.run(x, batch_size=batch_size),
            _reference(program_mixed, x, batch_size))

    @pytest.mark.parametrize("batch_size", [1, 4, 11, 64])
    def test_stage_zoo(self, zoo_program, batch_size):
        x = np.random.default_rng(3).normal(
            size=(89, 16, 16, 3)).astype(np.float32)
        np.testing.assert_array_equal(
            zoo_program.run(x, batch_size=batch_size),
            _reference(zoo_program, x, batch_size))

    def test_short_final_batch(self, program8, infer_dataset):
        """256 images at batch 96 -> a 64-image tail on prefix views."""
        x = infer_dataset.x_train
        executor = program8.executor(96)
        hot = program8.run(x, batch_size=96)
        np.testing.assert_array_equal(hot, _reference(program8, x, 96))
        assert program8.executor(96) is executor  # one serves the tail

    def test_residual_coverage(self, program8, program_mixed):
        """The fixtures genuinely exercise the residual-ADD fused path."""
        for program in (program8, program_mixed):
            assert any(stage.residual_from is not None
                       for stage in program.stages)


class TestAllocationFree:
    """Steady-state batches perform zero ndarray allocations."""

    def test_no_allocations_in_steady_state(self, program8, infer_dataset,
                                            monkeypatch):
        x = infer_dataset.x_train[:64]
        executor = program8.executor(32)
        logits = np.empty((32, 10), dtype=np.float32)
        executor.run_batch_into(x[:32], logits)     # warm the view cache
        executor.run_batch_into(x[:17], logits[:17])

        counter = {"n": 0}

        def counting(factory):
            def wrapper(*args, **kwargs):
                counter["n"] += 1
                return factory(*args, **kwargs)
            return wrapper

        for name in ("empty", "zeros", "ones", "full", "pad",
                     "concatenate", "ascontiguousarray", "copy"):
            monkeypatch.setattr(np, name, counting(getattr(np, name)))
        executor.run_batch_into(x[:32], logits)
        executor.run_batch_into(x[32:49], logits[:17])
        assert counter["n"] == 0

    def test_executor_is_cached_and_buffers_fixed(self, program8,
                                                  infer_dataset):
        executor = program8.executor(24)
        assert program8.executor(24) is executor
        before = executor.alloc_count
        x = infer_dataset.x_train[:24]
        logits = np.empty((24, 10), dtype=np.float32)
        executor.run_batch_into(x, logits)
        executor.run_batch_into(x, logits)
        assert executor.alloc_count == before

    def test_arena_matches_plan(self, program8):
        executor = program8.executor(16)
        assert executor.acts.nbytes == executor.plan.arena_bytes(16)
        assert executor.alloc_bytes >= executor.acts.nbytes


class TestBlocking:
    def test_conv_blocks_bound_requant_rows(self, program8):
        """A conv's image block bounds its int64 requant rows as well as
        its im2col rows: a 1x1 conv with cout >> cin (the head conv,
        32 -> 1280) must not requantize the whole batch in one block."""
        executor = program8.executor(256)
        convs = [rec for rec in executor._records
                 if rec["stage"].kind == "conv"]
        assert convs
        for rec in convs:
            per_image = rec["rows_per_image"] * max(rec["ckk"], rec["cout"])
            assert (rec["block_imgs"] == 1
                    or rec["block_imgs"] * per_image <= BLOCK_ELEMS), \
                rec["stage"].name


class TestExecutorContract:
    def test_batch_beyond_capacity_rejected(self, program8, infer_dataset):
        executor = program8.executor(8)
        logits = np.empty((9, 10), dtype=np.float32)
        with pytest.raises(ValueError, match="exceeds"):
            executor.run_batch_into(infer_dataset.x_train[:9], logits)

    def test_requires_dense_tail(self, program8):
        headless = Program(stages=program8.stages[:-1],
                           input_grid=program8.input_grid,
                           image_size=program8.image_size,
                           in_channels=program8.in_channels,
                           name="headless")
        with pytest.raises(ValueError, match="Dense"):
            ArenaExecutor(headless, 4)

    def test_fused_requant_counted(self, program8, infer_dataset):
        executor = program8.executor(16)
        before = executor.fused_requant_calls
        logits = np.empty((16, 10), dtype=np.float32)
        executor.run_batch_into(infer_dataset.x_train[:16], logits)
        requant_stages = [s for s in program8.stages
                          if s.kind in ("conv", "dw")]
        assert executor.fused_requant_calls - before >= len(requant_stages)


class TestArenaObservability:
    def test_run_emits_arena_counters(self, program8, infer_dataset):
        from repro.obs.trace import TraceRecorder, use_recorder

        # a fresh Program (same compiled stages, empty executor cache) so
        # the executor-build gauge fires inside the recorded window
        fresh = Program(stages=program8.stages,
                        input_grid=program8.input_grid,
                        image_size=program8.image_size,
                        in_channels=program8.in_channels, name="obs")
        recorder = TraceRecorder()
        with use_recorder(recorder):
            fresh.run(infer_dataset.x_train[:32], batch_size=16)
        gauges = [e for e in recorder.events if e.get("type") == "gauge"
                  and e.get("name") == "infer.arena_bytes"]
        assert gauges and gauges[0]["value"] > 0
        fused = [e for e in recorder.events
                 if e.get("type") == "counter"
                 and e.get("name") == "infer.requant_fused"]
        assert fused and sum(c["value"] for c in fused) > 0


def _reference_inputs(program, x):
    """Every stage's reference input codes, and the saved residual inputs."""
    saved = {}
    inputs = []
    out = program.quantize_input(x)
    for index in range(len(program.stages)):
        inputs.append(out)
        out = program.run_stage(index, out, saved)
    return inputs, saved


class TestPerStageBitIdentity:
    """The arena's teacher-forced step equals ``run_stage`` at every
    stage, so a stage error that a later clamp or mean would mask in the
    final logits still fails."""

    @pytest.mark.parametrize("name", ["program8", "program_mixed",
                                      "zoo_program"])
    def test_every_stage(self, request, name):
        program = request.getfixturevalue(name)
        size, channels = program.image_size, program.in_channels
        x = np.random.default_rng(4).normal(
            size=(13, size, size, channels)).astype(np.float32)
        inputs, saved = _reference_inputs(program, x)
        executor = ArenaExecutor(program, 16)    # 13 images: prefix views
        for index in range(len(program.stages)):
            expected = program.run_stage(index, inputs[index], dict(saved))
            got = executor.step(inputs[index], index, index + 1, saved)
            np.testing.assert_array_equal(
                got, expected, err_msg=program.stages[index].name)

    def test_segments_seed_only_earlier_sources(self, program8):
        """Multi-stage segments that contain a residual source and its
        consumer run on arena-produced codes, like the reference."""
        x = np.random.default_rng(6).normal(
            size=(5, program8.image_size, program8.image_size,
                  program8.in_channels)).astype(np.float32)
        inputs, saved = _reference_inputs(program8, x)
        executor = program8.executor(5)
        stop = len(program8.stages)
        for start in range(stop):
            np.testing.assert_array_equal(
                executor.step(inputs[start], start, stop, saved),
                program8.run_batch_reference(x))


def _stage_arrays(stage):
    """``(field, array)`` for every ndarray a stage holds."""
    for f in dataclasses.fields(stage):
        value = getattr(stage, f.name)
        if isinstance(value, np.ndarray):
            yield f.name, value
        elif dataclasses.is_dataclass(value):            # RequantPlan
            for g in dataclasses.fields(value):
                array = getattr(value, g.name)
                if isinstance(array, np.ndarray):
                    yield f"{f.name}.{g.name}", array


class TestSharedProgram:
    """One compiled Program shared by many threads, as the artifact cache
    shares it: every result is exact and the program never changes."""

    THREADS = 8
    ROUNDS = 15

    def test_thread_hammer(self, program8, infer_dataset):
        x = infer_dataset.x_train[:37]
        odd = 13                                  # 37 = 2 * 13 + 11
        expected = {1: program8.run_batch_reference(x[:1]),
                    odd: _reference(program8, x, odd)}
        before = {(i, name): array.copy()
                  for i, stage in enumerate(program8.stages)
                  for name, array in _stage_arrays(stage)}
        wrong = []
        errors = []
        start = threading.Barrier(self.THREADS)

        def hammer():
            try:
                start.wait(timeout=60)
                for _ in range(self.ROUNDS):
                    for batch, images in ((1, x[:1]), (odd, x)):
                        out = program8.run(images, batch_size=batch)
                        if not np.array_equal(out, expected[batch]):
                            wrong.append(batch)
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer)
                       for _ in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert not wrong, (f"{len(wrong)} of "
                           f"{2 * self.THREADS * self.ROUNDS} calls wrong")

        for i, stage in enumerate(program8.stages):
            for name, array in _stage_arrays(stage):
                assert not array.flags.writeable, (stage.name, name)
                np.testing.assert_array_equal(array, before[(i, name)])

    def test_stages_and_program_are_frozen(self, program8):
        stage = program8.stages[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            stage.in_zp = stage.in_zp + 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            stage.weight = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            program8.stages = ()
        assert isinstance(program8.stages, tuple)
        with pytest.raises(ValueError, match="read-only"):
            stage.weight[...] = 0

    def test_executor_is_per_thread(self, program8):
        mine = program8.executor(4)
        theirs = []
        thread = threading.Thread(
            target=lambda: theirs.append(program8.executor(4)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert program8.executor(4) is mine
        assert theirs and theirs[0] is not mine
