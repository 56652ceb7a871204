"""Arena-executor tests: bit-identity against the fresh-allocation
reference across policies, stage types and batch shapes (end to end and
stage by stage), each batch size's calls bound once, the
allocation-free steady-state contract and the arena gauge, and one
Program shared by many threads."""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.infer import compile_model
from repro.infer.engine import (BLOCK_ELEMS, REFERENCE_BLOCK, ArenaExecutor,
                                Program)
from repro.nn.conv import Conv2D, DepthwiseConv2D
from repro.nn.layers import BatchNorm2D, Dense, GlobalAvgPool2D, ReLU6
from repro.nn.network import Sequential
from repro.quant import QuantizationPolicy, apply_policy, calibrate
from repro.serve import ServeConfig


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

    def test_no_allocations_in_steady_state(self, program8, infer_dataset):
        from repro.obs.profile import KernelProfiler, use_profiler
        x = infer_dataset.x_train[:64]
        executor = program8.executor(32)
        logits = np.empty((32, 10), dtype=np.float32)
        executor.run_batch_into(x[:32], logits)     # warm the view cache
        executor.run_batch_into(x[:17], logits[:17])

        # the alloc-mode profiler counts every ndarray constructor and
        # copying helper (NDARRAY_CONSTRUCTORS) called while it is active
        profiler = KernelProfiler("alloc")
        with use_profiler(profiler):
            executor.run_batch_into(x[:32], logits)
            executor.run_batch_into(x[32:49], logits[:17])
        assert profiler.alloc_count == 0

    def test_program_run_allocates_only_its_logits(self, program8,
                                                  infer_dataset):
        """A warm ``Program.run`` calls one ndarray constructor, the
        ``np.empty`` of the logits it returns, however many batches it
        runs (full and partial alike)."""
        from repro.obs.profile import KernelProfiler, use_profiler
        x = infer_dataset.x_train[:49]
        program8.run(x, batch_size=32)      # warm both batch shapes
        profiler = KernelProfiler("alloc")
        with use_profiler(profiler):
            program8.run(x, batch_size=32)
        assert profiler.alloc_count == 1

    @pytest.mark.parametrize("n", range(1, ServeConfig().max_batch + 1))
    def test_every_serve_size_after_its_first_batch(self, program8,
                                                    infer_dataset, n):
        """A serve worker's executor (capacity ``max_batch``) runs each
        batch size it meets with no ndarray constructor once that size
        has run once."""
        from repro.obs.profile import KernelProfiler, use_profiler
        capacity = ServeConfig().max_batch
        executor = ArenaExecutor(program8, capacity)
        x = infer_dataset.x_train[:capacity]
        logits = np.empty((capacity, 10), dtype=np.float32)
        executor.run_batch_into(x[:n], logits[:n])
        profiler = KernelProfiler("alloc")
        with use_profiler(profiler):
            executor.run_batch_into(x[capacity - n:], logits[:n])
        assert profiler.alloc_count == 0
        np.testing.assert_array_equal(
            logits[:n], program8.run_batch_reference(x[capacity - n:]))

    def test_executor_is_cached_and_buffers_fixed(self, program8,
                                                  infer_dataset):
        executor = program8.executor(24)
        assert program8.executor(24) is executor
        acts, work, alloc_bytes = (executor.acts, executor.work,
                                   executor.alloc_bytes)
        x = infer_dataset.x_train[:24]
        logits = np.empty((24, 10), dtype=np.float32)
        executor.run_batch_into(x, logits)
        executor.run_batch_into(x, logits)
        assert executor.acts is acts and executor.work is work
        assert executor.alloc_bytes == alloc_bytes

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

    def test_dw_blocks_hold_whole_images(self, program8):
        """A depthwise stage blocks its epilogue by the conv's rule: as
        many whole images as fit in BLOCK_ELEMS, or exactly one."""
        executor = program8.executor(256)
        dws = [rec for rec in executor._records
               if rec["stage"].kind == "dw"]
        assert dws
        for rec in dws:
            per_image = rec["rows_per_image"] * rec["cout"]
            images = rec["block_imgs"]
            assert images == 1 or images * per_image <= BLOCK_ELEMS, \
                rec["stage"].name
            assert images == 256 or (images + 1) * per_image > BLOCK_ELEMS
        assert any(rec["block_imgs"] < 256 for rec in dws)   # real blocks

    def test_epilogue_runs_on_whole_image_rows(self, program8,
                                               infer_dataset):
        """Every conv and dw stage's bound epilogue covers whole images,
        one ``ho*wo*cout`` row each, in blocks of ``block_imgs``."""
        executor = ArenaExecutor(program8, 256)
        logits = np.empty((256, 10), dtype=np.float32)
        executor.run_batch_into(infer_dataset.x_train, logits)
        np.testing.assert_array_equal(
            logits, program8.run_batch_reference(infer_dataset.x_train))
        calls = executor._bound[256].calls
        for index, rec in enumerate(executor._records):
            stage = rec["stage"]
            if stage.kind not in ("conv", "dw"):
                continue
            # each epilogue's first requantize pass multiplies its
            # accumulator rows by the stage's own mantissas
            shapes = [call.args[0].shape for call in calls[index]
                      if call.func is np.multiply
                      and call.args[1] is stage.rq.q]
            full, tail = divmod(256, rec["block_imgs"])
            expected = [rec["block_imgs"]] * full + ([tail] if tail else [])
            assert [images for images, _ in shapes] == expected, stage.name
            assert {width for _, width in shapes} == {
                rec["rows_per_image"] * rec["cout"]}, stage.name


class TestBinding:
    """Each batch size's calls are bound on its first batch, then reused."""

    def test_bound_once_per_batch_size(self, program8, infer_dataset):
        executor = ArenaExecutor(program8, 8)
        assert executor._bound == {}              # construction binds nothing
        x = infer_dataset.x_train[:8]
        logits = np.empty((8, 10), dtype=np.float32)
        executor.run_batch_into(x, logits)
        bound = executor._bound[8]
        assert len(bound.calls) == len(program8.stages)
        executor.run_batch_into(x, logits)
        assert executor._bound == {8: bound}
        executor.step(program8.quantize_input(x), 0, 1, {})
        assert executor._bound == {8: bound}      # step runs the same calls
        executor.run_batch_into(x[:3], logits[:3])
        assert set(executor._bound) == {3, 8}
        assert executor._bound[8] is bound
        assert executor._bound[3].calls is not bound.calls

    def test_every_short_batch_is_exact(self, program8, infer_dataset):
        """One executor of capacity 17 at every batch size 1..17, each
        size twice (bound, then reused), the largest first so shorter
        batches run over stale rows: every logit byte-equal to the
        reference."""
        capacity = 17
        x = infer_dataset.x_train[:capacity]
        reference = program8.run_batch_reference(x)
        executor = ArenaExecutor(program8, capacity)
        sizes = list(range(capacity, 0, -1)) + list(range(1, capacity + 1))
        for n in sizes:
            logits = np.empty((n, 10), dtype=np.float32)
            executor.run_batch_into(x[capacity - n:], logits)
            assert logits.tobytes() == reference[capacity - n:].tobytes(), n


class TestReferenceInterpreter:
    """``run_batch_reference`` runs REFERENCE_BLOCK images at a time."""

    def test_blocks_keep_the_bytes(self, program8, infer_dataset):
        x = infer_dataset.x_train[:37]
        np.testing.assert_array_equal(
            program8.run_batch_reference(x),
            np.concatenate([program8.run_batch_reference(x[i:i + 1])
                            for i in range(x.shape[0])]))
        assert program8.run_batch_reference(x[:0]).shape == (0, 10)

    def test_peak_memory_is_one_block(self, program8, infer_dataset):
        x = infer_dataset.x_train[:64]
        program8.run_batch_reference(x[:REFERENCE_BLOCK])       # warm up
        peaks = {}
        for n in (REFERENCE_BLOCK, 64):
            tracemalloc.start()
            try:
                program8.run_batch_reference(x[:n])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] <= 1.25 * peaks[REFERENCE_BLOCK], peaks


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

    def test_dropped_program_freed_without_cyclic_gc(self, program8,
                                                     infer_dataset):
        """Executors hold the stages, not the Program that caches them,
        so a dropped Program and its arenas are freed at once instead of
        at the next cyclic collection."""
        import gc
        import weakref
        program = Program(stages=program8.stages,
                          input_grid=program8.input_grid,
                          image_size=program8.image_size,
                          in_channels=program8.in_channels, name="drop")
        program.run(infer_dataset.x_train[:4], batch_size=4)
        refs = (weakref.ref(program), weakref.ref(program.executor(4)))
        gc.disable()
        try:
            del program
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


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

    def test_tiled_operands_are_read_only(self, program8):
        """The epilogue operands of a conv or dw stage are tiled along one
        image's output or are shared scalars; the tiles are read-only,
        so the hammer above also checks they never change."""
        tiles = 0
        for stage in program8.stages:
            if stage.kind not in ("conv", "dw"):
                continue
            pixels, cout = stage.out_shape[0] * stage.out_shape[1], \
                stage.out_shape[2]
            for operand in (stage.bias_fused, stage.rq.q, stage.rq.k,
                            stage.rq.s):
                if isinstance(operand, np.generic):
                    continue
                tiles += 1
                assert operand.shape == (pixels * cout,), stage.name
                assert not operand.flags.writeable, stage.name
                rows = operand.reshape(pixels, cout)
                np.testing.assert_array_equal(rows, np.tile(rows[0],
                                                            (pixels, 1)))
        assert tiles

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
