"""End-to-end parity of the integer engine against the fake-quant
reference, the no-float-on-hot-path contract, and obs instrumentation."""

import numpy as np
import pytest

from repro.infer import check_parity, compile_model
from repro.obs.trace import TraceRecorder, use_recorder


class TestParity:
    def test_homogeneous_8bit(self, model8, program8, infer_dataset):
        """Every requant segment within its LSB budget, >= 99% top-1
        agreement, on the full 256-image batch."""
        report = check_parity(model8, program8, infer_dataset.x_train)
        assert report.n_images == 256
        for stage in report.stages:
            assert stage.max_abs_diff <= stage.tolerance, report.format()
        assert report.top1_agreement >= 0.99, report.format()
        assert report.ok(min_agreement=0.99)

    def test_teacher_forced_logits_near_exact(self, model8, program8,
                                              infer_dataset):
        """With reference input codes, the final dense accumulates exactly;
        only float32-vs-float64 dequantization noise remains."""
        report = check_parity(model8, program8, infer_dataset.x_train[:64])
        assert report.max_logit_diff < 1e-3

    def test_mixed_precision_policy(self, model_mixed, infer_dataset):
        """The parity contract holds for a mixed {4..8}-bit policy too."""
        program = compile_model(model_mixed,
                                infer_dataset.x_train.shape[1],
                                name="mixed")
        report = check_parity(model_mixed, program, infer_dataset.x_train)
        assert report.n_images == 256
        assert report.ok(min_agreement=0.99), report.format()

    def test_mismatched_model_rejected(self, model8, model_mixed,
                                       infer_dataset):
        size = infer_dataset.x_train.shape[1]
        program = compile_model(model_mixed, size, name="mixed")
        x = infer_dataset.x_train[:8]
        # same architecture but different grids: budget must catch it, or
        # at minimum the report must not silently claim perfection
        report = check_parity(model8, program, x)
        assert not report.ok() or report.top1_agreement < 1.0


def _integer_only(name, calls):
    """``np.<name>`` wrapped to raise on any non-integer array operand.

    Each passing call appends the ids of its operands to ``calls``.
    """
    real = getattr(np, name)

    def guarded(*args, **kwargs):
        operands = [a for a in args if not isinstance(a, str)]  # subscripts
        for operand in operands:
            dtype = np.asarray(operand).dtype
            if dtype.kind not in ("i", "u"):
                raise AssertionError(
                    f"float {name} on the hot path: {dtype}")
        calls.append({id(operand) for operand in operands})
        return real(*args, **kwargs)

    return guarded


def _guard_contractions(monkeypatch):
    calls = []
    for name in ("matmul", "einsum"):
        monkeypatch.setattr(np, name, _integer_only(name, calls))
    return calls


def _assert_every_weight_guarded(program, calls, batches):
    """Every conv, depthwise and dense weight passed the guard in each
    batch."""
    for stage in program.stages:
        if stage.kind not in ("conv", "dw", "dense"):
            continue
        weight = stage.taps if stage.kind == "dw" else stage.w2d
        seen = sum(id(weight) in operands for operands in calls)
        assert seen >= batches, (stage.name, seen)


class TestNoFloatHotPath:
    def test_run_never_matmuls_floats(self, program8, infer_dataset,
                                      monkeypatch):
        """Monkeypatch np.matmul and np.einsum to forbid float operands
        during run().

        The only float arithmetic allowed is at the program boundary
        (input quantize, dense dequantize) and neither contracts.  Every
        conv, depthwise and dense stage must contract its own weight
        operand through the guard in every batch, so no stage can slip
        past it on another numpy entry point.
        """
        calls = _guard_contractions(monkeypatch)
        logits = program8.run(infer_dataset.x_test[:32], batch_size=16)
        assert logits.shape == (32, 10)
        _assert_every_weight_guarded(program8, calls, batches=2)

    def test_guard_sees_calls_bound_before_it(self, program8, infer_dataset,
                                              monkeypatch):
        """The executor binds each batch size's calls on its first batch;
        a guard installed after that must still see every contraction,
        so a bound call resolves ``np.einsum`` when it runs."""
        x = infer_dataset.x_test[:32]
        program8.run(x, batch_size=16)            # binds batch size 16
        calls = _guard_contractions(monkeypatch)
        program8.run(x, batch_size=16)
        _assert_every_weight_guarded(program8, calls, batches=2)

    def test_guard_fires_on_float(self, monkeypatch):
        """Sanity: both wrappers in the previous test reject floats and
        pass integers through."""
        calls = _guard_contractions(monkeypatch)
        ints = np.ones((2, 2), dtype=np.int32)
        with pytest.raises(AssertionError, match="float matmul"):
            np.matmul(ints, np.ones((2, 2)))
        with pytest.raises(AssertionError, match="float einsum"):
            np.einsum("mk,kn->mn", ints, np.ones((2, 2)))
        assert not calls
        np.matmul(ints, ints)
        np.einsum("mk,nk->mn", ints, ints)
        assert len(calls) == 2


class TestInstrumentation:
    def test_spans_and_counters(self, program8, infer_dataset):
        recorder = TraceRecorder()
        with use_recorder(recorder):
            program8.run(infer_dataset.x_test[:32], batch_size=16)
        spans = [e for e in recorder.events if e.get("type") == "span"]
        batch_spans = [s for s in spans if s["name"] == "infer.batch"]
        assert len(batch_spans) == 2  # 32 images / batch 16
        stage_spans = [s for s in spans if s["name"].startswith("infer.")
                       and s["name"] != "infer.batch"]
        # one span per stage per batch, tagged with the op kind
        assert len(stage_spans) == 2 * len(program8.stages)
        kinds = {s["tags"]["op"] for s in stage_spans}
        assert {"conv", "dense", "gap"} <= kinds

        counters = [e for e in recorder.events
                    if e.get("type") == "counter"]
        images = sum(c["value"] for c in counters
                     if c["name"] == "infer.images")
        assert images == 32

    def test_silent_without_recorder(self, program8, infer_dataset):
        """With the null recorder, run() must not grow any event list."""
        logits = program8.run(infer_dataset.x_test[:8], batch_size=8)
        assert logits.shape == (8, 10)
