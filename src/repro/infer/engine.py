"""The integer inference engine: executes a compiled stage program.

Activations travel between stages as int32 *codes* in the grid of the
next quantized consumer.  The only float arithmetic is at the program
boundary: quantizing the input image (the "ADC" step) and dequantizing
the final classifier accumulators into logits.  Everything in between —
convolutions, bias adds, requantization, activation clamps, residual
adds, the global average pool — is integer-only, which the parity suite
enforces by monkeypatching ``np.einsum`` and ``np.matmul`` to reject
float operands during execution.  A program holds the four stage kinds
the search space lowers to: ``conv``, ``dw``, ``gap`` and ``dense``.

:class:`ArenaExecutor` is the engine behind :meth:`Program.run`.  It
places every inter-stage tensor at a fixed offset in one preallocated
int32 arena (liveness-planned by :mod:`repro.infer.plan`), contracts raw
codes with the input zero point folded into the bias, and gathers im2col
patches into one reused cache-blocked workspace.  Every contraction is
one int32 ``np.einsum`` call: a GEMM per conv image block and per dense
stage, and one pass over all taps per depthwise stage.  int32 addition
is exact and associative mod 2**32, so any summation order gives the
reference interpreter's bytes.  Each conv and depthwise stage then runs
its epilogue (bias, requantize, residual, zero point, clamp) in place on
one ``ho*wo*cout`` row per image, a block of whole images at a time:
the bias add, a multiply, an add and a shift by operands folded and
tiled along that row when the stage is built
(:class:`~repro.infer.requant.RequantPlan`), then the clamp.
Steady-state batches perform no ndarray allocations.  The parity harness
verifies this same path through :meth:`ArenaExecutor.step`.

:meth:`Program.run_stage` / :meth:`Program.run_batch_reference` is a
deliberately simple fresh-allocation interpreter, kept only as the
bit-identity oracle that the tests and the benchmark compare against;
it runs :data:`REFERENCE_BLOCK` images at a time.

Threading: a :class:`Program` is immutable and may be shared by any
number of threads; an executor belongs to one thread.

Execution is instrumented with :mod:`repro.obs`: a span per batch, a span
per stage (op kind and output shape in the tags), and counters for
images, MACs and fused-requant invocations, plus an
``infer.arena_bytes`` gauge when an executor is built.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from ..nn import functional as F
from ..obs import profile as prof
from ..obs.trace import get_recorder
from .compile import Grid, Stage
from .kernels import (conv2d_int, dense_int, depthwise_conv2d_int,
                      global_avg_pool_int)
from .plan import ArenaPlan, plan_arena
from .requant import requantize, requantize_epilogue

#: int32 elements in one workspace block (512 KiB); bounds a block of
#: whole images: a conv's im2col rows, and every stage's epilogue rows
BLOCK_ELEMS = 512 * 1024 // 4

#: images the reference interpreter runs at a time
REFERENCE_BLOCK = 16


class ArenaExecutor:
    """Allocation-free executor for one :class:`Program` at a fixed batch.

    All buffers are allocated once at construction:

    - ``acts`` — the liveness-planned int32 tensor arena (every slot's
      per-image offset scaled by the batch size, so each tensor is a
      contiguous zero-copy view);
    - ``pad`` / ``col`` — shared padded-input and im2col workspaces,
      sized to the largest cache block any stage needs;
    - ``acc32`` — int32 scratch for strided depthwise rows and the
      classifier;
    - ``work`` / ``work_res`` — the int64 workspaces of the epilogue and
      its residual branch, one block of whole images (at most
      :data:`BLOCK_ELEMS` elements, or one image), reused by every stage;
    - ``fin`` / ``fout`` — float scratch for the two boundary steps.

    Short final batches execute on prefix views of the same buffers.
    Every batch rewrites those buffers, so an executor belongs to one
    thread.
    """

    def __init__(self, program: "Program", batch_size: int) -> None:
        if not program.stages or program.stages[-1].kind != "dense":
            raise ValueError(
                "ArenaExecutor needs a program ending in a Dense "
                "classifier (float logits output)")
        self.program = program
        self.batch = int(batch_size)
        if self.batch < 1:
            raise ValueError("batch size must be >= 1")
        self.plan: ArenaPlan = plan_arena(program.stages)

        self.alloc_count = 0          # buffer allocations (all at build)
        self.alloc_bytes = 0
        self.fused_requant_calls = 0

        self._records = [self._make_record(i, stage)
                         for i, stage in enumerate(program.stages)]
        self._allocate_buffers()
        self._views: Dict[int, Dict[int, np.ndarray]] = {}
        self._tap_views: Dict[Tuple[int, int], Tuple] = {}
        recorder = get_recorder()
        if recorder.enabled:
            recorder.gauge("infer.arena_bytes", self.alloc_bytes)

    # -- construction ---------------------------------------------------------
    def _new(self, elems: int, dtype) -> np.ndarray:
        buf = np.empty(max(int(elems), 0), dtype=dtype)
        self.alloc_count += 1
        self.alloc_bytes += buf.nbytes
        return buf

    def _make_record(self, index: int, stage: Stage) -> Dict:
        rec: Dict = {"stage": stage, "in_value": index - 1,
                     "out_value": index}
        if stage.kind in ("conv", "dw"):
            h, w, cin = stage.in_shape
            ho, wo, cout = stage.out_shape
            kernel = stage.weight.shape[0]
            rec.update(kernel=kernel, stride=stage.stride,
                       rows_per_image=ho * wo, cout=cout)
            if kernel > 1 and stage.padding == "same":
                pad_h = F.same_padding(h, kernel, stage.stride)
                pad_w = F.same_padding(w, kernel, stage.stride)
            else:
                pad_h = pad_w = (0, 0)
            rec["pad_h"], rec["pad_w"] = pad_h, pad_w
            rec["padded_hw"] = (h + pad_h[0] + pad_h[1],
                                w + pad_w[0] + pad_w[1])
            rec["needs_pad"] = pad_h != (0, 0) or pad_w != (0, 0)
            # a block of whole images bounds its int64 epilogue rows and,
            # in a conv, its im2col rows
            per_image = ho * wo * cout
            if stage.kind == "conv":
                rec["ckk"] = cin * kernel * kernel
                per_image = ho * wo * max(rec["ckk"], cout)
            rec["block_imgs"] = max(
                1, min(self.batch, BLOCK_ELEMS // max(per_image, 1)))
        elif stage.kind not in ("dense", "gap"):
            raise ValueError(f"unknown stage kind {stage.kind!r}")
        return rec

    def _allocate_buffers(self) -> None:
        B = self.batch
        pad = col = acc32 = work = work_res = 0
        for rec in self._records:
            stage = rec["stage"]
            if stage.kind in ("conv", "dw"):
                bi, rpi, cout = (rec["block_imgs"], rec["rows_per_image"],
                                 rec["cout"])
                work = max(work, bi * rpi * cout)
                if stage.residual_from is not None:
                    work_res = max(work_res, bi * rpi * cout)
                # a conv pads and gathers one block, a dw the whole batch
                padded = bi if stage.kind == "conv" else B
                if rec["needs_pad"]:
                    ph, pw = rec["padded_hw"]
                    pad = max(pad, padded * ph * pw * stage.in_shape[2])
            if stage.kind == "conv":
                if rec["kernel"] > 1 or rec["stride"] > 1:
                    col = max(col, bi * rpi * rec["ckk"])
            elif stage.kind == "dw":
                if rec["stride"] > 1:
                    acc32 = max(acc32, B * stage.out_shape[0]
                                * stage.taps.shape[2])
            elif stage.kind == "gap":
                work = max(work, B * stage.out_shape[-1])
            elif stage.kind == "dense":
                classes = stage.out_shape[0]
                acc32 = max(acc32, B * classes)
                self._fout_elems = B * classes
        in_elems = int(np.prod(self.program.stages[0].in_shape))
        self.acts = self._new(self.plan.total_elems * B, np.int32)
        self.pad = self._new(pad, np.int32)
        self.col = self._new(col, np.int32)
        self.acc32 = self._new(acc32, np.int32)
        self.work = self._new(work, np.int64)
        self.work_res = self._new(work_res, np.int64)
        self.fin = self._new(B * in_elems, np.float32)
        self.fout = self._new(self._fout_elems, np.float64)

    def _views_for(self, n: int) -> Dict[int, np.ndarray]:
        if n > self.batch:
            raise ValueError(f"batch {n} exceeds planned capacity "
                             f"{self.batch}")
        views = self._views.get(n)
        if views is None:
            B = self.batch
            views = {
                slot.value:
                    self.acts[slot.offset * B:
                              slot.offset * B + n * slot.elems]
                    .reshape((n,) + slot.shape)
                for slot in self.plan.slots.values()}
            self._views[n] = views
        return views

    # -- execution ------------------------------------------------------------
    def run_batch_into(self, x: np.ndarray, logits: np.ndarray) -> None:
        """Execute one batch of float images into a float32 logits view."""
        n = int(x.shape[0])
        views = self._views_for(n)
        self._quantize_input(x, views[-1])
        self._run_stages(views, n, 0, len(self._records), logits)

    def step(self, codes: np.ndarray, start: int, stop: int,
             saved: Mapping[int, np.ndarray]) -> np.ndarray:
        """Teacher-force stages ``[start, stop)`` on input ``codes``.

        ``saved`` maps residual-source stage indices to their input
        codes.  Only sources below ``start`` are seeded: a later one is
        the segment's own output, and its slot may share arena space
        with tensors the segment reads first.  Returns a copy of stage
        ``stop - 1``'s output (float32 logits for the final Dense).
        """
        n = int(codes.shape[0])
        views = self._views_for(n)
        for index in range(start, stop):
            source = self.program.stages[index].residual_from
            if source is not None and source < start:
                np.copyto(views[source - 1], saved[source])
        np.copyto(views[start - 1], codes)
        if stop < len(self._records):
            self._run_stages(views, n, start, stop, None)
            return views[stop - 1].copy()
        logits = np.empty((n, self.program.stages[-1].out_shape[0]),
                          dtype=np.float32)
        self._run_stages(views, n, start, stop, logits)
        return logits

    def _run_stages(self, views: Dict[int, np.ndarray], n: int, start: int,
                    stop: int, logits: Optional[np.ndarray]) -> None:
        recorder = get_recorder()
        for rec in self._records[start:stop]:
            stage = rec["stage"]
            if recorder.enabled:
                with recorder.span(f"infer.{stage.name}", op=stage.kind,
                                   out_shape=list(stage.out_shape)):
                    self._exec(rec, views, n, logits)
            else:
                self._exec(rec, views, n, logits)

    def _quantize_input(self, x: np.ndarray, codes: np.ndarray) -> None:
        with prof.kernel("infer.quantize_input"):
            grid = self.program.input_grid
            if x.dtype != np.float32:
                # off the planned path: reproduce the reference dtype exactly
                np.copyto(codes, self.program.quantize_input(x))
                return
            scratch = self.fin[:x.size].reshape(x.shape)
            np.divide(x, grid.scale, out=scratch)
            np.add(scratch, grid.zero_point, out=scratch)
            np.round(scratch, out=scratch)
            # np.clip's Python wrapper costs more than these two passes
            np.maximum(scratch, 0, out=scratch)
            np.minimum(scratch, grid.n_levels, out=scratch)
            np.copyto(codes, scratch, casting="unsafe")

    def _exec(self, rec: Dict, views: Dict[int, np.ndarray], n: int,
              logits: Optional[np.ndarray]) -> None:
        kind = rec["stage"].kind
        with prof.kernel("infer." + kind):
            if kind == "dense":
                self._exec_dense(rec, views, n, logits)
            else:
                getattr(self, "_exec_" + kind)(rec, views, n)

    def _epilogue(self, rec: Dict, views: Dict[int, np.ndarray],
                  out_rows: np.ndarray, i0: int, i1: int) -> None:
        """Bias, requantize, residual, zero point and clamp, in place.

        Runs on images ``[i0, i1)`` of ``out_rows``, the stage's int32
        accumulators read as one ``ho*wo*cout`` row per image — the
        length the stage's operands are tiled to — and writes the output
        codes over them, bit-identical to the reference's chain.
        """
        stage = rec["stage"]
        acc = out_rows[i0:i1]
        acc += stage.bias_fused
        work = self.work[:acc.size].reshape(acc.shape)
        residual = None
        if stage.residual_from is not None:
            saved = views[stage.residual_from - 1]
            residual = (saved.reshape(saved.shape[0], -1)[i0:i1],
                        stage.res_rq,
                        self.work_res[:acc.size].reshape(acc.shape))
        requantize_epilogue(acc, stage.rq, stage.clamp_lo, stage.clamp_hi,
                            work, residual)
        self.fused_requant_calls += 1

    def _exec_conv(self, rec: Dict, views: Dict[int, np.ndarray],
                   n: int) -> None:
        stage = rec["stage"]
        x = views[rec["in_value"]]
        out = views[rec["out_value"]]
        h, w, cin = stage.in_shape
        rpi, ckk, cout = rec["rows_per_image"], rec["ckk"], rec["cout"]
        kernel, stride = rec["kernel"], rec["stride"]
        out2 = out.reshape(n * rpi, cout)
        out_rows = out.reshape(n, rpi * cout)
        flat_in = (x.reshape(n * h * w, cin)
                   if kernel == 1 and stride == 1 else None)
        for i0 in range(0, n, rec["block_imgs"]):
            i1 = min(n, i0 + rec["block_imgs"])
            ni = i1 - i0
            rows = ni * rpi
            r0 = i0 * rpi
            acc = out2[r0:r0 + rows]
            if flat_in is not None:
                lhs = flat_in[r0:r0 + rows]
            elif kernel == 1:
                block = self.col[:rows * ckk].reshape(
                    ni, *stage.out_shape[:2], cin)
                np.copyto(block, x[i0:i1, ::stride, ::stride, :])
                lhs = block.reshape(rows, ckk)
            else:
                src = self._padded_block(rec, x, i0, i1)
                windows = sliding_window_view(
                    src, (kernel, kernel), axis=(1, 2))[:, ::stride,
                                                        ::stride]
                block = self.col[:rows * ckk].reshape(
                    ni, *stage.out_shape[:2], cin, kernel, kernel)
                np.copyto(block, windows)
                lhs = block.reshape(rows, ckk)
            np.einsum(stage.contraction, lhs, stage.w2d, out=acc)
            self._epilogue(rec, views, out_rows, i0, i1)

    def _padded_block(self, rec: Dict, x: np.ndarray, i0: int,
                      i1: int) -> np.ndarray:
        """Zero-point-padded input block in the shared pad workspace."""
        if not rec["needs_pad"]:
            return x[i0:i1]
        stage = rec["stage"]
        h, w, cin = stage.in_shape
        ph, pw = rec["padded_hw"]
        ni = i1 - i0
        block = self.pad[:ni * ph * pw * cin].reshape(ni, ph, pw, cin)
        block[...] = stage.in_zp      # raw-code padding == shifted zeros
        (h0, _), (w0, _) = rec["pad_h"], rec["pad_w"]
        block[:, h0:h0 + h, w0:w0 + w, :] = x[i0:i1]
        return block

    def _tap_operands(self, rec: Dict, src: np.ndarray, out: np.ndarray,
                      n: int) -> Tuple:
        """``(rows, acc, strided)``: a depthwise stage's einsum operands.

        ``rows`` reads the C-contiguous (padded) input ``src`` as
        ``(n, hp, wp*c)`` rows: element ``[i, j, b, h, x]`` is row
        ``h*s + i`` of image ``b`` from column ``j*c + x``, so for each tap
        one output row's ``span*c`` columns (first window to last) are
        contiguous, and the einsum with ``Stage.taps`` sums all ``k*k``
        taps in one pass.  At stride 1 it writes ``out`` directly; at
        stride s it fills the full span into ``acc32`` and ``strided``
        keeps every s-th column.  Cached per batch size: the views
        depend only on buffers the executor owns.
        """
        key = (rec["out_value"], n)
        operands = self._tap_views.get(key)
        if operands is None:
            stage = rec["stage"]
            kernel, stride = rec["kernel"], rec["stride"]
            ho, wo, c = stage.out_shape
            width = stage.taps.shape[2]            # span * c
            item = src.itemsize
            row = src.shape[2] * c * item
            rows = as_strided(src, (kernel, kernel, n, ho, width),
                              (row, c * item, src.strides[0],
                               stride * row, item), writeable=False)
            if stride == 1:
                operands = (rows, out.reshape(n, ho, wo * c), None)
            else:
                acc = self.acc32[:n * ho * width].reshape(n, ho, width)
                operands = (rows, acc, acc.reshape(n, ho, -1, c)[
                    :, :, ::stride])
            self._tap_views[key] = operands
        return operands

    def _exec_dw(self, rec: Dict, views: Dict[int, np.ndarray],
                 n: int) -> None:
        stage = rec["stage"]
        out = views[rec["out_value"]]
        rpi, cout = rec["rows_per_image"], rec["cout"]
        src = self._padded_block(rec, views[rec["in_value"]], 0, n)
        rows, acc, strided = self._tap_operands(rec, src, out, n)
        np.einsum("ijnhx,ijx->nhx", rows, stage.taps, out=acc)
        if strided is not None:
            np.copyto(out, strided)
        out_rows = out.reshape(n, rpi * cout)
        for i0 in range(0, n, rec["block_imgs"]):
            self._epilogue(rec, views, out_rows, i0,
                           min(n, i0 + rec["block_imgs"]))

    def _exec_dense(self, rec: Dict, views: Dict[int, np.ndarray],
                    n: int, logits: np.ndarray) -> None:
        stage = rec["stage"]
        x = views[rec["in_value"]]
        classes = stage.out_shape[0]
        acc = self.acc32[:n * classes].reshape(n, classes)
        np.einsum(stage.contraction, x, stage.w2d, out=acc)
        acc += stage.bias_fused
        scratch = self.fout[:n * classes].reshape(n, classes)
        np.multiply(acc, stage.out_scale, out=scratch)
        np.add(scratch, stage.out_bias, out=scratch)
        np.copyto(logits, scratch, casting="same_kind")

    def _exec_gap(self, rec: Dict, views: Dict[int, np.ndarray],
                  n: int) -> None:
        stage = rec["stage"]
        x = views[rec["in_value"]]
        out = views[rec["out_value"]]
        count = x.shape[1] * x.shape[2]
        work = self.work[:out.size].reshape(out.shape)
        np.sum(x, axis=(1, 2), dtype=np.int64, out=work)
        work += count // 2
        np.floor_divide(work, count, out=work)
        np.maximum(work, stage.clamp_lo, out=work)
        np.minimum(work, stage.clamp_hi, out=out)


@dataclass(frozen=True, eq=False)
class Program:
    """A compiled integer-only network, ready to run.

    Frozen, so threads may share it; its executor cache is per thread.
    """

    stages: Tuple[Stage, ...]
    input_grid: Grid
    image_size: int
    in_channels: int
    name: str = "model"
    _per_thread: threading.local = field(default_factory=threading.local,
                                         init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))

    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        """Float images -> int32 input codes (the off-hot-path ADC step)."""
        grid = self.input_grid
        q = np.clip(np.round(x / grid.scale + grid.zero_point),
                    0, grid.n_levels)
        return q.astype(np.int32)

    def executor(self, batch_size: int) -> ArenaExecutor:
        """The calling thread's cached executor for ``batch_size`` images."""
        cache = getattr(self._per_thread, "by_batch", None)
        if cache is None:
            cache = self._per_thread.by_batch = {}
        executor = cache.get(batch_size)
        if executor is None:
            executor = cache[batch_size] = ArenaExecutor(self, batch_size)
        return executor

    # -- fresh-allocation reference path --------------------------------------
    def run_stage(self, index: int, x: np.ndarray,
                  saved: Dict[int, np.ndarray]) -> np.ndarray:
        stage = self.stages[index]
        if stage.save_input:
            saved[index] = x
        if stage.kind in ("conv", "dw"):
            x32 = x if x.dtype == np.int32 else x.astype(np.int32)
            shifted = x32 - np.int32(stage.in_zp)
            if stage.kind == "conv":
                acc = conv2d_int(shifted, stage.weight, stage.stride,
                                 stage.padding)
            else:
                acc = depthwise_conv2d_int(shifted, stage.weight,
                                           stage.stride, stage.padding)
            acc += stage.bias_acc
            out = requantize(acc, stage.mult, stage.shift)
            if stage.residual_from is not None:
                res = saved[stage.residual_from]
                if res.dtype != np.int32:
                    res = res.astype(np.int32)
                res = res - np.int32(stage.res_zp)
                out = out + requantize(res, stage.res_mult, stage.res_shift)
            out = out + stage.out_zp
            return np.clip(out, stage.clamp_lo,
                           stage.clamp_hi).astype(np.int32)
        if stage.kind == "dense":
            x32 = x if x.dtype == np.int32 else x.astype(np.int32)
            shifted = x32 - np.int32(stage.in_zp)
            acc = dense_int(shifted, stage.weight)
            # output dequantization: off the hot path by definition — the
            # program's result IS float logits
            logits = acc.astype(np.float64) * stage.out_scale \
                + stage.out_bias
            return logits.astype(np.float32)
        if stage.kind != "gap":
            raise ValueError(f"unknown stage kind {stage.kind!r}")
        out = np.clip(global_avg_pool_int(x), stage.clamp_lo,
                      stage.clamp_hi)
        return out.astype(np.int32)

    def run_batch_reference(self, x: np.ndarray) -> np.ndarray:
        """Float images -> float logits via the fresh-allocation path.

        The bit-identity oracle for the arena executor.  Runs
        :data:`REFERENCE_BLOCK` images at a time: images are
        independent, so the logits are the same bytes, and the
        interpreter's temporaries stay one block's size.
        """
        blocks = []
        for start in range(0, max(int(x.shape[0]), 1), REFERENCE_BLOCK):
            saved: Dict[int, np.ndarray] = {}
            out = self.quantize_input(x[start:start + REFERENCE_BLOCK])
            for index in range(len(self.stages)):
                out = self.run_stage(index, out, saved)
            blocks.append(out)
        return np.concatenate(blocks)

    def run(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Float images -> float logits, batched through the arena."""
        recorder = get_recorder()
        n = int(x.shape[0])
        executor = self.executor(min(batch_size, max(n, 1)))
        logits = np.empty((n, self.stages[-1].out_shape[0]),
                          dtype=np.float32)
        fused_before = executor.fused_requant_calls
        for start in range(0, n, batch_size):
            batch = x[start:start + batch_size]
            with recorder.span("infer.batch", images=int(batch.shape[0])):
                executor.run_batch_into(
                    batch, logits[start:start + batch.shape[0]])
            if recorder.enabled:
                recorder.counter("infer.images", int(batch.shape[0]))
                recorder.counter("infer.macs",
                                 self.total_macs() * int(batch.shape[0]))
        if recorder.enabled:
            recorder.counter("infer.requant_fused",
                             executor.fused_requant_calls - fused_before)
        return logits

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Float images -> predicted class indices."""
        return np.argmax(self.run(x, batch_size=batch_size), axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray,
                 batch_size: int = 256) -> float:
        """Deployed top-1 accuracy on a labelled set."""
        return float((self.predict(x, batch_size=batch_size) == y).mean())

    def total_macs(self) -> int:
        return sum(stage.macs for stage in self.stages)

    def __repr__(self) -> str:
        return (f"Program({self.name}, {len(self.stages)} stages, "
                f"{self.total_macs()} MACs)")
