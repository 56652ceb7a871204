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

Every operand of every one of those numpy calls is fixed once the batch
size is, so the first batch of each size ``n`` binds them: the input
quantization, each conv block's im2col copy, contraction and epilogue,
each depthwise stage's padding, tap einsum and strided copy, the GAP
and the classifier become one list of prebound calls per stage, and
every batch of that size runs those lists in order, with no per-call
view building, record lookup or dispatch by stage kind.  A contraction
is bound to a helper that looks ``np.einsum`` up when it runs, so a
guard that replaces ``np.einsum`` after binding still sees it.
Steady-state batches perform no ndarray allocations.  The parity harness
verifies this same path through :meth:`ArenaExecutor.step`.

:meth:`Program.run_stage` / :meth:`Program.run_batch_reference` is a
deliberately simple fresh-allocation interpreter, kept only as the
bit-identity oracle that the tests and the benchmark compare against;
it runs :data:`REFERENCE_BLOCK` images at a time.

Threading: a :class:`Program` is immutable and may be shared by any
number of threads; an executor belongs to one thread.

Execution is instrumented with :mod:`repro.obs`: a span per batch, a span
per stage (op kind and output shape in the tags), an ``infer.images``
counter per batch, and an ``infer.arena_bytes`` gauge when an executor
is built.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Mapping, NamedTuple, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from ..nn import functional as F
from ..obs import profile as prof
from ..obs.trace import get_recorder
from .compile import Grid, Stage
from .kernels import (conv2d_int, dense_int, depthwise_conv2d_int,
                      global_avg_pool_int)
from .plan import ArenaPlan, plan_arena
from .requant import Call, epilogue_calls, requantize

#: int32 elements in one workspace block (512 KiB); bounds a block of
#: whole images: a conv's im2col rows, and every stage's epilogue rows
BLOCK_ELEMS = 512 * 1024 // 4

#: images the reference interpreter runs at a time
REFERENCE_BLOCK = 16


def input_codes(grid: Grid, x: np.ndarray) -> np.ndarray:
    """Float images -> int32 codes on the input ``grid`` (reference ADC)."""
    q = np.clip(np.round(x / grid.scale + grid.zero_point),
                0, grid.n_levels)
    return q.astype(np.int32)


def _contract(subscripts: str, lhs: np.ndarray, rhs: np.ndarray,
              out: np.ndarray) -> None:
    """``np.einsum(subscripts, lhs, rhs, out=out)``, with ``np.einsum``
    looked up when the call runs, not when it is bound: the
    no-float-on-the-hot-path guard replaces ``np.einsum`` on the module,
    and a call bound to the function itself would bypass it."""
    np.einsum(subscripts, lhs, rhs, out=out)


class _Bound(NamedTuple):
    """One batch size's execution: its arena views and prebound calls.

    ``views`` maps each value to its view, the classifier's float64
    dequantized output (cast into the caller's float32 logits at the
    boundary) included; ``calls[i]`` is stage ``i``'s list of numpy
    calls, every operand a view of the executor's buffers; ``quantize``
    finishes the input quantization after the divide that reads the
    caller's images into ``scratch``.
    """

    views: Dict[int, np.ndarray]
    scratch: np.ndarray
    quantize: List[Call]
    calls: List[List[Call]]


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

    The first batch of each size ``n`` binds every numpy call of every
    stage to views of those buffers (:class:`_Bound`); that batch and
    every later one of the same size run the bound calls in order.
    Short final batches bind prefix views of the same buffers.  Every
    batch rewrites those buffers, so an executor belongs to one thread.
    """

    def __init__(self, program: "Program", batch_size: int) -> None:
        if not program.stages or program.stages[-1].kind != "dense":
            raise ValueError(
                "ArenaExecutor needs a program ending in a Dense "
                "classifier (float logits output)")
        # the stages and grid, not the Program: the Program caches its
        # executors, and a reference back would keep both alive until the
        # cyclic garbage collector runs
        self.stages = program.stages
        self.input_grid = program.input_grid
        self.batch = int(batch_size)
        if self.batch < 1:
            raise ValueError("batch size must be >= 1")
        self.plan: ArenaPlan = plan_arena(program.stages)

        self.alloc_bytes = 0          # every buffer is allocated at build

        self._records = [self._make_record(i, stage)
                         for i, stage in enumerate(program.stages)]
        self._kernels = ["infer." + stage.kind for stage in self.stages]
        self._allocate_buffers()
        self._bound: Dict[int, _Bound] = {}
        recorder = get_recorder()
        if recorder.enabled:
            recorder.gauge("infer.arena_bytes", self.alloc_bytes)

    # -- construction ---------------------------------------------------------
    def _new(self, elems: int, dtype) -> np.ndarray:
        buf = np.empty(max(int(elems), 0), dtype=dtype)
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
        in_elems = int(np.prod(self.stages[0].in_shape))
        self.acts = self._new(self.plan.total_elems * B, np.int32)
        self.pad = self._new(pad, np.int32)
        self.col = self._new(col, np.int32)
        self.acc32 = self._new(acc32, np.int32)
        self.work = self._new(work, np.int64)
        self.work_res = self._new(work_res, np.int64)
        self.fin = self._new(B * in_elems, np.float32)
        self.fout = self._new(self._fout_elems, np.float64)

    # -- binding --------------------------------------------------------------
    def _bound_for(self, n: int) -> _Bound:
        bound = self._bound.get(n)
        if bound is None:
            if n > self.batch:
                raise ValueError(f"batch {n} exceeds planned capacity "
                                 f"{self.batch}")
            bound = self._bound[n] = self._bind(n)
        return bound

    def _bind(self, n: int) -> _Bound:
        """Every call of a batch of ``n`` images, bound to its operands
        (outputs positional where numpy allows it, as in
        :func:`~repro.infer.requant.requantize_calls`)."""
        B = self.batch
        views = {
            slot.value:
                self.acts[slot.offset * B:slot.offset * B + n * slot.elems]
                .reshape((n,) + slot.shape)
            for slot in self.plan.slots.values()}
        classes = self.stages[-1].out_shape[0]
        views[len(self.stages) - 1] = self.fout[:n * classes].reshape(
            n, classes)
        grid = self.input_grid
        codes = views[-1]
        scratch = self.fin[:codes.size].reshape(codes.shape)
        quantize = [
            partial(np.add, scratch, grid.zero_point, scratch),
            partial(np.rint, scratch, scratch),
            # np.clip's Python wrapper costs more than these two passes
            partial(np.maximum, scratch, 0, out=scratch),
            partial(np.minimum, scratch, grid.n_levels, out=scratch),
            partial(np.copyto, codes, scratch, "unsafe")]
        calls = [getattr(self, "_bind_" + rec["stage"].kind)(rec, views, n)
                 for rec in self._records]
        return _Bound(views, scratch, quantize, calls)

    def _bind_conv(self, rec: Dict, views: Dict[int, np.ndarray],
                   n: int) -> List[Call]:
        """im2col gather, contraction and epilogue per block of images."""
        stage = rec["stage"]
        x = views[rec["in_value"]]
        out = views[rec["out_value"]]
        cin, cout = stage.in_shape[2], rec["cout"]
        rpi, ckk = rec["rows_per_image"], rec["ckk"]
        kernel, stride = rec["kernel"], rec["stride"]
        out2 = out.reshape(n * rpi, cout)
        calls: List[Call] = []
        for i0 in range(0, n, rec["block_imgs"]):
            i1 = min(n, i0 + rec["block_imgs"])
            rows = (i1 - i0) * rpi
            if kernel == 1 and stride == 1:
                lhs = x.reshape(n * rpi, cin)[i0 * rpi:i0 * rpi + rows]
            else:
                if kernel == 1:
                    src = x[i0:i1, ::stride, ::stride, :]
                else:
                    src = sliding_window_view(
                        self._padded(rec, x[i0:i1], calls),
                        (kernel, kernel), axis=(1, 2))[:, ::stride,
                                                       ::stride]
                block = self.col[:rows * ckk].reshape(src.shape)
                calls.append(partial(np.copyto, block, src))
                lhs = block.reshape(rows, ckk)
            calls.append(partial(_contract, stage.contraction, lhs,
                                 stage.w2d, out2[i0 * rpi:i0 * rpi + rows]))
            calls += self._epilogue(rec, views, out, i0, i1)
        return calls

    def _bind_dw(self, rec: Dict, views: Dict[int, np.ndarray],
                 n: int) -> List[Call]:
        """Padding, one tap einsum, the strided copy and the epilogue.

        The einsum reads the C-contiguous (padded) input ``src`` as
        ``(n, hp, wp*c)`` rows: element ``[i, j, b, h, x]`` of ``rows``
        is row ``h*s + i`` of image ``b`` from column ``j*c + x``, so for
        each tap one output row's ``span*c`` columns (first window to
        last) are contiguous, and the einsum with ``Stage.taps`` sums all
        ``k*k`` taps in one pass.  At stride 1 it writes the output slot
        directly; at stride s it fills the full span into ``acc32``, and
        every s-th column is copied out.
        """
        stage = rec["stage"]
        out = views[rec["out_value"]]
        kernel, stride = rec["kernel"], rec["stride"]
        ho, wo, c = stage.out_shape
        calls: List[Call] = []
        src = self._padded(rec, views[rec["in_value"]], calls)
        width = stage.taps.shape[2]                # span * c
        item = src.itemsize
        row = src.shape[2] * c * item
        rows = as_strided(src, (kernel, kernel, n, ho, width),
                          (row, c * item, src.strides[0], stride * row,
                           item), writeable=False)
        if stride == 1:
            calls.append(partial(_contract, "ijnhx,ijx->nhx", rows,
                                 stage.taps, out.reshape(n, ho, wo * c)))
        else:
            acc = self.acc32[:n * ho * width].reshape(n, ho, width)
            calls += [partial(_contract, "ijnhx,ijx->nhx", rows,
                              stage.taps, acc),
                      partial(np.copyto, out,
                              acc.reshape(n, ho, -1, c)[:, :, ::stride])]
        for i0 in range(0, n, rec["block_imgs"]):
            calls += self._epilogue(rec, views, out, i0,
                                    min(n, i0 + rec["block_imgs"]))
        return calls

    def _padded(self, rec: Dict, x: np.ndarray,
                calls: List[Call]) -> np.ndarray:
        """The block ``x`` padded with the input zero point in the shared
        pad workspace (raw-code padding == shifted zeros); appends the
        two calls that write it."""
        if not rec["needs_pad"]:
            return x
        stage = rec["stage"]
        h, w, cin = stage.in_shape
        ph, pw = rec["padded_hw"]
        ni = x.shape[0]
        block = self.pad[:ni * ph * pw * cin].reshape(ni, ph, pw, cin)
        (h0, _), (w0, _) = rec["pad_h"], rec["pad_w"]
        calls += [partial(block.fill, stage.in_zp),
                  partial(np.copyto, block[:, h0:h0 + h, w0:w0 + w, :], x)]
        return block

    def _epilogue(self, rec: Dict, views: Dict[int, np.ndarray],
                  out: np.ndarray, i0: int, i1: int) -> List[Call]:
        """Bias, requantize, residual, zero point and clamp, in place.

        Bound on images ``[i0, i1)`` of the stage's int32 accumulators
        ``out``, read as one ``ho*wo*cout`` row per image — the length
        the stage's operands are tiled to — and writing the output codes
        over them, bit-identical to the reference's chain.
        """
        stage = rec["stage"]
        acc = out.reshape(out.shape[0], -1)[i0:i1]
        work = self.work[:acc.size].reshape(acc.shape)
        residual = None
        if stage.residual_from is not None:
            saved = views[stage.residual_from - 1]
            residual = (saved.reshape(saved.shape[0], -1)[i0:i1],
                        stage.res_rq,
                        self.work_res[:acc.size].reshape(acc.shape))
        return [partial(np.add, acc, stage.bias_fused, acc),
                *epilogue_calls(acc, stage.rq, stage.clamp_lo,
                                stage.clamp_hi, work, residual)]

    def _bind_gap(self, rec: Dict, views: Dict[int, np.ndarray],
                  n: int) -> List[Call]:
        """Rounded integer mean over each image's pixels, then the clamp."""
        stage = rec["stage"]
        x = views[rec["in_value"]]
        out = views[rec["out_value"]]
        count = x.shape[1] * x.shape[2]
        work = self.work[:out.size].reshape(out.shape)
        return [partial(np.add.reduce, x, (1, 2), np.int64, work),
                partial(np.add, work, count // 2, work),
                partial(np.floor_divide, work, count, work),
                partial(np.maximum, work, stage.clamp_lo, out=work),
                partial(np.minimum, work, stage.clamp_hi, out=out)]

    def _bind_dense(self, rec: Dict, views: Dict[int, np.ndarray],
                    n: int) -> List[Call]:
        """The classifier's contraction, bias and float64 dequantization."""
        stage = rec["stage"]
        logits = views[rec["out_value"]]
        acc = self.acc32[:logits.size].reshape(logits.shape)
        return [partial(_contract, stage.contraction,
                        views[rec["in_value"]], stage.w2d, acc),
                partial(np.add, acc, stage.bias_fused, acc),
                partial(np.multiply, acc, stage.out_scale, logits),
                partial(np.add, logits, stage.out_bias, logits)]

    # -- execution ------------------------------------------------------------
    def run_batch_into(self, x: np.ndarray, logits: np.ndarray) -> None:
        """Execute one batch of float images into a float32 logits view."""
        bound = self._bound_for(int(x.shape[0]))
        with prof.kernel("infer.quantize_input"):
            if x.dtype != np.float32:
                # off the planned path: reproduce the reference dtype exactly
                np.copyto(bound.views[-1], input_codes(self.input_grid, x))
            else:
                np.divide(x, self.input_grid.scale, out=bound.scratch)
                for call in bound.quantize:
                    call()
        self._execute(bound, 0, len(self.stages))
        np.copyto(logits, bound.views[len(self.stages) - 1],
                  casting="same_kind")

    def step(self, codes: np.ndarray, start: int, stop: int,
             saved: Mapping[int, np.ndarray]) -> np.ndarray:
        """Teacher-force stages ``[start, stop)`` on input ``codes``.

        ``saved`` maps residual-source stage indices to their input
        codes.  Only sources below ``start`` are seeded: a later one is
        the segment's own output, and its slot may share arena space
        with tensors the segment reads first.  Runs the same bound calls
        as :meth:`run_batch_into`.  Returns a copy of stage ``stop - 1``'s
        output (float32 logits for the final Dense).
        """
        bound = self._bound_for(int(codes.shape[0]))
        views = bound.views
        for index in range(start, stop):
            source = self.stages[index].residual_from
            if source is not None and source < start:
                np.copyto(views[source - 1], saved[source])
        np.copyto(views[start - 1], codes)
        self._execute(bound, start, stop)
        return views[stop - 1].astype(
            np.float32 if stop == len(self.stages) else np.int32)

    def _execute(self, bound: _Bound, start: int, stop: int) -> None:
        """Run stages ``[start, stop)``'s bound calls, one span and one
        kernel timer per stage."""
        recorder = get_recorder()
        for index in range(start, stop):
            kernel, calls = self._kernels[index], bound.calls[index]
            if recorder.enabled:
                stage = self.stages[index]
                with recorder.span(f"infer.{stage.name}", op=stage.kind,
                                   out_shape=list(stage.out_shape)), \
                        prof.kernel(kernel):
                    for call in calls:
                        call()
            else:
                with prof.kernel(kernel):
                    for call in calls:
                        call()


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
        return input_codes(self.input_grid, x)

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
        for start in range(0, n, batch_size):
            batch = x[start:start + batch_size]
            with recorder.span("infer.batch", images=int(batch.shape[0])):
                executor.run_batch_into(
                    batch, logits[start:start + batch.shape[0]])
            if recorder.enabled:
                recorder.counter("infer.images", int(batch.shape[0]))
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
