"""The kernel/phase profiler: attribution, determinism, and overhead.

The profiler's core contract mirrors the tracer's: enabling it must
never change a search result (it reads clocks, never RNGs), and the
default path must stay pay-for-what-you-use (a no-op timer when no
profiler is active).
"""

import time

import numpy as np
import pytest

from repro.env import EnvVarError
from repro.nas import BOMPNAS
from repro.obs import profile
from repro.obs.profile import (KernelProfiler, kernel, mode_from_env,
                               use_profiler)
from repro.obs.trace import TraceRecorder


@pytest.fixture(scope="module")
def serial_run(unit_scale):
    from repro.data import make_synthetic_dataset
    from repro.nas import SearchConfig, get_mode
    dataset = make_synthetic_dataset(
        "tiny-prof", num_classes=10, n_train=unit_scale.n_train,
        n_test=unit_scale.n_test, image_size=unit_scale.image_size, seed=3)
    config = SearchConfig(dataset="cifar10", mode=get_mode("mp_qaft"),
                          scale=unit_scale, seed=0)
    serial = BOMPNAS(config, dataset).run(final_training=False, workers=1)
    return config, dataset, serial


class TestModeFromEnv:
    @pytest.mark.parametrize("value", ["", "0", "off", "false", "no"])
    def test_disabled_values(self, value):
        assert mode_from_env({"BOMP_PROFILE": value}) is None

    def test_unset(self):
        assert mode_from_env({}) is None

    @pytest.mark.parametrize("value", ["1", "time", "on", "yes"])
    def test_time_values(self, value):
        assert mode_from_env({"BOMP_PROFILE": value}) == "time"

    @pytest.mark.parametrize("value", ["true", "TRUE", " True "])
    def test_true_selects_time(self, value):
        assert mode_from_env({"BOMP_PROFILE": value}) == "time"

    @pytest.mark.parametrize("value", ["alloc", "allocs", "mem", "memory"])
    def test_alloc_values(self, value):
        assert mode_from_env({"BOMP_PROFILE": value}) == "alloc"

    @pytest.mark.parametrize("value", ["banana", "3", "timee", "on off"])
    def test_unknown_spelling_refused(self, value):
        with pytest.raises(ValueError) as info:
            mode_from_env({"BOMP_PROFILE": value})
        assert isinstance(info.value, EnvVarError)
        assert "BOMP_PROFILE" in str(info.value)
        assert repr(value) in str(info.value)


class TestKernelTimer:
    def test_null_timer_when_inactive(self):
        assert profile.current() is None
        timer = kernel("nn.whatever")
        assert timer is profile._NULL_TIMER
        with timer:
            pass  # must be a harmless no-op

    def test_counts_and_times(self):
        profiler = KernelProfiler()
        with use_profiler(profiler):
            for _ in range(3):
                with kernel("k"):
                    pass
        stat = profiler.kernels[("", "k")]
        assert stat.calls == 3
        assert stat.incl_s >= 0.0
        assert stat.excl_s <= stat.incl_s + 1e-9

    def test_nesting_splits_exclusive_time(self):
        profiler = KernelProfiler()
        with use_profiler(profiler):
            with kernel("outer"):
                time.sleep(0.01)
                with kernel("inner"):
                    time.sleep(0.02)
        outer = profiler.kernels[("", "outer")]
        inner = profiler.kernels[("", "inner")]
        # outer's exclusive time excludes the inner sleep
        assert outer.incl_s >= outer.excl_s + inner.incl_s - 1e-3
        assert inner.incl_s >= 0.02 - 1e-3
        assert outer.excl_s < outer.incl_s

    def test_phase_attribution_via_spans(self):
        profiler = KernelProfiler()
        recorder = TraceRecorder()
        from repro.obs.trace import use_recorder
        with use_recorder(recorder), use_profiler(profiler):
            with recorder.span("train", kind="phase"):
                with kernel("k"):
                    pass
            with recorder.span("eval", kind="phase"):
                with kernel("k"):
                    pass
        assert ("train", "k") in profiler.kernels
        assert ("eval", "k") in profiler.kernels

    def test_time_mode_phase_span_carries_no_memory_tag(self):
        """The span is the phase's one record; time mode adds nothing to
        it, and the profiler flushes no phase-scope event."""
        profiler = KernelProfiler()
        recorder = TraceRecorder()
        from repro.obs.trace import use_recorder
        with use_recorder(recorder), use_profiler(profiler):
            with recorder.span("train", kind="phase"):
                with kernel("k"):
                    np.zeros(16)
        profiler.flush_to(recorder)
        [span] = [e for e in recorder.events if e["type"] == "span"]
        assert span["tags"] == {}
        assert [e["scope"] for e in recorder.events
                if e["type"] == "profile"] == ["kernel"]

    def test_flush_emits_valid_events_and_resets(self):
        from repro.obs.schema import validate_events
        profiler = KernelProfiler()
        recorder = TraceRecorder()
        with use_profiler(profiler):
            with kernel("k"):
                pass
        count = profiler.flush_to(recorder, trial=7)
        assert count == 1
        [event] = [e for e in recorder.events if e["type"] == "profile"]
        assert event["scope"] == "kernel"
        assert event["trial"] == 7
        assert event["mode"] == "time"
        assert validate_events([event]) == []
        assert profiler.kernels == {}  # flushed stats are gone

    def test_restores_previous_profiler(self):
        outer_profiler = KernelProfiler()
        inner_profiler = KernelProfiler()
        with use_profiler(outer_profiler):
            with use_profiler(inner_profiler):
                assert profile.current() is inner_profiler
            assert profile.current() is outer_profiler
        assert profile.current() is None


#: one valid call per counted constructor, applied to a small float array
CONSTRUCTOR_ARGS = {
    "empty": lambda a: ((4,),), "zeros": lambda a: ((4,),),
    "ones": lambda a: ((4,),), "full": lambda a: ((4,), 1.0),
    "empty_like": lambda a: (a,), "zeros_like": lambda a: (a,),
    "ones_like": lambda a: (a,), "full_like": lambda a: (a, 1.0),
    "pad": lambda a: (a, 1), "concatenate": lambda a: ([a, a],),
    "ascontiguousarray": lambda a: (a[::2],), "copy": lambda a: (a,),
}


class TestAllocMode:
    @pytest.mark.parametrize("name", profile.NDARRAY_CONSTRUCTORS)
    def test_every_constructor_counted(self, name):
        """Each constructor and copying helper of the set, the ``*_like``
        ones included, is counted while an alloc-mode profiler is active
        and is numpy's own function again afterwards."""
        original = getattr(np, name)
        profiler = KernelProfiler("alloc")
        with use_profiler(profiler):
            getattr(np, name)(*CONSTRUCTOR_ARGS[name](np.arange(4.0)))
        assert profiler.alloc_count >= 1
        assert getattr(np, name) is original

    def test_counts_ndarray_allocations(self):
        profiler = KernelProfiler("alloc")
        with use_profiler(profiler):
            with kernel("k"):
                np.zeros(16)
                np.empty(16)
        stat = profiler.kernels[("", "k")]
        assert stat.allocs >= 2

    def test_constructors_restored_after(self):
        unwrapped = np.zeros
        profiler = KernelProfiler("alloc")
        with use_profiler(profiler):
            assert np.zeros is not unwrapped
        assert np.zeros is unwrapped

    def test_phase_peak_bytes_tracked(self):
        """Alloc mode writes the phase's memory figures into its span."""
        profiler = KernelProfiler("alloc")
        recorder = TraceRecorder()
        from repro.obs.trace import use_recorder
        with use_recorder(recorder), use_profiler(profiler):
            with recorder.span("train", kind="phase"):
                buf = np.zeros(1 << 16)  # 512 KiB
                del buf
        [span] = [e for e in recorder.events if e["type"] == "span"]
        assert set(span["tags"]) == {"allocs", "peak_bytes", "net_bytes"}
        assert span["tags"]["peak_bytes"] >= (1 << 16) * 8
        assert span["tags"]["allocs"] >= 1

    def test_nested_alloc_profilers_compose(self):
        outer_profiler = KernelProfiler("alloc")
        inner_profiler = KernelProfiler("alloc")
        unwrapped = np.zeros
        with use_profiler(outer_profiler):
            with use_profiler(inner_profiler):
                with kernel("k"):
                    np.zeros(8)
            # outer is active again and still counting
            with kernel("k2"):
                np.zeros(8)
        assert np.zeros is unwrapped
        assert inner_profiler.kernels[("", "k")].allocs >= 1
        assert outer_profiler.kernels[("", "k2")].allocs >= 1


class TestProfileInvariance:
    """--profile must never change results (same contract as --trace)."""

    def test_profiled_serial_identical(self, serial_run, tmp_path,
                                       monkeypatch):
        from repro.obs.trace import RunTracer, read_events
        config, dataset, serial = serial_run
        monkeypatch.setenv(profile.PROFILE_ENV, "1")
        with RunTracer(tmp_path / "run") as tracer:
            profiled = BOMPNAS(config, dataset).run(
                final_training=False, workers=1, tracer=tracer)
        assert [t.genome for t in profiled.trials] == \
            [t.genome for t in serial.trials]
        assert [t.score for t in profiled.trials] == \
            [t.score for t in serial.trials]
        assert [t.accuracy for t in profiled.trials] == \
            [t.accuracy for t in serial.trials]
        assert [t.size_bits for t in profiled.trials] == \
            [t.size_bits for t in serial.trials]
        events = read_events(tmp_path / "run")
        prof_events = [e for e in events if e["type"] == "profile"]
        assert prof_events, "profiled run emitted no profile events"
        assert {e["phase"] for e in prof_events
                if e["scope"] == "kernel"} >= {"train", "ptq", "qaft",
                                               "eval"}

    def test_profiled_parallel_identical(self, serial_run, tmp_path,
                                         monkeypatch):
        from repro.obs.schema import validate_events
        from repro.obs.trace import RunTracer, read_events
        config, dataset, serial = serial_run
        monkeypatch.setenv(profile.PROFILE_ENV, "1")
        with RunTracer(tmp_path / "run2") as tracer:
            profiled = BOMPNAS(config, dataset).run(
                final_training=False, workers=2, tracer=tracer)
        assert [t.score for t in profiled.trials] == \
            [t.score for t in serial.trials]
        assert [t.accuracy for t in profiled.trials] == \
            [t.accuracy for t in serial.trials]
        events = read_events(tmp_path / "run2")
        assert validate_events(events) == []
        # every trial's kernels were shipped back and attributed
        kernel_trials = {e["trial"] for e in events
                        if e["type"] == "profile"
                        and e["scope"] == "kernel"}
        assert kernel_trials >= {t.index for t in serial.trials}

    def test_one_record_per_phase_and_batch(self, serial_run, tmp_path,
                                            monkeypatch):
        """A profiled ``workers=2`` search records each phase by its span
        alone and each pool batch by one ``pool.batch`` span whose
        children are the batch's trial spans."""
        from repro.obs.trace import RunTracer, read_events
        config, dataset, serial = serial_run
        monkeypatch.setenv(profile.PROFILE_ENV, "1")
        with RunTracer(tmp_path / "run3") as tracer:
            BOMPNAS(config, dataset).run(final_training=False, workers=2,
                                         tracer=tracer)
        events = read_events(tmp_path / "run3")
        assert not [e for e in events if e["type"] == "profile"
                    and e["scope"] != "kernel"]
        names = {e.get("name") for e in events}
        assert not names & {"pool.batch_wall_s", "pool.utilisation",
                            "pool.skew", "pool.task_s", "pool.queue_wait_s"}
        spans = {e["span"]: e for e in events if e["type"] == "span"}
        trials = [e for e in spans.values() if e["kind"] == "trial"]
        assert sorted(e["trial"] for e in trials) == \
            [t.index for t in serial.trials]
        children = {}
        for trial in trials:
            batch = spans[trial["parent"]]
            assert (batch["kind"], batch["name"]) == ("span", "pool.batch")
            assert trial["t_wall"] >= batch["t_wall"]  # queue wait >= 0
            children[batch["span"]] = children.get(batch["span"], 0) + 1
        for span_id, count in children.items():
            assert spans[span_id]["tags"]["tasks"] == count
            assert spans[span_id]["tags"]["workers"] == 2

    def test_alloc_mode_identical(self, serial_run, tmp_path, monkeypatch):
        from repro.obs.trace import RunTracer, read_events
        config, dataset, serial = serial_run
        monkeypatch.setenv(profile.PROFILE_ENV, "alloc")
        with RunTracer(tmp_path / "run4") as tracer:
            profiled = BOMPNAS(config, dataset).run(
                final_training=False, workers=1, tracer=tracer)
        assert [t.score for t in profiled.trials] == \
            [t.score for t in serial.trials]
        events = read_events(tmp_path / "run4")
        kernels = [e for e in events if e["type"] == "profile"
                   and e["scope"] == "kernel"]
        assert any(e["allocs"] for e in kernels), \
            "alloc mode counted no ndarray allocations"

    def test_untraced_run_emits_nothing(self, serial_run, monkeypatch):
        # BOMP_PROFILE without --trace must not activate a profiler
        config, dataset, serial = serial_run
        monkeypatch.setenv(profile.PROFILE_ENV, "1")
        plain = BOMPNAS(config, dataset).run(final_training=False,
                                             workers=1)
        assert [t.score for t in plain.trials] == \
            [t.score for t in serial.trials]
        assert profile.current() is None


@pytest.mark.bench
class TestOverhead:
    def test_time_mode_overhead_under_3_percent(self, serial_run,
                                                tmp_path, monkeypatch):
        """Acceptance: profiling overhead < 3% on the search hot path.

        ``--profile`` implies ``--trace``, so the honest baseline is a
        *traced* run and the overhead is the profiler's own cost (kernel
        timers + phase hooks + flush).  Each variant is timed twice back
        to back on a warm cache and the better time wins, which filters
        scheduler noise.
        """
        from repro.obs.trace import RunTracer
        config, dataset, _ = serial_run
        runs = iter(range(100))

        def timed(profiled):
            if profiled:
                monkeypatch.setenv(profile.PROFILE_ENV, "1")
            else:
                monkeypatch.delenv(profile.PROFILE_ENV, raising=False)
            start = time.perf_counter()
            with RunTracer(tmp_path / f"run{next(runs)}") as tracer:
                BOMPNAS(config, dataset).run(final_training=False,
                                             workers=1, tracer=tracer)
            return time.perf_counter() - start

        timed(False)  # warmup
        traced = min(timed(False), timed(False))
        profiled = min(timed(True), timed(True))
        overhead = profiled / traced - 1.0
        assert overhead < 0.03, \
            f"profiling overhead {overhead:.1%} >= 3%"
