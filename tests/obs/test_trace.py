"""Tracing core: spans, recorders, ingest rebasing, JSONL round-trip."""

import io
import json
import sys
import threading

import pytest

from repro.obs.trace import (EVENTS_FILENAME, NULL_RECORDER, Recorder,
                             RunTracer, TraceRecorder, get_recorder,
                             read_events, set_recorder, span, use_recorder)


class TestNoOpRecorder:
    def test_default_recorder_is_noop(self):
        assert get_recorder() is NULL_RECORDER
        assert not get_recorder().enabled

    def test_span_times_even_when_disabled(self):
        with NULL_RECORDER.span("work") as s:
            total = sum(range(1000))
        assert total == 499500
        assert s.duration > 0
        assert s.span_id is None  # no id assignment under the no-op

    def test_metrics_are_discarded(self):
        NULL_RECORDER.counter("c")
        NULL_RECORDER.gauge("g", 1.0)
        NULL_RECORDER.observe("h", 1.0)
        NULL_RECORDER.meta(x=1)
        NULL_RECORDER.ingest([{"type": "span"}])  # all no-ops, no state

    def test_elapsed_while_open(self):
        with NULL_RECORDER.span("work") as s:
            early = s.elapsed()
            sum(range(1000))
            late = s.elapsed()
        assert 0 <= early <= late <= s.duration


class TestTraceRecorder:
    def test_span_hierarchy_and_trial_inheritance(self):
        rec = TraceRecorder()
        with rec.span("run", kind="run"):
            with rec.span("trial", kind="trial", trial=7):
                with rec.span("train", kind="phase"):
                    pass
        events = [e for e in rec.events if e["type"] == "span"]
        by_name = {e["name"]: e for e in events}
        assert by_name["train"]["parent"] == by_name["trial"]["span"]
        assert by_name["trial"]["parent"] == by_name["run"]["span"]
        assert by_name["run"]["parent"] is None
        # phase inherits the trial index from its parent span
        assert by_name["train"]["trial"] == 7

    def test_metric_inherits_trial_from_open_span(self):
        rec = TraceRecorder()
        with rec.span("trial", kind="trial", trial=3):
            rec.gauge("score", 1.5)
        event = [e for e in rec.events if e["type"] == "gauge"][0]
        assert event["trial"] == 3
        assert event["value"] == 1.5

    def test_ingest_rebases_span_ids(self):
        worker = TraceRecorder()
        with worker.span("trial", kind="trial", trial=0):
            with worker.span("train", kind="phase"):
                pass
        parent = TraceRecorder()
        with parent.span("run", kind="run") as run_span:
            parent.ingest(worker.events)
            with parent.span("late", kind="phase"):
                pass
        spans = {e["name"]: e for e in parent.events if e["type"] == "span"}
        # worker ids shifted past the parent's, orphan rooted at run span
        assert spans["trial"]["parent"] == run_span.span_id
        assert spans["train"]["parent"] == spans["trial"]["span"]
        ids = [e["span"] for e in parent.events if e["type"] == "span"]
        assert len(ids) == len(set(ids))  # no collisions after rebase

    def test_ingest_none_is_noop(self):
        rec = TraceRecorder()
        rec.ingest(None)
        rec.ingest([])
        assert rec.events == []

    def test_sink_streams_jsonl(self):
        sink = io.StringIO()
        rec = TraceRecorder(sink=sink)
        rec.gauge("x", 2.0)
        lines = sink.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["value"] == 2.0

    def test_sinked_recorder_keeps_nothing_in_memory(self):
        """A long-lived daemon's recorder must not grow with its log."""
        sink = io.StringIO()
        rec = TraceRecorder(sink=sink)
        for i in range(50):
            with rec.span("serve.batch", images=1):
                rec.observe("serve.m.latency_s", 0.001 * i)
        assert len(sink.getvalue().splitlines()) == 100
        assert rec.events == []

    def test_concurrent_emit_never_tears(self):
        """Serve worker and handler threads share one sinked recorder:
        every event lands as one whole line, span ids stay unique."""
        sink = io.StringIO()
        rec = TraceRecorder(sink=sink)
        n_threads, per_thread = 8, 200

        def emit():
            for i in range(per_thread):
                with rec.span("serve.batch", images=1):
                    rec.observe("serve.m.latency_s", i * 1e-3)
                rec.counter("serve.m.shed")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=emit)
                       for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert len(events) == 3 * n_threads * per_thread
        spans = [e["span"] for e in events if e["type"] == "span"]
        assert len(spans) == len(set(spans)) == n_threads * per_thread

    def test_meta_carries_schema_version(self):
        rec = TraceRecorder()
        rec.meta(run="demo")
        assert rec.events[0]["schema"] == 1
        assert rec.events[0]["run"] == "demo"


class TestCurrentRecorder:
    def test_use_recorder_scopes_and_restores(self):
        rec = TraceRecorder()
        with use_recorder(rec):
            assert get_recorder() is rec
            with span("work"):
                pass
        assert get_recorder() is NULL_RECORDER
        assert any(e["type"] == "span" for e in rec.events)

    def test_set_recorder_none_restores_noop(self):
        previous = set_recorder(TraceRecorder())
        assert previous is NULL_RECORDER
        set_recorder(None)
        assert get_recorder() is NULL_RECORDER


class TestRunTracer:
    def test_writes_event_log(self, tmp_path):
        run_dir = tmp_path / "run"
        with RunTracer(run_dir) as tracer:
            with use_recorder(tracer.recorder):
                with span("run", kind="run"):
                    get_recorder().gauge("x", 1.0)
        assert (run_dir / EVENTS_FILENAME).exists()
        events = read_events(run_dir)
        assert {e["type"] for e in events} == {"span", "gauge"}

    def test_close_is_idempotent(self, tmp_path):
        tracer = RunTracer(tmp_path / "run")
        tracer.close()
        tracer.close()
