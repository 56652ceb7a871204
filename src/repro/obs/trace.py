"""Zero-dependency hierarchical tracing core.

The BOMP-NAS loop is a pipeline of expensive stages (early train -> PTQ ->
QAFT -> eval -> GP update); this module records it as a stream of *events*:

- **spans** — timed sections forming a hierarchy
  ``run > pool.batch > trial > phase{train,ptq,qaft,eval} > epoch`` with
  wall-clock start, monotonic duration and free-form tags;
- **metrics** — raw counter, gauge and histogram observations, one
  event each, emitted alongside the spans; readers such as ``repro
  report`` aggregate them from the log (exact percentiles, no buckets).

Instrumentation is pay-for-what-you-use: the process-wide *current
recorder* defaults to a :class:`Recorder` no-op whose methods discard
everything, so instrumented code costs two ``perf_counter`` reads per span
and nothing per metric.  Installing a :class:`TraceRecorder` (via
:func:`use_recorder`, a :class:`RunTracer`, or the CLI ``--trace`` flag)
turns the same call sites into an in-memory event list or, given a sink,
a line-buffered JSONL stream.

Spans *always* time themselves — callers may read ``span.duration`` after
the ``with`` block even under the no-op recorder — which is what lets
:mod:`repro.nas.search` derive ``TrialResult.phase_times`` from spans
instead of hand-threaded ``perf_counter`` arithmetic.

Worker processes collect their trial events with a private
:class:`TraceRecorder` and ship them back through the ``TrialOutcome``
protocol; :meth:`TraceRecorder.ingest` rebases their span ids under the
current span so parallel runs produce one coherent stream.

:class:`TraceRecorder` is additionally safe to share across *threads*
(the serving daemon records spans from its HTTP handler and batch-worker
threads): the open-span stack is thread-local — each thread nests its own
spans under its own ancestry — while span-id allocation and event
emission are serialized under one lock, so the JSONL stream never tears
and ids stay unique.  Single-threaded runs see the exact same event
stream as before, which is what keeps traced searches bit-identical.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from . import profile as _profile

#: bump when an event field is renamed/removed (additions are compatible)
TRACE_SCHEMA_VERSION = 1

#: the span hierarchy, outermost first ("span" is the free-form catch-all)
SPAN_KINDS = ("run", "trial", "phase", "epoch", "span")

#: every event ``type`` a stream may contain
EVENT_TYPES = ("meta", "span", "counter", "gauge", "hist", "profile")

#: default event-log filename inside a run directory
EVENTS_FILENAME = "events.jsonl"


class Span:
    """One timed section; a context manager that always measures.

    Under the no-op recorder the span still records ``duration`` (two
    ``perf_counter`` reads) but gets no id and emits nothing.  An enabled
    recorder assigns ``span_id``/``parent_id`` on entry and serializes the
    span as an event on exit.
    """

    __slots__ = ("recorder", "name", "kind", "trial", "tags", "span_id",
                 "parent_id", "t_wall", "duration", "_t0")

    def __init__(self, recorder: "Recorder", name: str, kind: str = "span",
                 trial: Optional[int] = None,
                 tags: Optional[Dict[str, Any]] = None) -> None:
        self.recorder = recorder
        self.name = name
        self.kind = kind
        self.trial = trial
        self.tags = tags if tags is not None else {}
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.t_wall = 0.0
        self.duration = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        self.t_wall = time.time()
        self._t0 = time.perf_counter()
        self.recorder._span_started(self)
        if self.kind == "phase" and _profile._active is not None:
            _profile._active.phase_started(self.name)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.duration = time.perf_counter() - self._t0
        if self.kind == "phase" and _profile._active is not None:
            _profile._active.phase_finished(self)
        self.recorder._span_finished(self)

    def elapsed(self) -> float:
        """Seconds since entry (usable while the span is still open)."""
        return time.perf_counter() - self._t0

    def as_event(self) -> Dict[str, Any]:
        return {"type": "span", "kind": self.kind, "name": self.name,
                "span": self.span_id, "parent": self.parent_id,
                "trial": self.trial, "t_wall": self.t_wall,
                "dur_s": self.duration, "tags": self.tags}


class Recorder:
    """The no-op recorder — also the base class for real ones.

    Every instrumentation hook goes through this interface, so the default
    cost of tracing-off is one attribute read (``enabled``) per metric and
    one :class:`Span` allocation per span.
    """

    enabled = False

    def span(self, name: str, kind: str = "span",
             trial: Optional[int] = None, **tags: Any) -> Span:
        return Span(self, name, kind=kind, trial=trial, tags=tags or None)

    def event(self, payload: Dict[str, Any]) -> None:
        pass

    def counter(self, name: str, value: Union[int, float] = 1,
                trial: Optional[int] = None, **tags: Any) -> None:
        pass

    def gauge(self, name: str, value: float,
              trial: Optional[int] = None, **tags: Any) -> None:
        pass

    def observe(self, name: str, value: float,
                trial: Optional[int] = None, **tags: Any) -> None:
        pass

    def meta(self, **payload: Any) -> None:
        pass

    def ingest(self, events: Optional[List[Dict[str, Any]]]) -> None:
        pass

    # span lifecycle hooks (no-ops here)
    def _span_started(self, span: Span) -> None:
        pass

    def _span_finished(self, span: Span) -> None:
        pass


class TraceRecorder(Recorder):
    """Collects events in memory, or streams them to a JSONL sink.

    Args:
        sink: optional writable text stream; every event is written as one
            JSON line and flushed immediately, so piped/tailed logs stream
            and a crashed run keeps everything recorded so far.  A sinked
            recorder keeps nothing in memory (``events`` stays empty), so
            a long-lived daemon's memory stays flat.
    """

    enabled = True

    def __init__(self, sink: Optional[Any] = None) -> None:
        self.events: List[Dict[str, Any]] = []
        self.sink = sink
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1

    @property
    def _stack(self) -> List[Span]:
        """The *calling thread's* open-span stack.

        Thread-local so daemon threads each nest their own spans without
        re-parenting each other; the main thread's stream is unchanged.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- span lifecycle ----------------------------------------------------
    def _span_started(self, span: Span) -> None:
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
        stack = self._stack
        if stack:
            span.parent_id = stack[-1].span_id
            if span.trial is None:  # inherit trial index from the parent
                span.trial = stack[-1].trial
        stack.append(span)

    def _span_finished(self, span: Span) -> None:
        stack = self._stack
        while stack and stack[-1] is not span:
            stack.pop()  # tolerate out-of-order exits
        if stack:
            stack.pop()
        self.event(span.as_event())

    def current_span(self) -> Optional[Span]:
        stack = self._stack
        return stack[-1] if stack else None

    # -- event emission ----------------------------------------------------
    def event(self, payload: Dict[str, Any]) -> None:
        with self._lock:
            if self.sink is None:
                self.events.append(payload)
            else:
                self.sink.write(json.dumps(payload) + "\n")
                self.sink.flush()

    def _metric(self, type_: str, name: str, value: Union[int, float],
                trial: Optional[int], tags: Dict[str, Any]) -> None:
        stack = self._stack
        if trial is None and stack:
            trial = stack[-1].trial
        self.event({"type": type_, "name": name, "value": value,
                    "trial": trial, "tags": tags})

    def counter(self, name: str, value: Union[int, float] = 1,
                trial: Optional[int] = None, **tags: Any) -> None:
        self._metric("counter", name, value, trial, tags)

    def gauge(self, name: str, value: float,
              trial: Optional[int] = None, **tags: Any) -> None:
        self._metric("gauge", name, float(value), trial, tags)

    def observe(self, name: str, value: float,
                trial: Optional[int] = None, **tags: Any) -> None:
        self._metric("hist", name, float(value), trial, tags)

    def meta(self, **payload: Any) -> None:
        self.event({"type": "meta", "schema": TRACE_SCHEMA_VERSION,
                    **payload})

    def ingest(self, events: Optional[List[Dict[str, Any]]]) -> None:
        """Merge a worker's event list into this stream.

        Worker span ids live in their own per-trial id space starting at 1;
        they are rebased past ``_next_id`` and orphan spans are parented
        under the currently open span, so the merged stream forms a single
        tree rooted at the run span.
        """
        if not events:
            return
        max_id = max((event.get("span") or 0 for event in events
                      if event.get("type") == "span"), default=0)
        with self._lock:  # reserve the rebased id range atomically
            base = self._next_id
            self._next_id = base + max_id + 1
        parent = self.current_span()
        parent_id = parent.span_id if parent is not None else None
        for source in events:
            payload = dict(source)
            if payload.get("type") == "span":
                span_id = payload.get("span")
                if span_id is not None:
                    payload["span"] = span_id + base
                if payload.get("parent") is None:
                    payload["parent"] = parent_id
                else:
                    payload["parent"] = payload["parent"] + base
            self.event(payload)


#: the process-wide no-op default (shared, stateless)
NULL_RECORDER = Recorder()

_current: Recorder = NULL_RECORDER


def get_recorder() -> Recorder:
    """The current recorder (the no-op singleton unless one is installed)."""
    return _current


def set_recorder(recorder: Optional[Recorder]) -> Recorder:
    """Install ``recorder`` (``None`` -> no-op); returns the previous one."""
    global _current
    previous = _current
    _current = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextmanager
def use_recorder(recorder: Optional[Recorder]) -> Iterator[Recorder]:
    """Scoped :func:`set_recorder`; restores the previous recorder on exit."""
    previous = set_recorder(recorder)
    try:
        yield get_recorder()
    finally:
        set_recorder(previous)


def span(name: str, kind: str = "span", trial: Optional[int] = None,
         **tags: Any) -> Span:
    """A span on the *current* recorder (module-level convenience)."""
    return _current.span(name, kind=kind, trial=trial, **tags)


# -- event-log files -------------------------------------------------------
def events_path(run_dir: Union[str, Path]) -> Path:
    """The event-log path for a run directory (or a direct ``.jsonl`` path)."""
    path = Path(run_dir)
    if path.is_dir() or path.suffix != ".jsonl":
        return path / EVENTS_FILENAME
    return path


def read_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL event log (run directory or file path)."""
    resolved = events_path(path)
    events = []
    with open(resolved) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def read_events_tolerant(
        path: Union[str, Path]) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Parse a JSONL event log, degrading instead of raising.

    Returns ``(events, warnings)``.  A missing file, an empty log, or a
    torn tail (a run killed mid-write leaves a truncated last line) all
    yield whatever *was* parseable plus a human-readable warning, so
    ``repro report`` can still render a partial dashboard for a crashed
    run.  Mid-stream garbage is skipped line-by-line with a warning per
    bad line.
    """
    resolved = events_path(path)
    if not resolved.exists():
        return [], [f"{resolved}: no event log found "
                    f"(was the run traced with --trace?)"]
    events: List[Dict[str, Any]] = []
    warnings: List[str] = []
    try:
        with open(resolved) as handle:
            lines = handle.readlines()
    except OSError as exc:
        return [], [f"{resolved}: unreadable ({exc})"]
    last_line = len(lines)
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            if line_no == last_line:
                warnings.append(
                    f"{resolved}: torn tail at line {line_no} "
                    f"(run killed mid-write?); dropped the partial event")
            else:
                warnings.append(
                    f"{resolved}: invalid JSON at line {line_no}; skipped")
            continue
        if isinstance(event, dict):
            events.append(event)
        else:
            warnings.append(
                f"{resolved}: line {line_no} is not an object; skipped")
    if not events:
        warnings.append(f"{resolved}: event log is empty")
    return events, warnings


class RunTracer:
    """Owns a run directory and streams its event log to disk.

    Create one per traced run; pass it to ``BOMPNAS.run(tracer=...)`` or
    install ``tracer.recorder`` with :func:`use_recorder`.  Use as a
    context manager (or call :meth:`close`) to release the file handle.
    """

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.run_dir / EVENTS_FILENAME
        self._handle = open(self.path, "w")
        self.recorder = TraceRecorder(sink=self._handle)

    def close(self) -> None:
        # under the recorder's lock: another thread may be mid-write
        with self.recorder._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
                self.recorder.sink = None

    def __enter__(self) -> "RunTracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
