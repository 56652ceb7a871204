"""Validators for the files a run directory holds.

The JSONL event log (``events.jsonl``) is an append-only contract read
by ``repro report``, and every run kind writes it: search, infer and
serve.  :func:`validate_path` also dispatches search checkpoints
(``checkpoint.json``) to their owner's validator.  Each function
returns a list of human-readable problems — empty means valid — so
callers can aggregate across files.  ``scripts/check_schema.py`` is the
CLI wrapper; the pytest suite runs the same checks as a tier-1 test.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

from .trace import (EVENT_TYPES, SPAN_KINDS, TRACE_SCHEMA_VERSION,
                    events_path, read_events_tolerant)

#: fields every span event must carry
SPAN_FIELDS = ("kind", "name", "span", "parent", "trial", "t_wall",
               "dur_s", "tags")

#: fields every metric event must carry
METRIC_FIELDS = ("name", "value", "trial", "tags")

#: fields every profile event must carry (see :mod:`repro.obs.profile`)
PROFILE_FIELDS = ("scope", "name", "phase", "mode", "trial", "calls",
                  "excl_s", "incl_s", "tags")

#: valid ``scope`` values of a profile event (a phase's figures live on
#: its span)
PROFILE_SCOPES = ("kernel",)


def _problem(index: int, message: str) -> str:
    return f"event {index}: {message}"


def validate_events(events: Sequence[Dict[str, Any]]) -> List[str]:
    """Validate a parsed event stream; returns problems (empty = valid)."""
    problems: List[str] = []
    span_ids = set()
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(_problem(index, "not a JSON object"))
            continue
        type_ = event.get("type")
        if type_ not in EVENT_TYPES:
            problems.append(_problem(index, f"unknown type {type_!r}"))
            continue
        if type_ == "meta":
            schema = event.get("schema")
            if schema != TRACE_SCHEMA_VERSION:
                problems.append(_problem(
                    index, f"meta schema {schema!r} != "
                           f"{TRACE_SCHEMA_VERSION}"))
            continue
        if type_ == "span":
            for field in SPAN_FIELDS:
                if field not in event:
                    problems.append(_problem(
                        index, f"span missing field {field!r}"))
            if event.get("kind") not in SPAN_KINDS:
                problems.append(_problem(
                    index, f"unknown span kind {event.get('kind')!r}"))
            span_id = event.get("span")
            if not isinstance(span_id, int):
                problems.append(_problem(index, "span id must be an int"))
            elif span_id in span_ids:
                problems.append(_problem(
                    index, f"duplicate span id {span_id}"))
            else:
                span_ids.add(span_id)
            duration = event.get("dur_s")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(_problem(
                    index, f"dur_s must be a non-negative number, "
                           f"got {duration!r}"))
            if not isinstance(event.get("tags"), dict):
                problems.append(_problem(index, "tags must be an object"))
        elif type_ == "profile":
            for field in PROFILE_FIELDS:
                if field not in event:
                    problems.append(_problem(
                        index, f"profile missing field {field!r}"))
            if event.get("scope") not in PROFILE_SCOPES:
                problems.append(_problem(
                    index, f"unknown profile scope "
                           f"{event.get('scope')!r}"))
            calls = event.get("calls")
            if not isinstance(calls, int) or isinstance(calls, bool) \
                    or calls < 0:
                problems.append(_problem(
                    index, f"profile calls must be a non-negative int, "
                           f"got {calls!r}"))
            for field in ("excl_s", "incl_s"):
                value = event.get(field)
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool) or value < 0:
                    problems.append(_problem(
                        index, f"profile {field} must be a non-negative "
                               f"number, got {value!r}"))
        else:  # counter / gauge / hist
            for field in METRIC_FIELDS:
                if field not in event:
                    problems.append(_problem(
                        index, f"{type_} missing field {field!r}"))
            value = event.get("value")
            if not isinstance(value, (int, float)):
                problems.append(_problem(
                    index, f"{type_} value must be a number, "
                           f"got {value!r}"))
    # parents may close after their children, so resolve after a full pass
    for index, event in enumerate(events):
        if isinstance(event, dict) and event.get("type") == "span":
            parent = event.get("parent")
            if parent is not None and parent not in span_ids:
                problems.append(_problem(
                    index, f"parent {parent} references no span"))
    return problems


def validate_events_file(path: Union[str, Path]) -> List[str]:
    """Validate a JSONL event log (run directory or file path).

    Reads through :func:`~repro.obs.trace.read_events_tolerant`, the
    report's own parser: each of its warnings (no log, an empty log, a
    line that is not a JSON object) is a problem here.
    """
    events, problems = read_events_tolerant(path)
    resolved = events_path(path)
    return problems + [f"{resolved}: {p}" for p in validate_events(events)]


def validate_path(path: Union[str, Path]) -> List[str]:
    """Dispatch on path shape: checkpoint, event log, or run directory."""
    path = Path(path)
    if path.is_file() and path.name == "checkpoint.json":
        from ..resilience.checkpoint import validate_checkpoint_file
        return validate_checkpoint_file(path)
    return validate_events_file(path)
