"""Schema validation for event logs (tier-1 guard).

Also runs ``scripts/check_schema.py`` against a real traced run and a
malformed event log, so a schema break in either fails the suite.
"""

import subprocess
import sys
from pathlib import Path

from repro.obs.host import host_metadata
from repro.obs.schema import validate_events, validate_events_file
from repro.obs.trace import EVENTS_FILENAME, read_events

REPO_ROOT = Path(__file__).resolve().parents[2]


def _span(span_id, parent=None, kind="phase", name="train", dur=0.1):
    return {"type": "span", "kind": kind, "name": name, "span": span_id,
            "parent": parent, "trial": 0, "t_wall": 0.0, "dur_s": dur,
            "tags": {}}


class TestEventValidation:
    def test_valid_stream(self):
        events = [
            {"type": "meta", "schema": 1, "run": "demo"},
            _span(1, kind="run", name="run"),
            _span(2, parent=1),
            {"type": "gauge", "name": "x", "value": 1.0, "trial": 0,
             "tags": {}},
        ]
        assert validate_events(events) == []

    def test_unknown_type_flagged(self):
        assert validate_events([{"type": "bogus"}])

    def test_missing_span_field_flagged(self):
        bad = _span(1)
        del bad["dur_s"]
        assert any("dur_s" in p for p in validate_events([bad]))

    def test_duplicate_span_id_flagged(self):
        assert any("duplicate" in p
                   for p in validate_events([_span(1), _span(1)]))

    def test_dangling_parent_flagged(self):
        assert any("references no span" in p
                   for p in validate_events([_span(2, parent=99)]))

    def test_parent_closing_after_child_is_valid(self):
        # children are emitted before their parents (exit order)
        assert validate_events([_span(2, parent=1), _span(1)]) == []

    def test_negative_duration_flagged(self):
        assert any("dur_s" in p
                   for p in validate_events([_span(1, dur=-1.0)]))

    def test_wrong_meta_schema_flagged(self):
        assert validate_events([{"type": "meta", "schema": 99}])

    def test_non_numeric_metric_flagged(self):
        bad = {"type": "gauge", "name": "x", "value": "high", "trial": 0,
               "tags": {}}
        assert any("number" in p for p in validate_events([bad]))


class TestTracedRunValidates:
    def test_real_event_log_is_schema_clean(self, traced_run):
        run_dir, _ = traced_run
        assert validate_events_file(run_dir) == []
        assert validate_events(read_events(run_dir)) == []


class TestSchemaProfileEvents:
    def test_valid_profile_event(self):
        event = {"type": "profile", "scope": "kernel",
                 "name": "nn.conv2d.fwd", "phase": "train",
                 "mode": "time", "trial": 0, "calls": 3, "excl_s": 0.1,
                 "incl_s": 0.2, "allocs": None, "peak_bytes": None,
                 "net_bytes": None, "tags": {}}
        assert validate_events([event]) == []

    def test_bad_scope_and_counts_flagged(self):
        problems = validate_events([
            {"type": "profile", "scope": "bogus", "name": "k",
             "phase": "", "mode": "time", "trial": None, "calls": -1,
             "excl_s": -0.5, "incl_s": 0.0, "tags": {}}])
        assert any("scope" in p for p in problems)
        assert any("calls" in p for p in problems)
        assert any("excl_s" in p for p in problems)

    def test_unknown_type_still_flagged(self):
        assert validate_events([{"type": "bogus"}])


class TestHostMetadata:
    def test_metadata_has_host_keys(self):
        host = host_metadata()
        for key in ("platform", "python", "numpy", "cpus", "cpu"):
            assert key in host


class TestCheckSchemaScript:
    def _run(self, *paths):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts/check_schema.py"),
             *map(str, paths)],
            capture_output=True, text=True, cwd=REPO_ROOT)

    def test_check_schema_script_passes(self, traced_run):
        run_dir, _ = traced_run
        proc = self._run(run_dir)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "ok" in proc.stdout

    def test_check_schema_script_fails_on_bad_file(self, tmp_path):
        bad = tmp_path / EVENTS_FILENAME
        bad.write_text('{"type": "meta", "schema": 99}\n'
                       '{"type": "span", "kind": "phase"}\n'
                       'not json\n')
        proc = self._run(bad)
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout
