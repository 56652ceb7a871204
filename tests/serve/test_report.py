"""The serve SLO table of ``repro report``: exact figures from raw events.

A serving run's ``events.jsonl`` holds a ``meta`` event (serve config),
``serve.batch`` / ``serve.drain`` spans, one ``serve.<model>.latency_s``
histogram event per answered request, and one counter event per shed,
queue-expired or failed request.  The report computes every figure from
those events, so a percentile is an order statistic of the recorded
latencies, never a bucket edge.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.obs.report import ServedModel, load_report, render_text
from repro.obs.schema import validate_events
from repro.obs.trace import EVENTS_FILENAME


def _span(span_id, name, dur=0.01, **tags):
    return {"type": "span", "kind": "span", "name": name, "span": span_id,
            "parent": None, "trial": None, "t_wall": 100.0, "dur_s": dur,
            "tags": tags}


def _metric(type_, name, value):
    return {"type": type_, "name": name, "value": value, "trial": None,
            "tags": {}}


def serve_events(latencies_s, slo_p99_ms=None, drained=True, shed=0,
                 timeouts=0, errors=0):
    """A serving run's log for one model ``m``, two requests a batch."""
    events = [{"type": "meta", "schema": 1,
               "serve": {"max_batch": 8, "max_wait_ms": 5.0,
                         "queue_depth": 64, "workers_per_model": 1,
                         "slo_p99_ms": slo_p99_ms},
               "host": {"cpus": 2}},
              _span(1, "serve.load", model="m")]
    span_id = 2
    for start in range(0, len(latencies_s), 2):
        chunk = latencies_s[start:start + 2]
        events.append(_span(span_id, "serve.batch", model="m",
                            images=len(chunk)))
        span_id += 1
        events.extend(_metric("hist", "serve.m.latency_s", value)
                      for value in chunk)
    for outcome, count in (("shed", shed), ("timeouts", timeouts),
                           ("errors", errors)):
        events.extend(_metric("counter", f"serve.m.{outcome}", 1)
                      for _ in range(count))
    if drained:
        events.append(_span(span_id, "serve.drain", models=1, clean=True,
                            flushed=0))
    return events


def write_log(run_dir, events, tail=""):
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / EVENTS_FILENAME, "w") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")
        handle.write(tail)
    return run_dir


class TestReport:
    def test_fixture_log_is_schema_clean(self):
        assert validate_events(serve_events([0.004, 0.005])) == []

    def test_percentiles_in_ms(self, tmp_path):
        latencies = [0.001 * (i + 1) for i in range(64)]
        report = load_report(write_log(
            tmp_path / "run", serve_events(latencies, shed=2, timeouts=1)))
        model = report.served["m"]
        for q in (50, 95, 99):
            assert model.latency_ms(q) == pytest.approx(
                np.percentile(latencies, q) * 1e3)
        assert len(model.latencies_s) == 64 and model.shed == 2
        assert model.timeouts == 1 and model.errors == 0
        assert len(model.batch_images) == 32
        assert report.slo_ok(model) is None    # no target configured
        assert report.ok()

    def test_single_request_p99_is_exact(self, tmp_path):
        """One 4.2 ms request reads 4.2 ms, not a 5 ms bucket edge."""
        run_dir = write_log(tmp_path / "run", serve_events([0.0042]))
        model = load_report(run_dir).served["m"]
        assert model.latency_ms(99) == pytest.approx(4.2)
        text = render_text(load_report(run_dir))
        row = next(line for line in text.splitlines()
                   if line.split()[:1] == ["m"])
        assert row.split()[4:7] == ["4.20", "4.20", "4.20"]

    def test_slo_breach_fails_report(self, tmp_path):
        report = load_report(write_log(
            tmp_path / "run", serve_events([0.010, 0.050],
                                           slo_p99_ms=20.0)))
        assert report.slo_ok(report.served["m"]) is False
        assert not report.ok()
        assert "BREACH" in render_text(report)

    def test_slo_met(self, tmp_path):
        report = load_report(write_log(
            tmp_path / "run", serve_events([0.004, 0.010],
                                           slo_p99_ms=20.0)))
        assert report.slo_ok(report.served["m"]) is True
        assert report.ok()

    def test_no_traffic_never_breaches(self, tmp_path):
        report = load_report(write_log(
            tmp_path / "run", serve_events([], slo_p99_ms=1.0)))
        assert report.slo_ok(ServedModel("m")) is None
        assert report.ok()

    def test_render_mentions_everything(self, tmp_path):
        text = render_text(load_report(write_log(
            tmp_path / "run", serve_events([0.004] * 4, slo_p99_ms=20.0,
                                           shed=2))))
        assert "serving:" in text
        assert "slo_p99_ms=20.0" in text
        assert "drained cleanly" in text and "(0 flushed)" in text
        row = next(line for line in text.splitlines()
                   if line.split()[:1] == ["m"])
        assert row.split()[1:4] == ["4", "2", "2.00"]
        assert row.split()[7] == "2" and row.endswith(" ok")
        # a serving run shows no search sections
        assert "incumbent trajectory" not in text

    def test_killed_daemon_log_still_renders(self, tmp_path):
        """SIGKILL: no drain span and a torn last line."""
        run_dir = write_log(tmp_path / "run",
                            serve_events([0.004, 0.006], drained=False),
                            tail='{"type": "hist", "name": "serve.m.lat')
        report = load_report(run_dir)
        assert report.drain_span is None
        assert any("torn tail" in w for w in report.warnings)
        assert any("serve.drain" in w for w in report.warnings)
        text = render_text(report)
        assert "WARNING" in text
        assert "no drain recorded" in text
        assert len(report.served["m"].latencies_s) == 2


class TestReportCli:
    def test_breach_exits_one(self, tmp_path, capsys):
        run_dir = write_log(tmp_path / "run",
                            serve_events([0.050], slo_p99_ms=20.0))
        assert main(["report", str(run_dir)]) == 1
        assert "BREACH" in capsys.readouterr().out

    def test_met_target_exits_zero(self, tmp_path, capsys):
        run_dir = write_log(tmp_path / "run",
                            serve_events([0.005], slo_p99_ms=20.0))
        assert main(["report", str(run_dir)]) == 0
        assert "BREACH" not in capsys.readouterr().out

    def test_events_path_accepted(self, tmp_path, capsys):
        run_dir = write_log(tmp_path / "run", serve_events([0.005]))
        assert main(["report", str(run_dir / EVENTS_FILENAME)]) == 0
        assert "serving:" in capsys.readouterr().out
