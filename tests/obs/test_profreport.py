"""Profile reporting: merged hotspot view, flame SVG, tolerant loading."""

import json

import pytest

from repro.obs.profreport import (aggregate, flame_svg, hotspot_lines,
                                  render_hotspots)
from repro.obs.trace import EVENTS_FILENAME


def _span(kind, name, span_id, parent=None, trial=None, dur=1.0):
    return {"type": "span", "kind": kind, "name": name, "span": span_id,
            "parent": parent, "trial": trial, "t_wall": 0.0, "dur_s": dur,
            "tags": {}}


def _profile(scope, name, phase="", trial=None, calls=1, excl=0.5,
             incl=0.5, mode="time", allocs=None):
    return {"type": "profile", "scope": scope, "name": name,
            "phase": phase, "mode": mode, "trial": trial, "calls": calls,
            "excl_s": excl, "incl_s": incl, "allocs": allocs,
            "peak_bytes": None, "net_bytes": None, "tags": {}}


@pytest.fixture
def synthetic_events():
    """Two trials' worth of spans + profile events, as after ingest."""
    events = [
        {"type": "meta", "schema": 1},
        _span("run", "search", 1, dur=4.0),
    ]
    sid = 2
    for trial in (0, 1):
        events.append(_span("trial", f"trial-{trial}", sid, parent=1,
                            trial=trial, dur=2.0))
        parent = sid
        sid += 1
        for phase, dur in (("train", 1.2), ("eval", 0.8)):
            events.append(_span("phase", phase, sid, parent=parent,
                                trial=trial, dur=dur))
            sid += 1
            events.append(_profile("phase", phase, trial=trial,
                                   calls=1, excl=dur, incl=dur))
            events.append(_profile("kernel", "nn.conv2d.fwd", phase=phase,
                                   trial=trial, calls=10, excl=dur * 0.5,
                                   incl=dur * 0.6))
    return events


class TestAggregate:
    def test_merges_across_trials(self, synthetic_events):
        view = aggregate(synthetic_events)
        assert view.mode == "time"
        assert view.phases["train"]["calls"] == 2
        assert view.phases["train"]["excl_s"] == pytest.approx(2.4)
        stat = view.kernels[("train", "nn.conv2d.fwd")]
        assert stat["calls"] == 20
        assert stat["excl_s"] == pytest.approx(1.2)

    def test_span_walls_collected(self, synthetic_events):
        view = aggregate(synthetic_events)
        assert view.run_span["dur_s"] == 4.0
        assert len(view.trial_spans) == 2
        assert view.trial_phase_s[(0, "eval")] == pytest.approx(0.8)

    def test_empty_events(self):
        view = aggregate([])
        assert not view.has_profile
        assert view.run_span is None


class TestRenderHotspots:
    def test_table_contents(self, synthetic_events):
        text = render_hotspots(aggregate(synthetic_events))
        assert "phase breakdown" in text
        assert "nn.conv2d.fwd" in text
        # one wall time per phase, no cross-check of a clock with itself
        assert "  train                2.400s  n=2  kernel coverage 50%" \
            in text
        assert "delta" not in text and "spans" not in text

    def test_no_profile_message(self):
        text = render_hotspots(aggregate([_span("run", "search", 1)]))
        assert "no profile events" in text
        assert "--profile" in text

    def test_top_n_truncates(self, synthetic_events):
        text = render_hotspots(aggregate(synthetic_events), top_n=1)
        assert "1 more kernels" in text

    def test_hotspot_lines_match_render(self, synthetic_events):
        lines = hotspot_lines(synthetic_events)
        assert lines == render_hotspots(aggregate(synthetic_events)
                                        ).splitlines()


class TestFlameSvg:
    def test_structure(self, synthetic_events):
        svg = flame_svg(synthetic_events)
        assert svg is not None and svg.startswith("<svg")
        assert "trial 0" in svg and "trial 1" in svg
        assert "train" in svg and "eval" in svg
        assert "fwd" in svg  # kernel cells labelled by leaf name
        assert "unattributed" in svg  # phase time not covered by kernels

    def test_no_spans_returns_none(self):
        assert flame_svg([]) is None
        assert flame_svg([_profile("kernel", "k")]) is None

    def test_escapes_markup(self):
        events = [_span("run", 'se<arch>"x"', 1, dur=1.0)]
        svg = flame_svg(events)
        assert "<arch>" not in svg
        assert "&lt;arch&gt;" in svg


class TestLoadReportTolerance:
    """A missing, torn or empty log degrades to warnings in the report."""

    def test_round_trip_through_file(self, tmp_path, synthetic_events):
        from repro.obs.report import load_report
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        with open(run_dir / EVENTS_FILENAME, "w") as handle:
            for event in synthetic_events:
                handle.write(json.dumps(event) + "\n")
        report = load_report(run_dir)
        assert report.warnings == []
        view = aggregate(report.events)
        assert view.has_profile
        assert view.phases["train"]["excl_s"] == pytest.approx(2.4)

    def test_missing_log_warns_not_raises(self, tmp_path):
        from repro.obs.report import load_report
        report = load_report(tmp_path)
        assert not report.profile_events
        assert any("no event log" in w for w in report.warnings)

    def test_torn_tail_dropped_with_warning(self, tmp_path,
                                            synthetic_events):
        from repro.obs.report import load_report
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        with open(run_dir / EVENTS_FILENAME, "w") as handle:
            for event in synthetic_events:
                handle.write(json.dumps(event) + "\n")
            handle.write('{"type": "profile", "scope": "ker')  # torn
        report = load_report(run_dir)
        # the parseable prefix survived
        assert aggregate(report.events).has_profile
        assert any("torn tail" in w for w in report.warnings)

    def test_empty_log_warns(self, tmp_path):
        from repro.obs.report import load_report
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / EVENTS_FILENAME).touch()
        report = load_report(run_dir)
        assert any("empty" in w for w in report.warnings)


class TestReportIntegration:
    def test_report_crash_proof_on_torn_log(self, tmp_path,
                                            synthetic_events):
        from repro.obs.report import load_report, render_text
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        with open(run_dir / EVENTS_FILENAME, "w") as handle:
            for event in synthetic_events:
                handle.write(json.dumps(event) + "\n")
            handle.write('{"truncated')
        report = load_report(run_dir)
        assert report.warnings
        text = render_text(report)
        assert "WARNING" in text
        assert "profiler hotspots:" in text  # profile section still folded in

    def test_report_missing_log_renders_warning(self, tmp_path):
        from repro.obs.report import load_report, render_text
        report = load_report(tmp_path)
        assert report.events == []
        assert "WARNING" in render_text(report)


class TestReportCliProfile:
    """``repro report`` prints the hotspot table of a profiled run."""

    def _write(self, run_dir, events):
        run_dir.mkdir()
        with open(run_dir / EVENTS_FILENAME, "w") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")

    def test_prints_table_and_writes_svg(self, tmp_path, capsys,
                                         synthetic_events):
        from repro.cli import main
        run_dir = tmp_path / "run"
        self._write(run_dir, synthetic_events)
        svg = tmp_path / "x.svg"
        assert main(["report", str(run_dir), "--svg-out", str(svg)]) == 0
        out = capsys.readouterr().out
        assert "profiler hotspots:" in out
        assert "phase breakdown" in out
        assert "nn.conv2d.fwd" in out
        assert (tmp_path / "x-flame.svg").exists()

    def test_no_svg_out_writes_no_svg(self, tmp_path, capsys,
                                      synthetic_events):
        from repro.cli import main
        run_dir = tmp_path / "run"
        self._write(run_dir, synthetic_events)
        assert main(["report", str(run_dir)]) == 0
        assert not list(tmp_path.rglob("*.svg"))

    def test_missing_log_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["report", str(tmp_path)]) == 1
        assert "no events.jsonl" in capsys.readouterr().out
