"""Profile reporting: the one fold, hotspot table, flame SVG, tolerance."""

import json

import pytest

from repro.obs.profreport import flame_svg, render_hotspots
from repro.obs.report import load_report, render_text
from repro.obs.trace import EVENTS_FILENAME


def _span(kind, name, span_id, parent=None, trial=None, dur=1.0,
          tags=None):
    return {"type": "span", "kind": kind, "name": name, "span": span_id,
            "parent": parent, "trial": trial, "t_wall": 0.0, "dur_s": dur,
            "tags": tags or {}}


def _profile(scope, name, phase="", trial=None, calls=1, excl=0.5,
             incl=0.5, mode="time", allocs=None):
    return {"type": "profile", "scope": scope, "name": name,
            "phase": phase, "mode": mode, "trial": trial, "calls": calls,
            "excl_s": excl, "incl_s": incl, "allocs": allocs,
            "peak_bytes": None, "net_bytes": None, "tags": {}}


def _fold(tmp_path, events):
    """The report ``load_report`` folds from ``events`` written as a log."""
    run_dir = tmp_path / "run"
    run_dir.mkdir(parents=True)
    with open(run_dir / EVENTS_FILENAME, "w") as handle:
        handle.writelines(json.dumps(event) + "\n" for event in events)
    return load_report(run_dir)


@pytest.fixture
def synthetic_events():
    """Two trials' worth of spans + kernel profile events, as after
    ingest."""
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
            events.append(_profile("kernel", "nn.conv2d.fwd", phase=phase,
                                   trial=trial, calls=10, excl=dur * 0.5,
                                   incl=dur * 0.6))
    return events


class TestFold:
    def test_merges_across_trials(self, tmp_path, synthetic_events):
        report = _fold(tmp_path, synthetic_events)
        assert report.profile_mode == "time"
        assert report.phase_counts["train"] == 2
        assert report.phase_totals["train"] == pytest.approx(2.4)
        stat = report.kernels[("train", "nn.conv2d.fwd")]
        assert stat["calls"] == 20
        assert stat["excl_s"] == pytest.approx(1.2)
        assert report.trial_kernels[(1, "eval", "nn.conv2d.fwd")] == \
            pytest.approx(0.4)

    def test_span_walls_collected(self, tmp_path, synthetic_events):
        report = _fold(tmp_path, synthetic_events)
        assert report.run_span["dur_s"] == 4.0
        assert len(report.trial_spans) == 2
        assert report.trial_phase_s[(0, "eval")] == pytest.approx(0.8)

    def test_empty_log(self, tmp_path):
        report = _fold(tmp_path, [])
        assert not report.kernels and report.profile_mode is None
        assert report.run_span is None

    def test_alloc_phase_figures_from_span_tags(self, tmp_path):
        """Peak is the max of the phase spans' ``peak_bytes``, allocs
        their sum; the dashboard prints both on the phase's line."""
        events = [
            _span("phase", "train", 1, trial=0, dur=1.0,
                  tags={"allocs": 5, "peak_bytes": 2048, "net_bytes": 0}),
            _span("phase", "train", 2, trial=1, dur=1.0,
                  tags={"allocs": 7, "peak_bytes": 1024, "net_bytes": 0}),
            _profile("kernel", "nn.bn.fwd", phase="train", trial=0,
                     excl=0.5, mode="alloc", allocs=3)]
        report = _fold(tmp_path, events)
        assert report.profile_mode == "alloc"
        assert report.phase_peak_bytes == {"train": 2048}
        assert report.phase_allocs == {"train": 12}
        [line] = [line for line in render_text(report).splitlines()
                  if line.startswith("  train ")]
        assert line.endswith("2.00s  (n=2)  kernel coverage 25%"
                             "  peak 2.0KiB  allocs 12")


class TestRenderHotspots:
    def test_table_contents(self, tmp_path, synthetic_events):
        text = render_hotspots(_fold(tmp_path, synthetic_events))
        assert text.splitlines()[:2] == [
            "mode: time", "top 2 kernels by exclusive time:"]
        assert "nn.conv2d.fwd" in text
        # phase wall times are the dashboard's, not the table's
        assert "phase breakdown" not in text and "coverage" not in text

    def test_each_phase_wall_printed_once(self, tmp_path, synthetic_events):
        text = render_text(_fold(tmp_path, synthetic_events))
        for name, row in (("train", "2.40s  (n=2)  kernel coverage 50%"),
                          ("eval", "1.60s  (n=2)  kernel coverage 50%")):
            [line] = [line for line in text.splitlines()
                      if line.split()[:1] == [name]]
            assert line.endswith(row)

    def test_no_profile_message(self, tmp_path):
        text = render_hotspots(_fold(tmp_path, [_span("run", "search", 1)]))
        assert "no profile events" in text
        assert "--profile" in text

    def test_top_n_truncates(self, tmp_path, synthetic_events):
        text = render_hotspots(_fold(tmp_path, synthetic_events), top_n=1)
        assert "1 more kernels" in text


class TestFlameSvg:
    def test_structure(self, tmp_path, synthetic_events):
        svg = flame_svg(_fold(tmp_path, synthetic_events))
        assert svg is not None and svg.startswith("<svg")
        assert "trial 0" in svg and "trial 1" in svg
        assert "train" in svg and "eval" in svg
        assert "fwd" in svg  # kernel cells labelled by leaf name
        assert "unattributed" in svg  # phase time not covered by kernels

    def test_no_spans_returns_none(self, tmp_path):
        assert flame_svg(_fold(tmp_path / "a", [])) is None
        assert flame_svg(_fold(tmp_path / "b",
                               [_profile("kernel", "k")])) is None

    def test_escapes_markup(self, tmp_path):
        svg = flame_svg(_fold(tmp_path, [_span("run", 'se<arch>"x"', 1)]))
        assert "<arch>" not in svg
        assert "&lt;arch&gt;" in svg


class TestLoadReportTolerance:
    """A missing, torn or empty log degrades to warnings in the report."""

    def test_round_trip_through_file(self, tmp_path, synthetic_events):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        with open(run_dir / EVENTS_FILENAME, "w") as handle:
            for event in synthetic_events:
                handle.write(json.dumps(event) + "\n")
        report = load_report(run_dir)
        assert report.warnings == []
        assert report.kernels
        assert report.phase_totals["train"] == pytest.approx(2.4)

    def test_missing_log_warns_not_raises(self, tmp_path):
        report = load_report(tmp_path)
        assert not report.kernels
        assert any("no event log" in w for w in report.warnings)

    def test_torn_tail_dropped_with_warning(self, tmp_path,
                                            synthetic_events):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        with open(run_dir / EVENTS_FILENAME, "w") as handle:
            for event in synthetic_events:
                handle.write(json.dumps(event) + "\n")
            handle.write('{"type": "profile", "scope": "ker')  # torn
        report = load_report(run_dir)
        # the parseable prefix survived
        assert report.kernels
        assert any("torn tail" in w for w in report.warnings)

    def test_empty_log_warns(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / EVENTS_FILENAME).touch()
        report = load_report(run_dir)
        assert any("empty" in w for w in report.warnings)


class TestReportIntegration:
    def test_report_crash_proof_on_torn_log(self, tmp_path,
                                            synthetic_events):
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
        assert "kernel coverage 50%" in out
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
