"""The search-health report over a real traced run."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.report import (RunReport, calibration_svg, load_report,
                              render_text, trajectory_svg, write_report)
from repro.obs.trace import EVENTS_FILENAME, read_events


@pytest.fixture(scope="module")
def report(traced_run):
    run_dir, _ = traced_run
    return load_report(run_dir)


class TestLoadReport:
    def test_meta_and_run_span(self, report):
        assert "mp_qaft" in report.meta.get("run", "")
        assert report.run_span is not None
        assert report.run_span["dur_s"] > 0

    def test_trial_scores_match_results(self, report, traced_run):
        _, result = traced_run
        scores = {trial: score for trial, score, _ in report.trial_scores}
        assert scores == {t.index: t.score for t in result.trials}

    def test_phase_totals_cover_pipeline(self, report):
        assert {"train", "ptq", "qaft", "eval"} <= set(report.phase_totals)
        assert all(v >= 0 for v in report.phase_totals.values())

    def test_gp_diagnostics_recorded(self, report):
        # batch_size=1 + n_initial_random=2 guarantee at least one GP fit
        assert report.gp_fits
        assert report.acquisitions
        assert report.residuals

    def test_epoch_telemetry_recorded(self, report):
        assert report.epochs
        assert all("loss" in e["tags"] for e in report.epochs)

    def test_qaft_recovery_recorded(self, report):
        assert report.qaft_recovery
        for event in report.qaft_recovery:
            tags = event["tags"]
            assert event["value"] == pytest.approx(
                tags["accuracy"] - tags["ptq_accuracy"])


class TestDerivedViews:
    def test_incumbent_trajectory_monotonic(self, report):
        trajectory = report.incumbent_trajectory()
        bests = [b for _, b in trajectory]
        assert bests == sorted(bests)
        assert len(trajectory) == len(report.trial_scores)

    def test_calibration_points_and_summary(self, report):
        points = report.calibration_points()
        assert points
        summary = report.calibration_summary()
        assert summary["n"] == len(points)
        assert summary["mean_abs_residual"] >= 0

    def test_empty_report_views(self):
        empty = RunReport(source="x", events=[])
        assert empty.incumbent_trajectory() == []
        assert empty.calibration_summary() == {}


class TestRendering:
    def test_text_dashboard_sections(self, report):
        text = render_text(report)
        for section in ("incumbent trajectory", "phase-time breakdown",
                        "training dynamics", "GP surrogate",
                        "QAFT recovery", "process pool"):
            assert section in text

    def test_svgs_are_valid_xml(self, report):
        import xml.etree.ElementTree as ET
        for markup in (trajectory_svg(report), calibration_svg(report)):
            assert markup is not None
            assert ET.fromstring(markup).tag.endswith("svg")

    def test_empty_report_svgs_are_none(self):
        empty = RunReport(source="x", events=[])
        assert trajectory_svg(empty) is None
        assert calibration_svg(empty) is None

    def test_write_report_writes_svgs(self, traced_run, tmp_path):
        run_dir, _ = traced_run
        svg = tmp_path / "dash.svg"
        report, text = write_report(run_dir, svg_out=svg)
        assert "BOMP-NAS run health" in text
        assert svg.exists()
        assert (tmp_path / "dash-calibration.svg").exists()
        assert len(report.events) == len(read_events(run_dir))


def _batch_events(batches):
    """A ``pool.batch`` span per ``(wall_s, workers, parallel, task_s)``
    with one child trial span per task, children first, as ingested."""
    events, span_id, trial = [], 1, 0
    for wall, workers, parallel, task_s in batches:
        batch_id = span_id
        span_id += 1
        for duration in task_s:
            events.append({"type": "span", "kind": "trial",
                           "name": "trial", "span": span_id,
                           "parent": batch_id, "trial": trial,
                           "t_wall": 0.0, "dur_s": duration, "tags": {}})
            span_id += 1
            trial += 1
        events.append({"type": "span", "kind": "span", "name": "pool.batch",
                       "span": batch_id, "parent": None, "trial": None,
                       "t_wall": 0.0, "dur_s": wall,
                       "tags": {"tasks": len(task_s), "workers": workers,
                                "parallel": parallel}})
    return events


def _render(run_dir, events):
    with open(Path(run_dir) / EVENTS_FILENAME, "w") as handle:
        handle.writelines(json.dumps(e) + "\n" for e in events)
    return render_text(load_report(run_dir))


class TestPoolFigures:
    """Pool figures come from the ``pool.batch`` spans and their trial
    spans: exact, never bucket edges."""

    @settings(max_examples=40, deadline=None)
    @given(task_s=st.lists(st.floats(min_value=1e-4, max_value=500.0),
                           min_size=1, max_size=40))
    def test_task_time_percentiles_are_exact(self, task_s):
        with tempfile.TemporaryDirectory() as tmp:
            text = _render(tmp, _batch_events([(1.0, 2, True, task_s)]))
        assert "batches: 1" in text
        assert (f"task time p50={np.percentile(task_s, 50):.3g}s "
                f"p90={np.percentile(task_s, 90):.3g}s "
                f"max={max(task_s):.3g}s") in text

    def test_utilisation_and_skew_from_spans(self, tmp_path):
        # busy 2 s on 2 workers: 50% of a 2 s batch, 90% of a 10/9 s one
        text = _render(tmp_path, _batch_events(
            [(2.0, 2, True, [0.75, 1.25]),
             (2.0 / 1.8, 2, True, [0.25, 1.75])]))
        assert "batches: 2" in text
        assert "worker utilisation mean=70.0% min=50.0%" in text
        assert "task skew (max/mean) mean=1.50 max=1.75" in text

    def test_no_skew_line_over_one_task_batches(self, tmp_path):
        """A lone task's max/mean is 1 by construction: batches of one
        trial print no skew line."""
        text = _render(tmp_path, _batch_events(
            [(1.0, 2, True, [0.5]), (2.0, 2, True, [1.5])]))
        assert "batches: 2" in text
        assert "task skew" not in text

    def test_skew_counts_only_batches_of_two_or_more(self, tmp_path):
        """Trials of 1 s and 3 s: max/mean = 3/2; the one-task batch
        beside them does not pull the mean to 1.25."""
        text = _render(tmp_path, _batch_events(
            [(3.0, 2, True, [1.0, 3.0]), (1.0, 2, True, [0.5])]))
        assert "task skew (max/mean) mean=1.50 max=1.50" in text

    def test_serial_batch_counts_one_worker(self, tmp_path):
        text = _render(tmp_path, _batch_events([(4.0, 2, False, [1.0, 1.0])]))
        assert "worker utilisation mean=50.0% min=50.0%" in text

    def test_fault_counts_printed(self, tmp_path):
        events = _batch_events([(1.0, 2, True, [0.5])])
        events += [{"type": "counter", "name": name, "value": 1,
                    "trial": 0, "tags": {}}
                   for name in ("pool.retries", "pool.crashes",
                                "pool.retries", "pool.respawns")]
        text = _render(tmp_path, events)
        assert "  faults: retries 2, crashes 1, respawns 1" in text

    def test_no_fault_line_without_faults(self, tmp_path):
        text = _render(tmp_path, _batch_events([(1.0, 2, True, [0.5])]))
        assert "faults:" not in text

    def test_earlier_log_renders_without_its_duplicates(self, tmp_path):
        """A log with phase-scope profile events and pool gauges (written
        before phases and batches were recorded by their spans alone)
        still renders; those events are not read."""
        events = [{"type": "span", "kind": "phase", "name": "train",
                   "span": 1, "parent": None, "trial": 0, "t_wall": 0.0,
                   "dur_s": 2.0, "tags": {}},
                  {"type": "profile", "scope": "phase", "name": "train",
                   "phase": "train", "mode": "time", "trial": 0,
                   "calls": 1, "excl_s": 2.0, "incl_s": 2.0, "allocs": None,
                   "peak_bytes": None, "net_bytes": None, "tags": {}},
                  {"type": "gauge", "name": "pool.batch_wall_s",
                   "value": 2.0, "trial": None, "tags": {}}]
        text = _render(tmp_path, events)
        assert "  (no pool batches recorded)" in text
        assert "profiler hotspots:" not in text
        [line] = [line for line in text.splitlines()
                  if line.startswith("  train ")]
        assert line.endswith("2.00s  (n=1)")


class TestProfiledSequentialRun:
    """A traced, profiled ``--trial-batch 1`` unit search through the CLI:
    the log holds only numbers that move, and the dashboard shows them."""

    #: metrics fixed by construction or copied from another record
    CONSTANT_METRICS = ("gp.length_scale", "qaft.loss_delta",
                        "ptq.calibrated_layers", "ptq.calibration_batches",
                        "infer.requant_fused", "infer.macs")

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        from repro.cli import main
        run_dir = tmp_path_factory.mktemp("profiled") / "run"
        assert main(["search", "--scale", "unit", "--trial-batch", "1",
                     "--workers", "1", "--profile", "--trace-dir",
                     str(run_dir), "--quiet",
                     "--out", str(run_dir.parent / "result.json")]) == 0
        return run_dir

    def test_no_constant_metrics(self, run_dir):
        names = {e.get("name") for e in read_events(run_dir)}
        assert "infer.images" in names   # final training ran the engine
        assert not names & set(self.CONSTANT_METRICS)

    def test_one_lml_event_per_gp_fit(self, run_dir):
        fits = [e for e in read_events(run_dir)
                if e["type"] == "gauge" and e["name"] == "gp.lml"]
        assert len(fits) >= 2
        for event in fits:
            assert set(event["tags"]) == {"n_obs", "n_fantasies"}
            assert np.isfinite(event["value"])

    def test_each_phase_wall_printed_on_one_line(self, run_dir):
        """Each phase's wall time, the sum of its span durations, is on
        exactly one line of the dashboard."""
        text = render_text(load_report(run_dir))
        for name in ("train", "ptq", "qaft", "eval"):
            seconds = sum(e["dur_s"] for e in read_events(run_dir)
                          if e["type"] == "span" and e["kind"] == "phase"
                          and e["name"] == name)
            lines = [line for line in text.splitlines()
                     if line.split()[:1] == [name]]
            assert len(lines) == 1, lines
            assert f" {seconds:.2f}s  (n=" in lines[0]
            assert "kernel coverage" in lines[0]

    def test_dashboard_shows_lml_and_one_phase_clock(self, run_dir):
        text = render_text(load_report(run_dir))
        fits = [e for e in read_events(run_dir)
                if e.get("name") == "gp.lml"]
        assert (f"fits: {len(fits)}  log marginal likelihood "
                f"first={fits[0]['value']:.4g} "
                f"last={fits[-1]['value']:.4g}") in text
        assert "length_scale" not in text
        assert "profiler hotspots:" in text
        assert "delta" not in text and "profiled /" not in text
