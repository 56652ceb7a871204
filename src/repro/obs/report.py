"""Run reporting: one dashboard from any run directory's event log.

``repro report <run_dir>`` lands here: the JSONL event stream written by a
traced run (:class:`~repro.obs.trace.RunTracer`) is folded, in one pass,
into a :class:`RunReport`.  A search run shows its incumbent trajectory,
phase-time breakdown (with the kernel timers' coverage and, in alloc
mode, each phase's memory peak and allocation count), training dynamics,
GP surrogate health (marginal likelihood per fit, acquisition values,
predicted-vs-observed calibration), QAFT recovery, the process pool's
batches and faults, and for a profiled run the kernel hotspot table
(:mod:`repro.obs.profreport`); a serving run (``repro serve --run-dir``)
shows its SLO table.  Every figure is computed from the raw events, so
percentiles are exact.  The text dashboard is optionally joined by SVG
figures drawn with the same :mod:`repro.experiments.svg` machinery the
paper figures use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from .profreport import flame_svg, render_hotspots
from .trace import read_events_tolerant

#: phases shown in the breakdown, in pipeline order
PHASE_ORDER = ("train", "ptq", "qaft", "eval", "final_training")

#: the engine's fault counters, each event one fault
POOL_FAULTS = ("pool.retries", "pool.crashes", "pool.timeout_kills",
               "pool.respawns", "pool.degraded", "pool.start_failures")

_BAR_WIDTH = 28


@dataclass
class ServedModel:
    """One served model's outcomes, from its raw events."""

    name: str
    latencies_s: List[float] = field(default_factory=list)
    batch_images: List[int] = field(default_factory=list)
    shed: int = 0
    timeouts: int = 0
    errors: int = 0

    def latency_ms(self, q: float) -> Optional[float]:
        """Exact latency q-th percentile in ms (``None`` without traffic)."""
        if not self.latencies_s:
            return None
        return float(np.percentile(self.latencies_s, q)) * 1e3


@dataclass
class RunReport:
    """Aggregated view over one traced run's event stream."""

    source: str
    events: List[Dict[str, Any]]
    meta: Dict[str, Any] = field(default_factory=dict)
    run_span: Optional[Dict[str, Any]] = None
    trial_spans: List[Dict[str, Any]] = field(default_factory=list)
    trial_scores: List[Tuple[int, float, Dict[str, Any]]] = \
        field(default_factory=list)      # (trial, score, tags)
    phase_totals: Dict[str, float] = field(default_factory=dict)
    phase_counts: Dict[str, int] = field(default_factory=dict)
    #: alloc mode: max ``peak_bytes`` and summed ``allocs`` of the
    #: phase spans' tags, by phase
    phase_peak_bytes: Dict[str, int] = field(default_factory=dict)
    phase_allocs: Dict[str, int] = field(default_factory=dict)
    #: (trial, phase) -> summed phase span seconds
    trial_phase_s: Dict[Tuple[Optional[int], str], float] = field(
        default_factory=dict)
    epochs: List[Dict[str, Any]] = field(default_factory=list)
    gp_fits: List[Dict[str, Any]] = field(default_factory=list)
    residuals: List[Dict[str, Any]] = field(default_factory=list)
    acquisitions: List[Dict[str, Any]] = field(default_factory=list)
    qaft_recovery: List[Dict[str, Any]] = field(default_factory=list)
    #: the engine's ``pool.batch`` spans; their trials are the trial
    #: spans whose ``parent`` is the batch's ``span``
    batch_spans: List[Dict[str, Any]] = field(default_factory=list)
    #: fault counter name -> summed count
    pool_faults: Dict[str, int] = field(default_factory=dict)
    #: mode of the kernel-scope profile events (``None``: not profiled)
    profile_mode: Optional[str] = None
    #: (phase, kernel) -> {calls, excl_s, incl_s, allocs}, merged across
    #: trials and workers
    kernels: Dict[Tuple[str, str], Dict[str, Any]] = field(
        default_factory=dict)
    #: (trial, phase, kernel) -> exclusive seconds
    trial_kernels: Dict[Tuple[Optional[int], str, str], float] = field(
        default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    served: Dict[str, ServedModel] = field(default_factory=dict)
    drain_span: Optional[Dict[str, Any]] = None

    @property
    def serving(self) -> bool:
        """Whether this is a serving run's log (``repro serve``)."""
        return "serve" in self.meta or bool(self.served)

    def slo_ok(self, model: ServedModel) -> Optional[bool]:
        """p99 against the run's ``slo_p99_ms``; ``None`` when there is
        no target or no traffic — nothing to judge."""
        target = (self.meta.get("serve") or {}).get("slo_p99_ms")
        p99 = model.latency_ms(99)
        if target is None or p99 is None:
            return None
        return p99 <= target

    def ok(self) -> bool:
        """True unless some served model breached its p99 target."""
        return all(self.slo_ok(model) is not False
                   for model in self.served.values())

    # -- derived views -----------------------------------------------------
    def incumbent_trajectory(self) -> List[Tuple[int, float]]:
        """(trial index, best-so-far score) in trial order."""
        best = -math.inf
        trajectory = []
        for trial, score, _ in sorted(self.trial_scores):
            best = max(best, score)
            trajectory.append((trial, best))
        return trajectory

    def calibration_points(self) -> List[Tuple[float, float, float]]:
        """(predicted mean, observed score, predicted std) per GP tell."""
        points = []
        for event in self.residuals:
            tags = event.get("tags", {})
            if "predicted" in tags and "observed" in tags:
                points.append((float(tags["predicted"]),
                               float(tags["observed"]),
                               float(tags.get("std", 0.0))))
        return points

    def calibration_summary(self) -> Dict[str, float]:
        """Mean |residual| and the share of |z| <= 1 / <= 2 (68/95 rule)."""
        points = self.calibration_points()
        if not points:
            return {}
        residuals = [observed - predicted
                     for predicted, observed, _ in points]
        zs = [abs(r) / s for r, (_, _, s) in zip(residuals, points)
              if s > 0]
        summary = {
            "n": float(len(points)),
            "mean_abs_residual": sum(abs(r) for r in residuals)
            / len(residuals),
        }
        if zs:
            summary["z_within_1"] = sum(z <= 1 for z in zs) / len(zs)
            summary["z_within_2"] = sum(z <= 2 for z in zs) / len(zs)
        return summary


def load_report(run_dir: Union[str, Path]) -> RunReport:
    """Parse and aggregate a run directory's event log.

    Degrades instead of raising: a missing, empty, or torn-tail event log
    (truncated last line from a killed run) yields a report over whatever
    was parseable, with the problems recorded in ``report.warnings``.
    """
    events, warnings = read_events_tolerant(run_dir)
    report = RunReport(source=str(run_dir), events=events,
                       warnings=warnings)
    for event in events:
        type_ = event.get("type")
        name = event.get("name", "")
        if name.startswith("serve."):
            _fold_serve_event(report, type_, name, event)
        if type_ == "meta":
            payload = {k: v for k, v in event.items()
                       if k not in ("type", "schema")}
            report.meta.update(payload)
        elif type_ == "span":
            _fold_span(report, name, event)
        elif type_ == "profile" and event.get("scope") == "kernel":
            _fold_kernel(report, event)
        elif type_ == "counter" and name in POOL_FAULTS:
            report.pool_faults[name] = report.pool_faults.get(
                name, 0) + int(event.get("value", 1))
        elif type_ == "gauge":
            if name == "trial.score":
                report.trial_scores.append(
                    (int(event.get("trial", -1)), float(event["value"]),
                     event.get("tags", {})))
            elif name == "gp.lml":
                report.gp_fits.append(event)
            elif name == "gp.residual":
                report.residuals.append(event)
            elif name == "bo.acq_best":
                report.acquisitions.append(event)
            elif name == "qaft.recovery":
                report.qaft_recovery.append(event)
    if report.serving and report.drain_span is None:
        report.warnings.append(
            "no serve.drain span: the daemon never shut down cleanly "
            "(killed?); figures cover the log up to its last line")
    return report


def _fold_span(report: RunReport, name: str,
               event: Dict[str, Any]) -> None:
    kind = event.get("kind")
    if kind == "run":
        report.run_span = event
    elif kind == "trial":
        report.trial_spans.append(event)
    elif kind == "phase":
        seconds = float(event.get("dur_s", 0.0))
        report.phase_totals[name] = report.phase_totals.get(
            name, 0.0) + seconds
        report.phase_counts[name] = report.phase_counts.get(name, 0) + 1
        key = (event.get("trial"), name)
        report.trial_phase_s[key] = report.trial_phase_s.get(
            key, 0.0) + seconds
        tags = event.get("tags") or {}
        if "peak_bytes" in tags:
            report.phase_peak_bytes[name] = max(
                report.phase_peak_bytes.get(name, 0),
                int(tags["peak_bytes"]))
            report.phase_allocs[name] = report.phase_allocs.get(
                name, 0) + int(tags.get("allocs", 0))
    elif kind == "epoch":
        report.epochs.append(event)
    elif name == "pool.batch":
        report.batch_spans.append(event)


def _fold_kernel(report: RunReport, event: Dict[str, Any]) -> None:
    """Sum one kernel-scope profile event into the merged kernel stats.

    Worker streams were flushed independently (one event per kernel per
    trial), so merging is a straight sum.
    """
    if report.profile_mode is None:
        report.profile_mode = str(event.get("mode") or "time")
    phase = str(event.get("phase") or "")
    name = str(event.get("name"))
    excl = float(event.get("excl_s") or 0.0)
    stat = report.kernels.setdefault(
        (phase, name), {"calls": 0, "excl_s": 0.0, "incl_s": 0.0,
                        "allocs": 0})
    stat["calls"] += int(event.get("calls") or 0)
    stat["excl_s"] += excl
    stat["incl_s"] += float(event.get("incl_s") or 0.0)
    stat["allocs"] += int(event.get("allocs") or 0)
    key = (event.get("trial"), phase, name)
    report.trial_kernels[key] = report.trial_kernels.get(key, 0.0) + excl


def _fold_serve_event(report: RunReport, type_: Optional[str], name: str,
                      event: Dict[str, Any]) -> None:
    """Count one ``serve.*`` event into its model's outcomes."""
    tags = event.get("tags") or {}
    if type_ == "span":
        if name == "serve.drain":
            report.drain_span = event
        elif name == "serve.batch" and "model" in tags:
            model = report.served.setdefault(
                tags["model"], ServedModel(tags["model"]))
            model.batch_images.append(int(tags.get("images", 0)))
        return
    parts = name.split(".")        # serve.<model>.<outcome>
    if len(parts) != 3:
        return
    model = report.served.setdefault(parts[1], ServedModel(parts[1]))
    if type_ == "hist" and parts[2] == "latency_s":
        model.latencies_s.append(float(event["value"]))
    elif type_ == "counter" and parts[2] in ("shed", "timeouts", "errors"):
        setattr(model, parts[2],
                getattr(model, parts[2]) + int(event.get("value", 1)))


# -- text rendering --------------------------------------------------------
def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def _trajectory_lines(report: RunReport) -> List[str]:
    trajectory = report.incumbent_trajectory()
    if not trajectory:
        return ["  (no trial scores recorded)"]
    scores = [s for _, s in trajectory]
    lo, hi = min(scores), max(scores)
    span = (hi - lo) or 1.0
    lines = []
    # show at most 12 evenly spaced points, always including the last
    step = max(1, len(trajectory) // 12)
    picks = list(range(0, len(trajectory), step))
    if picks[-1] != len(trajectory) - 1:
        picks.append(len(trajectory) - 1)
    for i in picks:
        trial, best = trajectory[i]
        lines.append(f"  trial {trial:>3}  best={best:8.3f}  "
                     f"|{_bar((best - lo) / span)}|")
    return lines


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{int(n)}B"


def _phase_lines(report: RunReport) -> List[str]:
    """One line per phase: its span seconds, and for a profiled run the
    share the kernel timers cover (plus memory figures in alloc mode)."""
    total = sum(report.phase_totals.values())
    if total <= 0:
        return ["  (no phase spans recorded)"]
    kernel_s: Dict[str, float] = {}
    for (phase, _), stat in report.kernels.items():
        kernel_s[phase] = kernel_s.get(phase, 0.0) + stat["excl_s"]
    lines = []
    names = [p for p in PHASE_ORDER if p in report.phase_totals]
    names += sorted(set(report.phase_totals) - set(PHASE_ORDER))
    for name in names:
        seconds = report.phase_totals[name]
        share = seconds / total
        row = (f"  {name:<14} {_bar(share)} {share:6.1%} "
               f"{seconds:9.2f}s  (n={report.phase_counts[name]})")
        if report.kernels:
            coverage = kernel_s.get(name, 0.0) / seconds if seconds else 0.0
            row += f"  kernel coverage {coverage:.0%}"
        if name in report.phase_peak_bytes:
            row += (f"  peak {_fmt_bytes(report.phase_peak_bytes[name])}"
                    f"  allocs {report.phase_allocs[name]}")
        lines.append(row)
    return lines


def _epoch_lines(report: RunReport) -> List[str]:
    losses = [e["tags"].get("loss") for e in report.epochs
              if e.get("tags", {}).get("loss") is not None]
    if not losses:
        return ["  (no epoch telemetry recorded)"]
    grad_norms = [e["tags"].get("grad_norm") for e in report.epochs
                  if e.get("tags", {}).get("grad_norm") is not None]
    lines = [f"  epochs recorded: {len(report.epochs)}  "
             f"loss first={losses[0]:.4f} last={losses[-1]:.4f} "
             f"min={min(losses):.4f}"]
    if grad_norms:
        lines.append(f"  grad norm mean={sum(grad_norms) / len(grad_norms):.3f} "
                     f"max={max(grad_norms):.3f}")
    return lines


def _gp_lines(report: RunReport) -> List[str]:
    lines = []
    if report.gp_fits:
        lmls = [e["value"] for e in report.gp_fits]
        n_obs = report.gp_fits[-1].get("tags", {}).get("n_obs")
        lines.append(f"  fits: {len(lmls)}  log marginal likelihood "
                     f"first={lmls[0]:.4g} last={lmls[-1]:.4g}"
                     + (f"  n_obs={n_obs}" if n_obs is not None else ""))
    if report.acquisitions:
        values = [e["value"] for e in report.acquisitions]
        lines.append(f"  acquisition(best): first={values[0]:.4f} "
                     f"last={values[-1]:.4f} max={max(values):.4f}")
    calibration = report.calibration_summary()
    if calibration:
        line = (f"  calibration: n={int(calibration['n'])} "
                f"mean|resid|={calibration['mean_abs_residual']:.4f}")
        if "z_within_1" in calibration:
            line += (f"  |z|<=1: {calibration['z_within_1']:.0%} "
                     f"<=2: {calibration['z_within_2']:.0%} "
                     f"(well-calibrated ~ 68%/95%)")
        lines.append(line)
    return lines or ["  (no GP diagnostics recorded)"]


def _qaft_lines(report: RunReport) -> List[str]:
    deltas = [e["value"] for e in report.qaft_recovery]
    if not deltas:
        return ["  (no QAFT recovery telemetry)"]
    return [f"  recoveries: {len(deltas)}  mean dacc={sum(deltas) / len(deltas):+.4f} "
            f"min={min(deltas):+.4f} max={max(deltas):+.4f}"]


def _pool_lines(report: RunReport) -> List[str]:
    """Batches, utilisation, skew and task times from the ``pool.batch``
    spans and their trial spans, then the non-zero fault counts.  Skew
    counts only batches of two or more trials."""
    lines = []
    if not report.batch_spans:
        lines.append("  (no pool batches recorded)")
    else:
        lines.append(f"  batches: {len(report.batch_spans)}")
        task_s: Dict[Any, List[float]] = {}
        for span in report.trial_spans:
            task_s.setdefault(span.get("parent"), []).append(
                float(span.get("dur_s", 0.0)))
        util, skew, tasks = [], [], []
        for batch in report.batch_spans:
            durations = task_s.get(batch.get("span"))
            if not durations:
                continue
            tasks += durations
            tags = batch.get("tags") or {}
            workers = tags.get("workers", 1) if tags.get("parallel") else 1
            wall = float(batch.get("dur_s", 0.0))
            busy = sum(durations)
            if wall > 0:
                util.append(min(1.0, busy / (workers * wall)))
            mean_task = busy / len(durations)
            # a lone task's max/mean is 1 by construction
            if len(durations) > 1 and mean_task > 0:
                skew.append(max(durations) / mean_task)
        if util:
            lines.append(f"  worker utilisation mean={np.mean(util):.1%} "
                         f"min={min(util):.1%}")
        if skew:
            lines.append(f"  task skew (max/mean) mean={np.mean(skew):.2f} "
                         f"max={max(skew):.2f}")
        if tasks:
            lines.append(f"  task time p50={np.percentile(tasks, 50):.3g}s "
                         f"p90={np.percentile(tasks, 90):.3g}s "
                         f"max={max(tasks):.3g}s")
    faults = [f"{name.split('.', 1)[1]} {report.pool_faults[name]}"
              for name in POOL_FAULTS if report.pool_faults.get(name)]
    if faults:
        lines.append(f"  faults: {', '.join(faults)}")
    return lines


def _ms(value: Optional[float], width: int = 8) -> str:
    return "-".rjust(width) if value is None else f"{value:{width}.2f}"


def _serve_lines(report: RunReport) -> List[str]:
    config = report.meta.get("serve") or {}
    lines = []
    if config:
        lines.append(
            f"  config: max_batch={config.get('max_batch')} "
            f"max_wait_ms={config.get('max_wait_ms')} "
            f"queue_depth={config.get('queue_depth')} "
            f"workers={config.get('workers_per_model')} "
            f"slo_p99_ms={config.get('slo_p99_ms')}")
    if not report.served:
        lines.append("  (no models served)")
    else:
        lines.append(f"  {'model':<16} {'reqs':>7} {'batches':>7} "
                     f"{'imgs/b':>7} {'p50 ms':>8} {'p95 ms':>8} "
                     f"{'p99 ms':>8} {'shed':>5} {'t/o':>4} {'err':>4}  SLO")
        for name in sorted(report.served):
            model = report.served[name]
            batches = model.batch_images
            mean_batch = float(np.mean(batches)) if batches else 0.0
            verdict = {True: "ok", False: "BREACH",
                       None: "-"}[report.slo_ok(model)]
            lines.append(
                f"  {name:<16} {len(model.latencies_s):>7} "
                f"{len(batches):>7} {mean_batch:>7.2f} "
                f"{_ms(model.latency_ms(50))} {_ms(model.latency_ms(95))} "
                f"{_ms(model.latency_ms(99))} {model.shed:>5} "
                f"{model.timeouts:>4} {model.errors:>4}  {verdict}")
    drain = report.drain_span
    if drain is None:
        lines.append("  no drain recorded (daemon killed before shutdown?)")
    else:
        tags = drain.get("tags") or {}
        how = "cleanly" if tags.get("clean", True) else "HARD"
        lines.append(f"  drained {how} in {drain['dur_s']:.3f}s "
                     f"({tags.get('flushed', 0)} flushed)")
    return lines


def render_text(report: RunReport) -> str:
    """The full text dashboard."""
    header = f"BOMP-NAS run health - {report.source}"
    lines = [header, "=" * len(header)]
    for warning in report.warnings:
        lines.append(f"WARNING: {warning}")
    if report.serving:
        lines.append(f"events: {len(report.events)}")
        lines.append("")
        lines.append("serving:")
        lines.extend(_serve_lines(report))
        return "\n".join(lines)
    run_meta = report.meta.get("run")
    if run_meta:
        lines.append(f"run: {run_meta}")
    if report.run_span is not None:
        lines.append(f"wall time: {report.run_span['dur_s']:.2f}s  "
                     f"events: {len(report.events)}")
    lines.append("")
    lines.append(f"incumbent trajectory "
                 f"({len(report.trial_scores)} trials):")
    lines.extend(_trajectory_lines(report))
    lines.append("")
    lines.append("phase-time breakdown:")
    lines.extend(_phase_lines(report))
    lines.append("")
    lines.append("training dynamics:")
    lines.extend(_epoch_lines(report))
    lines.append("")
    lines.append("GP surrogate:")
    lines.extend(_gp_lines(report))
    lines.append("")
    lines.append("QAFT recovery:")
    lines.extend(_qaft_lines(report))
    lines.append("")
    lines.append("process pool:")
    lines.extend(_pool_lines(report))
    if report.kernels:
        lines.append("")
        lines.append("profiler hotspots:")
        lines.extend(render_hotspots(report).splitlines())
    return "\n".join(lines)


# -- SVG rendering ---------------------------------------------------------
# SvgScatter is imported inside the functions: repro.experiments imports the
# search stack, which itself imports repro.obs — a module-level import here
# would close that cycle.
def trajectory_svg(report: RunReport) -> Optional[str]:
    """Incumbent-trajectory figure, or ``None`` when no trials were traced."""
    from ..experiments.svg import SvgScatter
    trajectory = report.incumbent_trajectory()
    if not trajectory:
        return None
    plot = SvgScatter(title="Incumbent trajectory", log_x=False,
                      x_label="trial", y_label="best score so far")
    plot.add("best score", [(float(t), s) for t, s in trajectory],
             connect=True)
    scores = [(float(t), s) for t, s, _ in sorted(report.trial_scores)]
    plot.add("trial scores", scores, marker="square")
    return plot.render()


def calibration_svg(report: RunReport) -> Optional[str]:
    """GP calibration scatter, or ``None`` when the GP never made
    predictions (short runs end inside the initial-random phase)."""
    from ..experiments.svg import SvgScatter
    points = report.calibration_points()
    if not points:
        return None
    plot = SvgScatter(title="GP calibration", log_x=False,
                      x_label="predicted score", y_label="observed score")
    plot.add("trials", [(p, o) for p, o, _ in points])
    values = [v for p, o, _ in points for v in (p, o)]
    lo, hi = min(values), max(values)
    plot.add("ideal", [(lo, lo), (hi, hi)], connect=True, dashed=True)
    return plot.render()


def write_report(run_dir: Union[str, Path],
                 svg_out: Optional[Union[str, Path]] = None
                 ) -> Tuple[RunReport, str]:
    """Load a run dir, render the text dashboard, optionally write SVGs.

    With ``svg_out`` given, the trajectory figure goes to that path and
    the calibration scatter next to it with a ``-calibration`` suffix;
    figures with no data (e.g. no GP predictions yet) are skipped.
    Returns ``(report, dashboard_text)``.
    """
    report = load_report(run_dir)
    text = render_text(report)
    if svg_out is not None:
        svg_path = Path(svg_out)
        svg_path.parent.mkdir(parents=True, exist_ok=True)
        trajectory = trajectory_svg(report)
        if trajectory is not None:
            svg_path.write_text(trajectory)
        calibration = calibration_svg(report)
        if calibration is not None:
            calibration_path = svg_path.with_name(
                svg_path.stem + "-calibration" + (svg_path.suffix or ".svg"))
            calibration_path.write_text(calibration)
        if report.kernels:
            flame = flame_svg(report)
            if flame is not None:
                flame_path = svg_path.with_name(
                    svg_path.stem + "-flame" + (svg_path.suffix or ".svg"))
                flame_path.write_text(flame)
    return report, text
