"""Profiler reporting: the kernel hotspot table and flame/icicle SVG.

Both draw from the :class:`~repro.obs.report.RunReport` that
``load_report`` folds from a run's event log in one pass: the kernel
statistics merged from the kernel-scope ``"profile"`` events (one stream
per worker, already rebased into one log by the parent's ``ingest``) and
the run, trial and phase spans.  A phase's wall time, kernel coverage
and memory figures are the phase spans' and print once, in the
dashboard's phase-time breakdown; this module adds

- the top-N kernels by exclusive time, merged across trials and
  workers, with inclusive time, calls and (alloc mode) allocations;
- an icicle SVG (run > trials > phases > kernels) where kernel cells are
  scaled by exclusive time within their phase.

Everything here is a pure function of the report — no profiler or
tracer state is touched, so reporting works on any run directory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .report import RunReport

__all__ = ["render_hotspots", "flame_svg"]

#: kernels shown in the hotspot table
TOP_KERNELS = 12


def render_hotspots(report: "RunReport", top_n: int = TOP_KERNELS) -> str:
    """Top-N hotspot table: kernels by exclusive time."""
    if not report.kernels:
        return ("no profile events in this run "
                "(rerun with --profile or BOMP_PROFILE=1)")
    alloc = report.profile_mode == "alloc"
    lines = [f"mode: {report.profile_mode}"]
    ranked = sorted(report.kernels.items(),
                    key=lambda item: -item[1]["excl_s"])
    shown = ranked[:top_n]
    lines.append(f"top {len(shown)} kernels by exclusive time:")
    header = (f"  {'#':>2} {'kernel':<22} {'phase':<14} {'calls':>8} "
              f"{'excl_s':>9} {'incl_s':>9} {'us/call':>9}")
    if alloc:
        header += f" {'allocs':>8}"
    lines.append(header)
    for rank, ((phase, name), stat) in enumerate(shown, start=1):
        per_call = (stat["excl_s"] / stat["calls"] * 1e6
                    if stat["calls"] else 0.0)
        row = (f"  {rank:>2} {name:<22} {phase:<14} {stat['calls']:>8} "
               f"{stat['excl_s']:>9.3f} {stat['incl_s']:>9.3f} "
               f"{per_call:>9.1f}")
        if alloc:
            row += f" {stat['allocs']:>8}"
        lines.append(row)
    if len(ranked) > len(shown):
        rest = sum(stat["excl_s"] for _, stat in ranked[len(shown):])
        lines.append(f"  .. {len(ranked) - len(shown)} more kernels, "
                     f"{rest:.3f}s exclusive")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# flame / icicle SVG
# ---------------------------------------------------------------------------

_PALETTE = ("#d95f02", "#7570b3", "#1b9e77", "#e7298a",
            "#66a61e", "#e6ab02", "#a6761d", "#666666")


def _color(name: str) -> str:
    # deterministic: hash() is salted per-process, so roll our own
    h = 0
    for ch in name:
        h = (h * 31 + ord(ch)) & 0xFFFFFFFF
    return _PALETTE[h % len(_PALETTE)]


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _cell(parts: List[str], x: float, y: float, w: float, h: float,
          label: str, tooltip: str, color: str) -> None:
    parts.append(
        f'<g><title>{_esc(tooltip)}</title>'
        f'<rect x="{x:.1f}" y="{y:.1f}" width="{max(w, 0.5):.1f}" '
        f'height="{h:.1f}" fill="{color}" stroke="#ffffff" '
        f'stroke-width="0.5"/>')
    if w > 7 * max(len(label), 1) * 0.55 + 6:
        parts.append(
            f'<text x="{x + 3:.1f}" y="{y + h - 4:.1f}" '
            f'font-size="10" font-family="monospace" '
            f'fill="#ffffff">{_esc(label)}</text>')
    parts.append("</g>")


def flame_svg(report: "RunReport", width: int = 960,
              row_h: int = 22) -> Optional[str]:
    """Icicle chart: run > trials > phases > kernels.

    Cell widths are proportional to seconds at each depth.  Trials from
    parallel runs overlap in wall time, so children are packed
    sequentially and rescaled to their parent's width when their summed
    duration exceeds it — the chart reads as *attribution*, not as a
    timeline.  Kernel cells are scaled by exclusive time within their
    (trial, phase) cell; the remainder is unattributed python.
    """
    if report.run_span is None and not report.trial_spans:
        return None

    run_dur = (float(report.run_span.get("dur_s") or 0.0)
               if report.run_span else 0.0)
    trials: List[Tuple[Optional[int], float]] = [
        (span.get("trial"), float(span.get("dur_s") or 0.0))
        for span in sorted(report.trial_spans,
                           key=lambda s: (s.get("trial") is None,
                                          s.get("trial") or 0))]
    # phases outside any trial (final_training, run-level eval) get a
    # pseudo-trial cell so their kernels still show up
    loose = sorted({phase for (trial, phase) in report.trial_phase_s
                    if trial is None})
    for phase in loose:
        trials.append((None, report.trial_phase_s[(None, phase)]))
    total_child = sum(dur for _, dur in trials)
    if run_dur <= 0:
        run_dur = total_child
    if run_dur <= 0:
        return None

    height = 4 * row_h + 4
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#fdfdfd"/>',
    ]
    run_label = "run"
    if report.run_span is not None:
        run_label = f"run {report.run_span.get('name', '')}".strip()
    _cell(parts, 0, 2, width, row_h - 2, f"{run_label} {run_dur:.2f}s",
          f"{run_label}: {run_dur:.3f}s", "#35506e")

    # pack trials left to right, rescaling when they oversubscribe the run
    scale = width / max(run_dur, total_child) if total_child else 0.0
    x = 0.0
    seen_loose = 0
    for trial, dur in trials:
        w = dur * scale
        if trial is None:
            label = loose[seen_loose]
            seen_loose += 1
            phases = [(label, dur)]
            tooltip = f"{label}: {dur:.3f}s (outside trials)"
        else:
            label = f"trial {trial}"
            phases = sorted(
                ((phase, sec) for (t, phase), sec
                 in report.trial_phase_s.items() if t == trial),
                key=lambda item: -item[1])
            tooltip = f"trial {trial}: {dur:.3f}s"
        _cell(parts, x, 2 + row_h, w, row_h - 2, f"{label} {dur:.2f}s",
              tooltip, _color(label))

        # phases inside this trial cell
        phase_total = sum(sec for _, sec in phases)
        pscale = (w / max(dur, phase_total)) if phase_total else 0.0
        px = x
        for phase, sec in phases:
            pw = sec * pscale
            _cell(parts, px, 2 + 2 * row_h, pw, row_h - 2,
                  f"{phase} {sec:.2f}s",
                  f"{label} / {phase}: {sec:.3f}s", _color(phase))

            # kernels inside this phase cell, by exclusive time
            kernels = sorted(
                ((name, excl) for (t, p, name), excl
                 in report.trial_kernels.items()
                 if t == trial and p == phase and excl > 0),
                key=lambda item: -item[1])
            ktotal = sum(excl for _, excl in kernels)
            kscale = (pw / max(sec, ktotal)) if ktotal else 0.0
            kx = px
            for name, excl in kernels:
                kw = excl * kscale
                _cell(parts, kx, 2 + 3 * row_h, kw, row_h - 2,
                      name.split(".")[-1],
                      f"{label} / {phase} / {name}: {excl:.3f}s "
                      f"exclusive", _color(name))
                kx += kw
            if ktotal and sec > ktotal:
                rw = pw - (kx - px)
                if rw > 0.5:
                    _cell(parts, kx, 2 + 3 * row_h, rw, row_h - 2, "",
                          f"{label} / {phase}: "
                          f"{sec - ktotal:.3f}s unattributed", "#c9c9c9")
            px += pw
        x += w
    parts.append("</svg>")
    return "".join(parts)
