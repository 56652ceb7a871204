"""Profiler reporting: hotspot tables and flame/icicle SVGs.

Consumes the ``type == "profile"`` events emitted by
:mod:`repro.obs.profile` (one stream per worker, already rebased into a
single event log by the parent's ``ingest``) and merges them into one
attributed view:

- per-phase wall time (the phase spans' own durations, which the
  profiler receives as each span closes) and the share of it the
  kernel timers cover;
- per-kernel inclusive/exclusive time and call counts, merged across
  trials and workers;
- an icicle SVG (run > trials > phases > kernels) where kernel cells are
  scaled by exclusive time within their phase.

Everything here is pure functions over the event list — no profiler or
tracer state is touched, so reporting works on any run directory.
``repro report`` prints the hotspot table and writes the flame SVG next
to its other figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "ProfileView",
    "aggregate",
    "hotspot_lines",
    "render_hotspots",
    "flame_svg",
]

#: kernels shown in the hotspot table
TOP_KERNELS = 12


@dataclass
class ProfileView:
    """Merged profile statistics for one run's events."""

    mode: Optional[str] = None
    # phase name -> {calls, excl_s, allocs, peak_bytes, net_bytes}
    phases: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    # (phase, kernel) -> {calls, excl_s, incl_s, allocs}
    kernels: Dict[Tuple[str, str], Dict[str, Any]] = field(
        default_factory=dict)
    # (trial, phase, kernel) -> excl_s, for the flame layout
    trial_kernels: Dict[Tuple[Optional[int], str, str], float] = field(
        default_factory=dict)
    run_span: Optional[Dict[str, Any]] = None
    trial_spans: List[Dict[str, Any]] = field(default_factory=list)
    # (trial, phase) -> summed span seconds, for the flame layout
    trial_phase_s: Dict[Tuple[Optional[int], str], float] = field(
        default_factory=dict)

    @property
    def has_profile(self) -> bool:
        return bool(self.phases or self.kernels)


def _zero_phase() -> Dict[str, Any]:
    return {"calls": 0, "excl_s": 0.0, "allocs": 0,
            "peak_bytes": 0, "net_bytes": 0}


def _zero_kernel() -> Dict[str, Any]:
    return {"calls": 0, "excl_s": 0.0, "incl_s": 0.0, "allocs": 0}


def aggregate(events: List[Dict[str, Any]]) -> ProfileView:
    """Merge profile + span events into a :class:`ProfileView`.

    Worker streams were flushed independently (one profile event per
    phase/kernel per trial), so merging is a straight sum; ``peak_bytes``
    takes the max, since each worker process has its own heap and the
    worst observed peak is the number that matters for sizing.
    """
    view = ProfileView()
    for event in events:
        type_ = event.get("type")
        if type_ == "span":
            kind = event.get("kind")
            dur = float(event.get("dur_s") or 0.0)
            if kind == "run":
                view.run_span = event
            elif kind == "trial":
                view.trial_spans.append(event)
            elif kind == "phase":
                key = (event.get("trial"), str(event.get("name")))
                view.trial_phase_s[key] = view.trial_phase_s.get(
                    key, 0.0) + dur
            continue
        if type_ != "profile":
            continue
        mode = event.get("mode")
        if mode and view.mode is None:
            view.mode = str(mode)
        scope = event.get("scope")
        if scope == "phase":
            stat = view.phases.setdefault(
                str(event.get("name")), _zero_phase())
            stat["calls"] += int(event.get("calls") or 0)
            stat["excl_s"] += float(event.get("excl_s") or 0.0)
            stat["allocs"] += int(event.get("allocs") or 0)
            stat["peak_bytes"] = max(stat["peak_bytes"],
                                     int(event.get("peak_bytes") or 0))
            stat["net_bytes"] += int(event.get("net_bytes") or 0)
        elif scope == "kernel":
            phase = str(event.get("phase") or "")
            name = str(event.get("name"))
            stat = view.kernels.setdefault((phase, name), _zero_kernel())
            stat["calls"] += int(event.get("calls") or 0)
            stat["excl_s"] += float(event.get("excl_s") or 0.0)
            stat["incl_s"] += float(event.get("incl_s") or 0.0)
            stat["allocs"] += int(event.get("allocs") or 0)
            excl = float(event.get("excl_s") or 0.0)
            tkey = (event.get("trial"), phase, name)
            view.trial_kernels[tkey] = view.trial_kernels.get(
                tkey, 0.0) + excl
    return view


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{int(n)}B"


def hotspot_lines(events: List[Dict[str, Any]]) -> List[str]:
    """The hotspot table for an event list (indent-free lines)."""
    return render_hotspots(aggregate(events)).splitlines()


def render_hotspots(view: ProfileView, top_n: int = TOP_KERNELS) -> str:
    """Top-N hotspot table: phase breakdown + kernels by exclusive time."""
    lines: List[str] = []
    if not view.has_profile:
        lines.append("no profile events in this run "
                     "(rerun with --profile or BOMP_PROFILE=1)")
        return "\n".join(lines)
    alloc = view.mode == "alloc"
    lines.append(f"mode: {view.mode or 'time'}")

    # -- phase breakdown: wall time and the kernel timers' share of it
    lines.append("phase breakdown:")
    for name in sorted(view.phases,
                       key=lambda n: -view.phases[n]["excl_s"]):
        stat = view.phases[name]
        kernel_s = sum(k["excl_s"] for (phase, _), k in view.kernels.items()
                       if phase == name)
        coverage = (kernel_s / stat["excl_s"] * 100.0
                    if stat["excl_s"] > 0 else 0.0)
        row = (f"  {name:<16} {stat['excl_s']:>9.3f}s  n={stat['calls']}"
               f"  kernel coverage {coverage:.0f}%")
        if alloc:
            row += (f"  peak {_fmt_bytes(stat['peak_bytes'])}"
                    f"  allocs {stat['allocs']}")
        lines.append(row)

    # -- top kernels by exclusive time, merged across trials and workers
    ranked = sorted(view.kernels.items(),
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


def flame_svg(events: List[Dict[str, Any]], width: int = 960,
              row_h: int = 22) -> Optional[str]:
    """Icicle chart: run > trials > phases > kernels.

    Cell widths are proportional to seconds at each depth.  Trials from
    parallel runs overlap in wall time, so children are packed
    sequentially and rescaled to their parent's width when their summed
    duration exceeds it — the chart reads as *attribution*, not as a
    timeline.  Kernel cells are scaled by exclusive time within their
    (trial, phase) cell; the remainder is unattributed python.
    """
    view = aggregate(events)
    if view.run_span is None and not view.trial_spans:
        return None

    run_dur = (float(view.run_span.get("dur_s") or 0.0)
               if view.run_span else 0.0)
    trials: List[Tuple[Optional[int], float]] = [
        (span.get("trial"), float(span.get("dur_s") or 0.0))
        for span in sorted(view.trial_spans,
                           key=lambda s: (s.get("trial") is None,
                                          s.get("trial") or 0))]
    # phases outside any trial (final_training, run-level eval) get a
    # pseudo-trial cell so their kernels still show up
    loose = sorted({phase for (trial, phase) in view.trial_phase_s
                    if trial is None})
    for phase in loose:
        trials.append((None, view.trial_phase_s[(None, phase)]))
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
    if view.run_span is not None:
        run_label = f"run {view.run_span.get('name', '')}".strip()
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
                 in view.trial_phase_s.items() if t == trial),
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
                 in view.trial_kernels.items()
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
