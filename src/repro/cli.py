"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``search``  — run a BOMP-NAS search (any mode) and write the result JSON;
  ``--trace`` additionally streams a structured event log to a run
  directory (see :mod:`repro.obs`).
- ``report``  — regenerate a paper figure or table, or — given a run
  directory of any kind (search, profiled search, serve) — render the
  dashboard of its ``events.jsonl``: search health, profiler hotspots,
  or the serve SLO table (exit 1 on a p99 breach).
- ``inspect`` — summarize a saved search result JSON.
- ``space``   — print the Table I search space and its cardinalities.
- ``export``  — re-materialize a searched candidate from a saved run
  (result JSON or checkpoint) into a deployable integer-inference
  artifact (see :mod:`repro.infer`).
- ``infer``   — run the integer-only engine on an exported artifact:
  deployed accuracy, deployment cost report, optional parity check.
- ``serve``   — multi-model serving daemon over exported artifacts:
  dynamic batching, admission control, graceful SIGTERM drain, an
  ``events.jsonl`` in its run directory (see :mod:`repro.serve`).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable, List, Optional

from .bo.scalarization import ScalarizationConfig
from .data.synthetic import load_dataset
from .experiments.runner import REF_SIZE, ExperimentContext
from .nas.config import (SCALE_PRESETS, SEARCH_MODES, SearchConfig,
                         get_mode, get_scale)
from .nas.results import ResultError, SearchResult
from .nas.search import BOMPNAS
from .obs import profile
from .obs.console import ConsoleReporter
from .obs.trace import EVENTS_FILENAME, RunTracer, events_path
from .space.space import SearchSpace

#: the paper artifacts ``report`` can regenerate (everything else is
#: interpreted as a traced run directory / event log path)
PAPER_ARTIFACTS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                   "table1", "table2", "table3", "table4")


def _checked(kind: type, accept: Callable[[float], bool], expected: str):
    """An argparse ``type=`` parsing ``kind``, finite and ``accept``-ed.

    A refused value makes argparse exit 2 with one line naming the flag,
    before any file or directory is created.
    """
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not math.isfinite(value) or not accept(value):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}")
        return value
    return parse


positive_int = _checked(int, lambda v: v > 0, "a positive integer")
non_negative_int = _checked(int, lambda v: v >= 0,
                            "a non-negative integer")
port_number = _checked(int, lambda v: 0 <= v <= 65535,
                       "a port in 0-65535")
positive_float = _checked(float, lambda v: v > 0,
                          "a finite positive number")
non_negative_float = _checked(float, lambda v: v >= 0,
                              "a finite non-negative number")
finite_float = _checked(float, lambda v: True, "a finite number")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BOMP-NAS (DATE 2023) reproduction toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    search = commands.add_parser("search", help="run a BOMP-NAS search")
    search.add_argument("--dataset", choices=("cifar10", "cifar100"),
                        default="cifar10")
    search.add_argument("--mode", choices=sorted(SEARCH_MODES),
                        default="mp_qaft")
    search.add_argument("--scale", choices=sorted(SCALE_PRESETS),
                        default=None,
                        help="protocol scale (default: BOMP_SCALE env or "
                             "'smoke')")
    search.add_argument("--seed", type=non_negative_int, default=0)
    search.add_argument("--ref-acc", type=positive_float, default=0.8,
                        help="Eq. (1) accuracy reference")
    search.add_argument("--ref-size", type=positive_float, default=None,
                        help="Eq. (1) size reference (default: paper value "
                             "for the dataset)")
    search.add_argument("--policies-per-trial", type=positive_int,
                        default=1,
                        help="quantization policies evaluated per trained "
                             "network (paper future-work extension)")
    search.add_argument("--workers", type=positive_int, default=None,
                        help="process-pool size for trial evaluation "
                             "(default: CPU count, capped at 8; results "
                             "are identical for any value)")
    search.add_argument("--trial-batch", type=positive_int, default=None,
                        help="candidates proposed per constant-liar BO "
                             "batch (default 4; part of the search "
                             "schedule, unlike --workers)")
    search.add_argument("--no-final-training", action="store_true",
                        help="skip final training of the Pareto set")
    search.add_argument("--checkpoint-dir", default=None,
                        help="atomically persist the search state to "
                             "<dir>/checkpoint.json after every BO batch; "
                             "an interrupted run restarts with --resume")
    search.add_argument("--resume", default=None, metavar="RUN_DIR",
                        help="resume an interrupted search from its "
                             "checkpoint directory; the config and dataset "
                             "are restored from the checkpoint and the "
                             "resumed run is bit-identical to an "
                             "uninterrupted one")
    search.add_argument("--trial-timeout", type=finite_float, default=None,
                        help="per-trial wall-clock timeout in seconds for "
                             "pooled evaluation (<= 0 disables; default "
                             "3600)")
    search.add_argument("--out", default=None,
                        help="write the result JSON here")
    search.add_argument("--trace", action="store_true",
                        help="record a structured event log (spans + "
                             "metrics) for the run; never changes results")
    search.add_argument("--trace-dir", default=None,
                        help="run directory for the event log (implies "
                             "--trace; default runs/<mode>-<dataset>-"
                             "<scale>-seed<seed>)")
    search.add_argument("--profile", nargs="?", const="time",
                        choices=("time", "alloc"), default=None,
                        help="profile phase/kernel hot spots into the "
                             "event log (implies --trace; 'alloc' adds "
                             "tracemalloc peaks and ndarray allocation "
                             "counts; never changes results)")
    search.add_argument("--quiet", action="store_true")

    report = commands.add_parser(
        "report",
        help="regenerate a paper figure/table, or render the "
             "dashboard of a run directory (search or serve)")
    report.add_argument("artifact",
                        help="one of %s, or a path to a run directory / "
                             "events.jsonl" % ", ".join(PAPER_ARTIFACTS))
    report.add_argument("--scale", choices=sorted(SCALE_PRESETS),
                        default=None)
    report.add_argument("--seed", type=non_negative_int, default=7)
    report.add_argument("--workers", type=positive_int, default=None,
                        help="process-pool size for the underlying "
                             "searches (default: BOMP_WORKERS env or 1; "
                             "cached results are reused either way)")
    report.add_argument("--svg-out", default=None,
                        help="also write an SVG rendering here (figures "
                             "and run-dir dashboards; a profiled run "
                             "adds <name>-flame.svg)")

    inspect = commands.add_parser(
        "inspect", help="summarize a saved search result")
    inspect.add_argument("result", help="path to a result JSON")

    space = commands.add_parser(
        "space", help="print the search space and cardinalities")
    space.add_argument("--dataset", choices=("cifar10", "cifar100"),
                       default="cifar10")

    export = commands.add_parser(
        "export",
        help="materialize a searched model into a deployable "
             "integer-inference artifact")
    export.add_argument("source",
                        help="search result JSON, checkpoint.json, or a "
                             "run directory containing either")
    export.add_argument("--trial", type=int, default=None,
                        help="trial index to export (default: highest "
                             "score)")
    export.add_argument("--force-qaft", action="store_true",
                        help="apply QAFT in the re-run final training "
                             "even for PTQ search modes")
    export.add_argument("--out", default=None,
                        help="artifact path (default: <source dir>/"
                             "model-trial<N>.bomp)")

    infer = commands.add_parser(
        "infer", help="run the integer-only engine on an exported "
                      "artifact")
    infer.add_argument("artifact", help="path to a .bomp artifact")
    infer.add_argument("--batch-size", type=positive_int, default=256)
    infer.add_argument("--limit", type=positive_int, default=None,
                       help="evaluate at most N test images")
    infer.add_argument("--parity", action="store_true",
                       help="also run the parity harness against the "
                            "rebuilt fake-quant reference")

    serve = commands.add_parser(
        "serve",
        help="serve exported .bomp artifacts over HTTP with dynamic "
             "batching and admission control")
    serve.add_argument("--model", action="append", default=[],
                       metavar="NAME=PATH",
                       help="load a model at startup (repeatable); more "
                            "can be loaded later via POST "
                            "/v1/models/<name>/load")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=port_number, default=8700,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--max-batch", type=positive_int, default=8,
                       help="arena capacity: most images per coalesced "
                            "batch")
    serve.add_argument("--max-wait-ms", type=non_negative_float,
                       default=5.0,
                       help="how long a batch waits to fill before "
                            "running short")
    serve.add_argument("--queue-depth", type=positive_int, default=64,
                       help="admitted-but-unbatched bound per model; "
                            "beyond it requests are shed with 429")
    serve.add_argument("--workers-per-model", type=positive_int,
                       default=1,
                       help="batch workers (private arenas) per model")
    serve.add_argument("--timeout-ms", type=positive_float,
                       default=30_000.0,
                       help="default server-side request deadline")
    serve.add_argument("--slo-p99-ms", type=positive_float, default=None,
                       help="p99 latency target judged by repro report")
    serve.add_argument("--run-dir", default=None,
                       help="stream the event log (events.jsonl) here "
                            "(default runs/serve)")
    return parser


def default_trace_dir(config: SearchConfig) -> str:
    """Deterministic run-directory name for ``--trace`` without a path."""
    return (f"runs/{config.mode.name}-{config.dataset}-"
            f"{config.scale.name}-seed{config.seed}")


def _resumed_search_inputs(args: argparse.Namespace):
    """(config, dataset) restored from the ``--resume`` checkpoint.

    The checkpoint is the source of truth for a resumed run: flags like
    ``--mode`` or ``--seed`` are ignored so the resumed search cannot
    silently diverge from the interrupted one.
    """
    from .data.synthetic import make_synthetic_dataset
    from .nas.results import config_from_dict
    from .resilience.checkpoint import load_checkpoint, restoring_from
    checkpoint = load_checkpoint(args.resume)
    if checkpoint.dataset_spec is None:
        raise SystemExit(
            f"checkpoint at {args.resume} records no dataset spec; "
            "cannot reconstruct the dataset for a resumed run")
    with restoring_from(args.resume):
        config = config_from_dict(checkpoint.config)
        dataset = make_synthetic_dataset(**checkpoint.dataset_spec)
    return config, dataset


def cmd_search(args: argparse.Namespace) -> int:
    if args.resume:
        config, dataset = _resumed_search_inputs(args)
        scale = config.scale
    else:
        scale = get_scale(args.scale)
        ref_size = args.ref_size if args.ref_size is not None else \
            REF_SIZE[args.dataset]
        config = SearchConfig(
            dataset=args.dataset, mode=get_mode(args.mode), scale=scale,
            scalarization=ScalarizationConfig(ref_accuracy=args.ref_acc,
                                              ref_model_size=ref_size),
            seed=args.seed, policies_per_trial=args.policies_per_trial)
        dataset = load_dataset(args.dataset, n_train=scale.n_train,
                               n_test=scale.n_test,
                               image_size=scale.image_size, seed=args.seed)
    reporter = ConsoleReporter(quiet=args.quiet)
    verb = "resuming" if args.resume else "running"
    reporter.info(f"{verb} {config.describe()}")
    progress = None if args.quiet else reporter.trial

    from .parallel import RetryPolicy, default_workers
    workers = args.workers if args.workers is not None else default_workers()
    retry_policy = None
    if args.trial_timeout is not None:
        timeout = args.trial_timeout if args.trial_timeout > 0 else None
        retry_policy = RetryPolicy(trial_timeout_s=timeout)
    nas = BOMPNAS(config, dataset, progress=progress)
    tracer = None
    if args.trace or args.trace_dir or args.profile:
        trace_dir = args.trace_dir or default_trace_dir(config)
        tracer = RunTracer(trace_dir)
        reporter.info(f"tracing to {tracer.path}")
    # the run uses an installed profiler, hands its mode to pool workers
    # and flushes it into the event log
    profiler = profile.current()
    if args.profile:
        profiler = profile.KernelProfiler(args.profile)
        reporter.info(f"profiling ({args.profile} mode)")
    try:
        with profile.use_profiler(profiler):
            result = nas.run(final_training=not args.no_final_training,
                             workers=workers, batch_size=args.trial_batch,
                             tracer=tracer,
                             checkpoint_dir=args.checkpoint_dir,
                             resume_from=args.resume,
                             retry_policy=retry_policy, reporter=reporter)
    finally:
        if tracer is not None:
            tracer.close()
    reporter.emit(result.summary())
    if args.out:
        result.save(args.out)
        reporter.emit(f"result written to {args.out}")
    if tracer is not None:
        reporter.emit(f"event log written to {tracer.path} "
                      f"(render with: repro report {tracer.run_dir})")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    reporter = ConsoleReporter()
    if args.artifact not in PAPER_ARTIFACTS:
        path = Path(args.artifact)
        if path.is_dir() or path.suffix == ".jsonl":
            if not events_path(path).exists():
                reporter.emit(f"no {EVENTS_FILENAME} under {path}; was the "
                              "search run with --trace, or the daemon "
                              "with --run-dir?")
                return 1
            from .obs.report import write_report
            report, text = write_report(path, svg_out=args.svg_out)
            reporter.emit(text)
            if args.svg_out:
                reporter.emit(f"SVG written to {args.svg_out}")
            return 0 if report.ok() else 1
        raise SystemExit(
            f"unknown artifact {args.artifact!r}: expected one of "
            f"{', '.join(PAPER_ARTIFACTS)} or a traced run directory")
    from .experiments import figures, tables
    if args.artifact.startswith("table"):
        if args.artifact == "table1":
            _, text = tables.table1()
        else:
            ctx = ExperimentContext(args.scale, seed=args.seed,
                                    workers=args.workers)
            _, text = getattr(tables, args.artifact)(ctx)
        reporter.emit(text)
        return 0
    ctx = ExperimentContext(args.scale, seed=args.seed, workers=args.workers)
    data, text = getattr(figures, args.artifact)(ctx)
    reporter.emit(text)
    if args.svg_out:
        from .experiments.svg import figure_to_svg
        figure_to_svg(data, args.artifact.replace("fig", "Figure "),
                      path=args.svg_out)
        reporter.emit(f"SVG written to {args.svg_out}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    reporter = ConsoleReporter()
    try:
        result = SearchResult.load(args.result)
    except ResultError as exc:
        raise SystemExit(f"inspect failed: {exc}")
    reporter.emit(result.summary())
    reporter.emit("\ncandidate Pareto front (accuracy, size kB):")
    for accuracy, size_kb in result.candidate_front():
        reporter.emit(f"  {accuracy:.3f}  {size_kb:9.2f}")
    return 0


def cmd_space(args: argparse.Namespace) -> int:
    ConsoleReporter().emit(SearchSpace(args.dataset).summary())
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    reporter = ConsoleReporter()
    from .infer import ArtifactError, export_run, save_artifact
    from .quant.export import exported_size_kb
    try:
        artifact, final = export_run(args.source, trial_index=args.trial,
                                     force_qaft=args.force_qaft or None)
    except ArtifactError as exc:
        raise SystemExit(f"export failed: {exc}")
    source = Path(args.source)
    out = args.out or str(
        (source if source.is_dir() else source.parent)
        / f"model-trial{final.trial_index}.bomp")
    save_artifact(artifact, out)
    reporter.emit(f"exported trial #{final.trial_index} to {out}")
    reporter.emit(f"  fake-quant accuracy: {final.accuracy:.3f}")
    if final.deployed_accuracy is not None:
        reporter.emit(f"  integer-engine accuracy: "
                      f"{final.deployed_accuracy:.3f}")
    reporter.emit(f"  container: "
                  f"{exported_size_kb(artifact.container):.2f} kB "
                  f"(analytic {final.size_kb:.2f} kB)")
    reporter.emit(f"run with: repro infer {out}")
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    reporter = ConsoleReporter()
    from .infer import (ArtifactError, check_parity, deployment_report,
                        format_report, load_artifact_cached)
    try:
        cached = load_artifact_cached(args.artifact)
        artifact = cached.artifact
        model = artifact.rebuild()
    except (ArtifactError, OSError, ValueError) as exc:
        raise SystemExit(f"cannot load artifact: {exc}")
    program = cached.program
    reporter.emit(repr(program))
    reporter.emit(format_report(deployment_report(program)))
    from .infer.plan import plan_arena
    reporter.emit(plan_arena(program.stages).describe())
    x, y = artifact.test_set()
    if args.limit is not None:
        x, y = x[:args.limit], y[:args.limit]
    accuracy = program.accuracy(x, y, batch_size=args.batch_size)
    reporter.emit(f"deployed top-1 accuracy on {x.shape[0]} test images: "
                  f"{accuracy:.3f}")
    if args.parity:
        report = check_parity(model, program, x[:args.batch_size])
        reporter.emit(report.format())
        if not report.ok():
            reporter.emit("PARITY FAILED")
            return 1
    return 0


def _parse_model_args(pairs: List[str]) -> List[tuple]:
    models = []
    for pair in pairs:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise SystemExit(f"--model wants NAME=PATH, got {pair!r}")
        models.append((name, path))
    return models


def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    reporter = ConsoleReporter()
    from .obs.report import load_report, render_text
    from .serve import ServeConfig, ServeDaemon
    models = _parse_model_args(args.model)
    config = ServeConfig(
        host=args.host, port=args.port, max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms, queue_depth=args.queue_depth,
        workers_per_model=args.workers_per_model,
        default_timeout_ms=args.timeout_ms, slo_p99_ms=args.slo_p99_ms,
        run_dir=args.run_dir or "runs/serve")
    daemon = ServeDaemon(config)
    for name, path in models:
        runtime = daemon.load_model(name, path)
        info = runtime.entry.describe()
        reporter.emit(f"loaded {name}: {path} "
                      f"(input {info['input_shape']}, "
                      f"{info['num_classes']} classes)")
    host, port = daemon.start()
    reporter.emit(f"serving on http://{host}:{port} "
                  f"(max_batch={config.max_batch}, "
                  f"max_wait={config.max_wait_ms}ms, "
                  f"queue_depth={config.queue_depth})")
    reporter.emit(f"event log: {config.run_dir}/{EVENTS_FILENAME} "
                  "(SIGTERM/Ctrl-C drains)")

    def _drain(signum, frame):
        daemon.request_shutdown()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    daemon.wait()
    reporter.emit("draining...")
    daemon.shutdown(drain=True)
    reporter.emit(render_text(load_report(config.run_dir)))
    return 0


COMMANDS = {
    "search": cmd_search,
    "report": cmd_report,
    "inspect": cmd_inspect,
    "space": cmd_space,
    "export": cmd_export,
    "infer": cmd_infer,
    "serve": cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
