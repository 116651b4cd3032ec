"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``   print Table I-style statistics of the bundled datasets
``models``     print the model registry (names, profiles, supervision)
``generate``   fit a model on a dataset and report generation quality
``evaluate``   overall + protected discrepancy of a fitted model
``augment``    run the Figure 6 data-augmentation study
``sweep``      run a model×dataset×profile×seed grid in local child
               processes, one per job
``serve``      long-lived generation daemon over the artifact cache:
               continuous-batching walk decode, model LRU, bounded
               admission queue (see README "Serving")
``trace``      trace-file utilities; ``trace summarize <file>`` prints
               a per-span wall/self-time table of a Chrome-trace JSONL
               produced with ``--trace`` / ``REPRO_TRACE``

The global ``--trace PATH`` flag (equivalently the ``REPRO_TRACE``
environment variable) makes any command emit a Chrome trace_event file
loadable in Perfetto or ``chrome://tracing``; with the flag unset,
instrumentation is a no-op (see README "Observability").

``generate`` and ``evaluate`` also accept ``--server URL`` to route the
request to a running ``repro serve`` daemon instead of executing
locally.  ``serve`` shuts down gracefully on SIGTERM/SIGINT: in-flight
requests drain before exit.

Every model run routes through the experiment API
(:class:`repro.experiments.Runner`): models are built from the registry
under a named hyperparameter profile (``--profile paper|bench|smoke``),
unlabeled datasets receive surrogate supervision for label-aware models
(disable with ``--no-surrogate-labels``), and ``--cache-dir`` enables the
disk-backed artifact cache so repeated invocations skip fitting.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .data import (dataset_names, dataset_statistics, labeled_dataset_names,
                   load_dataset)
from .eval import augmentation_study
from .experiments import ExperimentSpec, QueueError, Runner
from .experiments import sweep as sweep_api
from .graph.metrics import METRIC_NAMES
from .registry import get_entry, model_names, profile_names
from .utils import format_table

__all__ = ["main", "build_parser"]

MODEL_CHOICES = sorted(model_names())


def _add_run_arguments(cmd: argparse.ArgumentParser,
                       datasets: list[str] | None = None) -> None:
    """Arguments shared by every command that executes a model run."""
    cmd.add_argument("--dataset", required=True,
                     choices=datasets or dataset_names())
    cmd.add_argument("--model", required=True, choices=MODEL_CHOICES)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--profile", choices=profile_names(), default="paper",
                     help="hyperparameter profile from the model registry")
    cmd.add_argument("--cycles", type=int, default=None,
                     help="override FairGen self-paced cycles")
    cmd.add_argument("--generator-steps", type=int, default=None,
                     help="override FairGen generator steps per cycle")
    cmd.add_argument("--cache-dir", default=None,
                     help="directory of the disk-backed artifact cache; "
                          "warm entries skip fitting entirely")
    cmd.add_argument("--surrogate-labels", default=True,
                     action=argparse.BooleanOptionalAction,
                     help="derive degree-based surrogate supervision for "
                          "unlabeled datasets when a label-aware model "
                          "is requested (default: on)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FairGen reproduction command line")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome trace_event file of this "
                             "invocation (open in Perfetto or "
                             "chrome://tracing; same as REPRO_TRACE=PATH)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print dataset statistics")
    sub.add_parser("models", help="print the model registry")

    for name in ("generate", "evaluate"):
        cmd = sub.add_parser(name, help=f"{name} a model on a dataset")
        _add_run_arguments(cmd)
        cmd.add_argument("--server", default=None, metavar="URL",
                         help="route the request to a running `repro "
                              "serve` daemon (the spec must already be "
                              "fitted in the daemon's cache)")
        if name == "generate":
            cmd.add_argument("--walks", type=int, default=64,
                             help="walks to request in --server mode")
            cmd.add_argument("--length", type=int, default=None,
                             help="walk length in --server mode "
                                  "(default: the model's walk length)")

    aug = sub.add_parser("augment", help="Figure 6 augmentation study")
    # The augmentation study measures classification accuracy, which
    # needs the dataset's real labels — surrogate supervision is not a
    # substitute here, so only the labeled datasets are accepted.
    _add_run_arguments(aug, datasets=labeled_dataset_names())
    aug.add_argument("--fraction", type=float, default=0.05)

    swp = sub.add_parser(
        "sweep", help="run a model/dataset/profile/seed grid in local "
                      "child processes")
    swp.add_argument("--cache-dir", required=True,
                     help="artifact cache where results land")
    swp.add_argument("--model", action="append", required=True,
                     choices=MODEL_CHOICES, help="repeat for several models")
    swp.add_argument("--dataset", action="append", required=True,
                     choices=dataset_names(), help="repeat for several "
                     "datasets")
    swp.add_argument("--profile", action="append", choices=profile_names(),
                     default=None, help="repeat for several profiles "
                     "(default: paper)")
    swp.add_argument("--seed", action="append", type=int, default=None,
                     help="repeat for several seeds (default: 0)")
    swp.add_argument("--set", action="append", default=[], metavar="K=V",
                     dest="overrides",
                     help="hyperparameter override axis, JSON-valued: "
                          "--set self_paced_cycles=2 or "
                          "--set self_paced_cycles=[2,4] (a list sweeps "
                          "the axis)")
    swp.add_argument("--workers", type=int, default=2,
                     help="child processes running at once (at least 1)")
    swp.add_argument("--with-metrics", action="store_true",
                     help="compute the discrepancy scoreboard per spec")
    swp.add_argument("--timeout", type=float, default=None,
                     help="give up if the sweep has not finished in time")
    swp.add_argument("--surrogate-labels", default=True,
                     action=argparse.BooleanOptionalAction)

    srv = sub.add_parser(
        "serve", help="long-lived generation daemon with "
                      "continuous-batching walk decode")
    srv.add_argument("--cache-dir", required=True,
                     help="artifact cache holding the fitted "
                          "<key>.model.npz archives to serve")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8777,
                     help="listen port (0: pick a free port)")
    srv.add_argument("--max-models", type=int, default=4,
                     help="resident-model LRU capacity")
    srv.add_argument("--max-walks", type=int, default=256,
                     help="walk rows resident per decode batch")
    srv.add_argument("--max-inflight", type=int, default=8,
                     help="target concurrently decoding requests")
    srv.add_argument("--queue-depth", type=int, default=16,
                     help="requests allowed to wait beyond --max-inflight "
                          "before 429")
    srv.add_argument("--request-timeout", type=float, default=120.0,
                     help="per-request decode deadline in seconds")
    srv.add_argument("--verbose", action="store_true",
                     help="log every HTTP request")

    trc = sub.add_parser("trace", help="Chrome-trace file utilities")
    trc_sub = trc.add_subparsers(dest="trace_command", required=True)
    tsm = trc_sub.add_parser(
        "summarize", help="per-span count/total/self-time table of one "
                          "or more trace files written via --trace or "
                          "REPRO_TRACE")
    tsm.add_argument("files", nargs="+",
                     help="trace_event JSON(L) files to aggregate")
    tsm.add_argument("--top", type=int, default=None,
                     help="only print the N spans with the most total "
                          "time")
    return parser


def _spec(args) -> ExperimentSpec:
    """The experiment spec described by the parsed CLI arguments."""
    overrides = {}
    if get_entry(args.model).needs_supervision:
        if args.cycles is not None:
            overrides["self_paced_cycles"] = args.cycles
        if args.generator_steps is not None:
            overrides["generator_steps_per_cycle"] = args.generator_steps
    return ExperimentSpec(model=args.model, dataset=args.dataset,
                          profile=args.profile, seed=args.seed,
                          overrides=overrides)


def _runner(args) -> Runner:
    return Runner(cache_dir=args.cache_dir,
                  allow_surrogate=args.surrogate_labels)


def _run(runner: Runner, args, **kwargs):
    """Execute the requested spec, turning config errors into exit codes.

    Only spec/supervision *resolution* errors become clean exits;
    genuine runtime failures inside fit/generate keep their traceback.
    """
    try:
        spec = _spec(args)
        if get_entry(spec.model).needs_supervision:
            runner.supervision_for(spec)  # unlabeled + --no-surrogate-labels
    except (ValueError, KeyError) as exc:
        raise SystemExit(str(exc)) from exc
    return runner.run(spec, **kwargs)


def _cmd_datasets(_args) -> int:
    rows = []
    for name in dataset_names():
        stats = dataset_statistics(load_dataset(name))
        rows.append([stats["name"], stats["nodes"], stats["edges"],
                     stats["classes"] or "-", stats["protected"] or "-"])
    print(format_table(["dataset", "nodes", "edges", "classes",
                        "protected"], rows))
    return 0


def _cmd_models(_args) -> int:
    rows = []
    for name in model_names():
        entry = get_entry(name)
        rows.append([name, entry.display_name,
                     "yes" if entry.needs_supervision else "no",
                     ", ".join(sorted(entry.profiles))])
    print(format_table(["name", "display", "labels", "profiles"], rows))
    return 0


def _cmd_generate(args) -> int:
    if args.server:
        from .serve.client import ServeClient, ServeClientError

        key = _spec(args).cache_key()
        client = ServeClient(args.server, retries=3)
        try:
            walks = client.generate(key, args.walks, length=args.length,
                                    seed=args.seed)
        except ServeClientError as exc:
            raise SystemExit(f"server error ({exc.status}): {exc}") from exc
        print(f"model={key} server={args.server}")
        print(f"walks: {walks.shape[0]} x {walks.shape[1]}  "
              f"nodes visited: {np.unique(walks).size}")
        return 0
    runner = _runner(args)
    result = _run(runner, args, need_model=False)
    data = runner.dataset(args.dataset)
    cached = " (cached)" if result.from_cache else ""
    print(f"model={result.model_name} dataset={data.name} "
          f"profile={args.profile}{cached}")
    print(f"fit: {result.fit_seconds:.2f}s  "
          f"generate: {result.generate_seconds:.2f}s")
    print(f"original:  {data.graph}")
    print(f"generated: {result.generated}")
    return 0


def _cmd_evaluate(args) -> int:
    if args.server:
        from .serve.client import ServeClient, ServeClientError

        key = _spec(args).cache_key()
        try:
            metrics = ServeClient(args.server).evaluate(key)["metrics"]
        except ServeClientError as exc:
            raise SystemExit(f"server error ({exc.status}): {exc}") from exc
    else:
        metrics = _run(_runner(args), args, with_metrics=True).metrics
    rows = [[name, f"{metrics['overall'][name]:.4f}"]
            for name in METRIC_NAMES]
    rows.append(["mean R", f"{metrics['overall_mean']:.4f}"])
    if "protected" in metrics:
        label = ("mean R+ (surrogate)"
                 if metrics.get("protected_surrogate") else "mean R+")
        rows.append([label, f"{metrics['protected_mean']:.4f}"])
    print(format_table(["metric", "discrepancy"], rows))
    return 0


def _cmd_augment(args) -> int:
    # Unlabeled datasets are already rejected by the subparser's
    # --dataset choices (labeled_dataset_names()).
    runner = _runner(args)
    data = runner.dataset(args.dataset)
    result = _run(runner, args, need_model=True)
    study = augmentation_study(data.graph, data.labels, data.num_classes,
                               result.model,
                               np.random.default_rng(args.seed),
                               fraction=args.fraction)
    print(f"baseline accuracy:  {study.baseline_accuracy:.4f} "
          f"(+/- {study.baseline_std:.4f})")
    print(f"augmented accuracy: {study.augmented_accuracy:.4f} "
          f"(+/- {study.augmented_std:.4f})")
    print(f"relative gain:      {study.improvement:+.2%}")
    return 0


def _parse_override_axes(pairs: list[str]) -> dict[str, object]:
    """Parse ``--set k=v`` flags; values are JSON (fallback: string)."""
    axes: dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects K=V, got {pair!r}")
        try:
            axes[key] = json.loads(raw)
        except json.JSONDecodeError:
            axes[key] = raw  # bare strings need no quoting
    return axes


def _cmd_sweep(args) -> int:
    try:
        specs = sweep_api.grid(
            args.model, args.dataset,
            profiles=args.profile or ["paper"],
            seeds=args.seed if args.seed is not None else [0],
            overrides=_parse_override_axes(args.overrides))
    except (ValueError, KeyError) as exc:
        raise SystemExit(str(exc)) from exc
    print(f"sweep: {len(specs)} spec(s) -> {args.cache_dir}")
    total = len(specs)
    live = sys.stdout.isatty()
    last_counts: dict[str, int] = {}

    def progress(counts: dict[str, int]) -> None:
        # A terminal gets a continuously refreshed \r line; a log file
        # only gets a new line when the counts actually change.
        if not live and counts == last_counts:
            return
        last_counts.update(counts)
        line = (f"done {counts['done']}/{total}  "
                f"pending={counts['pending']} running={counts['running']} "
                f"failed={counts['failed']}")
        print(f"\r{line}", end="" if live else "\n", flush=True)

    try:
        report = sweep_api.run_sweep(
            specs, args.cache_dir, workers=args.workers,
            with_metrics=args.with_metrics, timeout=args.timeout, allow_surrogate=args.surrogate_labels,
            progress=progress)
    except (QueueError, ValueError) as exc:
        print()
        raise SystemExit(str(exc)) from exc
    print()
    print(_sweep_table(report, with_metrics=args.with_metrics))
    if args.with_metrics:
        board = report.scoreboard()
        if board:
            print()
            print("seed-averaged scoreboard (mean +/- std):")
            print(_scoreboard_table(board))
    print(f"{report.completed}/{total} completed in {report.seconds:.1f}s, "
          f"{len(report.fits)} fit(s), "
          f"{report.duplicate_fits} duplicate fit(s)")
    for job_id, message in report.failures.items():
        print(f"\nFAILED {job_id}:\n{message}", file=sys.stderr)
    return 1 if report.failures else 0


def _sweep_table(report, with_metrics: bool = False) -> str:
    headers = ["model", "dataset", "profile", "seed", "status",
               "fit_s", "gen_s"]
    if with_metrics:
        headers.append("mean R")
    rows = []
    for spec, result in zip(report.specs, report.results):
        if result is None:
            row = [get_entry(spec.model).display_name, spec.dataset,
                   spec.profile, spec.seed, "FAILED", "-", "-"]
            if with_metrics:
                row.append("-")
        else:
            row = [result.model_name, spec.dataset, spec.profile, spec.seed,
                   "done", f"{result.fit_seconds:.2f}",
                   f"{result.generate_seconds:.2f}"]
            if with_metrics:
                row.append(f"{result.metrics['overall_mean']:.4f}")
        rows.append(row)
    return format_table(headers, rows)


def _scoreboard_table(board: list[dict]) -> str:
    """Render :meth:`SweepReport.scoreboard` rows as a summary table."""
    rows = []
    for row in board:
        model = row["model"]
        if row.get("overrides"):
            # Cells split by hyperparameter overrides must stay
            # distinguishable in the rendered table.
            model += " {" + ", ".join(f"{k}={v}" for k, v
                                      in row["overrides"].items()) + "}"
        overall = f"{row['overall_mean']:.4f} +/- {row['overall_std']:.4f}"
        if "protected_mean" in row:
            protected = (f"{row['protected_mean']:.4f} +/- "
                         f"{row['protected_std']:.4f}")
            if row.get("protected_surrogate"):
                protected += " (surrogate)"
        else:
            protected = "-"
        rows.append([model, row["dataset"], row["profile"],
                     row["seeds"], overall, protected])
    return format_table(["model", "dataset", "profile", "seeds",
                         "mean R", "mean R+"], rows)


def _install_drain_handler(on_signal) -> None:
    """SIGTERM/SIGINT call ``on_signal`` once; a second signal kills.

    The first signal requests a graceful drain (finish in-flight work,
    then exit); an operator who cannot wait sends the signal again and
    gets the default die-now behaviour back.
    """
    import signal

    def handler(signum, _frame):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        on_signal(signum)

    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)


def _cmd_serve(args) -> int:
    import threading

    from .obs.metrics import get_registry
    from .serve.daemon import ServeDaemon

    daemon = ServeDaemon(args.cache_dir, host=args.host, port=args.port,
                         max_models=args.max_models,
                         max_walks=args.max_walks,
                         max_inflight=args.max_inflight,
                         queue_depth=args.queue_depth,
                         request_timeout=args.request_timeout,
                         verbose=args.verbose, registry=get_registry())
    stop = threading.Event()
    _install_drain_handler(lambda signum: stop.set())
    daemon.start()
    # The subprocess tests (and humans scripting the daemon) parse this
    # line for the bound address, so --port 0 is usable.
    print(f"serving on {daemon.url} (cache: {args.cache_dir})", flush=True)
    stop.wait()
    print("draining in-flight requests...", flush=True)
    daemon.shutdown()
    print("served "
          f"{daemon.admission.completed} request(s); bye", flush=True)
    return 0


def _cmd_trace(args) -> int:
    from .obs.trace import render_summary, summarize_trace

    if args.trace_command == "summarize":
        try:
            rows = summarize_trace(args.files)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc)) from exc
        if not rows:
            print("(no duration events)")
            return 0
        if args.top is not None:
            rows = rows[:args.top]
        print(render_summary(rows))
        return 0
    raise SystemExit(f"unknown trace command {args.trace_command!r}")


_COMMANDS = {
    "datasets": _cmd_datasets,
    "models": _cmd_models,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "augment": _cmd_augment,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.trace is not None:
        from .obs import trace as _trace

        try:
            _trace.enable(args.trace)
        except OSError as exc:
            raise SystemExit(f"cannot open trace file: {exc}") from exc
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
