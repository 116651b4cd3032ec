"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``   print Table I-style statistics of the bundled datasets
``models``     print the model registry (names, profiles, supervision)
``generate``   fit a model on a dataset and report generation quality
``evaluate``   overall + protected discrepancy of a fitted model
``augment``    run the Figure 6 data-augmentation study
``sweep``      submit a model×dataset×profile×seed grid to a job queue,
               optionally self-hosting local workers; ``--status
               <queue_dir>`` prints a read-only queue dashboard instead
``worker``     drain a sweep queue (run one per core / per host)
``serve``      long-lived generation daemon over the artifact cache:
               continuous-batching walk decode, model LRU, bounded
               admission queue (see README "Serving")
``ingest``     shard an edge-list file or graph archive into an
               out-of-core shard directory (see README "Sharded graphs")
``graph``      shard-directory utilities; ``graph stats <dir>`` prints
               the manifest summary without loading any shard
``trace``      trace-file utilities; ``trace summarize <file>`` prints
               a per-span wall/self-time table of a Chrome-trace JSONL
               produced with ``--trace`` / ``REPRO_TRACE``

The global ``--trace PATH`` flag (equivalently the ``REPRO_TRACE``
environment variable) makes any command emit a Chrome trace_event file
loadable in Perfetto or ``chrome://tracing``; with the flag unset,
instrumentation is a no-op (see README "Observability").

``generate`` and ``evaluate`` also accept ``--server URL`` to route the
request to a running ``repro serve`` daemon instead of executing
locally.  Both ``serve`` and ``worker --keep-alive`` shut down
gracefully on SIGTERM/SIGINT: in-flight work drains before exit.

Every model run routes through the experiment API
(:class:`repro.experiments.Runner`): models are built from the registry
under a named hyperparameter profile (``--profile paper|bench|smoke``),
unlabeled datasets receive surrogate supervision for label-aware models
(disable with ``--no-surrogate-labels``), and ``--cache-dir`` enables the
disk-backed artifact cache so repeated invocations skip fitting.  The
``sweep``/``worker`` pair runs batches across a worker fleet: both sides
only need to see the same ``--queue-dir`` and ``--cache-dir``, so a
second machine pointing at a shared mount joins the fleet as-is.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .data import (dataset_names, dataset_statistics, labeled_dataset_names,
                   load_dataset)
from .eval import augmentation_study
from .experiments import ExperimentSpec, JobQueue, QueueError, Runner, Worker
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
        "sweep", help="run a model/dataset/profile/seed grid through the "
                      "distributed job queue (or --status to inspect one)")
    swp.add_argument("--status", metavar="QUEUE_DIR", default=None,
                     help="print a read-only dashboard of the queue "
                          "(counts, lease ages, retries) and exit")
    swp.add_argument("--queue-dir", default=None,
                     help="job-queue directory shared by every worker")
    swp.add_argument("--cache-dir", default=None,
                     help="shared artifact cache where results land")
    swp.add_argument("--model", action="append", default=None,
                     choices=MODEL_CHOICES, help="repeat for several models")
    swp.add_argument("--dataset", action="append", default=None,
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
                     help="local worker processes to self-host (0: submit "
                          "and wait for external `repro worker` fleets)")
    swp.add_argument("--with-metrics", action="store_true",
                     help="compute the discrepancy scoreboard per spec")
    swp.add_argument("--stack-seeds", action="store_true",
                     help="collapse each eligible grid cell's seed axis "
                          "into ONE vmap-style stacked fit before "
                          "submission (per-seed artifacts land under "
                          "their ordinary cache keys; workers then "
                          "replay them with zero refits)")
    swp.add_argument("--submit-only", action="store_true",
                     help="enqueue the grid and exit without waiting")
    swp.add_argument("--lease-timeout", type=float, default=None,
                     help="seconds without heartbeat before a job is "
                          "requeued (recorded in the queue config)")
    swp.add_argument("--max-retries", type=int, default=None,
                     help="requeues per job before it fails terminally")
    swp.add_argument("--timeout", type=float, default=None,
                     help="give up if the sweep has not drained in time")
    swp.add_argument("--surrogate-labels", default=True,
                     action=argparse.BooleanOptionalAction)

    wrk = sub.add_parser(
        "worker", help="drain jobs from a sweep queue until it is empty")
    wrk.add_argument("queue_dir", help="job-queue directory to drain")
    wrk.add_argument("--cache-dir", required=True,
                     help="shared artifact cache where results land")
    wrk.add_argument("--max-jobs", type=int, default=None,
                     help="exit after executing this many jobs")
    wrk.add_argument("--keep-alive", action="store_true",
                     help="keep polling an empty queue instead of exiting "
                          "(standing-fleet mode)")
    wrk.add_argument("--poll", type=float, default=0.5,
                     help="seconds between claim attempts when idle")
    wrk.add_argument("--worker-id", default=None,
                     help="override the autogenerated worker identity")
    wrk.add_argument("--metrics-file", nargs="?", const="auto",
                     default=None, metavar="PATH",
                     help="periodically write a JSON metrics snapshot "
                          "(job counts, queue depth, runner cache "
                          "hits/misses); bare flag picks "
                          "<queue_dir>/metrics/<worker_id>.json, which "
                          "`repro sweep --status` aggregates")
    wrk.add_argument("--metrics-interval", type=float, default=None,
                     help="seconds between snapshots (default: the "
                          "heartbeat interval)")
    wrk.add_argument("--surrogate-labels", default=True,
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

    ing = sub.add_parser(
        "ingest", help="shard an edge list into an out-of-core graph "
                       "directory (bounded-memory streaming ingest)")
    ing.add_argument("source",
                     help="whitespace edge-list file ('u v' per line, "
                          "'#' comments) or a graph-csr .npz archive")
    ing.add_argument("out_dir", help="shard directory to create")
    ing.add_argument("--num-shards", type=int, default=None,
                     help="node-range shard count (default: 1)")
    ing.add_argument("--nodes-per-shard", type=int, default=None,
                     help="alternative sizing: nodes per shard")
    ing.add_argument("--num-nodes", type=int, default=None,
                     help="node-id space size for edge-list input "
                          "(default: max id + 1, found by one extra "
                          "streaming pass)")
    ing.add_argument("--overwrite", action="store_true",
                     help="replace a completed shard directory at "
                          "out_dir (interrupted ingests never need this)")

    grf = sub.add_parser("graph", help="shard-directory utilities")
    grf_sub = grf.add_subparsers(dest="graph_command", required=True)
    gst = grf_sub.add_parser(
        "stats", help="print a shard directory's manifest summary "
                      "(nodes, edges, shards, degree histogram) without "
                      "loading any shard resident")
    gst.add_argument("shard_dir")

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


def _cmd_sweep_status(queue_dir: str) -> int:
    """Read-only dashboard over a sweep queue's current state."""
    from pathlib import Path

    # Only accept a directory that already is a queue (every
    # initialised queue carries a queue.json): constructing JobQueue on
    # an arbitrary path would scaffold pending/claimed/... into it,
    # silently converting a typo'd directory into a valid empty queue.
    path = Path(queue_dir).expanduser()
    if not path.is_dir() or not (path / "queue.json").exists():
        raise SystemExit(f"no queue at {queue_dir}")
    queue = JobQueue(queue_dir)
    snapshot = queue.status()
    counts = snapshot["counts"]
    print(f"queue {queue.queue_dir} "
          f"(lease timeout {queue.lease_timeout:g}s, "
          f"max retries {queue.max_retries}):")
    print("  " + "  ".join(f"{state}={count}"
                           for state, count in counts.items()))
    if not snapshot["jobs"]:
        print("(no jobs)")
        return 0
    rows = []
    for job in snapshot["jobs"]:
        lease = ("-" if job["lease_age"] is None
                 else f"{job['lease_age']:.1f}s")
        rows.append([job["id"], job["state"], job["attempts"],
                     job["retries"], job["worker"] or "-", lease,
                     (job["note"] or "-")[:60]])
    print(format_table(["job", "state", "attempts", "retries", "worker",
                        "lease age", "note"], rows))
    _print_fleet_metrics(path)
    return 0


def _snapshot_total(snap: dict, name: str) -> int:
    """Sum a counter across its label series in one worker snapshot."""
    entry = snap.get(name)
    if not isinstance(entry, dict):
        return 0
    value = entry.get("value", 0)
    if isinstance(value, dict):
        return int(sum(v for v in value.values()
                       if isinstance(v, (int, float))))
    return int(value) if isinstance(value, (int, float)) else 0


def _print_fleet_metrics(queue_path) -> None:
    """Aggregate `repro worker --metrics-file` snapshots, if any exist.

    Workers with the bare ``--metrics-file`` flag drop their registry
    snapshots under ``<queue_dir>/metrics/``; this section turns them
    into a fleet dashboard (per-worker claims/requeues plus the
    registry-backed queue-depth gauge of the freshest snapshot).
    """
    import time as _time

    metrics_dir = queue_path / "metrics"
    if not metrics_dir.is_dir():
        return
    snapshots = []
    for snap_path in sorted(metrics_dir.glob("*.json")):
        try:
            snap = json.loads(snap_path.read_text())
        except (OSError, json.JSONDecodeError):
            continue  # a worker may be mid-write; skip, not crash
        if isinstance(snap, dict):
            snapshots.append(snap)
    if not snapshots:
        return
    print()
    print("fleet metrics (worker snapshots):")
    rows = []
    for snap in snapshots:
        taken = snap.get("snapshot_unix_time")
        age = (f"{max(_time.time() - taken, 0.0):.0f}s"
               if isinstance(taken, (int, float)) else "-")
        rows.append([snap.get("worker_id", "?"),
                     _snapshot_total(snap, "worker_jobs_total"),
                     _snapshot_total(snap, "jobqueue_claims_total"),
                     _snapshot_total(snap, "jobqueue_requeues_total"),
                     _snapshot_total(snap, "jobqueue_lease_expiries_total"),
                     age])
    print(format_table(["worker", "jobs", "claims", "requeues",
                        "lease exp", "snapshot age"], rows))
    freshest = max(snapshots,
                   key=lambda s: s.get("snapshot_unix_time") or 0)
    depth = freshest.get("jobqueue_depth", {})
    if isinstance(depth, dict) and isinstance(depth.get("value"), dict):
        states = {}
        for label_key, value in depth["value"].items():
            try:
                state = json.loads(label_key).get("state", label_key)
            except (json.JSONDecodeError, AttributeError):
                state = label_key
            states[state] = int(value)
        if states:
            print("queue depth (freshest snapshot): "
                  + "  ".join(f"{state}={count}"
                              for state, count in sorted(states.items())))


def _cmd_sweep(args) -> int:
    if args.status is not None:
        return _cmd_sweep_status(args.status)
    missing = [flag for flag, value in (("--queue-dir", args.queue_dir),
                                        ("--cache-dir", args.cache_dir),
                                        ("--model", args.model),
                                        ("--dataset", args.dataset))
               if not value]
    if missing:
        raise SystemExit("repro sweep requires " + ", ".join(missing)
                         + " (or --status QUEUE_DIR to inspect a queue)")
    try:
        specs = sweep_api.grid(
            args.model, args.dataset,
            profiles=args.profile or ["paper"],
            seeds=args.seed if args.seed is not None else [0],
            overrides=_parse_override_axes(args.overrides))
    except (ValueError, KeyError) as exc:
        raise SystemExit(str(exc)) from exc
    queue = JobQueue(args.queue_dir, lease_timeout=args.lease_timeout,
                     max_retries=args.max_retries)
    print(f"sweep: {len(specs)} spec(s) -> {queue.queue_dir}")
    if args.submit_only:
        queue.submit(specs, with_metrics=args.with_metrics)
        counts = queue.counts()
        print(f"submitted; queue now {counts} — drain with "
              f"`repro worker {queue.queue_dir} "
              f"--cache-dir {args.cache_dir}`")
        return 0

    total = len(specs)
    live = sys.stdout.isatty()
    last_counts: dict[str, int] = {}

    def progress(counts: dict[str, int]) -> None:
        # A terminal gets a continuously refreshed \r line; a log file
        # only gets a new line when the counts actually change (a long
        # sweep polls several times a second).
        if not live and counts == last_counts:
            return
        last_counts.update(counts)
        line = (f"done {counts['done']}/{total}  "
                f"pending={counts['pending']} running={counts['claimed']} "
                f"failed={counts['failed']}")
        print(f"\r{line}", end="" if live else "\n", flush=True)

    try:
        report = sweep_api.run_sweep(
            specs, args.queue_dir, args.cache_dir, workers=args.workers,
            with_metrics=args.with_metrics, stack_seeds=args.stack_seeds,
            lease_timeout=args.lease_timeout, max_retries=args.max_retries,
            timeout=args.timeout, allow_surrogate=args.surrogate_labels,
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


def _cmd_worker(args) -> int:
    import threading

    worker = Worker(args.queue_dir, args.cache_dir,
                    worker_id=args.worker_id,
                    allow_surrogate=args.surrogate_labels,
                    metrics_file=args.metrics_file,
                    metrics_interval=args.metrics_interval)
    stop = threading.Event()

    def on_signal(signum):
        print(f"worker {worker.worker_id}: signal {signum}, finishing "
              "current job then exiting", flush=True)
        stop.set()

    _install_drain_handler(on_signal)
    stats = worker.run(max_jobs=args.max_jobs, keep_alive=args.keep_alive,
                       poll_interval=args.poll, stop=stop)
    print(f"worker {worker.worker_id}: {stats['completed']} completed, "
          f"{stats['failed']} failed, {stats['lost']} lost")
    return 0


def _cmd_serve(args) -> int:
    import threading

    from .serve.daemon import ServeDaemon

    daemon = ServeDaemon(args.cache_dir, host=args.host, port=args.port,
                         max_models=args.max_models,
                         max_walks=args.max_walks,
                         max_inflight=args.max_inflight,
                         queue_depth=args.queue_depth,
                         request_timeout=args.request_timeout,
                         verbose=args.verbose)
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


def _cmd_ingest(args) -> int:
    from .graph.sharded import ingest_edge_file

    if args.num_shards is not None and args.nodes_per_shard is not None:
        raise SystemExit("pass --num-shards or --nodes-per-shard, "
                         "not both")
    try:
        sharded = ingest_edge_file(
            args.source, args.out_dir, num_nodes=args.num_nodes,
            num_shards=args.num_shards,
            nodes_per_shard=args.nodes_per_shard,
            overwrite=args.overwrite)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    stats = sharded.stats()
    print(f"ingested {stats['num_edges']} edges over "
          f"{stats['num_nodes']} nodes into {stats['num_shards']} "
          f"shard(s) at {stats['path']}")
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


def _cmd_graph(args) -> int:
    from .graph.sharded import ShardedGraph

    try:
        sharded = ShardedGraph(args.shard_dir)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    stats = sharded.stats()
    print(f"shard directory {stats['path']}")
    print(f"  nodes:  {stats['num_nodes']}")
    print(f"  edges:  {stats['num_edges']}")
    print(f"  shards: {stats['num_shards']}")
    print(f"  max degree: {stats['max_degree']}")
    rows = [[i, f"[{stats['shard_starts'][i]}, "
                f"{stats['shard_starts'][i + 1]})", edges]
            for i, edges in enumerate(stats["shard_edges"])]
    print(format_table(["shard", "node range", "edge slots"], rows))
    hist = stats["degree_histogram"]
    print(format_table(["degree", "nodes"],
                       [[b, c] for b, c in zip(hist["bins"],
                                               hist["counts"])]))
    return 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "models": _cmd_models,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "augment": _cmd_augment,
    "sweep": _cmd_sweep,
    "worker": _cmd_worker,
    "serve": _cmd_serve,
    "ingest": _cmd_ingest,
    "graph": _cmd_graph,
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
