"""The workloads and their end-to-end and per-layer metrics.

Every workload runs the same stages, weighted differently (see
``workloads.json``):

* **set-up** — ``setup_s`` is the median of several fresh-interpreter
  set-ups (``setup_probe.py``): import ``repro``, load the dataset, draw
  the supervision (and for ``serve-acm`` start the daemon, adopt the
  model and serve one warm-up request);
* **pipeline** — the public ``Runner.run(spec, with_metrics=True)``
  (fit → generate → evaluate) of each of the workload's models, repeated
  over seeds; ``pipeline_s`` sums the models' times.  Extra graphs from
  the fitted models give ``generate_s``;
* **serve** — closed- and open-loop segments against an in-process
  daemon (``serving.py``) serving a walk model of the workload.

A run is a number of rounds of [pipelines, extra graphs, closed loop,
open loop], with set-up samples between the parts, so every metric
samples the whole run rather than one stretch of it.  Every pipeline,
extra graph and served request is one checked operation; ``ok_frac`` is
the share that passed.

Each vCPU of the host switches between its calm speed and a 1.3-1.7x
slower state, for under a second up to minutes at a time, as other
tenants load the machine.  A run is therefore warmed up first, and a
duration is reported as the lower quartile of its samples, which keeps
to the calm speed whenever the run holds calm stretches; what remains of
the spread between runs follows the host.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE / "workloads.json").read_text())
WORKLOADS = CONFIG["workloads"]

#: end-to-end metric units, in BENCHMARK.json order
END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "generate_s": "s/graph",
    "serve_walks_per_s": "walks/s", "serve_latency_p50_ms": "ms",
    "serve_latency_p90_ms": "ms", "peak_rss_mb": "MB", "ok_frac": "share",
}

#: per-layer metric units, in BENCHMARK.json order
PER_LAYER_UNITS = {
    "data.load_s": "s", "graph.walks_s": "s", "graph.walks": "count",
    "embedding.node2vec_s": "s", "embedding.sgns_s": "s",
    "core.context_sample_s": "s", "core.disc_step_s": "s",
    "core.disc_score_s": "s", "core.self_paced_s": "s",
    "core.pseudo_label_share": "share",
    "models.forward_s": "s", "models.sample_s": "s", "models.assemble_s": "s",
    "nn.backward_s": "s", "nn.backward_calls": "count",
    "nn.optim_step_s": "s", "nn.decode_s": "s", "nn.decode_rows": "count",
    "train.steps": "count", "train.step_s": "s", "train.steps_per_s": "1/s",
    "eval.discrepancy_s": "s", "eval.aspl_s": "s", "eval.triangles_s": "s",
    "eval.R_mean": "ratio", "eval.R_protected_mean": "ratio",
    "experiments.run_s": "s", "experiments.cache_misses": "count",
    "serve.requests": "count", "serve.failed": "count",
    "serve.engine_steps": "count", "serve.rows_per_step": "rows",
    "serve.queue_wait_ms": "ms", "serve.engine_busy_share": "share",
    "serve.handler_ms": "ms", "serve.http_overhead_ms": "ms",
    "serve.generator_lag_ms": "ms",
    "trace.overhead_share": "share", "trace.unattributed_share": "share",
}

#: profile of the untimed warm-up pipelines and of the self-test's runs
TINY_PROFILE = "smoke"


def lower_quartile(values: list[float]) -> float:
    """First quartile of a run's samples of one duration."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


class Ledger:
    """Counts checked operations: every one attempted, those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


# ----------------------------------------------------------------------
# Stage 1: set-up
# ----------------------------------------------------------------------
def measure_setup(workload: str, samples: int) -> list[float]:
    """Wall times of ``samples`` fresh-interpreter set-ups."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                               workload], stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed "
                               f"(exit {code}, {line.strip()!r})")
    return times


def draw_supervision(dataset: str, seed: int):
    """The few-shot supervision a label-aware fit would receive."""
    from repro.experiments import ExperimentSpec, Runner

    runner = Runner()
    return runner.supervision_for(ExperimentSpec("fairgen", dataset,
                                                 "bench", seed))


def seeded_walk_model(num_nodes: int, serve_cfg: dict, seed: int):
    """The served model of ``serve-acm``: seeded, never fitted."""
    from repro.models.walk_lm import TransformerWalkModel

    return TransformerWalkModel(num_nodes, serve_cfg["dim"],
                                serve_cfg["heads"], serve_cfg["layers"],
                                serve_cfg["max_length"],
                                np.random.default_rng(seed))


# ----------------------------------------------------------------------
# Stage 2: pipeline
# ----------------------------------------------------------------------
def _graph_ok(original, generated, overall_mean: float | None = None) -> bool:
    """Original node count, the assembler's edge target and a finite
    overall R (computed here unless the pipeline already scored it)."""
    from repro.eval import mean_discrepancy, overall_discrepancy

    if generated.num_nodes != original.num_nodes \
            or generated.num_edges != original.num_edges:
        return False
    if overall_mean is None:
        overall_mean = mean_discrepancy(overall_discrepancy(
            original, generated, aspl_sample=120,
            rng=np.random.default_rng(0)))
    return math.isfinite(overall_mean)


class PipelineTally:
    """Samples of the pipeline stage, gathered over a run's rounds."""

    def __init__(self) -> None:
        #: model name -> seconds of each of its ``Runner.run`` calls
        self.run_times: dict[str, list[float]] = defaultdict(list)
        #: model name -> seconds of each extra graph
        self.generate_times: dict[str, list[float]] = defaultdict(list)
        self.r_overall: list[float] = []
        self.r_protected: list[float] = []
        self.iterations = 0
        self.cache_misses = 0.0
        #: model name -> (spec, fitted model) of its latest pipeline
        self.fitted: dict = {}
        self.original = None
        #: (label, graph) of every extra graph, checked after the run
        self.extra: list = []
        self._streams = 0

    def next_stream(self) -> int:
        self._streams += 1
        return 10 + self._streams


def pipeline_round(cfg: dict, seed: int, budget_s: float, ledger: Ledger,
                   profile: str, tally: PipelineTally) -> None:
    """Runner pipelines of every model over fresh seeds until
    ``budget_s`` would be exceeded (at least one iteration)."""
    from repro.experiments import ExperimentSpec, Runner
    from repro.obs.metrics import MetricsRegistry

    pipe = cfg["pipeline"]
    start = time.perf_counter()
    done = 0
    while True:
        registry = MetricsRegistry()
        runner = Runner(registry=registry)
        tally.original = original = runner.dataset(cfg["dataset"]).graph
        for model in pipe["models"]:
            # Free the previous fit's autograd garbage first: otherwise
            # where a collection lands varies run to run, and with it
            # peak RSS and the timing that absorbs the pause.
            gc.collect()
            spec = ExperimentSpec(model, cfg["dataset"], profile,
                                  seed=seed * 1000 + tally.iterations,
                                  overrides=pipe.get("overrides", {}))
            begin = time.perf_counter()
            result = runner.run(spec, with_metrics=True)
            tally.run_times[model].append(time.perf_counter() - begin)
            hits = registry.counter("runner_cache_hits_total").total()
            ledger.check(hits == 0 and not result.from_cache
                         and _graph_ok(original, result.generated,
                                       result.metrics["overall_mean"]),
                         f"pipeline {spec.cache_key()}")
            tally.r_overall.append(result.metrics["overall_mean"])
            if "protected_mean" in result.metrics:
                tally.r_protected.append(result.metrics["protected_mean"])
            tally.fitted[model] = (spec, result.model)
        tally.cache_misses += registry.counter(
            "runner_cache_misses_total").total()
        tally.iterations += 1
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > budget_s:
            return


def extra_graphs(tally: PipelineTally, budget_s: float, at_least: int) -> None:
    """More graphs from each fitted model, each on a fresh stream of its
    spec, for ``budget_s`` (at least ``at_least`` per model)."""
    start, done = time.perf_counter(), 0
    while True:
        for model, (spec, fitted) in tally.fitted.items():
            stream = tally.next_stream()
            gc.collect()  # no collection of earlier garbage lands inside
            begin = time.perf_counter()
            graph = fitted.generate(spec.rng(stream=stream))
            tally.generate_times[model].append(time.perf_counter() - begin)
            tally.extra.append((f"graph {stream} of {spec.cache_key()}",
                                graph))
        done += 1
        elapsed = time.perf_counter() - start
        if done >= at_least and elapsed + elapsed / done > budget_s:
            return


def warm_up(cfg: dict, seed: int, seconds: float) -> None:
    """Untimed smoke-profile pipelines for ``seconds`` (at least one).

    Lazy imports and first-call caches are not billed to the first timed
    pipeline, and the vCPU, idle before the run, reaches its working
    speed: the first seconds of work after idling run up to ~1.4x slower.
    """
    start = time.perf_counter()
    while True:
        pipeline_round(cfg, 10 ** 6 + seed, 0.0, Ledger(), TINY_PROFILE,
                       PipelineTally())
        if time.perf_counter() - start >= seconds:
            return


# ----------------------------------------------------------------------
# Stage 3: serve
# ----------------------------------------------------------------------
def served_model(cfg: dict, fitted: dict, seed: int, num_nodes: int):
    """(model, reference, mix) for the serve stage.

    ``reference(request)`` regenerates a request's walks standalone —
    ``sample_chunked`` with the request's seed, which the serving engine
    must match byte for byte.  A fitted model is served at its own walk
    length, so its mix takes that length.
    """
    serve_cfg = cfg["serve"]
    mix = serve_cfg["mix"]
    if serve_cfg["model"] == "seeded":
        model = seeded_walk_model(num_nodes, serve_cfg, seed)

        def reference(request):
            return model.sample_chunked(request["n_walks"], request["length"],
                                        np.random.default_rng(request["seed"]))
    else:
        model = fitted[serve_cfg["served"]][1]
        length = int(model.generate_walks(1, np.random.default_rng(0))
                     .shape[1])
        mix = {"short": {**mix["short"], "length": length}}

        def reference(request):
            return model.generate_walks(request["n_walks"],
                                        np.random.default_rng(request["seed"]))
    return model, reference, mix


def check_served(served, seed: int, ledger: Ledger, num_nodes: int,
                 references: dict, corrupt: int | None = None) -> None:
    """Check every response, a seeded eighth against the reference of
    the model it named."""
    from serving import check_outcome

    if corrupt is not None:  # self-test hook: damage one response
        victim = served.outcomes[corrupt % len(served.outcomes)]
        victim.walks = victim.walks.copy()
        victim.walks.flat[0] = num_nodes
    picks = np.random.default_rng([seed, 3]).random(len(served.outcomes))
    for outcome, pick in zip(served.outcomes, picks < 0.125):
        reference = references[outcome.request["model"]] if pick else None
        ledger.check(check_outcome(outcome, num_nodes, reference),
                     f"request seed {outcome.request['seed']}")


# ----------------------------------------------------------------------
# A whole run
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 tiny: bool = False, corrupt: int | None = None,
                 trace_path: str | None = None, log=None) -> dict:
    """One benchmark run; returns the result object ``run.py`` prints.

    ``tiny`` swaps in the smoke profile, one set-up sample per round, a
    short serve window and a single warm-up pipeline (the self-test's
    seconds-scale mode).  ``corrupt`` damages that served response
    before the checks.
    """
    from serving import ServeStage, ServeTally, request_mix

    cfg = WORKLOADS[name]
    log = log or (lambda *a: print(*a, file=sys.stderr))
    profile = TINY_PROFILE if tiny else cfg["pipeline"]["profile"]
    shares, rounds = cfg["stage_shares"], CONFIG["rounds"]
    rate = cfg["serve"]["open_rate_per_s"]
    # at least 100 open-loop requests per run: ten lie beyond its p90
    open_total = 12 if tiny else max(100, round(rate * shares["open"]
                                                * seconds))
    open_counts = [open_total // rounds + (i < open_total % rounds)
                   for i in range(rounds)]
    closed_s = 0.5 if tiny else shares["closed"] * seconds / rounds
    # set-up samples are spread over the slots between parts, three per round
    total_setup = rounds if tiny else CONFIG["setup_samples"]
    slots = [total_setup // (3 * rounds) + (i < total_setup % (3 * rounds))
             for i in range(3 * rounds)]
    ledger, tally, setup = Ledger(), PipelineTally(), []

    warm_up(cfg, seed, 0.0 if tiny else CONFIG["warm_up_s"])
    if not trace:  # compiles a fresh checkout's bytecode, untimed
        measure_setup(name, 1)

    def setup_slot(index: int) -> None:
        if not trace:  # the traced run reports per-layer metrics only
            setup.extend(measure_setup(name, slots[index]))

    recorder = None
    if trace:
        from tracing import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    served, references = ServeTally(), {}
    try:
        root_begin = time.perf_counter_ns()
        mix_rng = np.random.default_rng([seed, 2])
        for index in range(rounds):
            pipeline_round(cfg, seed, shares["pipeline"] * seconds / rounds,
                           ledger, profile, tally)
            setup_slot(3 * index)
            extra_graphs(tally, shares["extra"] * seconds / rounds,
                         1 if tiny else cfg["extra_graphs_at_least"])
            # The daemon runs only for its own segments: its idle decode
            # and accept threads wake every 20-50 ms, which slowed the
            # fits of later rounds by up to a third.
            model, reference, mix = served_model(
                cfg, tally.fitted, seed, tally.original.num_nodes)
            key = f"{name}-model-{index}"
            references[key] = reference
            stage = ServeStage(model, key, recorder)
            try:
                closed = request_mix(mix, mix_rng, 256, key)
                ledger.check(stage.warm_up(closed[-1]), "serve warm-up")
                gc.collect()
                stage.closed_loop(closed, closed_s, served)
                setup_slot(3 * index + 1)
                gc.collect()
                stage.open_loop(request_mix(mix, mix_rng, open_counts[index],
                                            key), rate, mix_rng, served)
            finally:
                stage.close()
            setup_slot(3 * index + 2)
        root_end = time.perf_counter_ns()
    finally:
        if recorder is not None:
            recorder.uninstall()
    # checks that cost time run after the measured part
    for label, graph in tally.extra:
        ledger.check(_graph_ok(tally.original, graph), label)
    check_served(served, seed, ledger, tally.original.num_nodes, references,
                 corrupt)
    log(f"[{name}] {tally.iterations} pipeline iterations, "
        f"{len(tally.extra)} extra graphs; open loop: "
        f"{len(served.latencies_ms)} answered of {open_total} requests "
        f"at {rate}/s")
    if trace:
        from tracing import layer_metrics

        values = layer_metrics(recorder, (root_begin, root_end),
                               int(served.wall_s * 1e9))
        values.update({
            "eval.R_mean": statistics.fmean(tally.r_overall),
            "eval.R_protected_mean": (statistics.fmean(tally.r_protected)
                                      if tally.r_protected else 0.0),
            "experiments.cache_misses": tally.cache_misses,
            "serve.requests": float(len(served.outcomes)),
            "serve.failed": float(sum(o.walks is None
                                      for o in served.outcomes)),
            "serve.engine_steps": float(served.engine_steps),
            "serve.rows_per_step": (served.rows_decoded / served.engine_steps
                                    if served.engine_steps else 0.0),
            "serve.generator_lag_ms": float(np.percentile(served.lags_ms, 90)),
        })
        units = PER_LAYER_UNITS
        if trace_path:
            recorder.write_chrome_trace(trace_path)
            log(f"[{name}] trace written to {trace_path}")
    else:
        latencies = served.latencies_ms or [0.0]
        values = {
            "setup_s": statistics.median(setup),
            "pipeline_s": sum(lower_quartile(times)
                              for times in tally.run_times.values()),
            "generate_s": statistics.fmean(
                lower_quartile(times)
                for times in tally.generate_times.values()),
            "serve_walks_per_s": statistics.median(served.closed_walks_per_s),
            "serve_latency_p50_ms": float(np.percentile(latencies, 50)),
            "serve_latency_p90_ms": float(np.percentile(latencies, 90)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0),
            "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
        }
        units = END_TO_END_UNITS
        log(f"[{name}] samples: pipeline "
            + ", ".join(f"{m} {[round(t, 3) for t in ts]}"
                        for m, ts in tally.run_times.items())
            + "; generate "
            + ", ".join(f"{m} {[round(t, 3) for t in ts]}"
                        for m, ts in tally.generate_times.items())
            + f"; closed loop {[round(r) for r in served.closed_walks_per_s]}"
            + f"; set-up {[round(t, 3) for t in setup]}")
    for failure in ledger.failures[:10]:
        log(f"[{name}] FAILED check: {failure}")
    return {"correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {key: {"value": float(values[key]), "unit": unit}
                        for key, unit in units.items()}}
