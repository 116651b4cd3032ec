"""Tests for the observability subsystem: registry, tracing, wiring."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import ExperimentSpec, JobQueue, Runner, Worker
from repro.models.walk_lm import TransformerWalkModel
from repro.obs import trace
from repro.obs.metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                               MetricsRegistry, get_registry)
from repro.serve import ContinuousBatcher
from repro.train import MetricsCallback, Trainer

SMALLEST = "EMAIL"

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Tracing is process-global state; never leak it across tests."""
    trace.disable()
    yield
    trace.disable()


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok_total").inc(**{"bad-label": 1})

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labeled_series_are_independent(self):
        counter = MetricsRegistry().counter("req_total")
        counter.inc(route="/a")
        counter.inc(2, route="/b")
        assert counter.value(route="/a") == 1
        assert counter.value(route="/b") == 2
        assert counter.total() == 3

    def test_gauge_set_max_and_function(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set_max(3)
        gauge.set_max(1)
        assert gauge.value() == 3
        live = MetricsRegistry().gauge("live")
        live.set_function(lambda: 42.0)
        assert live.value() == 42.0

    def test_thread_safety_exact_totals(self):
        """12 hammering threads, every increment lands — no lost updates."""
        reg = MetricsRegistry()
        counter = reg.counter("hits_total")
        hist = reg.histogram("lat", buckets=(0.5,))
        nthreads, per_thread = 12, 5000
        barrier = threading.Barrier(nthreads)

        def hammer(i):
            barrier.wait()
            for _ in range(per_thread):
                counter.inc(worker=i % 3)
                hist.observe(0.25)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.total() == nthreads * per_thread
        assert hist.count() == nthreads * per_thread


class TestHistogram:
    def test_bucket_boundary_is_inclusive(self):
        """``le`` is <= : a value exactly on a bound lands in its bucket."""
        hist = MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
        hist.observe(0.1)       # exactly the first bound
        hist.observe(1.0)       # exactly the last finite bound
        hist.observe(1.0000001)  # just past it -> overflow
        lines = hist.expositions()
        assert 'h_bucket{le="0.1"} 1' in lines
        assert 'h_bucket{le="1"} 2' in lines
        assert 'h_bucket{le="+Inf"} 3' in lines
        assert "h_count 3" in lines

    def test_percentiles_interpolate(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        assert hist.percentile(50) == pytest.approx(1.0)
        assert hist.percentile(99) == pytest.approx(1.98)
        # overflow observations report the largest finite bound
        hist2 = MetricsRegistry().histogram("h2", buckets=(1.0,))
        hist2.observe(100.0)
        assert hist2.percentile(99) == 1.0

    def test_empty_and_invalid(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.percentile(50) == 0.0
        with pytest.raises(ValueError):
            hist.percentile(101)
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("dup", buckets=(1.0, 1.0))

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_timer_context(self):
        hist = MetricsRegistry().histogram("t")
        with hist.time(op="x"):
            pass
        assert hist.count(op="x") == 1


class TestPrometheusExposition:
    def test_golden_render(self):
        """Byte-exact exposition of a small, fully-known registry."""
        reg = MetricsRegistry()
        counter = reg.counter("requests_total", "Total requests")
        counter.inc(route="/a")
        counter.inc(2, route="/b")
        reg.gauge("queue_depth", "Depth").set(3)
        hist = reg.histogram("latency_seconds", "Latency",
                             buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            hist.observe(v)
        expected = "\n".join([
            "# HELP latency_seconds Latency",
            "# TYPE latency_seconds histogram",
            'latency_seconds_bucket{le="0.1"} 1',
            'latency_seconds_bucket{le="1"} 2',
            'latency_seconds_bucket{le="+Inf"} 3',
            "latency_seconds_sum 5.55",
            "latency_seconds_count 3",
            "# HELP queue_depth Depth",
            "# TYPE queue_depth gauge",
            "queue_depth 3",
            "# HELP requests_total Total requests",
            "# TYPE requests_total counter",
            'requests_total{route="/a"} 1',
            'requests_total{route="/b"} 2',
        ]) + "\n"
        assert reg.render_prometheus() == expected

    def test_label_values_escaped(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc(path='a"b\\c\nd')
        line = counter.expositions()[0]
        assert line == 'c_total{path="a\\"b\\\\c\\nd"} 1'


class TestSnapshots:
    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("plain_total").inc(5)
        reg.counter("labeled_total").inc(state="a")
        hist = reg.histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        snap = reg.snapshot()
        assert snap["plain_total"] == {"kind": "counter", "value": 5.0}
        assert snap["labeled_total"]["value"] == {'{"state": "a"}': 1.0}
        assert snap["h"]["value"]["count"] == 1
        assert "p50" in snap["h"]["value"]

    def test_write_snapshot_merge_updates(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"keep_me": 1}))
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        merged = reg.write_snapshot(path, worker_id="w7")
        on_disk = json.loads(path.read_text())
        assert on_disk.keys() == merged.keys()
        assert on_disk["keep_me"] == 1
        assert on_disk["worker_id"] == "w7"
        assert on_disk["c_total"]["value"] == 1
        assert "snapshot_unix_time" in on_disk


# ----------------------------------------------------------------------
# Span tracing
# ----------------------------------------------------------------------
class TestTrace:
    def test_disabled_span_is_shared_noop_singleton(self):
        assert not trace.enabled()
        sp = trace.span("anything", a=1)
        assert sp is trace.span("else")
        assert sp is trace.NULL_SPAN
        with sp as inner:
            assert inner.set(b=2) is sp
        trace.instant("nothing")  # must not raise

    def test_jsonl_schema_and_nesting(self, tmp_path):
        path = tmp_path / "trace.json"
        trace.enable(path)
        assert trace.enabled() and trace.trace_path() == str(path)
        with trace.span("outer", depth=0) as sp:
            with trace.span("inner", depth=1):
                pass
            with trace.span("inner", depth=1):
                pass
            sp.set(children=2)
        trace.instant("marker", note="hi")
        trace.disable()

        events = trace.load_trace(path)
        assert events, "trace file must parse to events"
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] in ("B", "E", "i"):
                assert isinstance(event["ts"], (int, float))
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)
        assert any(e["name"] == "thread_name" for e in meta)

        # B/E balance + LIFO nesting, replayed per (pid, tid) track.
        stacks: dict = {}
        for event in events:
            if event["ph"] == "B":
                stacks.setdefault((event["pid"], event["tid"]),
                                  []).append(event["name"])
            elif event["ph"] == "E":
                stack = stacks[(event["pid"], event["tid"])]
                assert stack.pop() == event["name"]
        assert all(not s for s in stacks.values())
        ends = {e["name"]: e for e in events if e["ph"] == "E"}
        assert ends["outer"]["args"]["children"] == 2

        # Whole file is also a valid JSON array (close() wrote "]").
        assert isinstance(json.loads(path.read_text()), list)

    def test_enable_via_environment(self, tmp_path):
        path = tmp_path / "env_trace.json"
        code = ("from repro.obs import trace\n"
                "with trace.span('env.span'):\n"
                "    pass\n")
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"),
                   REPRO_TRACE=str(path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        names = {e["name"] for e in trace.load_trace(path)}
        assert "env.span" in names

    def test_summarize_self_time_excludes_children(self, tmp_path):
        path = tmp_path / "t.json"
        trace.enable(path)
        with trace.span("parent"):
            with trace.span("child"):
                pass
        trace.disable()
        rows = {r["name"]: r for r in trace.summarize_trace([path])}
        assert rows["parent"]["count"] == 1
        assert rows["child"]["total_us"] <= rows["parent"]["total_us"]
        assert rows["parent"]["self_us"] == pytest.approx(
            rows["parent"]["total_us"] - rows["child"]["total_us"])
        table = trace.render_summary(list(rows.values()))
        assert "parent" in table and "child" in table

    def test_cli_trace_flag_and_summarize(self, tmp_path, capsys):
        path = tmp_path / "cli.json"
        assert main(["--trace", str(path), "generate", "--model", "er",
                     "--dataset", SMALLEST, "--profile", "smoke"]) == 0
        trace.disable()  # main() enabled the module-global tracer
        capsys.readouterr()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "runner.fit" in out
        assert "runner.generate" in out


# ----------------------------------------------------------------------
# Instrumentation wiring
# ----------------------------------------------------------------------
class _NullTask:
    def modules(self):
        return {}

    def optimizers(self):
        return {}

    def epoch(self, state, rng) -> float:
        return 0.0


class TestTrainerMetrics:
    def test_metrics_callback_counts(self):
        reg = MetricsRegistry()
        trainer = Trainer(_NullTask(), epochs=3,
                          callbacks=[MetricsCallback(registry=reg)])
        trainer.fit(np.random.default_rng(0))
        assert reg.counter("train_epochs_total").value(
            task="_NullTask") == 3
        assert reg.counter("train_fits_total").value(task="_NullTask") == 1
        assert reg.histogram("train_epoch_seconds").count(
            task="_NullTask") == 3
        assert reg.histogram("train_fit_seconds").count(
            task="_NullTask") == 1

    def test_default_trainer_feeds_global_registry(self):
        before = get_registry().counter("train_epochs_total").total()
        Trainer(_NullTask(), epochs=2).fit(np.random.default_rng(0))
        after = get_registry().counter("train_epochs_total").total()
        assert after - before == 2


class TestRunnerMetrics:
    def test_cache_hit_miss_counters(self, tmp_path):
        reg = MetricsRegistry()
        runner = Runner(cache_dir=tmp_path, registry=reg)
        spec = ExperimentSpec(model="er", dataset=SMALLEST, profile="smoke")
        runner.run(spec)
        assert reg.counter("runner_cache_misses_total").value() == 1
        assert reg.counter("runner_fits_total").value(model="er") == 1
        runner.run(spec)
        assert reg.counter("runner_cache_hits_total").value(
            layer="memory") == 1
        reg2 = MetricsRegistry()
        Runner(cache_dir=tmp_path, registry=reg2).run(spec)
        assert reg2.counter("runner_cache_hits_total").value(
            layer="disk") == 1

    def test_stacked_sidecar_records_raw_wall_clock(self, tmp_path):
        specs = [ExperimentSpec(model="gae", dataset=SMALLEST,
                                profile="smoke", seed=s) for s in (1, 2)]
        runner = Runner(cache_dir=tmp_path)
        results = runner.run_stacked(specs)
        for result, spec in zip(results, specs):
            assert result.stacked_size == 2
            assert result.stacked_fit_seconds is not None
            # amortized mean stays the headline number
            assert result.fit_seconds == pytest.approx(
                result.stacked_fit_seconds / 2)
            sidecar = json.loads(
                (tmp_path / f"{spec.cache_key()}.json").read_text())
            assert sidecar["stacked_fit_seconds"] == pytest.approx(
                result.stacked_fit_seconds)
            assert sidecar["stacked_size"] == 2
        # raw seconds survive the disk round trip
        replay = Runner(cache_dir=tmp_path).run_stacked(specs)
        assert all(r.from_cache for r in replay)
        assert replay[0].stacked_fit_seconds == pytest.approx(
            results[0].stacked_fit_seconds)
        assert replay[0].stacked_size == 2

    def test_artifacts_byte_identical_with_tracing(self, tmp_path):
        spec = ExperimentSpec(model="gae", dataset=SMALLEST,
                              profile="smoke", seed=3)
        Runner(cache_dir=tmp_path / "plain").run(spec)
        trace.enable(tmp_path / "t.json")
        Runner(cache_dir=tmp_path / "traced").run(spec)
        trace.disable()
        name = f"{spec.cache_key()}.npz"
        plain = (tmp_path / "plain" / name).read_bytes()
        traced = (tmp_path / "traced" / name).read_bytes()
        assert plain == traced


class TestQueueMetrics:
    def test_jobqueue_counters_and_depth_gauge(self, tmp_path):
        reg = MetricsRegistry()
        queue = JobQueue(tmp_path / "q", registry=reg)
        specs = [ExperimentSpec(model="er", dataset=SMALLEST,
                                profile="smoke", seed=s) for s in (0, 1)]
        queue.submit(specs)
        assert reg.counter("jobqueue_submitted_total").value() == 2
        job = queue.claim("w1")
        assert reg.counter("jobqueue_claims_total").value() == 1
        queue.complete(job.id, "w1")
        assert reg.counter("jobqueue_completions_total").value() == 1
        queue.counts()
        depth = reg.gauge("jobqueue_depth")
        assert depth.value(state="pending") == 1
        assert depth.value(state="done") == 1

    def test_worker_metrics_file_auto_snapshot(self, tmp_path):
        # A private registry: the exact counts below must not see jobs
        # other tests ran through the process-global one.
        queue = JobQueue(tmp_path / "q", registry=MetricsRegistry())
        queue.submit([ExperimentSpec(model="er", dataset=SMALLEST,
                                     profile="smoke")])
        worker = Worker(queue, tmp_path / "cache", worker_id="w-obs",
                        metrics_file="auto")
        stats = worker.run(max_jobs=1)
        assert stats["completed"] == 1
        snap_path = tmp_path / "q" / "metrics" / "w-obs.json"
        snap = json.loads(snap_path.read_text())
        assert snap["worker_id"] == "w-obs"
        assert snap["worker_jobs_total"]["value"] \
            == {'{"outcome": "completed"}': 1.0}
        assert snap["jobqueue_claims_total"]["value"] == 1

    def test_sweep_status_prints_fleet_metrics(self, tmp_path, capsys):
        queue = JobQueue(tmp_path / "q")
        queue.submit([ExperimentSpec(model="er", dataset=SMALLEST,
                                     profile="smoke")])
        worker = Worker(queue, tmp_path / "cache", worker_id="w-obs",
                        metrics_file="auto")
        worker.run(max_jobs=1)
        capsys.readouterr()
        assert main(["sweep", "--status", str(tmp_path / "q")]) == 0
        out = capsys.readouterr().out
        assert "fleet metrics" in out
        assert "w-obs" in out
        assert "queue depth (freshest snapshot):" in out
        assert "done=1" in out

    def test_sweep_status_silent_without_snapshots(self, tmp_path, capsys):
        JobQueue(tmp_path / "q")
        capsys.readouterr()
        assert main(["sweep", "--status", str(tmp_path / "q")]) == 0
        assert "fleet metrics" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# Serve-engine counters under concurrency (satellite: race regression)
# ----------------------------------------------------------------------
class TestEngineCounterRaces:
    def test_concurrent_submit_never_drops_counts(self):
        """submit() runs on arbitrary HTTP handler threads; the old
        hand-rolled ``submitted += 1`` could lose increments.  The
        registry-backed stats must stay exact under a thread hammer."""
        model = TransformerWalkModel(num_nodes=23, dim=16, num_heads=2,
                                     num_layers=1, max_length=8,
                                     rng=np.random.default_rng(7))
        engine = ContinuousBatcher(model, max_walks=64)
        nthreads, per_thread = 8, 25
        barrier = threading.Barrier(nthreads)
        tickets: list = []
        lock = threading.Lock()

        def hammer(i):
            barrier.wait()
            mine = [engine.submit(1, 3, np.random.default_rng(100 * i + j))
                    for j in range(per_thread)]
            with lock:
                tickets.extend(mine)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = nthreads * per_thread
        assert engine.stats.submitted == total
        engine.drain()
        for ticket in tickets:
            assert ticket.result(timeout=5).shape == (1, 3)
        assert engine.stats.completed == total
        assert engine.stats.admitted == total
        assert engine.stats.steps > 0
        assert engine.stats.rows_decoded >= total  # >=1 step per request
