"""Tests for the serving subsystem: engine, daemon, client, shutdown.

The load-bearing property throughout is the determinism contract: a
walk served through the continuous-batching engine — whatever other
requests it shared the decode batch with — is byte-identical to the
same walk generated standalone.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.experiments import ExperimentSpec, Runner, Supervision
from repro.graph import planted_protected_graph
from repro.models.walk_lm import TransformerWalkModel
from repro.registry import create_model
from repro.serve import ContinuousBatcher, serve_walks
from repro.serve.client import ServeClient, ServeClientError, ServerBusy
from repro.serve.daemon import AdmissionControl, ModelHouse, ServeDaemon

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def walk_model():
    return TransformerWalkModel(num_nodes=23, dim=32, num_heads=4,
                                num_layers=2, max_length=40,
                                rng=np.random.default_rng(7))


# ----------------------------------------------------------------------
# ContinuousBatcher
# ----------------------------------------------------------------------
class TestContinuousBatcher:
    def test_single_request_matches_standalone(self, walk_model):
        engine = ContinuousBatcher(walk_model, max_walks=32)
        ticket = engine.submit(5, 12, np.random.default_rng(42))
        engine.drain()
        np.testing.assert_array_equal(
            ticket.result(), walk_model.sample(5, 12,
                                               np.random.default_rng(42)))

    def test_coalesced_mixed_lengths_stay_byte_identical(self, walk_model):
        engine = ContinuousBatcher(walk_model, max_walks=64)
        specs = [(4, 9), (3, 17), (6, 30), (2, 12), (5, 25)]
        tickets = [
            engine.submit(n, ln, np.random.default_rng(100 + i),
                          temperature=0.8 + 0.1 * i)
            for i, (n, ln) in enumerate(specs)]
        engine.drain()
        assert engine.stats.peak_batch == sum(n for n, _ in specs)
        for i, (ticket, (n, ln)) in enumerate(zip(tickets, specs)):
            np.testing.assert_array_equal(
                ticket.result(),
                walk_model.sample(n, ln, np.random.default_rng(100 + i),
                                  temperature=0.8 + 0.1 * i))

    def test_midstream_arrival_matches_standalone(self, walk_model):
        engine = ContinuousBatcher(walk_model, max_walks=64)
        first = engine.submit(3, 28, np.random.default_rng(11))
        for _ in range(5):
            engine.step()
        second = engine.submit(4, 10, np.random.default_rng(12))
        for _ in range(3):
            engine.step()
        third = engine.submit(2, 20, np.random.default_rng(13),
                              starts=np.array([5, 6]))
        engine.drain()
        np.testing.assert_array_equal(
            first.result(), walk_model.sample(3, 28,
                                              np.random.default_rng(11)))
        np.testing.assert_array_equal(
            second.result(), walk_model.sample(4, 10,
                                               np.random.default_rng(12)))
        np.testing.assert_array_equal(
            third.result(),
            walk_model.sample(2, 20, np.random.default_rng(13),
                              starts=np.array([5, 6])))

    def test_pinned_start_length_one_completes_without_decode(
            self, walk_model):
        engine = ContinuousBatcher(walk_model, max_walks=8)
        ticket = engine.submit(3, 1, np.random.default_rng(0),
                               starts=np.array([1, 2, 3]))
        engine.drain()
        np.testing.assert_array_equal(ticket.result(),
                                      np.array([[1], [2], [3]]))
        assert engine.stats.steps == 0

    def test_fifo_admission_never_starves_large_request(self, walk_model):
        engine = ContinuousBatcher(walk_model, max_walks=8)
        small = engine.submit(6, 6, np.random.default_rng(1))
        big = engine.submit(8, 6, np.random.default_rng(2))
        tail = engine.submit(2, 6, np.random.default_rng(3))
        engine.drain()
        for ticket, (n, seed) in zip((small, big, tail),
                                     ((6, 1), (8, 2), (2, 3))):
            np.testing.assert_array_equal(
                ticket.result(),
                walk_model.sample(n, 6, np.random.default_rng(seed)))

    def test_submit_validation(self, walk_model):
        engine = ContinuousBatcher(walk_model, max_walks=8)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="max_walks"):
            engine.submit(9, 5, rng)
        with pytest.raises(ValueError):
            engine.submit(0, 5, rng)
        with pytest.raises(ValueError, match="maximum"):
            engine.submit(2, walk_model.max_length + 1, rng)
        with pytest.raises(ValueError, match="temperature"):
            engine.submit(2, 5, rng, temperature=0.0)

    @pytest.mark.parametrize("starts,message", [
        ([-1, 23], "starts contains out-of-range node ids"),
        ([1, 2, 3], "starts has 3 entries for 2 walks")])
    def test_standalone_and_served_reject_starts_alike(self, walk_model,
                                                       starts, message):
        """``sample``, ``sample_reference`` and ``submit`` share one
        prompt check: an out-of-range or wrong-length ``starts`` fails
        all three with the same error."""
        assert walk_model.num_nodes == 23
        engine = ContinuousBatcher(walk_model, max_walks=8)
        for call in (walk_model.sample, walk_model.sample_reference,
                     engine.submit):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call(2, 4, np.random.default_rng(0),
                     starts=np.array(starts))
        assert engine.pending_count == 0

    def test_cancel_while_queued(self, walk_model):
        engine = ContinuousBatcher(walk_model, max_walks=4)
        blocker = engine.submit(4, 30, np.random.default_rng(1))
        victim = engine.submit(4, 5, np.random.default_rng(2))
        engine.step()  # admits only the blocker (batch is full)
        assert victim.cancel()
        engine.drain()
        assert blocker.done and victim.cancelled
        assert engine.stats.cancelled == 1
        with pytest.raises(TimeoutError):
            victim.result(timeout=0.01)

    def test_ticket_timeout(self, walk_model):
        engine = ContinuousBatcher(walk_model, max_walks=4)
        ticket = engine.submit(2, 10, np.random.default_rng(0))
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)  # nobody is stepping
        engine.drain()
        assert ticket.result().shape == (2, 10)

    def test_run_loop_drains_on_stop(self, walk_model):
        engine = ContinuousBatcher(walk_model, max_walks=16)
        stop = threading.Event()
        thread = threading.Thread(target=engine.run, args=(stop,))
        thread.start()
        ticket = engine.submit(4, 25, np.random.default_rng(5))
        stop.set()
        engine._work.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        np.testing.assert_array_equal(
            ticket.result(timeout=0),
            walk_model.sample(4, 25, np.random.default_rng(5)))


class TestServeWalks:
    def test_matches_sample_chunked(self, walk_model):
        engine = ContinuousBatcher(walk_model, max_walks=16)
        stop = threading.Event()
        thread = threading.Thread(target=engine.run, args=(stop,))
        thread.start()
        try:
            got = serve_walks(engine, 20, 15, np.random.default_rng(99),
                              chunk=7)
        finally:
            stop.set()
            engine._work.set()
            thread.join()
        np.testing.assert_array_equal(
            got, walk_model.sample_chunked(20, 15,
                                           np.random.default_rng(99),
                                           chunk=7))

    def test_starts_fn_consumes_rng_like_sample_chunked(self, walk_model):
        def starts_fn(take, rng):
            return rng.integers(0, walk_model.num_nodes, size=take)

        engine = ContinuousBatcher(walk_model, max_walks=16)
        stop = threading.Event()
        thread = threading.Thread(target=engine.run, args=(stop,))
        thread.start()
        try:
            got = serve_walks(engine, 20, 9, np.random.default_rng(31),
                              chunk=6, starts_fn=starts_fn)
        finally:
            stop.set()
            engine._work.set()
            thread.join()
        np.testing.assert_array_equal(
            got, walk_model.sample_chunked(20, 9, np.random.default_rng(31),
                                           chunk=6, starts_fn=starts_fn))

    def test_deadline_cancels_and_raises(self, walk_model):
        engine = ContinuousBatcher(walk_model, max_walks=4)
        with pytest.raises(TimeoutError):
            serve_walks(engine, 4, 10, np.random.default_rng(0),
                        deadline=time.monotonic() + 0.01)
        # the request was withdrawn, so the engine can go idle
        engine.drain()
        assert engine.idle


# ----------------------------------------------------------------------
# Parity across every sample_chunked user
# ----------------------------------------------------------------------
class TestServedModelParity:
    @pytest.fixture(scope="class")
    def fitted_setting(self):
        rng = np.random.default_rng(17)
        graph, _, _ = planted_protected_graph(
            36, 9, rng, p_in=0.3, p_out=0.04, num_classes=2,
            protected_as_class=True)
        supervision = Supervision.surrogate_for(
            graph, rng=np.random.default_rng(24))
        return graph, supervision

    def _served(self, walk_model, n_walks, length, seed, starts_fn=None):
        engine = ContinuousBatcher(walk_model, max_walks=256)
        stop = threading.Event()
        thread = threading.Thread(target=engine.run, args=(stop,))
        thread.start()
        try:
            return serve_walks(engine, n_walks, length,
                               np.random.default_rng(seed),
                               starts_fn=starts_fn)
        finally:
            stop.set()
            engine._work.set()
            thread.join()

    def test_taggen_generate_walks_parity(self, fitted_setting):
        graph, _ = fitted_setting
        model = create_model("taggen", profile="smoke")
        model.fit(graph, np.random.default_rng(5))
        reference = model.generate_walks(40, np.random.default_rng(77))
        served = self._served(model.model, 40, model.walk_length, 77)
        np.testing.assert_array_equal(served, reference)

    def test_fairgen_generate_walks_parity(self, fitted_setting):
        graph, supervision = fitted_setting
        model = create_model("fairgen", profile="smoke")
        model.fit(graph, np.random.default_rng(5), supervision=supervision)
        reference = model.generate_walks(40, np.random.default_rng(77))
        served = self._served(model.generator, 40,
                              model.config.walk_length, 77,
                              starts_fn=model._generation_starts)
        np.testing.assert_array_equal(served, reference)

    def test_walk_model_chunked_parity_with_midstream_traffic(
            self, walk_model):
        """Parity must hold while unrelated requests share the batch."""
        engine = ContinuousBatcher(walk_model, max_walks=64)
        stop = threading.Event()
        thread = threading.Thread(target=engine.run, args=(stop,))
        thread.start()
        results: dict[int, np.ndarray] = {}

        def client(i):
            results[i] = serve_walks(engine, 12, 8 + 5 * i,
                                     np.random.default_rng(200 + i),
                                     chunk=5)

        clients = [threading.Thread(target=client, args=(i,))
                   for i in range(4)]
        try:
            for t in clients:
                t.start()
                time.sleep(0.003)  # stagger: arrivals land mid-decode
            for t in clients:
                t.join()
        finally:
            stop.set()
            engine._work.set()
            thread.join()
        for i in range(4):
            np.testing.assert_array_equal(
                results[i],
                walk_model.sample_chunked(12, 8 + 5 * i,
                                          np.random.default_rng(200 + i),
                                          chunk=5))


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_bounds_and_counters(self):
        control = AdmissionControl(max_inflight=2, queue_depth=1)
        assert control.enter() and control.enter() and control.enter()
        assert not control.enter()  # 4th request overflows 2+1
        assert control.rejected == 1
        control.leave()
        assert control.enter()
        snapshot = control.snapshot()
        assert snapshot["in_system"] == 3
        assert snapshot["accepted"] == 4
        assert control.retry_after() >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionControl(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionControl(queue_depth=-1)


# ----------------------------------------------------------------------
# Daemon over HTTP (in-process)
# ----------------------------------------------------------------------
class TestServeDaemon:
    @pytest.fixture()
    def daemon(self, walk_model):
        daemon = ServeDaemon(None, port=0, max_walks=64)
        daemon.house.adopt("toy", walk_model)
        daemon.start()
        yield daemon
        daemon.shutdown()

    def test_generate_parity_over_http(self, daemon, walk_model):
        client = ServeClient(daemon.url)
        got = client.generate("toy", 10, length=14, seed=3)
        np.testing.assert_array_equal(
            got, walk_model.sample_chunked(10, 14,
                                           np.random.default_rng(3)))

    def test_healthz_and_stats(self, daemon):
        client = ServeClient(daemon.url)
        health = client.healthz()
        assert health["status"] == "ok"
        assert "toy" in health["resident_models"]
        client.generate("toy", 2, length=5, seed=0)
        stats = client.stats()
        assert stats["admission"]["completed"] >= 1
        assert stats["engines"]["toy"]["completed"] >= 1

    def test_unknown_model_is_404(self, daemon):
        with pytest.raises(ServeClientError) as err:
            ServeClient(daemon.url).generate("missing", 2)
        assert err.value.status == 404

    def test_invalid_arguments_are_400(self, daemon):
        client = ServeClient(daemon.url)
        with pytest.raises(ServeClientError) as err:
            client.generate("toy", 2, length=999)
        assert err.value.status == 400
        with pytest.raises(ServeClientError) as err:
            client.generate("toy", 0)
        assert err.value.status == 400

    def test_unknown_route_is_404(self, daemon):
        with pytest.raises(ServeClientError) as err:
            ServeClient(daemon.url)._request("GET", "/nope")
        assert err.value.status == 404

    def test_overflow_is_429_with_retry_after(self, walk_model):
        daemon = ServeDaemon(None, port=0, max_inflight=1, queue_depth=0,
                             max_walks=16)
        daemon.house.adopt("toy", walk_model)
        daemon.start()
        try:
            client = ServeClient(daemon.url)
            errors: list[ServerBusy] = []
            oks: list[np.ndarray] = []

            def fire(seed):
                try:
                    oks.append(client.generate("toy", 8, length=30,
                                               seed=seed))
                except ServerBusy as busy:
                    errors.append(busy)

            threads = [threading.Thread(target=fire, args=(s,))
                       for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors, "saturating 1+0 admission must yield 429s"
            assert all(busy.retry_after >= 1 for busy in errors)
            assert len(oks) + len(errors) == 6
        finally:
            daemon.shutdown()

    def test_concurrent_clients_with_backoff_all_byte_identical(
            self, walk_model):
        daemon = ServeDaemon(None, port=0, max_inflight=2, queue_depth=1,
                             max_walks=64)
        daemon.house.adopt("toy", walk_model)
        daemon.start()
        try:
            client = ServeClient(daemon.url, retries=10)
            results: dict[int, np.ndarray] = {}

            def go(i):
                results[i] = client.generate("toy", 6, length=10 + i,
                                             seed=100 + i)

            threads = [threading.Thread(target=go, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            daemon.shutdown()
        for i in range(6):
            np.testing.assert_array_equal(
                results[i],
                walk_model.sample_chunked(6, 10 + i,
                                          np.random.default_rng(100 + i)))

    def test_shutdown_drains_inflight_request(self, walk_model):
        daemon = ServeDaemon(None, port=0, max_walks=32)
        daemon.house.adopt("toy", walk_model)
        daemon.start()
        client = ServeClient(daemon.url)
        box: dict[str, np.ndarray] = {}
        thread = threading.Thread(
            target=lambda: box.update(
                walks=client.generate("toy", 8, length=35, seed=9)))
        thread.start()
        time.sleep(0.05)  # let the request reach the engine
        daemon.shutdown()
        thread.join()
        np.testing.assert_array_equal(
            box["walks"],
            walk_model.sample_chunked(8, 35, np.random.default_rng(9)))


# ----------------------------------------------------------------------
# ModelHouse against the real artifact cache
# ----------------------------------------------------------------------
class TestModelHouse:
    @pytest.fixture(scope="class")
    def warm_cache(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("serve-cache")
        runner = Runner(cache_dir=cache)
        spec = ExperimentSpec(model="taggen", dataset="EMAIL",
                              profile="smoke")
        runner.run(spec, need_model=True, with_metrics=True)
        return cache, spec

    def test_loads_fitted_model_from_cache(self, warm_cache):
        cache, spec = warm_cache
        house = ModelHouse(cache, max_models=2)
        resident = house.get(spec.cache_key())
        assert resident.default_length == resident.model.walk_length
        assert house.loads == 1
        house.get(spec.cache_key())
        assert house.loads == 1  # second hit is resident

    def test_mmap_backing(self, warm_cache):
        cache, spec = warm_cache
        house = ModelHouse(cache, max_models=2)
        weight = house.get(spec.cache_key()) \
            .model.model.embed.weight.data
        assert not weight.flags.writeable
        assert isinstance(weight.base, np.memmap)

    def test_unknown_key_and_bad_key(self, warm_cache):
        from repro.serve.daemon import ServeError

        cache, _ = warm_cache
        house = ModelHouse(cache)
        with pytest.raises(ServeError) as err:
            house.get("nonexistent__KEY__smoke__s0")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            house.get("../escape")
        assert err.value.status == 400

    def test_lru_evicts_idle_models(self, walk_model):
        house = ModelHouse(None, max_models=2)
        for key in ("a", "b", "c"):
            house.adopt(key, walk_model)
        assert house.resident_keys() == ["b", "c"]
        assert house.evictions == 1

    def test_busy_engine_survives_eviction(self, walk_model):
        house = ModelHouse(None, max_models=1)
        house.adopt("busy", walk_model)
        house.get("busy").engine.submit(2, 10, np.random.default_rng(0))
        house.adopt("new", walk_model)
        assert "busy" in house.resident_keys()  # never abandon walks

    def test_daemon_generate_and_evaluate_from_cache(self, warm_cache):
        cache, spec = warm_cache
        key = spec.cache_key()
        daemon = ServeDaemon(cache, port=0)
        daemon.start()
        try:
            client = ServeClient(daemon.url)
            walks = client.generate(key, 12, seed=5)
            model = daemon.house.get(key).model
            np.testing.assert_array_equal(
                walks, model.generate_walks(12, np.random.default_rng(5)))
            scoreboard = client.evaluate(key)
            assert scoreboard["cached"] is True
            assert "overall_mean" in scoreboard["metrics"]
        finally:
            daemon.shutdown()

    def test_daemon_cold_evaluate_persists_metrics(self, tmp_path):
        # A run cached without metrics: the first evaluate replays the
        # spec through the Runner and writes the scoreboard back into
        # the sidecar, so the second evaluate hits the warm branch.
        runner = Runner(cache_dir=tmp_path)
        spec = ExperimentSpec(model="er", dataset="EMAIL",
                              profile="smoke")
        runner.run(spec, with_metrics=False)
        key = spec.cache_key()
        meta = json.loads((tmp_path / f"{key}.json").read_text())
        assert not meta.get("metrics")
        daemon = ServeDaemon(tmp_path, port=0)
        daemon.start()
        try:
            client = ServeClient(daemon.url)
            cold = client.evaluate(key)
            assert cold["cached"] is False
            assert "overall_mean" in cold["metrics"]
            meta = json.loads((tmp_path / f"{key}.json").read_text())
            assert meta["metrics"]  # written back through the cache
            warm = client.evaluate(key)
            assert warm["cached"] is True
            assert warm["metrics"] == cold["metrics"]
        finally:
            daemon.shutdown()


# ----------------------------------------------------------------------
# Graceful shutdown of the real processes
# ----------------------------------------------------------------------
def _spawn(args, cwd=REPO_ROOT):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"),
               PYTHONUNBUFFERED="1")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def _wait_for_line(process, marker, timeout=60.0):
    deadline = time.monotonic() + timeout
    lines = []
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            if process.poll() is not None:
                break
            continue
        lines.append(line)
        if marker in line:
            return line, lines
    raise AssertionError(
        f"marker {marker!r} not seen; output so far: {''.join(lines)}")


class TestGracefulShutdownSubprocess:
    def test_serve_sigterm_drains_inflight_request(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        spec = ExperimentSpec(model="taggen", dataset="EMAIL",
                              profile="smoke")
        runner.run(spec, need_model=True)
        key = spec.cache_key()

        process = _spawn(["serve", "--cache-dir", str(tmp_path),
                          "--port", "0"])
        try:
            line, _ = _wait_for_line(process, "serving on ")
            url = line.split("serving on ", 1)[1].split()[0]
            client = ServeClient(url)
            assert client.healthz()["status"] == "ok"

            box: dict[str, np.ndarray] = {}
            thread = threading.Thread(
                target=lambda: box.update(
                    walks=client.generate(key, 32, seed=4)))
            thread.start()
            time.sleep(0.2)  # request reaches the daemon's engine
            process.send_signal(signal.SIGTERM)
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert process.wait(timeout=60) == 0

            model = Runner(cache_dir=tmp_path).run(
                spec, need_model=True).model
            np.testing.assert_array_equal(
                box["walks"],
                model.generate_walks(32, np.random.default_rng(4)))
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()
            process.stdout.close()

    def test_worker_keep_alive_sigterm_finishes_job(self, tmp_path):
        from repro.experiments import JobQueue

        queue_dir = tmp_path / "queue"
        cache_dir = tmp_path / "cache"
        queue = JobQueue(queue_dir)
        spec = ExperimentSpec(model="er", dataset="EMAIL",
                              profile="smoke")
        queue.submit([spec])

        process = _spawn(["worker", str(queue_dir),
                          "--cache-dir", str(cache_dir), "--keep-alive"])
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not queue.drained():
                time.sleep(0.1)
            assert queue.drained(), "worker never finished the job"
            # keep-alive: still polling — SIGTERM must end it cleanly
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
            output = process.stdout.read()
            assert "1 completed" in output
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()
            process.stdout.close()
