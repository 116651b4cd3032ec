"""``repro serve`` — the stdlib-only generation daemon.

A long-lived HTTP process in front of the continuous-batching engine
(:mod:`repro.serve.engine`), so generation traffic stops paying model
load plus a cold decode per call:

* **Model LRU** (:class:`ModelHouse`): fitted models are mmap-loaded
  from the experiment Runner's artifact cache on first use
  (``<key>.model.npz`` + the ``<key>.json`` sidecar that names the
  dataset, whose graph the loader needs) and kept resident, least
  recently used evicted first.  ``load_model(..., mmap=True)`` means a
  resident model costs page cache, not heap.
* **Admission control** (:class:`AdmissionControl`): a bounded counter
  of requests in the system (decoding + queued).  Overflow is answered
  ``429`` with a ``Retry-After`` hint instead of unbounded queueing;
  each admitted request carries a deadline and times out server-side.
* **Endpoints**: ``POST /generate`` (model key, n_walks, length,
  temperature, seed, starts), ``POST /evaluate`` (model key →
  discrepancy scoreboard), ``GET /healthz``, ``GET /stats``.
* **Decode thread**: one thread steps every resident engine while any
  has work, then sleeps on the house's wake event until a submit sets
  it — a request reaching an idle daemon starts decoding at once, and
  an idle daemon costs no CPU.
* **Graceful shutdown**: SIGTERM/SIGINT stop the accept loop, in-flight
  requests drain through the still-running decode thread, and only then
  does the process exit (see :meth:`ServeDaemon.shutdown`).

The server keeps the repository's no-dependencies style: threaded
``http.server``, JSON bodies, nothing outside the standard library.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from ..obs import trace
from ..obs.metrics import MetricsRegistry
from .engine import ContinuousBatcher, serve_walks

__all__ = ["ModelHouse", "AdmissionControl", "ServeDaemon", "ServeError"]


class ServeError(Exception):
    """An error with an HTTP status, raised inside request handling."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _walk_interface(model):
    """(walk_model, default_length, starts_fn) of a served model.

    Every ``sample_chunked`` user is servable: TagGen and FairGen wrap a
    :class:`TransformerWalkModel` (FairGen adds its protected-coverage
    ``starts_fn``), and a bare ``TransformerWalkModel`` serves as-is
    (the test/bench `adopt` path).  Anything else — ER, BA, GAE, … —
    has no walk decoder to batch, so requesting it is a client error.
    """
    from ..core.fairgen import FairGen
    from ..models.taggen import TagGen
    from ..models.walk_lm import TransformerWalkModel

    if isinstance(model, TagGen):
        return model.model, model.walk_length, None
    if isinstance(model, FairGen):
        return model.generator, model.config.walk_length, \
            model._generation_starts
    if isinstance(model, TransformerWalkModel):
        return model, model.max_length, None
    raise ServeError(
        400, f"model class {type(model).__name__} has no walk generator "
             "to serve (only TagGen, FairGen and TransformerWalkModel "
             "artifacts can be decoded)")


class _Resident:
    """One resident model: the artifact plus its decode engine."""

    __slots__ = ("key", "model", "walk_model", "default_length",
                 "starts_fn", "engine")

    def __init__(self, key: str, model, *, max_walks: int,
                 registry: MetricsRegistry | None = None,
                 wake: threading.Event) -> None:
        self.key = key
        self.model = model
        self.walk_model, self.default_length, self.starts_fn = \
            _walk_interface(model)
        self.engine = ContinuousBatcher(self.walk_model,
                                        max_walks=max_walks,
                                        registry=registry, name=key,
                                        wake=wake)


class ModelHouse:
    """LRU of resident models backed by the Runner's artifact cache.

    ``get(key)`` resolves a spec cache key (``ExperimentSpec.cache_key``
    — e.g. ``taggen__EMAIL__smoke__s0``) against ``cache_dir``: the
    ``<key>.json`` sidecar names the dataset whose graph the model was
    fitted on, and ``<key>.model.npz`` is mmap-loaded against it.  At
    most ``max_models`` stay resident; eviction takes the least recently
    used model whose engine is idle (a busy engine is never evicted —
    the house temporarily exceeds its bound rather than abandoning
    admitted walks).

    Every resident engine shares the house's :attr:`wake` event, which
    a submit to any of them sets; the daemon's decode thread sleeps on
    it.
    """

    def __init__(self, cache_dir: str | Path | None, *,
                 max_models: int = 4, max_walks: int = 256,
                 registry: MetricsRegistry | None = None) -> None:
        if max_models < 1:
            raise ValueError("max_models must be >= 1")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_models = max_models
        self.max_walks = max_walks
        self._residents: OrderedDict[str, _Resident] = OrderedDict()
        self._lock = threading.Lock()
        self.wake = threading.Event()
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._m_loads = self.registry.counter(
            "serve_models_loaded_total",
            "Models loaded from the artifact cache")
        self._m_evictions = self.registry.counter(
            "serve_models_evicted_total", "Resident models LRU-evicted")
        self._m_hits = self.registry.counter(
            "serve_model_hits_total",
            "Requests answered by an already-resident model")

    @property
    def loads(self) -> int:
        return int(self._m_loads.value())

    @property
    def evictions(self) -> int:
        return int(self._m_evictions.value())

    @property
    def hits(self) -> int:
        return int(self._m_hits.value())

    def adopt(self, key: str, model) -> None:
        """Install an in-process model under ``key`` (tests, benches)."""
        resident = _Resident(key, model, max_walks=self.max_walks,
                             registry=self.registry, wake=self.wake)
        with self._lock:
            self._residents[key] = resident
            self._residents.move_to_end(key)
            self._shrink()

    def get(self, key: str) -> _Resident:
        with self._lock:
            resident = self._residents.get(key)
            if resident is not None:
                self._residents.move_to_end(key)
                self._m_hits.inc()
                return resident
        # Load outside the lock (disk + graph build can take a while);
        # a racing duplicate load is harmless — last one wins the slot.
        with trace.span("serve.model_load", model=key):
            resident = _Resident(key, self._load(key),
                                 max_walks=self.max_walks,
                                 registry=self.registry, wake=self.wake)
        with self._lock:
            self._residents[key] = resident
            self._residents.move_to_end(key)
            self._m_loads.inc()
            self._shrink()
        return resident

    def _load(self, key: str):
        from ..core.serialization import load_model
        from ..data import load_dataset

        if self.cache_dir is None:
            raise ServeError(404, f"unknown model {key!r} (no artifact "
                                  "cache configured)")
        if "/" in key or "\\" in key or ".." in key:
            raise ServeError(400, f"invalid model key {key!r}")
        meta_path = self.cache_dir / f"{key}.json"
        model_path = self.cache_dir / f"{key}.model.npz"
        if not meta_path.exists() or not model_path.exists():
            raise ServeError(404, f"no fitted model {key!r} in "
                                  f"{self.cache_dir} (need <key>.json + "
                                  "<key>.model.npz; produce them with a "
                                  "need_model run or `repro sweep`)")
        try:
            meta = json.loads(meta_path.read_text())
            dataset = load_dataset(meta["spec"]["dataset"])
            return load_model(model_path, dataset.graph, mmap=True)
        except ServeError:
            raise
        except (ValueError, KeyError, OSError,
                json.JSONDecodeError) as exc:
            raise ServeError(500, f"failed to load model {key!r}: {exc}")

    def _shrink(self) -> None:
        # caller holds the lock
        while len(self._residents) > self.max_models:
            victim = next((k for k, r in self._residents.items()
                           if r.engine.idle), None)
            if victim is None:
                return  # everyone is decoding; retry on the next access
            del self._residents[victim]
            self._m_evictions.inc()

    def engines(self) -> list[ContinuousBatcher]:
        with self._lock:
            return [r.engine for r in self._residents.values()]

    def resident_keys(self) -> list[str]:
        with self._lock:
            return list(self._residents)


class AdmissionControl:
    """Bounded count of requests in the system (decoding + queued).

    ``max_inflight`` is the target number of concurrently decoding
    requests and ``queue_depth`` the extra headroom allowed to wait
    behind them; past ``max_inflight + queue_depth`` the daemon answers
    ``429`` with a ``Retry-After`` hint instead of queueing without
    bound — the client, not the server, holds the backlog.
    """

    def __init__(self, max_inflight: int = 8, queue_depth: int = 16,
                 registry: MetricsRegistry | None = None) -> None:
        if max_inflight < 1 or queue_depth < 0:
            raise ValueError("need max_inflight >= 1 and queue_depth >= 0")
        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self._lock = threading.Lock()
        self._in_system = 0
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._m_accepted = self.registry.counter(
            "serve_admission_accepted_total", "Requests admitted")
        self._m_rejected = self.registry.counter(
            "serve_admission_rejected_total",
            "Requests rejected with 429 (admission queue full)")
        self._m_completed = self.registry.counter(
            "serve_admission_completed_total",
            "Admitted requests that left the system")
        self._g_in_system = self.registry.gauge(
            "serve_admission_in_system",
            "Requests currently in the system (decoding + queued)")

    @property
    def limit(self) -> int:
        return self.max_inflight + self.queue_depth

    @property
    def in_system(self) -> int:
        return self._in_system

    @property
    def accepted(self) -> int:
        return int(self._m_accepted.value())

    @property
    def rejected(self) -> int:
        return int(self._m_rejected.value())

    @property
    def completed(self) -> int:
        return int(self._m_completed.value())

    def enter(self) -> bool:
        with self._lock:
            if self._in_system >= self.limit:
                self._m_rejected.inc()
                return False
            self._in_system += 1
            self._g_in_system.set(self._in_system)
            self._m_accepted.inc()
            return True

    def leave(self) -> None:
        with self._lock:
            self._in_system -= 1
            self._g_in_system.set(self._in_system)
            self._m_completed.inc()

    def retry_after(self) -> int:
        """Crude backoff hint: a second per queued-beyond-target batch."""
        with self._lock:
            backlog = max(self._in_system - self.max_inflight, 0)
        return max(1, min(30, backlog // max(self.max_inflight, 1) + 1))

    def snapshot(self) -> dict:
        with self._lock:
            return {"in_system": self._in_system,
                    "max_inflight": self.max_inflight,
                    "queue_depth": self.queue_depth,
                    "accepted": self.accepted,
                    "rejected": self.rejected,
                    "completed": self.completed}


def _positive_int(body: dict, name: str, default: int | None,
                  minimum: int = 1) -> int:
    value = body.get(name, default)
    if value is None:
        raise ServeError(400, f"missing required field {name!r}")
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        raise ServeError(400, f"{name!r} must be an integer >= {minimum}")
    return value


class _Handler(BaseHTTPRequestHandler):
    """Request handler; the daemon instance rides on the server object."""

    protocol_version = "HTTP/1.1"
    daemon: "ServeDaemon"  # set via the server attribute

    # -- plumbing ------------------------------------------------------
    def log_message(self, fmt, *args):  # noqa: A003 - http.server API
        if self.server.daemon.verbose:
            super().log_message(fmt, *args)

    def _reply(self, status: int, payload: dict,
               headers: dict | None = None) -> None:
        self._reply_raw(status, json.dumps(payload).encode(),
                        "application/json", headers)

    def _reply_raw(self, status: int, body: bytes, content_type: str,
                   headers: dict | None = None) -> None:
        self.server.daemon._m_responses.inc(status=str(status))
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            raise ServeError(400, "missing JSON request body")
        try:
            body = json.loads(self.rfile.read(length))
        except json.JSONDecodeError as exc:
            raise ServeError(400, f"invalid JSON body: {exc}")
        if not isinstance(body, dict):
            raise ServeError(400, "request body must be a JSON object")
        return body

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/healthz":
                self._reply(200, self.server.daemon.healthz())
            elif self.path == "/stats":
                self._reply(200, self.server.daemon.stats())
            elif self.path == "/metrics":
                text = self.server.daemon.registry.render_prometheus()
                self._reply_raw(200, text.encode(),
                                "text/plain; version=0.0.4")
            else:
                raise ServeError(404, f"no route {self.path!r}")
        except ServeError as exc:
            self._reply(exc.status, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        daemon = self.server.daemon
        route = self.path
        started = time.perf_counter()
        try:
            if route == "/generate":
                body = self._read_body()
                if not daemon.admission.enter():
                    self._reply(
                        429,
                        {"error": "admission queue full, retry later"},
                        {"Retry-After": str(daemon.admission.retry_after())})
                    return
                try:
                    with trace.span("serve.request", route=route):
                        payload = daemon.generate(body)
                    self._reply(200, payload)
                finally:
                    daemon.admission.leave()
            elif route == "/evaluate":
                with trace.span("serve.request", route=route):
                    payload = daemon.evaluate(self._read_body())
                self._reply(200, payload)
            else:
                raise ServeError(404, f"no route {route!r}")
        except ServeError as exc:
            self._reply(exc.status, {"error": str(exc)})
        except TimeoutError as exc:
            self._reply(504, {"error": str(exc)})
        except Exception as exc:  # don't kill the connection thread
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            # Clamp unknown paths to one label value: clients must not be
            # able to mint unbounded label cardinality.
            label = route if route in ("/generate", "/evaluate") else "other"
            daemon._h_latency.observe(time.perf_counter() - started,
                                      route=label)


class _Server(ThreadingHTTPServer):
    # Joining handler threads on server_close() is the second leg of the
    # graceful drain: no request is abandoned mid-decode.
    daemon_threads = False
    block_on_close = True
    daemon: "ServeDaemon"


class ServeDaemon:
    """The ``repro serve`` process object (HTTP front + decode thread).

    One background thread owns every engine step (the engines require a
    single driver) and sleeps while they are idle; handler threads only
    submit requests, which wakes it, and block on their tickets.
    :meth:`shutdown` drains: stop accepting, let in-flight handlers
    finish (their tickets are fulfilled because the decode thread keeps
    stepping), then stop the decode thread.
    """

    def __init__(self, cache_dir: str | Path | None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 max_models: int = 4, max_walks: int = 256,
                 max_inflight: int = 8, queue_depth: int = 16,
                 request_timeout: float = 120.0,
                 verbose: bool = False,
                 registry: MetricsRegistry | None = None) -> None:
        # Each daemon counts into its own registry unless one is passed,
        # so `/stats`, `/metrics` and `admission` describe this daemon
        # alone.  `repro serve` passes the process-wide registry, so its
        # `GET /metrics` scrape covers every layer (Trainer included).
        self.registry = (registry if registry is not None
                         else MetricsRegistry())
        self.house = ModelHouse(cache_dir, max_models=max_models,
                                max_walks=max_walks,
                                registry=self.registry)
        self.admission = AdmissionControl(max_inflight=max_inflight,
                                          queue_depth=queue_depth,
                                          registry=self.registry)
        self._m_responses = self.registry.counter(
            "serve_http_responses_total",
            "HTTP responses sent, by status code")
        self._h_latency = self.registry.histogram(
            "serve_request_seconds",
            "Wall-clock seconds per POST request, by route")
        self.request_timeout = request_timeout
        self.verbose = verbose
        self.started_at = time.monotonic()
        self._eval_runner = None
        self._eval_lock = threading.Lock()
        self._stop = threading.Event()
        self._server = _Server((host, port), _Handler)
        self._server.daemon = self
        self._decode_thread = threading.Thread(
            target=self._decode_loop, name="repro-serve-decode", daemon=True)
        self._serve_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Start the decode thread and the HTTP accept loop (non-block)."""
        self._decode_thread.start()
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-accept", daemon=True)
        self._serve_thread.start()

    def serve_forever(self) -> None:
        """Run until :meth:`shutdown` (the CLI's blocking entry)."""
        self._decode_thread.start()
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self._finish_shutdown()

    def shutdown(self) -> None:
        """Drain and stop: no admitted request is abandoned.

        1. stop the accept loop — new connections are refused;
        2. join the handler threads (``block_on_close``) — every
           in-flight request runs to completion, with the decode thread
           still fulfilling tickets underneath it;
        3. stop the decode thread, which itself drains any walks still
           resident in the engines before exiting.
        """
        self._server.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join()
            self._finish_shutdown()
        # else: serve_forever's finally runs _finish_shutdown

    def _finish_shutdown(self) -> None:
        self._server.server_close()  # joins in-flight handler threads
        self._stop.set()
        self.house.wake.set()
        if self._decode_thread.is_alive():
            self._decode_thread.join()

    # -- decode loop ---------------------------------------------------
    def _decode_loop(self) -> None:
        """Step every engine while any has work; sleep until a submit.

        The wake event is cleared *before* the scan, and a submit sets
        it only after queueing its request, so a submit racing the scan
        either is seen by it or leaves the event set and the wait
        returns at once.  With nothing to do the thread blocks with no
        timeout; shutdown sets the event after ``_stop``, and the loop
        exits once every engine has drained.
        """
        wake = self.house.wake
        while True:
            wake.clear()
            worked = 0
            for engine in self.house.engines():
                worked += engine.step()
            if worked:
                continue
            if self._stop.is_set():
                if all(engine.idle for engine in self.house.engines()):
                    return
                continue  # drain admitted walks before exiting
            wake.wait()

    # -- request execution ---------------------------------------------
    def generate(self, body: dict) -> dict:
        key = body.get("model")
        if not isinstance(key, str) or not key:
            raise ServeError(400, "field 'model' (spec cache key) is "
                                  "required")
        resident = self.house.get(key)
        n_walks = _positive_int(body, "n_walks", 64)
        length = _positive_int(body, "length", resident.default_length)
        chunk = _positive_int(body, "chunk", 256)
        seed = body.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ServeError(400, "'seed' must be an integer")
        temperature = body.get("temperature", 1.0)
        if not isinstance(temperature, (int, float)) \
                or isinstance(temperature, bool) or temperature <= 0:
            raise ServeError(400, "'temperature' must be a positive number")
        timeout = body.get("timeout", self.request_timeout)
        starts = None
        starts_fn = resident.starts_fn
        if body.get("starts") is not None:
            try:
                starts = np.asarray(body["starts"], dtype=np.int64)
            except (TypeError, ValueError):
                raise ServeError(400, "'starts' must be a list of node ids")
            starts_fn = None  # explicit starts override the model's hook

        rng = np.random.default_rng(seed)
        started = time.perf_counter()
        try:
            walks = serve_walks(
                resident.engine, n_walks, length, rng,
                temperature=float(temperature), chunk=chunk,
                starts_fn=starts_fn, starts=starts,
                deadline=time.monotonic() + float(timeout))
        except ValueError as exc:
            raise ServeError(400, str(exc))
        return {"model": key, "n_walks": n_walks, "length": length,
                "seed": seed, "walks": walks.tolist(),
                "seconds": time.perf_counter() - started}

    def evaluate(self, body: dict) -> dict:
        """Discrepancy scoreboard of a cached artifact (CLI `evaluate`).

        Serves the sidecar's recorded metrics when a ``with_metrics``
        run already paid for them; otherwise loads the cached generated
        graph and computes the overall scoreboard here.
        """
        key = body.get("model")
        if not isinstance(key, str) or not key:
            raise ServeError(400, "field 'model' (spec cache key) is "
                                  "required")
        if self.house.cache_dir is None:
            raise ServeError(404, "no artifact cache configured")
        if "/" in key or "\\" in key or ".." in key:
            raise ServeError(400, f"invalid model key {key!r}")
        meta_path = self.house.cache_dir / f"{key}.json"
        if not meta_path.exists():
            raise ServeError(404, f"no cached run {key!r} in "
                                  f"{self.house.cache_dir}")
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ServeError(500, f"unreadable sidecar for {key!r}: {exc}")
        if meta.get("metrics"):
            return {"model": key, "metrics": meta["metrics"],
                    "cached": True}
        graph_path = self.house.cache_dir / f"{key}.npz"
        if not graph_path.exists():
            raise ServeError(404, f"no generated graph for {key!r}")
        metrics = self._recompute_metrics(key, meta)
        return {"model": key, "metrics": metrics, "cached": False}

    def _recompute_metrics(self, key: str, meta: dict) -> dict:
        """Cold-evaluate metrics, written back through the artifact cache.

        Preferred path: replay the sidecar's spec through the experiment
        :class:`~repro.experiments.Runner` bound to the same cache — the
        scoreboard then matches a ``with_metrics`` sweep exactly
        (protected row, ASPL sampling budget and all) and
        ``_ensure_metrics`` persists it into the sidecar, so the *next*
        evaluate of this key hits the warm branch above.  Entries the
        Runner rejects (stale stamp / foreign format) fall back to a
        direct overall-only computation, served but not persisted.
        """
        try:
            from ..experiments import ExperimentSpec, Runner

            spec_fields = meta.get("spec") or {}
            spec = ExperimentSpec(
                model=spec_fields["model"],
                dataset=spec_fields["dataset"],
                profile=spec_fields.get("profile", "paper"),
                seed=int(spec_fields.get("seed", 0)),
                overrides=spec_fields.get("overrides") or ())
            with self._eval_lock:
                if self._eval_runner is None:
                    self._eval_runner = Runner(
                        cache_dir=self.house.cache_dir,
                        registry=self.registry)
                result = self._eval_runner._load_from_disk(
                    spec, with_metrics=True)
            if result is not None and result.metrics is not None:
                return result.metrics
        except (ValueError, KeyError, OSError, TypeError):
            pass  # unreplayable sidecar: compute directly below
        from ..core.serialization import load_graph
        from ..data import load_dataset
        from ..eval import mean_discrepancy, overall_discrepancy

        try:
            generated = load_graph(self.house.cache_dir / f"{key}.npz")
            original = load_dataset(meta["spec"]["dataset"]).graph
        except (ValueError, KeyError, OSError) as exc:
            raise ServeError(500, f"failed to load artifacts for "
                                  f"{key!r}: {exc}")
        overall = overall_discrepancy(original, generated,
                                      rng=np.random.default_rng(0))
        return {"overall": overall,
                "overall_mean": mean_discrepancy(overall)}

    # -- introspection -------------------------------------------------
    def healthz(self) -> dict:
        return {"status": "ok",
                "uptime_seconds": time.monotonic() - self.started_at,
                "resident_models": self.house.resident_keys()}

    def stats(self) -> dict:
        with self.house._lock:
            engines = {key: r.engine.stats.as_dict()
                       for key, r in self.house._residents.items()}
        return {"admission": self.admission.snapshot(),
                "models": {"resident": list(engines),
                           "max_models": self.house.max_models,
                           "loads": self.house.loads,
                           "hits": self.house.hits,
                           "evictions": self.house.evictions},
                "engines": engines}
