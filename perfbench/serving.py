"""Serve stage: an in-process ``ServeDaemon`` under a closed and an open loop.

The daemon listens on 127.0.0.1 at an ephemeral port and serves one
adopted model.  The benchmark talks to it from two client threads, so at
most two HTTP connections are open at a time:

* closed loop: two clients each send their next request as soon as the
  previous one is answered; walks completed per second is the capacity;
* open loop: requests arrive as a seeded Poisson process at a fixed mean
  rate, whatever the answers; latency runs from when a request was due,
  so a stall also delays the requests queued behind it.  Random gaps
  keep the arrivals from locking into phase with the daemon's periodic
  decode-loop poll, which fixed gaps would do for a whole run.

Every response is checked (status 200, an ``(n_walks, length)`` integer
array of node ids in range) and a seeded subset must be byte-identical to
the standalone generation for the same seed.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: connections the benchmark opens to the daemon
CONNECTIONS = 2


@dataclass
class Outcome:
    """One request as the client saw it."""

    request: dict
    due: float
    sent: float
    done: float
    status: int
    walks: np.ndarray | None = None


@dataclass
class ServeTally:
    """Samples of the serve stage, gathered over a run's rounds."""

    #: walks per second of each closed-loop segment
    closed_walks_per_s: list[float] = field(default_factory=list)
    #: latency of each answered open-loop request, from when it was due
    latencies_ms: list[float] = field(default_factory=list)
    #: how late the open-loop generator sent each request
    lags_ms: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    wall_s: float = 0.0
    engine_steps: int = 0
    rows_decoded: int = 0


def request_mix(mix: dict, rng: np.random.Generator, count: int,
                key: str) -> list[dict]:
    """``count`` seeded requests drawn from a workload's mix.

    ``mix`` holds ``short`` and optional ``long`` classes, each with a
    ``length`` and an inclusive ``n_walks`` range, plus the share of long
    requests.  Every request gets its own seed.
    """
    out = []
    for _ in range(count):
        kind = "long" if rng.random() < mix.get("long_share", 0.0) else "short"
        low, high = mix[kind]["n_walks"]
        out.append({"model": key, "n_walks": int(rng.integers(low, high + 1)),
                    "length": int(mix[kind]["length"]),
                    "seed": int(rng.integers(2 ** 31))})
    return out


class _Client:
    """One client of the daemon: a fresh HTTP connection per request, as
    the program's own ``ServeClient`` makes.

    A kept-alive connection would stall most responses ~40 ms on the
    daemon's separate header and body writes (Nagle against delayed
    ACK), a state-dependent delay that made latency bimodal run to run.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port

    def generate(self, body: dict) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("POST", "/generate", body=json.dumps(body).encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()


def _parse(status: int, raw: bytes) -> np.ndarray | None:
    if status != 200:
        return None
    try:
        return np.asarray(json.loads(raw)["walks"])
    except (ValueError, KeyError):
        return None


class ServeStage:
    """Owns the daemon for one workload run; ``close`` stops it."""

    def __init__(self, model, key: str, recorder=None) -> None:
        from repro.obs.metrics import MetricsRegistry
        from repro.serve.daemon import ServeDaemon

        self.key = key
        self.recorder = recorder
        self.daemon = ServeDaemon(None, host="127.0.0.1", port=0,
                                  registry=MetricsRegistry())
        self.daemon.house.adopt(key, model)
        self.daemon.start()
        host, port = self.daemon.address
        self.clients = [_Client(host, port) for _ in range(CONNECTIONS)]

    def warm_up(self, request: dict) -> bool:
        status, raw = self.clients[0].generate(request)
        return _parse(status, raw) is not None

    def _send(self, client: _Client, request: dict, due: float) -> Outcome:
        sent = time.perf_counter()
        try:
            if self.recorder is not None:
                with self.recorder.span("client", "client round trip",
                                        request["seed"]):
                    status, raw = client.generate(request)
            else:
                status, raw = client.generate(request)
        except (OSError, http.client.HTTPException):
            status, raw = 0, b""  # a failed request; the checks count it
        done = time.perf_counter()
        return Outcome(request, due, sent, done, status, _parse(status, raw))

    def closed_loop(self, requests: list[dict], seconds: float,
                    tally: ServeTally) -> None:
        """Both clients cycle through ``requests`` for ``seconds``."""
        lock, out = threading.Lock(), []
        cursor = iter(range(10 ** 9))
        start = time.perf_counter()
        deadline = start + seconds

        def body(client):
            while time.perf_counter() < deadline:
                with lock:
                    i = next(cursor)
                request = requests[i % len(requests)]
                out.append(self._send(client, request, time.perf_counter()))

        self._measure(body, tally)
        walks = sum(o.request["n_walks"] for o in out if o.walks is not None)
        tally.closed_walks_per_s.append(
            walks / (max(o.done for o in out) - start))
        tally.outcomes += out

    def open_loop(self, requests: list[dict], rate: float,
                  rng: np.random.Generator, tally: ServeTally) -> None:
        """Send ``requests`` at Poisson arrival times of mean ``rate``/s."""
        gaps = rng.exponential(1.0 / rate, len(requests))
        due = time.perf_counter() + 0.05 + np.cumsum(gaps)
        lock, out = threading.Lock(), []
        slots = iter(range(len(requests)))

        def body(client):
            while True:
                with lock:
                    i = next(slots, None)
                if i is None:
                    return
                pause = due[i] - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                out.append(self._send(client, requests[i], float(due[i])))

        self._measure(body, tally)
        tally.latencies_ms += [(o.done - o.due) * 1e3 for o in out
                               if o.walks is not None]
        tally.lags_ms += [(o.sent - o.due) * 1e3 for o in out]
        tally.outcomes += out

    def _measure(self, body, tally: ServeTally) -> None:
        """Run ``body(client)`` on one thread per client; adds the wall
        time and the engine's step and row counts to ``tally``."""
        stats = self.daemon.house.engines()[0].stats
        steps0, rows0 = stats.steps, stats.rows_decoded
        begin = time.perf_counter()
        threads = [threading.Thread(target=body, args=(client,),
                                    name=f"perfbench-client-{i}")
                   for i, client in enumerate(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tally.wall_s += time.perf_counter() - begin
        tally.engine_steps += stats.steps - steps0
        tally.rows_decoded += stats.rows_decoded - rows0

    def close(self) -> None:
        self.daemon.shutdown()


def check_outcome(outcome: Outcome, num_nodes: int, reference=None) -> bool:
    """Status 200, right shape, integer ids in range; byte-identical to
    ``reference(request)`` when given."""
    walks, request = outcome.walks, outcome.request
    if outcome.status != 200 or walks is None:
        return False
    if walks.shape != (request["n_walks"], request["length"]) \
            or walks.dtype.kind not in "iu":
        return False
    if walks.size and (walks.min() < 0 or walks.max() >= num_nodes):
        return False
    if reference is not None:
        expected = np.asarray(reference(request), dtype=np.int64)
        return walks.astype(np.int64).tobytes() == expected.tobytes()
    return True
