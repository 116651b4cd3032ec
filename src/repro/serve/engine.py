"""Continuous-batching walk decode: the serving engine.

Standalone generation (:meth:`TransformerWalkModel.sample`) decodes one
request at a time: a prefill pass, then one KV-cached step per token for
that request's walks only.  Under concurrent serving traffic that leaves
the per-step fixed costs (python dispatch, one kernel call per op per
layer) unamortised — every request pays them alone.

:class:`ContinuousBatcher` coalesces concurrent requests of *different*
walk lengths into one decode batch, the trick production LLM servers
use:

* each request is prefilled in isolation, exactly as ``sample``
  prefills — one :meth:`~repro.nn.backend.Backend.decode_step` call
  under the prompt's causal mask on the model's fresh ``new_caches`` —
  then its per-layer KV rows are transplanted into the shared batch
  caches (:meth:`~repro.nn.attention.LayerKVCache.append_cache`);
* every engine step advances **all** resident walks by one token in a
  single forward — ONE :meth:`~repro.nn.backend.Backend.decode_step`
  call with one ``(row0, row1)`` row group per request, the same kernel
  and mode standalone sampling runs with its single group: the dense
  projections and feed-forward run over the whole coalesced batch while
  attention and the vocabulary head run per group over the request's
  exact (unpadded) cache window;
* walks that reach their requested length are swapped out
  (:meth:`~repro.nn.attention.LayerKVCache.gather_rows`) and queued
  requests are admitted in their place, so the batch stays full while
  traffic lasts.

Determinism contract
--------------------
A served walk is **byte-identical** to the same walk generated
standalone.  Two properties make that hold by construction:

* every request keeps its own RNG, consumed exactly as
  ``sample`` consumes it (one ``rng.random((n, 1))`` draw per decoded
  token, in walk order), and a request's walks always advance in
  lockstep;
* every array op either is row-wise (embedding, layer norm, GELU,
  residual adds), a stacked per-row matmul (the 3-D ``(B, 1, D) @ (D,
  D')`` projections, which NumPy evaluates as independent per-row
  GEMMs), or runs on the request's *exact* rows-and-length slice
  (attention scores/softmax/context and the final vocabulary head) —
  so no value ever depends on which other requests share the batch,
  and no padding position ever enters a softmax sum.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from ..nn.attention import causal_mask
from ..nn.backend import DECODE_KERNEL
from ..obs import trace
from ..obs.metrics import DEFAULT_BUCKETS, MetricsRegistry

__all__ = ["ContinuousBatcher", "WalkTicket", "EngineStats", "serve_walks"]

#: powers-of-two row-occupancy buckets for the batch histogram
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: submit-to-admission seconds; an engine woken by its submit admits in
#: well under a millisecond, so the buckets reach below the defaults'
_QUEUE_BUCKETS = (0.0001, 0.00025, 0.0005) + DEFAULT_BUCKETS


class WalkTicket:
    """Handle for one submitted walk request.

    The engine thread fulfils the ticket; any thread may :meth:`result`
    it.  ``cancel`` withdraws a still-queued request (a request already
    decoding runs to completion; its walks are simply discarded).
    """

    __slots__ = ("n_walks", "length", "_done", "_walks", "cancelled",
                 "submitted_at", "finished_at")

    def __init__(self, n_walks: int, length: int) -> None:
        self.n_walks = n_walks
        self.length = length
        self._done = threading.Event()
        self._walks: np.ndarray | None = None
        self.cancelled = False
        self.submitted_at = time.perf_counter()
        self.finished_at: float | None = None

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def _finish(self, walks: np.ndarray) -> None:
        self._walks = walks
        self.finished_at = time.perf_counter()
        self._done.set()

    def cancel(self) -> bool:
        """Withdraw the request; ``True`` if it had not completed yet."""
        if self._done.is_set():
            return False
        self.cancelled = True
        return True

    def result(self, timeout: float | None = None) -> np.ndarray:
        """The ``(n_walks, length)`` walks; blocks until decoded.

        Raises :class:`TimeoutError` if the engine has not finished the
        request within ``timeout`` seconds (the request keeps its queue
        slot unless the caller also :meth:`cancel`\\ s it).
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"walk request ({self.n_walks}x{self.length}) not decoded "
                f"within {timeout:g}s")
        return self._walks


class _ActiveRequest:
    """One request resident in the decode batch."""

    __slots__ = ("ticket", "n", "length", "temperature", "rng", "tokens",
                 "pending_ids")

    def __init__(self, ticket: WalkTicket, n: int, length: int,
                 temperature: float, rng: np.random.Generator,
                 tokens: np.ndarray, pending_ids: np.ndarray) -> None:
        self.ticket = ticket
        self.n = n
        self.length = length
        self.temperature = temperature
        self.rng = rng
        #: all tokens so far, prompt included — ``(n, t)``; the walk is
        #: complete once ``t == length + 1`` (column 0 is the prompt's
        #: start token, exactly as in ``sample``)
        self.tokens = tokens
        #: last sampled ids, the next step's input — ``(n,)``
        self.pending_ids = pending_ids


class EngineStats:
    """Monotone counters of one engine's lifetime (for ``/stats``).

    Registry-backed: each counter is a labeled series
    (``engine=<name>``) in a :class:`MetricsRegistry` — a private
    registry by default, so engines constructed directly (tests,
    benchmarks) never share counts; the daemon passes its own registry
    so every engine's series lands on ``GET /metrics``.

    Every mutation goes through the registry lock.  This also closes
    the one real race of the hand-rolled int counters: ``submit()``
    runs on arbitrary HTTP handler threads under ThreadingHTTPServer,
    so its ``submitted += 1`` read-modify-write could drop increments;
    all the other counters only ever moved on the decode thread.
    """

    _FIELDS = ("submitted", "admitted", "completed", "cancelled",
               "steps", "rows_decoded")

    def __init__(self, registry: MetricsRegistry | None = None,
                 engine: str = "engine") -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self.registry = registry
        self.engine = engine
        self._counters = {
            "submitted": registry.counter(
                "serve_engine_submitted_total", "Walk requests submitted"),
            "admitted": registry.counter(
                "serve_engine_admitted_total",
                "Requests admitted into the decode batch"),
            "completed": registry.counter(
                "serve_engine_completed_total", "Requests fulfilled"),
            "cancelled": registry.counter(
                "serve_engine_cancelled_total",
                "Requests cancelled before admission"),
            "steps": registry.counter(
                "serve_engine_steps_total", "Fused decode steps"),
            "rows_decoded": registry.counter(
                "serve_engine_rows_decoded_total",
                "Walk rows advanced across all decode steps"),
        }
        self._peak = registry.gauge(
            "serve_engine_peak_batch", "Peak decode-batch row occupancy")
        self._batch_rows = registry.histogram(
            "serve_engine_batch_rows",
            "Decode-batch row occupancy per step", buckets=_BATCH_BUCKETS)
        self.queue_seconds = registry.histogram(
            "serve_engine_queue_seconds",
            "Seconds from submit to admission into the decode batch",
            buckets=_QUEUE_BUCKETS)

    def note(self, field: str, amount: int = 1) -> None:
        self._counters[field].inc(amount, engine=self.engine)

    def note_admitted(self, queued_seconds: float) -> None:
        self._counters["admitted"].inc(engine=self.engine)
        self.queue_seconds.observe(queued_seconds, engine=self.engine)

    def note_step(self, batch: int) -> None:
        self._counters["steps"].inc(engine=self.engine)
        self._counters["rows_decoded"].inc(batch, engine=self.engine)
        self._peak.set_max(batch, engine=self.engine)
        self._batch_rows.observe(batch, engine=self.engine)

    def _value(self, field: str) -> int:
        return int(self._counters[field].value(engine=self.engine))

    @property
    def submitted(self) -> int:
        return self._value("submitted")

    @property
    def admitted(self) -> int:
        return self._value("admitted")

    @property
    def completed(self) -> int:
        return self._value("completed")

    @property
    def cancelled(self) -> int:
        return self._value("cancelled")

    @property
    def steps(self) -> int:
        return self._value("steps")

    @property
    def rows_decoded(self) -> int:
        return self._value("rows_decoded")

    @property
    def peak_batch(self) -> int:
        return int(self._peak.value(engine=self.engine))

    def as_dict(self) -> dict:
        out = {name: self._value(name) for name in self._FIELDS}
        out["peak_batch"] = self.peak_batch
        return out


class ContinuousBatcher:
    """Coalesces concurrent walk requests into one KV-cached decode batch.

    Parameters
    ----------
    model:
        A (fitted, ``eval()``-mode) :class:`TransformerWalkModel`.  The
        engine reads the model's live parameters at each step, so a
        ``load_state_dict`` (or any parameter update) takes effect at
        the next prefill or step; requests decoding across the update
        mix the two weight sets.
    max_walks:
        Upper bound on resident walk rows.  Requests whose walks do not
        fit wait in the admission deque and are swapped in as running
        walks finish; a single request larger than ``max_walks`` is
        rejected at :meth:`submit`.
    wake:
        The event :meth:`submit` sets once a request is queued.  The
        daemon's :class:`~repro.serve.daemon.ModelHouse` hands one event
        to all its engines, so its decode thread sleeps on that event
        alone; left out, the engine makes its own.

    Thread model: any number of threads may :meth:`submit`; exactly one
    thread drives :meth:`step` (directly, via :meth:`drain`, or via the
    daemon's decode loop).  A driver clears :attr:`wake` *before* each
    pass of :meth:`step` and, when the pass found nothing to do, sleeps
    on it with no timeout.  A submit queues its request before setting
    the event, so one that lands after the pass's admission leaves the
    event set and the wait returns at once: no request waits out a poll
    interval, and no wakeup is lost.
    """

    def __init__(self, model, *, max_walks: int = 256,
                 registry: MetricsRegistry | None = None,
                 name: str = "engine",
                 wake: threading.Event | None = None) -> None:
        if max_walks < 1:
            raise ValueError("max_walks must be >= 1")
        self._model = model
        self.max_walks = max_walks
        self.wake = wake if wake is not None else threading.Event()
        self._pending: deque[tuple] = deque()
        self._active: list[_ActiveRequest] = []
        self._caches = model.new_caches(0)
        self.stats = EngineStats(registry, name)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, n_walks: int, length: int, rng: np.random.Generator,
               temperature: float = 1.0,
               starts: np.ndarray | None = None) -> WalkTicket:
        """Queue a walk request; returns a :class:`WalkTicket`.

        Arguments mirror :meth:`TransformerWalkModel.sample`; the prompt
        is built here, by the model's own validating prompt builder, so
        API-level errors surface to the caller (synchronously, exactly as
        ``sample`` raises them), not inside the decode loop.
        """
        if n_walks > self.max_walks:
            raise ValueError(f"n_walks {n_walks} exceeds the engine's "
                             f"max_walks {self.max_walks}; chunk the "
                             "request (see serve_walks)")
        tokens = self._model._sampling_prompt(n_walks, length, temperature,
                                              starts)
        ticket = WalkTicket(n_walks, length)
        # Registry-locked: submit() runs on arbitrary caller threads.
        # Counted before it is queued, so ``admitted`` never runs ahead.
        self.stats.note("submitted")
        self._pending.append((ticket, n_walks, length, temperature, rng,
                              tokens))
        self.wake.set()
        return ticket

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def active_walks(self) -> int:
        return sum(req.n for req in self._active)

    @property
    def idle(self) -> bool:
        return not self._pending and not self._active

    # ------------------------------------------------------------------
    # Admission / eviction
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        """Move queued requests into the batch while they fit.

        Admission order is strictly FIFO — a large request at the head
        waits for room rather than being overtaken by smaller ones, so
        no request can starve.
        """
        model = self._model
        while self._pending:
            ticket = self._pending[0][0]
            if ticket.cancelled:
                self._pending.popleft()
                self.stats.note("cancelled")
                continue
            if self._active and \
                    self.active_walks + self._pending[0][1] > self.max_walks:
                break
            ticket, n, length, temperature, rng, tokens = \
                self._pending.popleft()
            self.stats.note_admitted(time.perf_counter()
                                     - ticket.submitted_at)
            # Replay the standalone ``sample`` flow exactly: prefill the
            # prompt built at submit in isolation, draw the first token
            # from the request's own RNG — then join the shared batch.
            if tokens.shape[1] >= length + 1:
                # starts pinned and length == 1: nothing to decode.
                ticket._finish(tokens[:, 1:])
                self.stats.note("completed")
                continue
            with trace.span("serve.prefill", walks=n, length=length):
                caches = model.new_caches(n)
                logits = DECODE_KERNEL.decode_step(
                    model, caches, tokens, [(0, n)],
                    mask=causal_mask(tokens.shape[1]))
                next_ids = model._sample_step(logits, temperature,
                                              model.num_nodes, rng)
            tokens = np.concatenate([tokens, next_ids[:, None]], axis=1)
            if tokens.shape[1] >= length + 1:
                ticket._finish(tokens[:, 1:])
                self.stats.note("completed")
                continue
            for batch_cache, donor in zip(self._caches, caches):
                batch_cache.append_cache(donor)
            self._active.append(_ActiveRequest(ticket, n, length,
                                               temperature, rng, tokens,
                                               next_ids))

    def _evict(self, finished: list[int]) -> None:
        """Swap finished requests out of the batch, compacting the rest."""
        keep_rows: list[np.ndarray] = []
        offset = 0
        survivors = []
        for i, req in enumerate(self._active):
            if i not in finished:
                keep_rows.append(np.arange(offset, offset + req.n))
                survivors.append(req)
            offset += req.n
        rows = (np.concatenate(keep_rows) if keep_rows
                else np.empty(0, dtype=np.int64))
        for cache in self._caches:
            cache.gather_rows(rows)
        self._active = survivors

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def step(self) -> int:
        """Admit what fits, then advance every resident walk one token.

        Returns the number of walk rows decoded (0 when the engine is
        idle).  Completed requests are fulfilled and evicted, freeing
        their batch slots for the next admission pass.
        """
        self._admit()
        if not self._active:
            return 0
        model = self._model
        batch = self.active_walks
        with trace.span("serve.step", batch=batch,
                        requests=len(self._active)):
            self.stats.note_step(batch)
            groups: list[tuple[int, int]] = []  # (row0, row1) per request
            offset = 0
            for req in self._active:
                groups.append((offset, offset + req.n))
                offset += req.n
            tokens = np.concatenate(
                [req.pending_ids for req in self._active])[:, None]
            logits = self._forward_step(tokens, groups)

            finished: list[int] = []
            for i, (req, (row0, row1)) in enumerate(
                    zip(self._active, groups)):
                next_ids = model._sample_step(logits[row0:row1],
                                              req.temperature,
                                              model.num_nodes, req.rng)
                req.tokens = np.concatenate(
                    [req.tokens, next_ids[:, None]], axis=1)
                if req.tokens.shape[1] >= req.length + 1:
                    req.ticket._finish(req.tokens[:, 1:])
                    self.stats.note("completed")
                    finished.append(i)
                else:
                    req.pending_ids = next_ids
            if finished:
                self._evict(finished)
        return batch

    def _forward_step(self, tokens: np.ndarray,
                      groups: list[tuple[int, int]]) -> np.ndarray:
        """One whole-step decode over the coalesced batch.

        ``tokens`` is ``(B, 1)``; ``groups`` lists each request's
        contiguous ``(row0, row1)`` rows.  The entire forward is a
        single :meth:`~repro.nn.backend.Backend.decode_step` call with
        one row group per request (see the module docstring).
        """
        with trace.span("serve.decode_step", rows=tokens.shape[0],
                        groups=len(groups)):
            return DECODE_KERNEL.decode_step(
                self._model, self._caches, tokens, groups)

    # ------------------------------------------------------------------
    # Driving loops
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Step until every submitted request has completed."""
        while not self.idle:
            self.step()


def serve_walks(engine: ContinuousBatcher, n_walks: int, length: int,
                rng: np.random.Generator, temperature: float = 1.0,
                chunk: int = 256, starts_fn=None,
                starts: np.ndarray | None = None,
                deadline: float | None = None) -> np.ndarray:
    """Generate ``n_walks`` walks through the engine, chunk by chunk.

    The serving twin of :meth:`TransformerWalkModel.sample_chunked` —
    byte-identical output for the same arguments and RNG, including
    ``starts_fn`` (FairGen's protected-coverage hook, which must consume
    the shared RNG *before* each chunk's sampling draws, exactly as the
    standalone path does).  Chunks of one request serialise on their
    shared RNG; concurrency comes from other requests coalescing into
    the same decode batch.

    ``deadline`` is an absolute ``time.monotonic()`` instant; crossing
    it cancels the remaining work and raises :class:`TimeoutError`.
    """
    if starts is not None and starts_fn is not None:
        raise ValueError("pass starts or starts_fn, not both")
    if starts is not None:
        starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    # Check the whole request before starts_fn or any chunk draws.
    engine._model._sampling_prompt(n_walks, length, temperature, starts)
    chunks: list[np.ndarray] = []
    done = 0
    while done < n_walks:
        take = min(n_walks - done, chunk)
        if starts_fn is not None:
            chunk_starts = starts_fn(take, rng)
        elif starts is not None:
            chunk_starts = starts[done: done + take]
        else:
            chunk_starts = None
        ticket = engine.submit(take, length, rng, temperature=temperature,
                               starts=chunk_starts)
        timeout = None
        if deadline is not None:
            timeout = max(deadline - time.monotonic(), 0.0)
        try:
            chunks.append(ticket.result(timeout=timeout))
        except TimeoutError:
            ticket.cancel()
            raise
        done += take
    return np.concatenate(chunks, axis=0)
