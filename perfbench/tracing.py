"""In-memory span recording around each layer's public calls.

The traced run wraps the public functions and methods listed in
:data:`LAYER_CALLS` from outside the program: every call becomes one
span (layer, call, thread, begin, end) kept in memory.  When the run
ends the spans are written as Chrome trace-event JSON in the layout
``repro.obs.trace`` emits, so ``repro trace summarize <file>`` prints
the per-layer self-time table (span names are layer names; the call
rides in ``args``).  :func:`layer_metrics` turns the same spans into
the per-layer metrics of ``BENCHMARK.json``.

Untraced runs install nothing, so end-to-end numbers carry no wrapper
cost.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict, deque

#: (layer, call label, "module:qualname", count function name or None)
LAYER_CALLS = [
    ("data", "load_dataset", "repro.data.datasets:load_dataset", None),
    ("graph", "sample_walks", "repro.graph.random_walk:sample_walks", "rows"),
    ("graph", "WalkEngine.walks", "repro.graph.walk_engine:WalkEngine.walks",
     "rows"),
    ("graph", "WalkEngine.uniform_walks",
     "repro.graph.walk_engine:WalkEngine.uniform_walks", "rows"),
    ("graph", "WalkEngine.node2vec_walks",
     "repro.graph.walk_engine:WalkEngine.node2vec_walks", "rows"),
    ("embedding", "node2vec_embedding",
     "repro.embedding.node2vec:node2vec_embedding", None),
    ("embedding", "SkipGramModel.train",
     "repro.embedding.word2vec:SkipGramModel.train", None),
    ("core", "ContextSampler.sample",
     "repro.core.context_sampling:ContextSampler.sample", None),
    ("core", "FairDiscriminator.train_step",
     "repro.core.discriminator:FairDiscriminator.train_step", None),
    ("core", "FairDiscriminator.predict_log_proba",
     "repro.core.discriminator:FairDiscriminator.predict_log_proba", None),
    ("core", "SelfPacedState.update",
     "repro.core.self_paced:SelfPacedState.update", None),
    ("core", "SelfPacedState.pseudo_labels",
     "repro.core.self_paced:SelfPacedState.pseudo_labels", "pseudo_share"),
    ("models", "TransformerWalkModel.log_likelihood",
     "repro.models.walk_lm:TransformerWalkModel.log_likelihood", None),
    ("models", "TransformerWalkModel.log_likelihood_pair",
     "repro.models.walk_lm:TransformerWalkModel.log_likelihood_pair", None),
    ("models", "TransformerWalkModel.sample_chunked",
     "repro.models.walk_lm:TransformerWalkModel.sample_chunked", None),
    ("models", "FairGen.generate_walks",
     "repro.core.fairgen:FairGen.generate_walks", None),
    ("models", "TagGen.generate_walks",
     "repro.models.taggen:TagGen.generate_walks", None),
    ("models", "assemble_from_scores",
     "repro.models.base:assemble_from_scores", None),
    ("nn", "Tensor.backward", "repro.nn.tensor:Tensor.backward", None),
    # the one optimizer every model of the program uses
    ("nn", "Adam.step", "repro.nn.optim:Adam.step", None),
    ("nn", "Backend.decode_step", "repro.nn.backend:Backend.decode_step",
     "decode_rows"),
    # overrides the base kernel when REPRO_BACKEND=fused selects it
    ("nn", "FusedNumpyBackend.decode_step",
     "repro.nn.backend:FusedNumpyBackend.decode_step", "decode_rows"),
    ("train", "train_step", "repro.train.trainer:train_step", None),
    ("eval", "overall_discrepancy",
     "repro.eval.discrepancy:overall_discrepancy", None),
    ("eval", "protected_discrepancy",
     "repro.eval.discrepancy:protected_discrepancy", None),
    ("eval", "average_shortest_path_length",
     "repro.graph.metrics:average_shortest_path_length", None),
    ("eval", "triangle_count", "repro.graph.metrics:triangle_count", None),
    ("experiments", "Runner.run", "repro.experiments.runner:Runner.run", None),
    ("serve", "ServeDaemon.generate", "repro.serve.daemon:ServeDaemon.generate",
     "request_seed"),
    # ContinuousBatcher.submit / .step get dedicated wrappers (queue wait).
]

#: per-layer time metrics: name -> the calls whose (outermost) time it sums
TIME_METRICS = {
    "data.load_s": ["load_dataset"],
    "graph.walks_s": ["sample_walks", "WalkEngine.walks",
                      "WalkEngine.uniform_walks", "WalkEngine.node2vec_walks"],
    "embedding.node2vec_s": ["node2vec_embedding"],
    "embedding.sgns_s": ["SkipGramModel.train"],
    "core.context_sample_s": ["ContextSampler.sample"],
    "core.disc_step_s": ["FairDiscriminator.train_step"],
    "core.disc_score_s": ["FairDiscriminator.predict_log_proba"],
    "core.self_paced_s": ["SelfPacedState.update",
                          "SelfPacedState.pseudo_labels"],
    "models.forward_s": ["TransformerWalkModel.log_likelihood",
                         "TransformerWalkModel.log_likelihood_pair"],
    "models.sample_s": ["TransformerWalkModel.sample_chunked",
                        "FairGen.generate_walks", "TagGen.generate_walks"],
    "models.assemble_s": ["assemble_from_scores"],
    "nn.backward_s": ["Tensor.backward"],
    "nn.optim_step_s": ["Adam.step"],
    "nn.decode_s": ["Backend.decode_step", "FusedNumpyBackend.decode_step"],
    "train.step_s": ["train_step"],
    "eval.discrepancy_s": ["overall_discrepancy", "protected_discrepancy"],
    "eval.aspl_s": ["average_shortest_path_length"],
    "eval.triangles_s": ["triangle_count"],
    "experiments.run_s": ["Runner.run"],
}

#: layers whose spans count as "attributed" work in trace.unattributed_share
#: (everything but the orchestrating Runner and the benchmark's own spans)
ATTRIBUTED_LAYERS = ("data", "graph", "embedding", "core", "models", "nn",
                     "train", "eval", "serve")


def _count(kind, result, args, kwargs):
    if kind == "rows":
        return int(result.shape[0])
    if kind == "decode_rows":
        tokens = args[3] if len(args) > 3 else kwargs["tokens"]
        return int(tokens.shape[0])
    if kind == "pseudo_share":
        state = args[0]
        pseudo = result[0].size - state.ground_truth_nodes.size
        return pseudo / state.num_nodes
    if kind == "request_seed":
        body = args[1] if len(args) > 1 else kwargs["body"]
        return body.get("seed")
    raise ValueError(kind)


class SpanRecorder:
    """Keeps spans in memory: ``[layer, call, tid, b_ns, b_seq, e_ns,
    e_seq, value]``.

    ``value`` is an optional per-call count (walk rows, decode rows, ...)
    taken from the call's arguments or result.  Appends are atomic under
    the interpreter lock, so any thread may record.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._seq = itertools.count()
        #: submit timestamps waiting for admission, per engine
        self._queued: dict[int, deque] = defaultdict(deque)
        self._queue_lock = threading.Lock()
        self.queue_waits_ns: list[int] = []
        self._undo: list = []

    # -- recording -----------------------------------------------------
    def record(self, layer: str, call: str, begin_ns: int, begin_seq: int,
               value=None) -> None:
        self.spans.append([layer, call, threading.get_ident(), begin_ns,
                           begin_seq, time.perf_counter_ns(),
                           next(self._seq), value])

    def span(self, layer: str, call: str, value=None):
        """Context manager recording one span of the benchmark's own."""
        recorder = self

        class _Span:
            def __enter__(self):
                self.begin = (time.perf_counter_ns(), next(recorder._seq))
                return self

            def __exit__(self, *exc):
                recorder.record(layer, call, *self.begin, value)
                return False

        return _Span()

    def wrap(self, layer: str, call: str, fn, count=None):
        record, seq, clock = self.record, self._seq, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            begin, begin_seq = clock(), next(seq)
            result = fn(*args, **kwargs)
            value = _count(count, result, args, kwargs) if count else None
            record(layer, call, begin, begin_seq, value)
            return result

        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every call of :data:`LAYER_CALLS` in the loaded program."""
        for layer, call, target, count in LAYER_CALLS:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, attr, self.wrap(layer, call,
                                                 cls.__dict__[attr], count))
            else:
                original = getattr(module, qualname)
                wrapper = self.wrap(layer, call, original, count)
                # `from x import f` copies the binding into every importer,
                # so replace each binding of this function object.
                for name, mod in list(sys.modules.items()):
                    if name.split(".")[0] != "repro" or mod is None:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        self._install_engine()

    def _install_engine(self) -> None:
        """Wrap ``ContinuousBatcher.submit``/``.step`` for queue waits.

        Admission is FIFO, so the requests a step admits are the oldest
        submissions not yet admitted; the step's begin time minus their
        submit time is their queue wait.
        """
        from repro.serve.engine import ContinuousBatcher

        submit, step = ContinuousBatcher.submit, ContinuousBatcher.step
        recorder = self

        @functools.wraps(submit)
        def wrapped_submit(engine, *args, **kwargs):
            begin, begin_seq = time.perf_counter_ns(), next(recorder._seq)
            with recorder._queue_lock:
                queue = recorder._queued[id(engine)]
                queue.append(begin)
                try:
                    ticket = submit(engine, *args, **kwargs)
                except BaseException:
                    queue.pop()
                    raise
            recorder.record("serve", "ContinuousBatcher.submit", begin,
                            begin_seq)
            return ticket

        @functools.wraps(step)
        def wrapped_step(engine):
            stats = engine.stats
            popped = stats.admitted + stats.cancelled
            begin, begin_seq = time.perf_counter_ns(), next(recorder._seq)
            rows = step(engine)
            popped = stats.admitted + stats.cancelled - popped
            if popped:
                with recorder._queue_lock:
                    queue = recorder._queued[id(engine)]
                    for _ in range(popped):
                        recorder.queue_waits_ns.append(begin - queue.popleft())
            if rows or popped:  # idle polls would only bloat the trace
                recorder.record("serve", "ContinuousBatcher.step", begin,
                                begin_seq, rows)
            return rows

        self._patch(ContinuousBatcher, "submit", wrapped_submit)
        self._patch(ContinuousBatcher, "step", wrapped_step)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched binding (tests install repeatedly)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- calibration ---------------------------------------------------
    def per_span_cost_ns(self, calls: int = 20000) -> float:
        """Median extra cost of one wrapped call over a bare call."""
        def noop():
            return None

        wrapped = SpanRecorder().wrap("x", "x", noop)
        samples = []
        for _ in range(5):
            begin = time.perf_counter_ns()
            for _ in range(calls):
                wrapped()
            mid = time.perf_counter_ns()
            for _ in range(calls):
                noop()
            end = time.perf_counter_ns()
            samples.append(((mid - begin) - (end - mid)) / calls)
        return max(statistics.median(samples), 0.0)

    # -- output --------------------------------------------------------
    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as ``repro.obs.trace``-style trace-event JSON.

        One B and one E event per span, sorted by timestamp with ties
        kept in occurrence order, which is what ``summarize_trace``'s
        stable sort needs to rebuild the nesting.
        """
        pid = os.getpid()
        events = []
        for layer, call, tid, b_ns, b_seq, e_ns, e_seq, value in self.spans:
            args = {"call": call}
            if value is not None:
                args["value"] = value
            events.append((b_ns, b_seq, {"name": layer, "ph": "B",
                                         "ts": b_ns / 1000.0, "pid": pid,
                                         "tid": tid, "args": args}))
            events.append((e_ns, e_seq, {"name": layer, "ph": "E",
                                         "ts": e_ns / 1000.0, "pid": pid,
                                         "tid": tid}))
        events.sort(key=lambda item: (item[0], item[1]))
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[\n")
            fh.write(json.dumps({"name": "process_name", "ph": "M",
                                 "pid": pid, "tid": 0,
                                 "args": {"name": f"perfbench (pid {pid})"}},
                                separators=(",", ":")) + ",\n")
            for _, _, event in events:
                fh.write(json.dumps(event, separators=(",", ":")) + ",\n")
            fh.write("{}]\n")


def _union_ns(intervals) -> int:
    """Total length covered by possibly nested/overlapping intervals."""
    total, cur_begin, cur_end = 0, None, None
    for begin, end in sorted(intervals):
        if cur_end is None or begin > cur_end:
            if cur_end is not None:
                total += cur_end - cur_begin
            cur_begin, cur_end = begin, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_begin
    return total


def _outermost(spans):
    """Spans not nested in an earlier span of the same list and thread."""
    by_thread = defaultdict(list)
    for span in spans:
        by_thread[span[2]].append(span)
    out = []
    for group in by_thread.values():
        group.sort(key=lambda s: (s[3], s[4]))
        end = None
        for span in group:
            if end is None or span[3] >= end:
                out.append(span)
                end = span[5]
            else:
                end = max(end, span[5])
    return out


def _median_ms(values_ns) -> float:
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


def layer_metrics(recorder: SpanRecorder, root_ns: tuple[int, int],
                  serve_wall_ns: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    ``root_ns`` is the traced interval (begin, end); ``serve_wall_ns`` the
    wall time of the serve stage, the base of ``serve.engine_busy_share``.
    """
    by_call = defaultdict(list)
    for span in recorder.spans:
        by_call[span[1]].append(span)

    def spans_of(calls):
        return [s for call in calls for s in by_call.get(call, [])]

    out: dict[str, float] = {}
    for name, calls in TIME_METRICS.items():
        spans = spans_of(calls)
        by_thread = defaultdict(list)
        for s in spans:
            by_thread[s[2]].append((s[3], s[5]))
        out[name] = sum(_union_ns(iv) for iv in by_thread.values()) / 1e9

    walks = _outermost(spans_of(TIME_METRICS["graph.walks_s"]))
    out["graph.walks"] = float(sum(s[7] or 0 for s in walks))
    shares = [s[7] for s in by_call.get("SelfPacedState.pseudo_labels", [])]
    out["core.pseudo_label_share"] = (statistics.fmean(shares)
                                      if shares else 0.0)
    out["nn.backward_calls"] = float(len(by_call.get("Tensor.backward", [])))
    out["nn.decode_rows"] = float(sum(
        s[7] for s in _outermost(spans_of(TIME_METRICS["nn.decode_s"]))))
    steps = len(by_call.get("train_step", []))
    out["train.steps"] = float(steps)
    out["train.steps_per_s"] = (steps / out["train.step_s"]
                                if out["train.step_s"] else 0.0)

    # serve: handler time, client round trip minus handler time, queue
    # wait and engine busy share.
    handlers = by_call.get("ServeDaemon.generate", [])
    out["serve.handler_ms"] = _median_ms([s[5] - s[3] for s in handlers])
    by_seed = defaultdict(list)
    for s in handlers:
        by_seed[s[7]].append(s)
    overhead = []
    for client in by_call.get("client round trip", []):
        # the handler span of the same request lies inside the round trip
        inner = [s for s in by_seed[client[7]]
                 if client[3] <= s[3] and s[5] <= client[5]]
        if inner:
            overhead.append(client[5] - client[3] - (inner[0][5] - inner[0][3]))
    out["serve.http_overhead_ms"] = _median_ms(overhead)
    out["serve.queue_wait_ms"] = _median_ms(recorder.queue_waits_ns)
    busy = sum(s[5] - s[3] for s in by_call.get("ContinuousBatcher.step", [])
               if s[7])
    out["serve.engine_busy_share"] = (busy / serve_wall_ns
                                      if serve_wall_ns else 0.0)

    attributed = [(s[3], s[5]) for s in recorder.spans
                  if s[0] in ATTRIBUTED_LAYERS]
    root = root_ns[1] - root_ns[0]
    out["trace.unattributed_share"] = 1.0 - _union_ns(attributed) / root
    out["trace.overhead_share"] = (len(recorder.spans)
                                   * recorder.per_span_cost_ns() / root)
    return out
