"""Span tracing in Chrome ``trace_event`` format.

``span(name, **attrs)`` is the single instrumentation point::

    from repro.obs import trace

    with trace.span("serve.step", batch=n) as sp:
        rows = do_work()
        sp.set(rows=rows)          # extra args attached to the close event

When tracing is disabled (the default) ``span`` returns a shared
module-level no-op singleton — the call costs one global read plus one
tuple-return, no allocation, no branching inside ``__enter__``/
``__exit__``.  The micro-benchmark in ``benchmarks/
bench_observability.py`` holds this to a hard gate.

When enabled (``REPRO_TRACE=<path>`` in the environment, the global
``repro --trace <path>`` CLI flag, or :func:`enable` directly), spans
emit Chrome trace-event JSONL: one ``B`` (begin) and one ``E`` (end)
event per span with microsecond monotonic timestamps and per-process /
per-thread track ids, plus ``M`` metadata events naming each track.
The output file opens with ``[`` and writes one event per line with a
trailing comma — exactly the "JSON Array Format" that Perfetto and
``chrome://tracing`` load directly (the closing ``]`` is optional by
spec, and :func:`close` writes it anyway).

Forked children (one per :func:`~repro.experiments.sweep.run_sweep`
job) re-open their own trace file at ``<path>.<pid>`` so two processes
never interleave writes.
"""

from __future__ import annotations

import atexit
import io
import json
import os
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "span",
    "instant",
    "enable",
    "disable",
    "enabled",
    "trace_path",
    "load_trace",
    "summarize_trace",
    "render_summary",
]

_ENV_VAR = "REPRO_TRACE"


class _Tracer:
    """Owns one open trace file; all writes go through one lock."""

    def __init__(self, path: str, process_name: Optional[str] = None) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._fh: Optional[io.TextIOBase] = open(path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._named_threads: set = set()
        self._fh.write("[\n")
        if process_name is None:
            process_name = os.path.basename(sys.argv[0] or "python")
        self._raw(
            {
                "name": "process_name",
                "ph": "M",
                "pid": self._pid,
                "tid": 0,
                "args": {"name": f"{process_name} (pid {self._pid})"},
            }
        )

    @staticmethod
    def _now_us() -> float:
        return time.perf_counter_ns() / 1000.0

    def _raw(self, event: dict) -> None:
        line = json.dumps(event, separators=(",", ":"), default=str)
        fh = self._fh
        if fh is None:
            return
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(line + ",\n")

    def _event(self, ph: str, name: str, args: Optional[dict]) -> None:
        tid = threading.get_ident()
        if tid not in self._named_threads:
            self._named_threads.add(tid)
            self._raw(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": self._pid,
                    "tid": tid,
                    "args": {"name": threading.current_thread().name},
                }
            )
        event: Dict[str, object] = {
            "name": name,
            "ph": ph,
            "ts": self._now_us(),
            "pid": self._pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self._raw(event)

    def begin(self, name: str, args: Optional[dict] = None) -> None:
        self._event("B", name, args)

    def end(self, name: str, args: Optional[dict] = None) -> None:
        self._event("E", name, args)

    def instant(self, name: str, args: Optional[dict] = None) -> None:
        self._event("i", name, args)

    def close(self) -> None:
        with self._lock:
            fh, self._fh = self._fh, None
        if fh is not None:
            try:
                # "{}]" (not bare "]") keeps the file valid strict JSON
                # despite the trailing comma each event line carries.
                fh.write("{}]\n")
                fh.close()
            except OSError:
                pass


# Module state -------------------------------------------------------

_TRACER: Optional[_Tracer] = None


class _NullSpan:
    """Shared no-op span: disabled-path cost is one global read."""

    __slots__ = ()
    enabled = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "name", "attrs")
    enabled = True

    def __init__(self, tracer: _Tracer, name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: object) -> "_Span":
        """Attach attrs; emitted on the close event."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        self._tracer.begin(self.name, dict(self.attrs) or None)
        return self

    def __exit__(self, *exc: object) -> bool:
        self._tracer.end(self.name, dict(self.attrs) or None)
        return False


def span(name: str, **attrs: object):
    """A context manager tracing ``name``; no-op singleton when disabled."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return _Span(tracer, name, attrs)


def instant(name: str, **attrs: object) -> None:
    """Emit a zero-duration instant event (no-op when disabled)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.instant(name, attrs or None)


def enable(path: str | os.PathLike, *, process_name: Optional[str] = None) -> str:
    """Start tracing to ``path``; returns the path actually opened."""
    global _TRACER
    disable()
    _TRACER = _Tracer(os.fspath(path), process_name)
    return _TRACER.path


def disable() -> None:
    """Stop tracing and close the current file, if any."""
    global _TRACER
    tracer, _TRACER = _TRACER, None
    if tracer is not None:
        tracer.close()


def enabled() -> bool:
    return _TRACER is not None


def trace_path() -> Optional[str]:
    tracer = _TRACER
    return tracer.path if tracer is not None else None


def _reopen_in_child() -> None:
    """After fork: give the child its own file so writes never interleave."""
    global _TRACER
    tracer = _TRACER
    if tracer is None:
        return
    # The inherited handle belongs to the parent; abandon it unflushed.
    tracer._fh = None
    _TRACER = _Tracer(f"{tracer.path}.{os.getpid()}")


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_reopen_in_child)

atexit.register(disable)

_env_path = os.environ.get(_ENV_VAR)
if _env_path:
    enable(_env_path)


# Reading traces back ------------------------------------------------


def load_trace(path: str | os.PathLike) -> List[dict]:
    """Parse a trace file back into a list of event dicts.

    Accepts both the streaming JSONL layout this module writes (with or
    without the closing ``]``) and a plain JSON array.
    """
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.strip()
    if not stripped:
        return []
    try:
        loaded = json.loads(stripped)
        if isinstance(loaded, list):
            return [e for e in loaded if isinstance(e, dict) and e]
    except ValueError:
        pass
    # Line-oriented fallback: "[", then "{...}," per line, optional "]".
    events: List[dict] = []
    for line in stripped.splitlines():
        line = line.strip().rstrip(",")
        if line in ("", "[", "]"):
            continue
        event = json.loads(line)
        if isinstance(event, dict) and event:
            events.append(event)
    return events


def summarize_trace(
    paths: Iterable[str | os.PathLike],
) -> List[Dict[str, object]]:
    """Aggregate B/E span pairs into a per-name time table.

    Returns rows ``{name, count, total_us, self_us, avg_us, max_us}``
    sorted by total time descending.  ``self_us`` excludes time spent
    in nested child spans on the same track.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for path in paths:
        events = load_trace(path)
        stacks: Dict[Tuple[int, int], List[List[object]]] = {}
        for event in sorted(events, key=lambda e: e.get("ts", 0.0)):
            ph = event.get("ph")
            if ph not in ("B", "E"):
                continue
            track = (event.get("pid", 0), event.get("tid", 0))
            stack = stacks.setdefault(track, [])
            if ph == "B":
                # [name, begin_ts, child_time_us]
                stack.append([event.get("name", "?"), float(event["ts"]), 0.0])
            else:
                if not stack:
                    continue  # unbalanced tail (truncated trace)
                name, begin_ts, child_us = stack.pop()
                dur = float(event["ts"]) - begin_ts
                if stack:
                    stack[-1][2] += dur
                row = totals.setdefault(
                    str(name),
                    {"count": 0, "total_us": 0.0, "self_us": 0.0, "max_us": 0.0},
                )
                row["count"] += 1
                row["total_us"] += dur
                row["self_us"] += dur - child_us
                row["max_us"] = max(row["max_us"], dur)
    out: List[Dict[str, object]] = []
    for name, row in totals.items():
        count = int(row["count"])
        out.append(
            {
                "name": name,
                "count": count,
                "total_us": row["total_us"],
                "self_us": row["self_us"],
                "avg_us": row["total_us"] / count if count else 0.0,
                "max_us": row["max_us"],
            }
        )
    out.sort(key=lambda r: (-float(r["total_us"]), r["name"]))
    return out


def render_summary(rows: List[Dict[str, object]]) -> str:
    """Fixed-width text table for ``repro trace summarize``."""
    if not rows:
        return "(no spans)"
    header = f"{'span':<32} {'count':>8} {'total ms':>12} {'self ms':>12} {'avg ms':>10} {'max ms':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{str(row['name'])[:32]:<32} {row['count']:>8} "
            f"{float(row['total_us']) / 1000.0:>12.3f} "
            f"{float(row['self_us']) / 1000.0:>12.3f} "
            f"{float(row['avg_us']) / 1000.0:>10.3f} "
            f"{float(row['max_us']) / 1000.0:>10.3f}"
        )
    return "\n".join(lines)
