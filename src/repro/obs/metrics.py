"""Thread-safe metrics registry: counters, gauges, histograms.

Stdlib-only. Three metric kinds, all supporting labeled series:

* :class:`Counter` — monotonically increasing floats (``inc``).
* :class:`Gauge` — last-write-wins floats (``set``/``inc``/``dec``/
  ``set_max``).
* :class:`Histogram` — fixed upper-bound buckets with cumulative
  counts, a running sum, and percentile estimation (p50/p90/p99 in
  snapshots) by linear interpolation inside the winning bucket.

A :class:`MetricsRegistry` owns metrics; registration is get-or-create
and idempotent (re-registering the same name with the same kind returns
the existing metric; a different kind raises).  There is one
process-wide default registry (:func:`get_registry`) for production
wiring, but every instrumented component accepts an injectable registry
so tests can isolate counts.

Exporters:

* :meth:`MetricsRegistry.render_prometheus` — Prometheus text
  exposition format (``# HELP``/``# TYPE`` plus ``_bucket``/``_sum``/
  ``_count`` series for histograms).
* :meth:`MetricsRegistry.snapshot` — plain-dict snapshot.

All mutation is guarded by a per-registry lock, so concurrent
increments from ThreadingHTTPServer handler threads and decode
drivers are safe and exact.
"""

from __future__ import annotations

import bisect
import json
import re
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "DEFAULT_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# Seconds-oriented default buckets (Prometheus-style, truncated).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: str = "") -> str:
    parts = ['%s="%s"' % (k, _escape_label_value(v)) for k, v in key]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Base: named metric owning labeled series under the registry lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.RLock) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        self.name = name
        self.help = help
        self._lock = lock
        self._series: Dict[LabelKey, object] = {}

    def _check_labels(self, labels: Dict[str, object]) -> None:
        for k in labels:
            if not _LABEL_RE.match(k):
                raise ValueError(f"invalid label name: {k!r}")

    def _series_key(self, labels: Dict[str, object]) -> LabelKey:
        """Label key for a write; validates names on first appearance
        only, so steady-state increments skip the regex."""
        key = _label_key(labels)
        if key not in self._series:
            self._check_labels(labels)
        return key

    # Exporter hooks -------------------------------------------------
    def expositions(self) -> List[str]:  # pragma: no cover - abstract
        raise NotImplementedError

    def snapshot_value(self) -> object:  # pragma: no cover - abstract
        raise NotImplementedError


class _Scalar(_Metric):
    """One float per labeled series (counters and gauges)."""

    def value(self, **labels: object) -> float:
        key = _label_key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))

    def total(self) -> float:
        """Sum across all labeled series."""
        with self._lock:
            return float(sum(self._series.values()))

    def expositions(self) -> List[str]:
        with self._lock:
            items = sorted(self._series.items())
        return [
            f"{self.name}{_render_labels(key)} {_format_value(val)}"
            for key, val in items
        ]

    def snapshot_value(self) -> object:
        with self._lock:
            items = sorted(self._series.items())
        if len(items) == 1 and items[0][0] == ():
            return items[0][1]
        return {json.dumps(dict(key)): val for key, val in items}


class Counter(_Scalar):
    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = self._series_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount


class Gauge(_Scalar):
    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = self._series_key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._series_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def set_max(self, value: float, **labels: object) -> None:
        """Keep the running maximum (e.g. peak batch occupancy)."""
        key = self._series_key(labels)
        with self._lock:
            if value > self._series.get(key, float("-inf")):
                self._series[key] = float(value)


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, nbuckets: int) -> None:
        self.counts = [0] * (nbuckets + 1)  # final slot = +Inf overflow
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.RLock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, lock)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if any(b != b for b in bounds):  # NaN guard
            raise ValueError("histogram buckets must be finite")
        if bounds and bounds[-1] == float("inf"):
            bounds = bounds[:-1]  # +Inf is implicit
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be distinct")
        self.buckets: Tuple[float, ...] = tuple(bounds)

    def observe(self, value: float, **labels: object) -> None:
        key = self._series_key(labels)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(len(self.buckets))
                self._series[key] = series
            series.counts[idx] += 1
            series.sum += value
            series.count += 1

    def time(self, **labels: object) -> "_HistogramTimer":
        """Context manager observing elapsed wall-clock seconds."""
        return _HistogramTimer(self, labels)

    def _get(self, labels: Dict[str, object]) -> Optional[_HistogramSeries]:
        key = _label_key(labels)
        with self._lock:
            return self._series.get(key)

    def count(self, **labels: object) -> int:
        series = self._get(labels)
        return series.count if series is not None else 0

    def sum(self, **labels: object) -> float:
        series = self._get(labels)
        return series.sum if series is not None else 0.0

    def percentile(self, p: float, **labels: object) -> float:
        """Estimate the p-th percentile (0..100) from bucket counts.

        Linear interpolation inside the winning bucket; the overflow
        bucket reports its lower bound (the largest finite boundary).
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        series = self._get(labels)
        if series is None or series.count == 0:
            return 0.0
        with self._lock:
            counts = list(series.counts)
            total = series.count
        rank = (p / 100.0) * total
        cumulative = 0
        for idx, c in enumerate(counts):
            if c == 0:
                continue
            prev_cum = cumulative
            cumulative += c
            if cumulative >= rank:
                if idx >= len(self.buckets):
                    return self.buckets[-1]
                hi = self.buckets[idx]
                lo = self.buckets[idx - 1] if idx > 0 else 0.0
                if c == 0:
                    return hi
                frac = (rank - prev_cum) / c
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
        return self.buckets[-1]

    def expositions(self) -> List[str]:
        with self._lock:
            items = [
                (key, list(s.counts), s.sum, s.count)
                for key, s in sorted(self._series.items())
            ]
        lines: List[str] = []
        for key, counts, total_sum, count in items:
            cumulative = 0
            for idx, bound in enumerate(self.buckets):
                cumulative += counts[idx]
                le = f'le="{_format_value(bound)}"'
                lines.append(
                    f"{self.name}_bucket{_render_labels(key, le)} {cumulative}"
                )
            cumulative += counts[-1]
            inf_le = 'le="+Inf"'
            lines.append(
                f"{self.name}_bucket{_render_labels(key, inf_le)} {cumulative}"
            )
            lines.append(
                f"{self.name}_sum{_render_labels(key)} {_format_value(total_sum)}"
            )
            lines.append(f"{self.name}_count{_render_labels(key)} {count}")
        return lines

    def snapshot_value(self) -> object:
        with self._lock:
            items = [
                (key, list(s.counts), s.sum, s.count)
                for key, s in sorted(self._series.items())
            ]
        out = {}
        for key, counts, total_sum, count in items:
            entry = {
                "count": count,
                "sum": total_sum,
                "buckets": {
                    _format_value(b): c for b, c in zip(self.buckets, counts)
                },
                "overflow": counts[-1],
                "p50": self.percentile(50, **dict(key)),
                "p90": self.percentile(90, **dict(key)),
                "p99": self.percentile(99, **dict(key)),
            }
            out[json.dumps(dict(key))] = entry
        if len(out) == 1 and json.dumps({}) in out:
            return out[json.dumps({})]
        return out


class _HistogramTimer:
    __slots__ = ("_hist", "_labels", "_start")

    def __init__(self, hist: Histogram, labels: Dict[str, object]) -> None:
        self._hist = hist
        self._labels = labels

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._hist.observe(time.perf_counter() - self._start, **self._labels)


class MetricsRegistry:
    """Get-or-create registry of named metrics, safe for concurrent use."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, name: str, factory: Callable[[], _Metric], kind: str):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, help, self._lock), "counter"
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(
            name, lambda: Gauge(name, help, self._lock), "gauge"
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, self._lock, buckets), "histogram"
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    # Exporters ------------------------------------------------------
    def render_prometheus(self) -> str:
        with self._lock:
            metrics = [self._metrics[n] for n in sorted(self._metrics)]
        lines: List[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.expositions())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            metrics = [self._metrics[n] for n in sorted(self._metrics)]
        out: Dict[str, object] = {}
        for metric in metrics:
            out[metric.name] = {
                "kind": metric.kind,
                "value": metric.snapshot_value(),
            }
        return out


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY
