"""Unified observability: metrics registry + span tracing.

Two stdlib-only pillars shared by every layer of the stack:

* :mod:`repro.obs.metrics` — thread-safe counters / gauges /
  histograms with labels, a process-wide default registry plus
  injectable instances, Prometheus text exposition, and merge-updated
  JSON snapshots.
* :mod:`repro.obs.trace` — ``span(name, **attrs)`` context managers
  emitting Chrome trace-event JSONL (Perfetto / chrome://tracing),
  enabled via ``REPRO_TRACE=<path>`` or ``repro --trace <path>``; a
  strict no-op when disabled.

Instrumentation is wired through ``Trainer.fit`` (its per-epoch and
per-fit ``train_*`` series), the Runner artifact cache, the walk
engines, ``run_sweep``'s per-attempt outcomes, and the serve daemon
(``GET /metrics``).  It never touches RNG streams: fitted artifacts are
byte-identical with tracing on or off.
"""

from . import metrics, trace
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, get_registry
from .trace import span

__all__ = [
    "metrics",
    "trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "span",
]
