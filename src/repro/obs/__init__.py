"""Zero-dependency observability: metrics, spans, invariant audits.

The pipeline runs in one process or sharded across several, with or
without fault injection, and until this package there was no way to
see inside any of it.  ``repro.obs`` provides:

- :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms in a process-local :class:`~repro.obs.metrics.MetricsRegistry`,
  with a struct-serde :class:`~repro.obs.metrics.RegistrySnapshot` so
  shard workers publish their registries over the shared-memory rings
  and the engine merges them at barriers.
- :mod:`repro.obs.trace` — a lightweight ``with span("rsu.detect")``
  API recording monotonic-clock durations into a bounded ring buffer.
- :mod:`repro.obs.audit` — cross-cutting conservation invariants
  (records in == detected + dead + unconsumed, warnings emitted ==
  delivered + orphaned + pending) checked against a finished scenario.
- :mod:`repro.obs.expo` — a Prometheus-style text exposition writer.

Instrumentation is **opt-in and observer-effect free**: every site
guards on :func:`repro.obs.metrics.active` (``None`` unless a scenario
ran with ``observability=True``), reads simulation state without
mutating it, and never touches an RNG stream — obs on vs off is
bit-identical, pinned by ``tests/test_obs/test_observer_effect.py``.
Per-record cost is kept off the hot path: everything records at
micro-batch or rarer granularity.
"""

from repro.obs.metrics import (
    MetricsRegistry,
    RegistrySnapshot,
    active,
    disable,
    enable,
)
from repro.obs.trace import SpanRecorder, active_recorder, span

__all__ = [
    "MetricsRegistry",
    "RegistrySnapshot",
    "SpanRecorder",
    "active",
    "active_recorder",
    "disable",
    "enable",
    "span",
]
