"""A dependency-free metrics registry: counters, gauges, histograms.

The registry is the numeric half of :mod:`repro.obs` (spans are the
timing half). Metrics are identified by a dotted name plus optional
labels (``registry.counter("repro.chaos.faults", surface="feed",
kind="drop")``); histograms use fixed, explicit bucket bounds with
``value <= bound`` (Prometheus ``le``) semantics.

Two exposition formats:

- :meth:`MetricsRegistry.snapshot` — a JSON-serializable dict (the
  ``metrics`` half of the ``repro.obs/v2`` snapshot schema);
- :meth:`MetricsRegistry.render_prometheus` — Prometheus text format
  (``# TYPE`` lines, cumulative ``_bucket{le=...}`` series).

The default registry in the pipeline is :data:`NULL_REGISTRY`: every
metric object it hands out is a shared no-op, so instrumented code pays
one no-op method call when telemetry is off and the study's outputs are
byte-identical either way. Nothing here touches a random stream.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "BufferedRegistry",
    "buffered",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS_MS",
    "QUERY_BUCKETS_MS",
]

#: Default histogram bounds (milliseconds): spans DNS RTTs from LAN-fast
#: to multi-second timeouts.
DEFAULT_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0)

#: Histogram bounds (milliseconds) for serve-layer query latencies:
#: finer at the sub-millisecond end, where warm cache-backed queries
#: live, than the DNS-RTT default.
QUERY_BUCKETS_MS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0)

#: (sorted label items) — the second half of a metric's identity key.
Labels = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def metric_key(name: str, labels: Labels) -> str:
    """The flat string identity used in snapshots: ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (>= 0) to the counter."""
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` to the gauge."""
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        """Subtract ``n`` from the gauge."""
        self.value -= n


class Histogram:
    """A fixed-bucket histogram with ``value <= bound`` bucket edges.

    ``bucket_counts`` has one slot per bound plus a final overflow slot
    (the Prometheus ``+Inf`` bucket); counts are per-bucket internally
    and cumulated only at exposition time.

    NaN observations land nowhere sensible in a ``<=``-edged bucket
    scheme (``bisect`` would silently file them in the first bucket and
    poison ``sum``), so they are tallied on their own ``nan`` counter —
    same policy as :class:`repro.util.stats.Histogram` — and excluded
    from ``count`` / ``sum`` / the buckets.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum",
                 "nan")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS_MS,
                 labels: Labels = ()):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.nan = 0

    def observe(self, value: float) -> None:
        """Record one observation (NaN goes to the ``nan`` tally)."""
        if value != value:
            self.nan += 1
            return
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def add_counts(self, bucket_counts: Sequence[int], total_sum: float,
                   nan: int = 0) -> None:
        """Bulk-merge pre-bucketed counts (e.g. the crawl's RTT histogram).

        ``bucket_counts`` must match this histogram's layout (one slot
        per bound plus overflow).
        """
        if len(bucket_counts) != len(self.bucket_counts):
            raise ValueError(
                f"bucket layout mismatch: {len(bucket_counts)} != "
                f"{len(self.bucket_counts)}")
        if nan < 0:
            raise ValueError("nan count must be non-negative")
        for i, n in enumerate(bucket_counts):
            if n < 0:
                raise ValueError("bucket counts must be non-negative")
            self.bucket_counts[i] += n
        self.count += sum(bucket_counts)
        self.sum += total_sum
        self.nan += nan


class MetricsRegistry:
    """Get-or-create home of every metric in a run."""

    #: Null registries flip this off; instrumented code may branch on it
    #: to skip whole collection blocks (e.g. the crawl hot loop).
    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, Labels], Counter] = {}
        self._gauges: Dict[Tuple[str, Labels], Gauge] = {}
        self._histograms: Dict[Tuple[str, Labels], Histogram] = {}
        #: name -> kind, so one name never spans metric types.
        self._kinds: Dict[str, str] = {}

    # -- get-or-create --------------------------------------------------------

    def _check_kind(self, name: str, kind: str) -> None:
        seen = self._kinds.setdefault(name, kind)
        if seen != kind:
            raise ValueError(f"metric {name!r} already registered as {seen}")

    def counter(self, name: str, **labels) -> Counter:
        """The counter named ``name`` with ``labels`` (created on first use)."""
        self._check_kind(name, "counter")
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(name, key[1])
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge named ``name`` with ``labels`` (created on first use)."""
        self._check_kind(name, "gauge")
        key = (name, _label_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge(name, key[1])
        return metric

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None,
                  **labels) -> Histogram:
        """The histogram named ``name`` (created with ``buckets`` bounds).

        Re-requesting an existing histogram with different bounds is an
        error — bucket layouts are part of the metric's contract.
        """
        self._check_kind(name, "histogram")
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(
                name, buckets if buckets is not None else DEFAULT_BUCKETS_MS,
                key[1])
        elif buckets is not None and tuple(float(b) for b in buckets) \
                != metric.bounds:
            raise ValueError(f"histogram {name!r} already registered with "
                             f"bounds {metric.bounds}")
        return metric

    # -- exposition -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """All metrics as a JSON-serializable dict (stable key order)."""
        return {
            "counters": {metric_key(c.name, c.labels): c.value
                         for _, c in sorted(self._counters.items())},
            "gauges": {metric_key(g.name, g.labels): g.value
                       for _, g in sorted(self._gauges.items())},
            "histograms": {
                metric_key(h.name, h.labels): {
                    "bounds": list(h.bounds),
                    "counts": list(h.bucket_counts),
                    "count": h.count,
                    "sum": h.sum,
                    "nan": h.nan,
                }
                for _, h in sorted(self._histograms.items())
            },
        }

    def flush(self) -> None:
        """No-op on a plain registry: writes are applied immediately.

        :class:`BufferedRegistry` overrides this to fold its staged
        increments into the target, so code holding either kind can
        call ``flush()`` unconditionally at its commit points.
        """

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every metric."""
        lines: List[str] = []
        emitted_type = set()

        def emit_type(name: str, kind: str) -> str:
            sane = _sanitize(name)
            if sane not in emitted_type:
                emitted_type.add(sane)
                lines.append(f"# TYPE {sane} {kind}")
            return sane

        for _, c in sorted(self._counters.items()):
            sane = emit_type(c.name, "counter")
            lines.append(f"{sane}{_render_labels(c.labels)} {c.value}")
        for _, g in sorted(self._gauges.items()):
            sane = emit_type(g.name, "gauge")
            lines.append(f"{sane}{_render_labels(g.labels)} {_fmt(g.value)}")
        for _, h in sorted(self._histograms.items()):
            sane = emit_type(h.name, "histogram")
            cumulative = 0
            for bound, n in zip(h.bounds, h.bucket_counts):
                cumulative += n
                labels = h.labels + (("le", _fmt(bound)),)
                lines.append(
                    f"{sane}_bucket{_render_labels(labels)} {cumulative}")
            labels = h.labels + (("le", "+Inf"),)
            lines.append(f"{sane}_bucket{_render_labels(labels)} {h.count}")
            lines.append(f"{sane}_sum{_render_labels(h.labels)} {_fmt(h.sum)}")
            lines.append(f"{sane}_count{_render_labels(h.labels)} {h.count}")
            if h.nan:
                lines.append(
                    f"{sane}_nan{_render_labels(h.labels)} {h.nan}")
        return "\n".join(lines) + ("\n" if lines else "")


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "_:" else "_" for ch in name)


def _sanitize_label(name: str) -> str:
    # Prometheus label names allow [a-zA-Z_][a-zA-Z0-9_]* — no colons,
    # unlike metric names.
    sane = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if sane[:1].isdigit():
        sane = "_" + sane
    return sane


def _fmt(value: float) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _render_labels(labels: Iterable[Tuple[str, str]]) -> str:
    # Sanitizing label names can collide (`a.b` and `a-b` both become
    # `a_b`); duplicates get a deterministic positional suffix rather
    # than silently overwriting one another's series.
    seen: Dict[str, int] = {}
    items = []
    for k, v in labels:
        sane = _sanitize_label(k)
        n = seen.get(sane, 0) + 1
        seen[sane] = n
        if n > 1:
            sane = f"{sane}_{n}"
        items.append(f'{sane}="{_escape(v)}"')
    return "{" + ",".join(items) + "}" if items else ""


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


# ---------------------------------------------------------------------------
# Buffered (checkpoint-deduplicated) variant
# ---------------------------------------------------------------------------


class _BufferedGauge(Gauge):
    __slots__ = ("touched",)

    def __init__(self, name: str, labels: Labels = ()):
        super().__init__(name, labels)
        self.touched = False

    def set(self, value: float) -> None:
        self.value = value
        self.touched = True

    def inc(self, n: float = 1.0) -> None:
        self.value += n
        self.touched = True

    def dec(self, n: float = 1.0) -> None:
        self.value -= n
        self.touched = True


class BufferedRegistry(MetricsRegistry):
    """A staging registry whose updates only land on ``flush()``.

    The reactive platform's exactly-once metric dedupe: a
    :class:`~repro.reactive.service.CampaignWorker` records its live
    counters/gauges/histograms into one of these, and folds the staged
    increments into the service registry at its tick-checkpoint
    boundary — the same instant its stream offsets and scheduler state
    commit. A chaos kill between checkpoints drops the worker object
    and its unflushed increments with it, so the restored worker's
    replay re-records the rolled-back work exactly once instead of
    double-counting it.

    ``flush()`` resets the staged metrics *in place* (values zeroed,
    objects kept) because callers hold bound references to them — the
    scheduler binds its counters once at construction.
    """

    def __init__(self, target: MetricsRegistry):
        super().__init__()
        self.target = target

    def gauge(self, name: str, **labels) -> Gauge:
        """The staged gauge named ``name`` (created on first use)."""
        self._check_kind(name, "gauge")
        key = (name, _label_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = _BufferedGauge(name, key[1])
        return metric

    def flush(self) -> None:
        """Fold every staged update into the target, then reset staging."""
        for (name, labels), c in sorted(self._counters.items()):
            if c.value:
                self.target.counter(name, **dict(labels)).inc(c.value)
                c.value = 0
        for (name, labels), g in sorted(self._gauges.items()):
            if g.touched:  # type: ignore[attr-defined]
                self.target.gauge(name, **dict(labels)).set(g.value)
                g.touched = False  # type: ignore[attr-defined]
        for (name, labels), h in sorted(self._histograms.items()):
            if h.count or h.nan:
                self.target.histogram(
                    name, buckets=h.bounds,
                    **dict(labels)).add_counts(h.bucket_counts, h.sum,
                                               nan=h.nan)
                for i in range(len(h.bucket_counts)):
                    h.bucket_counts[i] = 0
                h.count = 0
                h.sum = 0.0
                h.nan = 0

    def discard(self) -> None:
        """Drop every staged update without applying it."""
        for _, c in self._counters.items():
            c.value = 0
        for _, g in self._gauges.items():
            g.value = 0.0
            g.touched = False  # type: ignore[attr-defined]
        for _, h in self._histograms.items():
            for i in range(len(h.bucket_counts)):
                h.bucket_counts[i] = 0
            h.count = 0
            h.sum = 0.0
            h.nan = 0


def buffered(target: MetricsRegistry) -> MetricsRegistry:
    """A :class:`BufferedRegistry` over ``target``, or ``target`` itself
    when disabled (buffering no-ops costs more than it saves)."""
    return BufferedRegistry(target) if target.enabled else target


# ---------------------------------------------------------------------------
# Null (disabled) variants
# ---------------------------------------------------------------------------


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, n: float = 1.0) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def add_counts(self, bucket_counts: Sequence[int], total_sum: float,
                   nan: int = 0) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The default, disabled registry: hands out shared no-op metrics.

    Every accessor returns the same inert object, so instrumentation
    points cost one no-op call and allocate nothing when telemetry is
    off; :meth:`snapshot` is empty and exposition renders nothing.
    """

    enabled = False

    _COUNTER = _NullCounter("null")
    _GAUGE = _NullGauge("null")
    _HISTOGRAM = _NullHistogram("null")

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, **labels) -> Counter:
        """The shared no-op counter."""
        return self._COUNTER

    def gauge(self, name: str, **labels) -> Gauge:
        """The shared no-op gauge."""
        return self._GAUGE

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None,
                  **labels) -> Histogram:
        """The shared no-op histogram."""
        return self._HISTOGRAM


#: The process-wide disabled registry (stateless, safe to share).
NULL_REGISTRY = NullRegistry()
