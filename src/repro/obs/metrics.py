"""Pull-based streaming metrics: counters, gauges, log-bucket histograms.

The registry is the quantitative sibling of the event tracer: where the
tracer keeps *individual* events in a bounded ring, the registry keeps
*aggregates* with constant memory per metric, so arbitrarily long runs
stay summarisable.  It follows the same zero-cost-when-disabled contract
as the rest of :mod:`repro.obs` — every instrumented site holds either a
concrete metric object or ``None``, resolved once at wiring time::

    hist = self._m_service  # LogHistogram or None
    if hist is not None:
        hist.add(service)

A fact the simulator already counts in a plain attribute (acks, fails,
transport sends and losses, replays, bolt executes) is not counted a
second time: the runner registers a *pull* counter or gauge whose
callback reads the attribute at collection time, which is what makes the
registry pull-based — nothing is sampled until someone asks.

Three instrument kinds:

* :class:`Counter` — monotonically increasing count; pushed with ``inc``
  (controller decisions, reroutes) or pulled through a callback.
* :class:`Gauge` — point-in-time value, set or pulled (DES heap depth,
  scheduled-event count).
* :class:`LogHistogram` — mergeable streaming histogram over
  geometrically spaced buckets.  Constant memory (one int per occupied
  bucket, bucket count bounded by the value range, not the sample
  count), deterministic quantile estimates (pure bucket arithmetic, no
  sampling), and closed under merge/diff — two histograms with the same
  ``alpha`` add and subtract bucket-wise, which gives windowed quantiles
  from cumulative state for free.

Determinism: every aggregate here is a pure function of the recorded
values, so a seeded simulation produces bit-identical registry dumps.
The only exception is a metric created with ``deterministic=False``
(e.g. wall-clock control-step latency); those are excluded from
:meth:`MetricsRegistry.to_dict` unless explicitly requested, keeping the
run-report byte-stable.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "COMPLETE_LATENCY_METRIC",
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
]

#: Canonical name of the acker's complete-latency histogram — shared by
#: the recording site (acker), the SLO engine's windowed latency rules,
#: and the runner's per-segment histogram diff.
COMPLETE_LATENCY_METRIC = "tuple.complete_latency_seconds"

#: Relative accuracy of histogram buckets: bucket boundaries grow by
#: ``gamma = (1 + alpha) / (1 - alpha)`` per bucket, so any estimate is
#: within ``alpha`` relative error of its bucket's true samples.
DEFAULT_ALPHA = 0.05

#: Values at or below this magnitude land in the dedicated zero bucket.
MIN_TRACKABLE = 1e-9


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic counter; ``fn`` makes it a pull counter over a count
    kept elsewhere.  ``inc`` is the hot path: one add."""

    __slots__ = ("name", "labels", "_count", "fn")

    def __init__(
        self,
        name: str,
        labels: Dict[str, Any],
        fn: Optional[Callable[[], int]] = None,
    ) -> None:
        self.name = name
        self.labels = dict(labels)
        self._count = 0
        self.fn = fn

    def inc(self, amount: int = 1) -> None:
        self._count += amount

    @property
    def value(self) -> int:
        """Current count — evaluates the callback for pull counters."""
        return self._count if self.fn is None else self.fn()

    def __repr__(self) -> str:
        return f"<Counter {self.name}{self.labels or ''} value={self.value}>"


class Gauge:
    """Point-in-time value; ``fn`` makes it a pull gauge."""

    __slots__ = ("name", "labels", "value", "fn")

    def __init__(
        self,
        name: str,
        labels: Dict[str, Any],
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        self.value = float(value)

    def read(self) -> float:
        """Current value — evaluates the callback for pull gauges."""
        if self.fn is not None:
            return float(self.fn())
        return self.value

    def __repr__(self) -> str:
        kind = "pull" if self.fn is not None else "set"
        return f"<Gauge {self.name}{self.labels or ''} ({kind})>"


class LogHistogram:
    """Mergeable log-bucket streaming histogram (DDSketch-style).

    Positive values map to bucket ``ceil(log(v) / log(gamma))``; each
    bucket spans ``(gamma**(i-1), gamma**i]``, so consecutive boundaries
    differ by the relative accuracy ``alpha``.  Counts live in a dict
    keyed by bucket index — memory is bounded by the dynamic range of
    the data (a few hundred buckets for seconds-scale latencies), never
    by the number of samples.

    Quantiles are deterministic bucket arithmetic: ``quantile(q)`` walks
    the sorted buckets to the sample of (zero-based) rank
    ``ceil((n - 1) * q)`` — the same sample ``numpy.quantile(...,
    method="higher")`` returns — and reports its bucket's geometric
    midpoint.  The true sample provably lies inside that bucket, so the
    estimate is within one bucket width (relative error ``alpha``) of
    the exact order statistic; :meth:`quantile_bounds` exposes the
    enclosing bucket for tests of exactly that contract.
    """

    __slots__ = ("name", "labels", "alpha", "_gamma", "_log_gamma",
                 "buckets", "zero_count", "count", "sum", "min", "max")

    def __init__(
        self,
        name: str = "",
        labels: Optional[Dict[str, Any]] = None,
        alpha: float = DEFAULT_ALPHA,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.name = name
        self.labels = dict(labels or {})
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self.buckets: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording (the hot path) ---------------------------------------------------

    def add(self, value: float) -> None:
        """Record one observation (negatives clamp into the zero bucket)."""
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= MIN_TRACKABLE:
            self.zero_count += 1
            return
        idx = math.ceil(math.log(value) / self._log_gamma)
        b = self.buckets
        b[idx] = b.get(idx, 0) + 1

    # -- bucket geometry ------------------------------------------------------------

    def bucket_bounds(self, idx: int) -> Tuple[float, float]:
        """``(lower, upper]`` value bounds of bucket ``idx``."""
        return (self._gamma ** (idx - 1), self._gamma ** idx)

    def _bucket_value(self, idx: int) -> float:
        lo, hi = self.bucket_bounds(idx)
        return (lo + hi) / 2.0

    # -- quantiles ------------------------------------------------------------------

    def _rank_bucket(self, q: float) -> Optional[int]:
        """Bucket index holding the rank-``ceil((n-1)q)`` sample.

        Returns ``None`` for the zero bucket (estimate 0.0).
        """
        if self.count == 0:
            raise ValueError("quantile of an empty histogram")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = math.ceil((self.count - 1) * q)  # zero-based target rank
        if rank < self.zero_count:
            return None
        seen = self.zero_count
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen > rank:
                return idx
        return max(self.buckets)  # numerical safety; unreachable

    def quantile(self, q: float) -> float:
        """Deterministic quantile estimate (bucket geometric midpoint)."""
        idx = self._rank_bucket(q)
        return 0.0 if idx is None else self._bucket_value(idx)

    def quantile_bounds(self, q: float) -> Tuple[float, float]:
        """Bounds of the bucket containing the exact rank sample."""
        idx = self._rank_bucket(q)
        return (0.0, MIN_TRACKABLE) if idx is None else self.bucket_bounds(idx)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    # -- merge / diff (the mergeability contract) -----------------------------------

    def _check_mergeable(self, other: "LogHistogram") -> None:
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot combine histograms with alpha {self.alpha} "
                f"and {other.alpha}"
            )

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Add ``other``'s counts into this histogram (in place)."""
        self._check_mergeable(other)
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def copy(self) -> "LogHistogram":
        out = LogHistogram(self.name, self.labels, alpha=self.alpha)
        out.buckets = dict(self.buckets)
        out.zero_count = self.zero_count
        out.count = self.count
        out.sum = self.sum
        out.min = self.min
        out.max = self.max
        return out

    def diff(self, earlier: "LogHistogram") -> "LogHistogram":
        """Counts recorded since ``earlier`` (a prior :meth:`copy`).

        This is what makes *windowed* quantiles cheap on cumulative
        state: ``hist.diff(snapshot_at_window_start)``.  min/max are not
        invertible, so the diff reports the bucket-derived range of the
        surviving counts instead.
        """
        self._check_mergeable(earlier)
        out = LogHistogram(self.name, self.labels, alpha=self.alpha)
        for idx, n in self.buckets.items():
            d = n - earlier.buckets.get(idx, 0)
            if d < 0:
                raise ValueError("diff against a histogram that is not a prefix")
            if d:
                out.buckets[idx] = d
        out.zero_count = self.zero_count - earlier.zero_count
        out.count = self.count - earlier.count
        out.sum = self.sum - earlier.sum
        if out.zero_count < 0 or out.count < 0:
            raise ValueError("diff against a histogram that is not a prefix")
        if out.buckets:
            out.min = out.bucket_bounds(min(out.buckets))[0]
            out.max = out.bucket_bounds(max(out.buckets))[1]
        if out.zero_count:
            out.min = 0.0
            out.max = max(out.max, 0.0)
        return out

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "zero_count": self.zero_count,
            "alpha": self.alpha,
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
            for q in (0.5, 0.9, 0.99):
                out[f"p{int(q * 100)}"] = self.quantile(q)
        return out

    def __repr__(self) -> str:
        return (
            f"<LogHistogram {self.name}{self.labels or ''} count={self.count}"
            f" buckets={len(self.buckets)}>"
        )


class MetricsRegistry:
    """Get-or-create registry of named, labelled metrics.

    Instrument resolution (``counter`` / ``gauge`` / ``histogram`` /
    ``register_pull``) happens at wiring time — once per executor or
    subsystem — never on the hot path; the returned objects are held
    directly by the instrumented sites.  Collection is pull-based:
    :meth:`collect`, :meth:`to_dict`, and :meth:`render_prometheus` walk
    the registry on demand in deterministic (sorted) order.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Any] = {}
        #: metric names whose values are not reproducible under a fixed
        #: seed (wall-clock timings); excluded from deterministic dumps
        self._nondeterministic: set = set()

    # -- creation -------------------------------------------------------------------

    def _get_or_create(self, name: str, labels: Dict[str, Any], factory):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        return metric

    def counter(
        self, name: str, fn: Optional[Callable[[], int]] = None, **labels: Any
    ) -> Counter:
        """Get or create a counter; ``fn`` (used on creation only) makes
        it a pull counter evaluated lazily at collection time."""
        m = self._get_or_create(
            name, labels, lambda: Counter(name, labels, fn=fn)
        )
        if not isinstance(m, Counter):
            raise TypeError(f"{name} is already registered as {type(m).__name__}")
        return m

    def gauge(self, name: str, **labels: Any) -> Gauge:
        m = self._get_or_create(name, labels, lambda: Gauge(name, labels))
        if not isinstance(m, Gauge):
            raise TypeError(f"{name} is already registered as {type(m).__name__}")
        return m

    def histogram(
        self,
        name: str,
        alpha: float = DEFAULT_ALPHA,
        deterministic: bool = True,
        **labels: Any,
    ) -> LogHistogram:
        m = self._get_or_create(
            name, labels, lambda: LogHistogram(name, labels, alpha=alpha)
        )
        if not isinstance(m, LogHistogram):
            raise TypeError(f"{name} is already registered as {type(m).__name__}")
        if not deterministic:
            self._nondeterministic.add(name)
        return m

    def register_pull(
        self, name: str, fn: Callable[[], float], **labels: Any
    ) -> Gauge:
        """Register a gauge evaluated lazily at collection time."""
        m = self._get_or_create(name, labels, lambda: Gauge(name, labels, fn=fn))
        if not isinstance(m, Gauge):
            raise TypeError(f"{name} is already registered as {type(m).__name__}")
        return m

    def mark_nondeterministic(self, name: str) -> None:
        """Exclude ``name`` from deterministic dumps (wall-clock metrics)."""
        self._nondeterministic.add(name)

    # -- merge (shard aggregation) --------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s state into this registry (in place).

        Per ``(name, labels)`` slot: counters add, histograms merge
        bucket-wise, gauges add their current readings.  Pull metrics are
        materialised to plain values at merge time — a merged registry is
        a frozen aggregate, detached from any live simulation.  The
        operation is commutative and associative over any partition of
        the recorded observations (gauge *sums* included; histogram
        ``sum`` is float addition, so it is exact only up to float
        reassociation — quantiles, counts, and buckets are exact).
        """
        for key, theirs in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                name, labels = theirs.name, theirs.labels
                if isinstance(theirs, Counter):
                    mine = Counter(name, labels)
                elif isinstance(theirs, Gauge):
                    mine = Gauge(name, labels)
                elif isinstance(theirs, LogHistogram):
                    mine = LogHistogram(name, labels, alpha=theirs.alpha)
                else:  # pragma: no cover - registry only stores these
                    raise TypeError(f"unmergeable metric {type(theirs)}")
                self._metrics[key] = mine
            if type(mine) is not type(theirs):
                raise TypeError(
                    f"cannot merge {type(theirs).__name__} into "
                    f"{type(mine).__name__} at {key[0]}"
                )
            if isinstance(mine, Counter):
                mine._count = mine.value + theirs.value
                mine.fn = None
            elif isinstance(mine, Gauge):
                mine.value = mine.read() + theirs.read()
                mine.fn = None
            else:
                mine.merge(theirs)
        self._nondeterministic |= other._nondeterministic
        return self

    # -- lookup ---------------------------------------------------------------------

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """The metric registered under (name, labels), or ``None``."""
        return self._metrics.get((name, _label_key(labels)))

    def find(self, name: str) -> List[Any]:
        """Every labelling of ``name``, in deterministic label order."""
        return [
            m for (n, _lk), m in sorted(self._metrics.items())
            if n == name
        ]

    def __len__(self) -> int:
        return len(self._metrics)

    # -- collection -----------------------------------------------------------------

    def collect(
        self, include_nondeterministic: bool = True
    ) -> Iterable[Tuple[str, Dict[str, str], Any]]:
        """Yield ``(name, labels, metric)`` in sorted order."""
        for (name, label_key), metric in sorted(self._metrics.items()):
            if not include_nondeterministic and name in self._nondeterministic:
                continue
            yield name, dict(label_key), metric

    def to_dict(
        self, include_nondeterministic: bool = False
    ) -> Dict[str, Any]:
        """JSON-able dump, deterministic by default (see module docs)."""
        out: Dict[str, Any] = {}
        for name, labels, metric in self.collect(include_nondeterministic):
            key = name
            if labels:
                key += "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
            if isinstance(metric, Counter):
                out[key] = metric.value
            elif isinstance(metric, Gauge):
                out[key] = metric.read()
            else:
                out[key] = metric.to_dict()
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition (counters/gauges/histogram summaries).

        Histograms render as ``_count`` / ``_sum`` plus quantile gauges —
        the summary form, since log buckets do not map onto fixed
        ``le``-labelled boundaries.
        """
        lines: List[str] = []
        seen_types: set = set()

        def labelstr(labels: Dict[str, str], extra: str = "") -> str:
            parts = [f'{k}="{v}"' for k, v in sorted(labels.items())]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        for name, labels, metric in self.collect():
            pname = name.replace(".", "_")
            if isinstance(metric, Counter):
                if pname not in seen_types:
                    lines.append(f"# TYPE {pname} counter")
                    seen_types.add(pname)
                lines.append(f"{pname}{labelstr(labels)} {metric.value}")
            elif isinstance(metric, Gauge):
                if pname not in seen_types:
                    lines.append(f"# TYPE {pname} gauge")
                    seen_types.add(pname)
                lines.append(f"{pname}{labelstr(labels)} {metric.read()}")
            else:
                if pname not in seen_types:
                    lines.append(f"# TYPE {pname} summary")
                    seen_types.add(pname)
                for q in (0.5, 0.9, 0.99):
                    val = metric.quantile(q) if metric.count else 0.0
                    qlabel = 'quantile="%s"' % q
                    lines.append(f"{pname}{labelstr(labels, qlabel)} {val}")
                lines.append(f"{pname}_sum{labelstr(labels)} {metric.sum}")
                lines.append(f"{pname}_count{labelstr(labels)} {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return f"<MetricsRegistry metrics={len(self._metrics)}>"
