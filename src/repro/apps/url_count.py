"""Windowed URL Count — the paper's first evaluation application.

Topology::

    urls (spout) --shuffle--> parse --DYNAMIC--> count --global--> aggregate

* ``urls`` emits Zipf-skewed click events at a time-varying rate;
* ``parse`` normalises the URL (domain extraction) — cheap per tuple;
* ``count`` maintains per-partition sliding-window hit counts — this is
  the heavy, stateful stage the controller protects, so it is fed by the
  *dynamic grouping* (any task may count any URL; partial counts merge
  downstream).  For the plain-Storm baseline, pass
  ``grouping="shuffle"``;
* ``aggregate`` merges partial counts into the live global top-k.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import List, Optional, Tuple

from repro.apps.workload import RateProfile, ZipfUrlGenerator, require_positive
from repro.storm.api import Bolt, Emission, OutputCollector, Spout, TopologyContext
from repro.storm.topology import Topology, TopologyBuilder, TopologyConfig
from repro.storm.tuples import Tuple as StormTuple


class UrlSpout(Spout):
    """Emits ``(user, url)`` click events, rate-driven by a profile."""

    outputs = {"default": ("user", "url")}

    def __init__(
        self,
        profile: Optional[RateProfile] = None,
        n_urls: int = 2000,
        n_users: int = 500,
        skew: float = 1.1,
    ) -> None:
        self.profile = profile or RateProfile(base=100.0)
        self.n_urls = n_urls
        self.n_users = n_users
        self.skew = skew
        self._seq = 0

    def open(self, context: TopologyContext) -> None:
        self.ctx = context
        self.gen = ZipfUrlGenerator(
            context.rng, n_urls=self.n_urls, n_users=self.n_users, skew=self.skew
        )

    def inter_arrival(self) -> float:
        rate = self.profile.rate(self.ctx.now()) / self.ctx.parallelism
        return float(self.ctx.rng.exponential(1.0 / rate))

    def next_tuple(self) -> Emission:
        self._seq += 1
        user, url = self.gen.next_event()
        return Emission(values=(user, url), msg_id=(self.ctx.task_id, self._seq))


class ParseBolt(Bolt):
    """Extracts the domain from the raw URL (cheap normalisation step)."""

    outputs = {"default": ("user", "domain", "url")}
    default_cpu_cost = 0.3e-3

    def execute(self, tup: StormTuple, collector: OutputCollector) -> None:
        url = tup.value("url")
        # http://site-123.example/page -> site-123.example
        domain = url.split("//", 1)[-1].split("/", 1)[0]
        collector.emit((tup.value("user"), domain, url), anchors=[tup])

    def cpu_cost(self, tup: StormTuple) -> float:
        # Cost scales weakly with URL length (string scanning).
        return self.default_cpu_cost * (1.0 + len(tup.value("url")) / 256.0)


class WindowedCountBolt(Bolt):
    """Sliding-window per-URL hit counting — the heavy stateful stage.

    Keeps ``(arrival_time, url)`` events for ``window_seconds``; every tick
    it evicts expired events and emits its current partial counts for the
    top ``emit_top`` URLs on the ``counts`` stream (unanchored: the
    aggregate view is refreshed every tick, so per-tuple replay of count
    deltas is unnecessary — standard practice for windowed roll-ups).
    """

    outputs = {"default": (), "counts": ("url", "count")}
    default_cpu_cost = 2.0e-3

    def __init__(
        self,
        window_seconds: float = 30.0,
        emit_top: int = 20,
        cpu_cost: Optional[float] = None,
    ) -> None:
        require_positive("window_seconds", window_seconds)
        self.window_seconds = window_seconds
        self.emit_top = emit_top
        if cpu_cost is not None:
            require_positive("cpu_cost", cpu_cost)
            self.default_cpu_cost = cpu_cost
        self._events: deque = deque()
        self._counts: Counter = Counter()

    def prepare(self, context: TopologyContext) -> None:
        self.ctx = context

    def execute(self, tup: StormTuple, collector: OutputCollector) -> None:
        url = tup.value("url")
        now = self.ctx.now()
        self._events.append((now, url))
        self._counts[url] += 1
        self._evict(now)

    def cpu_cost(self, tup: StormTuple) -> float:
        # Window maintenance cost grows with resident state.
        return self.default_cpu_cost * (1.0 + len(self._events) / 20000.0)

    def tick(self, now: float, collector: OutputCollector) -> None:
        self._evict(now)
        for url, count in self._counts.most_common(self.emit_top):
            collector.emit((url, count), stream="counts")

    def _evict(self, now: float) -> None:
        horizon = now - self.window_seconds
        events = self._events
        counts = self._counts
        while events and events[0][0] < horizon:
            _, url = events.popleft()
            remaining = counts[url] - 1
            if remaining:
                counts[url] = remaining
            else:
                del counts[url]

    @property
    def window_population(self) -> int:
        return len(self._events)


class AggregateBolt(Bolt):
    """Merges partial counts from all count tasks into a global top-k."""

    outputs = {"default": ()}
    default_cpu_cost = 0.2e-3

    def __init__(self, top_k: int = 10) -> None:
        self.top_k = top_k
        #: (count_task, url) -> partial count; partials from the same task
        #: overwrite each other, so the merged view tracks the window.
        self._partials: dict = {}

    def execute(self, tup: StormTuple, collector: OutputCollector) -> None:
        self._partials[(tup.source_task, tup.value("url"))] = tup.value("count")

    def top(self) -> List[Tuple[str, int]]:
        """Current global top-k ``(url, total_count)``."""
        merged: Counter = Counter()
        for (_task, url), count in self._partials.items():
            merged[url] += count
        return merged.most_common(self.top_k)


def build_url_count_topology(
    profile: Optional[RateProfile] = None,
    parse_parallelism: int = 4,
    count_parallelism: int = 6,
    spout_parallelism: int = 2,
    grouping: str = "dynamic",
    window_seconds: float = 30.0,
    config: Optional[TopologyConfig] = None,
    n_urls: int = 2000,
    skew: float = 1.1,
    count_cpu_cost: Optional[float] = None,
) -> Topology:
    """Assemble the Windowed URL Count topology.

    ``grouping`` selects how ``parse`` feeds ``count``: ``"dynamic"`` (the
    framework's actuated edge), ``"shuffle"`` (the plain-Storm baseline),
    or ``"fields"`` (key-partitioned counting, for comparison).
    """
    if config is None:
        config = TopologyConfig(num_workers=6, tick_interval=1.0)
    elif config.tick_interval <= 0:
        raise ValueError("URL Count needs tick_interval > 0 to flush windows")
    builder = TopologyBuilder()
    builder.set_spout(
        "urls",
        UrlSpout(profile=profile, n_urls=n_urls, skew=skew),
        parallelism=spout_parallelism,
    )
    builder.set_bolt(
        "parse", ParseBolt(), parallelism=parse_parallelism
    ).shuffle_grouping("urls")
    count_spec = builder.set_bolt(
        "count",
        WindowedCountBolt(window_seconds=window_seconds, cpu_cost=count_cpu_cost),
        parallelism=count_parallelism,
    )
    if grouping == "dynamic":
        count_spec.dynamic_grouping("parse")
    elif grouping == "shuffle":
        count_spec.shuffle_grouping("parse")
    elif grouping == "fields":
        count_spec.fields_grouping("parse", ["url"])
    else:
        raise ValueError(f"unsupported grouping {grouping!r}")
    builder.set_bolt("aggregate", AggregateBolt(), parallelism=1).global_grouping(
        "count", stream="counts"
    )
    return builder.build("url-count", config)
