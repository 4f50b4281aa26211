"""Topology definition: components, streams, groupings, configuration.

Mirrors Storm's ``TopologyBuilder`` fluent API::

    builder = TopologyBuilder()
    builder.set_spout("urls", UrlSpout(rate=100), parallelism=2)
    builder.set_bolt("parse", ParseBolt(), parallelism=4).shuffle_grouping("urls")
    builder.set_bolt("count", CountBolt(), parallelism=6).dynamic_grouping("parse")
    topology = builder.build("url-count", TopologyConfig(num_workers=4))

A built :class:`Topology` is a static description; :mod:`repro.storm.cluster`
turns it into scheduled executors.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple as Tup

from repro.storm.api import Bolt, Component, Spout
from repro.storm.tuples import DEFAULT_STREAM


@dataclass
class TopologyConfig:
    """Runtime knobs, named after their Storm counterparts where one exists."""

    #: Worker processes requested for this topology (``topology.workers``).
    num_workers: int = 4
    #: Seconds before an un-acked spout tuple is failed
    #: (``topology.message.timeout.secs``).
    message_timeout: float = 30.0
    #: Max in-flight spout tuples per spout task
    #: (``topology.max.spout.pending``).
    max_spout_pending: int = 256
    #: Bounded executor input queue size
    #: (``topology.executor.receive.buffer.size``).
    executor_queue_capacity: int = 1024
    #: Replays before a message is dropped for good.
    max_replays: int = 3
    #: Tick period for windowed bolts; 0 disables ticks.
    tick_interval: float = 0.0
    #: One-way network latency between workers on different nodes (seconds).
    inter_node_latency: float = 0.8e-3
    #: One-way latency between workers on the same node (loopback).
    intra_node_latency: float = 0.1e-3
    #: Latency within one worker process (in-memory handoff).
    intra_worker_latency: float = 0.02e-3
    #: Multiplicative lognormal noise sigma on service times (0 = none).
    service_noise_sigma: float = 0.1
    #: Interval of the acker's timeout sweep.
    ack_sweep_interval: float = 1.0
    #: Receiver overflow policy: ``"buffer"`` queues excess deliveries in
    #: the transfer buffer (Storm's default back-pressure behaviour);
    #: ``"shed"`` drops tuples arriving at a full executor queue, failing
    #: their trees immediately (load-shedding deployments).
    overflow_policy: str = "buffer"

    def validate(self) -> None:
        if self.overflow_policy not in ("buffer", "shed"):
            raise ValueError(
                f"overflow_policy must be 'buffer' or 'shed', "
                f"got {self.overflow_policy!r}"
            )
        # Each rule is written as the valid range, so NaN (which compares
        # False against everything) fails it too, and ``inf`` as the open
        # upper end rejects infinities.  These values end up as counts,
        # event delays or service-time factors, where a bad one would
        # otherwise fail (or silently skew the run) in the middle of a
        # simulation.
        for name, least in (
            ("num_workers", 1),
            ("max_spout_pending", 1),
            ("executor_queue_capacity", 1),
            ("max_replays", 0),
            ("tick_interval", 0),
            ("inter_node_latency", 0),
            ("intra_node_latency", 0),
            ("intra_worker_latency", 0),
            ("service_noise_sigma", 0),
        ):
            value = getattr(self, name)
            if not least <= value < math.inf:
                raise ValueError(
                    f"{name} must be finite and >= {least}, got {value!r}"
                )
        for name in ("message_timeout", "ack_sweep_interval"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be finite and > 0, got {value!r}"
                )


@dataclass
class GroupingSpec:
    """A declared subscription: (source component, stream) -> strategy."""

    source: str
    stream: str
    strategy: str  # "shuffle" | "fields" | "global" | "dynamic"
    fields: Tup[str, ...] = ()
    initial_ratios: Optional[Tup[float, ...]] = None


class ComponentSpec:
    """Declaration of one component: prototype, parallelism, subscriptions."""

    def __init__(
        self,
        component_id: str,
        prototype: Component,
        parallelism: int,
        is_spout: bool,
    ) -> None:
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.component_id = component_id
        self.prototype = prototype
        self.parallelism = parallelism
        self.is_spout = is_spout
        self.groupings: List[GroupingSpec] = []

    # -- fluent grouping declarations (bolts only) ------------------------------

    def _add(self, spec: GroupingSpec) -> "ComponentSpec":
        if self.is_spout:
            raise ValueError(f"spout {self.component_id!r} cannot subscribe")
        self.groupings.append(spec)
        return self

    def shuffle_grouping(self, source: str, stream: str = DEFAULT_STREAM):
        return self._add(GroupingSpec(source, stream, "shuffle"))

    def fields_grouping(
        self, source: str, fields: Sequence[str], stream: str = DEFAULT_STREAM
    ):
        if not fields:
            raise ValueError("fields grouping requires at least one field")
        return self._add(
            GroupingSpec(source, stream, "fields", fields=tuple(fields))
        )

    def global_grouping(self, source: str, stream: str = DEFAULT_STREAM):
        return self._add(GroupingSpec(source, stream, "global"))

    def dynamic_grouping(
        self,
        source: str,
        stream: str = DEFAULT_STREAM,
        initial_ratios: Optional[Sequence[float]] = None,
    ):
        """Subscribe with the paper's dynamic grouping.

        ``initial_ratios`` (one weight per consumer task, need not be
        normalised) defaults to uniform; ratios can be changed at runtime
        through :meth:`Cluster.set_split_ratios`.
        """
        ratios = tuple(initial_ratios) if initial_ratios is not None else None
        if ratios is not None:
            if len(ratios) != self.parallelism:
                raise ValueError(
                    f"initial_ratios has {len(ratios)} entries but "
                    f"{self.component_id!r} has parallelism {self.parallelism}"
                )
            if any(r < 0 for r in ratios) or sum(ratios) <= 0:
                raise ValueError("ratios must be non-negative with positive sum")
        return self._add(
            GroupingSpec(source, stream, "dynamic", initial_ratios=ratios)
        )

    def __repr__(self) -> str:
        kind = "spout" if self.is_spout else "bolt"
        return (
            f"<ComponentSpec {kind} {self.component_id!r}"
            f" parallelism={self.parallelism}>"
        )


class Topology:
    """Immutable description of a stream-processing application."""

    def __init__(
        self, name: str, specs: Dict[str, ComponentSpec], config: TopologyConfig
    ) -> None:
        self.name = name
        self.specs = specs
        self.config = config
        #: task-id assignment: component -> list of global task ids
        self.task_ids: Dict[str, List[int]] = {}
        tid = 0
        for cid in sorted(specs):  # sorted => stable ids across runs
            spec = specs[cid]
            self.task_ids[cid] = list(range(tid, tid + spec.parallelism))
            tid += spec.parallelism
        self.num_tasks = tid
        self._validate()

    def _validate(self) -> None:
        self.config.validate()
        if not any(s.is_spout for s in self.specs.values()):
            raise ValueError(f"topology {self.name!r} has no spout")
        for spec in self.specs.values():
            for g in spec.groupings:
                if g.source not in self.specs:
                    raise ValueError(
                        f"{spec.component_id!r} subscribes to unknown "
                        f"component {g.source!r}"
                    )
                src = self.specs[g.source]
                declared = src.prototype.declare_outputs()
                if g.stream not in declared:
                    raise ValueError(
                        f"{spec.component_id!r} subscribes to undeclared "
                        f"stream {g.stream!r} of {g.source!r}"
                    )
                if g.strategy == "fields":
                    missing = set(g.fields) - set(declared[g.stream])
                    if missing:
                        raise ValueError(
                            f"grouping on {g.source!r}.{g.stream!r} uses "
                            f"unknown fields {sorted(missing)}"
                        )
        # Cycle check: Storm allows cycles but every app here is a DAG, and
        # a cycle is almost always a topology bug — reject loudly.
        order, state = [], {}
        def visit(cid: str) -> None:
            if state.get(cid) == 1:
                raise ValueError(f"topology {self.name!r} contains a cycle at {cid!r}")
            if state.get(cid) == 2:
                return
            state[cid] = 1
            for g in self.specs[cid].groupings:
                visit(g.source)
            state[cid] = 2
            order.append(cid)
        for cid in sorted(self.specs):
            visit(cid)

    # -- queries --------------------------------------------------------------------

    def spout_ids(self) -> List[str]:
        return [c for c in sorted(self.specs) if self.specs[c].is_spout]

    def bolt_ids(self) -> List[str]:
        return [c for c in sorted(self.specs) if not self.specs[c].is_spout]

    def consumers_of(self, component_id: str) -> List[tuple]:
        """``[(consumer_id, GroupingSpec), ...]`` subscribed to a component."""
        out = []
        for cid in sorted(self.specs):
            for g in self.specs[cid].groupings:
                if g.source == component_id:
                    out.append((cid, g))
        return out

    def component_of_task(self, task_id: int) -> str:
        for cid, ids in self.task_ids.items():
            if task_id in ids:
                return cid
        raise KeyError(f"unknown task id {task_id}")

    def make_instance(self, component_id: str) -> Component:
        """Fresh component instance for one task (deep copy of prototype)."""
        return copy.deepcopy(self.specs[component_id].prototype)

    def __repr__(self) -> str:
        return (
            f"<Topology {self.name!r} components={len(self.specs)}"
            f" tasks={self.num_tasks}>"
        )


class TopologyBuilder:
    """Fluent builder collecting component declarations."""

    def __init__(self) -> None:
        self._specs: Dict[str, ComponentSpec] = {}

    def set_spout(
        self, component_id: str, spout: Spout, parallelism: int = 1
    ) -> ComponentSpec:
        if not isinstance(spout, Spout):
            raise TypeError(f"{component_id!r}: expected a Spout, got {spout!r}")
        return self._set(component_id, spout, parallelism, is_spout=True)

    def set_bolt(
        self, component_id: str, bolt: Bolt, parallelism: int = 1
    ) -> ComponentSpec:
        if not isinstance(bolt, Bolt):
            raise TypeError(f"{component_id!r}: expected a Bolt, got {bolt!r}")
        return self._set(component_id, bolt, parallelism, is_spout=False)

    def _set(
        self, component_id: str, proto: Component, parallelism: int, is_spout: bool
    ) -> ComponentSpec:
        if component_id in self._specs:
            raise ValueError(f"duplicate component id {component_id!r}")
        if not component_id or "/" in component_id:
            raise ValueError(f"invalid component id {component_id!r}")
        spec = ComponentSpec(component_id, proto, parallelism, is_spout)
        self._specs[component_id] = spec
        return spec

    def build(
        self, name: str, config: Optional[TopologyConfig] = None
    ) -> Topology:
        return Topology(name, dict(self._specs), config or TopologyConfig())
