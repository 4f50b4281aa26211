"""Executors: the state machines that actually move and process tuples.

One executor runs one task (Storm's default of one task per executor).
An executor is not a coroutine: every transition is a plain method that
the event loop calls as the callback of the one event the executor waits
on; between events it holds no Python frame.

* Consumer: a :class:`BoltExecutor` is *idle* (its input
  :class:`~repro.des.stores.Store` owes it the next envelope) or *in
  service*.  ``on_arrival`` starts service inside the event that
  delivered the envelope; ``on_service_done`` fires with the service
  ``Timeout``, executes the bolt, routes, acks, and takes the next
  envelope or goes idle.  A hop is two events: delivery and service.
* Processor: the service step occupies the node's CPU and is dilated by
  co-location interference (:mod:`repro.storm.node`), worker
  misbehaviour (:mod:`repro.storm.worker`), and multiplicative noise.
* Producer: a :class:`SpoutExecutor` paces emissions by the spout's
  arrival process (``on_emit_due`` fires with the pacing ``Timeout``),
  enforces ``max_spout_pending`` flow control, and replays failures.
* Transport: all cross-task delivery goes through :class:`Transport`,
  which applies placement-dependent latency (same worker < same node <
  cross node) and preserves per-link FIFO order.

A paused or crashed worker is a gate event whose callbacks are the
executors waiting to go on.  Only low-rate actors stay generator
processes (``tick-*`` here; collector, sweeper, faults, controllers).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple as Tup

import numpy as np

from repro.des.events import URGENT, Event, Timeout
from repro.des.stores import Store
from repro.obs.tracer import (
    TUPLE_DROP,
    TUPLE_EMIT,
    TUPLE_EXECUTE,
    TUPLE_LOSS,
    TUPLE_QUEUE,
    TUPLE_REPLAY,
    TUPLE_SHED,
    TUPLE_TRANSFER,
)
from repro.storm.api import Bolt, Emission, OutputCollector, Spout, TopologyContext
from repro.storm.grouping import Grouping, Router
from repro.storm.tuples import DEFAULT_STREAM, SpoutRecord, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.environment import Environment
    from repro.obs.metrics import LogHistogram, MetricsRegistry
    from repro.obs.tracer import Tracer
    from repro.storm.acker import AckLedger
    from repro.storm.topology import TopologyConfig
    from repro.storm.worker import Worker

#: Stream name used for tick envelopes (never routed downstream).
TICK_STREAM = "__tick"

#: Service-noise normals drawn per call into an executor's stream.
NOISE_BLOCK = 256


@dataclass(slots=True)
class Envelope:
    """A tuple in transit/queued, stamped with its enqueue time."""

    tup: Tuple
    enqueue_time: float


class Transport:
    """Latency-aware point-to-point delivery between tasks.

    Chaos faults (:mod:`repro.storm.faults`) can perturb inter-worker
    transfers: :meth:`hold_loss` drops each transfer with a probability,
    :meth:`hold_delay` adds exponential latency jitter.  Both draw from the
    seeded ``rng`` stream, so a chaos run is bit-reproducible, and both are
    compositional — overlapping faults stack (loss probabilities combine as
    ``1 - prod(1 - p_i)``, jitter means add) and revert in any order.
    Dropped transfers are *not* failed immediately: the tuple tree times
    out in the acker and the spout replays it — Storm's recovery path for
    messages lost on the wire or sent to a died worker.
    """

    #: the kernel profiler's row for delivery events
    name = "transport"

    def __init__(
        self,
        env: "Environment",
        config: "TopologyConfig",
        ledger: Optional["AckLedger"] = None,
        tracer: Optional["Tracer"] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.env = env
        self.config = config
        self.ledger = ledger
        self.tracer = tracer
        self.rng = rng
        self.queues: Dict[int, Store] = {}
        self.placement: Dict[int, "Worker"] = {}
        self.sent_count = 0
        self.dropped_count = 0
        #: transfers dropped by a loss fault / at a crashed destination
        self.lost_loss_count = 0
        self.lost_crash_count = 0
        self._loss_holds: List[float] = []
        self._delay_holds: List[float] = []
        self.loss_probability = 0.0
        self.extra_delay_mean = 0.0

    @property
    def lost_count(self) -> int:
        """Transfers dropped in transit, whatever the reason."""
        return self.lost_loss_count + self.lost_crash_count

    def register(self, task_id: int, queue: Store, worker: "Worker") -> None:
        self.queues[task_id] = queue
        self.placement[task_id] = worker

    # -- chaos perturbations ---------------------------------------------------------

    def _require_rng(self) -> np.random.Generator:
        if self.rng is None:
            raise RuntimeError(
                "transport has no rng stream; chaos faults need a cluster-"
                "built transport (pass rng= when constructing directly)"
            )
        return self.rng

    def hold_loss(self, probability: float) -> None:
        """Start dropping inter-worker transfers with ``probability``."""
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"loss probability must be in (0, 1]: {probability}")
        self._require_rng()
        self._loss_holds.append(probability)
        self._recompute_loss()

    def release_loss(self, probability: float) -> None:
        """Remove one matching loss hold (any revert order)."""
        self._loss_holds.remove(probability)
        self._recompute_loss()

    def _recompute_loss(self) -> None:
        keep = 1.0
        for p in self._loss_holds:
            keep *= 1.0 - p
        self.loss_probability = 1.0 - keep

    def hold_delay(self, mean_extra: float) -> None:
        """Add exponential jitter with mean ``mean_extra`` to transfers."""
        if mean_extra <= 0:
            raise ValueError(f"delay mean must be positive: {mean_extra}")
        self._require_rng()
        self._delay_holds.append(mean_extra)
        self.extra_delay_mean = sum(self._delay_holds)

    def release_delay(self, mean_extra: float) -> None:
        """Remove one matching delay hold (any revert order)."""
        self._delay_holds.remove(mean_extra)
        self.extra_delay_mean = sum(self._delay_holds)

    def latency(self, src_worker: "Worker", dst_task: int) -> float:
        dst_worker = self.placement[dst_task]
        if dst_worker is src_worker:
            return self.config.intra_worker_latency
        if dst_worker.node is src_worker.node:
            return self.config.intra_node_latency
        return self.config.inter_node_latency

    def deliver(
        self, src_worker: "Worker", sends: List[Tup[int, Tuple]]
    ) -> None:
        """Unified delivery entry point for one emission's sends.

        ``sends`` is an ordered list of ``(dst_task, tup)`` pairs
        produced by one emission (one :meth:`BaseExecutor.route_emission`
        call); a single-tuple send is just a length-one list.  This is
        the *one* seam chaos faults hook: loss and jitter draws happen
        here, per tuple, in list order — one RNG draw sequence no matter
        how the caller grouped its sends.

        All surviving transfers with the same placement latency share a
        single delivery event (a ``Timeout`` whose value is the batch)
        instead of one event each, cutting the per-event allocation of
        multi-consumer emissions.  Order
        preservation: the sends were scheduled back-to-back (their
        sequence numbers are consecutive, so no foreign event can sort
        between them at equal ``(time, priority)``), hence delivering a
        same-delay group in list order from one event is observably
        identical to delivering each from its own event.

        A put never blocks the sender: if a destination queue is full
        under the ``buffer`` policy, the envelope waits in the store's
        overflow, which models the receiver-side transfer buffer
        growing (visible to the metrics layer as ``backlog``).
        """
        env = self.env
        tr = self.tracer
        groups: Dict[float, List[Tup[int, Tuple]]] = {}
        for dst_task, tup in sends:
            self.sent_count += 1
            dst_worker = self.placement[dst_task]
            delay = self.latency(src_worker, dst_task)
            inter_worker = dst_worker is not src_worker
            if inter_worker and self.loss_probability > 0.0:
                if self.rng.random() < self.loss_probability:
                    # Lost on the wire: the tree times out and replays.
                    self.lost_loss_count += 1
                    if tr is not None:
                        tr.record(
                            env.now, TUPLE_LOSS, dst_task, tup.edge_id,
                            tup.roots, "loss",
                        )
                    continue
            if inter_worker and self.extra_delay_mean > 0.0:
                delay += float(self.rng.exponential(self.extra_delay_mean))
            if tr is not None:
                tr.record(
                    env.now, TUPLE_TRANSFER, tup.source_task, dst_task,
                    tup.edge_id, tup.roots, delay,
                )
            groups.setdefault(delay, []).append((dst_task, tup))
        for delay, batch in groups.items():  # insertion = first-send order
            Timeout(env, delay, batch).callbacks.append(self._on_delivery)

    def _on_delivery(self, event: Event) -> None:
        """Arrival of one same-delay delivery group, in emission order.

        The common configuration — no tracer, ``buffer`` overflow policy
        — takes a vectorized path: consecutive same-destination runs are
        enqueued with one :meth:`~repro.des.stores.Store.put_many` per
        run (and crash losses counted per run), which preserves the
        per-tuple arrival order exactly.
        """
        batch: List[Tup[int, Tuple]] = event._value
        env = self.env
        tr = self.tracer
        shed = self.config.overflow_policy == "shed"
        if tr is None and not shed:
            now = env.now
            queues = self.queues
            placement = self.placement
            i = 0
            n = len(batch)
            while i < n:
                dst_task = batch[i][0]
                j = i + 1
                while j < n and batch[j][0] == dst_task:
                    j += 1
                if placement[dst_task].crashed:
                    # Connection to a died worker: the transfers vanish;
                    # the acker's timeout sweep fails the trees and the
                    # spout replays after recovery.
                    self.lost_crash_count += j - i
                else:
                    queues[dst_task].put_many(
                        [Envelope(tup, now) for _, tup in batch[i:j]]
                    )
                i = j
            return
        for dst_task, tup in batch:
            if self.placement[dst_task].crashed:
                self.lost_crash_count += 1
                if tr is not None:
                    tr.record(
                        env.now, TUPLE_LOSS, dst_task, tup.edge_id,
                        tup.roots, "crash",
                    )
                continue
            queue = self.queues[dst_task]
            if shed and queue.is_full:
                # Load shedding: drop at the receiver and fail the tree
                # right away so the spout replays without waiting for the
                # message timeout.
                self.dropped_count += 1
                if tr is not None:
                    tr.record(
                        env.now, TUPLE_SHED, dst_task, tup.edge_id, tup.roots
                    )
                if self.ledger is not None:
                    for root in tup.roots:
                        self.ledger.fail(root, reason="shed")
                continue
            queue.put(Envelope(tup, env.now))


class BaseExecutor:
    """State and counters shared by spout and bolt executors."""

    def __init__(
        self,
        env: "Environment",
        task_id: int,
        task_index: int,
        component_id: str,
        worker: "Worker",
        config: "TopologyConfig",
        transport: Transport,
        ledger: "AckLedger",
        rng: np.random.Generator,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.env = env
        self.task_id = task_id
        self.task_index = task_index
        self.component_id = component_id
        self.worker = worker
        self.config = config
        self.transport = transport
        self.ledger = ledger
        self.rng = rng
        self.tracer = tracer
        self.metrics = metrics
        self.queue = Store(capacity=config.executor_queue_capacity)
        #: stream -> [(consumer_id, Grouping)]
        self.outbound: Dict[str, List[Tup[str, Grouping]]] = {}
        self.declared_outputs: Dict[str, Tup[str, ...]] = {}
        #: compiled routing plans, built per stream on first emission and
        #: never rebuilt (consumer task ids do not change)
        self._plans: Dict[str, Optional[Tup[Tup[str, ...], List[Router]]]] = {}
        self._next_edge = env.next_edge_id  # bound-method cache (hot path)
        # service noise: sigma is static config and ``rng`` feeds nothing
        # else, so normals are drawn a block at a time (a sized draw
        # yields the same variates as that many scalar draws) and kept
        # reversed, so that ``pop()`` hands them out in draw order
        self._noise_sigma = float(config.service_noise_sigma)
        self._noise_block: List[float] = []
        # cumulative counters (metrics layer diffs these per interval)
        self.executed_count = 0
        self.emitted_count = 0
        self.acked_count = 0
        self.failed_count = 0
        self.busy_time = 0.0
        self.wait_time_sum = 0.0
        self.service_time_sum = 0.0
        self.running = True
        worker.executors.append(self)
        transport.register(task_id, self.queue, worker)
        # Start at the current time through an URGENT init event, as a
        # Process does: executors and processes start in creation order.
        init = Event(env)
        init.callbacks.append(self._start)  # type: ignore[union-attr]
        init.succeed(None, priority=URGENT)

    def _start(self, _event: Event) -> None:
        """First transition (spout and bolt executors override it)."""

    # -- emission routing (shared by spout and bolt paths) ---------------------------

    def _service_noise(self) -> float:
        sigma = self._noise_sigma
        if sigma <= 0:
            return 1.0
        block = self._noise_block
        if not block:
            block.extend(self.rng.normal(0.0, sigma, NOISE_BLOCK)[::-1].tolist())
        # lognormal with unit median: median-preserving multiplicative noise
        return math.exp(block.pop())

    def route_emission(
        self,
        values: Tup[Any, ...],
        stream: str,
        roots: Tup[int, ...],
    ) -> List[int]:
        """Create per-target tuples, update the ack ledger, and send.

        Returns the edge ids created (the spout path XORs them into the
        fresh tree; the bolt path has already registered them per root).

        Routing runs through the compiled per-stream plan (see
        :meth:`_compile_plan`).
        """
        sends: List[Tup[int, Tuple]] = []
        edges = self._route_collect(values, stream, roots, sends)
        # One deliver() per emission: same-latency targets share delivery
        # events and chaos faults hook the single transport seam.
        if sends:
            self.transport.deliver(self.worker, sends)
        return edges

    def _compile_plan(
        self, stream: str
    ) -> Optional[Tup[Tup[str, ...], List[Router]]]:
        """Build (and cache) the routing plan for one output stream.

        The plan is ``(declared_fields, [router, ...])`` with one
        compiled router per subscribed consumer, in wiring order — the
        order that fixes edge ids and send order.  ``None`` is cached
        for declared streams nobody subscribes to (the tuple evaporates).
        """
        consumers = self.outbound.get(stream)
        if consumers is None:
            if stream not in self.declared_outputs:
                raise ValueError(
                    f"{self.component_id!r} emitted on undeclared stream "
                    f"{stream!r} (declared: {sorted(self.declared_outputs)})"
                )
            self._plans[stream] = None
            return None
        fields = self.declared_outputs.get(stream, ())
        routers = [
            grouping.compile_router(
                fields=fields,
                stream=stream,
                source_component=self.component_id,
                source_task=self.task_id,
            )
            for _consumer_id, grouping in consumers
        ]
        plan = (fields, routers)
        self._plans[stream] = plan
        return plan

    def _route_collect(
        self,
        values: Tup[Any, ...],
        stream: str,
        roots: Tup[int, ...],
        sends: List[Tup[int, Tuple]],
    ) -> List[int]:
        """Route one emission via the compiled plan, appending its
        ``(dst_task, tuple)`` pairs to ``sends`` (callers batch several
        emissions into one :meth:`Transport.deliver`)."""
        try:
            plan = self._plans[stream]
        except KeyError:
            plan = self._compile_plan(stream)
        if plan is None:
            return []  # declared but nobody subscribed: tuple evaporates
        fields, routers = plan
        edges: List[int] = []
        next_edge = self._next_edge
        ledger_emit = self.ledger.emit
        now = self.env.now
        component = self.component_id
        task = self.task_id
        for router in routers:
            for dst in router(values):
                edge = next_edge()
                edges.append(edge)
                # positional Tuple(values, stream, source_component,
                # source_task, edge_id, roots, emit_time, msg_id, fields):
                # keyword binding costs ~2x tuple.__new__ on this path
                out = Tuple(
                    values, stream, component, task, edge, roots, now,
                    None, fields,
                )
                for root in roots:
                    ledger_emit(root, edge)
                sends.append((dst, out))
                self.emitted_count += 1
        return edges

    def purge_queue(self, ledger: Optional["AckLedger"] = None) -> int:
        """Drop every queued envelope (worker crash), failing their trees.

        Failing through the ledger makes the spout replay the purged
        tuples immediately instead of waiting out the message timeout.
        Returns the number of data (non-tick) tuples lost.  Drains in a
        loop because freeing capacity admits the queue's overflow.
        """
        lost = 0
        while True:
            items = self.queue.drain()
            if not items:
                return lost
            for envelope in items:
                tup = envelope.tup
                if tup.stream == TICK_STREAM:
                    continue
                lost += 1
                if ledger is not None:
                    for root in tup.roots:
                        ledger.fail(root, reason="crash")

    def stop(self) -> None:
        self.running = False


class SpoutExecutor(BaseExecutor):
    """Drives one spout task: pacing, flow control, replay."""

    def __init__(self, spout: Spout, context: TopologyContext, **kw: Any) -> None:
        super().__init__(**kw)
        self.spout = spout
        self.context = context
        self.pending: Dict[Any, SpoutRecord] = {}
        self.replay_queue: deque[SpoutRecord] = deque()
        #: admission throttle in (0, 1]: the spout's inter-arrival gaps
        #: stretch by 1/rate.  Actuated by the spout-side rate controller
        #: (:mod:`repro.core.elasticity`) via Cluster.set_admission_rate.
        self.admission_rate = 1.0
        self.dropped_count = 0  # messages beyond max_replays
        self.replayed_count = 0
        self.trees_opened = 0  # reliable emissions (one ack tree each)
        self._wake: Optional[Event] = None
        self.ledger.register_spout(self.task_id, self._on_ack, self._on_fail)
        #: the kernel profiler's row for this executor's callbacks
        self.name = f"spout-{self.component_id}-{self.task_id}"

    # -- reliability callbacks (invoked synchronously by the ledger) ----------------

    def _on_ack(self, msg_id: Any, latency: float) -> None:
        rec = self.pending.pop(msg_id, None)
        if rec is None:
            return
        self.acked_count += 1
        self.spout.ack(msg_id, latency)
        self._signal()

    def _on_fail(self, msg_id: Any) -> None:
        rec = self.pending.pop(msg_id, None)
        if rec is None:
            return
        self.failed_count += 1
        self.spout.fail(msg_id)
        tr = self.tracer
        if rec.retries < self.config.max_replays:
            rec.retries += 1
            self.replay_queue.append(rec)
            self.replayed_count += 1
            if tr is not None:
                tr.record(
                    self.env.now, TUPLE_REPLAY, msg_id, self.task_id,
                    rec.retries,
                )
        else:
            self.dropped_count += 1
            if tr is not None:
                tr.record(
                    self.env.now, TUPLE_DROP, msg_id, self.task_id,
                    rec.retries,
                )
        self._signal()

    def _signal(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed(None)

    # -- emission loop ---------------------------------------------------------------

    def _start(self, _event: Event) -> None:
        self.spout.open(self.context)
        self._advance()

    def _await_signal(self) -> None:
        """Go on at the next ack or fail (see :meth:`_signal`)."""
        self._wake = Event(self.env)
        self._wake.callbacks.append(self._advance)  # type: ignore[union-attr]

    def _pass_gate(self, _event: Event) -> None:
        self._advance(past_gate=True)

    def _advance(
        self, _event: Optional[Event] = None, past_gate: bool = False
    ) -> None:
        """Run the emission loop up to its next wait: a full pending
        window or an exhausted stream with messages in flight (both end
        at the next ack/fail), the worker's pause gate, or the pacing
        timeout that ends in :meth:`on_emit_due`.  Replays are emitted
        in this loop, not by recursion: a burst of failures costs no stack.
        """
        self._wake = None
        while True:
            if not past_gate:
                if not self.running:
                    break
                # Flow control: block while the pending window is full.
                if len(self.pending) >= self.config.max_spout_pending:
                    return self._await_signal()
                gate = self.worker.pause_gate()
                if gate is not None:
                    gate.callbacks.append(self._pass_gate)
                    return
            past_gate = False
            if self.replay_queue:
                self._emit_record(self.replay_queue.popleft())
                continue
            delay = self.spout.inter_arrival()
            if delay is None or not math.isfinite(delay):
                # Stream exhausted — but reliability work may remain:
                # in-flight messages can still fail and need replaying,
                # so only terminate once everything is resolved.
                if not self.pending and not self.replay_queue:
                    break
                return self._await_signal()
            wait = max(0.0, delay)
            rate = self.admission_rate
            if rate < 1.0:
                # Throttled admission: stretch the gap.  Skipped
                # entirely at full rate so unthrottled runs stay
                # bitwise identical to the pre-throttle code.
                wait = wait / rate
            Timeout(self.env, wait).callbacks.append(self.on_emit_due)
            return
        self.spout.close()

    def on_emit_due(self, _event: Event) -> None:
        """The pacing timeout fired: emit one new message, then go on."""
        emission = self.spout.next_tuple()
        if emission is not None:
            self._emit_record(
                SpoutRecord(
                    msg_id=emission.msg_id,
                    values=tuple(emission.values),
                    stream=emission.stream,
                    root_id=0,
                    emit_time=self.env.now,
                )
            )
        self._advance()

    def _emit_record(self, rec: SpoutRecord) -> None:
        """Emit (or re-emit) one spout message and open its ack tree."""
        reliable = rec.msg_id is not None
        tr = self.tracer
        if reliable:
            root = self._next_edge()
            rec.root_id = root
            rec.emit_time = self.env.now
            # Open the tree *before* routing so no ack can race ahead,
            # then fold the edges in exactly as Storm's acker-init does.
            self.ledger.init_tree(root, self.task_id, rec.msg_id, edge_id=0)
            self.trees_opened += 1
            self.pending[rec.msg_id] = rec
            if tr is not None:
                tr.record(
                    self.env.now, TUPLE_EMIT, root, rec.msg_id,
                    self.task_id, self.component_id, rec.retries,
                )
            edges = self.route_emission(rec.values, rec.stream, roots=(root,))
            if not edges:
                # No consumers: the tree is trivially complete.
                self.ledger.ack(root, 0)
        else:
            self.route_emission(rec.values, rec.stream, roots=())
        self.executed_count += 1

    @property
    def in_flight(self) -> int:
        return len(self.pending)


class BoltExecutor(BaseExecutor):
    """Drives one bolt task: dequeue, service, execute, route, ack."""

    def __init__(self, bolt: Bolt, context: TopologyContext, **kw: Any) -> None:
        super().__init__(**kw)
        self.bolt = bolt
        self.context = context
        self.collector = OutputCollector()
        self.tick_dropped = 0
        # per-component instruments (tasks of one component share them)
        self._m_wait: Optional["LogHistogram"] = None
        self._m_service: Optional["LogHistogram"] = None
        if self.metrics is not None:
            self._m_wait = self.metrics.histogram(
                "bolt.queue_wait_seconds", component=self.component_id
            )
            self._m_service = self.metrics.histogram(
                "bolt.service_seconds", component=self.component_id
            )
        #: the kernel profiler's row for this executor's callbacks
        self.name = f"bolt-{self.component_id}-{self.task_id}"
        #: the one envelope held while the worker's pause gate is shut
        self._held: Optional[Envelope] = None
        if self.config.tick_interval > 0:
            self.env.process(
                self._ticker(), name=f"tick-{self.component_id}-{self.task_id}"
            )

    def _ticker(self):
        interval = self.config.tick_interval
        while self.running:
            yield self.env.timeout(interval)
            tick = Tuple(values=(), stream=TICK_STREAM)
            if not self.queue.try_put(Envelope(tick, self.env.now)):
                self.tick_dropped += 1  # overloaded: ticks are best-effort

    # -- service loop ----------------------------------------------------------------

    def _start(self, _event: Event) -> None:
        self.bolt.prepare(self.context)
        self._next()

    def _next(self) -> None:
        """Top of the service loop: stop, wait out a shut pause gate, or
        take the next envelope."""
        if not self.running:
            self.bolt.cleanup()
            return
        gate = self.worker.pause_gate()
        if gate is not None:
            gate.callbacks.append(self._take)
        else:
            self._take()

    def _take(self, _event: Optional[Event] = None) -> None:
        """Serve the head of the queue, or go idle: the queue then owes
        the next envelope put to :meth:`on_arrival`."""
        envelope = self.queue.take(self.on_arrival)
        if envelope is not None:
            self._begin_service(envelope)

    def on_arrival(self, envelope: Envelope) -> None:
        """An envelope reached this bolt while it was idle: service starts
        here, inside the event that delivered it — unless the worker was
        paused or crashed meanwhile; then it is held until the gate opens."""
        gate = self.worker.pause_gate()
        if gate is None:
            self._begin_service(envelope)
        else:
            self._held = envelope
            gate.callbacks.append(self._serve_held)

    def _serve_held(self, _event: Event) -> None:
        envelope, self._held = self._held, None
        self._begin_service(envelope)  # type: ignore[arg-type]

    def _begin_service(self, envelope: Envelope) -> None:
        """First half of tuple processing: trace, pick the service time,
        schedule the service timeout.

        The timeout's value is the state :meth:`on_service_done` needs.
        The node is pinned across the wait: an elastic migration can
        re-home this executor mid-service, and started/finished must
        pair on the same node's demand counter.
        """
        tup = envelope.tup
        wait = self.env.now - envelope.enqueue_time
        is_tick = tup.stream == TICK_STREAM
        tr = self.tracer
        if tr is not None and not is_tick:
            tr.record(
                self.env.now, TUPLE_QUEUE, self.task_id,
                self.component_id, tup.edge_id, tup.roots, wait,
            )
        nominal = 0.2e-3 if is_tick else self.bolt.cpu_cost(tup)
        node = self.worker.node
        dilation = node.service_started()
        service = (
            max(0.0, nominal)
            * self._service_noise()
            * dilation
            * self.worker.slow_factor
        )
        Timeout(
            self.env, service, (tup, is_tick, wait, node, service)
        ).callbacks.append(self.on_service_done)

    def on_service_done(self, event: Event) -> None:
        """The service timeout fired — second half of tuple processing:
        execute the bolt, route, ack, count; then on to the next envelope."""
        tup, is_tick, wait, node, service = event._value
        node.service_finished()
        tr = self.tracer
        if tr is not None and not is_tick:
            tr.record(
                self.env.now, TUPLE_EXECUTE, self.task_id,
                self.component_id, tup.edge_id, tup.roots, service,
            )
        if is_tick:
            self.bolt.tick(self.env.now, self.collector)
        else:
            self.bolt.execute(tup, self.collector)
        emissions, acked, failed = self.collector.drain()
        # Every emission of this execute() funnels into one deliver()
        # call: the per-emission send groups land back-to-back in list
        # order, and the chaos streams draw per tuple in that order.
        sends: List[Tup[int, Tuple]] = []
        for values, stream, anchors in emissions:
            anchor_roots: Tup[int, ...]
            if anchors:
                seen: List[int] = []
                for a in anchors:
                    for r in a.roots:
                        if r not in seen:
                            seen.append(r)
                anchor_roots = tuple(seen)
            else:
                anchor_roots = ()
            self._route_collect(values, stream, anchor_roots, sends)
        if sends:
            self.transport.deliver(self.worker, sends)
        for t in acked:
            self._ack_tuple(t)
        for t in failed:
            self._fail_tuple(t)
        if (
            self.bolt.auto_ack
            and not is_tick
            and tup not in acked
            and tup not in failed
        ):
            self._ack_tuple(tup)
        if not is_tick:
            self.executed_count += 1
            self.busy_time += service
            self.wait_time_sum += wait
            self.service_time_sum += service
            if self._m_wait is not None:
                self._m_wait.add(wait)
                self._m_service.add(service)
        self._next()

    def _ack_tuple(self, tup: Tuple) -> None:
        for root in tup.roots:
            self.ledger.ack(root, tup.edge_id)
        self.acked_count += 1

    def _fail_tuple(self, tup: Tuple) -> None:
        for root in tup.roots:
            self.ledger.fail(root)
        self.failed_count += 1

    # -- metrics convenience -----------------------------------------------------------

    @property
    def avg_execute_latency(self) -> float:
        """Mean service time per executed tuple over the whole run."""
        return self.service_time_sum / self.executed_count if self.executed_count else 0.0
