"""Cluster assembly and scheduling: nodes, slots, workers, executor wiring.

Reproduces the Nimbus side of Storm:

* :class:`NodeSpec` describes a supervisor machine (cores, worker slots).
* :class:`EvenScheduler` mirrors Storm's default scheduler: the topology's
  workers are placed round-robin over free slots, and executors are dealt
  round-robin over the topology's workers.
* :class:`Cluster` materialises a :class:`~repro.storm.topology.Topology`
  into live executors, wires groupings (including the shared
  :class:`~repro.storm.grouping.SplitRatioControl` per dynamic edge), and
  exposes the control surface used by the predictive framework
  (:meth:`Cluster.set_split_ratios`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple as Tup

from repro.des.rng import RngRegistry
from repro.storm.acker import AckLedger
from repro.storm.api import Bolt, Spout, TopologyContext
from repro.storm.executor import BoltExecutor, SpoutExecutor, Transport
from repro.storm.grouping import SplitRatioControl, make_grouping
from repro.storm.node import Node
from repro.storm.topology import Topology
from repro.storm.worker import Worker

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.environment import Environment
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer
    from repro.storm.elastic import ElasticScheduler
    from repro.storm.executor import BaseExecutor


@dataclass(frozen=True)
class NodeSpec:
    """Declaration of one supervisor machine."""

    name: str
    cores: int = 4
    slots: int = 4


class EvenScheduler:
    """Storm's default scheduler: spread workers and executors evenly."""

    def place_workers(
        self, num_workers: int, nodes: Sequence[Node]
    ) -> List[Node]:
        """Choose a node for each worker, round-robin over slot capacity."""
        slots: List[Node] = []
        for node in nodes:
            slots.extend([node] * node.slots)
        if num_workers > len(slots):
            raise ValueError(
                f"topology wants {num_workers} workers but cluster has only "
                f"{len(slots)} slots"
            )
        # Interleave across nodes: take slot 0 of each node, then slot 1, ...
        by_round: List[Node] = []
        for r in range(max(n.slots for n in nodes)):
            for node in nodes:
                if r < node.slots:
                    by_round.append(node)
        return by_round[:num_workers]

    def assign_executors(
        self, topology: Topology, workers: Sequence[Worker]
    ) -> Dict[int, Worker]:
        """Deal every task round-robin over the topology's workers."""
        assignment: Dict[int, Worker] = {}
        i = 0
        for cid in sorted(topology.specs):
            for task_id in topology.task_ids[cid]:
                assignment[task_id] = workers[i % len(workers)]
                i += 1
        return assignment


class Cluster:
    """A simulated Storm cluster running one topology.

    Parameters
    ----------
    env:
        Simulation environment.
    node_specs:
        Machines available to the scheduler.
    seed:
        Root seed for all randomness (see :class:`repro.des.rng.RngRegistry`).
    """

    def __init__(
        self,
        env: "Environment",
        node_specs: Sequence[NodeSpec],
        seed: int = 0,
        scheduler: Optional[EvenScheduler] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if not node_specs:
            raise ValueError("cluster needs at least one node")
        names = [s.name for s in node_specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in {names}")
        self.env = env
        self.tracer = tracer
        self.metrics = metrics
        self.rngs = RngRegistry(seed)
        self.scheduler = scheduler or EvenScheduler()
        self.nodes = [Node(env, s.name, s.cores, s.slots) for s in node_specs]
        self.workers: List[Worker] = []
        self.executors: Dict[int, "BaseExecutor"] = {}
        self.topology: Optional[Topology] = None
        self.ledger: Optional[AckLedger] = None
        self.transport: Optional[Transport] = None
        #: (source_component, consumer_component, stream) -> shared control
        self.ratio_controls: Dict[Tup[str, str, str], SplitRatioControl] = {}
        #: bumped on every worker join/leave; bind-time snapshots elsewhere
        #: (controller task→worker map, monitor row registry) resync when
        #: their cached epoch no longer matches
        self.membership_epoch = 0
        self._next_worker_id = 0
        self._elastic = None

    # -- topology submission ------------------------------------------------------------

    def submit(self, topology: Topology) -> None:
        """Schedule and start ``topology`` (one topology per cluster)."""
        if self.topology is not None:
            raise RuntimeError("this cluster already runs a topology")
        self.topology = topology
        config = topology.config
        self.ledger = AckLedger(
            self.env,
            message_timeout=config.message_timeout,
            sweep_interval=config.ack_sweep_interval,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.transport = Transport(
            self.env,
            config,
            ledger=self.ledger,
            tracer=self.tracer,
            # Dedicated chaos stream: loss/jitter draws never perturb the
            # component/executor/grouping streams, and non-chaos runs make
            # no draws from it at all.
            rng=self.rngs.get("transport/chaos"),
        )

        placements = self.scheduler.place_workers(config.num_workers, self.nodes)
        self.workers = [
            Worker(self.env, worker_id=i, node=node)
            for i, node in enumerate(placements)
        ]
        self._next_worker_id = config.num_workers
        assignment = self.scheduler.assign_executors(topology, self.workers)

        # Shared ratio controls for every dynamic edge.
        for cid in sorted(topology.specs):
            for g in topology.specs[cid].groupings:
                if g.strategy == "dynamic":
                    key = (g.source, cid, g.stream)
                    self.ratio_controls[key] = SplitRatioControl(
                        n_targets=topology.specs[cid].parallelism,
                        ratios=g.initial_ratios,
                    )

        # Instantiate executors bottom-up so queues exist before wiring.
        for cid in sorted(topology.specs):
            spec = topology.specs[cid]
            for task_index, task_id in enumerate(topology.task_ids[cid]):
                worker = assignment[task_id]
                context = TopologyContext(
                    topology_name=topology.name,
                    component_id=cid,
                    task_id=task_id,
                    task_index=task_index,
                    parallelism=spec.parallelism,
                    worker_id=worker.worker_id,
                    node_name=worker.node.name,
                    now=lambda: self.env.now,
                    rng=self.rngs.get(f"component/{cid}/{task_index}"),
                )
                instance = topology.make_instance(cid)
                common = dict(
                    env=self.env,
                    task_id=task_id,
                    task_index=task_index,
                    component_id=cid,
                    worker=worker,
                    config=config,
                    transport=self.transport,
                    ledger=self.ledger,
                    rng=self.rngs.get(f"executor/{cid}/{task_index}"),
                    tracer=self.tracer,
                    metrics=self.metrics,
                )
                if spec.is_spout:
                    assert isinstance(instance, Spout)
                    ex: "BaseExecutor" = SpoutExecutor(
                        spout=instance, context=context, **common
                    )
                else:
                    assert isinstance(instance, Bolt)
                    ex = BoltExecutor(bolt=instance, context=context, **common)
                ex.declared_outputs = dict(instance.declare_outputs())
                self.executors[task_id] = ex

        # Wire outbound groupings: each upstream executor gets its own
        # grouper per (consumer, stream), as in Storm.
        for cid in sorted(topology.specs):
            consumers = topology.consumers_of(cid)
            for task_index, task_id in enumerate(topology.task_ids[cid]):
                ex = self.executors[task_id]
                for consumer_id, gspec in consumers:
                    targets = topology.task_ids[consumer_id]
                    control = self.ratio_controls.get(
                        (cid, consumer_id, gspec.stream)
                    )
                    grouping = make_grouping(
                        gspec.strategy,
                        targets,
                        fields=gspec.fields,
                        rng=self.rngs.get(
                            f"grouping/{cid}/{task_index}/{consumer_id}/{gspec.stream}"
                        ),
                        control=control,
                    )
                    ex.outbound.setdefault(gspec.stream, []).append(
                        (consumer_id, grouping)
                    )

    # -- control surface (used by repro.core) ----------------------------------------------

    def set_split_ratios(
        self,
        source: str,
        consumer: str,
        ratios: Sequence[float],
        stream: str = "default",
    ) -> None:
        """Retarget the dynamic grouping on (source -> consumer) live.

        This is the actuation path of the paper's framework: one call
        changes the split for *every* upstream emitter at the current
        simulation instant.
        """
        key = (source, consumer, stream)
        control = self.ratio_controls.get(key)
        if control is None:
            raise KeyError(
                f"no dynamic grouping on edge {source!r} -> {consumer!r} "
                f"stream {stream!r}; dynamic edges: "
                f"{sorted(self.ratio_controls)}"
            )
        control.set_ratios(ratios)

    def get_split_ratios(
        self, source: str, consumer: str, stream: str = "default"
    ):
        return self.ratio_controls[(source, consumer, stream)].ratios

    def set_admission_rate(self, rate: float) -> None:
        """Throttle every spout's emission pacing to ``rate`` (0, 1].

        ``1.0`` is full speed; lower values stretch spout inter-arrival
        gaps by ``1/rate`` — the actuation path of the spout-side
        admission controller (:mod:`repro.core.elasticity`).
        """
        from repro.storm.executor import SpoutExecutor

        if not 0.0 < rate <= 1.0:
            raise ValueError(f"admission rate must be in (0, 1], got {rate}")
        for ex in self.executors.values():
            if isinstance(ex, SpoutExecutor):
                ex.admission_rate = rate

    def admission_rate(self) -> float:
        """Current spout admission rate (1.0 when never throttled)."""
        from repro.storm.executor import SpoutExecutor

        for ex in self.executors.values():
            if isinstance(ex, SpoutExecutor):
                return ex.admission_rate
        return 1.0

    # -- elastic membership ------------------------------------------------------------

    @property
    def elastic(self) -> "ElasticScheduler":
        """Lazy handle for live worker add/remove (see :mod:`.elastic`)."""
        if self._elastic is None:
            from repro.storm.elastic import ElasticScheduler

            self._elastic = ElasticScheduler(self)
        return self._elastic

    def move_executor(self, task_id: int, worker: Worker) -> None:
        """Re-home one executor onto ``worker``, queue and all.

        The queue object moves with the executor, so queued tuples are
        preserved and in-transit tuples — transport resolves placement at
        delivery time — arrive at the new home.  Callers must bump the
        membership epoch once the whole rebalance is done.
        """
        ex = self.executors[task_id]
        old = ex.worker
        if old is worker:
            return
        old.executors.remove(ex)
        worker.executors.append(ex)
        ex.worker = worker
        ex.context.worker_id = worker.worker_id
        ex.context.node_name = worker.node.name
        assert self.transport is not None
        self.transport.register(task_id, ex.queue, worker)

    # -- introspection helpers --------------------------------------------------------------

    def worker_by_id(self, worker_id: int) -> Worker:
        """Id-keyed worker lookup, valid across joins/leaves.

        ``cluster.workers[worker_id]`` only works while ids coincide with
        list positions — which elastic membership breaks permanently once
        a worker leaves.  Every id-based access must come through here.
        """
        for w in self.workers:
            if w.worker_id == worker_id:
                return w
        raise KeyError(
            f"no worker {worker_id} in cluster (live ids: "
            f"{[w.worker_id for w in self.workers]})"
        )

    def has_worker(self, worker_id: int) -> bool:
        return any(w.worker_id == worker_id for w in self.workers)

    def worker_of_task(self, task_id: int) -> Worker:
        return self.executors[task_id].worker

    def tasks_of_worker(self, worker_id: int) -> List[int]:
        return self.worker_by_id(worker_id).task_ids

    def crashed_workers(self) -> List[int]:
        """Ids of workers currently dead (crashed, not yet restarted)."""
        return [w.worker_id for w in self.workers if w.crashed]

    def stop(self) -> None:
        """Signal all executors to stop at their next loop iteration."""
        for ex in self.executors.values():
            ex.stop()

    def __repr__(self) -> str:
        topo = self.topology.name if self.topology else None
        return (
            f"<Cluster nodes={len(self.nodes)} workers={len(self.workers)}"
            f" topology={topo!r}>"
        )
