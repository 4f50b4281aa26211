"""Elastic worker membership: live scale-out/in of the worker pool.

The paper's controller re-splits grouping ratios across a *fixed* pool;
this module adds the missing actuator — an :class:`ElasticScheduler`
hanging off :attr:`Cluster.elastic` that can add and remove workers while
the topology runs:

* :meth:`ElasticScheduler.add_worker` places a fresh worker on the node
  with the most free slots and rebalances the most backlogged bolt
  executors onto it.  Executors migrate *with their queues*, so a
  scale-out loses nothing; in-transit tuples follow because the transport
  resolves placement at delivery time.
* :meth:`ElasticScheduler.remove_worker` drains the departing worker
  through the existing crash/restart machinery — queued tuples are purged
  and their trees failed so spouts replay them immediately (exactly a
  worker process dying), then the executors are re-homed onto the
  survivors and the empty worker leaves the pool.

Every membership change bumps :attr:`Cluster.membership_epoch`; bind-time
snapshots elsewhere (the controller's task→worker map, the monitor's row
registry) resync against it instead of going quietly stale.  Routing
needs no resync: moving executors never changes task ids, and no
grouping's targets depend on placement.

Determinism: victim/donor/target selection uses only simulation state
(queue depths, executor counts, ids) with total tie-breaks, never
wall-clock or unseeded randomness, so elastic runs stay byte-replayable.

Worker identity: new workers get fresh, never-reused ids
(``Cluster._next_worker_id``), so ids are *names*, not list positions —
the reason every id lookup goes through :meth:`Cluster.worker_by_id`.
By default scale-in only removes the *youngest* worker (highest id),
which keeps pre-scheduled fault targets (always aimed at the initial
pool) valid for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.storm.executor import BoltExecutor
from repro.storm.worker import Worker

if TYPE_CHECKING:  # pragma: no cover
    from repro.storm.cluster import Cluster
    from repro.storm.node import Node

#: trace event kinds (see repro.obs.tracer)
ELASTIC_ADD = "elastic.worker_add"
ELASTIC_REMOVE = "elastic.worker_remove"
ELASTIC_MIGRATE = "elastic.migrate"


@dataclass
class MembershipEvent:
    """Ground-truth record of one elastic action (for experiment plots)."""

    time: float
    kind: str  # "add" | "remove"
    worker_id: int
    node_name: str
    moved_tasks: List[int]
    #: tuples purged from the departing worker's queues (remove only)
    lost: int = 0


class ElasticScheduler:
    """Live worker add/remove on one cluster (see module docstring)."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.log: List[MembershipEvent] = []

    # -- placement ----------------------------------------------------------------

    def _pick_node(self) -> "Node":
        """Node with the most free slots; ties break in node-list order."""
        best = None
        best_free = 0
        for node in self.cluster.nodes:
            free = node.slots - len(node.workers)
            if free > best_free:
                best, best_free = node, free
        if best is None:
            raise RuntimeError(
                "no free worker slot on any node; cannot scale out"
            )
        return best

    # -- scale out ----------------------------------------------------------------

    def add_worker(self, node: Optional["Node"] = None) -> Worker:
        """Join a fresh worker and rebalance load onto it.

        ``node`` overrides placement (must have a free slot); the default
        picks the node with the most free slots, which steers new workers
        away from the CPU contention they are meant to relieve.  Returns
        the new :class:`Worker`.
        """
        cluster = self.cluster
        if cluster.topology is None:
            raise RuntimeError("no topology submitted; nothing to scale")
        if node is None:
            node = self._pick_node()
        elif node.slots - len(node.workers) <= 0:
            raise ValueError(f"node {node.name!r} has no free slot")
        worker = Worker(
            cluster.env,
            worker_id=cluster._next_worker_id,
            node=node,
        )
        cluster._next_worker_id += 1
        cluster.workers.append(worker)
        moved = self._rebalance_onto(worker)
        cluster.membership_epoch += 1
        event = MembershipEvent(
            time=cluster.env.now,
            kind="add",
            worker_id=worker.worker_id,
            node_name=node.name,
            moved_tasks=moved,
        )
        self.log.append(event)
        if cluster.tracer is not None:
            cluster.tracer.record(
                cluster.env.now, ELASTIC_ADD, worker=worker.worker_id,
                node=node.name, moved=list(moved),
                pool=len(cluster.workers),
            )
        return worker

    def _rebalance_onto(self, worker: Worker) -> List[int]:
        """Migrate the hottest bolt executors onto the new worker.

        Moves until the newcomer holds an even share
        (``total // n_workers``), taking from workers that hold more than
        that share, hottest queue first (ties: highest task id).  Spouts
        stay put — their cost is pacing, not CPU, and moving them buys
        nothing.
        """
        cluster = self.cluster
        total = len(cluster.executors)
        share = total // len(cluster.workers)
        moved: List[int] = []
        while len(worker.executors) < share:
            candidates = [
                ex
                for w in cluster.workers
                if w is not worker and len(w.executors) > share
                for ex in w.executors
                if isinstance(ex, BoltExecutor)
            ]
            if not candidates:
                break
            ex = max(candidates, key=lambda e: (e.queue.level, e.task_id))
            cluster.move_executor(ex.task_id, worker)
            moved.append(ex.task_id)
        return moved

    # -- scale in -----------------------------------------------------------------

    def remove_worker(self, worker_id: Optional[int] = None) -> int:
        """Drain one worker out of the pool; returns tuples lost.

        The default victim is the youngest worker (highest id) — the
        stack discipline that keeps scheduled faults, which always target
        the initial pool, aimed at live workers.  The drain goes through
        the crash machinery: queued tuples are purged and their trees
        failed (spouts replay them immediately), the executors are then
        re-homed onto the surviving workers (fewest-loaded first, ties to
        the lowest id), and the empty worker leaves the pool.  Tuples
        already in transit towards a migrated executor still arrive: the
        transport resolves placement at delivery time, after the move.

        Removing a worker that a pending fault schedule targets raises
        from the fault's apply/revert later; keep scheduled-fault targets
        in the pool (the default victim policy does).
        """
        cluster = self.cluster
        if len(cluster.workers) <= 1:
            raise RuntimeError("cannot remove the last worker")
        if worker_id is None:
            victim = max(cluster.workers, key=lambda w: w.worker_id)
        else:
            victim = cluster.worker_by_id(worker_id)
        # Crash-drain: purge queues, fail trees → spout replays.  All of
        # this is synchronous (no sim time passes), so executors never
        # observe the transient crashed state.
        lost = victim.crash(cluster.ledger)
        moved: List[int] = []
        for ex in list(victim.executors):
            targets = [w for w in cluster.workers if w is not victim]
            target = min(
                targets, key=lambda w: (len(w.executors), w.worker_id)
            )
            cluster.move_executor(ex.task_id, target)
            moved.append(ex.task_id)
        victim.restart()  # release the gate before the worker is dropped
        cluster.workers.remove(victim)
        victim.node.workers.remove(victim)
        cluster.membership_epoch += 1
        event = MembershipEvent(
            time=cluster.env.now,
            kind="remove",
            worker_id=victim.worker_id,
            node_name=victim.node.name,
            moved_tasks=moved,
            lost=lost,
        )
        self.log.append(event)
        if cluster.tracer is not None:
            cluster.tracer.record(
                cluster.env.now, ELASTIC_REMOVE, worker=victim.worker_id,
                node=victim.node.name, moved=list(moved), lost=lost,
                pool=len(cluster.workers),
            )
        return lost

    def __repr__(self) -> str:
        return (
            f"<ElasticScheduler workers={len(self.cluster.workers)}"
            f" events={len(self.log)}>"
        )
