"""Worker process model: a container of executors on one node slot.

A worker corresponds to one Storm worker JVM.  It carries the *misbehaviour*
state that the paper's framework must detect and route around:

* ``slow_factor`` — multiplicative service-time dilation (degraded JVM:
  GC thrashing, noisy neighbour inside the process, failing disk, ...);
* ``paused`` — the worker stops draining its executors' queues entirely
  (stop-the-world pause / livelock);
* ``crashed`` — the worker process died; queued tuples are lost (their
  trees fail so the spout replays them) and the supervisor restarts the
  worker after a delay.

All three are actuated by :mod:`repro.storm.faults` on a schedule.  Fault
actuation is *compositional*: slowdowns stack multiplicatively via
:meth:`hold_slowdown`/:meth:`release_slowdown` and pauses/crashes hold a
shared gate via reference counting, so overlapping faults on the same
worker restore the original state no matter the order their windows
close in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.environment import Environment
    from repro.des.events import Event
    from repro.storm.acker import AckLedger
    from repro.storm.executor import BaseExecutor
    from repro.storm.node import Node


class Worker:
    """One worker process hosting a set of executors."""

    def __init__(self, env: "Environment", worker_id: int, node: "Node") -> None:
        self.env = env
        self.worker_id = worker_id
        self.node = node
        self.executors: List["BaseExecutor"] = []
        self._slow_holds: List[float] = []
        self._pause_holds = 0
        self.crashed = False
        self.crash_count = 0
        #: tuples purged from executor queues across all crashes
        self.crash_lost = 0
        self._resume_event: Optional["Event"] = None
        node.workers.append(self)

    # -- misbehaviour actuation ----------------------------------------------------

    @property
    def slow_factor(self) -> float:
        """Effective service-time dilation: the product of active holds."""
        factor = 1.0
        for f in self._slow_holds:
            factor *= f
        return factor

    def hold_slowdown(self, factor: float) -> None:
        """Stack one slowdown overlay (fault window opening)."""
        if factor < 1.0:
            raise ValueError(f"slow factor must be >= 1, got {factor}")
        self._slow_holds.append(factor)

    def release_slowdown(self, factor: float) -> None:
        """Remove one matching overlay (fault window closing, any order)."""
        self._slow_holds.remove(factor)

    def hold_pause(self) -> None:
        """Add one pause hold (reference counted, for overlapping faults)."""
        self._pause_holds += 1
        self._ensure_gate()

    def release_pause(self) -> None:
        """Drop one pause hold; the gate opens when no holds remain."""
        if self._pause_holds <= 0:
            raise RuntimeError("release_pause without matching hold_pause")
        self._pause_holds -= 1
        self._maybe_release()

    # -- crash / restart -----------------------------------------------------------

    def crash(self, ledger: Optional["AckLedger"] = None) -> int:
        """Kill the worker: freeze executors and lose every queued tuple.

        Queued (non-tick) tuples are purged and their trees failed through
        ``ledger`` immediately — the spout replays them without waiting for
        the message timeout, exactly as Storm's acker handles a died
        worker's pending tuples.  Returns the number of tuples lost.
        Idempotent while already crashed.
        """
        if self.crashed:
            return 0
        self.crashed = True
        self.crash_count += 1
        self._ensure_gate()
        lost = 0
        for ex in self.executors:
            lost += ex.purge_queue(ledger)
        self.crash_lost += lost
        return lost

    def restart(self) -> None:
        """Supervisor restart: the worker resumes with empty queues."""
        if not self.crashed:
            return
        self.crashed = False
        self._maybe_release()

    # -- gate ----------------------------------------------------------------------

    @property
    def paused(self) -> bool:
        return self._pause_holds > 0

    def _blocked(self) -> bool:
        return self._pause_holds > 0 or self.crashed

    def _ensure_gate(self) -> None:
        if self._resume_event is None:
            self._resume_event = self.env.event()

    def _maybe_release(self) -> None:
        if not self._blocked() and self._resume_event is not None:
            ev, self._resume_event = self._resume_event, None
            ev.succeed(None)

    def pause_gate(self) -> Optional["Event"]:
        """Event executors must wait on while the worker is paused/crashed
        (the gate exists exactly while the worker is blocked)."""
        return self._resume_event

    # -- introspection ---------------------------------------------------------------

    @property
    def task_ids(self) -> List[int]:
        return [ex.task_id for ex in self.executors]

    @property
    def is_misbehaving(self) -> bool:
        """Ground-truth flag (used only by experiments, never by the
        controller — the controller must *infer* misbehaviour from stats;
        the crash flag alone is also visible to it, as the supervisor
        would report a died worker to Nimbus)."""
        return self.paused or self.crashed or self.slow_factor > 1.0

    def queue_backlog(self) -> int:
        """Total tuples waiting across this worker's executor queues."""
        return sum(ex.queue.level for ex in self.executors)

    def __repr__(self) -> str:
        flags = []
        if self.slow_factor > 1.0:
            flags.append(f"slow×{self.slow_factor:g}")
        if self.paused:
            flags.append("paused")
        if self.crashed:
            flags.append("crashed")
        return (
            f"<Worker {self.worker_id} node={self.node.name!r}"
            f" executors={len(self.executors)}"
            + (" " + ",".join(flags) if flags else "")
            + ">"
        )
