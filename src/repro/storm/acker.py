"""At-least-once reliability: the XOR tuple-tree ledger.

Storm tracks each spout tuple's processing tree with a single 64-bit value
per root: every emitted edge id is XOR-ed in, every acked edge id is XOR-ed
out; the value returns to zero exactly when every tuple in the tree has been
both emitted and acked.  This module reproduces that ledger plus the
timeout sweep that fails stuck trees.

Real Storm distributes the ledger across acker bolt executors; here it is a
single synchronous object.  That substitution is behaviour-preserving for
this paper's experiments: the framework never observes acker placement, only
(a) complete latencies and (b) replay behaviour, both of which the ledger
reproduces exactly.  (Acker CPU cost is negligible next to app bolts.)

Storage layout: tree state lives on a *slab* — parallel arrays indexed by
slot, with a ``root -> slot`` map and a free list for slot reuse.  The
ledger operations on the emit/ack hot path (``emit`` is called once per
anchored edge per root, ``ack`` once per processed tuple) then touch one
dict lookup plus flat list indexing instead of allocating and
destructuring a per-tree object;
the timeout sweep scans one float array.  Slot order is irrelevant to
semantics — completion order, callbacks, and the sweep's expiry order
(insertion order of live roots) are identical to the previous dict-of-
dataclass layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.obs.metrics import COMPLETE_LATENCY_METRIC
from repro.obs.tracer import TUPLE_ACK, TUPLE_FAIL

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.environment import Environment
    from repro.obs.metrics import LogHistogram, MetricsRegistry
    from repro.obs.tracer import Tracer


@dataclass
class CompletionRecord:
    """One finished (acked or failed) spout tuple, for the metrics layer."""

    msg_id: Any
    spout_task: int
    latency: float
    acked: bool
    finish_time: float


class AckLedger:
    """XOR tuple-tree tracker with timeout sweeping.

    Parameters
    ----------
    env:
        Simulation environment (for timestamps and the sweep process).
    message_timeout:
        Seconds before an incomplete tree is failed.
    on_ack / on_fail:
        Callbacks ``(spout_task, msg_id, latency_or_None)`` delivered to the
        owning spout executor.
    sweep_interval:
        Period of the timeout sweep process.
    """

    def __init__(
        self,
        env: "Environment",
        message_timeout: float,
        sweep_interval: float = 1.0,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.env = env
        self.message_timeout = message_timeout
        self.sweep_interval = sweep_interval
        self.tracer = tracer
        self.metrics = metrics
        # -- slab storage: root -> slot, plus parallel per-slot arrays --
        self._slot_of: Dict[int, int] = {}
        self._spout_task: List[int] = []
        self._msg_id: List[Any] = []
        self._ledger: List[int] = []  # XOR of outstanding edge ids per slot
        self._start: List[float] = []
        self._free: List[int] = []  # recycled slots
        self._on_ack: Dict[int, Callable] = {}  # spout_task -> callback
        self._on_fail: Dict[int, Callable] = {}
        self.completions: List[CompletionRecord] = []
        # counters for metrics
        self.acked_count = 0
        self.failed_count = 0
        self.latency_sum = 0.0
        #: failures by cause: "failed" | "timeout" | "shed" | "crash" | ...
        self.failure_reasons: Dict[str, int] = {}
        # the one pushed instrument (None when metrics are disabled); the
        # registry reads the counts above through pull counters
        self._m_latency: Optional["LogHistogram"] = None
        if metrics is not None:
            self._m_latency = metrics.histogram(COMPLETE_LATENCY_METRIC)
        self._proc = env.process(self._sweeper(), name="ack-sweeper")

    # -- registration -------------------------------------------------------------

    def register_spout(
        self, spout_task: int, on_ack: Callable, on_fail: Callable
    ) -> None:
        """Attach ack/fail delivery callbacks for one spout task."""
        self._on_ack[spout_task] = on_ack
        self._on_fail[spout_task] = on_fail

    # -- ledger operations ------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Number of incomplete tuple trees."""
        return len(self._slot_of)

    @property
    def _trees(self) -> Dict[int, int]:
        """Live ``root -> slot`` map (kept under the historical name for
        introspection of in-flight roots; the slot values are opaque)."""
        return self._slot_of

    def init_tree(
        self, root_id: int, spout_task: int, msg_id: Any, edge_id: int
    ) -> None:
        """Start tracking a new spout tuple (ledger := its first edge id)."""
        if root_id in self._slot_of:
            raise ValueError(f"duplicate root id {root_id}")
        free = self._free
        if free:
            slot = free.pop()
            self._spout_task[slot] = spout_task
            self._msg_id[slot] = msg_id
            self._ledger[slot] = edge_id
            self._start[slot] = self.env.now
        else:
            slot = len(self._ledger)
            self._spout_task.append(spout_task)
            self._msg_id.append(msg_id)
            self._ledger.append(edge_id)
            self._start.append(self.env.now)
        self._slot_of[root_id] = slot

    def emit(self, root_id: int, new_edge_id: int) -> None:
        """A bolt emitted a tuple anchored to ``root_id``."""
        slot = self._slot_of.get(root_id)
        if slot is None:
            return  # tree already completed/failed; late emit is a no-op
        self._ledger[slot] ^= new_edge_id

    def ack(self, root_id: int, edge_id: int) -> None:
        """A bolt acked the tuple with ``edge_id`` in tree ``root_id``."""
        slot = self._slot_of.get(root_id)
        if slot is None:
            return  # late ack after timeout: ignore, replay already queued
        ledger = self._ledger
        value = ledger[slot] ^ edge_id
        ledger[slot] = value
        if value == 0:
            del self._slot_of[root_id]
            now = self.env.now
            latency = now - self._start[slot]
            spout_task = self._spout_task[slot]
            msg_id = self._msg_id[slot]
            self._msg_id[slot] = None  # drop the payload ref until reuse
            self._free.append(slot)
            self.acked_count += 1
            self.latency_sum += latency
            if self._m_latency is not None:
                self._m_latency.add(latency)
            if self.tracer is not None:
                self.tracer.record(
                    now, TUPLE_ACK, root_id, msg_id, spout_task, latency,
                    edge_id,
                )
            self.completions.append(
                CompletionRecord(
                    msg_id=msg_id,
                    spout_task=spout_task,
                    latency=latency,
                    acked=True,
                    finish_time=now,
                )
            )
            cb = self._on_ack.get(spout_task)
            if cb is not None:
                cb(msg_id, latency)

    def fail(self, root_id: int, reason: str = "failed") -> None:
        """Explicitly fail a tree (bolt ``collector.fail``, shed, crash)."""
        slot = self._slot_of.pop(root_id, None)
        if slot is None:
            return
        self._record_failure(root_id, slot, reason=reason)

    def _record_failure(
        self, root_id: int, slot: int, reason: str = "timeout"
    ) -> None:
        """Release ``slot`` and account/report the failure."""
        spout_task = self._spout_task[slot]
        msg_id = self._msg_id[slot]
        start_time = self._start[slot]
        self._msg_id[slot] = None
        self._free.append(slot)
        self.failed_count += 1
        reasons = self.failure_reasons
        if reason in reasons:
            reasons[reason] += 1
        else:
            reasons[reason] = 1
            if self.metrics is not None:
                # reasons arrive dynamically: a reason's registry entry
                # appears with its first failure
                self.metrics.counter(
                    "tuple.failed", fn=lambda: reasons[reason], reason=reason
                )
        if self.tracer is not None:
            self.tracer.record(
                self.env.now, TUPLE_FAIL, root_id, msg_id, spout_task,
                self.env.now - start_time, reason,
            )
        self.completions.append(
            CompletionRecord(
                msg_id=msg_id,
                spout_task=spout_task,
                latency=self.env.now - start_time,
                acked=False,
                finish_time=self.env.now,
            )
        )
        cb = self._on_fail.get(spout_task)
        if cb is not None:
            cb(msg_id)

    # -- timeout sweep ---------------------------------------------------------------

    def _sweeper(self):
        while True:
            yield self.env.timeout(self.sweep_interval)
            deadline = self.env.now - self.message_timeout
            start = self._start
            # Insertion order of live roots = tree creation order, the
            # same expiry order the dict-of-trees layout produced.
            expired = [
                root
                for root, slot in self._slot_of.items()
                if start[slot] <= deadline
            ]
            for root in expired:
                slot = self._slot_of.pop(root)
                self._record_failure(root, slot, reason="timeout")

    def __repr__(self) -> str:
        return (
            f"<AckLedger in_flight={len(self._slot_of)} acked={self.acked_count}"
            f" failed={self.failed_count}>"
        )
