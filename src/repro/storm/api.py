"""User-facing component API: spouts, bolts, collectors, context.

The shapes mirror Storm's Java API adapted to the simulator's virtual
clock:

* A :class:`Spout` produces tuples; the executor asks it for the next
  emission and for the inter-arrival delay to the following one.  Ack/fail
  callbacks close the reliability loop (failed tuples are replayed by the
  spout executor automatically).
* A :class:`Bolt` consumes tuples via :meth:`Bolt.execute`, emitting
  downstream through the :class:`OutputCollector`.  Unless a bolt opts out
  of auto-ack, the executor acks the input tuple after ``execute`` returns.
* :meth:`Bolt.cpu_cost` declares the tuple's nominal CPU demand in seconds;
  the *effective* service time additionally reflects node interference and
  worker misbehaviour (see :mod:`repro.storm.node`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple as Tup

from repro.storm.tuples import DEFAULT_STREAM, Tuple

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.storm.topology import Topology


@dataclass
class Emission:
    """One spout emission: payload values plus an optional message id."""

    values: Tup[Any, ...]
    msg_id: Any = None
    stream: str = DEFAULT_STREAM


@dataclass
class TopologyContext:
    """What a component can see about its placement at prepare/open time."""

    topology_name: str
    component_id: str
    task_id: int
    task_index: int
    parallelism: int
    worker_id: int
    node_name: str
    now: Any = None  # zero-arg callable returning current sim time
    rng: Any = None  # numpy Generator dedicated to this task


class OutputCollector:
    """Buffers emissions made inside ``execute``/``next_tuple``.

    The executor drains the buffer after the user code returns and performs
    the actual (possibly blocking) sends; user code never blocks the
    simulator directly.
    """

    def __init__(self) -> None:
        self._buffer: List[tuple] = []
        self._acked: List[Tuple] = []
        self._failed: List[Tuple] = []

    # -- user API ------------------------------------------------------------

    def emit(
        self,
        values: Sequence[Any],
        stream: str = DEFAULT_STREAM,
        anchors: Optional[Sequence[Tuple]] = None,
    ) -> None:
        """Emit ``values`` on ``stream``, anchored to the given input tuples."""
        self._buffer.append((tuple(values), stream, tuple(anchors or ())))

    def ack(self, tup: Tuple) -> None:
        """Explicitly ack an input tuple (needed when auto-ack is off)."""
        self._acked.append(tup)

    def fail(self, tup: Tuple) -> None:
        """Explicitly fail an input tuple, triggering upstream replay."""
        self._failed.append(tup)

    # -- executor API ------------------------------------------------------------

    def drain(self) -> tuple:
        out = (self._buffer, self._acked, self._failed)
        self._buffer, self._acked, self._failed = [], [], []
        return out


class Component:
    """Shared base for spouts and bolts."""

    #: Output fields per stream; subclasses override or call declare().
    outputs: Dict[str, Tup[str, ...]] = {DEFAULT_STREAM: ()}

    def declare_outputs(self) -> Dict[str, Tup[str, ...]]:
        """Field names per output stream (``{"default": ("word", "count")}``)."""
        return self.outputs


class Spout(Component):
    """Source of tuples.

    Subclasses implement :meth:`next_tuple` and :meth:`inter_arrival`.
    """

    def open(self, context: TopologyContext) -> None:
        """Called once before the first ``next_tuple``."""

    def next_tuple(self) -> Optional[Emission]:
        """Produce the next emission, or ``None`` if nothing is ready.

        Returning ``None`` simply skips this arrival slot (the executor
        waits another :meth:`inter_arrival` period).
        """
        raise NotImplementedError

    def inter_arrival(self) -> float:
        """Delay until the next ``next_tuple`` call (simulation seconds)."""
        raise NotImplementedError

    def ack(self, msg_id: Any, complete_latency: float) -> None:
        """Reliability callback: the tuple tree for ``msg_id`` completed."""

    def fail(self, msg_id: Any) -> None:
        """Reliability callback: the tuple tree for ``msg_id`` timed out.

        The executor replays failed messages automatically (up to the
        topology's ``max_replays``); spouts may additionally react here.
        """

    def close(self) -> None:
        """Called when the simulation shuts the spout down."""


class Bolt(Component):
    """Processing node.

    Subclasses implement :meth:`execute`; override :meth:`cpu_cost` to model
    data-dependent compute cost, and set ``auto_ack = False`` for bolts that
    ack asynchronously (e.g. windowed bolts acking on flush).
    """

    #: Ack input tuples automatically when ``execute`` returns.
    auto_ack: bool = True
    #: Nominal per-tuple CPU seconds when ``cpu_cost`` is not overridden.
    default_cpu_cost: float = 1e-3

    def prepare(self, context: TopologyContext) -> None:
        """Called once before the first ``execute``."""

    def execute(self, tup: Tuple, collector: OutputCollector) -> None:
        raise NotImplementedError

    def cpu_cost(self, tup: Tuple) -> float:
        """Nominal CPU seconds this tuple demands (before interference)."""
        return self.default_cpu_cost

    def tick(self, now: float, collector: OutputCollector) -> None:
        """Periodic callback (windowed bolts flush here).

        Called every ``TopologyConfig.tick_interval`` simulation seconds if
        the interval is positive.
        """

    def cleanup(self) -> None:
        """Called when the simulation shuts the bolt down."""
