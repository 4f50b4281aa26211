"""The simulation environment: virtual clock plus event queue.

The environment is a deterministic single-threaded event loop.  Events are
ordered by ``(time, priority, sequence)`` so that simultaneous events fire
in a stable, reproducible order — a hard requirement for the experiment
harness (every benchmark in this repository must be bit-reproducible under
a fixed seed).
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Generator, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profiler import KernelProfiler

from repro.des.events import (
    LAST,
    NORMAL,
    Event,
    StopSimulation,
    Timeout,
)
from repro.des.process import Process
from repro.des.queues import HeapQueue


def _owner_name(callback: Any) -> str:
    """The profiler row a callback's wall time is booked under: the
    ``name`` of the object it is bound to (a generator process, a
    callback executor, the transport), else its qualified name."""
    name = getattr(getattr(callback, "__self__", None), "name", None)
    return name or getattr(callback, "__qualname__", "callback")


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the virtual clock (default ``0.0``).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        #: current simulation time; only the event loop writes it (a plain
        #: attribute: every executor transition reads it, several times)
        self.now = float(initial_time)
        self._queue = HeapQueue()
        #: bound push of the event queue — the one scheduling entry
        #: point; ``Event.succeed``/``fail`` and ``Timeout`` push
        #: through it rather than reaching into the queue structure.
        self._qpush = self._queue.push
        self._seq = 0
        #: optional kernel profiler (see :mod:`repro.obs.profiler`), set by
        #: whoever wants one; :meth:`run` checks it once, on entry.
        self.profiler: Optional["KernelProfiler"] = None
        #: last issued edge id (see :meth:`next_edge_id`); starts at 0 so
        #: the first id is 1 in every simulation.
        self._edge_seq = 0

    def next_edge_id(self) -> int:
        """Unique, deterministic edge id for this simulation's ack ledger.

        Storm draws 64-bit random ids; a per-environment counter is
        collision-free and keeps runs bit-reproducible, while preserving
        the XOR-ledger algebra (the ledger only needs ids to be unique,
        not random).  Owning the counter here — rather than a module
        global — means two simulations built in one process never share
        or leak id streams.  Hot callers cache the bound method.
        """
        self._edge_seq += 1
        return self._edge_seq

    # -- introspection (pull-gauge surfaces for repro.obs.metrics) -----------------

    @property
    def scheduled_count(self) -> int:
        """Events ever scheduled (monotonic; proxy for kernel work done)."""
        return self._seq

    @property
    def queue_depth(self) -> int:
        """Events currently pending in the queue."""
        return len(self._queue)

    # -- event factory helpers --------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` simulation time."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Register ``generator`` as a process starting at the current time."""
        return Process(self, generator, name=name)

    # -- scheduling ---------------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Enqueue ``event`` to be processed ``delay`` from now."""
        if not delay >= 0:  # also rejects NaN, which would unorder the heap
            raise ValueError(f"delay must be a number >= 0, got {delay}")
        self._seq += 1
        self._qpush((self.now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue.peek()

    def step(self) -> None:
        """Process the single next event.

        Raises
        ------
        EmptySchedule
            If the queue is empty.
        BaseException
            If the event failed and no waiter defused the failure, the
            exception surfaces here (crash-visible semantics).
        """
        try:
            when, _prio, _seq, event = self._queue.pop()
        except IndexError:
            raise EmptySchedule() from None
        self.now = when
        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        assert callbacks is not None
        profiler = self.profiler
        if profiler is None:
            for callback in callbacks:
                callback(event)
        else:
            profiler.note_event(len(self._queue))
            for callback in callbacks:
                t0 = perf_counter()
                callback(event)
                profiler.note_resume(_owner_name(callback), perf_counter() - t0)
        if not event._ok and not event._defused:
            assert event._exc is not None
            raise event._exc

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        * ``until is None`` — run until the event queue drains.
        * ``until`` is a number — run up to (and including events at) that
          time; the clock is left exactly at ``until``.
        * ``until`` is an :class:`Event` — run until that event is processed
          and return its value.

        The unprofiled dispatch loop is inlined here (no per-event
        :meth:`step` call): it pops, advances the clock, and runs the
        callbacks with everything bound locally.  Semantics are identical
        to stepping — same pop order, same crash-visible re-raise — and
        the stepping loop remains in use whenever a profiler is attached
        (it is the profiler's per-event and per-callback hook point).
        """
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.processed:
                    return stop.value
                stop.callbacks.append(self._stop_callback)  # type: ignore[union-attr]
            else:
                at = float(until)
                if at < self.now:
                    raise ValueError(
                        f"until={at} lies in the past (now={self.now})"
                    )
                stop = Event(self)
                stop._ok = True
                stop._value = StopSimulation
                stop.callbacks.append(self._stop_callback)  # type: ignore[union-attr]
                # LAST so events landing exactly at `until` are still
                # processed before the clock stops.
                self.schedule(stop, delay=at - self.now, priority=LAST)
        try:
            if self.profiler is not None:
                while True:
                    self.step()
            queue = self._queue
            pop_entry = queue.pop  # a bound C partial; no dispatch cost
            while queue:
                self.now, _, _, event = pop_entry()
                callbacks = event.callbacks
                event.callbacks = None  # mark processed
                if len(callbacks) == 1:
                    # A single waiter (one process per timeout/wakeup) is the
                    # overwhelmingly common shape — skip the iterator.
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._exc
            raise EmptySchedule()
        except StopSimulation as sig:
            return sig.value
        except EmptySchedule:
            if isinstance(until, Event) and not until.processed:
                raise RuntimeError(
                    "run() ran out of events before `until` event fired"
                ) from None
            return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            value = None if event._value is StopSimulation else event._value
            raise StopSimulation(value)
        event._defused = True
        assert event._exc is not None
        raise event._exc

    def __repr__(self) -> str:
        return f"<Environment now={self.now} queued={len(self._queue)}>"
