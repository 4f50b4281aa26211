"""Event primitives for the DES kernel.

An :class:`Event` is a one-shot occurrence with a value (or an exception)
and a list of ``fn(event)`` callbacks the environment runs when the event
is *processed*.  Executors append a bound method to that list; generator
processes wait by ``yield``-ing the event (their resume method is the
callback).

Lifecycle::

    pending --succeed()/fail()--> triggered --step()--> processed

``triggered`` means the event sits in the environment's queue with a firing
time; ``processed`` means its callbacks have been executed and its value is
final.  Events may only be triggered once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.des.environment import Environment


#: Scheduling priorities: lower values fire earlier at equal times.
URGENT = 0
NORMAL = 1
#: Fires only after all same-time URGENT/NORMAL events (used by run(until=t)
#: so that events scheduled exactly at t are included in the run).
LAST = 2


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` at ``until``."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


#: sentinel for "no value yet" (module-level: one global load on the hot
#: paths instead of a class-attribute lookup)
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    Parameters
    ----------
    env:
        The owning environment.  All scheduling happens through it.
    """

    __slots__ = ("env", "callbacks", "_ok", "_value", "_exc", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: list of ``fn(event)`` to invoke at processing time; ``None`` once
        #: the event has been processed.
        self.callbacks: Optional[list] = []
        self._ok: bool = True
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._defused = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """``True`` once the event has a value and sits in the queue."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have been executed."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        """The event's value; raises if the event failed or is pending."""
        if self._value is _PENDING:
            raise RuntimeError(f"value of {self!r} is not yet available")
        if not self._ok:
            assert self._exc is not None
            raise self._exc
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``.

        Hot path: triggering pushes through the environment's bound
        queue-push (bypassing :meth:`Environment.schedule`'s delay
        handling) — every store handoff and process wakeup pays this
        cost once per tuple.
        """
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq += 1
        env._qpush((env.now, priority, env._seq, self))
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed with exception ``exc``.

        If no waiting process handles the failure the environment re-raises
        ``exc`` at :meth:`Environment.step` time (crash-visible semantics).
        """
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        self._ok = False
        self._exc = exc
        self._value = None
        env = self.env
        env._seq += 1
        env._qpush((env.now, priority, env._seq, self))
        return self

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` units of sim time.

    Construction is the single hottest allocation site of the simulator
    (every service step, pacing wait and delivery creates one, carrying
    its payload as ``value``), so it bypasses ``Event.__init__``/
    ``Environment.schedule`` and pushes the queue entry itself — same
    entry, same ``(time, priority, seq)`` ordering, three fewer Python
    calls per event.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN, which would unorder the heap
            raise ValueError(f"delay must be a number >= 0, got {delay}")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        # `_exc` / `_defused` slots stay unset: a Timeout is born triggered
        # and ok, and every reader of those slots is guarded by a
        # ``not event._ok`` check, so they are never touched.
        env._seq += 1
        env._qpush((env.now + delay, NORMAL, env._seq, self))

