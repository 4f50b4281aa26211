"""Process — a generator coroutine driven by the event loop (the form the
low-rate actors take; per-tuple actors are callback state machines).

A process function is a generator that ``yield``\\ s :class:`Event` objects;
the kernel resumes the generator with the event's value when the event is
processed (or throws the event's exception into it).  The :class:`Process`
itself is an event that fires when the generator terminates, so processes
can wait on each other.  There is no preemption: a process runs until its
next ``yield`` and only the event it waits on can wake it (worker pauses
and crashes are modelled with gate events and queue purges, not
interrupts).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.des.events import URGENT, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.environment import Environment


class Process(Event):
    """Wraps a generator into the event loop.

    Create via :meth:`Environment.process`.  The process event succeeds with
    the generator's return value, or fails with its uncaught exception.
    """

    __slots__ = ("_gen", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._gen = generator
        #: the event this process is currently waiting on (``None`` if the
        #: process has not started or has terminated).
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process at the current simulation time via an
        # initialisation event so that process creation order is preserved.
        init = Event(env)
        init.callbacks.append(self._resume)  # type: ignore[union-attr]
        init.succeed(None, priority=URGENT)
        self._target = init

    # -- public API -----------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not terminated."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process currently waits on (for introspection)."""
        return self._target

    # -- internals --------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome.

        Iterates instead of recursing so a chain of already-processed
        events cannot blow the Python stack.
        """
        env = self.env
        self._target = None
        send = self._gen.send
        while True:
            try:
                if event._ok:
                    next_ev = send(event._value)
                else:
                    # Propagate failure into the generator.
                    event._defused = True
                    assert event._exc is not None
                    next_ev = self._gen.throw(event._exc)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env.schedule(self, priority=URGENT)
                break
            except BaseException as exc:  # noqa: BLE001 - process crash path
                self._ok = False
                self._exc = exc
                self._value = None
                env.schedule(self, priority=URGENT)
                break
            if not isinstance(next_ev, Event):
                raise RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_ev!r}"
                )
            callbacks = next_ev.callbacks
            if callbacks is not None:
                # Not yet processed: subscribe and suspend.
                callbacks.append(self._resume)
                self._target = next_ev
                break
            # Already processed: consume immediately and keep going.
            event = next_ev

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {state} at {id(self):#x}>"
