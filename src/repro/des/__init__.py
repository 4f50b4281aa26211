"""Discrete-event simulation (DES) kernel.

This package is the substrate underneath the Storm-like stream-processing
simulator (:mod:`repro.storm`): a small, deterministic event engine that
holds only what that simulator runs.

* :class:`~repro.des.environment.Environment` — the event loop and virtual
  clock, over one binary-heap event queue (:mod:`~repro.des.queues`).
* :class:`~repro.des.events.Event`, :class:`~repro.des.events.Timeout` —
  one-shot occurrences whose ``fn(event)`` callbacks the loop runs.  The
  per-tuple actors (executors, transport) are state machines that append
  a bound method to the one event they wait on.
* :class:`~repro.des.process.Process` — a generator wrapped into the event
  loop, for the low-rate actors (ticks, collectors, sweepers, faults,
  controllers): it yields events and is resumed when they fire.  A
  process is itself an event (it fires when the generator returns), so
  processes can wait on each other.  There is no preemption.
* :class:`~repro.des.stores.Store` — the bounded FIFO executor input
  queue: ``put`` is a plain insert, an idle consumer is called back.
* :mod:`~repro.des.rng` — deterministic per-component random streams.

The kernel is single-threaded and fully deterministic for a given seed;
"parallelism" is simulated concurrency under a virtual clock, which is what
lets the repository reproduce cluster-scale experiments on one machine.

``__all__`` is the surface the rest of ``src/`` uses, and
``scripts/check_api.py`` fails on a name here that nothing outside this
package references; kernel-internal names (``HeapQueue``,
``StopSimulation``, ``child_sequence``, ``spawn_rngs``) import from
their modules.
"""

from repro.des.environment import Environment
from repro.des.events import Event, Timeout
from repro.des.process import Process
from repro.des.rng import RngRegistry, derive_seed, spawn_stream
from repro.des.stores import Store

__all__ = [
    "Environment",
    "Event",
    "Process",
    "RngRegistry",
    "Store",
    "Timeout",
    "derive_seed",
    "spawn_stream",
]
