"""Discrete-event simulation (DES) kernel.

This package is the substrate underneath the Storm-like stream-processing
simulator (:mod:`repro.storm`).  It provides a small, deterministic,
generator-coroutine based discrete-event engine in the style of SimPy:

* :class:`~repro.des.environment.Environment` — the event loop and virtual
  clock.
* :class:`~repro.des.events.Event`, :class:`~repro.des.events.Timeout`,
  :class:`~repro.des.events.AnyOf` / :class:`~repro.des.events.AllOf` —
  the primitive things a process can wait on.
* :class:`~repro.des.process.Process` — a generator wrapped into the event
  loop; processes ``yield`` events and are resumed when those events fire.
  Processes can be interrupted (:class:`~repro.des.events.Interrupt`).
* :class:`~repro.des.stores.Store` / :class:`~repro.des.stores.PriorityStore`
  — bounded producer/consumer queues (used for executor input queues).
* :class:`~repro.des.resource.Resource` — counted resource with FIFO waiters.
* :class:`~repro.des.queues.HeapQueue` — the binary-heap event queue.
* :mod:`~repro.des.rng` — deterministic per-component random streams.

The kernel is single-threaded and fully deterministic for a given seed;
"parallelism" is simulated concurrency under a virtual clock, which is what
lets the repository reproduce cluster-scale experiments on one machine.
"""

from repro.des.environment import Environment
from repro.des.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    StopSimulation,
    Timeout,
)
from repro.des.process import Process
from repro.des.queues import HeapQueue
from repro.des.resource import Resource
from repro.des.rng import (
    RngRegistry,
    child_sequence,
    derive_seed,
    spawn_rngs,
    spawn_stream,
)
from repro.des.stores import PriorityItem, PriorityStore, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "HeapQueue",
    "Interrupt",
    "PriorityItem",
    "PriorityStore",
    "Process",
    "Resource",
    "RngRegistry",
    "StopSimulation",
    "Store",
    "Timeout",
    "spawn_rngs",
    "child_sequence",
    "derive_seed",
    "spawn_stream",
]
