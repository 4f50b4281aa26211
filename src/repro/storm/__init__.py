"""A Storm-like Distributed Stream Data Processing System (DSDPS) simulator.

This package reproduces, on top of the :mod:`repro.des` kernel, the exact
surfaces of Apache Storm that the paper's predictive control framework
observes and manipulates:

* **Topology API** (:mod:`~repro.storm.topology`, :mod:`~repro.storm.api`) —
  spouts, bolts, streams, parallelism hints, declared groupings; mirrors
  Storm's ``TopologyBuilder``.
* **Stream groupings** (:mod:`~repro.storm.grouping`) — shuffle, fields,
  global, and the paper's **dynamic grouping** (arbitrary split ratios,
  changeable on the fly); each is one compiled routing closure.
* **Reliability machinery** (:mod:`~repro.storm.acker`) — XOR tuple-tree
  ledger, message timeouts, replay; gives at-least-once semantics.
* **Execution model** (:mod:`~repro.storm.executor`,
  :mod:`~repro.storm.worker`, :mod:`~repro.storm.node`) — executors with
  bounded input queues, worker processes that co-locate executors, and
  nodes whose CPUs are *shared* between co-located workers (the
  interference the paper's DRNN must learn).
* **Cluster & scheduling** (:mod:`~repro.storm.cluster`) — supervisors/slots
  and a Storm-style even scheduler.
* **Multilevel runtime statistics** (:mod:`~repro.storm.metrics`) — the
  node/worker/executor/topology-level counters the controller samples.
* **Fault injection** (:mod:`~repro.storm.faults`) — misbehaving workers
  (slowdowns, CPU-hog neighbours, pauses, crashes) and network chaos
  (message loss, delay jitter) on a schedule; compositional reverts.
* **Chaos campaigns** (:mod:`~repro.storm.chaos`) — seeded batches of
  fault-schedule-sampled runs reduced to degradation/recovery reports,
  replayable from ``(seed, spec)`` alone.
* **Runner & builder** (:mod:`~repro.storm.runner`,
  :mod:`~repro.storm.builder`) — one-call simulation harness behind the
  fluent :class:`SimulationBuilder`, plus per-segment
  :class:`SimulationResult` summaries and named :class:`Series`.
"""

from repro.storm.acker import AckLedger
from repro.storm.api import Bolt, Emission, OutputCollector, Spout, TopologyContext
from repro.storm.builder import SimulationBuilder
from repro.storm.chaos import (
    CampaignReport,
    ChaosCampaign,
    ChaosRunReport,
    ChaosSpec,
    sample_schedule,
)
from repro.storm.cluster import Cluster, EvenScheduler, NodeSpec
from repro.storm.elastic import ElasticScheduler, MembershipEvent
from repro.storm.faults import (
    CpuHogFault,
    FaultInjector,
    MessageLossFault,
    NetworkDelayFault,
    PauseFault,
    RampingHogFault,
    SlowdownFault,
    WorkerCrashFault,
)
from repro.storm.grouping import (
    DynamicGrouping,
    FieldsGrouping,
    GlobalGrouping,
    ShuffleGrouping,
)
from repro.storm.metrics import MetricsCollector, MultilevelSnapshot
from repro.storm.node import Node
from repro.storm.schedulers import PackingScheduler, ResourceAwareScheduler
from repro.storm.runner import Series, SimulationResult, StormSimulation
from repro.storm.topology import Topology, TopologyBuilder, TopologyConfig
from repro.storm.tuples import Tuple

__all__ = [
    "AckLedger",
    "Bolt",
    "CampaignReport",
    "ChaosCampaign",
    "ChaosRunReport",
    "ChaosSpec",
    "Cluster",
    "CpuHogFault",
    "DynamicGrouping",
    "ElasticScheduler",
    "Emission",
    "EvenScheduler",
    "FaultInjector",
    "MembershipEvent",
    "FieldsGrouping",
    "GlobalGrouping",
    "MessageLossFault",
    "MetricsCollector",
    "MultilevelSnapshot",
    "NetworkDelayFault",
    "Node",
    "NodeSpec",
    "OutputCollector",
    "PackingScheduler",
    "PauseFault",
    "RampingHogFault",
    "ResourceAwareScheduler",
    "Series",
    "ShuffleGrouping",
    "SimulationBuilder",
    "SimulationResult",
    "SlowdownFault",
    "Spout",
    "StormSimulation",
    "Topology",
    "TopologyBuilder",
    "TopologyConfig",
    "TopologyContext",
    "Tuple",
    "WorkerCrashFault",
    "sample_schedule",
]
