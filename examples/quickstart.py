#!/usr/bin/env python
"""Quickstart: build a topology, run it, attach the predictive framework.

This walks the three layers of the library in ~80 lines:

1. declare a topology on the Storm-like API (spout -> bolt -> bolt);
2. simulate it on a small cluster and read the multilevel statistics;
3. inject a misbehaving worker and let the predictive controller route
   tuples around it via dynamic grouping.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import ControllerConfig, PerformancePredictor, PredictiveController
from repro.storm import (
    Bolt,
    Emission,
    NodeSpec,
    SimulationBuilder,
    SlowdownFault,
    Spout,
    TopologyBuilder,
    TopologyConfig,
)


class NumberSpout(Spout):
    """Emits consecutive integers at ~200 tuples/s."""

    outputs = {"default": ("n",)}

    def __init__(self):
        self.i = 0

    def open(self, ctx):
        self.rng = ctx.rng

    def inter_arrival(self):
        return float(self.rng.exponential(1.0 / 200.0))

    def next_tuple(self):
        self.i += 1
        return Emission(values=(self.i,), msg_id=self.i)


class SquareBolt(Bolt):
    """A compute stage: squares its input (≈2 ms of CPU per tuple)."""

    outputs = {"default": ("n", "squared")}
    default_cpu_cost = 2e-3

    def execute(self, tup, collector):
        collector.emit((tup[0], tup[0] ** 2), anchors=[tup])


class SumBolt(Bolt):
    """A cheap sink accumulating a running sum."""

    outputs = {}
    default_cpu_cost = 0.2e-3

    def __init__(self):
        self.total = 0

    def execute(self, tup, collector):
        self.total += tup.value("squared")


def main() -> None:
    # 1. Topology: the squaring stage is fed by DYNAMIC grouping, the
    #    control surface of the predictive framework.
    builder = TopologyBuilder()
    builder.set_spout("numbers", NumberSpout(), parallelism=1)
    builder.set_bolt("square", SquareBolt(), parallelism=4).dynamic_grouping(
        "numbers"
    )
    builder.set_bolt("sum", SumBolt(), parallelism=1).shuffle_grouping("square")
    topology = builder.build("quickstart", TopologyConfig(num_workers=4))

    # 2. Cluster: two 4-core nodes, two worker slots each -> co-located
    #    workers that interfere through the shared CPUs.
    nodes = [NodeSpec("alpha", cores=4, slots=2), NodeSpec("beta", cores=4, slots=2)]

    # 3. Misbehaviour: worker 1 slows down 20x between t=60 and t=150.
    fault = SlowdownFault(start=60, duration=90, worker_id=1, factor=20)

    sim = (
        SimulationBuilder(topology)
        .nodes(nodes)
        .seed(7)
        .faults(fault)
        # Reactive predictor for the quickstart (no training run needed);
        # see examples/url_count_reliability.py for the DRNN version.
        .controller(PredictiveController(
            PerformancePredictor(None, window=4),
            ControllerConfig(control_interval=5.0, window=4),
        ))
        .build()
    )
    controller = sim.controller

    result = sim.run(duration=210)

    print(f"acked tuples      : {result.acked}")
    print(f"failed tuples     : {result.failed}")
    print(f"mean throughput   : {result.mean_throughput(after=10):8.1f} tuples/s")
    print(f"p99 complete lat. : {result.latency_percentile(0.99) * 1e3:8.2f} ms")
    print()
    print("controller decisions (time, worker, event):")
    for t, worker, event in controller.flag_intervals():
        print(f"  t={t:6.1f}s  worker {worker}  {event.upper()}")
    print()
    final = controller.actions[-1].ratios[("numbers", "square", "default")]
    print("final split ratios over the 4 square tasks:", np.round(final, 3))
    thr = result.throughput_series()
    during = thr.y[(thr.t > 70) & (thr.t <= 150)].mean()
    print(f"throughput during the fault window: {during:.1f} tuples/s "
          "(the framework keeps it near the offered 200/s)")


if __name__ == "__main__":
    main()
