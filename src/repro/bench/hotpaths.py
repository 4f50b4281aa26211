"""The tracked hot-path workloads.

Each benchmark is a zero-argument callable (built for a given scale) whose
single invocation performs a fixed amount of work and returns the number
of *work units* completed (events, tuples, intervals, samples), so the
harness can derive a throughput next to the raw wall-clock median.

Two paths have a same-code twin whose ratio the harness records: the
campaign fan-out path has a ``*_serial`` twin (the identical workload
with ``jobs=1``, so the file documents what the sharded experiment
engine of :mod:`repro.parallel` gains on the machine that produced it),
and the mini-batched DRNN fit has a ``*_fullbatch`` twin (the same
number of optimizer updates at ``batch_size=n``).
"""

from __future__ import annotations

import os
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple as Tup

import numpy as np

from repro.core.monitor import StatsMonitor
from repro.des.environment import Environment
from repro.des.stores import Store
from repro.models.drnn import DRNNRegressor
from repro.storm.executor import Transport
from repro.storm.metrics import (
    MultilevelSnapshot,
    NodeStats,
    TopologyStats,
    WorkerStats,
)
from repro.storm.topology import TopologyConfig
from repro.storm.tuples import Tuple

#: Per-benchmark workload sizes.  ``smoke`` keeps a full harness run in
#: CI-friendly seconds; ``full`` is the scale quoted in docs/performance.md
#: (the monitor runs at 16 workers x 2000 intervals there).
SCALES: Dict[str, Dict[str, int]] = {
    "smoke": {
        "kernel_procs": 20,
        "kernel_chain": 200,
        "transport_tuples": 2_000,
        "topology_rate": 250,
        "topology_duration": 8,
        "topology_fanout": 64,
        "monitor_workers": 16,
        "monitor_intervals": 200,
        "drnn_samples": 48,
        "drnn_window": 8,
        "drnn_epochs": 2,
        "drnn_hidden": 12,
        "predict_samples": 128,
        "minibatch_samples": 96,
        "minibatch_batch": 16,
        "minibatch_epochs": 2,
        "campaign_runs": 4,
        "campaign_horizon": 30,
        "campaign_rate": 60,
        "report_rate": 150,
        "report_duration": 20,
    },
    "full": {
        "kernel_procs": 50,
        "kernel_chain": 2_000,
        "transport_tuples": 20_000,
        "topology_rate": 350,
        "topology_duration": 20,
        "topology_fanout": 64,
        "monitor_workers": 16,
        "monitor_intervals": 2_000,
        "drnn_samples": 192,
        "drnn_window": 12,
        "drnn_epochs": 6,
        "drnn_hidden": 16,
        "predict_samples": 512,
        "minibatch_samples": 256,
        "minibatch_batch": 32,
        "minibatch_epochs": 3,
        "campaign_runs": 16,
        "campaign_horizon": 60,
        "campaign_rate": 120,
        "report_rate": 250,
        "report_duration": 120,
    },
}


# -- DES event loop ----------------------------------------------------------------


def _kernel_workload(env, n_procs: int, chain: int) -> int:
    """Timeout chains + event ping-pong: the simulator's two wakeup kinds."""

    def ticker(i):
        for _ in range(chain):
            yield env.timeout(0.001 * (1 + i % 3))

    def ping(ev_in, ev_out):
        for _ in range(chain // 2):
            yield ev_in[0]
            ev_in[0] = env.event()
            ev_out[0].succeed()

    for i in range(n_procs):
        env.process(ticker(i))
    a, b = [env.event()], [env.event()]
    env.process(ping(a, b))
    env.process(ping(b, a))
    a[0].succeed()
    env.run()
    return n_procs * chain + chain


def make_des_event_loop(scale: Dict[str, int]) -> Callable[[], int]:
    return lambda: _kernel_workload(
        Environment(), scale["kernel_procs"], scale["kernel_chain"]
    )


# -- transport send/deliver --------------------------------------------------------


def _fake_worker(name: str, node) -> SimpleNamespace:
    return SimpleNamespace(name=name, node=node, crashed=False)


def make_transport_send_deliver(scale: Dict[str, int]) -> Callable[[], int]:
    n_tuples = scale["transport_tuples"]

    def run() -> int:
        env = Environment()
        config = TopologyConfig()
        transport = Transport(
            env, config, ledger=None, rng=np.random.default_rng(0)
        )
        node_a, node_b = SimpleNamespace(name="a"), SimpleNamespace(name="b")
        w0 = _fake_worker("w0", node_a)
        w1 = _fake_worker("w1", node_a)  # same node, different worker
        w2 = _fake_worker("w2", node_b)  # cross node
        workers = [w0, w1, w2]
        for task in range(3):
            transport.register(task, Store(), workers[task])
        tup = Tuple(
            values=("x", 1),
            stream="default",
            source_component="src",
            source_task=0,
        )
        single, batch = n_tuples // 2, n_tuples // 2
        for i in range(single):
            transport.deliver(w0, [(i % 3, tup)])
        for _ in range(batch // 2):
            transport.deliver(w0, [(1, tup), (2, tup)])
        env.run()
        return n_tuples

    return run


# -- end-to-end topology data plane ------------------------------------------------


def _fanout_topology(scale: Dict[str, int]):
    """Build the fan-out roll-up topology the data-plane bench runs.

    ``src --shuffle--> fan --fields--> sink``: every fan execute emits a
    ``topology_fanout``-tuple batch keyed over a small hot key set —
    the same batch-emission shape as URL-count's windowed roll-up
    (tick → top-k partials), distilled so the data plane dominates the
    run.  The sink's queues stay backlogged between batches: the
    drain-and-serve regime (no get events, one delivery event per
    batch, memoized fields routing).
    """
    from repro.storm.api import Bolt, Emission, Spout
    from repro.storm.topology import TopologyBuilder

    fan = int(scale["topology_fanout"])
    rate = float(scale["topology_rate"])

    class BlastSpout(Spout):
        outputs = {"default": ("seq",)}

        def __init__(self) -> None:
            self._seq = 0

        def open(self, context) -> None:
            self.ctx = context

        def inter_arrival(self) -> float:
            return float(
                self.ctx.rng.exponential(self.ctx.parallelism / rate)
            )

        def next_tuple(self) -> Emission:
            self._seq += 1
            return Emission(values=(self._seq,))

    class FanBolt(Bolt):
        outputs = {"default": ("key", "seq")}
        default_cpu_cost = 0.2e-3

        def execute(self, tup, collector) -> None:
            seq = tup.values[0]
            for i in range(fan):
                collector.emit(((seq + i) % 64, seq))

    class SinkBolt(Bolt):
        outputs = {"default": ()}
        default_cpu_cost = 0.05e-3

        def execute(self, tup, collector) -> None:
            pass

    # Deterministic service times: skipping the per-tuple noise draw
    # keeps the timing about the data plane rather than the RNG.
    config = TopologyConfig(
        num_workers=2, tick_interval=0.0, service_noise_sigma=0.0,
    )
    builder = TopologyBuilder()
    builder.set_spout("src", BlastSpout(), parallelism=1)
    builder.set_bolt("fan", FanBolt(), parallelism=2).shuffle_grouping("src")
    builder.set_bolt("sink", SinkBolt(), parallelism=4).fields_grouping(
        "fan", ["key"]
    )
    return builder.build("fanout-rollup", config)


def make_topology_throughput(scale: Dict[str, int]) -> Callable[[], int]:
    """One fan-out roll-up run through the full simulator stack.

    Work units are executed tuple services.
    """
    from repro.storm.builder import SimulationBuilder

    def run() -> int:
        sim = SimulationBuilder(_fanout_topology(scale)).seed(3).build()
        sim.run(float(scale["topology_duration"]))
        return int(
            sum(ex.executed_count for ex in sim.cluster.executors.values())
        )

    return run


# -- report path: span forest + attribution ------------------------------------------


def make_obs_report_build(scale: Dict[str, int]) -> Callable[[], int]:
    """What ``repro-report`` pays on top of a traced run.

    One traced URL Count mini-run is simulated here, outside the timed
    region; every call rebuilds the span forest from its retained
    events, attributes it and renders ``to_dict()``.  Work units are
    trees attributed.
    """
    from repro.apps import RateProfile, build_url_count_topology
    from repro.obs import attribute_forest, build_span_forest
    from repro.storm.builder import SimulationBuilder

    topology = build_url_count_topology(
        RateProfile(base=float(scale["report_rate"])), grouping="shuffle"
    )
    sim = (
        SimulationBuilder(topology)
        .seed(3)
        .observability(trace=True, trace_capacity=1 << 20)
        .build()
    )
    sim.run(float(scale["report_duration"]))
    events = sim.obs.tracer.events()

    def run() -> int:
        summary = attribute_forest(build_span_forest(events))
        summary.to_dict()
        return summary.attributed

    return run


# -- stats monitor -----------------------------------------------------------------


def make_monitor_fixture(
    n_workers: int, n_intervals: int, seed: int = 0
) -> Tup[SimpleNamespace, List[MultilevelSnapshot]]:
    """A fake 4-workers-per-node cluster plus a synthetic snapshot stream."""
    nodes: Dict[str, SimpleNamespace] = {}
    workers = []
    for wid in range(n_workers):
        name = f"node{wid // 4}"
        node = nodes.setdefault(name, SimpleNamespace(name=name))
        workers.append(SimpleNamespace(worker_id=wid, node=node))
    cluster = SimpleNamespace(workers=workers)

    rng = np.random.default_rng(seed)
    snapshots = []
    for k in range(n_intervals):
        wstats = {}
        for wid in range(n_workers):
            executed = int(rng.integers(0, 40))
            wstats[wid] = WorkerStats(
                worker_id=wid,
                node_name=f"node{wid // 4}",
                executed=executed,
                emitted=int(rng.integers(0, 40)),
                avg_process_latency=float(rng.uniform(0.001, 0.05)),
                avg_service_time=float(rng.uniform(0.001, 0.02)),
                queue_len=int(rng.integers(0, 10)),
                backlog=int(rng.integers(0, 20)),
                cpu_share=float(rng.uniform(0.0, 1.0)),
            )
        nstats = {
            name: NodeStats(name=name, cores=4, utilization=float(rng.uniform(0, 1)))
            for name in nodes
        }
        snapshots.append(
            MultilevelSnapshot(
                time=float(k),
                topology=TopologyStats(
                    emit_rate=float(rng.uniform(50, 200)),
                    in_flight=int(rng.integers(0, 100)),
                ),
                nodes=nstats,
                workers=wstats,
            )
        )
    return cluster, snapshots


def _monitor_workload(monitor, snapshots, window: int = 16) -> int:
    """Ingest the stream, probing the control-loop readers as it goes."""
    probe_every = max(1, len(snapshots) // 50)
    for k, snap in enumerate(snapshots):
        monitor.observe(snap)
        if k % probe_every == 0:
            monitor.latest_backlogs()
            monitor.latest_latencies()
            for wid in monitor.worker_ids:
                monitor.latest_window(wid, window)
    for wid in monitor.worker_ids:
        monitor.feature_matrix(wid)
        monitor.target_series(wid)
    return monitor.n_intervals


def make_monitor_observe_extract(scale: Dict[str, int]) -> Callable[[], int]:
    cluster, snapshots = make_monitor_fixture(
        scale["monitor_workers"], scale["monitor_intervals"]
    )
    return lambda: _monitor_workload(StatsMonitor(cluster), snapshots)


# -- DRNN --------------------------------------------------------------------------


def _drnn_data(scale: Dict[str, int], n: int) -> Tup[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(7)
    X = rng.normal(size=(n, scale["drnn_window"], 13))
    y = rng.normal(size=n)
    return X, y


def make_drnn_fit(scale: Dict[str, int]) -> Callable[[], int]:
    X, y = _drnn_data(scale, scale["drnn_samples"])

    def run() -> int:
        model = DRNNRegressor(
            input_dim=13,
            hidden_sizes=(scale["drnn_hidden"], scale["drnn_hidden"]),
            epochs=scale["drnn_epochs"],
            patience=0,  # fixed epoch count: identical work every repeat
            seed=0,
        )
        model.fit(X, y)
        return scale["drnn_samples"] * scale["drnn_epochs"]

    return run


def make_drnn_predict(scale: Dict[str, int]) -> Callable[[], int]:
    X, y = _drnn_data(scale, scale["drnn_samples"])
    model = DRNNRegressor(
        input_dim=13,
        hidden_sizes=(scale["drnn_hidden"], scale["drnn_hidden"]),
        epochs=1,
        patience=0,
        seed=0,
    )
    model.fit(X, y)
    Xp, _ = _drnn_data(scale, scale["predict_samples"])

    def run() -> int:
        model.predict(Xp)
        return scale["predict_samples"]

    return run


def _minibatch_updates(scale: Dict[str, int]) -> int:
    n, B = scale["minibatch_samples"], scale["minibatch_batch"]
    return scale["minibatch_epochs"] * ((n + B - 1) // B)


def make_drnn_minibatch(scale: Dict[str, int]) -> Callable[[], int]:
    """Mini-batched BPTT on the float32 path — the grid-training hotpath.

    Work units are *optimizer updates*: the ``_fullbatch`` twin performs
    the same number of updates with ``batch_size=n`` (each update seeing
    the whole set), so the speedup documents the per-update cost
    advantage of mini-batching at grid-training scale, not a change in
    optimization trajectory length.
    """
    n = scale["minibatch_samples"]
    X, y = _drnn_data(scale, n)
    updates = _minibatch_updates(scale)

    def run() -> int:
        model = DRNNRegressor(
            input_dim=13,
            hidden_sizes=(scale["drnn_hidden"], scale["drnn_hidden"]),
            epochs=scale["minibatch_epochs"],
            batch_size=scale["minibatch_batch"],
            patience=0,  # fixed update count: identical work every repeat
            seed=0,
            dtype="float32",
        )
        model.fit(X, y)
        return updates

    return run


def make_drnn_minibatch_fullbatch(scale: Dict[str, int]) -> Callable[[], int]:
    n = scale["minibatch_samples"]
    X, y = _drnn_data(scale, n)
    updates = _minibatch_updates(scale)

    def run() -> int:
        model = DRNNRegressor(
            input_dim=13,
            hidden_sizes=(scale["drnn_hidden"], scale["drnn_hidden"]),
            epochs=updates,  # one full-batch update per epoch
            batch_size=n,
            patience=0,
            seed=0,
            dtype="float32",
        )
        model.fit(X, y)
        return updates

    return run


# -- sharded chaos-campaign fan-out ------------------------------------------------


def _campaign_workload(scale: Dict[str, int], jobs: int) -> Dict[str, object]:
    """Run a seeded chaos campaign through the sharded engine.

    Imports live inside the function (not at module import) so merely
    loading the benchmark registry stays cheap; the campaign itself is
    byte-identical at any ``jobs``, so the serial twin measures the same
    work.  No cache is attached — a warm cache would make every repeat
    after the first free and the speedup meaningless.
    """
    from repro.experiments.reliability import ChaosTopologyFactory
    from repro.storm.chaos import ChaosCampaign, ChaosSpec

    campaign = ChaosCampaign(
        ChaosTopologyFactory(app="url_count", base_rate=scale["campaign_rate"]),
        ChaosSpec(crashes=1, losses=1),
        seed=11,
        runs=scale["campaign_runs"],
        horizon=scale["campaign_horizon"],
        app="url_count",
    )
    campaign.run(jobs=jobs)
    stats = campaign.last_shard_stats
    return {
        "units": scale["campaign_runs"],
        "jobs": stats.jobs,
        "shard_seconds": list(stats.shard_seconds),
    }


def make_campaign_fanout(scale: Dict[str, int]) -> Callable[[], Dict[str, object]]:
    jobs = int(scale.get("jobs", min(4, os.cpu_count() or 1)))
    return lambda: _campaign_workload(scale, jobs)


def make_campaign_fanout_serial(
    scale: Dict[str, int]
) -> Callable[[], Dict[str, object]]:
    return lambda: _campaign_workload(scale, 1)


#: name -> factory; ``*_serial`` / ``*_fullbatch`` entries are paired
#: with their base name by the harness to derive speedup ratios.
BENCHMARKS: Dict[str, Callable[[Dict[str, int]], Callable[[], int]]] = {
    "des_event_loop": make_des_event_loop,
    "transport_send_deliver": make_transport_send_deliver,
    "topology_throughput": make_topology_throughput,
    "obs_report_build": make_obs_report_build,
    "monitor_observe_extract": make_monitor_observe_extract,
    "drnn_fit": make_drnn_fit,
    "drnn_predict": make_drnn_predict,
    "drnn_minibatch": make_drnn_minibatch,
    "drnn_minibatch_fullbatch": make_drnn_minibatch_fullbatch,
    "campaign_fanout": make_campaign_fanout,
    "campaign_fanout_serial": make_campaign_fanout_serial,
}
