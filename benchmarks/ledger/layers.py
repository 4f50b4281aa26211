"""Outside-in layer timing: wrappers on public entry points, spans in arrays.

A traced run installs timing wrappers on a fixed table of the program's
public entry points (``ENTRY_POINTS`` and friends below) *before* the
simulation is built: executor run loops hoist bound methods into locals
and compiled routers are bound at wire time, so a wrapper installed
later would be bypassed.  Every wrapped call records one span — name,
start, end, parent — into preallocated arrays; nothing is reduced until
the iteration is over.

A span's *self time* is its duration minus the part its child spans
cover.  Self times are exclusive, so summed over every span they equal
the root span's duration: the per-layer numbers add up to the traced
wall, and the root's own self time is what no wrapper covered
(``trace.unattributed_s``).

Generator processes (executor run loops, the metrics sampler, the ack
sweeper, fault drivers, the controller loop) are timed per resumption:
``Environment.process`` is the one public door every process enters
through, so its wrapper delegates to the generator and records one span
per ``send``, named after the process-name prefix.

Known bias: a span's wrapper prologue/epilogue (a few hundred ns) lands
in its *parent's* self time, so layers that make many cheap wrapped
calls (executor resumes calling node/acker) read high in the traced run.
``trace.overhead_frac`` states the total cost.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

#: (owner, attribute, span name).  ``owner`` is ``module`` for a
#: module-level function or ``module:Class`` for a method.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.des.environment:Environment", "run", "des.run"),
    ("repro.storm.builder:SimulationBuilder", "build", "setup.build"),
    # what StormSimulation.run does besides Environment.run is assembling
    # the SimulationResult from the collector's snapshots and completions
    ("repro.storm.runner:StormSimulation", "run", "storm.metrics.collect"),
    ("repro.storm.executor:Transport", "deliver", "storm.transport.deliver"),
    ("repro.storm.acker:AckLedger", "init_tree", "storm.acker.init_tree"),
    ("repro.storm.acker:AckLedger", "emit", "storm.acker.emit"),
    ("repro.storm.acker:AckLedger", "ack", "storm.acker.ack"),
    ("repro.storm.acker:AckLedger", "fail", "storm.acker.fail"),
    ("repro.storm.node:Node", "service_started", "storm.node.service_started"),
    ("repro.storm.node:Node", "service_finished", "storm.node.service_finished"),
    ("repro.storm.cluster:Cluster", "set_split_ratios", "storm.grouping.set_ratios"),
    ("repro.core.monitor:StatsMonitor", "observe", "core.monitor.observe"),
    ("repro.core.monitor:StatsMonitor", "latest_window", "core.monitor.latest_window"),
    ("repro.core.monitor:StatsMonitor", "latest_backlogs", "core.monitor.latest_backlogs"),
    ("repro.core.monitor:StatsMonitor", "latest_latencies", "core.monitor.latest_latencies"),
    ("repro.core.monitor:StatsMonitor", "pooled_training_data", "core.monitor.training_data"),
    ("repro.core.predictor:PerformancePredictor", "predict_workers", "core.predictor.predict"),
    ("repro.core.predictor:PerformancePredictor", "fit", "core.predictor.fit"),
    ("repro.core.retraining:RetrainingPredictor", "maybe_retrain", "core.predictor.refit"),
    ("repro.core.detector:MisbehaviorDetector", "update", "core.detector.update"),
    ("repro.core.planner:SplitRatioPlanner", "plan", "core.planner.plan"),
    ("repro.models.drnn:DRNNRegressor", "fit", "models.drnn.fit"),
    ("repro.models.drnn:DRNNRegressor", "predict", "models.drnn.predict"),
    ("repro.models.arima:Arima", "fit", "models.arima.fit"),
    ("repro.models.arima:Arima", "forecast_from", "models.arima.predict"),
    ("repro.models.svr:SVRegressor", "fit", "models.svr.fit"),
    ("repro.models.svr:SVRegressor", "predict", "models.svr.predict"),
    ("repro.obs.tracer:Tracer", "record", "obs.tracer.record"),
    ("repro.obs.tracer:Tracer", "events", "obs.tracer.events"),
    ("repro.obs.spans", "build_span_forest", "obs.spans.build"),
    ("repro.obs.attribution", "attribute_forest", "obs.attribution.attribute"),
    ("repro.obs.attribution:AttributionSummary", "to_dict", "obs.attribution.to_dict"),
    ("repro.obs.attribution:AttributionSummary", "publish", "obs.attribution.publish"),
    ("repro.obs.audit:DecisionAudit", "from_events", "obs.audit.from_events"),
    ("repro.obs.audit:DecisionAudit", "summary", "obs.audit.summary"),
    ("repro.obs.metrics:MetricsRegistry", "to_dict", "obs.metrics.export"),
    ("repro.obs.report", "build_report", "obs.report.build"),
    ("repro.obs.report", "report_to_json", "obs.report.to_json"),
)

#: (base class, methods): wrapped on the base and on every loaded
#: subclass that overrides them — the apps are subclasses of these.
APP_ENTRY_POINTS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("repro.storm.api:Bolt", ("execute", "tick", "cpu_cost")),
    ("repro.storm.api:Spout", ("next_tuple", "inter_arrival", "ack", "fail")),
)

#: ``compile_router`` returns the per-tuple routing closure; the wrapper
#: times the closure it returns, not the (one-off) compilation.
ROUTER_FACTORY = ("repro.storm.grouping:Grouping", "compile_router")
ROUTE_SPAN = "storm.grouping.route"

#: every generator process enters the kernel through this method
PROCESS_FACTORY = ("repro.des.environment:Environment", "process")
#: every simulation is materialised through this method
SIM_FACTORY = ("repro.storm.builder:SimulationBuilder", "build")

#: process-name prefix -> span name of one resumption of that process
PROCESS_SPANS: Tuple[Tuple[str, str], ...] = (
    ("spout-", "storm.executor.resume"),
    ("bolt-", "storm.executor.resume"),
    ("tick-", "storm.executor.resume"),
    ("metrics-collector", "storm.metrics.sample"),
    ("ack-sweeper", "storm.acker.sweep"),
    ("fault-", "storm.faults.resume"),
    ("predictive-controller", "core.controller.resume"),
    ("predictor-retrain", "core.controller.resume"),
)
OTHER_PROCESS_SPAN = "des.process"

#: the root span: run.py wraps one traced iteration in it
ROOT_SPAN = "iteration"

#: span-name prefix -> the per-layer metric its self time is summed into
#: (first match wins; ``ROOT_SPAN`` maps to ``trace.unattributed_s``); a
#: ``_ms`` metric is reported in milliseconds, the rest in seconds
LAYER_OF_SPAN: Tuple[Tuple[str, str], ...] = (
    ("des.", "des.self_s"),
    ("setup.build", "setup.build_s"),
    ("storm.executor.", "storm.executor.self_s"),
    ("storm.transport.", "storm.transport.self_s"),
    ("storm.grouping.", "storm.grouping.self_s"),
    ("storm.acker.", "storm.acker.self_s"),
    ("storm.node.", "storm.node.self_s"),
    ("storm.metrics.", "storm.metrics.self_s"),
    ("storm.faults.", "storm.faults.self_s"),
    ("apps.", "apps.self_s"),
    ("core.monitor.", "core.monitor.self_s"),
    ("core.predictor.predict", "core.predictor.predict_s"),
    ("core.predictor.", "core.predictor.fit_s"),
    ("core.detector.", "core.detector.self_s"),
    ("core.planner.", "core.planner.self_s"),
    ("core.controller.", "core.controller.self_s"),
    ("models.drnn.fit", "models.drnn.fit_s"),
    ("models.arima.fit", "models.arima.fit_s"),
    ("models.svr.fit", "models.svr.fit_s"),
    ("models.drnn.predict", "models.drnn.predict_ms"),
    ("models.arima.predict", "models.arima.predict_ms"),
    ("models.svr.predict", "models.svr.predict_ms"),
    ("models.", "models.eval_s"),
    ("obs.tracer.", "obs.tracer.self_s"),
    ("obs.spans.", "obs.spans.build_s"),
    ("obs.attribution.", "obs.attribution.self_s"),
    ("obs.audit.", "obs.audit.self_s"),
    ("obs.metrics.", "obs.metrics.export_s"),
    ("obs.report.", "obs.report.build_s"),
    (ROOT_SPAN, "trace.unattributed_s"),
)


class SpanLog:
    """Span storage: parallel arrays, grown by doubling when full."""

    def __init__(self, capacity: int = 1 << 20) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("h", bytes(2 * capacity))
        self.parent = array("i", bytes(4 * capacity))
        self.start = array("d", bytes(8 * capacity))
        self.end = array("d", bytes(8 * capacity))
        #: [next free index, innermost open span (-1 = none)]; a list so
        #: the wrapper closures share it without attribute lookups
        self.state = [0, -1]
        #: deepest event queue seen at a process resumption
        self.queue_depth_max = [0]
        #: simulations built while tracing (for their program counters)
        self.sims: List[Any] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def grow(self) -> None:
        for arr in (self.name, self.parent, self.start, self.end):
            arr.frombytes(bytes(arr.itemsize * len(arr)))

    def __len__(self) -> int:
        return self.state[0]

    # -- wrappers -------------------------------------------------------------

    def timed(self, span: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record one span named ``span`` per call."""
        nid = self.name_id(span)
        st, par, nam, t0, t1 = (
            self.state, self.parent, self.name, self.start, self.end
        )
        grow = self.grow
        clock = perf_counter

        def wrapper(*args, **kwargs):
            i = st[0]
            try:
                par[i] = st[1]
            except IndexError:
                grow()
                par[i] = st[1]
            st[0] = i + 1
            st[1] = i
            nam[i] = nid
            t0[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                st[1] = par[i]

        return wrapper

    def timed_generator(self, gen, span: str, env) -> Iterator:
        """Delegate to ``gen``, recording one span per resumption."""
        step = self.timed(span, _advance)
        depth_max = self.queue_depth_max
        value: Any = None
        exc: Any = None
        while True:
            depth = env.queue_depth
            if depth > depth_max[0]:
                depth_max[0] = depth
            try:
                yielded = step(gen, value, exc)
            except StopIteration as stop:
                return stop.value
            value = exc = None
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:  # forwarded into ``gen`` next turn
                exc = thrown

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """``(self seconds, span count)`` per span name."""
        n = len(self)
        name = np.frombuffer(self.name, dtype=np.int16, count=n).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = (
            np.frombuffer(self.end, dtype=np.float64, count=n)
            - np.frombuffer(self.start, dtype=np.float64, count=n)
        )
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n
        )
        k = len(self.names)
        self_s = np.bincount(name, weights=dur - covered, minlength=k)
        calls = np.bincount(name, minlength=k)
        return (
            dict(zip(self.names, self_s.tolist())),
            dict(zip(self.names, calls.tolist())),
        )

    def save(self, path: str) -> None:
        """Write the raw spans (``numpy.load``-able) for offline study."""
        n = len(self)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int16, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            start=np.frombuffer(self.start, dtype=np.float64, count=n),
            end=np.frombuffer(self.end, dtype=np.float64, count=n),
        )


def _advance(gen, value, exc):
    return gen.send(value) if exc is None else gen.throw(exc)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _subclasses(cls) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _process_span(label: str) -> str:
    for prefix, span in PROCESS_SPANS:
        if label.startswith(prefix):
            return span
    return OTHER_PROCESS_SPAN


def _patch(undo: List, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    raw = vars(owner)[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        new: Any = type(raw)(make(raw.__func__))
    else:
        new = make(raw)
    undo.append((owner, attr, raw))
    setattr(owner, attr, new)


def install(log: SpanLog) -> List[Tuple[Any, str, Any]]:
    """Wrap every entry point in the tables above; returns the undo list."""
    importlib.import_module("repro.apps")  # load the Bolt/Spout subclasses
    undo: List[Tuple[Any, str, Any]] = []
    for owner, attr, span in ENTRY_POINTS:
        _patch(undo, _resolve(owner), attr, lambda fn, s=span: log.timed(s, fn))
    for base, attrs in APP_ENTRY_POINTS:
        for cls in _subclasses(_resolve(base)):
            for attr in attrs:
                if attr in vars(cls):
                    _patch(
                        undo, cls, attr,
                        lambda fn, s=f"apps.{attr}": log.timed(s, fn),
                    )
    factory_owner, factory_attr = ROUTER_FACTORY
    for cls in _subclasses(_resolve(factory_owner)):
        if factory_attr in vars(cls):
            _patch(undo, cls, factory_attr, lambda fn: _router_factory(fn, log))
    _patch(undo, _resolve(PROCESS_FACTORY[0]), PROCESS_FACTORY[1],
           lambda fn: _process_factory(fn, log))
    # a second wrapper on build(): keeps the simulation for its counters
    _patch(undo, _resolve(SIM_FACTORY[0]), SIM_FACTORY[1],
           lambda fn: _keep_sims(fn, log))
    return undo


def uninstall(undo: List[Tuple[Any, str, Any]]) -> None:
    while undo:
        owner, attr, raw = undo.pop()
        setattr(owner, attr, raw)


def _router_factory(compile_router: Callable, log: SpanLog) -> Callable:
    def wrapper(self, **ctx):
        return log.timed(ROUTE_SPAN, compile_router(self, **ctx))

    return wrapper


def _process_factory(process: Callable, log: SpanLog) -> Callable:
    def wrapper(self, generator, name=None):
        label = name or getattr(generator, "__name__", "process")
        timed = log.timed_generator(generator, _process_span(label), self)
        return process(self, timed, name=label)

    return wrapper


def _keep_sims(build: Callable, log: SpanLog) -> Callable:
    def wrapper(self):
        sim = build(self)
        if not any(sim is s for s in log.sims):
            log.sims.append(sim)
        return sim

    return wrapper


def wrapped_entry_points() -> List[str]:
    """Entry points currently carrying a wrapper (empty when untraced)."""
    found = []
    for owner, attr in [(o, a) for o, a, _ in ENTRY_POINTS] + [PROCESS_FACTORY]:
        raw = vars(_resolve(owner))[attr]
        if getattr(raw, "__func__", raw).__module__ == __name__:
            found.append(f"{owner}.{attr}")
    return found


def layer_of(span: str) -> str:
    for prefix, metric in LAYER_OF_SPAN:
        if span.startswith(prefix):
            return metric
    raise KeyError(f"span {span!r} belongs to no layer")


def reduce(log: SpanLog) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration.

    Self times per layer, call counts per boundary, and the program's own
    counters read off the simulations built while tracing.
    """
    self_s, calls = log.self_times()
    out: Dict[str, float] = {metric: 0.0 for _, metric in LAYER_OF_SPAN}
    for span, seconds in self_s.items():
        metric = layer_of(span)
        out[metric] += 1e3 * seconds if metric.endswith("_ms") else seconds

    def count(*spans: str) -> int:
        return sum(calls.get(s, 0) for s in spans)

    sims = log.sims
    executors = [ex for sim in sims for ex in sim.cluster.executors.values()]
    ledgers = [sim.cluster.ledger for sim in sims]
    transports = [sim.cluster.transport for sim in sims]
    tracers = [sim.obs.tracer for sim in sims if sim.obs.tracer is not None]
    sent = sum(t.sent_count for t in transports)
    lost = sum(t.lost_count for t in transports)
    out.update({
        "des.events": sum(sim.env.scheduled_count for sim in sims),
        "des.queue_depth_max": log.queue_depth_max[0],
        "storm.executor.resumes": count("storm.executor.resume"),
        "storm.executor.tuples_executed": sum(
            ex.executed_count for ex in executors
        ),
        "storm.transport.deliver_calls": count("storm.transport.deliver"),
        "storm.transport.tuples_delivered": sent - lost,
        "storm.transport.tuples_lost": lost,
        "storm.grouping.routes": count(ROUTE_SPAN),
        "storm.acker.calls": count(
            "storm.acker.init_tree", "storm.acker.emit",
            "storm.acker.ack", "storm.acker.fail",
        ),
        "storm.acker.trees_acked": sum(l.acked_count for l in ledgers),
        "storm.acker.trees_failed": sum(l.failed_count for l in ledgers),
        "storm.acker.replays": sum(
            getattr(ex, "replayed_count", 0) for ex in executors
        ),
        "storm.node.calls": count(
            "storm.node.service_started", "storm.node.service_finished"
        ),
        "storm.metrics.samples": sum(len(sim.metrics.snapshots) for sim in sims),
        "storm.faults.injected": sum(len(sim.fault_injector.log) for sim in sims),
        "apps.execute_calls": count("apps.execute"),
        "apps.spout_emits": count("apps.next_tuple"),
        "core.monitor.intervals": count("core.monitor.observe"),
        "core.predictor.predict_calls": count("core.predictor.predict"),
        "core.predictor.fits": count("core.predictor.fit"),
        "core.planner.plans": count("core.planner.plan"),
        "core.controller.steps": count(
            "core.controller.step", "core.controller.resume"
        ),
        "obs.tracer.records": count("obs.tracer.record"),
        "obs.tracer.dropped": sum(t.dropped for t in tracers),
    })
    return {k: float(v) for k, v in out.items()}
