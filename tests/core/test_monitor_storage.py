"""Regression and property tests for the array-backed StatsMonitor.

Covers the PR-3 hot-path rewrite: the preallocated time-major storage must
be observationally identical to a naive list-of-rows implementation across
growth boundaries, leading idle intervals must be excluded from training
data, and the control-loop readers must use cached column indices.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PerformancePredictor, StatsMonitor
from repro.core.monitor import _INITIAL_CAPACITY
from repro.models import DRNNRegressor
from repro.models.preprocessing import StandardScaler, make_supervised_windows
from repro.storm.metrics import (
    MultilevelSnapshot,
    NodeStats,
    TopologyStats,
    WorkerStats,
)


def make_monitor_fixture(n_workers, n_intervals, seed=0):
    """A fake 4-workers-per-node cluster plus a synthetic snapshot stream."""
    nodes = {}
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


def naive_histories(
    cluster, snapshots, include_interference=True, target_feature="avg_service_time"
):
    """Reference implementation: plain per-worker lists of rows.

    Mirrors the documented semantics (sorted-worker iteration, per-node
    totals accumulated in that order, ``total - own`` co-location values,
    carry-forward targets, leading-idle padding with 0.0).
    """
    worker_ids = sorted(w.worker_id for w in cluster.workers)
    node_of = {w.worker_id: w.node.name for w in cluster.workers}
    rows = {wid: [] for wid in worker_ids}
    targets = {wid: [] for wid in worker_ids}
    last = {wid: 0.0 for wid in worker_ids}
    first_real = {wid: None for wid in worker_ids}
    for k, snap in enumerate(snapshots):
        node_tot = {}
        for wid in worker_ids:
            ws = snap.workers[wid]
            tot = node_tot.setdefault(node_of[wid], [0.0, 0, 0])
            tot[0] += ws.cpu_share
            tot[1] += ws.executed
            tot[2] += ws.backlog
        for wid in worker_ids:
            ws = snap.workers[wid]
            row = [
                ws.executed,
                ws.emitted,
                ws.avg_process_latency,
                ws.avg_service_time,
                ws.queue_len,
                ws.backlog,
                ws.cpu_share,
            ]
            if include_interference:
                tot = node_tot[node_of[wid]]
                row += [
                    snap.nodes[node_of[wid]].utilization,
                    tot[0] - ws.cpu_share,
                    tot[1] - ws.executed,
                    tot[2] - ws.backlog,
                ]
            row += [snap.topology.emit_rate, float(snap.topology.in_flight)]
            rows[wid].append(row)
            if ws.executed > 0:
                targets[wid].append(getattr(ws, target_feature))
                if first_real[wid] is None:
                    first_real[wid] = k
            else:
                targets[wid].append(last[wid])
            last[wid] = targets[wid][-1]
    return rows, targets, first_real


@settings(max_examples=15, deadline=None)
@given(
    n_workers=st.integers(1, 6),
    n_intervals=st.integers(1, 2 * _INITIAL_CAPACITY + 9),
    seed=st.integers(0, 10),
    interference=st.booleans(),
)
def test_monitor_matches_naive_reference(n_workers, n_intervals, seed, interference):
    cluster, snapshots = make_monitor_fixture(n_workers, n_intervals, seed=seed)
    monitor = StatsMonitor(cluster, include_interference=interference)
    monitor.observe_all(snapshots)
    rows, targets, first_real = naive_histories(
        cluster, snapshots, include_interference=interference
    )
    assert monitor.n_intervals == n_intervals
    for wid in monitor.worker_ids:
        ref_F = np.asarray(rows[wid], dtype=float)
        ref_t = np.asarray(targets[wid], dtype=float)
        assert np.array_equal(monitor.feature_matrix(wid), ref_F)
        assert np.array_equal(monitor.target_series(wid), ref_t)
        assert monitor.first_real_interval(wid) == first_real[wid]
        w = min(5, n_intervals)
        window = monitor.latest_window(wid, w)
        assert window is not None
        assert np.array_equal(window, ref_F[n_intervals - w :])
    backlog_col = monitor.feature_names.index("backlog")
    assert monitor.latest_backlogs() == {
        wid: rows[wid][-1][backlog_col] for wid in monitor.worker_ids
    }
    assert monitor.latest_latencies() == {
        wid: targets[wid][-1] for wid in monitor.worker_ids
    }


@settings(max_examples=10, deadline=None)
@given(
    n_workers=st.integers(1, 4),
    n_intervals=st.integers(12, _INITIAL_CAPACITY + 40),
    seed=st.integers(0, 5),
)
def test_pooled_training_data_matches_naive_reference(n_workers, n_intervals, seed):
    window, horizon = 3, 1
    cluster, snapshots = make_monitor_fixture(n_workers, n_intervals, seed=seed)
    monitor = StatsMonitor(cluster)
    monitor.observe_all(snapshots)
    rows, targets, first_real = naive_histories(cluster, snapshots)
    xs, ys = [], []
    for wid in monitor.worker_ids:
        start = first_real[wid]
        if start is None:
            continue
        F = np.asarray(rows[wid][start:], dtype=float)
        t = np.asarray(targets[wid][start:], dtype=float)
        if F.shape[0] < window + horizon:
            continue
        X, y = make_supervised_windows(F, t, window=window, horizon=horizon)
        xs.append(X)
        ys.append(y)
    if not xs:
        with pytest.raises(ValueError):
            monitor.pooled_training_data(window=window, horizon=horizon)
        return
    X, y = monitor.pooled_training_data(window=window, horizon=horizon)
    assert np.array_equal(X, np.concatenate(xs, axis=0))
    assert np.array_equal(y, np.concatenate(ys, axis=0))


def _silence_worker(snapshots, wid, upto):
    """Zero out a worker's activity in the first ``upto`` snapshots."""
    for snap in snapshots[:upto]:
        ws = snap.workers[wid]
        ws.executed = 0
        ws.avg_service_time = 0.0
        ws.avg_process_latency = 0.0


def test_leading_idle_intervals_excluded_from_training():
    # Regression: a worker idle for its first k intervals used to
    # contribute supervised windows whose targets were the 0.0 padding,
    # teaching the model a fictitious zero-latency regime.
    cluster, snapshots = make_monitor_fixture(2, 30, seed=3)
    for snap in snapshots:  # ensure both workers are otherwise active
        for ws in snap.workers.values():
            ws.executed = max(ws.executed, 1)
            ws.avg_service_time = max(ws.avg_service_time, 1e-4)
    _silence_worker(snapshots, wid=0, upto=7)
    monitor = StatsMonitor(cluster)
    monitor.observe_all(snapshots)
    assert monitor.first_real_interval(0) == 7
    assert monitor.first_real_interval(1) == 0
    # The reported series still cover every interval (alignment holds) …
    assert np.all(monitor.target_series(0)[:7] == 0.0)
    assert monitor.target_series(0).shape == (30,)
    # … but the padded prefix never becomes training rows.
    window, horizon = 4, 1
    X, y = monitor.pooled_training_data(window=window, horizon=horizon)
    expected = (30 - 7 - window) + (30 - window)  # worker 0 + worker 1
    assert X.shape[0] == expected
    assert np.all(y > 0.0)


def test_never_executed_worker_contributes_no_training_rows():
    cluster, snapshots = make_monitor_fixture(2, 20, seed=1)
    for snap in snapshots:
        snap.workers[1].executed = max(snap.workers[1].executed, 1)
        snap.workers[1].avg_service_time = max(
            snap.workers[1].avg_service_time, 1e-4
        )
    _silence_worker(snapshots, wid=0, upto=len(snapshots))
    monitor = StatsMonitor(cluster)
    monitor.observe_all(snapshots)
    assert monitor.first_real_interval(0) is None
    X, y = monitor.pooled_training_data(window=4)
    assert X.shape[0] == 20 - 4  # worker 1 only
    assert np.all(y > 0.0)


def test_latest_backlogs_uses_cached_column_indices():
    # Regression: latest_backlogs() used to call
    # feature_names.index("backlog") once per worker per control tick.
    for interference in (True, False):
        cluster, snapshots = make_monitor_fixture(4, 10, seed=2)
        monitor = StatsMonitor(cluster, include_interference=interference)
        assert monitor._backlog_col == monitor.feature_names.index("backlog")
        assert monitor._col == {
            name: i for i, name in enumerate(monitor.feature_names)
        }
        monitor.observe_all(snapshots)
        expect = {
            wid: float(snapshots[-1].workers[wid].backlog)
            for wid in monitor.worker_ids
        }
        assert monitor.latest_backlogs() == expect


def test_extraction_views_are_readonly():
    cluster, snapshots = make_monitor_fixture(2, 8, seed=0)
    monitor = StatsMonitor(cluster)
    monitor.observe_all(snapshots)
    wid = monitor.worker_ids[0]
    for arr in (
        monitor.feature_matrix(wid),
        monitor.target_series(wid),
        monitor.latest_window(wid, 4),
    ):
        with pytest.raises(ValueError):
            arr[..., 0] = 1.0


def test_scaler_fit_excludes_validation_tail():
    # Regression: PerformancePredictor.fit used to fit its scalers on all
    # rows, leaking the model's chronological validation tail into the
    # normalisation statistics.
    rng = np.random.default_rng(0)
    n, T, d = 40, 4, 3
    X = rng.normal(size=(n, T, d))
    y = rng.normal(size=n)
    X[-10:] += 100.0  # make any leakage glaring
    y[-10:] += 100.0
    model = DRNNRegressor(
        input_dim=d, hidden_sizes=(4,), epochs=1,
        patience=2, val_fraction=0.25, seed=0,
    )
    pred = PerformancePredictor(model, window=T)
    assert pred._holdout_size(n) == 10
    pred.fit(X, y)
    n_train = n - 10
    ref_x = StandardScaler().fit(X[:n_train].reshape(n_train * T, d))
    ref_y = StandardScaler().fit(y[:n_train])
    np.testing.assert_array_equal(pred.scaler_x.mean_, ref_x.mean_)
    np.testing.assert_array_equal(pred.scaler_x.std_, ref_x.std_)
    np.testing.assert_array_equal(pred.scaler_y.mean_, ref_y.mean_)
    leaky = StandardScaler().fit(X.reshape(n * T, d))
    assert not np.allclose(pred.scaler_x.mean_, leaky.mean_)


def test_holdout_size_mirrors_drnn_split():
    model = DRNNRegressor(input_dim=2, patience=3, val_fraction=0.2)
    pred = PerformancePredictor(model, window=2)
    for n in (3, 5, 10, 50):
        n_val = max(1, int(n * model.val_fraction))
        if n - n_val < 2:
            n_val = 0
        assert pred._holdout_size(n) == n_val
    model_no_es = DRNNRegressor(input_dim=2, patience=0)
    assert PerformancePredictor(model_no_es, window=2)._holdout_size(50) == 0


def test_predictor_round_trip_on_array_storage():
    cluster, snapshots = make_monitor_fixture(4, 60, seed=4)
    monitor = StatsMonitor(cluster)
    monitor.observe_all(snapshots)
    model = DRNNRegressor(
        input_dim=len(monitor.feature_names),
        hidden_sizes=(8,), epochs=3, patience=0, seed=0,
    )
    pred = PerformancePredictor(model, window=5).fit_from_monitor(monitor)
    out = pred.predict_workers(monitor)
    assert set(out) == set(monitor.worker_ids)
    assert all(np.isfinite(v) and v >= 0.0 for v in out.values())
