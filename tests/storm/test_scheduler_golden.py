"""Cluster-scale golden pin: the 100-node / 2000-executor summary.

A 100-node / 2000-executor URL-count run must reproduce
``tests/golden/cluster_scale.json`` exactly — the largest topology in
the suite, pinned so a kernel or data-plane change cannot trade
determinism for speed at the scale where event density is highest.
(The chaos-smoke and online-retraining goldens are replayed in
``test_chaos_golden.py`` and ``tests/parallel/test_equivalence.py``.)

Regenerate ``cluster_scale.json`` by running ``_cluster_summary`` and
dumping it with ``json.dump(..., sort_keys=True, indent=2)`` plus a
trailing newline.
"""

import json
from pathlib import Path

from repro.apps import build_url_count_topology
from repro.storm import SimulationBuilder
from repro.storm.cluster import NodeSpec
from repro.storm.topology import TopologyConfig

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

CLUSTER_NODES = 100
CLUSTER_EXECUTORS = 2000


def _cluster_summary() -> dict:
    topology = build_url_count_topology(
        spout_parallelism=100,
        parse_parallelism=900,
        count_parallelism=999,
        config=TopologyConfig(num_workers=200, tick_interval=1.0),
    )
    total = sum(spec.parallelism for spec in topology.specs.values())
    assert total == CLUSTER_EXECUTORS
    sim = (
        SimulationBuilder(topology)
        .nodes([
            NodeSpec(f"n{i:03d}", cores=4, slots=2)
            for i in range(CLUSTER_NODES)
        ])
        .seed(7)
        .build()
    )
    return sim.run(duration=5.0).summary()


def test_cluster_scale_summary_pinned():
    golden = json.loads((GOLDEN_DIR / "cluster_scale.json").read_text())
    assert json.dumps(_cluster_summary(), sort_keys=True) == json.dumps(
        golden, sort_keys=True
    ), (
        "cluster-scale run drifted from tests/golden/cluster_scale.json; "
        "if intentional, regenerate it (see module docstring) and commit"
    )
