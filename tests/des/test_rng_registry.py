"""Tests for the name-keyed RNG registry and the root-seed spawner."""

import numpy as np

from repro.des import RngRegistry
from repro.des.rng import spawn_rngs


def test_spawn_rngs_independent_and_deterministic():
    a1, b1 = spawn_rngs(7, 2)
    a2, b2 = spawn_rngs(7, 2)
    assert np.allclose(a1.random(10), a2.random(10))
    assert np.allclose(b1.random(10), b2.random(10))
    assert not np.allclose(a1.random(10), b1.random(10))


def test_rng_registry_stable_by_name():
    r1 = RngRegistry(seed=13)
    r2 = RngRegistry(seed=13)
    # Request streams in different orders: same-name streams must agree.
    x1 = r1.get("spout").random(5)
    _ = r2.get("bolt").random(5)
    x2 = r2.get("spout").random(5)
    assert np.allclose(x1, x2)


def test_rng_registry_distinct_names_distinct_streams():
    reg = RngRegistry(seed=13)
    a = reg.get("alpha").random(100)
    b = reg.get("beta").random(100)
    assert not np.allclose(a, b)


def test_rng_registry_same_name_same_object():
    reg = RngRegistry(seed=1)
    assert reg.get("x") is reg.get("x")
    assert "x" in reg


def test_rng_registry_seed_changes_streams():
    a = RngRegistry(seed=1).get("s").random(20)
    b = RngRegistry(seed=2).get("s").random(20)
    assert not np.allclose(a, b)
