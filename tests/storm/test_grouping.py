"""Tests for grouping strategies — incl. dynamic grouping convergence
(property-based, since exact split fidelity is the paper's E4 claim)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storm.grouping import (
    DynamicGrouping,
    FieldsGrouping,
    GlobalGrouping,
    ShuffleGrouping,
    SplitRatioControl,
    make_grouping,
)


def router(g):
    """The grouping's compiled router for a one-field ``("key",)`` stream."""
    return g.compile_router(fields=("key",))


def rng():
    return np.random.default_rng(0)


# --- shuffle -----------------------------------------------------------------


def test_shuffle_round_robin_uniform():
    route = router(ShuffleGrouping([10, 11, 12], rng()))
    picks = [route(("k",))[0] for _ in range(300)]
    counts = {t: picks.count(t) for t in (10, 11, 12)}
    assert counts == {10: 100, 11: 100, 12: 100}


def test_shuffle_single_target():
    assert router(ShuffleGrouping([7], rng()))(("k",)) == [7]


# --- fields -----------------------------------------------------------------


def test_fields_same_key_same_task():
    route = router(FieldsGrouping([1, 2, 3, 4], fields=["key"]))
    assert route(("alpha",)) == route(("alpha",))


def test_fields_spreads_keys():
    route = router(FieldsGrouping([1, 2, 3, 4], fields=["key"]))
    hit = {route((f"key-{i}",))[0] for i in range(200)}
    assert hit == {1, 2, 3, 4}


def test_fields_requires_fields():
    with pytest.raises(ValueError):
        FieldsGrouping([1], fields=[])


# --- global ------------------------------------------------------------------------


def test_global_always_lowest():
    assert router(GlobalGrouping([9, 3, 7]))(("k",)) == [3]


# --- split ratio control -----------------------------------------------------------


def test_control_normalises():
    c = SplitRatioControl(3, ratios=[2, 1, 1])
    assert np.allclose(c.ratios, [0.5, 0.25, 0.25])


def test_control_defaults_uniform():
    c = SplitRatioControl(4)
    assert np.allclose(c.ratios, 0.25)


def test_control_rejects_bad_ratios():
    c = SplitRatioControl(2)
    with pytest.raises(ValueError):
        c.set_ratios([1.0])  # arity
    with pytest.raises(ValueError):
        c.set_ratios([-1.0, 2.0])
    with pytest.raises(ValueError):
        c.set_ratios([0.0, 0.0])
    with pytest.raises(ValueError):
        c.set_ratios([np.nan, 1.0])


def test_control_version_bumps_and_history():
    c = SplitRatioControl(2)
    v0 = c.version
    c.set_ratios([1, 3])
    assert c.version == v0 + 1
    assert np.allclose(c.ratios, [0.25, 0.75])


# --- dynamic grouping ----------------------------------------------------------------


def achieved(g, n):
    counts = {t: 0 for t in g.target_tasks}
    route = router(g)
    for _ in range(n):
        counts[route(("k",))[0]] += 1
    return counts


def test_dynamic_uniform_default():
    c = SplitRatioControl(4)
    g = DynamicGrouping([0, 1, 2, 3], c)
    counts = achieved(g, 400)
    assert all(v == 100 for v in counts.values())


def test_dynamic_exact_ratios():
    c = SplitRatioControl(3, ratios=[0.5, 0.3, 0.2])
    g = DynamicGrouping([0, 1, 2], c)
    counts = achieved(g, 1000)
    assert counts[0] == pytest.approx(500, abs=2)
    assert counts[1] == pytest.approx(300, abs=2)
    assert counts[2] == pytest.approx(200, abs=2)


def test_dynamic_zero_ratio_excludes_target():
    c = SplitRatioControl(3, ratios=[0.5, 0.0, 0.5])
    g = DynamicGrouping([0, 1, 2], c)
    counts = achieved(g, 500)
    assert counts[1] == 0


def test_dynamic_on_the_fly_change():
    c = SplitRatioControl(2, ratios=[0.5, 0.5])
    g = DynamicGrouping([0, 1], c)
    achieved(g, 100)
    c.set_ratios([1.0, 0.0])
    counts = achieved(g, 100)
    assert counts == {0: 100, 1: 0}


def test_dynamic_control_shared_across_groupers():
    # Two upstream emitters share one control: a single set_ratios call
    # retargets both (the paper's one-call actuation requirement).
    c = SplitRatioControl(2)
    g1 = DynamicGrouping([0, 1], c)
    g2 = DynamicGrouping([0, 1], c)
    c.set_ratios([0.0, 1.0])
    assert achieved(g1, 50) == {0: 0, 1: 50}
    assert achieved(g2, 50) == {0: 0, 1: 50}


def test_dynamic_arity_mismatch_rejected():
    c = SplitRatioControl(2)
    with pytest.raises(ValueError):
        DynamicGrouping([0, 1, 2], c)


@settings(max_examples=50, deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=8
    ).filter(lambda w: sum(w) > 0.1)
)
def test_dynamic_split_error_bounded_property(weights):
    """Achieved counts deviate from requested by O(#targets) tuples at any
    prefix length (deficit-WRR guarantee) — so the split error vanishes as
    1/n, which is the paper's E4 "works as expected" claim."""
    n_targets = len(weights)
    c = SplitRatioControl(n_targets, ratios=weights)
    g = DynamicGrouping(list(range(n_targets)), c)
    counts = np.zeros(n_targets)
    route = router(g)
    for i in range(1, 301):
        counts[route(("k",))[0]] += 1
        expect = c.ratios * i
        assert np.all(np.abs(counts - expect) <= n_targets + 1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_dynamic_total_conservation_property(n_targets, seed):
    """Every tuple goes to exactly one target (no loss, no duplication)."""
    r = np.random.default_rng(seed)
    ratios = r.random(n_targets) + 0.01
    c = SplitRatioControl(n_targets, ratios=ratios)
    g = DynamicGrouping(list(range(n_targets)), c)
    counts = achieved(g, 777)
    assert sum(counts.values()) == 777


# --- factory ------------------------------------------------------------------------


def test_make_grouping_dispatch():
    r = rng()
    c = SplitRatioControl(2)
    assert isinstance(make_grouping("shuffle", [0, 1], rng=r), ShuffleGrouping)
    assert isinstance(
        make_grouping("fields", [0, 1], fields=["key"]), FieldsGrouping
    )
    assert isinstance(make_grouping("global", [0, 1]), GlobalGrouping)
    assert isinstance(
        make_grouping("dynamic", [0, 1], control=c), DynamicGrouping
    )
    for removed in ("bogus", "all", "direct", "local_or_shuffle", "partial_key"):
        with pytest.raises(ValueError, match="unknown grouping strategy"):
            make_grouping(removed, [0, 1], rng=r, fields=["key"])


def test_grouping_requires_targets():
    with pytest.raises(ValueError):
        GlobalGrouping([])


def test_removed_groupings_are_gone():
    # No workload routes through broadcast, direct, locality-preferring or
    # two-choice groupings; check_api.py rule 5 keeps the builder surface
    # from regrowing them unused.
    import repro.storm
    from repro.storm import OutputCollector
    from repro.storm.grouping import Grouping
    from repro.storm.topology import ComponentSpec

    removed = (
        "AllGrouping", "DirectGrouping", "LocalOrShuffleGrouping",
        "PartialKeyGrouping",
    )
    for name in removed:
        assert not hasattr(repro.storm, name)
        assert name not in repro.storm.__all__
    for name in ("all", "direct", "local_or_shuffle", "partial_key"):
        assert not hasattr(ComponentSpec, f"{name}_grouping")
    assert not hasattr(Grouping, "choose")
    assert not hasattr(Grouping, "content_free")
    with pytest.raises(TypeError):
        OutputCollector().emit((1,), direct_task=0)
