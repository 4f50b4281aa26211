"""Property-based grouping invariants (seeded; hypothesis).

Three families of properties the chaos/regression harness leans on:

* **Closure** — every compiled router's result is a subset of the
  grouping's declared target tasks, for every strategy and any tuple
  content.
* **Convergence** — dynamic grouping's achieved split converges to any
  requested ratio vector.
* **Permutation stability** — key-partitioned groupings assign each key
  to the same task regardless of the order the wiring code enumerated
  the consumer's task list in (re-wiring a topology must not reshuffle
  key ownership).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storm.grouping import (
    DynamicGrouping,
    FieldsGrouping,
    GlobalGrouping,
    ShuffleGrouping,
    SplitRatioControl,
)


def router(g):
    """The grouping's compiled router for a one-field ``("key",)`` stream."""
    return g.compile_router(fields=("key",))


def permuted(tasks, seed):
    order = np.random.default_rng(seed).permutation(len(tasks))
    return [tasks[i] for i in order]


keys = st.one_of(
    st.text(max_size=12), st.integers(-1000, 1000), st.floats(allow_nan=False)
)
task_lists = st.lists(
    st.integers(0, 10_000), min_size=1, max_size=12, unique=True
)


# --- closure: a router never leaves the declared targets ------------------------


@settings(max_examples=60, deadline=None)
@given(tasks=task_lists, key=keys, seed=st.integers(0, 2**31))
def test_choose_subset_of_targets_all_strategies(tasks, key, seed):
    rng = np.random.default_rng(seed)
    targets = set(tasks)
    groupings = [
        ShuffleGrouping(tasks, rng),
        GlobalGrouping(tasks),
        FieldsGrouping(tasks, fields=["key"]),
        DynamicGrouping(tasks, SplitRatioControl(len(tasks))),
    ]
    for g in groupings:
        route = router(g)
        for _ in range(5):
            chosen = route((key,))
            assert chosen, f"{g!r} chose nothing"
            assert set(chosen) <= targets, f"{g!r} chose outside its targets"


# --- convergence ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    n_targets=st.integers(2, 8),
    seed=st.integers(0, 2**31),
    n_tuples=st.integers(200, 800),
)
def test_dynamic_converges_to_requested_ratio(n_targets, seed, n_tuples):
    rng = np.random.default_rng(seed)
    ratios = rng.random(n_targets) + 0.05
    control = SplitRatioControl(n_targets, ratios=ratios)
    route = router(DynamicGrouping(list(range(n_targets)), control))
    counts = np.zeros(n_targets)
    for i in range(n_tuples):
        counts[route((i,))[0]] += 1
    achieved = counts / n_tuples
    # Deficit-WRR bounds the absolute count error by one tuple per target,
    # so the achieved fraction is within n_targets / n_tuples of requested.
    assert np.all(
        np.abs(achieved - control.ratios) <= n_targets / n_tuples + 1e-9
    )


@settings(max_examples=40, deadline=None)
@given(
    n_targets=st.integers(2, 8),
    seed=st.integers(0, 2**31),
)
def test_dynamic_tracks_mid_stream_resplit(n_targets, seed):
    rng = np.random.default_rng(seed)
    control = SplitRatioControl(n_targets)
    route = router(DynamicGrouping(list(range(n_targets)), control))
    for i in range(100):
        route((i,))
    new_ratios = rng.random(n_targets) + 0.05
    control.set_ratios(new_ratios)
    counts = np.zeros(n_targets)
    n = 600
    for i in range(n):
        counts[route((i,))[0]] += 1
    assert np.all(
        np.abs(counts / n - control.ratios) <= n_targets / n + 1e-9
    )


# Ratios drawn from a few repeated values (exact ties, zeros) and from
# arbitrary floats; ``None`` steps re-split mid-sequence.
ratio_values = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0 / 3.0]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n_targets=st.integers(1, 8))
def test_dynamic_choose_is_bit_equal_to_the_numpy_reference(data, n_targets):
    """The compiled router's float-list credit loop picks, tuple for
    tuple, what the NumPy formulation (``credit += ratios; argmax;
    credit[w] -= 1``) picks, and leaves the same credit behind, across
    interleaved ratio changes."""
    vectors = st.lists(
        ratio_values, min_size=n_targets, max_size=n_targets
    ).filter(lambda v: sum(v) > 0)
    control = SplitRatioControl(n_targets, data.draw(vectors))
    tasks = list(range(100, 100 + n_targets))
    g = DynamicGrouping(tasks, control)
    route = router(g)
    credit = np.zeros(n_targets)
    steps = data.draw(
        st.lists(st.one_of(st.none(), st.just("choose")), max_size=120)
    )
    for step in steps:
        if step is None:
            control.set_ratios(data.draw(vectors))
            credit[:] = 0.0
            continue
        credit += control.ratios
        winner = int(np.argmax(credit))
        credit[winner] -= 1.0
        assert route((step,)) == [tasks[winner]]
        assert g._credit == credit.tolist()



# --- permutation stability ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(tasks=task_lists, key=keys, seed=st.integers(0, 2**31))
def test_fields_grouping_stable_under_task_permutation(tasks, key, seed):
    base = router(FieldsGrouping(tasks, fields=["key"]))
    shuffled = router(FieldsGrouping(permuted(tasks, seed), fields=["key"]))
    assert base((key,)) == shuffled((key,))


def test_fields_permutation_regression_concrete():
    # Pinned example: before sorting targets internally, reversing the
    # task list re-homed most keys.
    tasks = [3, 7, 11, 15]
    a = router(FieldsGrouping(tasks, fields=["key"]))
    b = router(FieldsGrouping(list(reversed(tasks)), fields=["key"]))
    for i in range(100):
        assert a((f"k{i}",)) == b((f"k{i}",))
