"""Property tests for the child-stream spawner (``repro.des.rng``).

The parallel experiment engine's determinism contract rests on these
invariants: a run's stream depends only on ``(root_seed, run_index,
lanes)`` — never on which process draws it or in what order — so the
pinned values here are a wire format and must not change across
releases (cached results and golden campaign outputs encode them).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import derive_seed, spawn_stream
from repro.des.rng import child_sequence

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
LANES = st.lists(st.integers(min_value=0, max_value=2**16), max_size=3)


def test_pinned_derived_seeds():
    # Frozen wire format: these exact values are baked into the golden
    # chaos campaign (tests/golden/chaos_smoke.json) and every cache key.
    assert derive_seed(7, 0) == 2083679832
    assert derive_seed(7, 1) == 369571992
    assert derive_seed(0, 0) == 2968811710


@settings(max_examples=50, deadline=None)
@given(root=SEEDS, run=st.integers(min_value=0, max_value=10_000), lanes=LANES)
def test_spawn_stream_is_stable(root, run, lanes):
    a = spawn_stream(root, run, *lanes).integers(0, 2**32, size=8)
    b = spawn_stream(root, run, *lanes).integers(0, 2**32, size=8)
    assert np.array_equal(a, b)
    assert derive_seed(root, run, *lanes) == derive_seed(root, run, *lanes)


@settings(max_examples=50, deadline=None)
@given(root=SEEDS, run=st.integers(min_value=0, max_value=1_000))
def test_sibling_streams_are_independent(root, run):
    """Adjacent run indices must not produce correlated draws."""
    a = spawn_stream(root, run).random(size=64)
    b = spawn_stream(root, run + 1).random(size=64)
    assert not np.array_equal(a, b)
    # crude but effective: correlation of independent U(0,1) draws is ~0
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.75


@settings(max_examples=50, deadline=None)
@given(root=SEEDS, run=st.integers(min_value=0, max_value=1_000), lanes=LANES)
def test_lanes_partition_the_stream_space(root, run, lanes):
    """A lane suffix yields a distinct stream from the bare (root, run)."""
    seq = child_sequence(root, run, *lanes)
    assert isinstance(seq, np.random.SeedSequence)
    if lanes:
        bare = derive_seed(root, run)
        laned = derive_seed(root, run, *lanes)
        # Laned entropy is length-prefixed ([root, run, len, *lanes])
        # because SeedSequence ignores trailing zero words; without the
        # prefix a 0-valued lane aliases the bare stream and silently
        # reuses one run's faults as another's schedule stream.
        assert bare != laned or lanes == []


@settings(max_examples=30, deadline=None)
@given(root=SEEDS, runs=st.integers(min_value=2, max_value=32))
def test_derived_seeds_unique_within_campaign(root, runs):
    seeds = [derive_seed(root, i) for i in range(runs)]
    assert len(set(seeds)) == runs


def test_derive_seed_range_and_types():
    s = derive_seed(123, 4, 5)
    assert isinstance(s, int)
    assert 0 <= s < 2**32
    # numpy integer inputs must behave like Python ints
    assert derive_seed(np.int64(123), np.int64(4), np.int64(5)) == s


def test_negative_entropy_rejected():
    with pytest.raises(ValueError):
        derive_seed(-1, 0)
