"""Load-equalizing boost transform: structure, equalization, gap bound."""

import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings

from ringload import (
    BoostedInstance,
    CrossingRouting,
    GuaranteeViolated,
    TooLarge,
    boost,
    min_additive_performance,
    seven18,
    seven18_alt,
    skutella8,
    skutella8_uniform,
    split_optimum_boosted,
    tight3,
    tight5,
    tight6,
    tight_even,
    verify_boost,
)
from ringload import exact
from support import crossing_routings, lopsided, naive_general_loads, rescanning_boost, tie_heavy


def test_boost_golden_eight_demand_probe():
    b = boost(skutella8(0))
    assert b.instance.n == 32
    assert len(b.instance.demands) == 32
    assert b.equalized_load == 35
    assert b.dropped_zero_shorts == 4
    assert sum(1 for c in b.components if c.kind == "crossing") == 8
    report = verify_boost(b)
    assert report.source_performance == 11
    assert report.split_optimum == 35
    assert report.unsplittable_optimum == 46
    assert report.gap == 11


@pytest.mark.parametrize(
    "make",
    [
        lambda: skutella8(0),
        lambda: skutella8_uniform(0),
        seven18,
        seven18_alt,
        tight3,
        tight5,
        tight6,
        lambda: tight_even(2),
        lambda: tight_even(4),
    ],
)
def test_gap_equals_source_performance(make):
    """The boost is exact on these: the unsplittable premium of the
    boosted instance matches the source's minimum performance."""
    b = boost(make())
    report = verify_boost(b)
    assert report.gap == report.source_performance


def test_fully_balanced_source_needs_no_fillers():
    b = boost(tight_even(2))
    assert len(b.instance.demands) == 2
    assert b.dropped_zero_shorts == 4  # one per original edge
    assert all(c.kind == "crossing" for c in b.components)
    assert b.instance.n == 8  # subdivision doubles the ring regardless


def test_single_demand_boost():
    b = boost(CrossingRouting((Fraction(1),), (Fraction(1),)))
    assert b.instance.n == 4
    assert b.instance.demands == ((1, 3, Fraction(2)),)
    report = verify_boost(b)
    assert report.split_optimum == 1
    assert report.unsplittable_optimum == 2
    assert report.gap == 1 == report.source_performance


def test_oversized_fillers_are_capped_recursively():
    # gaps reach 27 > D = 11, so capping spawns flanks that must be
    # capped again before everything fits under D
    r = CrossingRouting((10, 10, 10), (1, 1, 1))
    b = boost(r)
    shorts = [c for t, c in enumerate(b.components) if c.kind == "short"]
    values = [
        b.instance.demands[t][2]
        for t, c in enumerate(b.components)
        if c.kind == "short"
    ]
    assert all(0 < x <= 11 for x in values)
    capped = [c for c in shorts if c.capped]
    assert len(capped) >= 6
    assert all(len(c.home_edges) >= 2 for c in capped)
    assert all(len(c.home_edges) == 1 for c in shorts if not c.capped)
    report = verify_boost(b)
    assert report.gap == report.source_performance == min_additive_performance(r).value


@settings(max_examples=40)
@given(crossing_routings(max_m=4))
def test_boost_structure(r):
    b = boost(r)
    big = r.max_demand
    n = b.instance.n
    crossing = [t for t, c in enumerate(b.components) if c.kind == "crossing"]
    assert [b.components[t].source_index for t in crossing] == list(range(1, r.m + 1))
    canonical = b.canonical_routing.clockwise
    for t, c in enumerate(b.components):
        i, j, value = b.instance.demands[t]
        if c.kind == "crossing":
            idx = c.source_index - 1
            assert canonical[t] == r.u[idx]
            assert value == r.u[idx] + r.v[idx]
        else:
            assert 0 < value <= big
            edges = c.home_edges
            assert len(edges) >= (2 if c.capped else 1)
            # a home path is one consecutive ascending run of edges
            assert edges == tuple(range(edges[0], edges[0] + len(edges)))
            assert set(edges) <= set(range(1, n + 1))
    # independent re-derivation of the equalized level
    assert split_optimum_boosted(b) == b.equalized_load


@settings(max_examples=40)
@given(crossing_routings(max_m=5))
def test_canonical_integer_view_matches_rational_loads(r):
    # the routing built on integers loads every edge to the equalized
    # level, by explicit path walks over its rational parts
    b = boost(r)
    assert set(naive_general_loads(b.canonical_routing)) == {b.equalized_load}
    assert split_optimum_boosted(b) == b.equalized_load


def test_verify_boost_failure_path():
    # grafting a harder source onto an easier boosted instance must trip
    # the bound check: the gap stays 11 but the claimed source needs 19
    b = boost(skutella8(0))
    broken = BoostedInstance(
        b.canonical_routing, seven18(), b.components, b.equalized_load, b.dropped_zero_shorts
    )
    with pytest.raises(GuaranteeViolated, match="falls below the source performance"):
        verify_boost(broken)


def test_verify_boost_cap_passthrough(monkeypatch):
    # verify_boost's oracles read the one enumeration cap when called
    monkeypatch.setattr(exact, "DEFAULT_CAP", 2)
    with pytest.raises(TooLarge):
        verify_boost(boost(tight3()))


@pytest.mark.parametrize(
    "r",
    [pytest.param(lopsided(m, seed), id=f"m{m}-seed{seed}")
     for m in (3, 5, 8) for seed in range(3)]
    + [pytest.param(CrossingRouting((10, 10, 10), (1, 1, 1)), id="ten-one")],
)
def test_capping_matches_rescanning_reference(r):
    b = boost(r)
    assert any(c.kind == "short" and c.capped for c in b.components)
    reference = rescanning_boost(r)
    assert b == reference
    assert b.components == reference.components


@pytest.mark.parametrize(
    "r",
    [pytest.param(tie_heavy(m, 100 + m), id=f"tie-m{m}") for m in range(8, 13)]
    + [pytest.param(lopsided(m, 200 + m), id=f"lopsided-m{m}") for m in range(8, 13)],
)
def test_verify_boost_beyond_m7(r):
    b = boost(r)
    report = verify_boost(b)
    assert report.gap >= report.source_performance
    assert report.split_optimum == b.equalized_load


def test_boost_guarantees_are_checked_not_asserted(monkeypatch):
    # broken guarantees raise explicitly, so they also hold under `python -O`
    module = importlib.import_module("ringload.boost")
    routing = module.GeneralSplitRouting

    class AllCounterClockwise(routing):
        @classmethod
        def from_scaled(cls, instance, denom, values, cw):
            return routing.from_scaled(instance, denom, values, [0] * len(cw))

    # every demand counter-clockwise cannot equalize the loads
    monkeypatch.setattr(module, "GeneralSplitRouting", AllCounterClockwise)
    with pytest.raises(GuaranteeViolated, match="failed to equalize"):
        boost(tight3())
