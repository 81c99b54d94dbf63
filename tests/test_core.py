"""Core types and load arithmetic against independent per-edge oracles."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ringload
from ringload import (
    CrossingRouting,
    LoadProfile,
    MalformedRouting,
    Pattern,
    RingInstance,
    additive_performance,
    skutella8,
    seven18_alt,
    split_loads,
    to_rational,
    unsplittable_loads,
)
from ringload.core import mask_performance, mask_walk, walk_performance
from support import (
    crossing_routings,
    naive_performance,
    naive_prefix_values,
    naive_split_loads,
    naive_unsplittable_loads,
    pattern_delta,
    routed_patterns,
)


def test_to_rational_accepts_exact_types():
    assert to_rational(3) == Fraction(3)
    assert to_rational(Fraction(7, 2)) == Fraction(7, 2)


@pytest.mark.parametrize("bad", [1.5, "3", True, None, 2.0])
def test_to_rational_rejects_inexact(bad):
    with pytest.raises(MalformedRouting):
        to_rational(bad)


def test_ring_instance_validation():
    with pytest.raises(MalformedRouting):
        RingInstance(2, ())
    with pytest.raises(MalformedRouting):
        RingInstance(5, ((3, 1, Fraction(1)),))  # i >= j
    with pytest.raises(MalformedRouting):
        RingInstance(5, ((1, 6, Fraction(1)),))  # j > n
    with pytest.raises(MalformedRouting):
        RingInstance(5, ((1, 3, Fraction(1)), (1, 3, Fraction(2))))
    with pytest.raises(MalformedRouting):
        RingInstance(5, ((1, 3, Fraction(-1)),))
    with pytest.raises(MalformedRouting):
        RingInstance(5, ((1, 3, 0.5),))
    inst = RingInstance(5, ((1, 3, 2), (2, 4, Fraction(1, 2))))
    assert inst.max_demand == 2
    assert RingInstance(5, ()).max_demand == 0


def test_crossing_routing_validation():
    with pytest.raises(MalformedRouting):
        CrossingRouting((), ())
    with pytest.raises(MalformedRouting):
        CrossingRouting((Fraction(1),), (Fraction(1), Fraction(1)))
    with pytest.raises(MalformedRouting):
        CrossingRouting((Fraction(0),), (Fraction(1),))  # one-sided demand
    with pytest.raises(MalformedRouting):
        CrossingRouting((Fraction(1),), (Fraction(-1),))
    r = CrossingRouting((1, 2), (3, 4))
    assert r.m == 2
    assert r.demand_values == (4, 6)
    assert r.max_demand == 6


def test_pattern_validation():
    r = CrossingRouting((1, 1), (1, 1))
    with pytest.raises(MalformedRouting):
        Pattern(r, 4, Fraction(0))  # mask needs m bits
    with pytest.raises(MalformedRouting):
        Pattern(r, -1, Fraction(0))
    with pytest.raises(MalformedRouting):
        Pattern(r, True, Fraction(0))
    with pytest.raises(MalformedRouting):
        Pattern(r, 0, 0.5)
    p = Pattern(r, 0b10, Fraction(1))
    assert p.prefix_values == (1, 0, 1)
    assert p.end == 1
    assert p.strip == (0, 1)


def test_load_profile_sign_discipline():
    with pytest.raises(MalformedRouting):
        LoadProfile((Fraction(1), Fraction(-1)))
    profile = LoadProfile((Fraction(1), Fraction(0)))
    assert profile.max_load == 1
    assert len(profile) == 2
    assert list(profile) == [1, 0]
    # from_scaled checks the sign on the integers it is given
    with pytest.raises(MalformedRouting):
        LoadProfile.from_scaled(3, [1, -1])


@given(st.integers(1, 60), st.lists(st.integers(0, 200), min_size=1, max_size=12))
def test_load_profile_from_scaled_matches_validated_profile(denom, ints):
    scaled = LoadProfile.from_scaled(denom, ints)
    validated = LoadProfile(tuple(Fraction(x, denom) for x in ints))
    assert scaled == validated
    assert hash(scaled) == hash(validated)
    assert all(type(x) is Fraction for x in scaled)


def test_catalog_split_profiles():
    # eight-demand probe: the even/odd structure shows in the profile
    assert split_loads(skutella8(0)).loads == (
        29, 29, 31, 31, 35, 29, 33, 33, 35, 35, 33, 33, 29, 35, 31, 31,
    )
    assert split_loads(seven18_alt()).loads == (
        49, 59, 51, 43, 43, 45, 41, 49, 39, 47, 55, 55, 53, 57,
    )


def test_known_pattern_performance():
    # demands 2, 3, 6, 8 clockwise on the eight-demand probe: the walk
    # visits 0,-4,0,4,2,-5,2,-5,-3, so b=4, a=-5, y=-3 and the
    # performance is max(2*4 + 3, -3 + 10) = 11
    r = skutella8(0)
    mask = 0b10100110
    p = Pattern(r, mask, Fraction(0))
    assert p.prefix_values == (0, -4, 0, 4, 2, -5, 2, -5, -3)
    assert additive_performance(p) == 11
    assert additive_performance(Pattern(r, mask, Fraction(5))) == 11


@given(crossing_routings())
def test_split_loads_match_oracle(r):
    assert split_loads(r).loads == naive_split_loads(r)


@given(crossing_routings(max_m=6), st.data())
def test_unsplittable_loads_match_oracle(r, data):
    choices = data.draw(st.integers(0, (1 << r.m) - 1))
    assert unsplittable_loads(r, choices).loads == naive_unsplittable_loads(r, choices)


def test_unsplittable_loads_rejects_bad_mask():
    r = CrossingRouting((1, 1), (1, 1))
    with pytest.raises(MalformedRouting):
        unsplittable_loads(r, 4)
    with pytest.raises(MalformedRouting):
        unsplittable_loads(r, None)


@given(routed_patterns(max_m=6))
def test_pattern_delta_consistency(p):
    """split loads + delta profile == unsplittable loads, edge-wise."""
    r = p.routing
    split = split_loads(r).loads
    delta = pattern_delta(p)
    assert len(delta) == 2 * r.m
    rerouted = unsplittable_loads(r, p.choices).loads
    assert tuple(a + d for a, d in zip(split, delta)) == rerouted
    # opposite edges carry negated deltas
    assert delta[r.m :] == tuple(-x for x in delta[: r.m])


@given(routed_patterns())
def test_performance_equals_worst_edge_increase(p):
    assert additive_performance(p) == naive_performance(p.routing, p.choices)


@given(routed_patterns(), st.fractions(min_value=-9, max_value=9, max_denominator=7))
def test_performance_is_translation_invariant(p, new_start):
    moved = Pattern(p.routing, p.choices, new_start)
    assert additive_performance(moved) == additive_performance(p)


# denominators no routing part can have (those stop at 12), so the
# anchor never sits on a routing's integer grid
off_grid_starts = st.builds(
    Fraction, st.integers(-400, 400), st.sampled_from([13, 17, 19, 23])
)


@given(crossing_routings(), st.data())
def test_cached_walk_matches_rational_recomputation(r, data):
    choices = data.draw(st.integers(0, (1 << r.m) - 1))
    start = data.draw(off_grid_starts)
    p = Pattern(r, choices, start)
    expected = naive_prefix_values(r, choices, start)
    # read each value twice: the second read comes from the caches
    for _ in range(2):
        assert additive_performance(p) == naive_performance(r, choices)
        assert p.prefix_values == expected
        assert p.end == expected[-1]
        assert p.strip == (min(expected), max(expected))


@st.composite
def walk_masks(draw):
    m = draw(st.integers(1, 12))
    steps = st.lists(st.integers(1, 60), min_size=m, max_size=m)
    mask = draw(st.sampled_from([0, (1 << m) - 1]) | st.integers(0, (1 << m) - 1))
    return draw(steps), draw(steps), mask


@given(walk_masks())
def test_mask_performance_matches_walk(case):
    steps_down, steps_up, mask = case
    walk = mask_walk(steps_down, steps_up, mask)
    assert mask_performance(steps_down, steps_up, mask) == walk_performance(walk)


@given(routed_patterns(), off_grid_starts)
def test_caches_leave_equality_and_hash_alone(p, start):
    r = p.routing
    p = Pattern(r, p.choices, start)
    twin = Pattern(CrossingRouting(r.u, r.v), p.choices, start)
    r.classify_delta()
    additive_performance(p)
    p.end
    assert twin.routing == r and hash(twin.routing) == hash(r)
    assert twin == p and hash(twin) == hash(p)
    assert repr(twin) == repr(p)


@given(crossing_routings())
def test_delta_classification_spread(r):
    cls = r.classify_delta()
    big = r.max_demand
    assert 0 <= cls.value <= Fraction(1, 2)
    assert 1 <= cls.index <= r.m
    witness = r.demand_values[cls.index - 1]
    assert cls.value in (witness / big, 1 - witness / big)
    dists = [abs(big / 2 - x) for x in r.demand_values]
    assert cls.index == dists.index(min(dists)) + 1
    assert all(
        x <= cls.value * big or x >= (1 - cls.value) * big for x in r.demand_values
    )


def test_delta_classification_goldens():
    cls = skutella8(0).classify_delta()
    assert (cls.value, cls.index) == (Fraction(2, 5), 4)
    # two demands equally close to D/2: the smaller index wins
    tie = CrossingRouting((1, 2, 4), (2, 3, 4)).classify_delta()
    assert (tie.value, tie.index) == (Fraction(3, 8), 1)


def test_to_ring_instance():
    r = CrossingRouting((1, 2), (3, 4))
    inst = r.to_ring_instance()
    assert inst.n == 4
    assert inst.demands == ((1, 3, Fraction(4)), (2, 4, Fraction(6)))
    with pytest.raises(MalformedRouting):
        CrossingRouting((1,), (1,)).to_ring_instance()


def test_library_has_no_asserts():
    # every certified invariant is a check that `python -O` keeps
    found = []
    for path in sorted(Path(ringload.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
