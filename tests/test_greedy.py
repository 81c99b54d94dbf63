"""Greedy constructions against a literal re-simulation oracle."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringload import (
    BACKWARD,
    FORWARD,
    CrossingRouting,
    MalformedRouting,
    ParameterOutOfRange,
    Pattern,
    backward_greedy,
    forward_greedy,
    is_proper,
)
from support import crossing_routings, resimulate_backward, resimulate_forward, tie_heavy

anchor_weights = st.integers(0, 24)


@given(crossing_routings(), anchor_weights)
def test_forward_matches_resimulation(r, w):
    x = r.max_demand * w / 24
    p = forward_greedy(r, x)
    assert p.start == x
    assert p.choices == resimulate_forward(r, x)
    lo, hi = p.strip
    assert 0 <= lo and hi <= r.max_demand


@given(crossing_routings(), anchor_weights)
def test_backward_matches_resimulation(r, w):
    y = r.max_demand * w / 24
    p = backward_greedy(r, y)
    assert p.end == y
    assert p.choices == resimulate_backward(r, y)
    lo, hi = p.strip
    assert 0 <= lo and hi <= r.max_demand


@given(crossing_routings(), anchor_weights)
def test_greedy_is_deterministic(r, w):
    x = r.max_demand * w / 24
    assert forward_greedy(r, x) == forward_greedy(r, x)
    assert backward_greedy(r, x) == backward_greedy(r, x)


def test_anchor_range_enforced():
    r = CrossingRouting((1, 1), (1, 1))
    with pytest.raises(ParameterOutOfRange, match="start -1/2 outside"):
        forward_greedy(r, Fraction(-1, 2))
    with pytest.raises(ParameterOutOfRange, match="start 5/2 outside"):
        forward_greedy(r, Fraction(5, 2))
    with pytest.raises(ParameterOutOfRange, match="end -1/2 outside"):
        backward_greedy(r, Fraction(-1, 2))
    with pytest.raises(ParameterOutOfRange, match="end 5/2 outside"):
        backward_greedy(r, Fraction(5, 2))
    with pytest.raises(MalformedRouting):
        forward_greedy(r, 0.5)


def test_exact_ties_step_clockwise():
    # six unit demands from D/2 = 1: each tie between 2 and 0 resolves
    # up, pinning the alternating mask 0b010101
    r = CrossingRouting((1,) * 6, (1,) * 6)
    p = forward_greedy(r, Fraction(1))
    assert p.choices == 0b010101
    assert p.prefix_values == (1, 2, 1, 2, 1, 2, 1)


def test_tie_free_walks_mirror_each_other():
    # with no exact ties the walk from D - x on the direction-swapped
    # routing is the reflection of the walk from x: complemented mask,
    # mirrored trajectory
    r = CrossingRouting((2, 9), (5, 3))
    p = forward_greedy(r, Fraction(6))
    assert p.choices == 0b10 and p.end == 7
    q = forward_greedy(CrossingRouting(r.v, r.u), Fraction(6))
    assert q.choices == p.choices ^ 0b11
    assert q.prefix_values == tuple(12 - t for t in p.prefix_values)


def test_is_proper_closed_margins():
    r = CrossingRouting((2,), (2,))  # D = 4
    delta = Fraction(1, 2)  # margin = D * delta / 4 = 1/2
    assert is_proper(Pattern(r, 1, Fraction(1, 2)), FORWARD, delta)
    assert not is_proper(Pattern(r, 1, Fraction(1, 4)), FORWARD, delta)
    assert is_proper(Pattern(r, 1, Fraction(7, 2)), FORWARD, delta)
    assert not is_proper(Pattern(r, 1, Fraction(15, 4)), FORWARD, delta)
    # backward patterns are judged by their end anchor
    assert is_proper(Pattern(r, 1, Fraction(3, 2)), BACKWARD, delta)
    assert not is_proper(Pattern(r, 1, Fraction(7, 4)), BACKWARD, delta)
    with pytest.raises(ParameterOutOfRange):
        is_proper(Pattern(r, 1, Fraction(1)), "sideways", delta)


@st.composite
def off_grid_anchors(draw):
    """A routing and an anchor in [0, D] whose denominator (7, 13, 17 or
    19) shares no factor with the routing's common denominator."""
    r = draw(crossing_routings())
    q = draw(st.sampled_from([q for q in (7, 13, 17, 19) if r.scaled[0] % q]))
    k = draw(st.integers(1, int(r.max_demand * q)).filter(lambda k: k % q))
    return r, Fraction(k, q)


@given(off_grid_anchors())
def test_off_grid_anchors_match_resimulation(pair):
    r, a = pair
    p = forward_greedy(r, a)
    assert p.start == a and p.choices == resimulate_forward(r, a)
    q = backward_greedy(r, a)
    assert q.end == a and q.choices == resimulate_backward(r, a)
    for walk in (p, q):
        lo, hi = walk.strip
        assert 0 <= lo and hi <= r.max_demand


@given(crossing_routings())
def test_tie_anchors_match_resimulation(r):
    # from (D + u_1 - v_1)/2 both first steps land equally far from D/2,
    # and so do both last steps undone from (D - u_m + v_m)/2
    big = r.max_demand
    x = (big + r.u[0] - r.v[0]) / 2
    p = forward_greedy(r, x)
    assert p.choices & 1 and p.choices == resimulate_forward(r, x)
    y = (big - r.u[-1] + r.v[-1]) / 2
    q = backward_greedy(r, y)
    assert q.choices >> (r.m - 1) & 1 and q.choices == resimulate_backward(r, y)


@pytest.mark.parametrize("seed", range(6))
def test_tie_heavy_half_grid_matches_resimulation(seed):
    # small integer parts: anchors on the half grid tie again and again
    r = tie_heavy(6, seed)
    for w in range(int(2 * r.max_demand) + 1):
        a = Fraction(w, 2)
        assert forward_greedy(r, a).choices == resimulate_forward(r, a)
        assert backward_greedy(r, a).choices == resimulate_backward(r, a)


def test_is_proper_margins_off_grid():
    # denominators 3, 4, 2 (common 12) and D = 4; delta = 3/7 puts the
    # margin delta*D/4 = 3/7 off that grid
    r = CrossingRouting((Fraction(5, 3), Fraction(7, 4)), (Fraction(1, 2), Fraction(9, 4)))
    assert r.max_demand == 4
    delta = Fraction(3, 7)
    tiny = Fraction(1, 10**9)
    for margin in (Fraction(3, 7), 4 - Fraction(3, 7)):
        for choices in range(4):
            for offset, proper in ((0, True), (-tiny, margin > 2), (tiny, margin < 2)):
                anchor = margin + offset
                forward = Pattern(r, choices, anchor)
                assert is_proper(forward, FORWARD, delta) is proper
                shift = Pattern(r, choices, Fraction(0)).end
                backward = Pattern(r, choices, anchor - shift)
                assert backward.end == anchor
                assert is_proper(backward, BACKWARD, delta) is proper


@given(
    crossing_routings(max_m=3),
    st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=60),
    st.fractions(min_value=-2, max_value=30, max_denominator=60),
)
def test_is_proper_matches_rational_margins(r, delta, anchor):
    big = r.max_demand
    margin = delta * big / 4
    p = Pattern(r, 0, anchor)
    assert is_proper(p, FORWARD, delta) == (margin <= anchor <= big - margin)
    assert is_proper(p, BACKWARD, delta) == (margin <= p.end <= big - margin)
