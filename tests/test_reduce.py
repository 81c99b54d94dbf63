"""Reduction to crossing form: uncrossing, contraction, lifting."""

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from random import Random

import pytest
from hypothesis import assume, given, strategies as st

from ringload import (
    CW,
    CCW,
    CrossingRouting,
    GeneralSplitRouting,
    GuaranteeViolated,
    MalformedRouting,
    RingInstance,
    demands_cross,
    seven18,
    split_loads,
    to_crossing_form,
    uncross_parallel,
)
from ringload import reduce as reduce_module
from support import (
    check_trace_replay,
    crossing_routings,
    general_routings,
    naive_general_loads,
    naive_uncross,
)


def test_general_routing_validation():
    inst = RingInstance(5, ((1, 3, Fraction(4)),))
    with pytest.raises(MalformedRouting):
        GeneralSplitRouting(inst, ())
    with pytest.raises(MalformedRouting):
        GeneralSplitRouting(inst, (Fraction(5),))  # part above demand value
    with pytest.raises(MalformedRouting):
        GeneralSplitRouting(inst, (Fraction(-1),))
    g = GeneralSplitRouting(inst, (Fraction(1),))
    assert g.split_indices() == (0,)
    assert GeneralSplitRouting(inst, (Fraction(4),)).split_indices() == ()
    # the part bound is checked across denominators
    quarters = RingInstance(5, ((1, 3, Fraction(9, 4)), (2, 4, Fraction(0))))
    assert GeneralSplitRouting(quarters, (Fraction(9, 4), Fraction(0))).split_indices() == ()
    for parts in ((Fraction(7, 3), Fraction(0)), (Fraction(-1, 5), Fraction(0))):
        with pytest.raises(MalformedRouting, match="outside"):
            GeneralSplitRouting(quarters, parts)
    # inexact parts are refused, as every rational entry point does
    for bad in (0.5, 2.0, "1", True):
        with pytest.raises(MalformedRouting, match="exact rational"):
            GeneralSplitRouting(inst, (bad,))


@given(
    st.fractions(min_value=-2, max_value=6, max_denominator=9),
    st.fractions(min_value=0, max_value=6, max_denominator=9),
)
def test_part_bound_across_denominators(part, value):
    """The integer part check accepts exactly the parts in [0, value],
    from rationals and from integers over a common denominator."""
    assume(part.denominator != value.denominator)
    inst = RingInstance(4, ((1, 3, value),))
    denom = part.denominator * value.denominator
    scaled = ((value * denom).numerator,), ((part * denom).numerator,)
    if 0 <= part <= value:
        assert GeneralSplitRouting(inst, (part,)).clockwise == (part,)
        assert GeneralSplitRouting.from_scaled(inst, denom, *scaled).clockwise == (part,)
    else:
        with pytest.raises(MalformedRouting, match="outside"):
            GeneralSplitRouting(inst, (part,))
        with pytest.raises(MalformedRouting, match="outside"):
            GeneralSplitRouting.from_scaled(inst, denom, *scaled)


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=0, max_value=6, max_denominator=9),
            st.fractions(min_value=0, max_value=1, max_denominator=9),
        ),
        min_size=1, max_size=6,
    ),
    st.integers(1, 12),
)
def test_from_scaled_is_canonical(demands, spare):
    """Integers over any common denominator, reduced or not, give the
    routing the rational parts give: equal, equally hashed, with the same
    integers, and ``clockwise`` derives the parts as Fractions."""
    inst = RingInstance(len(demands) + 2, tuple((1, t + 2, value) for t, (value, _) in enumerate(demands)))
    parts = tuple(value * share for value, share in demands)
    reference = GeneralSplitRouting(inst, parts)
    denom = reference.scaled[0] * spare
    routing = GeneralSplitRouting.from_scaled(
        inst, denom,
        tuple((value * denom).numerator for value, _ in demands),
        tuple((part * denom).numerator for part in parts),
    )
    assert routing == reference and hash(routing) == hash(reference)
    assert routing.scaled == reference.scaled
    assert reference.scaled[0] == lcm(*(x.denominator for x in parts + tuple(v for v, _ in demands)))
    assert routing.clockwise == parts
    assert all(type(x) is Fraction for x in routing.clockwise)


def test_from_scaled_reduces_its_units():
    # parts 2/4 over an unreduced denominator are the rational part 1/2
    inst = RingInstance(4, ((1, 3, Fraction(1)), (2, 4, Fraction(3, 2))))
    halves = GeneralSplitRouting(inst, (Fraction(1, 2), Fraction(3, 2)))
    quarters = GeneralSplitRouting.from_scaled(inst, 4, (4, 6), (2, 6))
    assert quarters == halves and hash(quarters) == hash(halves)
    assert quarters.scaled == (2, (2, 3), (1, 3))
    with pytest.raises(MalformedRouting, match="2 demands but 1 clockwise parts"):
        GeneralSplitRouting.from_scaled(inst, 4, (4, 6), (2,))


@given(general_routings())
def test_loads_match_oracle(g):
    assert g.loads().loads == naive_general_loads(g)


@given(crossing_routings(min_m=2, max_m=6))
def test_from_crossing_preserves_loads(r):
    g = GeneralSplitRouting.from_crossing(r)
    assert g.loads().loads == split_loads(r).loads


def test_crossing_predicate():
    assert demands_cross((1, 4), (2, 6))
    assert demands_cross((2, 6), (1, 4))
    assert not demands_cross((1, 4), (4, 6))  # shared endpoint
    assert not demands_cross((2, 3), (1, 4))  # nested
    assert not demands_cross((1, 2), (3, 4))  # disjoint
    assert not demands_cross((1, 4), (1, 4))


@given(general_routings())
def test_uncross_outcome(g):
    out, steps = uncross_parallel(g)
    before = g.loads().loads
    after = out.loads().loads
    assert all(x <= y for x, y in zip(after, before))
    split = out.split_indices()
    demands = out.instance.demands
    for a_pos in range(len(split)):
        for b_pos in range(a_pos + 1, len(split)):
            assert demands_cross(
                demands[split[a_pos]][:2], demands[split[b_pos]][:2]
            )
    for step in steps:
        assert step.first_path in (CW, CCW) and step.second_path in (CW, CCW)
        assert step.amount > 0
    # deterministic: a second run replays the exact same exchanges
    again, steps_again = uncross_parallel(g)
    assert again == out and steps_again == steps


def test_uncross_shared_endpoint_pair():
    inst = RingInstance(8, ((1, 4, Fraction(2)), (4, 8, Fraction(2))))
    g = GeneralSplitRouting(inst, (Fraction(1), Fraction(1)))
    out, steps = uncross_parallel(g)
    assert len(steps) == 1
    assert out.split_indices() == ()
    assert max(out.loads()) <= max(g.loads())


def test_uncross_matches_fraction_reference():
    """The integer loop replays the rescanning Fraction loop exactly,
    on co-prime denominators whose least common multiple is 1001."""
    rng = Random(1001)
    dens = (7, 11, 13)
    for _ in range(120):
        n = rng.randint(4, 14)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        demands = []
        parts = []
        for i, j in rng.sample(pairs, rng.randint(1, min(30, len(pairs)))):
            den, part_den = rng.choice(dens), rng.choice(dens)
            num = rng.randint(0, 24 * den)
            demands.append((i, j, Fraction(num, den)))
            if rng.random() < 0.7:
                parts.append(Fraction(rng.randint(0, num * part_den), den * part_den))
            else:
                parts.append(Fraction(num, den) if rng.random() < 0.5 else Fraction(0))
        g = GeneralSplitRouting(RingInstance(n, tuple(demands)), tuple(parts))
        assert uncross_parallel(g) == naive_uncross(g)


def test_uncross_matches_fraction_reference_at_benchmark_size():
    """30 split and 30 one-sided demands on a 14-ring, the largest
    routings the ring_reduce benchmark draws."""
    rng = Random(14)
    pairs = [(i, j) for i in range(1, 15) for j in range(i + 1, 15)]
    for _ in range(3):
        demands = []
        parts = []
        for idx, (i, j) in enumerate(rng.sample(pairs, 60)):
            den = rng.randint(1, 8)
            value = Fraction(rng.randint(1, 24), den)
            demands.append((i, j, value))
            if idx < 30:
                parts.append(value * Fraction(rng.randint(1, 4 * den), 4 * den + 1))
            else:
                parts.append(value if rng.random() < 0.5 else Fraction(0))
        g = GeneralSplitRouting(RingInstance(14, tuple(demands)), tuple(parts))
        out, steps = uncross_parallel(g)
        assert steps
        assert (out, steps) == naive_uncross(g)


def test_uncross_resumes_the_scan_after_an_exchange():
    # three mutually parallel split demands: (1,2) survives its exchange
    # with (3,4) and then pairs with the later (5,6)
    inst = RingInstance(6, ((1, 2, Fraction(4)), (3, 4, Fraction(2)), (5, 6, Fraction(2))))
    g = GeneralSplitRouting(inst, (Fraction(1), Fraction(1), Fraction(1)))
    out, steps = uncross_parallel(g)
    assert [(s.first, s.second, s.amount) for s in steps] == [(0, 1, 1), (0, 2, 1)]
    assert out.clockwise == (3, 2, 2)
    assert (out, steps) == naive_uncross(g)


def test_uncross_every_parallel_span_pair():
    """Every ordered pair of distinct, non-crossing spans on a 7-ring,
    both split, uncrosses exactly like the reference search over paths."""
    spans = list(combinations(range(1, 8), 2))
    pairs = [(a, b) for a, b in permutations(spans, 2) if not demands_cross(a, b)]
    assert len(pairs) == 2 * 175
    for a, b in pairs:
        inst = RingInstance(7, (a + (Fraction(3),), b + (Fraction(2),)))
        g = GeneralSplitRouting(inst, (Fraction(1), Fraction(1)))
        assert uncross_parallel(g) == naive_uncross(g)


def test_uncross_guarantees_are_checked_not_asserted(monkeypatch):
    # taken for parallel, the crossing pair (1,4)/(2,5) is read as nested
    # and pushed onto paths that share edge 1, which raises its load
    monkeypatch.setattr(reduce_module, "demands_cross", lambda a, b: False)
    inst = RingInstance(6, ((1, 4, Fraction(2)), (2, 5, Fraction(2))))
    g = GeneralSplitRouting(inst, (Fraction(1), Fraction(1)))
    with pytest.raises(GuaranteeViolated):
        uncross_parallel(g)


def test_uncross_checks_every_exchange(monkeypatch):
    # (1,2)/(3,4) exchange validly first; the crossing pair (5,7)/(6,8),
    # taken for parallel, is then pushed onto paths sharing edge 5
    monkeypatch.setattr(reduce_module, "demands_cross", lambda a, b: False)
    inst = RingInstance(8, tuple((i, j, Fraction(2)) for i, j in ((1, 2), (3, 4), (5, 7), (6, 8))))
    g = GeneralSplitRouting(inst, (Fraction(1),) * 4)
    checked = []
    sweep = reduce_module.integer_arc_loads
    monkeypatch.setattr(reduce_module, "integer_arc_loads",
                        lambda n, arcs: checked.append(n) or sweep(n, arcs))
    with pytest.raises(GuaranteeViolated, match=r"uncrossing \(5,7\) and \(6,8\) raised a load"):
        uncross_parallel(g)
    assert len(checked) == 2


@given(crossing_routings(min_m=2, max_m=6))
def test_crossing_form_round_trips(r):
    """A routing that is already in crossing form reduces to itself."""
    result = to_crossing_form(GeneralSplitRouting.from_crossing(r))
    assert not result.trivial
    assert result.routing == r
    trace = result.trace
    assert trace.uncross_steps == ()
    assert trace.kept_nodes == tuple(range(1, 2 * r.m + 1))
    assert trace.edge_images == tuple(range(1, 2 * r.m + 1))
    assert trace.fixed_directions == (None,) * r.m
    assert result.routing.classify_delta() == r.classify_delta()


def test_trivial_reduction():
    inst = RingInstance(6, ((1, 3, Fraction(2)), (2, 5, Fraction(3))))
    g = GeneralSplitRouting(inst, (Fraction(2), Fraction(0)))
    result = to_crossing_form(g)
    assert result.trivial and result.routing is None
    assert result.trace.fixed_directions == (CW, CCW)
    assert result.trace.demand_keys == ()
    assert result.trace.base == g


def test_single_split_demand_reduces_to_m1():
    inst = RingInstance(6, ((2, 5, Fraction(4)), (1, 3, Fraction(1))))
    g = GeneralSplitRouting(inst, (Fraction(3), Fraction(1)))
    result = to_crossing_form(g)
    assert result.routing == CrossingRouting((Fraction(3),), (Fraction(1),))
    assert result.trace.demand_keys == (0,)
    assert result.trace.kept_nodes == (2, 5)
    lifted = result.trace.lift(1)
    assert lifted.clockwise[0] == Fraction(4)
    assert check_trace_replay(result) == 2


@given(general_routings())
def test_trace_replay_identity(g):
    result = to_crossing_form(g)
    if result.trivial:
        # one-sided demands must be frozen exactly as routed
        for cw, (_, _, value), direction in zip(
            result.trace.base.clockwise,
            g.instance.demands,
            result.trace.fixed_directions,
        ):
            assert direction == (CW if value > 0 and cw == value else CCW)
        return
    check_trace_replay(result)


def test_lift_validates_mask():
    result = to_crossing_form(GeneralSplitRouting.from_crossing(seven18()))
    with pytest.raises(MalformedRouting):
        result.trace.lift(1 << 7)
    with pytest.raises(MalformedRouting):
        result.trace.lift("0")
    for flag in (True, False):  # bools are ints, but Pattern refuses them too
        with pytest.raises(MalformedRouting):
            result.trace.lift(flag)
