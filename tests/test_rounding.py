"""Certified rounding constructions: bounds, dispatch, and combinators."""

import hashlib
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ringload.core
import ringload.rounding
from ringload import (
    BoundedRounding,
    CrossingRouting,
    DeltaClass,
    GuaranteeViolated,
    ParameterOutOfRange,
    Pattern,
    RoundingMethod,
    additive_performance,
    backward_greedy,
    closeness,
    crossover,
    induced_patterns,
    min_additive_performance,
    round_main,
    round_medium,
    round_upper,
    round_via_induced,
    seven18,
    skutella8,
    ssw_round,
    tight3,
    tight6,
)
from ringload.greedy import steer_backward
from support import (
    crossing_routings,
    random_crossing,
    rational_round_medium,
    rational_round_upper,
    routed_patterns,
)


@st.composite
def pattern_pairs(draw):
    r = draw(crossing_routings(max_m=8))
    full = (1 << r.m) - 1
    starts = st.fractions(min_value=-12, max_value=12, max_denominator=8)
    p1 = Pattern(r, draw(st.integers(0, full)), draw(starts))
    p2 = Pattern(r, draw(st.integers(0, full)), draw(starts))
    return p1, p2


def test_bounded_rounding_self_checks():
    r = tight6()
    p = Pattern(r, 0, Fraction(0))
    perf = additive_performance(p)  # 6: the all-one-way pattern is awful
    with pytest.raises(GuaranteeViolated):
        BoundedRounding(p, Fraction(3, 2), RoundingMethod.SSW)
    # the realized value is derived from the pattern, never stated
    with pytest.raises(TypeError):
        BoundedRounding(p, Fraction(3), RoundingMethod.SSW, realized=perf)
    ok = BoundedRounding(p, Fraction(3), RoundingMethod.SSW)  # 6 = 3 * D exactly
    assert ok.realized == perf == 6 and ok.note == ""


@given(crossing_routings(max_m=10))
def test_ssw_round_bound(r):
    out = ssw_round(r)
    assert out.method is RoundingMethod.SSW
    assert out.certified_bound == Fraction(3, 2)
    assert out.pattern.start == r.max_demand / 2
    assert out.realized <= Fraction(3, 2) * r.max_demand


@given(crossing_routings(min_m=1, max_m=1))
def test_ssw_round_single_demand_is_optimal(r):
    assert ssw_round(r).realized == min(r.u[0], r.v[0])


@given(crossing_routings(max_m=10))
def test_round_medium_bound_any_spread(r):
    delta = r.classify_delta().value
    out = round_medium(r)
    assert out.method is RoundingMethod.MEDIUM
    assert out.certified_bound == Fraction(3, 2) - delta / 2
    assert out.realized <= out.certified_bound * r.max_demand


@given(crossing_routings(max_m=10))
def test_round_upper_bound(r):
    delta = r.classify_delta().value
    assume(delta <= Fraction(2, 5))
    out = round_upper(r)
    assert out.method in (RoundingMethod.UPPER, RoundingMethod.CROSSOVER)
    assert out.certified_bound == Fraction(7, 6) + delta / 3
    assert out.realized <= out.certified_bound * r.max_demand


def test_dispatch_guards():
    # seven18 has spread 4/9 > 2/5: the upper construction refuses it
    with pytest.raises(ParameterOutOfRange, match="use round_medium"):
        round_upper(seven18())
    # skutella8 sits on the crossover 2/5, where both constructions apply
    # and both certify 13/10
    r = skutella8(0)
    assert r.classify_delta().value == Fraction(2, 5)
    for construction in (round_medium, round_upper):
        assert construction(r).certified_bound == Fraction(13, 10)


def test_thirteen_tenths_is_attained():
    # on the delta = 2/5 boundary every construction pays exactly 13/10 D,
    # while the optimum is 19
    r = CrossingRouting((12, 3, 19, 12, 18, 3), (8, 6, 11, 16, 12, 15))
    assert r.max_demand == 30
    assert r.classify_delta() == DeltaClass(Fraction(2, 5), 6)
    assert round_main(r).method is RoundingMethod.MEDIUM
    for construction in (round_main, round_medium, round_upper, ssw_round):
        assert construction(r).realized == 39 == Fraction(13, 10) * r.max_demand
    assert min_additive_performance(r).value == 19


@pytest.mark.parametrize("make", [skutella8, seven18, tight3, tight6])
def test_round_main_classifies_once(make, monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return DeltaClass(*args)

    monkeypatch.setattr(ringload.core, "DeltaClass", counting)
    r = make()
    round_main(r)
    assert len(built) == 1


def test_round_medium_goldens():
    out = round_medium(skutella8(0))
    assert out.certified_bound == Fraction(13, 10)
    assert out.realized == 11  # cannot beat the brute-force minimum
    out = round_medium(seven18())
    assert out.certified_bound == Fraction(23, 18)
    assert 19 <= out.realized <= 23


def test_round_upper_golden():
    out = round_upper(tight3())
    assert out.certified_bound == Fraction(7, 6)
    assert out.realized == 4  # the full largest demand, as small as possible


def test_round_upper_start_window_certifies_once(monkeypatch):
    # tight3's extremal walk starts inside the window: no induced
    # patterns, and one certificate for the one claimed bound
    def no_induced(*args):
        raise AssertionError("tight3 should qualify in the start window")

    checks = []
    real = BoundedRounding.__post_init__

    def counting(self):
        checks.append(self.method)
        real(self)

    monkeypatch.setattr(ringload.rounding, "round_via_induced", no_induced)
    monkeypatch.setattr(BoundedRounding, "__post_init__", counting)
    round_upper(tight3())
    assert checks == [RoundingMethod.UPPER]


@given(crossing_routings(max_m=10))
def test_round_main_certificate(r):
    out = round_main(r)
    big = r.max_demand
    delta = r.classify_delta().value
    assert out.certified_bound <= Fraction(13, 10)
    if delta >= Fraction(2, 5):
        assert out.certified_bound == Fraction(3, 2) - delta / 2
    else:
        assert out.certified_bound == Fraction(7, 6) + delta / 3
    assert out.realized <= out.certified_bound * big
    assert out.realized <= ssw_round(r).realized
    if out.method is RoundingMethod.SSW:
        assert "baseline greedy pattern kept" in out.note


@settings(max_examples=60)
@given(crossing_routings(max_m=8))
def test_round_main_dominates_brute_force(r):
    assert min_additive_performance(r).value <= round_main(r).realized


def test_round_main_single_demand_exact():
    r = CrossingRouting((Fraction(3),), (Fraction(5),))
    out = round_main(r)
    assert out.realized == 3 == min_additive_performance(r).value


@given(pattern_pairs())
def test_closeness_first_witness(pair):
    p1, p2 = pair
    gap, where = closeness(p1, p2)
    diffs = [abs(a - b) for a, b in zip(p1.prefix_values, p2.prefix_values)]
    assert gap == min(diffs)
    assert diffs.index(gap) == where


@given(pattern_pairs())
def test_crossover_contract(pair):
    p1, p2 = pair
    gap, _ = closeness(p1, p2)
    spliced = crossover(p1, p2)
    assert spliced.start + spliced.end == p1.start + p2.end
    lo, hi = spliced.strip
    assert min(p1.strip[0], p2.strip[0]) - gap / 2 <= lo
    assert hi <= max(p1.strip[1], p2.strip[1]) + gap / 2


def test_crossover_requires_shared_routing():
    p1 = Pattern(tight6(), 0, Fraction(0))
    p2 = Pattern(tight3(), 0, Fraction(0))
    with pytest.raises(ParameterOutOfRange, match="different routings"):
        crossover(p1, p2)
    with pytest.raises(ParameterOutOfRange, match="different routings"):
        closeness(p1, p2)


@given(routed_patterns(max_m=8))
def test_induced_anchor_identities(pa):
    r = pa.routing
    big = r.max_demand
    assume(0 <= pa.start <= big and 0 <= pa.end <= big)
    pb, pc = induced_patterns(pa)
    assert big - pc.end == (pa.start + pb.start) / 2
    assert big - pb.start == (pa.end + pc.end) / 2


def test_round_via_induced_guards():
    outside = Pattern(tight3(), 0b111, Fraction(9))  # strip leaves [0, D]
    with pytest.raises(GuaranteeViolated, match="leaves"):
        round_via_induced(outside)
    # anchored on the boundary: not proper for skutella8's class 2/5
    r = skutella8()
    assert r.classify_delta().value == Fraction(2, 5)
    edge = backward_greedy(r, Fraction(0))
    with pytest.raises(GuaranteeViolated, match="not proper"):
        round_via_induced(edge)


def test_round_via_induced_direct_window():
    # base walk 2,0,1,2 on tight3: anchors sum to exactly D, so eps = 0
    # at spread 0 and the backward companion qualifies on its own
    r = tight3()
    pa = backward_greedy(r, Fraction(2))
    assert pa.prefix_values == (2, 0, 1, 2)
    assert r.classify_delta().value == 0
    out = round_via_induced(pa)
    assert out.method is RoundingMethod.UPPER
    assert out.certified_bound == 1
    assert out.realized == 4


@given(routed_patterns())
def test_reflection_preserves_performance(p):
    """Mirroring the walk across D/2 (opposite choice at every step, on
    the direction-swapped routing) cannot change the performance."""
    r = p.routing
    mirrored = Pattern(
        CrossingRouting(r.v, r.u),
        p.choices ^ ((1 << r.m) - 1),
        r.max_demand - p.start,
    )
    assert additive_performance(mirrored) == additive_performance(p)


# the two crossover-branch routings pinned in the round_corpus benchmark
# workload, then seeded random ones shaped like the acceptance corpus
GOLDEN_PINNED = (
    CrossingRouting(
        (Fraction(19, 8), Fraction(22, 7), Fraction(29, 2), Fraction(15, 7), 3, Fraction(1, 2)),
        (3, 8, 22, Fraction(35, 4), Fraction(4, 5), Fraction(3, 4)),
    ),
    CrossingRouting(
        (Fraction(15, 11), Fraction(5, 8), Fraction(32, 3), Fraction(11, 9), 13,
         Fraction(29, 10), Fraction(35, 4), Fraction(11, 3)),
        (4, Fraction(8, 7), 12, Fraction(13, 9), Fraction(5, 2), Fraction(7, 6),
         Fraction(20, 3), Fraction(7, 2)),
    ),
)
# sha256 of one "choices|start|realized|certified|method" line per routing,
# recorded with the rational greedy passes
GOLDEN_DIGEST = "b163f26120b031773c2f3294cdc19d7b6ddb043523eae4d6f36afce977fc953c"


def _golden_corpus():
    rng = Random("round_main golden")
    return GOLDEN_PINNED + tuple(random_crossing(rng) for _ in range(500))


def test_round_main_golden_digest():
    lines = []
    for r in _golden_corpus():
        out = round_main(r)
        p = out.pattern
        lines.append(f"{p.choices}|{p.start}|{out.realized}|{out.certified_bound}|{out.method.value}")
    assert [line.rsplit("|", 1)[1] for line in lines[:2]] == ["crossover", "crossover"]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_DIGEST


def _decision(out):
    return out.pattern.choices, out.pattern.start, out.certified_bound, out.method


def _assert_matches_rational_reference(r):
    assert _decision(round_medium(r)) == _decision(rational_round_medium(r))
    if r.classify_delta().value <= Fraction(2, 5):
        assert _decision(round_upper(r)) == _decision(rational_round_upper(r))


@given(crossing_routings(max_m=10))
def test_branches_match_the_rational_reference(r):
    # the integer-grid branches against the rotated-routing construction
    # with rational anchors
    _assert_matches_rational_reference(r)


def test_branches_match_the_rational_reference_on_the_golden_corpus():
    for r in _golden_corpus():
        _assert_matches_rational_reference(r)


@given(st.lists(st.tuples(st.integers(1, 36), st.integers(1, 36)), min_size=1, max_size=10))
def test_extremal_walks_split_only_at_the_last_step(parts):
    # up from (D + d_m)/2 and down from (D - d_m)/2 both leave
    # (D + u_m - v_m)/2, so the two backward walks share everything else
    us, vs = zip(*parts)
    big = max(u + v for u, v in parts)
    grid = ringload.rounding.GRID
    top, last = grid * big, 1 << (len(parts) - 1)
    d_last = us[-1] + vs[-1]
    high, high_start = steer_backward(us, vs, grid, top, grid // 2 * (big + d_last))
    low, low_start = steer_backward(us, vs, grid, top, grid // 2 * (big - d_last))
    assert high_start == low_start and 0 <= high_start <= top
    assert high & last and not low & last
    assert high ^ low == last


def _delta_class_spread(monkeypatch):
    # demands 10, 5, 1: a `min` that picks the demand farthest from D/2
    # names demand 1 as the witness, and demand 5 sits in its band
    r = CrossingRouting((5, 2, Fraction(1, 2)), (5, 3, Fraction(1, 2)))
    r.scaled
    builtin_min = min

    def wrong_min(*args, key=None):
        return max(*args, key=key) if key else builtin_min(*args)

    monkeypatch.setattr(ringload.core, "min", wrong_min, raising=False)
    r.classify_delta()


def _round_main_dispatch_bound(monkeypatch):
    # both branches hand back the 3/2 baseline certificate
    monkeypatch.setattr(ringload.rounding, "round_medium", ssw_round)
    monkeypatch.setattr(ringload.rounding, "round_upper", ssw_round)
    round_main(tight3())


def _round_upper_off_grid(monkeypatch):
    # the first pinned golden routing takes the induced branch; its inner
    # pattern now starts 1/1000 off the 1/(12 denom) grid
    real = ringload.rounding.round_via_induced

    def fake(*args, **kwargs):
        inner = real(*args, **kwargs)
        p = inner.pattern
        moved = Pattern(p.routing, p.choices, p.start + Fraction(1, 1000))
        return BoundedRounding(moved, inner.certified_bound, inner.method)

    monkeypatch.setattr(ringload.rounding, "round_via_induced", fake)
    round_upper(GOLDEN_PINNED[0])


# case -> (the refusal it must raise, the breaking run)
GUARANTEE_CASES = {
    "delta_class_spread": ("inside the spread band", _delta_class_spread),
    "upper_off_grid": (r"off the 1/\d+ grid", _round_upper_off_grid),
    "main_dispatch_bound": ("above 13/10", _round_main_dispatch_bound),
}


@pytest.mark.parametrize("case", sorted(GUARANTEE_CASES))
def test_greedy_guarantees_are_checked_not_asserted(case, monkeypatch):
    # each case breaks one construction step from outside; the library
    # must refuse with GuaranteeViolated from that step's own check,
    # which `python -O` keeps
    match, run = GUARANTEE_CASES[case]
    with pytest.raises(GuaranteeViolated, match=match):
        run(monkeypatch)
