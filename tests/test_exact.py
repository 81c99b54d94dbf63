"""Brute-force oracles against naive enumerations and pinned optima."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringload import (
    BoostedInstance,
    CrossingRouting,
    GeneralSplitRouting,
    GuaranteeViolated,
    LoadProfile,
    RingInstance,
    TooLarge,
    additive_performance,
    boost,
    min_additive_performance,
    optimal_unsplittable,
    optimal_unsplittable_boosted,
    seven18,
    seven18_alt,
    skutella8,
    skutella8_uniform,
    split_optimum_boosted,
    split_optimum_crossing,
    tight3,
    tight5,
    tight6,
    tight_even,
)
from ringload import exact
from support import (
    crossing_routings,
    general_routings,
    gray_code_unsplittable,
    naive_min_performance,
    naive_performance,
    naive_unsplittable_optimum,
    random_general,
    rescanning_boost,
    tie_heavy,
)


@given(crossing_routings(max_m=7))
def test_min_performance_matches_naive(r):
    value, witness = min_additive_performance(r)
    naive_value, naive_mask = naive_min_performance(r)
    assert value == naive_value
    assert witness.choices == naive_mask  # lowest qualifying mask
    assert additive_performance(witness) == value
    # visiting order cannot matter
    assert naive_min_performance(r, reverse=True)[0] == value
    # the enumeration agrees with the per-mask rational oracle
    assert naive_performance(r, naive_mask) == naive_value


def naive_walk_performances(steps_down, steps_up) -> list[int]:
    """Performance of every mask in mask order, as the worst edge change:
    edge k moves by 2 w[k] - w[m] and edge k + m by its negation."""
    perfs = []
    for mask in range(1 << len(steps_down)):
        walk = [0]
        for k, (down, up) in enumerate(zip(steps_down, steps_up)):
            walk.append(walk[-1] + (up if mask >> k & 1 else -down))
        perfs.append(max(abs(2 * w - walk[-1]) for w in walk[1:]))
    return perfs


@st.composite
def integer_walks(draw):
    m = draw(st.integers(1, 10))
    steps = st.lists(st.integers(1, 40), min_size=m, max_size=m)
    return draw(steps), draw(steps)


@given(integer_walks())
def test_lowest_performance_matches_naive_on_random_walks(steps):
    steps_down, steps_up = steps
    perfs = naive_walk_performances(steps_down, steps_up)
    low = min(perfs)
    # the value at its lowest optimal mask
    assert exact._lowest_performance(steps_down, steps_up) == (low, perfs.index(low))
    # with `first`, the lowest mask performing below the limit, or None
    for limit in (low - 1, low, low + 1):
        below = next((z for z, perf in enumerate(perfs) if perf < limit), None)
        expected = None if below is None else (perfs[below], below)
        assert exact._lowest_performance(steps_down, steps_up, limit, first=True) == expected


# tie-heavy routings (many optimal masks, so witness rules show) and the
# pinned probes
BEYOND_M7 = (
    [pytest.param(tie_heavy(m, seed), id=f"m{m}-seed{seed}")
     for m in range(8, 13) for seed in range(3)]
    + [pytest.param(skutella8(0), id="skutella8"),
       pytest.param(seven18(), id="seven18"),
       pytest.param(tight_even(8), id="tight_even8")]
)


@pytest.mark.parametrize("r", BEYOND_M7)
def test_min_performance_witness_beyond_m7(r):
    value, witness = min_additive_performance(r)
    assert (value, witness.choices) == naive_min_performance(r)


def test_min_performance_goldens():
    assert min_additive_performance(skutella8(0)).value == 11
    assert min_additive_performance(skutella8(3)).value == 17  # D = 16
    assert min_additive_performance(skutella8_uniform(1)).value == 13  # D = 12
    assert min_additive_performance(seven18()).value == 19
    assert min_additive_performance(seven18_alt()).value == 19
    for r in (tight3(), tight5(), tight6(), tight_even(2), tight_even(4)):
        assert min_additive_performance(r).value == r.max_demand


def test_enumeration_caps(monkeypatch):
    with pytest.raises(TooLarge):
        min_additive_performance(CrossingRouting((1,) * 25, (1,) * 25))
    # the guards read the one cap when called
    monkeypatch.setattr(exact, "DEFAULT_CAP", 5)
    with pytest.raises(TooLarge):
        min_additive_performance(tight6())
    monkeypatch.setattr(exact, "DEFAULT_CAP", 1)
    inst = RingInstance(4, ((1, 3, Fraction(1)), (2, 4, Fraction(1))))
    with pytest.raises(TooLarge):
        optimal_unsplittable(inst)


def test_oracle_witnesses_are_rechecked(monkeypatch):
    # a witness that does not realize the optimum is a broken guarantee,
    # raised explicitly so that it also holds under `python -O`
    pattern, routing = exact.Pattern, exact.GeneralSplitRouting
    monkeypatch.setattr(exact, "Pattern", lambda r, mask, start: pattern(r, mask ^ 1, start))
    with pytest.raises(GuaranteeViolated):
        min_additive_performance(skutella8(0))

    class AllClockwise(routing):
        # witnesses are built on integers; this one routes every demand clockwise
        @classmethod
        def from_scaled(cls, instance, denom, values, cw):
            return routing.from_scaled(instance, denom, values, values)

    monkeypatch.setattr(exact, "GeneralSplitRouting", AllClockwise)
    with pytest.raises(GuaranteeViolated, match="witness routing loads"):
        optimal_unsplittable(RingInstance(4, ((1, 2, Fraction(1)), (1, 3, Fraction(2)))))
    # the boosted oracle re-checks its witness too, although its integers
    # come from the instance's canonical routing (`boost` builds it
    # through its own import, which the patch leaves alone)
    with pytest.raises(GuaranteeViolated, match="witness routing loads"):
        optimal_unsplittable_boosted(boost(skutella8(0)))


@pytest.mark.parametrize("r", BEYOND_M7)
def test_boosted_optimum_matches_gray_code(r):
    b = boost(r)
    reference = rescanning_boost(r)
    assert b == reference
    assert b.components == reference.components
    value, witness = optimal_unsplittable_boosted(b)
    free = [t for t, c in enumerate(b.components) if c.kind == "crossing"]
    base = list(b.canonical_routing.clockwise)
    assert (value, witness.clockwise) == gray_code_unsplittable(b.instance, base, free)


def _general_cases():
    rng = Random(11)
    cases = [random_general(rng, max_split=6, max_unsplit=8) for _ in range(12)]
    # all demands zero: nothing to enumerate (k = 0)
    zero = RingInstance(6, ((1, 3, Fraction(0)), (2, 5, Fraction(0)), (4, 6, Fraction(0))))
    return cases + [GeneralSplitRouting(zero, (Fraction(0),) * 3)]


@pytest.mark.parametrize("g", _general_cases())
def test_unsplittable_optimum_matches_gray_code(g):
    instance = g.instance
    value, witness = optimal_unsplittable(instance)
    positive = [t for t, (_, _, d) in enumerate(instance.demands) if d > 0]
    base = [Fraction(0)] * len(instance.demands)
    assert (value, witness.clockwise) == gray_code_unsplittable(instance, base, positive)
    # every other demand free and the rest kept at their given split, so
    # loaded edges can lie before the first free endpoint (the wrapping run)
    free = positive[1::2]
    value, witness = exact._enumerate_unsplittable(g, free)
    expected = gray_code_unsplittable(instance, list(g.clockwise), free)
    assert (value, witness.clockwise) == expected


@settings(max_examples=60)
@given(general_routings())
def test_unsplittable_optimum_matches_naive(g):
    value, witness = optimal_unsplittable(g.instance)
    naive_value, naive_cw = naive_unsplittable_optimum(g.instance)
    assert value == naive_value
    assert witness.clockwise == naive_cw
    assert witness.loads().max_load == value
    assert witness.split_indices() == ()


def test_unsplittable_optimum_small_goldens():
    # two crossing unit demands on a square: any two one-sided paths
    # share an edge, so the optimum is 2
    square = RingInstance(4, ((1, 3, Fraction(1)), (2, 4, Fraction(1))))
    value, witness = optimal_unsplittable(square)
    assert value == 2
    assert witness.clockwise == (0, 0)  # tie resolved to the lowest mask
    # zero-value demands are reported counter-clockwise and cost nothing
    with_zero = RingInstance(4, ((1, 2, Fraction(0)), (1, 3, Fraction(2))))
    value, witness = optimal_unsplittable(with_zero)
    assert value == 2
    assert witness.clockwise == (0, 0)


@pytest.mark.parametrize(
    "make", [lambda: tight_even(2), lambda: tight_even(4), tight6, tight3, tight5]
)
def test_boosted_optimum_equals_unrestricted(make):
    """Pinning every filler to its home path loses nothing: the full
    enumeration over all demands reaches the same optimum."""
    b = boost(make())
    fixed = optimal_unsplittable_boosted(b)
    free = optimal_unsplittable(b.instance)
    assert fixed.value == free.value
    assert fixed.routing.loads().max_load == fixed.value


def test_split_optimum_crossing():
    assert split_optimum_crossing(skutella8(0)) == 32
    assert split_optimum_crossing(seven18()) == 49


@given(crossing_routings())
def test_split_optimum_is_half_total(r):
    assert split_optimum_crossing(r) == sum(r.demand_values) / 2


def test_split_optimum_crossing_balance_is_checked(monkeypatch):
    # an unbalanced even split is a broken guarantee, raised explicitly
    # so that it also holds under `python -O`
    monkeypatch.setattr(
        exact, "split_loads",
        lambda r: LoadProfile((Fraction(1),) * (2 * r.m - 1) + (Fraction(2),)),
    )
    with pytest.raises(GuaranteeViolated):
        split_optimum_crossing(tight3())


def test_split_optimum_boosted():
    b = boost(skutella8(0))
    assert split_optimum_boosted(b) == b.equalized_load == 35


def test_split_optimum_boosted_rejects_wrong_homes():
    b = boost(tight3())
    t = next(t for t, c in enumerate(b.components) if c.kind == "short")
    # route one short on the complementary arc of its home path
    cw = list(b.canonical_routing.clockwise)
    cw[t] = b.instance.demands[t][2] - cw[t]
    broken = BoostedInstance(
        GeneralSplitRouting(b.instance, tuple(cw)), b.source, b.components,
        b.equalized_load, b.dropped_zero_shorts,
    )
    with pytest.raises(GuaranteeViolated, match="are not all equal"):
        split_optimum_boosted(broken)
