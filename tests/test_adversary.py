"""Worst-case MILP model, LP round-trips, evaluator, heuristic search."""

import hashlib
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringload import (
    CrossingRouting,
    GuaranteeViolated,
    ParameterOutOfRange,
    ParseError,
    build_milp,
    builtin_instances,
    export_lp,
    heuristic_search,
    kept_selectors,
    max_feasible_performance,
    min_additive_performance,
    parse_lp,
    render_lp,
    seven18,
    seven18_alt,
    skutella8,
    skutella8_uniform,
    tight3,
    tight_even,
)
from ringload import adversary
from ringload.exact import _lowest_performance
from support import (
    fraction_ascend,
    mutated_texts,
    naive_min_performance,
    naive_performance,
    tie_heavy,
)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_binary_counts(m):
    reduced = build_milp(m)
    full = build_milp(m, reduce_vars=False)
    assert len(reduced.binary_names()) == (1 << (m - 1)) * (m + 5)
    assert len(full.binary_names()) == (2 * m + 3) * (1 << m)


def test_model_size_domain():
    for bad in (1, 13, 0, -2, True, "3"):
        with pytest.raises(ParameterOutOfRange):
            build_milp(bad)


def test_kept_selectors():
    full = kept_selectors(4, 0b1010, reduce_vars=False)
    assert full == ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4))
    # walk down-up-down-up: minima at the down->up corners 1 and 3,
    # maxima at the up->down corner 2 plus both borders
    keep_min, keep_max = kept_selectors(4, 0b1010, reduce_vars=True)
    assert keep_min == (1, 3)
    assert keep_max == (0, 2, 4)
    # every index lands in at most one family
    for m in (2, 3, 5):
        for mask in range(1 << m):
            keep_min, keep_max = kept_selectors(m, mask, reduce_vars=True)
            assert not set(keep_min) & set(keep_max)
            assert keep_min and keep_max


def test_build_and_render_are_deterministic(tmp_path):
    a = build_milp(3)
    b = build_milp(3)
    assert a == b
    text = render_lp(a)
    assert text == render_lp(b)
    assert text.endswith("End\n")
    out = tmp_path / "m3.lp"
    export_lp(a, out)
    assert out.read_bytes() == text.encode("ascii")


@pytest.mark.parametrize("m", [2, 3, 6])
@pytest.mark.parametrize("reduce_vars", [True, False])
@pytest.mark.parametrize("symmetry_break", [True, False])
def test_lp_round_trip(m, reduce_vars, symmetry_break):
    model = build_milp(m, reduce_vars=reduce_vars, symmetry_break=symmetry_break)
    text = render_lp(model)
    back = parse_lp(text)
    assert back == model
    assert render_lp(back) == text
    # not the rendering byte for byte, so past the one-comparison check,
    # but the same model up to blank lines, comments and line ends
    for variant in (text + "\n", "\\ a comment\n" + text, text.replace("\n", "\r\n")):
        assert parse_lp(variant) == model


def test_render_lp_pinned():
    digest = hashlib.sha256()
    for m in range(2, 8):
        for reduce_vars in (True, False):
            for symmetry_break in (True, False):
                model = build_milp(m, reduce_vars=reduce_vars, symmetry_break=symmetry_break)
                digest.update(render_lp(model).encode())
    assert digest.hexdigest() == "4b6be9b484a1ebf53c9187d64ac11581d52611d88aa40b37c2cfd92ad8cbe34d"


M2_TEXT = render_lp(build_milp(2))
M2_LINES = M2_TEXT.splitlines(keepends=True)


@pytest.mark.parametrize(
    "text",
    [
        "x before any section\n",
        "Maximize\n obj: E\nSubject To\n nonsense without relation\nEnd\n",
        "Maximize\n goal: E\nSubject To\nEnd\n",
        "Maximize\n obj: E\nSubject To\n c1: 2 3 u_1 <= 0\nEnd\n",
        "Maximize\n obj: E + 2\nSubject To\nEnd\n",
        "Maximize\n obj: E\nBounds\n u_1 <= 3\nEnd\n",
        "Maximize\n obj: E\nBinaries\n 9bad\nEnd\n",
        "Maximize\n obj: E\nEnd\n trailing\n",
        "Subject To\n feas_1: u_1 + v_1 <= 1\nEnd\n",
        "Maximize\n obj: ² E\nSubject To\nEnd\n",
        # declarations and objectives render_lp would not write
        pytest.param(M2_TEXT.replace("Binaries\n", "Binaries\n zzz\n"), id="extra-binary"),
        pytest.param(M2_TEXT.replace("Bounds\n", "Bounds\n qq free\n"), id="extra-free"),
        pytest.param(M2_TEXT.replace("Bounds\n", "Bounds\n u_1 free\n"), id="free-u_1"),
        pytest.param(M2_TEXT.replace(" a_0 free\n", ""), id="missing-free"),
        pytest.param(M2_TEXT.replace(" w_0\n", ""), id="missing-binary"),
        pytest.param(M2_TEXT.replace("obj: E", "obj: 2 E"), id="objective-2E"),
        pytest.param(M2_TEXT.replace(" obj: E\n", " obj: E\n obj: E\n"), id="two-objectives"),
        pytest.param(
            "Maximize\n obj: E\nSubject To\n"
            + "".join(f" feas_{i}: u_{i} + v_{i} <= 1\n" for i in range(1, 14))
            + "End\n",
            id="size-13",
        ),
        # rows render_lp would not write, each with only declared variables
        pytest.param(M2_TEXT.replace("feas_1: u_1 + v_1 <= 1", "feas_1: u_1 + v_1 <= 2"),
                     id="edited-rhs"),
        pytest.param(M2_TEXT.replace(" obj_cap_3: E - c_3 <= 0\n", ""), id="dropped-row"),
        pytest.param("".join(M2_LINES[:3] + [M2_LINES[4], M2_LINES[3]] + M2_LINES[5:]),
                     id="swapped-rows"),
        pytest.param(M2_TEXT.replace("Bounds\n", " extra: u_1 - v_1 <= 0\nBounds\n"),
                     id="extra-row"),
        pytest.param(M2_TEXT.replace("u_1 + v_1", "u_1+v_1"), id="unspaced-terms"),
    ],
)
def test_parse_lp_rejects(text):
    with pytest.raises(ParseError):
        parse_lp(text)


def test_parse_lp_ignores_spacing_and_comments():
    spaced = "\\ written by hand\n\n" + M2_TEXT.replace(" ", "\t  ").replace("+", "+  ")
    assert parse_lp(spaced) == build_milp(2)


def test_parse_lp_refuses_before_building_rows(monkeypatch):
    # a short text claiming a large model is refused on its declarations,
    # before any row of that model is built
    def no_rows(*args):
        raise AssertionError("parse_lp built the rows of a model")

    monkeypatch.setattr(adversary, "_rows", no_rows)
    monkeypatch.setattr(adversary, "_row_lines", no_rows)
    stub = "".join(f" feas_{i}: u_{i} + v_{i} <= 1\n" for i in range(1, 13))
    for text in (
        "Maximize\n obj: E\nSubject To\n" + stub + "End\n",
        "Maximize\n obj: E\nSubject To\n" + stub + "Bounds\nBinaries\nEnd\n",
    ):
        with pytest.raises(ParseError):
            parse_lp(text)


def test_parse_lp_refuses_before_building_declarations(monkeypatch):
    # nor is any model's rendering built for a text without its binaries
    def no_declarations(*args):
        raise AssertionError("parse_lp built the declarations of a model")

    monkeypatch.setattr(adversary, "_declarations", no_declarations)
    monkeypatch.setattr(adversary, "_declaration_lines", no_declarations)
    stub = "".join(f" feas_{i}: u_{i} + v_{i} <= 1\n" for i in range(1, 13))
    with pytest.raises(ParseError, match="no Bounds or Binaries section"):
        parse_lp("Maximize\n obj: E\nSubject To\n" + stub + "End\n")


def test_model_caches_keep_only_the_last_setting():
    # rows, lines and declarations of every size built would otherwise
    # stay resident for the life of the process
    first, last = build_milp(3), build_milp(4, reduce_vars=False)
    assert first.constraints and first.variables and render_lp(first)
    assert max_feasible_performance(first, CrossingRouting((1,) * 3, (1,) * 3))
    assert last.constraints and last.variables and render_lp(last)
    assert max_feasible_performance(last, tight_even(4))
    assert adversary._rows.cache_info().currsize == 1
    assert adversary._row_lines.cache_info().currsize == 1
    assert adversary._declarations.cache_info().currsize == 1
    assert adversary._declaration_lines.cache_info().currsize == 1
    assert adversary._layout.cache_info().currsize == 1
    assert build_milp(4, reduce_vars=False).constraints is last.constraints


def test_lp_lines_follow_the_setting_in_use():
    # each render and parse switches the one cached setting; a text is
    # never compared with the lines of the setting cached before it
    m3 = build_milp(3)
    m3_text = render_lp(m3)
    assert parse_lp(M2_TEXT) == build_milp(2)
    unreduced = build_milp(2, reduce_vars=False)
    unreduced_text = render_lp(unreduced)
    rows = sum(":" in line for line in unreduced_text.splitlines())
    assert rows == 1 + len(unreduced.constraints)
    with pytest.raises(ParseError) as edited:
        parse_lp(M2_TEXT.replace("feas_1: u_1 + v_1 <= 1", "feas_1: u_1 + v_1 <= 2"))
    assert str(edited.value) == (
        "'feas_1: u_1 + v_1 <= 2' is not the size-2 model's 'feas_1: u_1 + v_1 <= 1'"
    )
    assert parse_lp(M2_TEXT) == build_milp(2)
    assert parse_lp(unreduced_text) == unreduced
    assert parse_lp(m3_text) == m3
    assert render_lp(build_milp(2)) == M2_TEXT


def normalized(r):
    big = r.max_demand
    return CrossingRouting(tuple(x / big for x in r.u), tuple(x / big for x in r.v))


@pytest.mark.parametrize(
    "routing", [tight_even(2), CrossingRouting((1, 3), (2, 2)), tight3(),
                CrossingRouting((2, 1, 3), (1, 5, 2)),
                CrossingRouting((Fraction(2, 3), Fraction(5, 7), Fraction(1, 11)),
                                (Fraction(1, 7), Fraction(4, 11), Fraction(5, 3)))]
)
def test_evaluator_agrees_with_enumeration(routing):
    expected = min_additive_performance(routing).value / routing.max_demand
    for reduce_vars in (True, False):
        model = build_milp(routing.m, reduce_vars=reduce_vars, symmetry_break=False)
        assert max_feasible_performance(model, routing) == expected


def test_evaluator_symmetry_rows():
    # a fully symmetric routing satisfies the symmetry-breaking rows...
    model = build_milp(2)
    assert max_feasible_performance(model, tight_even(2)) == 1
    # ...but an arbitrary one need not: u_1 > v_2 here
    with pytest.raises(ParameterOutOfRange, match="inadmissible for this model: sym_v_2 has lhs 1/4"):
        max_feasible_performance(build_milp(3), tight3())
    with pytest.raises(ParameterOutOfRange):
        max_feasible_performance(model, tight3())  # size mismatch


def test_evaluator_at_m6_matches_brute_force():
    # the search benchmark's size, on both variable sets
    rng = Random(606)
    routings = [CrossingRouting(tuple(rng.randint(1, 9) for _ in range(6)),
                                tuple(rng.randint(1, 9) for _ in range(6))) for _ in range(4)]
    for reduce_vars in (True, False):
        model = build_milp(6, reduce_vars=reduce_vars, symmetry_break=False)
        for r in routings:
            assert max_feasible_performance(model, r) == naive_min_performance(r)[0] / r.max_demand


@settings(max_examples=25)
@given(st.lists(st.integers(1, 9), min_size=8, max_size=8))
def test_evaluator_on_random_m4(grid):
    r = CrossingRouting(tuple(grid[:4]), tuple(grid[4:]))
    expected = min_additive_performance(r).value / r.max_demand
    reduced = build_milp(4, symmetry_break=False)
    full = build_milp(4, reduce_vars=False, symmetry_break=False)
    assert max_feasible_performance(reduced, r) == expected
    assert max_feasible_performance(full, r) == expected


def test_search_single_demand():
    result = heuristic_search(1, 3, "unit")
    assert result.value == Fraction(1, 2)
    assert result.routing.u[0] == result.routing.v[0]


def test_search_three_demands_finds_full_gap():
    result = heuristic_search(3, 40, "demo")
    assert result.value == 1


def test_search_determinism_and_workers():
    lone = heuristic_search(2, 6, "pin", denominator=12)
    again = heuristic_search(2, 6, "pin", denominator=12)
    pooled = heuristic_search(2, 6, "pin", denominator=12, workers=2)
    assert lone == again == pooled
    # the reported value is exactly the enumerated optimum of the routing
    check = min_additive_performance(lone.routing).value / lone.routing.max_demand
    assert lone.value == check


def test_search_seeding():
    seeded = heuristic_search(8, 2, "warm", denominator=10, start=skutella8(0))
    assert seeded.value >= Fraction(11, 10)
    with pytest.raises(ParameterOutOfRange):
        heuristic_search(8, 2, "warm", denominator=7, start=skutella8(0))
    with pytest.raises(ParameterOutOfRange):
        heuristic_search(3, 2, "warm", start=skutella8(0))


def reference_search(m, budget, seed, denominator, start_grid=None):
    """``heuristic_search`` with every restart run by the rational ascent."""
    outcomes = [
        fraction_ascend((m, denominator, str(seed), t, start_grid if t == 0 else None))
        for t in range(budget)
    ]
    value, _, grid = max(outcomes, key=lambda out: (out[0], -out[1]))
    routing = CrossingRouting(
        tuple(Fraction(g, denominator) for g in grid[:m]),
        tuple(Fraction(g, denominator) for g in grid[m:]),
    )
    return routing, value


def test_integer_ascent_matches_fraction_ascent():
    rng = Random(20191)
    for _ in range(300):
        m, den = rng.randint(1, 8), rng.randint(2, 24)
        task = (m, den, str(rng.randrange(1 << 20)), rng.randrange(4), None)
        assert adversary._ascend(task) == fraction_ascend(task), task
    start = (4, 4, 6, 2, 7, 1, 7, 2, 6, 4, 4, 2, 3, 7, 3, 2)  # skutella8(0) on tenths
    task = (8, 10, "warm", 0, start)
    assert adversary._ascend(task) == fraction_ascend(task)
    task = (8, 10, "ties", 0, (5,) * 16)  # tight_even(8) on tenths: tie-heavy, all steps equal
    assert adversary._ascend(task) == fraction_ascend(task)
    seeded = heuristic_search(8, 2, "warm", denominator=10, start=skutella8(0), workers=1)
    assert seeded == heuristic_search(8, 2, "warm", denominator=10, start=skutella8(0), workers=2)
    assert tuple(seeded) == reference_search(8, 2, "warm", 10, start)


@pytest.mark.parametrize(
    "start",
    [(9, 3, 2, 1, 4, 3),  # demand 1 alone is the largest, at 10, and shrinks on the first move
     (9, 5, 2, 1, 5, 3)],  # demands 1 and 2 tie at 10, and demand 1 shrinks on the first move
    ids=["unique", "tied"],
)
def test_ascent_tracks_the_largest_demand(start):
    task = (3, 10, "largest", 0, start)
    assert adversary._ascend(task) == fraction_ascend(task)


def test_remembered_masks_spare_threshold_searches(monkeypatch):
    # a candidate that a remembered mask's walk rejects never reaches the
    # threshold search; the rejections and the result stay the same
    calls = []

    def counted(down, up, limit=None, first=False):
        calls.append(first)
        return _lowest_performance(down, up, limit, first)

    monkeypatch.setattr(adversary, "_lowest_performance", counted)
    result = heuristic_search(8, 20, "shortcut", denominator=20)
    assert 0 < sum(calls) <= 25 * 20
    assert tuple(result) == reference_search(8, 20, "shortcut", 20)


def test_threshold_hits_are_rewalked(monkeypatch):
    # a threshold search whose reported mask does not perform below the
    # limit is caught, on a restart where some candidate gets past the
    # remembered masks
    lies = []

    def lying(down, up, limit=None, first=False):
        if not first:
            return _lowest_performance(down, up, limit)
        lies.append(limit)
        return 0, 0  # mask 0 walks at least one positive step

    monkeypatch.setattr(adversary, "_lowest_performance", lying)
    with pytest.raises(GuaranteeViolated, match="threshold search reported mask 0x0"):
        adversary._ascend((8, 20, "shortcut", 0, None))
    assert lies


@pytest.mark.parametrize("m", [9, 10, 11, 12])
def test_search_beyond_m8(m):
    result = heuristic_search(m, 3, f"wide{m}", denominator=12)
    routing, value = result
    assert value == min_additive_performance(routing).value / routing.max_demand
    assert tuple(result) == reference_search(m, 3, f"wide{m}", 12)


@pytest.mark.parametrize("m", range(1, 11))
def test_threshold_search_matches_naive(m):
    for seed in range(3):
        r = tie_heavy(m, 100 * m + seed)
        denom, down, up = r.scaled
        naive_value, naive_mask = naive_min_performance(r)
        low = naive_value * denom
        assert low.denominator == 1
        low = int(low)
        above = 2 * (sum(down) + sum(up)) + 1
        assert _lowest_performance(down, up) == (low, naive_mask)
        assert _lowest_performance(down, up, above) == (low, naive_mask)
        for limit in (low - 1, low, low + 1, above):
            hit = _lowest_performance(down, up, limit, first=True)
            assert (hit is not None) == (low < limit)
            if hit is not None:
                perf, mask = hit
                assert perf < limit
                assert naive_performance(r, mask) * denom == perf


def test_adversary_guarantees_are_checked_not_asserted(monkeypatch):
    # each check raises GuaranteeViolated, so it also holds under `python -O`
    # the model's declarations and rows come from the true selectors; each
    # broken one drops a family, as a wrong reduction would
    model = build_milp(3, symmetry_break=False)
    assert max_feasible_performance(model, tight3())
    for family, broken in (("argmin", lambda m, mask, rv: ((), kept_selectors(m, mask, rv)[1])),
                           ("argmax", lambda m, mask, rv: (kept_selectors(m, mask, rv)[0], ()))):
        with monkeypatch.context() as patch:
            patch.setattr(adversary, "kept_selectors", broken)
            adversary._layout.cache_clear()  # a warm layout would hide the patch
            with pytest.raises(GuaranteeViolated, match=f"lost every {family} selector"):
                max_feasible_performance(model, tight3())
        adversary._layout.cache_clear()  # and the broken layout must not outlive it
    # a restart that truthfully reports a routing worse than the seed:
    # tight_even(8) on tenths performs exactly D
    monkeypatch.setattr(adversary, "_ascend", lambda task: (Fraction(1), task[3], (5,) * 16))
    with pytest.raises(GuaranteeViolated, match="seed"):
        heuristic_search(8, 1, "warm", denominator=10, start=skutella8(0))
    # a restart that misreports its routing's value fails re-certification
    monkeypatch.setattr(adversary, "_ascend", lambda task: (Fraction(2), task[3], (5,) * 16))
    with pytest.raises(GuaranteeViolated, match="optimum"):
        heuristic_search(8, 1, "warm", denominator=10)


def test_search_parameter_domains():
    for kwargs in (
        dict(m=0, budget=1, seed="x"),
        dict(m=1, budget=0, seed="x"),
        dict(m=1, budget=1, seed="x", denominator=1),
        dict(m=1, budget=1, seed="x", workers=0),
        dict(m=True, budget=1, seed="x"),
    ):
        with pytest.raises(ParameterOutOfRange):
            heuristic_search(**kwargs)


def test_builtin_domains():
    with pytest.raises(ParameterOutOfRange):
        skutella8(-1)
    with pytest.raises(ParameterOutOfRange):
        skutella8_uniform(Fraction(3, 2))
    for bad in (3, 1, 0, True, "2"):
        with pytest.raises(ParameterOutOfRange):
            tight_even(bad)
    assert skutella8_uniform(Fraction(1, 2)).max_demand == 11


def test_builtin_catalog():
    catalog = builtin_instances()
    assert sorted(catalog) == [
        "seven18",
        "seven18_alt",
        "skutella8",
        "skutella8_uniform",
        "tight3",
        "tight5",
        "tight6",
        "tight_even",
    ]
    assert catalog["seven18"]().m == 7
    assert catalog["tight_even"](6) == catalog["tight6"]()
    # the alternate split carries the same demand values
    assert sorted(seven18_alt().demand_values) == sorted(seven18().demand_values)


def meaningful_lines(text):
    """Token lists of the lines of LP text that are neither blank nor
    comments, the lines parse_lp compares."""
    lines = [line.split() for line in text.splitlines()]
    return [tokens for tokens in lines if tokens and not tokens[0].startswith(("\\", "*"))]


@settings(max_examples=300)
@given(mutated_texts((M2_TEXT,)))
def test_parse_lp_fails_only_with_parse_error(text):
    try:
        model = parse_lp(text)
    except ParseError:
        return
    # an accepted text is its model's rendering up to spacing and comments
    assert meaningful_lines(text) == meaningful_lines(render_lp(model))
