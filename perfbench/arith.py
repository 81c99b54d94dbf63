"""Exact arithmetic the benchmark owns: explicit per-edge loads for the
output checks, and the fixed reference computations that gauge the
machine's speed.  Nothing here imports the library."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from random import Random


def _scaled(values) -> tuple[int, list[int]]:
    den = lcm(*(Fraction(x).denominator for x in values))
    return den, [int(Fraction(x) * den) for x in values]


def crossing_performance(u, v, mask: int) -> Fraction:
    """Largest per-edge load increase when crossing demand i goes fully
    clockwise (bit i-1 of mask set) or fully counter-clockwise, read off
    the explicit loads of edges 1..2m."""
    m = len(u)
    den, ints = _scaled(list(u) + list(v))
    su, sv = ints[:m], ints[m:]
    worst = None
    for k in range(1, 2 * m + 1):
        change = 0
        for i in range(1, m + 1):
            on_cw = i <= k <= i + m - 1
            split = su[i - 1] if on_cw else sv[i - 1]
            goes_cw = bool(mask >> (i - 1) & 1)
            unsplit = su[i - 1] + sv[i - 1] if on_cw == goes_cw else 0
            change += unsplit - split
        if worst is None or change > worst:
            worst = change
    return Fraction(worst, den)


def brute_min_performance(u, v) -> Fraction:
    return min(crossing_performance(u, v, mask) for mask in range(1 << len(u)))


def max_split_load(u, v) -> Fraction:
    m = len(u)
    return max(
        sum((u[i - 1] if i <= k <= i + m - 1 else v[i - 1]) for i in range(1, m + 1))
        for k in range(1, 2 * m + 1)
    )


def ring_loads(n: int, demands, clockwise) -> list[Fraction]:
    """Edge k joins nodes k and k+1; a demand (i, j) puts its clockwise
    part on edges i..j-1 and the rest on the other edges."""
    values = [value for _, _, value in demands]
    den, ints = _scaled(values + list(clockwise))
    vals, cws = ints[: len(values)], ints[len(values):]
    loads = []
    for k in range(1, n + 1):
        total = 0
        for (i, j, _), value, part in zip(demands, vals, cws):
            total += part if i <= k < j else value - part
        loads.append(Fraction(total, den))
    return loads


def certified_formula(u, v) -> Fraction:
    """Certificate round_main must state: 3/2 - delta/2 for delta >= 2/5,
    7/6 + delta/3 below, with delta from the demand closest to D/2."""
    d = [a + b for a, b in zip(u, v)]
    big = max(d)
    closest = min(d, key=lambda x: abs(big / 2 - x))
    delta = min(closest, big - closest) / big
    if delta >= Fraction(2, 5):
        return Fraction(3, 2) - delta / 2
    return Fraction(7, 6) + delta / 3


def reference_ops(count: int = 20) -> list:
    """Fixed computations that use no library code: exact split loads in
    Fractions, and brute-force performance over scaled integers, the two
    kinds of arithmetic the library spends its time in."""
    rng = Random("perfbench:reference")
    ops = []
    for k in range(count):
        u = [Fraction(rng.randint(1, 36), rng.randint(1, 12)) for _ in range(10)]
        v = [Fraction(rng.randint(1, 36), rng.randint(1, 12)) for _ in range(10)]
        ops.append((k % 2, u, v))
    return ops


def run_reference(op) -> Fraction:
    integer, u, v = op
    if integer:
        return brute_min_performance(u[:5], v[:5])
    for _ in range(5):
        max_split_load(u, v)
    return max_split_load(u, v)
