"""Domain types and load arithmetic for ring routing in crossing form.

A crossing instance lives on a cycle with ``2m`` nodes labelled
``1..2m``; edge ``k`` joins node ``k`` to node ``k + 1`` and edge ``2m``
closes the ring.  Demand ``i`` (``i = 1..m``) connects the antipodal
pair ``(i, i + m)``, so any two demands cross.  A split routing sends
``u[i] > 0`` of demand ``i`` clockwise (edges ``i .. i+m-1``) and
``v[i] > 0`` counter-clockwise (the remaining ``m`` edges).

An unsplittable rerouting is encoded as a bit mask: bit ``i - 1`` set
means demand ``i`` goes fully clockwise.  Walking the per-demand
rerouting steps yields a prefix trajectory whose extremes determine, in
closed form, the worst-case edge-load increase ("additive performance").

All arithmetic is exact rational; nothing here ever rounds.  Walks run
on integers over each routing's common denominator; cached values sit
outside the dataclass fields, so equality and hashing ignore them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm

from .errors import GuaranteeViolated, MalformedRouting


def to_rational(value) -> Fraction:
    """Coerce int/Fraction to Fraction, rejecting floats and strings.

    Inexact types are rejected outright: silently accepting a float
    would poison every downstream equality check.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise MalformedRouting(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True)
class RingInstance:
    """A ring with ``n`` nodes and point-to-point demands.

    ``demands`` holds ``(i, j, value)`` triples with ``1 <= i < j <= n``
    and at most one record per node pair.  Edge ``k`` joins node ``k``
    to ``k + 1``; edge ``n`` joins ``n`` to ``1``.
    """

    n: int
    demands: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 3:
            raise MalformedRouting(f"ring needs an integer node count >= 3, got {self.n!r}")
        seen = set()
        norm = []
        for entry in self.demands:
            try:
                i, j, value = entry
            except (TypeError, ValueError):
                raise MalformedRouting(f"demand must be an (i, j, value) triple: {entry!r}") from None
            if not (isinstance(i, int) and isinstance(j, int)) or isinstance(i, bool) or isinstance(j, bool):
                raise MalformedRouting(f"demand endpoints must be integers: {entry!r}")
            if not 1 <= i < j <= self.n:
                raise MalformedRouting(f"demand endpoints must satisfy 1 <= i < j <= n: {entry!r}")
            if (i, j) in seen:
                raise MalformedRouting(f"duplicate demand for node pair ({i}, {j})")
            seen.add((i, j))
            value = to_rational(value)
            if value.numerator < 0:
                raise MalformedRouting(f"negative demand value: {entry!r}")
            norm.append((i, j, value))
        object.__setattr__(self, "demands", tuple(norm))

    @property
    def max_demand(self) -> Fraction:
        if not self.demands:
            return Fraction(0)
        return max(value for _, _, value in self.demands)


@dataclass(frozen=True)
class DeltaClass:
    """Spread classification of a crossing routing.

    ``value`` is the delta in [0, 1/2] such that every demand value lies
    in ``[0, value*D]`` or ``[(1-value)*D, D]``; ``index`` (1-based) is
    the smallest-index demand closest to ``D/2``, which witnesses it.
    """

    value: Fraction
    index: int


@dataclass(frozen=True)
class CrossingRouting:
    """Split routing of a crossing instance: clockwise parts ``u``,
    counter-clockwise parts ``v``, both strictly positive."""

    u: tuple[Fraction, ...]
    v: tuple[Fraction, ...]

    def __post_init__(self):
        u = tuple(to_rational(x) for x in self.u)
        v = tuple(to_rational(x) for x in self.v)
        if not u or len(u) != len(v):
            raise MalformedRouting(
                f"u and v must be non-empty and equally long, got {len(u)} and {len(v)}"
            )
        if any(x.numerator <= 0 for x in u + v):
            # every demand must be genuinely split; one-sided demands belong
            # to the reduction's "unsplit" bucket, not in here (a Fraction
            # carries its sign on the numerator)
            raise MalformedRouting("every demand needs positive parts in both directions")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def m(self) -> int:
        return len(self.u)

    @property
    def demand_values(self) -> tuple[Fraction, ...]:
        return tuple(a + b for a, b in zip(self.u, self.v))

    @cached_property
    def max_demand(self) -> Fraction:
        denom, us, vs = self.scaled
        return Fraction(max(a + b for a, b in zip(us, vs)), denom)

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """``(denom, U, V)``: the least common denominator of all parts
        and the integer numerators ``U[i] = u[i] * denom``,
        ``V[i] = v[i] * denom``."""
        denom = lcm(*(x.denominator for x in self.u + self.v))
        return (
            denom,
            tuple(x.numerator * (denom // x.denominator) for x in self.u),
            tuple(x.numerator * (denom // x.denominator) for x in self.v),
        )

    def classify_delta(self) -> DeltaClass:
        """Smallest delta such that all demands clear the middle band
        ``(delta*D, (1-delta)*D)``; ties on the witness go to the
        smallest index for reproducibility.  Computed once per routing."""
        return self._delta_class

    @cached_property
    def _delta_class(self) -> DeltaClass:
        _, us, vs = self.scaled
        d = [a + b for a, b in zip(us, vs)]
        big = max(d)
        # |D - 2 d_i| orders the demands exactly as |D/2 - d_i| does
        best = min(range(self.m), key=lambda i: abs(big - 2 * d[i]))
        width = min(d[best], big - d[best])
        # the spread property is implied by the choice of `best`, but it is
        # the contract everything downstream leans on, so keep it checked
        if not all(x <= width or x >= big - width for x in d):
            raise GuaranteeViolated(f"a demand lies inside the spread band of demand {best + 1}")
        return DeltaClass(Fraction(width, big), best + 1)

    def _adopt_scaled(self, scaled: tuple[int, tuple[int, ...], tuple[int, ...]]) -> CrossingRouting:
        """Set ``scaled`` without recomputing it, for a routing whose parts
        rearrange or swap another's: the same integers over the same
        denominator.  Returns the routing."""
        self.__dict__["scaled"] = scaled
        return self

    def to_ring_instance(self) -> RingInstance:
        if self.m < 2:
            raise MalformedRouting("need m >= 2 crossing demands to form a simple ring")
        d = self.demand_values
        return RingInstance(
            2 * self.m,
            tuple((i, i + self.m, d[i - 1]) for i in range(1, self.m + 1)),
        )


def mask_walk(steps_down, steps_up, mask: int) -> tuple[int, ...]:
    """Integer walk of a rerouting mask at indices 0..m, anchored at 0:
    step i goes up by ``steps_up[i]`` when bit i is set, else down by
    ``steps_down[i]``."""
    acc = 0
    out = [0]
    for i, (down, up) in enumerate(zip(steps_down, steps_up)):
        acc += up if mask >> i & 1 else -down
        out.append(acc)
    return tuple(out)


def walk_performance(walk) -> int:
    """Closed-form performance of a walk: with strip [a, b], start x and
    end y it is max(2b - x - y, x + y - 2a); for a walk anchored at 0 that
    is max(2b - y, y - 2a)."""
    end = walk[-1]
    return max(2 * max(walk) - end, end - 2 * min(walk))


def mask_performance(steps_down, steps_up, mask: int) -> int:
    """``walk_performance(mask_walk(steps_down, steps_up, mask))`` from the
    walk's running end, minimum and maximum, without building the walk;
    steps are non-negative, so an up step can only raise the maximum and
    a down step only lower the minimum."""
    end = lo = hi = 0
    for down, up in zip(steps_down, steps_up):
        if mask & 1:
            end += up
            if end > hi:
                hi = end
        else:
            end -= down
            if end < lo:
                lo = end
        mask >>= 1
    return max(2 * hi - end, end - 2 * lo)


@dataclass(frozen=True)
class Pattern:
    """An unsplittable rerouting of a crossing routing plus an anchor.

    Bit ``i - 1`` of ``choices`` set routes demand ``i`` fully clockwise
    (the walk steps up by ``v[i]``); clear routes it counter-clockwise
    (down by ``u[i]``).  ``start`` anchors the prefix trajectory; the
    performance of the pattern does not depend on it.
    """

    routing: CrossingRouting
    choices: int
    start: Fraction

    def __post_init__(self):
        if not isinstance(self.choices, int) or isinstance(self.choices, bool):
            raise MalformedRouting(f"choices must be an int bit mask, got {self.choices!r}")
        if not 0 <= self.choices < (1 << self.routing.m):
            raise MalformedRouting(
                f"choices {self.choices:#x} out of range for m={self.routing.m}"
            )
        object.__setattr__(self, "start", to_rational(self.start))

    @cached_property
    def walk(self) -> tuple[int, ...]:
        """Trajectory anchored at 0, at indices 0..m, in units of
        ``1 / routing.scaled[0]``."""
        _, us, vs = self.routing.scaled
        return mask_walk(us, vs, self.choices)

    def _adopt_walk(self, walk: tuple[int, ...]) -> Pattern:
        """Set ``walk`` without recomputing it, for a pattern whose caller
        already walked its choices on ``routing.scaled``.  Returns the
        pattern."""
        self.__dict__["walk"] = walk
        return self

    def _value(self, w: int) -> Fraction:
        return self.start + Fraction(w, self.routing.scaled[0])

    @property
    def prefix_values(self) -> tuple[Fraction, ...]:
        """Trajectory values at indices 0..m (length m + 1)."""
        return tuple(self._value(w) for w in self.walk)

    @cached_property
    def end(self) -> Fraction:
        return self._value(self.walk[-1])

    @property
    def strip(self) -> tuple[Fraction, Fraction]:
        """(lowest, highest) trajectory value over indices 0..m."""
        walk = self.walk
        return self._value(min(walk)), self._value(max(walk))

    @cached_property
    def performance(self) -> Fraction:
        """Largest edge-load increase caused by the pattern, the closed
        form of ``walk_performance``; it does not depend on the anchor."""
        return Fraction(walk_performance(self.walk), self.routing.scaled[0])


@dataclass(frozen=True)
class LoadProfile:
    """Per-edge loads; ``loads[k - 1]`` belongs to edge ``{k, k+1}``.
    Routing loads are non-negative."""

    loads: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "loads", tuple(to_rational(x) for x in self.loads))
        if any(x < 0 for x in self.loads):
            raise MalformedRouting("negative entry in a load profile")

    @classmethod
    def from_scaled(cls, denom: int, loads) -> LoadProfile:
        """The profile of integer loads in units of ``1 / denom``
        (``denom > 0``).  The sign is checked on the integers, so the
        entries skip the per-entry validation of ``LoadProfile(...)``."""
        loads = tuple(loads)
        if min(loads, default=0) < 0:
            raise MalformedRouting("negative entry in a load profile")
        profile = object.__new__(cls)
        object.__setattr__(profile, "loads", tuple(Fraction(x, denom) for x in loads))
        return profile

    @property
    def max_load(self) -> Fraction:
        return max(self.loads)

    def __len__(self):
        return len(self.loads)

    def __iter__(self):
        return iter(self.loads)


def integer_arc_loads(n: int, arcs) -> list[int]:
    """Integer edge loads of an n-ring carrying ``(i, j, cw_part,
    ccw_part)`` arcs with integer parts, edge k at ``loads[k - 1]``.

    Each arc puts ``ccw_part`` on every edge, then ``cw_part - ccw_part``
    on its clockwise edges i..j-1 (difference-array sweep)."""
    base = 0
    diff = [0] * n
    for i, j, a, b in arcs:
        base += b
        diff[i - 1] += a - b
        diff[j - 1] -= a - b
    diff[0] += base
    return list(accumulate(diff))


def split_loads(r: CrossingRouting) -> LoadProfile:
    """Edge loads of the split routing: demand i puts u[i] on its
    clockwise edges i..i+m-1 and v[i] on the other m edges."""
    m = r.m
    denom, us, vs = r.scaled
    return LoadProfile.from_scaled(denom, integer_arc_loads(
        2 * m, ((i, i + m, us[i - 1], vs[i - 1]) for i in range(1, m + 1))
    ))


def unsplittable_loads(r: CrossingRouting, choices: int) -> LoadProfile:
    """Edge loads when each demand goes fully one way per the bit mask
    (bit set = clockwise), computed from scratch."""
    m = r.m
    if not isinstance(choices, int) or isinstance(choices, bool) or not 0 <= choices < (1 << m):
        raise MalformedRouting(f"choices {choices!r} out of range for m={m}")
    denom, us, vs = r.scaled
    return LoadProfile.from_scaled(denom, integer_arc_loads(2 * m, (
        (i, i + m, us[i - 1] + vs[i - 1], 0) if choices >> (i - 1) & 1
        else (i, i + m, 0, us[i - 1] + vs[i - 1])
        for i in range(1, m + 1)
    )))


def additive_performance(p: Pattern) -> Fraction:
    """Largest edge-load increase caused by the pattern (see
    ``Pattern.performance``; computed once per pattern)."""
    return p.performance
