"""Reduction of general ring routings to pairwise-crossing form.

A split routing of an arbitrary ring instance is preprocessed in three
steps: (1) repeatedly exchange flow between parallel split demands until
every remaining pair of split demands crosses, never increasing any edge
load; (2) freeze the demands that ended up routed one-sidedly; (3)
contract nodes that no split demand touches and relabel, producing the
canonical form where demand i joins nodes i and i+m on a 2m-ring.

A trace carries everything needed to lift an unsplittable rerouting of
the reduced form back onto the original instance.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .core import CrossingRouting, LoadProfile, RingInstance, integer_arc_loads, to_rational
from .errors import GuaranteeViolated, MalformedRouting

CW = "cw"
CCW = "ccw"


@dataclass(frozen=True, init=False)
class GeneralSplitRouting:
    """A split routing of a RingInstance: per demand, the part routed
    clockwise (from i towards j through edges i..j-1); the rest goes the
    other way around.  The routing holds its integers: ``scaled`` is
    ``(denom, values, cw)``, the least common denominator of all demand
    values and clockwise parts, which is canonical, and their numerators.
    So equality and hashing on ``(instance, scaled)`` hold exactly when
    the rational parts are equal; ``clockwise`` is derived on access."""

    instance: RingInstance
    scaled: tuple[int, tuple[int, ...], tuple[int, ...]]

    def __init__(self, instance: RingInstance, clockwise):
        values = [value.as_integer_ratio() for _, _, value in instance.demands]
        parts = [to_rational(x).as_integer_ratio() for x in clockwise]
        denom = lcm(*(d for _, d in values), *(d for _, d in parts))
        self._store_checked(instance, denom, tuple(a * (denom // d) for a, d in values),
                            tuple(a * (denom // d) for a, d in parts))

    @classmethod
    def from_scaled(cls, instance: RingInstance, denom: int, values, cw) -> "GeneralSplitRouting":
        """The routing with clockwise parts ``cw[t] / denom``, where
        ``values`` are the instance's demand values in the same units
        (``denom > 0``); the units are reduced to the canonical ones."""
        common = gcd(denom, *values, *cw)
        if common > 1:
            denom //= common
            values = (x // common for x in values)
            cw = (x // common for x in cw)
        routing = object.__new__(cls)
        routing._store_checked(instance, denom, tuple(values), tuple(cw))
        return routing

    def _store_checked(self, instance: RingInstance, denom: int, values: tuple, cw: tuple) -> None:
        demands = instance.demands
        if len(cw) != len(demands):
            raise MalformedRouting(f"{len(demands)} demands but {len(cw)} clockwise parts")
        for t, (part, value) in enumerate(zip(cw, values)):
            if part < 0 or part > value:
                i, j, _ = demands[t]
                raise MalformedRouting(
                    f"clockwise part {Fraction(part, denom)} outside [0, {Fraction(value, denom)}] "
                    f"for demand ({i},{j})"
                )
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "scaled", (denom, values, cw))

    @property
    def clockwise(self) -> tuple[Fraction, ...]:
        denom, _, cw = self.scaled
        return tuple(Fraction(x, denom) for x in cw)

    @classmethod
    def from_crossing(cls, r: CrossingRouting) -> "GeneralSplitRouting":
        return cls(r.to_ring_instance(), r.u)

    def split_indices(self) -> tuple[int, ...]:
        """0-based indices of demands with positive flow both ways."""
        _, values, cw = self.scaled
        return tuple(t for t, (part, value) in enumerate(zip(cw, values)) if 0 < part < value)

    def loads(self) -> LoadProfile:
        return LoadProfile.from_scaled(self.scaled[0], self.integer_loads())

    def integer_loads(self) -> list[int]:
        """Integer edge loads in units of ``1 / scaled[0]``."""
        _, values, cw = self.scaled
        return integer_arc_loads(self.instance.n, (
            (i, j, c, v - c) for (i, j, _), v, c in zip(self.instance.demands, values, cw)
        ))


def demands_cross(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """True when the endpoint pairs strictly interleave around the ring;
    shared endpoints and nested or disjoint spans count as parallel."""
    i, j = a
    k, l = b
    return (i < k < j < l) or (k < i < l < j)


@dataclass(frozen=True)
class UncrossStep:
    """One flow exchange between two parallel split demands (0-based
    indices).  ``units / denom`` moved onto the named edge-disjoint paths,
    with ``denom`` the denominator of the input routing's ``scaled``;
    ``amount`` is derived on access."""

    first: int
    second: int
    first_path: str
    second_path: str
    units: int
    denom: int

    @property
    def amount(self) -> Fraction:
        return Fraction(self.units, self.denom)


def uncross_parallel(s: GeneralSplitRouting) -> tuple[GeneralSplitRouting, tuple[UncrossStep, ...]]:
    """Exchange flow between parallel split demands until all remaining
    split demands pairwise cross.  Each exchange pushes both demands onto
    edge-disjoint paths, read off the order of their endpoints, and at
    least one of the two demands becomes one-sided.  No edge load may
    rise: loads are linear in the parts, so each exchange is checked by
    sweeping the load change of its two demands alone, O(n), and
    raising if it is positive on any edge.  The loop runs on integers
    over ``s.scaled``, and the result is built from them; an exchange
    amount is a difference of existing parts."""
    instance = s.instance
    n = instance.n
    demands = instance.demands
    denom, value, cw = s.scaled
    cw = list(cw)
    steps: list[UncrossStep] = []
    # pairs in order of endpoint labels, then index; crossing depends on
    # the endpoints alone and a demand that became one-sided is never
    # picked again, so one forward scan meets the parallel split pairs in
    # the order a fresh scan after every exchange would pick them
    order = sorted(
        (t for t in range(len(demands)) if 0 < cw[t] < value[t]),
        key=lambda t: (demands[t][0], demands[t][1], t),
    )
    for a_pos, sa in enumerate(order):
        ia, ja, _ = demands[sa]
        for sb in order[a_pos + 1:]:
            if not 0 < cw[sa] < value[sa]:
                break
            ib, jb, _ = demands[sb]
            if not 0 < cw[sb] < value[sb] or demands_cross((ia, ja), (ib, jb)):
                continue
            # ia <= ib and the spans do not cross, so the endpoint order names
            # the edge-disjoint pair: disjoint spans both go clockwise; of two
            # nested spans the inner goes clockwise, the outer counter-clockwise
            pa, pb = (CW, CW) if ja <= ib else (CCW, CW) if jb <= ja else (CW, CCW)
            # amount limited by the flow still on each complement path
            room_a = value[sa] - cw[sa] if pa == CW else cw[sa]
            room_b = value[sb] - cw[sb] if pb == CW else cw[sb]
            # both demands are split, so both rooms are positive, and the
            # demand with the smaller room lands on 0 or on its value
            amount = min(room_a, room_b)
            da = amount if pa == CW else -amount
            db = amount if pb == CW else -amount
            cw[sa] += da
            cw[sb] += db
            if max(integer_arc_loads(n, ((ia, ja, da, -da), (ib, jb, db, -db)))) > 0:
                raise GuaranteeViolated(f"uncrossing ({ia},{ja}) and ({ib},{jb}) raised a load")
            steps.append(UncrossStep(sa, sb, pa, pb, amount, denom))
    return GeneralSplitRouting.from_scaled(instance, denom, value, cw), tuple(steps)


@dataclass(frozen=True)
class ReductionTrace:
    """Everything needed to map patterns on the reduced routing back.

    ``base`` is the uncrossed routing on the original instance;
    ``demand_keys[p-1]`` is the 0-based original index of crossing demand
    p; ``fixed_directions`` records, per original demand, "cw"/"ccw" for
    one-sided demands and None for crossing ones; ``edge_images[k-1]`` is
    the reduced edge carrying original edge k; ``kept_nodes`` are the
    surviving original node labels in relabel order.
    """

    base: GeneralSplitRouting
    uncross_steps: tuple[UncrossStep, ...]
    demand_keys: tuple[int, ...]
    fixed_directions: tuple[str | None, ...]
    edge_images: tuple[int, ...]
    kept_nodes: tuple[int, ...]

    def lift(self, choices: int) -> GeneralSplitRouting:
        """Routing of the original instance realizing the given crossing
        rerouting mask (bit p-1 set = crossing demand p fully clockwise)
        on top of the uncrossed base."""
        m = len(self.demand_keys)
        if not isinstance(choices, int) or isinstance(choices, bool) or not 0 <= choices < (1 << m):
            raise MalformedRouting(f"choices {choices!r} out of range for m={m}")
        denom, values, cw = self.base.scaled
        cw = list(cw)
        for p, t in enumerate(self.demand_keys):
            cw[t] = values[t] if choices >> p & 1 else 0
        return GeneralSplitRouting.from_scaled(self.base.instance, denom, values, cw)


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of to_crossing_form: the canonical crossing routing (or
    None when no split demand survives) plus its trace."""

    routing: CrossingRouting | None
    trace: ReductionTrace

    @property
    def trivial(self) -> bool:
        return self.routing is None


def to_crossing_form(s: GeneralSplitRouting) -> ReductionResult:
    """Uncross, freeze one-sided demands, contract untouched nodes, and
    relabel into the canonical crossing form."""
    base, steps = uncross_parallel(s)
    instance = base.instance
    n = instance.n
    demands = instance.demands
    denom, values, scaled_cw = base.scaled
    split_idx = base.split_indices()
    fixed = tuple(None if 0 < c < v else CW if 0 < v == c else CCW
                  for c, v in zip(scaled_cw, values))

    if not split_idx:
        trace = ReductionTrace(base, steps, (), fixed, (), ())
        return ReductionResult(None, trace)

    # crossing demands never share endpoints; anything else is an
    # uncrossing bug, not a property of the input
    endpoint_owners: dict[int, int] = {}
    for t in split_idx:
        for node in demands[t][:2]:
            if node in endpoint_owners:
                raise GuaranteeViolated(
                    f"node {node} touches two split demands after uncrossing"
                )
            endpoint_owners[node] = t

    # endpoints are distinct and i < j, so 2m nodes survive; merged edge t
    # covers the arc kept[t-1] -> kept[t] (clockwise), edge 2m wraps from
    # kept[-1] to kept[0].  A split demand's load changes only at its own
    # endpoints, so contraction keeps every split load
    kept = sorted(endpoint_owners)
    m = len(split_idx)
    images = []
    for k in range(1, n + 1):
        pos = bisect_right(kept, k)
        images.append(pos if 0 < pos < 2 * m else 2 * m)

    # crossing endpoints interleave: the p-th kept node joins the (p+m)-th
    position = {node: idx + 1 for idx, node in enumerate(kept)}
    for t in split_idx:
        i, j, _ = demands[t]
        p, q = position[i], position[j]
        if q - p != m:
            raise GuaranteeViolated(f"demand ({i},{j}) relabels to ({p},{q}), not antipodal")
    keys = tuple(endpoint_owners[node] for node in kept[:m])

    routing = CrossingRouting(tuple(Fraction(scaled_cw[t], denom) for t in keys),
                              tuple(Fraction(values[t] - scaled_cw[t], denom) for t in keys))
    trace = ReductionTrace(base, steps, keys, fixed, tuple(images), tuple(kept))
    return ReductionResult(routing, trace)
