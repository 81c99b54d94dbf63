"""Load-equalizing boost transform.

Embeds a crossing routing into a larger ring instance whose split
optimum is fully balanced, by adding "short" filler demands:

  1. For every edge of the 2m-ring, add a short demand between its two
     endpoints valued at the gap between that edge's split load and the
     maximum split load (zero-valued fillers are dropped but counted).
  2. Subdivide every edge; each filler from step 1 becomes two demands
     of the same value, one per half-edge, so no filler shares both
     endpoints with anything else.
  3. While some adjacent-pair filler exceeds the largest demand value D
     (processed in ascending current-edge order): subdivide its edge,
     cap the filler at D (its home path now has two edges), and spawn
     two flanking fillers carrying the excess on the new half-edges.
     Values strictly shrink along the way, so this terminates.

Routing every filler on its home path and splitting the original
demands as given loads every edge to exactly the same value; an
unsplittable solution, however, must pay for rerouting the crossing
demands, which is what makes these instances worst-case probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Union

from .core import CrossingRouting, RingInstance, ccw_edges, cw_edges, split_loads
from .errors import BoundViolated
from .reduce import GeneralSplitRouting


@dataclass(frozen=True)
class CrossingComponent:
    """A demand inherited from the source routing, with its split."""

    kind: ClassVar[str] = "crossing"
    source_index: int  # 1-based demand index in the source routing
    split: tuple[Fraction, Fraction]  # (clockwise, counter-clockwise)


@dataclass(frozen=True)
class ShortComponent:
    """A filler demand with its home path (1+ consecutive edges)."""

    kind: ClassVar[str] = "short"
    home_edges: tuple[int, ...]
    capped: bool = False


Component = Union[CrossingComponent, ShortComponent]


@dataclass(frozen=True)
class BoostedInstance:
    """Result of the boost transform.

    ``components[t]`` explains demand t of ``instance``; routing every
    short on its home path while splitting each crossing demand as in
    ``source`` loads every edge to exactly ``equalized_load``.
    """

    instance: RingInstance
    source: CrossingRouting
    components: tuple[Component, ...]
    equalized_load: Fraction
    dropped_zero_shorts: int

    def canonical_routing(self) -> GeneralSplitRouting:
        """Split routing of the instance: source splits on the crossing
        demands, home paths for the shorts."""
        n = self.instance.n
        cw = []
        for (i, j, value), component in zip(self.instance.demands, self.components):
            if component.kind == "crossing":
                cw.append(component.split[0])
                continue
            home = frozenset(component.home_edges)
            if home == cw_edges(i, j):
                cw.append(value)
            else:
                assert home == ccw_edges(n, i, j), "home is neither arc of its demand"
                cw.append(Fraction(0))
        return GeneralSplitRouting(self.instance, tuple(cw))


def boost(r: CrossingRouting) -> BoostedInstance:
    """Build the equalized instance embedding the given crossing routing."""
    m = r.m
    big = r.max_demand
    profile = split_loads(r)
    top = profile.max_load

    # the ring under construction, as an ordered token list; token t at
    # list index p ends up as node p+1
    ring: list[tuple] = []
    for k in range(1, 2 * m + 1):
        ring.append(("o", k))
        ring.append(("h", k))  # half-edge node from the step-2 subdivision

    # shorts as mutable [from_token, to_token, value, capped] arcs, where
    # to_token is the from_token's ring successor at creation time
    shorts: list[list] = []
    dropped = 0
    for k in range(1, 2 * m + 1):
        gap = top - profile.loads[k - 1]
        if gap == 0:
            dropped += 1
            continue
        succ = ("o", k + 1) if k < 2 * m else ("o", 1)
        shorts.append([("o", k), ("h", k), gap, False])
        shorts.append([("h", k), succ, gap, False])

    fresh = 0
    while True:
        position = {tok: idx for idx, tok in enumerate(ring)}

        def arc_len(rec):
            a, b = position[rec[0]], position[rec[1]]
            return b - a if b > a else len(ring) - a

        oversized = [rec for rec in shorts if rec[2] > big and arc_len(rec) == 1]
        if not oversized:
            break
        rec = min(oversized, key=lambda rec: position[rec[0]])
        a, b, value, _ = rec
        fresh += 1
        waypoint = ("x", fresh)
        ring.insert(position[a] + 1, waypoint)
        rec[2] = big
        rec[3] = True
        shorts.append([a, waypoint, value - big, False])
        shorts.append([waypoint, b, value - big, False])

    n = len(ring)
    position = {tok: idx + 1 for idx, tok in enumerate(ring)}  # 1-based

    def arc_edges(a, b):
        pa, pb = position[a], position[b]
        return tuple(range(pa, pb)) if pb > pa else tuple(range(pa, n + 1))

    demands: list[tuple[int, int, Fraction]] = []
    components: list[Component] = []
    for i in range(1, m + 1):
        pa, pb = position[("o", i)], position[("o", i + m)]
        assert pa < pb
        demands.append((pa, pb, r.u[i - 1] + r.v[i - 1]))
        components.append(CrossingComponent(i, (r.u[i - 1], r.v[i - 1])))
    for a, b, value, capped in shorts:
        assert 0 < value <= big, "short value must end up in (0, D]"
        home = arc_edges(a, b)
        # only capping ever widens an arc: everything else stays on the
        # single edge it was created on
        assert len(home) >= 2 if capped else len(home) == 1
        i, j = sorted((position[a], position[b]))
        demands.append((i, j, value))
        components.append(ShortComponent(home, capped))

    instance = RingInstance(n, tuple(demands))
    boosted = BoostedInstance(instance, r, tuple(components), top, dropped)

    # routing everything canonically must load every edge to exactly the
    # source's maximum split load
    canonical = boosted.canonical_routing()
    assert all(x == top for x in canonical.loads()), "boost failed to equalize"
    return boosted


@dataclass(frozen=True)
class BoostReport:
    """Exact quantities certifying the boost construction.

    The gap between a boosted instance's unsplittable and split optima
    is at least the source routing's minimum additive performance."""

    source_performance: Fraction
    split_optimum: Fraction
    unsplittable_optimum: Fraction

    @property
    def gap(self) -> Fraction:
        return self.unsplittable_optimum - self.split_optimum


def verify_boost(b: BoostedInstance, cap: int | None = None) -> BoostReport:
    """Check L - L* >= min additive performance of the source, exactly.

    Raises BoundViolated if the enumeration contradicts the bound, which
    would mean the construction (not the inputs) is broken.
    """
    from . import exact  # local import: exact consumes boosted instances

    kwargs = {} if cap is None else {"cap": cap}
    perf, _ = exact.min_additive_performance(b.source, **kwargs)
    split_opt = exact.split_optimum_boosted(b)
    unsplit_opt, _ = exact.optimal_unsplittable_boosted(b, **kwargs)
    if unsplit_opt - split_opt < perf:
        raise BoundViolated(
            f"unsplittable optimum {unsplit_opt} minus split optimum {split_opt} "
            f"falls below the source performance {perf}"
        )
    return BoostReport(perf, split_opt, unsplit_opt)
