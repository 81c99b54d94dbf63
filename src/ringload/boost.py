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

from .core import CrossingRouting, RingInstance, integer_arc_loads
from .errors import GuaranteeViolated
from .exact import min_additive_performance, optimal_unsplittable_boosted
from .exact import split_optimum_boosted
from .reduce import GeneralSplitRouting


@dataclass(frozen=True)
class CrossingComponent:
    """A demand inherited from the source routing; its split is the
    source's ``(u, v)`` at ``source_index``."""

    kind: ClassVar[str] = "crossing"
    source_index: int  # 1-based demand index in the source routing


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

    ``canonical_routing`` is the boosted instance with every crossing
    demand split as in ``source`` and every short routed on its home
    path; it loads every edge to exactly ``equalized_load``.
    ``components[t]`` explains demand t.  ``boost`` builds the routing
    once from its integers, and the equalization check, the split
    optimum and the unsplittable oracle all read it.
    """

    canonical_routing: GeneralSplitRouting
    source: CrossingRouting
    components: tuple[Component, ...]
    equalized_load: Fraction
    dropped_zero_shorts: int

    @property
    def instance(self) -> RingInstance:
        return self.canonical_routing.instance


def boost(r: CrossingRouting) -> BoostedInstance:
    """Build the equalized instance embedding the given crossing routing.

    Filler values are worked out on integers in units of
    ``1 / r.scaled[0]`` and become rationals only in the output."""
    m = r.m
    denom, us, vs = r.scaled
    big = max(a + b for a, b in zip(us, vs))
    loads = integer_arc_loads(2 * m, ((i, i + m, us[i - 1], vs[i - 1]) for i in range(1, m + 1)))
    top = max(loads)

    # the ring under construction, as an ordered token list; token t at
    # list index p ends up as node p+1
    ring: list[tuple] = []
    for k in range(1, 2 * m + 1):
        ring.append(("o", k))
        ring.append(("h", k))  # half-edge node from the step-2 subdivision

    # shorts as mutable [from_token, to_token, value, capped] arcs, where
    # to_token is the from_token's ring successor at creation time;
    # ``single`` maps a token to the uncapped filler on the ring edge
    # leaving it
    shorts: list[list] = []
    single: dict[tuple, list] = {}
    dropped = 0
    for k in range(1, 2 * m + 1):
        gap = top - loads[k - 1]
        if gap == 0:
            dropped += 1
            continue
        succ = ("o", k + 1) if k < 2 * m else ("o", 1)
        for rec in ([("o", k), ("h", k), gap, False], [("h", k), succ, gap, False]):
            shorts.append(rec)
            single[rec[0]] = rec

    # one scan in ring order: a cap touches only the edge at the scan
    # point and the new edge right after it, so every oversized filler is
    # met in ascending ring position, the flank at the scan point first
    fresh = 0
    p = 0
    while p < len(ring):
        rec = single.get(ring[p])
        if rec is None or rec[2] <= big:
            p += 1
            continue
        a, b, value, _ = rec
        fresh += 1
        waypoint = ("x", fresh)
        ring.insert(p + 1, waypoint)
        rec[2] = big
        rec[3] = True
        left = [a, waypoint, value - big, False]
        right = [waypoint, b, value - big, False]
        shorts += (left, right)
        single[a] = left
        single[waypoint] = right

    n = len(ring)
    position = {tok: idx + 1 for idx, tok in enumerate(ring)}  # 1-based

    # the canonical routing in units of 1 / denom: a crossing demand sends
    # u clockwise, a short runs clockwise from its from-token, so all of
    # it goes clockwise unless its arc wraps past node n
    demands: list[tuple[int, int, Fraction]] = []
    values: list[int] = []
    cw: list[int] = []
    components: list[Component] = []
    for i in range(1, m + 1):
        pa, pb = position[("o", i)], position[("o", i + m)]
        if pa >= pb:
            raise GuaranteeViolated(f"crossing demand {i} runs from node {pa} back to {pb}")
        value = us[i - 1] + vs[i - 1]
        demands.append((pa, pb, Fraction(value, denom)))
        values.append(value)
        cw.append(us[i - 1])
        components.append(CrossingComponent(i))
    for a, b, value, capped in shorts:
        if not 0 < value <= big:
            raise GuaranteeViolated(
                f"short value {Fraction(value, denom)} outside (0, {r.max_demand}]"
            )
        pa, pb = position[a], position[b]
        home = tuple(range(pa, pb)) if pb > pa else tuple(range(pa, n + 1))
        # only capping ever widens an arc: everything else stays on the
        # single edge it was created on
        fits = len(home) >= 2 if capped else len(home) == 1
        if not fits:
            raise GuaranteeViolated(f"short (capped={capped}) has home edges {home}")
        demands.append((min(pa, pb), max(pa, pb), Fraction(value, denom)))
        values.append(value)
        cw.append(value if pa < pb else 0)
        components.append(ShortComponent(home, capped))

    canonical = GeneralSplitRouting.from_scaled(RingInstance(n, tuple(demands)), denom, values, cw)
    equalized = Fraction(top, denom)
    # routing everything canonically must load every edge to exactly the
    # source's maximum split load; ``from_scaled`` may reduce the units,
    # so compare cross-multiplied
    canonical_denom = canonical.scaled[0]
    if any(x * denom != top * canonical_denom for x in canonical.integer_loads()):
        raise GuaranteeViolated(f"boost failed to equalize at {equalized}")
    return BoostedInstance(canonical, r, tuple(components), equalized, dropped)


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


def verify_boost(b: BoostedInstance) -> BoostReport:
    """Check L - L* >= min additive performance of the source, exactly.

    Raises GuaranteeViolated if the enumeration contradicts the bound, which
    would mean the construction (not the inputs) is broken.
    """
    perf, _ = min_additive_performance(b.source)
    split_opt = split_optimum_boosted(b)
    unsplit_opt, _ = optimal_unsplittable_boosted(b)
    if unsplit_opt - split_opt < perf:
        raise GuaranteeViolated(
            f"unsplittable optimum {unsplit_opt} minus split optimum {split_opt} "
            f"falls below the source performance {perf}"
        )
    return BoostReport(perf, split_opt, unsplit_opt)
