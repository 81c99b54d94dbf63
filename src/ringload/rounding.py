"""Certified rounding of split crossing routings to unsplittable ones.

Every rounding routine returns a pattern together with the a-priori
bound (a multiple of the largest demand D) that its construction
guarantees.  The realized performance is derived from the pattern, not
stated by the caller; the constructor checks realized <= certified * D
and refuses to build a result that would break its own certificate.

The main routine classifies the instance by how balanced its most
central demand is (delta in [0, 1/2]) and dispatches:

  * delta >= 2/5: a single backward greedy pass through the extremal
    demand already achieves (3/2 - delta/2) * D.
  * delta < 2/5: the same pass either lands inside an explicit start
    window, or spawns two induced greedy patterns; one of the three is
    close enough to another (or to its own mirrored anchor) to combine
    into a pattern within (7/6 + delta/3) * D.

Both branches stay at or below 13/10 * D at the crossover point
delta = 2/5.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .core import (
    CrossingRouting,
    Pattern,
    additive_performance,
    mask_walk,
    to_rational,
)
from .errors import GuaranteeViolated, ParameterOutOfRange
from .greedy import BACKWARD, FORWARD, backward_greedy, forward_greedy, is_proper


class RoundingMethod(Enum):
    SSW = "ssw"
    MEDIUM = "medium"
    UPPER = "upper"
    CROSSOVER = "crossover"
    BRUTE_FORCE = "brute-force"


@dataclass(frozen=True)
class BoundedRounding:
    """A rounding outcome that carries its own certificate.

    certified_bound is the claimed bound, a multiple of D; realized, the
    absolute additive performance of the pattern, is derived from the
    pattern.  Construction checks only the claim, and fails loudly if the
    pattern does not honor it.
    """

    pattern: Pattern
    certified_bound: Fraction
    method: RoundingMethod
    note: str = ""

    def __post_init__(self):
        limit = self.certified_bound * self.pattern.routing.max_demand
        if self.realized > limit:
            raise GuaranteeViolated(
                f"realized performance {self.realized} exceeds certified "
                f"{self.certified_bound} * D = {limit}"
            )

    @property
    def realized(self) -> Fraction:
        return additive_performance(self.pattern)


def ssw_round(r: CrossingRouting) -> BoundedRounding:
    """Baseline: forward greedy from D/2.  The walk stays in [0, D], so
    the performance never exceeds (3/2) * D regardless of the instance."""
    pattern = forward_greedy(r, r.max_demand / 2)
    return BoundedRounding(pattern, Fraction(3, 2), RoundingMethod.SSW)


def closeness(p1: Pattern, p2: Pattern) -> tuple[Fraction, int]:
    """Smallest pointwise distance between two prefix walks on the same
    routing, with the first index attaining it (0..m)."""
    if p1.routing != p2.routing:
        raise ParameterOutOfRange("patterns live on different routings")
    # equal gaps compare on the index, so the first one wins
    pairs = zip(p1.prefix_values, p2.prefix_values)
    return min((abs(x - y), k) for k, (x, y) in enumerate(pairs))


def crossover(p1: Pattern, p2: Pattern) -> Pattern:
    """Splice two patterns at their closest point: follow p1's choices up
    to the witness index, p2's afterwards, and center the start so both
    halves shift by half the gap.  The result keeps the combined anchor
    sum x1 + y2 and stays within the union strip widened by half the gap
    on each side (both checked)."""
    gap, k = closeness(p1, p2)
    g = p1.prefix_values[k] - p2.prefix_values[k]
    low_mask = (1 << k) - 1
    choices = (p1.choices & low_mask) | (p2.choices & ~low_mask)
    start = p1.start - g / 2
    spliced = Pattern(p1.routing, choices, start)
    if spliced.start + spliced.end != p1.start + p2.end:
        raise GuaranteeViolated("crossover changed the combined anchor sum x1 + y2")
    lo1, hi1 = p1.strip
    lo2, hi2 = p2.strip
    lo, hi = spliced.strip
    if not (min(lo1, lo2) - gap / 2 <= lo and hi <= max(hi1, hi2) + gap / 2):
        raise GuaranteeViolated("crossover left the union strip widened by half the gap")
    return spliced


def induced_patterns(r: CrossingRouting, pa: Pattern) -> tuple[Pattern, Pattern]:
    """The two companion greedy patterns of a base pattern: a forward one
    whose start mirrors two thirds of pa's end, and a backward one whose
    end mirrors two thirds of pa's start.  Their anchors satisfy the
    midpoint identities checked below, which drive the crossover bound."""
    big = r.max_demand
    xa, ya = pa.start, pa.end
    xb = 2 * (big - ya) / 3 + xa / 3
    yc = 2 * (big - xa) / 3 + ya / 3
    pb = forward_greedy(r, xb)
    pc = backward_greedy(r, yc)
    if big - pc.end != (xa + pb.start) / 2:
        raise GuaranteeViolated("induced anchors break D - yc = (xa + xb)/2")
    if big - pb.start != (ya + pc.end) / 2:
        raise GuaranteeViolated("induced anchors break D - xb = (ya + yc)/2")
    return pb, pc


def round_via_induced(
    r: CrossingRouting,
    pa: Pattern,
    delta,
) -> BoundedRounding:
    """Combine a backward-proper base pattern with its two induced greedy
    patterns into one whose performance is at most
    D + |D - (xa+ya)|/3 + delta*D/2.

    Either one of the induced patterns already starts (ends) close enough
    to its mirrored end (start) to qualify alone, or two of the three
    walks pass within delta*D/2 of each other and their splice qualifies.
    The latter must happen whenever the former fails: three walks confined
    to [0, D] whose endpoint order is not a cyclic shift of their start
    order force a crossing somewhere.
    """
    delta = to_rational(delta)
    big = r.max_demand
    lo, hi = pa.strip
    if lo < 0 or hi > big:
        raise GuaranteeViolated(f"base pattern strip [{lo}, {hi}] leaves [0, {big}]")
    if not is_proper(pa, BACKWARD, delta):
        raise GuaranteeViolated("base pattern anchor is not proper")
    pb, pc = induced_patterns(r, pa)
    if not is_proper(pb, FORWARD, delta):
        raise GuaranteeViolated("induced forward pattern start is not proper")
    if not is_proper(pc, BACKWARD, delta):
        raise GuaranteeViolated("induced backward pattern end is not proper")

    xa, ya = pa.start, pa.end
    anchor_sum = xa + ya
    eps = abs(big - anchor_sum) / 3 + delta * big / 2
    certified = (big + eps) / big

    chosen = None
    method = None
    if abs(pc.start - (big - pc.end)) <= eps:
        chosen, method = pc, RoundingMethod.UPPER
    elif abs(pb.end - (big - pb.start)) <= eps:
        chosen, method = pb, RoundingMethod.UPPER
    else:
        for first, second in ((pb, pa), (pa, pc), (pb, pc)):
            gap, _ = closeness(first, second)
            if gap <= delta * big / 2:
                chosen, method = crossover(first, second), RoundingMethod.CROSSOVER
                break
    if chosen is None:
        starts = sorted((p.start, name) for p, name in ((pa, "a"), (pb, "b"), (pc, "c")))
        ends = sorted((p.end, name) for p, name in ((pa, "a"), (pb, "b"), (pc, "c")))
        raise GuaranteeViolated(
            "no qualifying pattern or crossover pair; "
            f"start order {starts}, end order {ends}"
        )
    return BoundedRounding(chosen, certified, method)


def _rotate_routing(r: CrossingRouting, shift: int) -> CrossingRouting:
    """Renumber demands so that old demand shift+1 becomes demand 1.
    Demands that wrap past m re-enter with their two directions swapped."""
    denom, us, vs = r.scaled
    rotated = CrossingRouting(r.u[shift:] + r.v[:shift], r.v[shift:] + r.u[:shift])
    return rotated._adopt_scaled((denom, us[shift:] + vs[:shift], vs[shift:] + us[:shift]))


def _unrotate_pattern(r: CrossingRouting, rotated: Pattern, shift: int) -> Pattern:
    """Carry a pattern on the rotated routing back to the input indexing,
    flipping the choice bits of wrapped demands and re-centering the start
    so the anchor sum x + y is preserved (performance is unchanged either
    way; checked)."""
    kept = r.m - shift
    # rotated bit j - 1 is input bit j + shift - 1; wrapped ones flip
    choices = (rotated.choices & ((1 << kept) - 1)) << shift
    choices |= ~rotated.choices >> kept & ((1 << shift) - 1)
    denom, us, vs = r.scaled
    step_sum = mask_walk(us, vs, choices)[-1]
    # both walks share the denominator, so x + y = 2 * start + walk end
    start = rotated.start + Fraction(rotated.walk[-1] - step_sum, 2 * denom)
    pattern = Pattern(r, choices, start)
    if additive_performance(pattern) != additive_performance(rotated):
        raise GuaranteeViolated("un-rotating the pattern changed its performance")
    return pattern


def _swap_directions(r: CrossingRouting) -> CrossingRouting:
    denom, us, vs = r.scaled
    return CrossingRouting(r.v, r.u)._adopt_scaled((denom, vs, us))


def _reflect_pattern(target: CrossingRouting, p: Pattern) -> Pattern:
    """Mirror a pattern across D/2.  The mirrored walk takes the opposite
    choice at every step, so it lives on the direction-swapped routing.
    Applying the reflection twice gives back the original pattern."""
    if target.u != p.routing.v or target.v != p.routing.u:
        raise GuaranteeViolated("reflection target is not the direction-swapped routing")
    full = (1 << p.routing.m) - 1
    return Pattern(target, p.choices ^ full, p.routing.max_demand - p.start)


def _last_demand(r: CrossingRouting) -> Fraction:
    denom, us, vs = r.scaled
    return Fraction(us[-1] + vs[-1], denom)


def _extended_backward(rr: CrossingRouting) -> tuple[Pattern, bool]:
    """Backward greedy through the extremal last demand.

    Ending at (D + d_m)/2 forces the last step up; ending at (D - d_m)/2
    forces it down; both walks then coincide, so they share their start.
    Returns the high-anchored walk if it starts at or below D/2, else the
    low-anchored one, plus which case applied."""
    big = rr.max_demand
    d_last = _last_demand(rr)
    last = 1 << (rr.m - 1)
    high = backward_greedy(rr, (big + d_last) / 2)
    if not high.choices & last:
        raise GuaranteeViolated("high anchor must force the last step up")
    if high.start <= big / 2:
        return high, True
    low = backward_greedy(rr, (big - d_last) / 2)
    if low.choices & last:
        raise GuaranteeViolated("low anchor must force the last step down")
    if low.start != high.start:
        raise GuaranteeViolated(f"extremal walks start apart: {low.start} and {high.start}")
    if low.choices != high.choices ^ last:
        raise GuaranteeViolated("extremal walks differ before the last step")
    return low, False


def round_medium(r: CrossingRouting) -> BoundedRounding:
    """Rounding for well-spread instances: one backward greedy pass
    anchored just past the most central demand, certified at
    (3/2 - delta/2) * D.  The spread class delta and its witness demand
    come from the routing (``r.classify_delta()``)."""
    cls = r.classify_delta()
    shift = cls.index % r.m
    rr = _rotate_routing(r, shift)
    chosen, _ = _extended_backward(rr)
    pattern = _unrotate_pattern(r, chosen, shift)
    return BoundedRounding(pattern, Fraction(3, 2) - cls.value / 2, RoundingMethod.MEDIUM)


def round_upper(r: CrossingRouting) -> BoundedRounding:
    """Rounding for poorly-spread instances (delta <= 2/5), certified at
    (7/6 + delta/3) * D, with delta and its witness demand read from the
    routing (``r.classify_delta()``).

    The extremal backward walk either starts inside an explicit window
    around the mirror of its end anchor and qualifies alone, or serves as
    the base pattern for the induced-pattern combination.  When the walk
    starts above D/2 everything is mirrored first; the mirror swaps the
    two ring directions and is undone on the way out.
    """
    cls = r.classify_delta()
    delta = cls.value
    if delta > Fraction(2, 5):
        raise ParameterOutOfRange(
            f"class {delta} > 2/5: use round_medium for well-spread instances"
        )
    shift = cls.index % r.m
    rr = _rotate_routing(r, shift)
    chosen, used_high = _extended_backward(rr)
    if used_high:
        work, base, reflected = rr, chosen, False
    else:
        work = _swap_directions(rr)
        base = _reflect_pattern(work, chosen)
        reflected = True
    big = work.max_demand
    d_last = _last_demand(work)
    if base.end != (big + d_last) / 2:
        raise GuaranteeViolated(f"base pattern ends at {base.end}, not (D + d_m)/2")
    if base.start > big / 2:
        raise GuaranteeViolated(f"base pattern starts at {base.start}, above D/2")
    certified = Fraction(7, 6) + delta / 3
    window = big / 6 + delta * big / 3
    mirrored_end = (big - d_last) / 2
    if abs(base.start - mirrored_end) <= window:
        pattern, method = base, RoundingMethod.UPPER
    else:
        inner = round_via_induced(work, base, delta)
        if inner.certified_bound > certified:
            raise GuaranteeViolated(
                f"induced rounding certifies {inner.certified_bound}, above {certified}"
            )
        pattern, method = inner.pattern, inner.method
    if reflected:
        pattern = _reflect_pattern(rr, pattern)
    pattern = _unrotate_pattern(r, pattern, shift)
    return BoundedRounding(pattern, certified, method)


def round_main(r: CrossingRouting) -> BoundedRounding:
    """Certified rounding within 13/10 * D: dispatch on the spread class,
    then keep the baseline greedy pattern instead if it happens to
    realize a smaller performance (the branch certificate still applies)."""
    if r.classify_delta().value >= Fraction(2, 5):
        branch = round_medium(r)
    else:
        branch = round_upper(r)
    if branch.certified_bound > Fraction(13, 10):
        raise GuaranteeViolated(
            f"{branch.method.value} rounding certifies {branch.certified_bound}, above 13/10"
        )
    baseline = ssw_round(r)
    if baseline.realized < branch.realized:
        return replace(
            baseline,
            certified_bound=branch.certified_bound,
            note=(
                "baseline greedy pattern kept (smaller realized value); "
                f"certificate inherited from the {branch.method.value} construction"
            ),
        )
    return branch
