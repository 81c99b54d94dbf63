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
)
from .errors import GuaranteeViolated, ParameterOutOfRange
from .greedy import BACKWARD, FORWARD, backward_greedy, forward_greedy, is_proper, steer_backward

# the branches run on integers in units of 1 / (GRID * r.scaled[0]), where
# every anchor they place lies: (D +- d_m)/2, D/2, the induced anchors,
# the window D/6 + delta*D/3 and the crossover shift g/2
GRID = 12


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
    halves shift by half the gap g = p1 - p2 there: up to the witness the
    walk is p1's shifted by -g/2, after it p2's shifted by +g/2.  So the
    result keeps the combined anchor sum x1 + y2 and stays within the
    union strip widened by half the gap on each side."""
    _, k = closeness(p1, p2)
    g = p1.prefix_values[k] - p2.prefix_values[k]
    low_mask = (1 << k) - 1
    choices = (p1.choices & low_mask) | (p2.choices & ~low_mask)
    return Pattern(p1.routing, choices, p1.start - g / 2)


def induced_patterns(pa: Pattern) -> tuple[Pattern, Pattern]:
    """The two companion greedy patterns of a base pattern on its routing:
    a forward one whose start mirrors two thirds of pa's end, and a
    backward one whose end mirrors two thirds of pa's start.  Their
    anchors satisfy the midpoint identities D - yc = (xa + xb)/2 and
    D - xb = (ya + yc)/2, which drive the crossover bound."""
    r = pa.routing
    big = r.max_demand
    xa, ya = pa.start, pa.end
    xb = 2 * (big - ya) / 3 + xa / 3
    yc = 2 * (big - xa) / 3 + ya / 3
    return forward_greedy(r, xb), backward_greedy(r, yc)


def round_via_induced(pa: Pattern) -> BoundedRounding:
    """Combine a backward-proper base pattern with its two induced greedy
    patterns into one whose performance is at most
    D + |D - (xa+ya)|/3 + delta*D/2, with delta the spread class of the
    pattern's routing.

    Either one of the induced patterns already starts (ends) close enough
    to its mirrored end (start) to qualify alone, or two of the three
    walks pass within delta*D/2 of each other and their splice qualifies.
    The latter must happen whenever the former fails: three walks confined
    to [0, D] whose endpoint order is not a cyclic shift of their start
    order force a crossing somewhere.
    """
    delta = pa.routing.classify_delta().value
    big = pa.routing.max_demand
    lo, hi = pa.strip
    if lo < 0 or hi > big:
        raise GuaranteeViolated(f"base pattern strip [{lo}, {hi}] leaves [0, {big}]")
    if not is_proper(pa, BACKWARD, delta):
        raise GuaranteeViolated("base pattern anchor is not proper")
    pb, pc = induced_patterns(pa)
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


def _rotated(r: CrossingRouting, shift: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """``(us, vs, D)``: the routing's integer parts renumbered so that
    demand shift+1 becomes demand 1, and D, in units of ``1 / denom``.
    Demands that wrap past m re-enter with their two directions swapped."""
    denom, us, vs = r.scaled
    big = r.max_demand
    return us[shift:] + vs[:shift], vs[shift:] + us[:shift], big.numerator * (denom // big.denominator)


def _extended_backward(us, vs, big: int) -> tuple[int, int, tuple[int, ...], bool]:
    """Backward greedy through the extremal last demand, on the parts
    ``us``/``vs`` and D = ``big`` in units of ``1 / denom``.

    Both extremal last steps leave (D + u_m - v_m)/2: up from (D + d_m)/2,
    down from (D - d_m)/2 (with positive parts the greedy takes exactly
    these).  The two walks then share every earlier step and their start,
    so the low walk is the high one with its last choice flipped.
    Returns ``(choices, start, walk, used_high)``: the high-anchored walk if
    it starts at or below D/2, else the low-anchored one, with its start on
    the ``1 / (GRID * denom)`` grid and its walk on ``us``/``vs``."""
    half = GRID // 2
    choices, start = steer_backward(us, vs, GRID, GRID * big, half * (big + us[-1] + vs[-1]))
    used_high = start <= half * big
    if not used_high:
        choices ^= 1 << (len(us) - 1)
    return choices, start, mask_walk(us, vs, choices), used_high


def _carry_back(r: CrossingRouting, shift: int, choices: int, start: int, walk) -> Pattern:
    """The pattern on ``r`` of a walk found on ``_rotated(r, shift)``: the
    choice bits of wrapped demands flip, and the start (on the grid) is
    re-centered so the anchor sum x + y is kept.  Relabelling the ring
    moves no load, so the performance is kept too."""
    kept = r.m - shift
    # rotated bit j - 1 is input bit j + shift - 1; wrapped ones flip
    back = (choices & ((1 << kept) - 1)) << shift
    back |= ~choices >> kept & ((1 << shift) - 1)
    denom, us, vs = r.scaled
    back_walk = mask_walk(us, vs, back)
    # x + y = 2 * start + GRID * (walk end) on both sides
    start += GRID // 2 * (walk[-1] - back_walk[-1])
    return Pattern(r, back, Fraction(start, GRID * denom))._adopt_walk(back_walk)


def round_medium(r: CrossingRouting) -> BoundedRounding:
    """Rounding for well-spread instances: one backward greedy pass
    anchored just past the most central demand, certified at
    (3/2 - delta/2) * D.  The spread class delta and its witness demand
    come from the routing (``r.classify_delta()``)."""
    cls = r.classify_delta()
    shift = cls.index % r.m
    choices, start, walk, _ = _extended_backward(*_rotated(r, shift))
    pattern = _carry_back(r, shift, choices, start, walk)
    return BoundedRounding(pattern, Fraction(3, 2) - cls.value / 2, RoundingMethod.MEDIUM)


def round_upper(r: CrossingRouting) -> BoundedRounding:
    """Rounding for poorly-spread instances (delta <= 2/5), certified at
    (7/6 + delta/3) * D, with delta and its witness demand read from the
    routing (``r.classify_delta()``).

    The extremal backward walk either starts inside an explicit window
    around the mirror of its end anchor and qualifies alone, or serves as
    the base pattern for the induced-pattern combination.  When the walk
    starts above D/2 everything is mirrored across D/2 first: the opposite
    choice at every step, on the direction-swapped parts, walks the negated
    walk.  The mirror is undone on the way out.
    """
    cls = r.classify_delta()
    delta = cls.value
    if delta > Fraction(2, 5):
        raise ParameterOutOfRange(f"class {delta} > 2/5: use round_medium for well-spread instances")
    shift = cls.index % r.m
    us, vs, big = _rotated(r, shift)
    choices, start, walk, used_high = _extended_backward(us, vs, big)
    denom = r.scaled[0]
    unit, top, full = GRID * denom, GRID * big, (1 << r.m) - 1
    if not used_high:
        us, vs = vs, us
        choices, start, walk = choices ^ full, top - start, tuple(-w for w in walk)
    d_last = us[-1] + vs[-1]
    # the base pattern now ends at (D + d_m)/2 and starts at or below D/2
    certified = Fraction(7, 6) + delta / 3
    method = RoundingMethod.UPPER
    width = delta.numerator * (big // delta.denominator)
    # window D/6 + delta*D/3 around the mirrored end anchor (D - d_m)/2
    if abs(start - GRID // 2 * (big - d_last)) > 2 * big + 4 * width:
        u, v = r.u[shift:] + r.v[:shift], r.v[shift:] + r.u[:shift]
        work = CrossingRouting(u, v) if used_high else CrossingRouting(v, u)
        base = Pattern(work._adopt_scaled((denom, us, vs)), choices, Fraction(start, unit))
        # |(D - d_m)/2 - xa| <= (1 - delta) * D/2 for xa in [0, D/2], so the
        # inner certificate is at most ours; the result re-checks ours
        inner = round_via_induced(base._adopt_walk(walk))
        p = inner.pattern
        start, off = divmod(p.start.numerator * unit, p.start.denominator)
        if off:
            raise GuaranteeViolated(f"induced pattern starts at {p.start}, off the 1/{unit} grid")
        choices, walk, method = p.choices, p.walk, inner.method
    if not used_high:
        choices, start, walk = choices ^ full, top - start, tuple(-w for w in walk)
    pattern = _carry_back(r, shift, choices, start, walk)
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
