"""Greedy pattern constructions.

Both builders keep the trajectory inside [0, D] at every index — always
possible because each demand value is at most D — and steer as close to
D/2 as they can at each step.  Exact ties prefer the clockwise step
(+v); any fixed rule would do, but this one is pinned for
reproducibility.

The walk is steered on integers: each call scales the routing's parts
and its anchor to one common denominator ``s``, so the trajectory and D
become integers and "closer to D/2" compares ``|D*s - 2*t|``.  Only the
anchor of the returned pattern is rational.  The loops themselves are the
integer kernels ``steer_forward``/``steer_backward``, which ``rounding``
also runs directly on its own grid.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .core import CrossingRouting, Pattern, to_rational
from .errors import GuaranteeViolated, ParameterOutOfRange

FORWARD = "forward"
BACKWARD = "backward"


def _scale(r: CrossingRouting, anchor: Fraction) -> tuple[int, int, int, int]:
    """``(s, k, top, a)``: the denominator shared by the routing's parts
    and ``anchor``, the factor ``k = s / denom`` that carries the
    routing's integer parts there, and D and the anchor in units of
    ``1 / s``."""
    denom = r.scaled[0]
    big = r.max_demand
    s = lcm(denom, anchor.denominator)
    return (
        s,
        s // denom,
        big.numerator * (s // big.denominator),
        anchor.numerator * (s // anchor.denominator),
    )


def steer_forward(us, vs, k: int, top: int, start: int) -> tuple[int, int]:
    """``(choices, end)`` of the forward pass from integer anchor
    ``start``, with the steps ``k * us[i]``, ``k * vs[i]`` and the strip
    ``[0, top]`` all in one unit."""
    cur = start
    choices = 0
    for i, (u, v) in enumerate(zip(us, vs)):
        up = cur + k * v
        down = cur - k * u
        # at least one branch stays inside [0, D] since u[i] + v[i] <= D
        if up <= top and (down < 0 or abs(top - 2 * up) <= abs(top - 2 * down)):
            choices |= 1 << i
            cur = up
        else:
            cur = down
    return choices, cur


def steer_backward(us, vs, k: int, top: int, end: int) -> tuple[int, int]:
    """``(choices, start)`` of the backward pass to integer anchor
    ``end``, in the units of ``steer_forward``."""
    cur = end
    choices = 0
    for i in reversed(range(len(us))):
        # undo step i: predecessor is cur - v[i] if the step was +v,
        # cur + u[i] if it was -u
        was_up = cur - k * vs[i]
        was_down = cur + k * us[i]
        if was_up >= 0 and (was_down > top or abs(top - 2 * was_up) <= abs(top - 2 * was_down)):
            choices |= 1 << i
            cur = was_up
        else:
            cur = was_down
    return choices, cur


def forward_greedy(r: CrossingRouting, x) -> Pattern:
    """Build a pattern left to right from anchor ``x`` in [0, D]."""
    big = r.max_demand
    x = to_rational(x)
    if not 0 <= x <= big:
        raise ParameterOutOfRange(f"start {x} outside [0, {big}]")
    _, us, vs = r.scaled
    _, k, top, start = _scale(r, x)
    choices, cur = steer_forward(us, vs, k, top, start)
    if not 0 <= cur <= top:
        raise GuaranteeViolated(f"forward greedy from {x} left [0, {big}]")
    return Pattern(r, choices, x)


def backward_greedy(r: CrossingRouting, y) -> Pattern:
    """Build a pattern right to left from end anchor ``y`` in [0, D]."""
    big = r.max_demand
    y = to_rational(y)
    if not 0 <= y <= big:
        raise ParameterOutOfRange(f"end {y} outside [0, {big}]")
    _, us, vs = r.scaled
    s, k, top, end = _scale(r, y)
    choices, cur = steer_backward(us, vs, k, top, end)
    if not 0 <= cur <= top:
        raise GuaranteeViolated(f"backward greedy to {y} left [0, {big}]")
    pattern = Pattern(r, choices, Fraction(cur, s))
    if cur + k * pattern.walk[-1] != end:
        raise GuaranteeViolated(f"backward greedy pattern ends at {pattern.end}, not {y}")
    return pattern


def is_proper(p: Pattern, direction: str, delta) -> bool:
    """True when the pattern's anchor sits at least delta*D/4 away from
    the strip boundary: forward patterns are judged by their start,
    backward ones by their end (closed interval)."""
    if direction not in (FORWARD, BACKWARD):
        raise ParameterOutOfRange(f"direction must be {FORWARD!r} or {BACKWARD!r}, got {direction!r}")
    big = p.routing.max_demand
    delta = to_rational(delta)
    anchor = p.start if direction == FORWARD else p.end
    # margin <= anchor <= D - margin with margin = delta*D/4, times the
    # positive 4 * (all three denominators)
    scale = big.numerator * anchor.denominator
    mid = 4 * delta.denominator * big.denominator * anchor.numerator
    return delta.numerator * scale <= mid <= (4 * delta.denominator - delta.numerator) * scale
