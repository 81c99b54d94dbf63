"""Exception hierarchy shared by all modules."""


class RingLoadingError(Exception):
    """Base class for every error raised by this package."""


class MalformedRouting(RingLoadingError):
    """An instance or routing violates a structural invariant."""


class InvalidStart(RingLoadingError):
    """Forward construction anchored outside the feasible strip."""


class InvalidEnd(RingLoadingError):
    """Backward construction anchored outside the feasible strip."""


class LengthMismatch(RingLoadingError):
    """Two patterns that must share a routing do not."""


class GuaranteeViolated(RingLoadingError):
    """A certified bound or a guaranteed construction step failed.

    This is never suppressed: it indicates either corrupted input or a
    genuine bug, and callers are expected to surface it loudly.
    """


class TooLarge(RingLoadingError):
    """An exhaustive enumeration was requested above its size cap."""


class BoundViolated(RingLoadingError):
    """A verification step found a value outside its proven bound."""


class NotEqualized(RingLoadingError):
    """A construction that must produce uniform edge loads did not."""


class ParameterOutOfRange(RingLoadingError):
    """A generator or algorithm parameter is outside its domain."""


class ParseError(RingLoadingError):
    """An instance file could not be parsed."""
