"""Exception hierarchy shared by all modules."""


class RingLoadingError(Exception):
    """Base class for every error raised by this package."""


class MalformedRouting(RingLoadingError):
    """An instance or routing violates a structural invariant."""


class GuaranteeViolated(RingLoadingError):
    """A certified bound or a guaranteed construction step failed.

    This is never suppressed: it indicates either corrupted input or a
    genuine bug, and callers are expected to surface it loudly.
    """


class TooLarge(RingLoadingError):
    """An exhaustive enumeration was requested above its size cap."""


class ParameterOutOfRange(RingLoadingError):
    """A generator or algorithm parameter is outside its domain."""


class ParseError(RingLoadingError):
    """An instance file could not be parsed."""
