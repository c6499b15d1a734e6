"""Error taxonomy shared by every module.

One class per exit code of the command line: each failure mode that callers
are expected to handle gets its own class, and any broken invariant, a sign
of a bug in this package rather than bad input, raises InternalInconsistency
so it is never silently caught together with the rest.
"""


class Dt4Error(Exception):
    """Base class for all errors raised by this package."""


class NonGenericParameters(Dt4Error):
    """A torus parameter choice annihilates a weight that must stay nonzero."""


class BoundExceeded(Dt4Error):
    """An enumeration or expansion would pass the configured size cap."""


class InternalInconsistency(Dt4Error):
    """An internal invariant was violated; indicates a bug, not bad input."""


class Unsupported(Dt4Error):
    """The requested case is outside the range this package computes."""
