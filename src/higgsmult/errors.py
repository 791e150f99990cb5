"""Exception hierarchy shared by every module.

Three kinds of failure are kept apart deliberately: bad input data
(DomainError), a computation that would exceed a configured cap
(ResourceLimitError), and a broken internal invariant that callers
should never be able to trigger (InternalError).  The command line
maps them to exit codes 2, 3 and 70.
"""


class DomainError(ValueError):
    """Input violates a documented precondition or data invariant."""


class ResourceLimitError(RuntimeError):
    """A configured size or enumeration cap would be exceeded."""


class InternalError(RuntimeError):
    """A mathematically guaranteed invariant failed; this is a bug."""


class UnstableResultError(DomainError):
    """A rewrite produced a chain that fails the stability inequality."""
