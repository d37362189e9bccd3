"""Exception types shared across the package.

Exit-code mapping used by the CLI: configuration / argument problems -> 2,
failures inside an otherwise well-configured pipeline -> 3.
"""


class EnfNetError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(EnfNetError, ValueError):
    """An argument violates a documented precondition."""


class ConfigurationError(EnfNetError):
    """A config object is internally inconsistent (e.g. byzantine count > f)."""


class QuorumError(EnfNetError):
    """Transaction pool holds fewer entries than the scoring rule requires."""

    def __init__(self, n, required):
        super().__init__(f"insufficient quorum: pool has {n} entries, need >= {required}")
        self.n = n
        self.required = required
