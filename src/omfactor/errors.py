"""Exception hierarchy shared by the whole package.

Exit-code mapping used by the CLI: ParseError and ConfigError exit with 2,
PreconditionError with 3, InternalError with 4.
"""

from __future__ import annotations


class OmError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(OmError):
    """Invalid configuration, such as a composite prime or a bad flag value."""


class ParseError(OmError):
    """Malformed textual or JSON input."""


class PreconditionError(OmError):
    """A documented operation precondition was violated by the caller."""


class InternalError(OmError):
    """An internal consistency check failed; indicates a bug, not bad input."""
