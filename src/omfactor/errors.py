"""Exception hierarchy shared by the whole package. Each class carries the
exit code the CLI returns when one of its errors escapes a command."""

from __future__ import annotations


class OmError(Exception):
    """Base class for all errors raised by this package; never raised itself."""

    exit_code = 4


class ConfigError(OmError):
    """Invalid configuration, such as a composite prime or a bad flag value."""

    exit_code = 2


class ParseError(OmError):
    """Malformed textual or JSON input."""

    exit_code = 2


class PreconditionError(OmError):
    """A documented operation precondition was violated by the caller."""

    exit_code = 3


class InternalError(OmError):
    """An internal consistency check failed; indicates a bug, not bad input."""

    exit_code = 4
