"""Exception hierarchy and the constants shared by all wittram modules."""

try:  # builtin modules (_sha2 from 3.12 on): hashlib would load OpenSSL
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


class WittramError(Exception):
    """Base class for all errors raised by this package."""


class InvalidExtension(WittramError):
    """Extension data are refused; the one type of every such refusal."""


#: the default term budget of the symbolic computations; every report
#: echoes the budget it ran with
DEFAULT_TERM_LIMIT = 10 ** 7

#: the suites of ``verify``, in run order; kept here so that the command
#: line parser can list them without loading the verify stack
SUITE_ORDER = ("symbolic", "trace-lemmas", "cascade", "proposition", "h1",
               "negative-control")


class ResourceLimit(WittramError):
    """A symbolic computation would exceed the configured term budget."""


class IntegralityError(WittramError):
    """A polynomial that must have integer coefficients failed certification."""


class LengthMismatch(WittramError):
    """Witt vector lengths (or truncation targets) are incompatible."""


class NoSolution(WittramError):
    """A linear system over Z/p^N has no solution at precision."""


class VerificationError(WittramError):
    """An internal consistency check failed (implementation bug)."""


class ConfigError(WittramError):
    """The harness was invoked with an invalid or unsafe configuration."""
