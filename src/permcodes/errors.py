"""Exception types shared across the package.

One class per nonzero exit code of the command line, and no more: a failure
that the CLI reports the same way is raised as the same class, with a message
that says which precondition failed.  The map lives on the classes: each
carries the exit code and the stderr label that ``cli.main`` reports it with.
"""


class PermcodesError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2
    label = "infeasible"


class ParseError(PermcodesError):
    """A file being read does not match its format; message carries the line."""

    exit_code = 1
    label = "parse error"


class ParameterError(PermcodesError):
    """A precondition fails: a range, a shape, a field, a prime power, dual
    membership, subgroup membership or a distance floor."""


class VerificationFailed(PermcodesError):
    """A recomputed property (distance, header consistency) does not hold."""

    exit_code = 3
    label = "verification failed"


class BudgetExceeded(PermcodesError):
    """An enumeration would exceed the caller-supplied work budget."""

    exit_code = 4
    label = "budget exceeded"
