"""Exception types shared across the package.

One class per nonzero exit code of the command line, and no more: a failure
that the CLI reports the same way is raised as the same class, with a message
that says which precondition failed.  ``cli.main`` maps ParseError to 1,
ParameterError to 2, VerificationFailed to 3 and BudgetExceeded to 4.
"""


class PermcodesError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PermcodesError):
    """A file being read does not match its format; message carries the line."""


class ParameterError(PermcodesError):
    """A precondition fails: a range, a shape, a field, a prime power, dual
    membership, subgroup membership or a distance floor."""


class VerificationFailed(PermcodesError):
    """A recomputed property (distance, header consistency) does not hold."""


class BudgetExceeded(PermcodesError):
    """An enumeration would exceed the caller-supplied work budget."""
