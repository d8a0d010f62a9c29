"""Exception hierarchy shared by all omegagroups modules."""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class MalformedTableError(AlgebraError):
    """An operation table has the wrong number of entries or an out-of-range value."""


class NotAGroupError(AlgebraError):
    """The addition table fails a group axiom (identity, associativity, or inverses)."""


class OmegaZeroViolationError(AlgebraError):
    """An extra operation does not send the all-zero tuple to 0."""


class SignatureMismatchError(AlgebraError):
    """Two algebras disagree on operation names or arities."""


class ArityMismatchError(AlgebraError):
    """An operation was applied to the wrong number of arguments."""


class UnknownOperationError(AlgebraError):
    """An operation name is not part of the algebra's signature."""


class LawViolationError(AlgebraError):
    """A structural law required by a classical embedding fails; names the law and witnesses."""


class UnboundVariableError(AlgebraError):
    """A term mentions a variable the assignment does not cover."""


class NotASubgroupError(AlgebraError):
    """A subset expected to be a closed subgroup is not."""


class NotContainedError(AlgebraError):
    """A generating set must lie inside its ambient subgroup."""


class NotARingError(AlgebraError):
    """A ring-only predicate was applied to an algebra not built as a ring."""


class TooLargeError(AlgebraError):
    """An enumeration guard was exceeded."""


class OracleDisagreementError(AlgebraError):
    """Two independent decision methods disagree; signals an implementation bug."""


class InvalidArgumentError(AlgebraError, ValueError):
    """An argument is out of range: an element or point off the carrier, fewer than one variable."""


class ParseError(AlgebraError):
    """Malformed algebra file or term expression; message carries the location."""
