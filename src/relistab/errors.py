"""Exception taxonomy shared across the toolkit.

Two families matter to callers (and to the CLI's exit codes):

* :class:`ValidationError` — the input itself is malformed (bad labels,
  duplicate cells, broken config).
* :class:`DegenerateError` — the input is well-formed but a requested
  statistic is undefined on it (no repeats, zero margins, ...).

Every concrete class carries a stable ``code`` string used in
machine-readable error objects.
"""


class RelistabError(Exception):
    """Base class for all toolkit errors."""

    code = "Error"


class ValidationError(RelistabError):
    """Malformed input data or configuration."""

    code = "Validation"


class DuplicateCellError(ValidationError):
    code = "DuplicateCell"


class UnknownLabelError(ValidationError):
    code = "UnknownLabel"


class SchemaMismatchError(ValidationError):
    code = "SchemaMismatch"


class InvalidConfigError(ValidationError):
    code = "InvalidConfig"


class NonFiniteError(ValidationError):
    code = "NonFinite"


class DegenerateError(RelistabError):
    """A statistic is undefined on this (otherwise valid) input."""

    code = "Degenerate"


class NoRepeatsError(DegenerateError):
    code = "NoRepeats"


class NoOverlapError(DegenerateError):
    code = "NoOverlap"


class NotIntervalError(DegenerateError):
    code = "NotInterval"


class InsufficientVarianceError(DegenerateError):
    code = "InsufficientVariance"


class TooManyDegenerateError(DegenerateError):
    code = "TooManyDegenerate"


class NoQualifyingItemsError(DegenerateError):
    code = "NoQualifyingItems"


class EmptyInputError(DegenerateError):
    code = "Empty"


class ZeroMarginError(DegenerateError):
    code = "ZeroMargin"


class CoverageMismatchError(DegenerateError):
    code = "CoverageMismatch"


class NoIntervalsError(DegenerateError):
    code = "NoIntervals"


class TooFewBucketsError(DegenerateError):
    code = "TooFewBuckets"
