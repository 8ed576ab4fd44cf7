"""Exception types shared across the pipeline.

Every error pickles to an equal one (same message and attributes), so a
featurize worker process can hand its error to the parent.
"""


class AiaError(Exception):
    """Base class for all pipeline errors."""


class SchemaError(AiaError):
    """Payload violates the telemetry schema.

    Carries the JSON path of the first violation when known.
    """

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.message = message
        self.path = path

    def __reduce__(self):
        return type(self), (self.message, self.path)


class NotFound(AiaError):
    """Entity has no public data (hidden handle, unknown match id)."""


class RateLimited(AiaError):
    """Upstream returned 429 and retries were exhausted."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class OutOfRange(AiaError):
    """Raw survey value falls outside the supported window."""


class EmptyInput(AiaError):
    """Operation requires a nonempty input."""


class DegenerateInput(AiaError):
    """Statistic undefined for this input (zero variance, single category)."""


class DomainError(AiaError):
    """Argument outside the mathematical domain of the operation."""


class MissingLabels(AiaError):
    """A feature row's owner has no row in the labels file."""


class InsufficientMatches(AiaError):
    """Player has too few matches for per-player aggregation."""


class SchemaMismatch(AiaError):
    """Matrix columns do not match a model's training schema."""


class LengthMismatch(AiaError):
    """Paired vectors have different lengths."""


class AttributeArity(AiaError):
    """Attribute does not have the class count the protocol requires."""


class NoPositives(AiaError):
    """Targeted subgroup has no positive members in a required split."""


class MissingPair(AiaError):
    """Hypothesis ledger input lacks one side of a required pair."""


class PlayerOverlap(AiaError):
    """Train and test player sets intersect; protocol contract violated."""


class ConfigError(AiaError):
    """Invalid generator or run configuration."""
