"""Exception types shared across the package."""


class AplabError(Exception):
    """Base class for all package errors."""


class BadParameter(AplabError, ValueError):
    """A configuration or argument value is outside its documented domain."""


class IndexOutOfRange(AplabError, IndexError):
    """A character, element, or basis index is outside its valid range."""


class PartitionInvalid(AplabError, ValueError):
    """Anchor/carrier lists do not partition the character index set."""


class StrategyUnavailable(AplabError, ValueError):
    """The requested search strategy is not usable at this level."""


class MissingLevelData(AplabError, LookupError):
    """A construction step needs level data that has not been built."""


class TruncationTooSmall(AplabError, ValueError):
    """An operator matrix is truncated below the requested level."""


class FormUnavailable(AplabError, ValueError):
    """The lower-level functional form does not exist at level 0."""


class NoWitness(AplabError):
    """The schedule never satisfies the witness criterion for this dimension."""


class DepthUnreachable(AplabError):
    """The split sequence cannot be extended to the requested depth."""


class MissingArtifact(AplabError, FileNotFoundError):
    """A command requires stored artifacts that are not present."""


class CheckFailed(AplabError):
    """A verification or acceptance gate did not hold."""
