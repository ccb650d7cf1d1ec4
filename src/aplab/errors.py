"""Exception types shared across the package: a base and one class per exit code of ``main``."""


class AplabError(Exception):
    """Base class for all package errors."""


class BadParameter(AplabError, ValueError):
    """A configuration, argument or input value is outside its documented domain."""


class MissingArtifact(AplabError, FileNotFoundError):
    """A command requires stored artifacts that are not present."""


class CheckFailed(AplabError):
    """A verification or acceptance gate did not hold."""
