"""Exception hierarchy shared across the package."""


class Seq2TimeError(Exception):
    """Base class for all package errors."""


class DomainError(Seq2TimeError, ValueError):
    """An argument is outside the range an operation is defined on."""


class ConfigError(Seq2TimeError, ValueError):
    """A configuration value or combination is invalid."""


class TokenParseError(Seq2TimeError, ValueError):
    """A token string could not be parsed into a position code."""


class TemplateError(Seq2TimeError, ValueError):
    """A template bank entry is missing a required placeholder slot."""


class CorpusFormatError(Seq2TimeError, ValueError):
    """An input corpus file is malformed; message carries the line number."""


class InvariantViolation(Seq2TimeError, RuntimeError):
    """A generation postcondition failed; output must not be trusted."""
