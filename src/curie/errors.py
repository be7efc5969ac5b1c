"""Common exception root for the curie package.

Every package-specific exception derives from :class:`CurieError` so
callers (and the CLI) can distinguish expected failures from bugs.
"""


class CurieError(Exception):
    """Base class for all errors raised by this package."""


class MalformedPayload(CurieError):
    """Bytes a wire parser was handed that its serializer could not have
    produced: truncated, mistyped, or out of range."""


class PolicyTypeError(CurieError, TypeError):
    """A policy compares or filters operands of incompatible kinds: an
    error in member input, typed so negotiation can turn it into an
    empty agreement while genuine ``TypeError`` bugs still surface."""


class OverflowAbort(CurieError):
    """A value leaves the range its encoding is sized for: a normalized
    value past [-1, 1], or pooled statistics past a ring slot."""
