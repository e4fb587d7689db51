"""Shared exception types."""

from __future__ import annotations


class CorrlabError(Exception):
    """Base class for errors raised by this package."""


class InvariantViolation(CorrlabError):
    """An internal consistency check failed (CLI exit code 3)."""


class BoxValidationError(CorrlabError, ValueError):
    """A correlation-box table is malformed (bad keys, negative or unnormalized rows)."""


class LatticeMismatchError(CorrlabError, ValueError):
    """Two distributions live on incompatible support lattices."""


class NonCommutingError(CorrlabError, ValueError):
    """A joint measurement was requested for observables that do not commute."""
