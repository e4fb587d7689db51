"""Exception types: a refused input raises ``ValueError`` (CLI exit code 2); only an internal fault has its own type."""

from __future__ import annotations


class InvariantViolation(Exception):
    """An internal consistency check failed (CLI exit code 3)."""
