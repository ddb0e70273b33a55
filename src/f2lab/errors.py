"""Shared exception types."""

from __future__ import annotations


class CapacityError(Exception):
    """An operation would exceed its enumeration or memory budget.

    Raised instead of silently truncating; the message carries the
    computed requirement so callers can rescale.
    """

    def __init__(self, message: str, required: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class FormatError(ValueError):
    """A file did not match its declared on-disk format."""


class InvariantError(Exception):
    """A computed result failed a check that must hold by construction.

    Raised in place of `assert`, which `python -O` removes: it means the
    program, not its input, is at fault.
    """
