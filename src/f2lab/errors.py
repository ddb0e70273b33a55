"""Shared exception types, and the one capacity check."""

from __future__ import annotations


class CapacityError(Exception):
    """An operation would exceed its enumeration or memory budget.

    Raised by `check_capacity` instead of silently truncating; `required`
    and `budget` are the counts its message prints, so callers can rescale.
    """

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(message)
        self.required = required
        self.budget = budget


def _count(n: int) -> str:
    """n in decimal, or m*2^e (2^e when m = 1) when n has e >= 10 trailing
    zero bits, so a huge count prints without forming its digits; a power
    of two is recognised without a temporary of its size."""
    if n >= 1024 and n.bit_count() == 1:
        return f"2^{n.bit_length() - 1}"
    e = (n & -n).bit_length() - 1
    return f"{n >> e}*2^{e}" if e >= 10 else str(n)


def check_capacity(what: str, required: int, budget: int, unit: str) -> None:
    """Refuse `what` with a CapacityError when it needs more than its budget.

    `required` and `budget` count the same `unit` (bytes, inputs, tuples,
    ...); the message names the route, the unit and both counts.
    """
    if required > budget:
        raise CapacityError(f"{what}: {_count(required)} {unit} exceed the budget of "
                            f"{_count(budget)} {unit}", required=required, budget=budget)


class FormatError(ValueError):
    """A file did not match its declared on-disk format."""


class InvariantError(Exception):
    """A computed result failed a check that must hold by construction.

    Raised in place of `assert`, which `python -O` removes: it means the
    program, not its input, is at fault.
    """
