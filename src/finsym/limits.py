"""Enumeration guards, and the integer check of outside input.

Brute-force enumerations (cochain assignments, group tuples, spin
configurations) are bounded so that a typo never launches an overnight
computation.  The hard ceiling is 2**24 states; a ``max_enum`` block (the
CLI's ``--max-enum``) may lower it, never raise it, and is the only way to.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from operator import index

HARD_CEILING = 2**24

_max_enum: ContextVar[int | None] = ContextVar("finsym_max_enum", default=None)


class GuardExceeded(RuntimeError):
    """An enumeration would exceed the configured state-count guard."""


@contextmanager
def max_enum(limit: int | None):
    """Inside the block, ``limit`` lowers the guard (None: the ceiling alone)."""
    token = _max_enum.set(limit)
    try:
        yield
    finally:
        _max_enum.reset(token)


def effective_limit(explicit: int | None = None) -> int:
    bounds = (HARD_CEILING, _max_enum.get(), explicit)
    return min(int(b) for b in bounds if b is not None)


def as_int(x, what: str) -> int:
    """x as an exact int if it is an integer (bools and numpy integers
    included); a ValueError naming it otherwise, so 1.7 is never truncated."""
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not an integer") from None


def check_enum(size: int, what: str = "enumeration") -> None:
    bound = effective_limit()
    if size > bound:
        try:
            states = str(size)
        except ValueError:  # more digits than int-to-str conversion allows
            states = f"at least 2^{size.bit_length() - 1}"
        raise GuardExceeded(f"{what} needs {states} states, guard allows {bound}")
