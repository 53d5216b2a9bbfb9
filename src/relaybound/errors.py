"""Exception types shared across the package, and the integer-field check."""

from __future__ import annotations

import operator


class SchemaError(ValueError):
    """A model file, a serialized object or a constructor argument violates
    its schema.

    The message names the offending field path, e.g. ``gains[1][1]``.
    """


class TensorCapError(RuntimeError):
    """A requested joint pmf tensor would exceed the cell cap."""


class UnboundedError(RuntimeError):
    """The linear program has unbounded objective value."""


class InfeasibleError(RuntimeError):
    """The linear program has an empty feasible region."""


def as_int(value, what: str) -> int:
    """``value`` as an int.  An integer (numpy's too) or an integral float is
    accepted; a bool, a non-number or a non-integral number raises
    SchemaError naming ``what``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            if isinstance(value, float) and value.is_integer():
                return int(value)
    raise SchemaError(f"{what}: expected an integer, got {value!r}")
