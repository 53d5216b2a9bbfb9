"""Exception types shared across the package, and the one owner of each input
rule: ``as_int`` (an integer), ``as_int_set`` (a sorted set of them),
``as_node`` and ``as_nodes`` (node ids 1..n, or destinations 2..n),
``as_number`` (a real number), ``as_numbers`` (an array of them),
``as_power`` (a transmit power) and ``load_json_object`` (a model file).
Each raises SchemaError naming the argument or field path."""

from __future__ import annotations

import json
import math
import numbers
import operator
from pathlib import Path
from typing import Callable, Iterable

import numpy as np


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


def as_int_set(values: Iterable, what: str) -> tuple[int, ...]:
    """Sorted distinct ints of ``values``; each one that is not a plain int
    is checked by ``as_int`` as ``what[i]``."""
    return tuple(sorted({v if type(v) is int else as_int(v, f"{what}[{i}]")
                         for i, v in enumerate(values)}))


def as_node(value, n: int, what: str, first: int = 1) -> int:
    """``value`` as node k of an n-node network, first <= k <= n: first is 1
    for any node and 2 for a destination."""
    k = value if type(value) is int else as_int(value, what)
    if first <= k <= n:
        return k
    kind = "destination" if first == 2 else "node"
    raise SchemaError(f"{what}: {k} is outside {first}..{n}; a {kind} must lie in {first}..{n}")


def as_nodes(values: Iterable, n: int, what: str, first: int = 1) -> tuple[int, ...]:
    """``as_int_set`` of ``values``, each one in first..n as for ``as_node``."""
    nodes = as_int_set(values, what)
    for k in nodes[:1] + nodes[-1:]:
        as_node(k, n, what, first)
    return nodes


def as_number(value, what: str) -> float:
    """``value`` as a float.  A real number (numpy's too) is accepted; a bool
    (numpy's too) or a non-number raises SchemaError naming ``what``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise SchemaError(f"{what}: expected a number, got {value!r}")


def as_numbers(values, what: str) -> np.ndarray:
    """``values`` as a float array of the same shape.  A numeric ndarray
    converts in one call; any other entry that is not a float is read by
    ``as_number`` and named by its index, e.g. ``what[1][0]``."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values.astype(float)
    arr = np.asarray(values, dtype=object)
    flat = arr.ravel().tolist()
    for k, v in enumerate(flat):
        if type(v) is not float:
            index = "".join(f"[{i}]" for i in np.unravel_index(k, arr.shape))
            flat[k] = as_number(v, what + index)
    return np.array(flat, dtype=float).reshape(arr.shape)


def as_power(value, what: str = "power") -> float:
    """``value`` as a transmit power: a number that is finite and positive."""
    p = as_number(value, what)
    if math.isfinite(p) and p > 0:
        return p
    raise SchemaError(f"{what}: a power must be finite and positive, got {value!r}")


def load_json_object(path: str | Path, build: Callable[[dict], object]):
    """``build`` applied to the top-level JSON object of the file at
    ``path``; a ValueError it raises becomes a SchemaError, same message."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object at top level")
    try:
        return build(doc)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
