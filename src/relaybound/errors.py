"""Exception types shared across the package, and the one owner of each input
rule: ``as_int`` (an integer), ``as_int_set`` (a sorted set of them),
``as_node`` and ``as_nodes`` (node ids 1..n, or destinations 2..n),
``as_node_count`` (a network's node count, at least 2), ``as_number`` (a
real number), ``as_nonnegative`` and ``as_positive`` (a finite real number
that is >= 0 or > 0: an SNR, a capacity, a variance, a transmit power),
``as_numbers`` (an array of real numbers, each one finite: the owner of
finiteness for array inputs), ``as_symbols`` (an array of output symbols,
read exactly and ranked) and ``load_json_object`` (a model file).  Each
raises SchemaError naming the argument or field path."""

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
    """``value`` as an int.  An integer or an integral float (numpy's too) is
    accepted; a bool, a non-number or a non-integral number raises
    SchemaError naming ``what``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            if isinstance(value, (float, np.floating)) and value.is_integer():
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


def as_node_count(value, what: str = "n") -> int:
    """``value`` as the node count of a network: an integer, at least 2."""
    n = value if type(value) is int else as_int(value, what)
    if n >= 2:
        return n
    raise SchemaError(f"{what}: a network needs at least 2 nodes, got {n}")


def as_number(value, what: str) -> float:
    """``value`` as a float.  A real number (numpy's too) is accepted; a bool
    (numpy's too) or a non-number raises SchemaError naming ``what``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise SchemaError(f"{what}: expected a number, got {value!r}")


def _index(k: int, shape: tuple[int, ...]) -> str:
    """The flat index ``k`` of an array of ``shape`` as ``[i][j]...``."""
    return "".join(f"[{i}]" for i in np.unravel_index(k, shape))


def as_numbers(values, what: str) -> np.ndarray:
    """``values`` as a float array of the same shape, every entry finite.  A
    numeric ndarray, or a flat list or tuple of plain floats and ints,
    converts in one call; any other entry that is not a float is read by
    ``as_number``, which refuses a bool or a string.  A bad entry is named by
    its index, e.g. ``what[1][0]``."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        arr = values.astype(float)
    elif type(values) in (list, tuple) and all(type(v) in (float, int) for v in values):
        arr = np.array(values, dtype=float)
    else:
        obj = np.asarray(values, dtype=object)
        flat = obj.ravel().tolist()
        for k, v in enumerate(flat):
            if type(v) is not float:
                try:
                    flat[k] = as_number(v, what)
                except SchemaError as exc:  # only a bad entry pays for its index
                    raise SchemaError(what + _index(k, obj.shape) + str(exc)[len(what):]) from None
        arr = np.array(flat, dtype=float).reshape(obj.shape)
    if not np.isfinite(arr).all():
        k = int(np.argmin(np.isfinite(arr)))
        raise SchemaError(f"{what}{_index(k, arr.shape)}: must be finite, got {arr.flat[k]}")
    return arr


def as_symbols(values, what: str) -> np.ndarray:
    """Each output symbol of ``values`` as its rank among their distinct
    symbols, in an int array of the same shape.  A symbol is read exactly: an
    int of any size or an integral float (numpy's too); a bool, a non-number,
    a non-integral or a negative entry raises SchemaError naming its index,
    e.g. ``what[1][0]``."""
    arr = values
    if not (isinstance(arr, np.ndarray) and arr.dtype.kind in "iuf"
            and ((arr >= 0) & (arr < math.inf) & (arr == np.round(arr))).all()):
        obj = np.asarray(values, dtype=object)
        flat = obj.ravel().tolist()
        for k, v in enumerate(flat):
            if type(v) is not int or v < 0:
                try:
                    flat[k] = as_int(v, what)
                    if flat[k] < 0:
                        raise SchemaError(f"{what}: an output symbol must be nonnegative, got {v}")
                except SchemaError as exc:  # only a bad entry pays for its index
                    raise SchemaError(what + _index(k, obj.shape) + str(exc)[len(what):]) from None
        # Only symbols beyond int64 pay for numpy sorting Python ints.
        kind = np.int64 if max(flat, default=0) < 2**63 else object
        arr = np.array(flat, dtype=kind).reshape(obj.shape)
    # A float array ranks as its exact ints would.  numpy 2.x releases differ
    # on the inverse's shape, so it is set here.
    return np.unique(arr, return_inverse=True)[1].reshape(arr.shape)


def as_nonnegative(value, what: str) -> float:
    """``value`` as a float that is finite and >= 0, e.g. an SNR."""
    x = as_number(value, what)
    if 0.0 <= x < math.inf:
        return x
    raise SchemaError(f"{what}: must be finite and nonnegative, got {x}")


def as_positive(value, what: str) -> float:
    """``value`` as a float that is finite and > 0, e.g. a power."""
    x = as_number(value, what)
    if 0.0 < x < math.inf:
        return x
    raise SchemaError(f"{what}: must be finite and positive, got {x}")


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
