"""Relay network models and cut enumeration.

Nodes are numbered 1..n with node 1 the source.  For Gaussian networks the
channel is y_k = sum_j g_kj x_j + z_k with unit-variance noise (any other
noise variance is absorbed into the gains), g stored as an n x n matrix with
zero diagonal, indexed gains[k-1][j-1] = g_kj (receiver row, transmitter
column).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError

#: Cut enumeration is exhaustive; beyond this many nodes callers must supply
#: explicit cut lists.
MAX_ENUM_NODES = 24


@dataclass(frozen=True)
class Cut:
    """A source-side subset S of nodes; node 1 is always a member."""

    s: tuple[int, ...]
    n: int

    def __init__(self, s: Iterable[int], n: int):
        s = tuple(sorted(set(int(k) for k in s)))
        if n < 2:
            raise ValueError(f"need n >= 2 nodes, got {n}")
        if 1 not in s:
            raise ValueError(f"cut {s} must contain the source node 1")
        if s and (s[0] < 1 or s[-1] > n):
            raise ValueError(f"cut {s} has nodes outside 1..{n}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "n", int(n))

    @property
    def complement(self) -> tuple[int, ...]:
        members = set(self.s)
        return tuple(k for k in range(1, self.n + 1) if k not in members)


@dataclass(frozen=True)
class GaussianNetwork:
    """An n-node Gaussian network with per-node transmit power limits."""

    n: int
    gains: np.ndarray
    power: np.ndarray
    destinations: tuple[int, ...]

    def __init__(
        self,
        n: int,
        gains: np.ndarray,
        power: float | Sequence[float],
        destinations: Iterable[int],
    ):
        n = int(n)
        if n < 2:
            raise ValueError(f"need n >= 2 nodes, got {n}")
        g = np.asarray(gains, dtype=float)
        if g.shape != (n, n):
            raise ValueError(f"gains must be {n}x{n}, got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("gains must be finite")
        if np.any(np.diag(g) != 0.0):
            raise ValueError("gains diagonal must be zero (no self-link)")
        p = np.asarray(power, dtype=float)
        if p.ndim == 0:
            p = np.full(n, float(p))
        if p.shape != (n,):
            raise ValueError(f"power must be a scalar or length-{n} vector")
        if not np.all(np.isfinite(p)):
            raise ValueError(f"power must be finite, got {p.tolist()}")
        if np.any(p <= 0):
            raise ValueError(f"power must be positive, got {p.tolist()}")
        dests = tuple(sorted(set(int(d) for d in destinations)))
        if not dests:
            raise ValueError("destinations must be nonempty")
        if any(d < 2 or d > n for d in dests):
            raise ValueError(f"destinations {dests} must lie in 2..{n}")
        g = g.copy()
        g.flags.writeable = False
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "power", p)
        object.__setattr__(self, "destinations", dests)

    @property
    def common_power(self) -> float:
        """The shared power limit; raises if the per-node limits differ."""
        if not np.all(self.power == self.power[0]):
            raise ValueError("network has per-node power limits, not a common one")
        return float(self.power[0])


@dataclass(frozen=True)
class DeterministicNetwork:
    """A noiseless network: y_k = maps[k](x_1, ..., x_n) for k = 2..n.

    ``alphabets[j-1]`` is the input alphabet size of node j; each map is a
    dense int tensor over the full input joint (row-major, axis j-1 for x_j).
    """

    n: int
    alphabets: tuple[int, ...]
    maps: dict[int, np.ndarray]
    destinations: tuple[int, ...]

    def __init__(
        self,
        alphabets: Sequence[int],
        maps: dict[int, np.ndarray | Sequence[int]],
        destinations: Iterable[int] = (),
    ):
        alphabets = tuple(int(a) for a in alphabets)
        n = len(alphabets)
        if n < 2:
            raise ValueError(f"need n >= 2 nodes, got {n}")
        if any(a < 1 for a in alphabets):
            raise ValueError(f"alphabet sizes must be >= 1, got {alphabets}")
        shape = alphabets
        fixed: dict[int, np.ndarray] = {}
        for k, table in maps.items():
            k = int(k)
            if k < 2 or k > n:
                raise ValueError(f"output map for node {k} outside 2..{n}")
            vals = np.asarray(table, dtype=float).reshape(shape)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"map y{k} symbols must be finite")
            if np.any(vals != np.floor(vals)):
                raise ValueError(f"map y{k} has non-integral symbols")
            if np.any(vals < 0):
                raise ValueError(f"map y{k} has negative symbols")
            arr = vals.astype(int)
            arr.flags.writeable = False
            fixed[k] = arr
        for k in range(2, n + 1):
            if k not in fixed:
                raise ValueError(f"missing output map for node {k}")
        dests = tuple(sorted(set(int(d) for d in destinations)))
        if any(d < 2 or d > n for d in dests):
            raise ValueError(f"destinations {dests} must lie in 2..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "alphabets", alphabets)
        object.__setattr__(self, "maps", fixed)
        object.__setattr__(self, "destinations", dests)

    def out_size(self, k: int) -> int:
        return int(self.maps[k].max()) + 1


@dataclass(frozen=True)
class GraphicalNetwork:
    """A directed capacitated graph: each edge is a noiseless bit pipe."""

    n: int
    edges: tuple[tuple[int, int, float], ...]
    destinations: tuple[int, ...]

    def __init__(
        self,
        edges: Iterable[tuple[int, int, float]],
        destinations: Iterable[int],
        n: int | None = None,
    ):
        norm = []
        hi = 1
        for u, v, cap in edges:
            u, v, cap = int(u), int(v), float(cap)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if u < 1 or v < 1:
                raise ValueError(f"edge ({u}, {v}) has nodes below 1")
            if not math.isfinite(cap):
                raise ValueError(f"edge ({u}, {v}) capacity must be finite, got {cap}")
            if cap < 0:
                raise ValueError(f"edge ({u}, {v}) has negative capacity {cap}")
            norm.append((u, v, cap))
            hi = max(hi, u, v)
        dests = tuple(sorted(set(int(d) for d in destinations)))
        if not dests:
            raise ValueError("destinations must be nonempty")
        hi = max(hi, max(dests))
        n = int(n) if n is not None else hi
        if n < hi:
            raise ValueError(f"n = {n} smaller than the largest node id {hi}")
        if any(d < 2 for d in dests):
            raise ValueError(f"destinations {dests} must exclude the source")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "destinations", dests)


def enumerate_cuts(n: int, destinations: Iterable[int], mode: str) -> list[Cut]:
    """All cuts S containing node 1, in ascending bitmask order (node 1 = LSB).

    unicast: the single destination must lie on the far side of every cut.
    broadcast: at least one destination on the far side.
    """
    if n > MAX_ENUM_NODES:
        raise ValueError(
            f"refusing to enumerate 2^{n - 1} cuts for n = {n} > {MAX_ENUM_NODES}; "
            "pass explicit cut lists instead"
        )
    dests = sorted(set(int(d) for d in destinations))
    if any(d < 2 or d > n for d in dests):
        raise ValueError(f"destinations {dests} must lie in 2..{n}")
    if mode == "unicast":
        if len(dests) != 1:
            raise ValueError(f"unicast mode needs exactly one destination, got {dests}")
    elif mode != "broadcast":
        raise ValueError(f"unknown mode {mode!r}")
    dest_mask = sum(1 << (d - 1) for d in dests)
    cuts = []
    for mask in range(1, 1 << n, 2):  # node 1 is the low bit, always set
        far = ~mask & ((1 << n) - 1)
        if mode == "unicast":
            if mask & dest_mask:
                continue
        else:
            if not far & dest_mask:
                continue
        cuts.append(Cut((k + 1 for k in range(n) if mask >> k & 1), n))
    return cuts


def gain_submatrix(
    net: GaussianNetwork, rx_nodes: Sequence[int], tx_nodes: Sequence[int]
) -> np.ndarray:
    """Gain block g[k][j] for receivers k in rx_nodes, transmitters j in tx_nodes."""
    rx = [int(k) - 1 for k in rx_nodes]
    tx = [int(j) - 1 for j in tx_nodes]
    return net.gains[np.ix_(rx, tx)]


def cut_submatrix(net: GaussianNetwork, cut: Cut) -> np.ndarray:
    """The |S^c| x |S| block mapping X(S) into the far-side observations."""
    if cut.n != net.n:
        raise ValueError(f"cut is over {cut.n} nodes, network has {net.n}")
    return gain_submatrix(net, cut.complement, cut.s)


def received_snr(net: GaussianNetwork, k: int) -> float:
    """S_k = sum_{j != k} g_kj^2 P_j, the full-power received SNR at node k."""
    if k < 1 or k > net.n:
        raise ValueError(f"node {k} outside 1..{net.n}")
    row = net.gains[k - 1]
    return float(np.dot(row * row, net.power))


# ---------------------------------------------------------------------------
# File formats.  Every model is a small JSON document with a "model" tag;
# validation errors name the offending field path.


def _as_int(value, what: str) -> int:
    """``value`` as an int; a bool, a non-number or a non-integral number
    raises SchemaError naming ``what``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise SchemaError(f"{what}: expected an integer, got {value!r}")


def _require(obj: dict, key: str, kind, path: str):
    if key not in obj:
        raise SchemaError(f"{path}{key}: missing required field")
    val = obj[key]
    if kind is int:
        return _as_int(val, f"{path}{key}")
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise SchemaError(f"{path}{key}: expected a number, got {type(val).__name__}")
        return float(val)
    if not isinstance(val, kind):
        raise SchemaError(f"{path}{key}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def _int_list(obj: dict, key: str) -> list[int]:
    return [_as_int(v, f"{key}[{i}]") for i, v in enumerate(_require(obj, key, list, ""))]


def network_to_dict(net) -> dict:
    if isinstance(net, GaussianNetwork):
        power = net.power.tolist()
        if all(p == power[0] for p in power):
            power = power[0]
        return {
            "model": "gaussian",
            "n": net.n,
            "power": power,
            "gains": net.gains.tolist(),
            "destinations": list(net.destinations),
        }
    if isinstance(net, DeterministicNetwork):
        doc = {
            "model": "deterministic",
            "alphabets": list(net.alphabets),
            "maps": {f"y{k}": net.maps[k].reshape(-1).tolist() for k in sorted(net.maps)},
        }
        if net.destinations:
            doc["destinations"] = list(net.destinations)
        return doc
    if isinstance(net, GraphicalNetwork):
        return {
            "model": "graphical",
            "n": net.n,
            "edges": [{"from": u, "to": v, "cap": c} for u, v, c in net.edges],
            "destinations": list(net.destinations),
        }
    raise TypeError(f"not a network model: {type(net).__name__}")


def network_from_dict(doc: dict):
    model = _require(doc, "model", str, "")
    if model == "gaussian":
        n = _require(doc, "n", int, "")
        gains = _require(doc, "gains", list, "")
        if len(gains) != n:
            raise SchemaError(f"gains: expected {n} rows, got {len(gains)}")
        for i, row in enumerate(gains):
            if not isinstance(row, list) or len(row) != n:
                raise SchemaError(f"gains[{i}]: expected a row of {n} numbers")
            for j, v in enumerate(row):
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise SchemaError(f"gains[{i}][{j}]: expected a number")
                if i == j and v != 0:
                    raise SchemaError(f"gains[{i}][{j}]: diagonal entries must be 0")
        power = doc.get("power")
        if isinstance(power, list):
            if len(power) != n or not all(
                isinstance(p, (int, float)) and not isinstance(p, bool) for p in power
            ):
                raise SchemaError(f"power: expected a number or {n} numbers")
        else:
            power = _require(doc, "power", float, "")
        dests = _int_list(doc, "destinations")
        try:
            return GaussianNetwork(n, np.array(gains, float), power, dests)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    if model == "deterministic":
        alphabets = _int_list(doc, "alphabets")
        maps_doc = _require(doc, "maps", dict, "")
        maps = {}
        for key, table in maps_doc.items():
            if not key.startswith("y") or not key[1:].isdigit():
                raise SchemaError(f"maps.{key}: keys must look like 'y2'")
            if not isinstance(table, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in table
            ):
                raise SchemaError(f"maps.{key}: expected a flat list of symbols")
            maps[int(key[1:])] = table
        try:
            dests = _int_list(doc, "destinations") if "destinations" in doc else ()
            return DeterministicNetwork(alphabets, maps, dests)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    if model == "graphical":
        edges_doc = _require(doc, "edges", list, "")
        edges = []
        for i, e in enumerate(edges_doc):
            if not isinstance(e, dict):
                raise SchemaError(f"edges[{i}]: expected an object")
            u = _require(e, "from", int, f"edges[{i}].")
            v = _require(e, "to", int, f"edges[{i}].")
            cap = _require(e, "cap", float, f"edges[{i}].")
            edges.append((u, v, cap))
        dests = _int_list(doc, "destinations")
        n = doc.get("n")
        n = None if n is None else _as_int(n, "n")
        try:
            return GraphicalNetwork(edges, dests, n=n)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    raise SchemaError(f"model: unknown model {model!r}")


def save_network(net, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2) + "\n")


def load_network(path: str | Path):
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object at top level")
    return network_from_dict(doc)
