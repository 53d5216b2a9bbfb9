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
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    SchemaError, as_int, as_int_set, as_node, as_nodes, as_number, as_numbers, as_power,
    load_json_object)

#: Cut enumeration is exhaustive, and every cut-based evaluator enumerates, so
#: networks with more nodes than this are refused.
MAX_ENUM_NODES = 24


@dataclass(frozen=True)
class Cut:
    """A source-side subset S of nodes; node 1 is always a member."""

    s: tuple[int, ...]
    n: int

    def __init__(self, s: Iterable[int], n: int):
        n = as_int(n, "n")
        if n < 2:
            raise ValueError(f"need n >= 2 nodes, got {n}")
        s = as_nodes(s, n, "s")
        if 1 not in s:
            raise ValueError(f"cut {s} must contain the source node 1")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "n", n)

    @cached_property
    def complement(self) -> tuple[int, ...]:
        members = set(self.s)
        return tuple(k for k in range(1, self.n + 1) if k not in members)


def _enumerated_cut(s: tuple[int, ...], far: tuple[int, ...], n: int) -> Cut:
    """The cut ``Cut(s, n)`` of nodes that ``enumerate_cuts`` generated
    itself, built without re-validation, its complement ``far`` filled in."""
    cut = object.__new__(Cut)
    cut.__dict__.update(s=s, n=n, complement=far)
    return cut


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
        n = as_int(n, "n")
        if n < 2:
            raise ValueError(f"need n >= 2 nodes, got {n}")
        g = as_numbers(gains, "gains")
        if g.shape != (n, n):
            raise ValueError(f"gains must be {n}x{n}, got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("gains must be finite")
        for i in np.flatnonzero(np.diag(g))[:1]:
            raise ValueError(f"gains[{i}][{i}]: diagonal entries must be zero (no self-link)")
        p = np.asarray(power, dtype=object)
        if p.ndim == 0:
            p = np.full(n, as_power(p.item()))
        elif p.shape == (n,):
            p = np.array([as_power(v, f"power[{j}]") for j, v in enumerate(p.tolist())])
        else:
            raise ValueError(f"power must be a scalar or length-{n} vector")
        dests = as_nodes(destinations, n, "destinations", first=2)
        if not dests:
            raise ValueError("destinations must be nonempty")
        g.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "power", p)
        object.__setattr__(self, "destinations", dests)


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
        alphabets = tuple(as_int(a, f"alphabets[{i}]") for i, a in enumerate(alphabets))
        n = len(alphabets)
        if n < 2:
            raise ValueError(f"need n >= 2 nodes, got {n}")
        if any(a < 1 for a in alphabets):
            raise ValueError(f"alphabet sizes must be >= 1, got {alphabets}")
        shape = alphabets
        fixed: dict[int, np.ndarray] = {}
        for k, table in maps.items():
            k = as_node(k, n, f"maps[{k!r}] node", first=2)
            vals = as_numbers(table, f"maps[{k}]").reshape(shape)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"map y{k} symbols must be finite")
            if np.any(vals != np.floor(vals)):
                raise ValueError(f"map y{k} has non-integral symbols")
            if np.any(vals < 0):
                raise ValueError(f"map y{k} has negative symbols")
            if np.any(vals >= 2.0**63):
                raise ValueError(f"map y{k} has symbols of 2**63 or more, beyond int64")
            arr = vals.astype(int)
            arr.flags.writeable = False
            fixed[k] = arr
        for k in range(2, n + 1):
            if k not in fixed:
                raise ValueError(f"missing output map for node {k}")
        dests = as_nodes(destinations, n, "destinations", first=2)
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
        for i, (u, v, cap) in enumerate(edges):
            u, v = as_int(u, f"edges[{i}].from"), as_int(v, f"edges[{i}].to")
            cap = as_number(cap, f"edges[{i}].cap")
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
        dests = as_int_set(destinations, "destinations")
        if not dests:
            raise ValueError("destinations must be nonempty")
        hi = max(hi, max(dests))
        n = as_int(n, "n") if n is not None else hi
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
    n = as_int(n, "n")
    if n > MAX_ENUM_NODES:
        raise ValueError(
            f"refusing to enumerate 2^{n - 1} cuts for n = {n} > {MAX_ENUM_NODES}"
        )
    dests = as_nodes(destinations, n, "destinations", first=2)
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
        cuts.append(_enumerated_cut(tuple(k + 1 for k in range(n) if mask >> k & 1),
                                    tuple(k + 1 for k in range(n) if far >> k & 1), n))
    return cuts


def cut_submatrix(net: GaussianNetwork, cut: Cut) -> np.ndarray:
    """The |S^c| x |S| block mapping X(S) into the far-side observations."""
    if cut.n != net.n:
        raise ValueError(f"cut is over {cut.n} nodes, network has {net.n}")
    return net.gains[np.ix_([k - 1 for k in cut.complement], [j - 1 for j in cut.s])]


def received_snr(net: GaussianNetwork, k: int) -> float:
    """S_k = sum_{j != k} g_kj^2 P_j, the full-power received SNR at node k."""
    row = net.gains[as_node(k, net.n, "k") - 1]
    return float(np.dot(row * row, net.power))


# ---------------------------------------------------------------------------
# File formats.  Every model is a small JSON document with a "model" tag;
# validation errors name the offending field path.


def _require(obj: dict, key: str, kind, path: str):
    if key not in obj:
        raise SchemaError(f"{path}{key}: missing required field")
    val = obj[key]
    if kind is int:
        return as_int(val, f"{path}{key}")
    if not isinstance(val, kind):
        raise SchemaError(f"{path}{key}: expected {kind.__name__}, got {type(val).__name__}")
    return val


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
    """The network a model document describes.  A malformed field raises
    SchemaError naming its path; a constructor's own check, ValueError."""
    model = _require(doc, "model", str, "")
    if model == "gaussian":
        n = _require(doc, "n", int, "")
        gains = _require(doc, "gains", list, "")
        if len(gains) != n:
            raise SchemaError(f"gains: expected {n} rows, got {len(gains)}")
        for i, row in enumerate(gains):
            if not isinstance(row, list) or len(row) != n:
                raise SchemaError(f"gains[{i}]: expected a row of {n} numbers")
        power = _require(doc, "power", object, "")
        dests = _require(doc, "destinations", list, "")
        return GaussianNetwork(n, gains, power, dests)
    if model == "deterministic":
        alphabets = _require(doc, "alphabets", list, "")
        maps_doc = _require(doc, "maps", dict, "")
        maps = {}
        for key, table in maps_doc.items():
            if not key.startswith("y") or not key[1:].isdigit():
                raise SchemaError(f"maps.{key}: keys must look like 'y2'")
            if not isinstance(table, list):
                raise SchemaError(f"maps.{key}: expected a flat list of symbols")
            maps[int(key[1:])] = table
        dests = _require(doc, "destinations", list, "") if "destinations" in doc else ()
        return DeterministicNetwork(alphabets, maps, dests)
    if model == "graphical":
        edges_doc = _require(doc, "edges", list, "")
        edges = []
        for i, e in enumerate(edges_doc):
            if not isinstance(e, dict):
                raise SchemaError(f"edges[{i}]: expected an object")
            edges.append(tuple(_require(e, key, object, f"edges[{i}].")
                               for key in ("from", "to", "cap")))
        dests = _require(doc, "destinations", list, "")
        return GraphicalNetwork(edges, dests, n=doc.get("n"))
    raise SchemaError(f"model: unknown model {model!r}")


def save_network(net, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2) + "\n")


def load_network(path: str | Path):
    """The network in a model file; every error in it is a SchemaError."""
    return load_json_object(path, network_from_dict)
