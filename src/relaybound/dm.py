"""Exact bound evaluation for small discrete-memoryless networks.

Everything here works on one dense joint pmf over the canonical variable list

    q, x1..xn, u2..un, y1..yn

where q collects time-sharing variables, x/y are channel inputs and outputs,
and u_k is node k's description variable.  Variables a model does not use are
carried as singleton (size-1) axes, which keeps every evaluator uniform and
costs nothing.  No optimization over pmfs happens here: evaluators take the
input distribution as given.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    SchemaError, TensorCapError, as_int, as_node, as_nodes, as_number, load_json_object)
from .info import (
    ZERO_EPS, JointPmf, RateBits, capped_cells, checked_tensor, mask_entropy, mask_mutual_info)
from .networks import Cut, DeterministicNetwork, GraphicalNetwork, enumerate_cuts
from .regions import MEMBERSHIP_SLACK, RateRegion, RegionConstraint, region_from_cuts

# ---------------------------------------------------------------------------
# Channels and instances.


@dataclass(frozen=True)
class Channel:
    """A conditional pmf p(outputs | inputs) as a dense tensor.

    Axes follow ``given`` variables first, then ``out`` variables; for every
    input combination the output slice sums to one.
    """

    given: tuple[tuple[str, int], ...]
    out: tuple[tuple[str, int], ...]
    probs: np.ndarray

    def __init__(self, given, out, probs):
        given, out = tuple(given), tuple(out)
        if not out:
            raise ValueError("channel needs at least one output variable")
        variables, arr = checked_tensor(given + out, probs)
        given, out = variables[: len(given)], variables[len(given) :]
        rows = arr.reshape(math.prod(s for _, s in given), -1).sum(axis=1)
        worst = float(np.max(np.abs(rows - 1.0)))
        if worst > 1e-9:
            raise ValueError(
                f"channel rows must sum to 1 (worst deviation {worst:.2e})"
            )
        object.__setattr__(self, "given", given)
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "probs", arr)


def _canonical_vars(n: int, sizes: dict[str, int]) -> list[tuple[str, int]]:
    order = ["q"]
    order += [f"x{k}" for k in range(1, n + 1)]
    order += [f"u{k}" for k in range(2, n + 1)]
    order += [f"y{k}" for k in range(1, n + 1)]
    return [(name, sizes.get(name, 1)) for name in order]


def _aligned(tensor: np.ndarray, names: Sequence[str], canonical) -> np.ndarray:
    pos = {name: i for i, (name, _) in enumerate(canonical)}
    order = sorted(range(len(names)), key=lambda i: pos[names[i]])
    t = np.transpose(tensor, order)
    shape = [1] * len(canonical)
    for i in order:
        shape[pos[names[i]]] = tensor.shape[i]
    return t.reshape(shape)


@dataclass(frozen=True)
class DmInstance:
    """A network instance: full joint over the canonical variables.

    ``q_vars`` lists the variables treated as time sharing; every information
    term is conditioned on them.  Constraint repair appends input variables
    here rather than fusing them into one product-alphabet symbol, which
    preserves the distribution while keeping the tensor small.

    ``x``, ``u`` and ``y`` hold the bitmask (``JointPmf.mask_of``) of x_k,
    u_k and y_k at index k, and 0 where there is no such variable.
    """

    joint: JointPmf
    n: int
    destinations: tuple[int, ...]
    q_vars: tuple[str, ...]

    def __init__(self, joint: JointPmf, n: int, destinations, q_vars=("q",)):
        n = as_int(n, "n")
        expected = [name for name, _ in _canonical_vars(n, {})]
        if list(joint.names) != expected:
            raise ValueError(
                f"joint must use the canonical variable list for n = {n}"
            )
        dests = as_nodes(destinations, n, "destinations", first=2)
        q_vars = tuple(q_vars)
        object.__setattr__(self, "_q", joint.mask_of(q_vars))
        object.__setattr__(self, "x", _node_masks(joint, "x", n))
        object.__setattr__(self, "u", _node_masks(joint, "u", n, first=2))
        object.__setattr__(self, "y", _node_masks(joint, "y", n))
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "destinations", dests)
        object.__setattr__(self, "q_vars", q_vars)

    @classmethod
    def from_parts(
        cls,
        input_pmf: JointPmf,
        channel: Channel,
        destinations: Iterable[int],
        q_vars: Sequence[str] | None = None,
    ) -> "DmInstance":
        """Join p(q, x, u) with p(y | x) into the canonical full joint."""
        sizes: dict[str, int] = {}
        n = 1

        def note(name: str, size: int, where: str):
            nonlocal n
            if name != "q":
                if len(name) < 2 or name[0] not in "xuy" or not name[1:].isdigit():
                    raise ValueError(f"{where}: unrecognized variable {name!r}")
                node = int(name[1:])
                if name[0] == "u" and node < 2:
                    raise ValueError(f"{where}: u1 is not a valid description variable")
                n = max(n, node)
            if sizes.get(name, size) != size:
                raise ValueError(
                    f"{where}: variable {name!r} has conflicting sizes "
                    f"{sizes[name]} and {size}"
                )
            sizes[name] = size

        for name, size in input_pmf.variables:
            if name.startswith("y"):
                raise ValueError("input pmf must not contain channel outputs")
            note(name, size, "input pmf")
        for name, size in channel.given:
            if not name.startswith("x"):
                raise ValueError("channel inputs must be x variables")
            note(name, size, "channel")
        for name, size in channel.out:
            if not name.startswith("y"):
                raise ValueError("channel outputs must be y variables")
            note(name, size, "channel")
        if n < 2:
            raise ValueError("instance needs at least two nodes")

        canonical = _canonical_vars(n, sizes)
        capped_cells((size for _, size in canonical), "full joint")
        a = _aligned(input_pmf.probs, list(input_pmf.names), canonical)
        ch_names = [nm for nm, _ in channel.given] + [nm for nm, _ in channel.out]
        b = _aligned(channel.probs, ch_names, canonical)
        probs = a * b
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"joint mass is {total}, expected 1")
        joint = JointPmf._trusted(tuple(canonical), probs / total)
        if q_vars is None:
            q_vars = ("q",)
        return cls(joint, n, destinations, q_vars)

    def mi(self, a: int, b: int, given: int = 0) -> RateBits:
        """I(a ; b | given, Q) for disjoint bitmasks a and b, with variables
        already inside the conditioning dropped from a and b (an exact
        identity, not an approximation).

        The joint memoizes its subset entropies by mask less its size-1
        variables, so subsets that differ only by those give bit-identical
        floats, which the exactness guarantees below rely on.
        """
        given |= self._q
        a &= ~given
        b &= ~given
        return mask_mutual_info(self.joint, a, b, given) if a and b else 0.0


@dataclass(frozen=True)
class CutTerms:
    """The pieces of one cut's bound: rate term minus per-node prices."""

    cut: Cut
    first_term: RateBits
    penalty_u: dict[int, RateBits]
    penalty_x: dict[int, RateBits]
    total: RateBits


def _node_masks(pmf: JointPmf, kind: str, n: int, first: int = 1) -> tuple[int, ...]:
    """The bitmask of variable ``kind``k of ``pmf`` at index k, for k in
    first..n, and 0 below."""
    return (0,) * first + tuple(pmf.mask_of([f"{kind}{k}"]) for k in range(first, n + 1))


def _union(table: Sequence[int], nodes: Iterable[int]) -> int:
    """The bitmask of ``table``'s variables at ``nodes`` (their bits are distinct)."""
    return sum(table[k] for k in nodes)


def _cut_terms(inst: DmInstance, cut: Cut, dest: int | None) -> CutTerms:
    far = cut.complement  # ascending, so each node's earlier nodes precede it
    x, u, y = inst.x, inst.u, inst.y
    x_far = _union(x, far)
    b = _union(u, far)
    if dest is not None:
        b |= y[dest]
    first = inst.mi(_union(x, cut.s), b, x_far)
    all_x = _union(x, range(1, inst.n + 1))
    pen_u: dict[int, RateBits] = {}
    pen_x: dict[int, RateBits] = {}
    x_earlier = u_earlier = 0
    for k in far:
        pen_u[k] = inst.mi(u[k], u_earlier | all_x, x[k] | y[k])
        pen_x[k] = inst.mi(x[k], x_earlier)
        x_earlier |= x[k]
        u_earlier |= u[k]
    total = first - sum(pen_u.values()) - sum(pen_x.values())
    return CutTerms(cut, first, pen_u, pen_x, total)


def ddf_unicast_dm(inst: DmInstance, dest: int) -> tuple[RateBits, list[CutTerms]]:
    """Achievable rate to one destination plus the per-cut breakdown."""
    dest = as_node(dest, inst.n, "dest", first=2)
    terms = [
        _cut_terms(inst, cut, dest)
        for cut in enumerate_cuts(inst.n, {dest}, "unicast")
    ]
    return min(t.total for t in terms), terms


def ddf_multicast_dm(inst: DmInstance, dests: Iterable[int]) -> RateBits:
    """Common-message rate: the worst destination's unicast bound."""
    dests = as_nodes(dests, inst.n, "dests", first=2)
    if not dests:
        raise ValueError("need at least one destination")
    return min(ddf_unicast_dm(inst, d)[0] for d in dests)


def constraint_values_j(inst: DmInstance) -> dict[tuple[int, ...], RateBits]:
    """The raw per-cut functional J(S) for every cut (no zero clamp).

    J(S) is the cut's rate term minus its description and correlation prices;
    a negative value marks a constraint that would make the region empty and
    is what constraint_repair removes.
    """
    out: dict[tuple[int, ...], RateBits] = {}
    for cut in enumerate_cuts(inst.n, range(2, inst.n + 1), "broadcast"):
        out[cut.s] = _cut_terms(inst, cut, None).total
    return out


def ddf_broadcast_region_dm(inst: DmInstance) -> RateRegion:
    """Private-message inner bound: per cut, the far-side destinations share J(S)."""
    dims = inst.destinations
    if not dims:
        raise ValueError("instance has no destinations")
    cuts = enumerate_cuts(inst.n, dims, "broadcast")
    values = [_cut_terms(inst, cut, None).total for cut in cuts]
    return region_from_cuts(dims, cuts, [max(v, 0.0) for v in values])


def cutset_dm(
    input_pmf: JointPmf,
    channel: Channel,
    dests: Iterable[int],
    mode: str = "unicast",
    q_vars: Sequence[str] | None = None,
) -> RateBits | RateRegion:
    """Cutset outer bound at a fixed input pmf: I(X(S); Y(S^c) | X(S^c), Q)."""
    inst = DmInstance.from_parts(input_pmf, channel, dests, q_vars)
    dests = inst.destinations

    def cut_value(cut: Cut) -> float:
        far = cut.complement
        return inst.mi(_union(inst.x, cut.s), _union(inst.y, far), _union(inst.x, far))

    cuts = enumerate_cuts(inst.n, dests, mode)
    values = [cut_value(c) for c in cuts]
    if mode == "unicast":
        return min(values)
    return region_from_cuts(dests, cuts, values)


# ---------------------------------------------------------------------------
# Deterministic networks.


def _det_scatter(
    net: DeterministicNetwork, input_pmf: JointPmf, *values
) -> tuple[list[tuple[int, int]], list[np.ndarray]]:
    """Check that ``input_pmf`` is over x1..xn with the network's alphabets,
    and place each of ``values`` (one entry per input tuple, or a scalar) at
    the cells (x, y2(x), .., yn(x)) of a tensor over inputs and outputs.

    Returns the (node, size) pairs of the outputs y2..yn and the tensors.
    """
    expected = tuple(f"x{k}" for k in range(1, net.n + 1))
    if tuple(input_pmf.names) != expected:
        raise ValueError(f"input pmf must be over {expected}, got {input_pmf.names}")
    for k, (name, size) in enumerate(input_pmf.variables):
        if size != net.alphabets[k]:
            raise ValueError(
                f"{name} alphabet {size} != network alphabet {net.alphabets[k]}"
            )
    outs = [(k, net.out_size(k)) for k in range(2, net.n + 1)]
    grids = tuple(np.indices(net.alphabets))
    idx = grids + tuple(net.maps[k][grids] for k, _ in outs)
    tensors = []
    for v in values:
        t = np.zeros(tuple(net.alphabets) + tuple(s for _, s in outs))
        t[idx] = v
        tensors.append(t)
    return outs, tensors


def deterministic_inner(
    net: DeterministicNetwork,
    input_pmf: JointPmf,
    dests: Iterable[int],
    mode: str = "unicast",
) -> RateBits | RateRegion:
    """Inner bound for noiseless networks:

        H(Y(S^c) | X(S^c)) - sum_{k in S^c} I(X_k ; X(S^c cap [1..k-1]))

    per cut, which the general machinery reproduces by choosing each node's
    description to be its own observation.
    """
    dests = as_nodes(dests, net.n, "dests", first=2)
    outs, (probs,) = _det_scatter(net, input_pmf, input_pmf.probs)
    joint = JointPmf(list(input_pmf.variables) + [(f"y{k}", s) for k, s in outs], probs)
    x, y = _node_masks(joint, "x", net.n), _node_masks(joint, "y", net.n, first=2)

    def cut_value(cut: Cut) -> float:
        far = cut.complement
        value = mask_entropy(joint, _union(y, far), _union(x, far))
        x_earlier = 0
        for k in far:
            value -= mask_mutual_info(joint, x[k], x_earlier)
            x_earlier |= x[k]
        return value

    cuts = enumerate_cuts(net.n, dests, mode)
    values = [cut_value(c) for c in cuts]
    if mode == "unicast":
        return min(values)
    return region_from_cuts(dests, cuts, [max(v, 0.0) for v in values])


def det_dm_instance(
    net: DeterministicNetwork, input_pmf: JointPmf, dests: Iterable[int]
) -> DmInstance:
    """The same network as a DmInstance with u_k hard-wired to y_k."""
    outs, (in_probs, ch_probs) = _det_scatter(net, input_pmf, input_pmf.probs, 1.0)
    xs = list(input_pmf.variables)
    in_pmf = JointPmf(xs + [(f"u{k}", s) for k, s in outs], in_probs)
    channel = Channel(xs, [(f"y{k}", s) for k, s in outs], ch_probs)
    return DmInstance.from_parts(in_pmf, channel, dests)


# ---------------------------------------------------------------------------
# Single-hop broadcast: the binning identity and conferencing receivers.


def marton_identity_check(inst: DmInstance) -> tuple[RateBits, RateBits, float]:
    """Check that the per-cut bound collapses to its binning form on a
    single-hop broadcast instance.

    Returns (lhs, rhs, lhs - rhs) for the cut with the largest discrepancy.
    Raises if some node other than 1 transmits, or if the descriptions are
    not conditionally independent of the outputs given x1.
    """
    for k in range(2, inst.n + 1):
        if inst.joint.size_of(f"x{k}") != 1:
            raise ValueError(
                f"not a single-hop broadcast instance: node {k} transmits"
            )
    if inst.joint.size_of("y1") != 1:
        raise ValueError("not a single-hop broadcast instance: node 1 receives")
    all_u = _union(inst.u, range(2, inst.n + 1))
    for k in range(2, inst.n + 1):
        leak = inst.mi(all_u, inst.y[k], inst.x[1])
        if leak > 1e-9:
            raise ValueError(
                "not a single-hop broadcast instance: descriptions leak into "
                f"y{k} beyond x1 (I = {leak:.2e})"
            )
    worst: tuple[RateBits, RateBits, float] | None = None
    for cut in enumerate_cuts(inst.n, range(2, inst.n + 1), "broadcast"):
        far = cut.complement
        lhs = _cut_terms(inst, cut, None).total
        rhs = 0.0
        u_earlier = 0
        for k in far:
            rhs += inst.mi(inst.u[k], inst.y[k])
            rhs -= inst.mi(inst.u[k], u_earlier)
            u_earlier |= inst.u[k]
        delta = lhs - rhs
        if worst is None or abs(delta) > abs(worst[2]):
            worst = (lhs, rhs, delta)
    assert worst is not None
    return worst


def simplex_grid(cells: int, resolution: int) -> np.ndarray:
    """All pmfs on ``cells`` outcomes with probabilities i/resolution.

    Rows are in lexicographic order.  Intended for sweeping at most a few
    free variables; larger alphabets are refused.
    """
    cells, resolution = as_int(cells, "cells"), as_int(resolution, "resolution")
    if cells < 1 or cells > 4:
        raise ValueError("simplex_grid supports 1..4 cells")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    count = math.comb(resolution + cells - 1, cells - 1)
    if count > 2_000_000:
        raise ValueError(f"{count} grid points is too many; lower the resolution")
    # Lexicographic order, built one column at a time: each row is repeated
    # once per value its next count can take, from 0 up to its remaining mass.
    counts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([resolution], dtype=np.int64)
    for _ in range(cells - 1):
        reps = left + 1
        starts = np.cumsum(reps) - reps
        nxt = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(starts, reps)
        counts = np.column_stack([np.repeat(counts, reps, axis=0), nxt])
        left = np.repeat(left, reps) - nxt
    return np.column_stack([counts, left]) / resolution


def _h_rows(p: np.ndarray) -> np.ndarray:
    """Row entropies in bits; exact zeros contribute nothing."""
    safe = np.where(p >= ZERO_EPS, p, 1.0)
    return -np.sum(p * np.log2(safe), axis=-1, where=p >= ZERO_EPS)


@dataclass(frozen=True, eq=False)
class ConferencingRegion:
    """Union over input pmfs of the three-constraint conferencing polytopes.

    ``boundary`` samples the Pareto frontier of the union at the sweep's
    resolution; membership is resolution-dependent in the same way.
    """

    c23: float
    c32: float
    resolution: int
    max_sum: RateBits
    max_r2: RateBits
    max_r3: RateBits
    sum_argmax: tuple[float, ...]
    region_at_sum_opt: RateRegion
    boundary: tuple[tuple[float, float], ...]
    _r2_caps: np.ndarray
    _r3_caps: np.ndarray
    _sum_caps: np.ndarray

    def contains(self, r2: float, r3: float) -> bool:
        if r2 < 0 or r3 < 0:
            raise ValueError("rates must be nonnegative")
        ok = (
            (r2 <= self._r2_caps + MEMBERSHIP_SLACK)
            & (r3 <= self._r3_caps + MEMBERSHIP_SLACK)
            & (r2 + r3 <= self._sum_caps + MEMBERSHIP_SLACK)
        )
        return bool(np.any(ok))


def _pareto_frontier(
    corner_r2: np.ndarray, corner_r3: np.ndarray
) -> tuple[tuple[float, float], ...]:
    """The corners that are not dominated, by increasing r2.

    Scanning by decreasing r2 (ties: decreasing r3), a corner is kept when
    its r3 exceeds the last kept one by more than 1e-12.
    """
    order = np.lexsort((-corner_r3, -corner_r2))
    r2s, r3s = corner_r2[order], corner_r3[order]
    # A kept corner's r3 beats every r3 before it, so the loop below needs
    # only the corners above the running maximum.
    prev_max = np.maximum.accumulate(np.concatenate([[-np.inf], r3s[:-1]]))
    rising = r3s > prev_max
    frontier: list[tuple[float, float]] = []
    best_r3 = -1.0
    for r2v, r3v in zip(r2s[rising].tolist(), r3s[rising].tolist()):
        if r3v > best_r3 + 1e-12:
            frontier.append((r2v, r3v))
            best_r3 = r3v
    frontier.reverse()
    return tuple(frontier)


def conferencing_dbc_region(
    y2_map: Sequence[int],
    y3_map: Sequence[int],
    c23: float,
    c32: float,
    grid_res: int = 996,
) -> ConferencingRegion:
    """Deterministic broadcast with rate-limited receiver cooperation.

    For each input pmf the achievable triple is R2 <= H(Y2) + C32,
    R3 <= H(Y3) + C23, R2 + R3 <= H(Y2, Y3); the region is the union over
    input pmfs, swept on a simplex grid.
    """
    if not (c23 >= 0 and c32 >= 0):  # also rejects NaN
        raise ValueError("conferencing capacities must be nonnegative")
    y2_map = [as_int(v, f"y2_map[{i}]") for i, v in enumerate(y2_map)]
    y3_map = [as_int(v, f"y3_map[{i}]") for i, v in enumerate(y3_map)]
    for what, table in (("y2_map", y2_map), ("y3_map", y3_map)):
        if min(table, default=0) < 0:
            raise SchemaError(f"{what}: output symbols must be nonnegative, got {table}")
    grid_res = as_int(grid_res, "grid_res")
    if len(y2_map) != len(y3_map) or not y2_map:
        raise ValueError("output maps must be nonempty and equally long")
    m = len(y2_map)
    pmfs = simplex_grid(m, grid_res)
    a2 = max(y2_map) + 1
    a3 = max(y3_map) + 1
    joint = np.zeros((pmfs.shape[0], a2, a3))
    for x in range(m):
        joint[:, y2_map[x], y3_map[x]] += pmfs[:, x]
    h2 = _h_rows(joint.sum(axis=2))
    h3 = _h_rows(joint.sum(axis=1))
    h23 = _h_rows(joint.reshape(pmfs.shape[0], -1))

    r2_caps = h2 + c32
    r3_caps = h3 + c23
    best_sum = np.minimum(h23, r2_caps + r3_caps)
    i_sum = int(np.argmax(best_sum))
    max_sum = float(best_sum[i_sum])
    max_r2 = float(np.max(np.minimum(r2_caps, h23)))
    max_r3 = float(np.max(np.minimum(r3_caps, h23)))

    # Pareto frontier of the union, from each polytope's two upper corners.
    corner_r2 = np.concatenate(
        [np.minimum(r2_caps, h23), np.minimum(r2_caps, h23 - np.minimum(r3_caps, h23))]
    )
    corner_r3 = np.concatenate(
        [np.minimum(r3_caps, h23 - np.minimum(r2_caps, h23)), np.minimum(r3_caps, h23)]
    )

    region = RateRegion(
        (2, 3),
        [
            RegionConstraint((1, 0), float(r2_caps[i_sum])),
            RegionConstraint((0, 1), float(r3_caps[i_sum])),
            RegionConstraint((1, 1), float(h23[i_sum])),
        ],
    )
    return ConferencingRegion(
        c23=c23,
        c32=c32,
        resolution=grid_res,
        max_sum=max_sum,
        max_r2=max_r2,
        max_r3=max_r3,
        sum_argmax=tuple(float(v) for v in pmfs[i_sum]),
        region_at_sum_opt=region,
        boundary=_pareto_frontier(corner_r2, corner_r3),
        _r2_caps=r2_caps,
        _r3_caps=r3_caps,
        _sum_caps=h23,
    )


def blackwell_region(c23: float, c32: float, grid_res: int = 996) -> ConferencingRegion:
    """The canonical three-input example: y2 = [x = 1], y3 = [x >= 1]."""
    return conferencing_dbc_region([0, 1, 0], [0, 1, 1], c23, c32, grid_res)


# ---------------------------------------------------------------------------
# Graphical networks: exact min-cut.


def graphical_mincut(net: GraphicalNetwork, dest: int) -> float:
    """Minimum over cuts of the total capacity leaving the source side."""
    dest = as_node(dest, net.n, "dest", first=2)
    return min(sum(c for u, v, c in net.edges if u in cut.s and v not in cut.s)
               for cut in enumerate_cuts(net.n, {dest}, "unicast"))


def graphical_to_deterministic(net: GraphicalNetwork) -> DeterministicNetwork:
    """Encode integer-capacity bit pipes as a noiseless network.

    Edge i = (u, v) of b_i bits carries bits low_i .. low_i + b_i - 1 of x_u,
    low_i being the bits of u's earlier outgoing edges; receiver v observes
    its incoming edges' sub-symbols packed in edge order, the first edge the
    most significant.
    """
    bits, low, used = [], [], [0] * net.n
    for u, v, c in net.edges:
        b = round(c)
        if abs(c - b) > 1e-9 or b < 0:
            raise ValueError(f"edge ({u}, {v}) capacity {c} is not a small integer")
        bits.append(b)
        low.append(used[u - 1])
        used[u - 1] += b
    alphabets = [2**b for b in used]
    if math.prod(alphabets) > 1_000_000:
        raise TensorCapError(
            f"input joint has {math.prod(alphabets)} cells; "
            "reduce the edge capacities"
        )
    x = np.indices(alphabets, sparse=True)
    maps = {v: np.zeros(alphabets, dtype=int) for v in range(2, net.n + 1)}
    for (u, v, _), b, lo in zip(net.edges, bits, low):
        if v != 1:
            maps[v] = maps[v] * 2**b + (x[u - 1] >> lo) % 2**b
    return DeterministicNetwork(alphabets, maps, net.destinations)


# ---------------------------------------------------------------------------
# Constraint repair.


def constraint_repair(inst: DmInstance, a_set: Iterable[int]) -> DmInstance:
    """Rebuild the instance so the cut functional at ``a_set`` is exactly zero.

    The far-side descriptions are discarded (their axes collapse to
    singletons) and the far-side inputs are promoted into the time-sharing
    set, so every price term at that cut conditions on something it already
    contains.  All marginals of the retained variables are unchanged, and no
    cut's functional decreases below its old minimum.
    """
    a = as_nodes(a_set, inst.n, "a_set")
    if 1 not in a:
        raise ValueError("the repaired cut must contain the source node 1")
    far = [k for k in range(1, inst.n + 1) if k not in a]
    if not far:
        raise ValueError("the repaired cut must have a nonempty far side")

    drop = {f"u{k}" for k in far}
    keep = [name for name in inst.joint.names if name not in drop]
    marg = inst.joint.marginal(keep)
    shape = tuple(
        1 if name in drop else size for name, size in inst.joint.variables
    )
    variables = tuple(
        (name, 1 if name in drop else size) for name, size in inst.joint.variables
    )
    joint = JointPmf._trusted(variables, marg.reshape(shape))
    q_vars = tuple(dict.fromkeys(list(inst.q_vars) + [f"x{k}" for k in far]))
    return DmInstance(joint, inst.n, inst.destinations, q_vars)


# ---------------------------------------------------------------------------
# Pmf and channel files.


def pmf_to_dict(pmf: JointPmf, q_vars: Sequence[str] = ()) -> dict:
    doc = {
        "vars": [{"name": n, "size": s} for n, s in pmf.variables],
        "probs": pmf.probs.reshape(-1).tolist(),
    }
    if q_vars:
        doc["q_vars"] = list(q_vars)
    return doc


def _vars_from_doc(doc: dict) -> list[tuple[str, int]]:
    vars_doc = doc.get("vars")
    if not isinstance(vars_doc, list) or not vars_doc:
        raise SchemaError("vars: expected a nonempty list")
    out = []
    for i, v in enumerate(vars_doc):
        if not isinstance(v, dict):
            raise SchemaError(f"vars[{i}]: expected an object")
        name = v.get("name")
        if not isinstance(name, str):
            raise SchemaError(f"vars[{i}].name: expected a string")
        size = as_int(v.get("size"), f"vars[{i}].size")
        if size < 1:
            raise SchemaError(f"vars[{i}].size: expected a positive integer")
        out.append((name, size))
    return out


def _probs_from_doc(doc: dict, cells: int) -> list[float]:
    probs = doc.get("probs")
    if not isinstance(probs, list):
        raise SchemaError("probs: expected a flat list")
    if len(probs) != cells:
        raise SchemaError(f"probs: expected {cells} entries, got {len(probs)}")
    return [as_number(p, f"probs[{i}]") for i, p in enumerate(probs)]


def load_pmf(path: str | Path) -> tuple[JointPmf, tuple[str, ...]]:
    """Read a pmf file; returns the pmf and its declared time-sharing names."""
    return load_json_object(path, _pmf_from_doc)


def _pmf_from_doc(doc: dict) -> tuple[JointPmf, tuple[str, ...]]:
    variables = _vars_from_doc(doc)
    probs = _probs_from_doc(doc, capped_cells((s for _, s in variables), "pmf"))
    q_vars = doc.get("q_vars", [])
    if not isinstance(q_vars, list) or not all(isinstance(q, str) for q in q_vars):
        raise SchemaError("q_vars: expected a list of variable names")
    pmf = JointPmf(variables, np.array(probs))
    names = set(pmf.names)
    for q in q_vars:
        if q not in names:
            raise SchemaError(f"q_vars: unknown variable {q!r}")
    if not q_vars and "q" in names:
        q_vars = ["q"]
    return pmf, tuple(q_vars)


def save_pmf(pmf: JointPmf, path: str | Path, q_vars: Sequence[str] = ()) -> None:
    Path(path).write_text(json.dumps(pmf_to_dict(pmf, q_vars)) + "\n")


def load_channel(path: str | Path) -> Channel:
    return load_json_object(path, _channel_from_doc)


def _channel_from_doc(doc: dict) -> Channel:
    variables = _vars_from_doc(doc)
    given_names = doc.get("given")
    if not isinstance(given_names, list) or not all(
        isinstance(g, str) for g in given_names
    ):
        raise SchemaError("given: expected a list of variable names")
    names = [n for n, _ in variables]
    for g in given_names:
        if g not in names:
            raise SchemaError(f"given: unknown variable {g!r}")
    given = [(n, s) for n, s in variables if n in set(given_names)]
    out = [(n, s) for n, s in variables if n not in set(given_names)]
    ordered = given + out
    if [n for n, _ in ordered] != names:
        raise SchemaError("vars: conditioning variables must precede outputs")
    cells = capped_cells((s for _, s in variables), "channel")
    return Channel(given, out, np.array(_probs_from_doc(doc, cells)))
