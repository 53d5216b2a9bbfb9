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

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError, TensorCapError, as_int
from .info import CELL_CAP, ZERO_EPS, JointPmf, RateBits, entropy, mutual_info
from .networks import (
    Cut,
    DeterministicNetwork,
    GraphicalNetwork,
    MAX_ENUM_NODES,
    _int_set,
    enumerate_cuts,
)
from .regions import RateRegion, RegionConstraint, region_from_cuts

#: Fixed-point scale for the max-flow oracle (capacities in 1/2^20 units).
FLOW_SCALE = 1 << 20


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
        given = tuple((str(n), as_int(s, f"variable {n!r} size")) for n, s in given)
        out = tuple((str(n), as_int(s, f"variable {n!r} size")) for n, s in out)
        names = [n for n, _ in given] + [n for n, _ in out]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in channel: {names}")
        if not out:
            raise ValueError("channel needs at least one output variable")
        shape = tuple(s for _, s in given) + tuple(s for _, s in out)
        arr = np.asarray(probs, dtype=float).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise ValueError("channel probabilities must be finite")
        if np.any(arr < 0):
            raise ValueError("channel probabilities must be nonnegative")
        in_cells = math.prod(s for _, s in given) if given else 1
        rows = arr.reshape(in_cells, -1).sum(axis=1)
        worst = float(np.max(np.abs(rows - 1.0)))
        if worst > 1e-9:
            raise ValueError(
                f"channel rows must sum to 1 (worst deviation {worst:.2e})"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "given", given)
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "probs", arr)


def _parse_node_var(name: str) -> tuple[str, int] | None:
    if len(name) >= 2 and name[0] in "xuy" and name[1:].isdigit():
        return name[0], int(name[1:])
    return None


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
        dests = _int_set(destinations, "destinations")
        if any(d < 2 or d > n for d in dests):
            raise ValueError(f"destinations {dests} must lie in 2..{n}")
        q_vars = tuple(q_vars)
        for name in q_vars:
            joint.axis_of(name)
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
            if name == "q":
                kind = "q"
            else:
                parsed = _parse_node_var(name)
                if parsed is None:
                    raise ValueError(f"{where}: unrecognized variable {name!r}")
                kind, node = parsed
                if kind == "u" and node < 2:
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
        cells = math.prod(size for _, size in canonical)
        if cells > CELL_CAP:
            raise TensorCapError(
                f"full joint needs {cells} cells, above the cap {CELL_CAP}"
            )
        a = _aligned(input_pmf.probs, list(input_pmf.names), canonical)
        ch_names = [nm for nm, _ in channel.given] + [nm for nm, _ in channel.out]
        b = _aligned(channel.probs, ch_names, canonical)
        probs = a * b
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"joint mass is {total}, expected 1")
        joint = JointPmf(canonical, probs / total)
        if q_vars is None:
            q_vars = ("q",)
        return cls(joint, n, destinations, q_vars)

    def x_set(self, nodes: Iterable[int]) -> frozenset[str]:
        return frozenset(f"x{k}" for k in nodes)

    def u_set(self, nodes: Iterable[int]) -> frozenset[str]:
        return frozenset(f"u{k}" for k in nodes if k >= 2)

    def y_set(self, nodes: Iterable[int]) -> frozenset[str]:
        return frozenset(f"y{k}" for k in nodes)

    def mi(self, a: frozenset, b: frozenset, given: frozenset = frozenset()) -> RateBits:
        """I(a ; b | given, Q) with variables already inside the conditioning
        dropped from a and b (an exact identity, not an approximation).

        The joint memoizes its subset entropies by subset less its size-1
        variables, so subsets that differ only by those give bit-identical
        floats, which the exactness guarantees below rely on.
        """
        given = given | frozenset(self.q_vars)
        a, b = a - given, b - given
        return mutual_info(self.joint, a, b, given) if a and b else 0.0


@dataclass(frozen=True)
class CutTerms:
    """The pieces of one cut's bound: rate term minus per-node prices."""

    cut: Cut
    first_term: RateBits
    penalty_u: dict[int, RateBits]
    penalty_x: dict[int, RateBits]
    total: RateBits


def _earlier(far: Sequence[int], k: int) -> tuple[int, ...]:
    return tuple(j for j in far if j < k)


def _cut_terms(inst: DmInstance, cut: Cut, dest: int | None) -> CutTerms:
    far = cut.complement
    all_x = inst.x_set(range(1, inst.n + 1))
    b = inst.u_set(far)
    if dest is not None:
        b = b | inst.y_set({dest})
    first = inst.mi(inst.x_set(cut.s), b, inst.x_set(far))
    pen_u: dict[int, RateBits] = {}
    pen_x: dict[int, RateBits] = {}
    for k in far:
        earlier = _earlier(far, k)
        pen_u[k] = inst.mi(
            inst.u_set({k}),
            inst.u_set(earlier) | all_x,
            inst.x_set({k}) | inst.y_set({k}),
        )
        pen_x[k] = inst.mi(inst.x_set({k}), inst.x_set(earlier))
    total = first - sum(pen_u.values()) - sum(pen_x.values())
    return CutTerms(cut, first, pen_u, pen_x, total)


def ddf_unicast_dm(inst: DmInstance, dest: int) -> tuple[RateBits, list[CutTerms]]:
    """Achievable rate to one destination plus the per-cut breakdown."""
    if dest < 2 or dest > inst.n:
        raise ValueError(f"destination {dest} must lie in 2..{inst.n}")
    terms = [
        _cut_terms(inst, cut, dest)
        for cut in enumerate_cuts(inst.n, {dest}, "unicast")
    ]
    return min(t.total for t in terms), terms


def ddf_multicast_dm(inst: DmInstance, dests: Iterable[int]) -> RateBits:
    """Common-message rate: the worst destination's unicast bound."""
    dests = sorted(set(int(d) for d in dests))
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
    dests = sorted(set(int(d) for d in dests))
    inst = DmInstance.from_parts(input_pmf, channel, dests, q_vars)

    def cut_value(cut: Cut) -> float:
        far = cut.complement
        return inst.mi(inst.x_set(cut.s), inst.y_set(far), inst.x_set(far))

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
    dests = sorted(set(int(d) for d in dests))
    outs, (probs,) = _det_scatter(net, input_pmf, input_pmf.probs)
    joint = JointPmf(list(input_pmf.variables) + [(f"y{k}", s) for k, s in outs], probs)

    def x_set(nodes):
        return frozenset(f"x{k}" for k in nodes)

    def cut_value(cut: Cut) -> float:
        far = cut.complement
        value = entropy(joint, {f"y{k}" for k in far}, x_set(far))
        for k in far:
            value -= mutual_info(joint, x_set({k}), x_set(_earlier(far, k)))
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
    all_u = inst.u_set(range(2, inst.n + 1))
    for k in range(2, inst.n + 1):
        leak = inst.mi(all_u, inst.y_set({k}), inst.x_set({1}))
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
        for k in far:
            rhs += inst.mi(inst.u_set({k}), inst.y_set({k}))
            rhs -= inst.mi(inst.u_set({k}), inst.u_set(_earlier(far, k)))
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

    def contains(self, r2: float, r3: float, slack: float = 1e-9) -> bool:
        if r2 < 0 or r3 < 0:
            raise ValueError("rates must be nonnegative")
        ok = (
            (r2 <= self._r2_caps + slack)
            & (r3 <= self._r3_caps + slack)
            & (r2 + r3 <= self._sum_caps + slack)
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
    y2_map = [int(v) for v in y2_map]
    y3_map = [int(v) for v in y3_map]
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
# Graphical networks: exact min-cut and a max-flow oracle.


def graphical_mincut(net: GraphicalNetwork, dest: int) -> float:
    """Minimum over cuts of the total capacity leaving the source side."""
    if dest < 2 or dest > net.n:
        raise ValueError(f"destination {dest} must lie in 2..{net.n}")
    if net.n > MAX_ENUM_NODES:
        raise ValueError(f"refusing to enumerate cuts for n = {net.n}")
    others = [k for k in range(2, net.n + 1) if k != dest]
    best = math.inf
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            side = {1, *extra}
            cap = sum(c for u, v, c in net.edges if u in side and v not in side)
            best = min(best, cap)
    return best


def maxflow_oracle(net: GraphicalNetwork, dest: int) -> float:
    """Max flow from node 1 to dest by augmenting paths on a scaled-integer
    copy of the capacities (so the arithmetic is exact)."""
    if dest < 2 or dest > net.n:
        raise ValueError(f"destination {dest} must lie in 2..{net.n}")
    n = net.n
    residual = [[0] * (n + 1) for _ in range(n + 1)]
    for u, v, c in net.edges:
        residual[u][v] += round(c * FLOW_SCALE)
    flow = 0
    while True:
        parent = [0] * (n + 1)
        parent[1] = 1
        queue = deque([1])
        while queue:
            u = queue.popleft()
            for v in range(1, n + 1):
                if not parent[v] and residual[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if not parent[dest]:
            break
        bottleneck = None
        v = dest
        while v != 1:
            u = parent[v]
            cap = residual[u][v]
            bottleneck = cap if bottleneck is None else min(bottleneck, cap)
            v = u
        v = dest
        while v != 1:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
            v = u
        flow += bottleneck
    return flow / FLOW_SCALE


def graphical_to_deterministic(net: GraphicalNetwork) -> DeterministicNetwork:
    """Encode integer-capacity bit pipes as a noiseless network.

    Each node's input symbol packs one sub-symbol of 2^cap values per outgoing
    edge; each receiver observes the packed sub-symbols on its incoming edges.
    """
    bits = []
    for u, v, c in net.edges:
        b = round(c)
        if abs(c - b) > 1e-9 or b < 0:
            raise ValueError(f"edge ({u}, {v}) capacity {c} is not a small integer")
        bits.append(b)
    out_edges: dict[int, list[int]] = {u: [] for u in range(1, net.n + 1)}
    in_edges: dict[int, list[int]] = {u: [] for u in range(1, net.n + 1)}
    for i, (u, v, _) in enumerate(net.edges):
        out_edges[u].append(i)
        in_edges[v].append(i)
    alphabets = [2 ** sum(bits[i] for i in out_edges[u]) for u in range(1, net.n + 1)]
    if math.prod(alphabets) > 1_000_000:
        raise TensorCapError(
            f"input joint has {math.prod(alphabets)} cells; "
            "reduce the edge capacities"
        )

    def unpack(symbol: int, edge_ids: list[int]) -> dict[int, int]:
        vals = {}
        for i in edge_ids:
            vals[i] = symbol % (2 ** bits[i])
            symbol //= 2 ** bits[i]
        return vals

    maps = {}
    for v in range(2, net.n + 1):
        table = np.zeros(tuple(alphabets), dtype=int)
        for x in np.ndindex(*alphabets):
            carried = {}
            for u in range(1, net.n + 1):
                carried.update(unpack(x[u - 1], out_edges[u]))
            y = 0
            for i in in_edges[v]:
                y = y * (2 ** bits[i]) + carried[i]
            table[x] = y
        maps[v] = table
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
    a = sorted(set(int(k) for k in a_set))
    if 1 not in a:
        raise ValueError("the repaired cut must contain the source node 1")
    if any(k < 1 or k > inst.n for k in a):
        raise ValueError(f"nodes {a} outside 1..{inst.n}")
    far = [k for k in range(1, inst.n + 1) if k not in a]
    if not far:
        raise ValueError("the repaired cut must have a nonempty far side")

    drop = {f"u{k}" for k in far}
    keep = [name for name in inst.joint.names if name not in drop]
    marg = inst.joint.marginal(keep)
    shape = tuple(
        1 if name in drop else size for name, size in inst.joint.variables
    )
    variables = [
        (name, 1 if name in drop else size) for name, size in inst.joint.variables
    ]
    joint = JointPmf(variables, marg.reshape(shape))
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


def _vars_from_doc(doc: dict, path: str) -> list[tuple[str, int]]:
    vars_doc = doc.get("vars")
    if not isinstance(vars_doc, list) or not vars_doc:
        raise SchemaError(f"{path}vars: expected a nonempty list")
    out = []
    for i, v in enumerate(vars_doc):
        if not isinstance(v, dict):
            raise SchemaError(f"{path}vars[{i}]: expected an object")
        name = v.get("name")
        size = v.get("size")
        if not isinstance(name, str):
            raise SchemaError(f"{path}vars[{i}].name: expected a string")
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise SchemaError(f"{path}vars[{i}].size: expected a positive integer")
        out.append((name, size))
    return out


def _probs_from_doc(doc: dict, cells: int, path: str) -> list[float]:
    probs = doc.get("probs")
    if not isinstance(probs, list):
        raise SchemaError(f"{path}probs: expected a flat list")
    if len(probs) != cells:
        raise SchemaError(f"{path}probs: expected {cells} entries, got {len(probs)}")
    for i, p in enumerate(probs):
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise SchemaError(f"{path}probs[{i}]: expected a number")
    return [float(p) for p in probs]


def load_pmf(path: str | Path) -> tuple[JointPmf, tuple[str, ...]]:
    """Read a pmf file; returns the pmf and its declared time-sharing names."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    variables = _vars_from_doc(doc, "")
    cells = math.prod(s for _, s in variables)
    if cells > CELL_CAP:
        raise TensorCapError(f"pmf needs {cells} cells, above the cap {CELL_CAP}")
    probs = _probs_from_doc(doc, cells, "")
    q_vars = doc.get("q_vars", [])
    if not isinstance(q_vars, list) or not all(isinstance(q, str) for q in q_vars):
        raise SchemaError("q_vars: expected a list of variable names")
    try:
        pmf = JointPmf(variables, np.array(probs))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
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
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    variables = _vars_from_doc(doc, "")
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
    cells = math.prod(s for _, s in variables)
    probs = _probs_from_doc(doc, cells, "")
    try:
        return Channel(given, out, np.array(probs))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
