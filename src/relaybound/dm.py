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
from functools import cache, lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    SchemaError, TensorCapError, as_int, as_node, as_node_count, as_nodes, as_nonnegative,
    as_number, as_numbers, as_symbols, load_json_object)
from .info import (
    ZERO_EPS, JointPmf, RateBits, _axes_of, capped_cells, checked_tensor, mask_mutual_info)
from .networks import (
    Cut, DeterministicNetwork, GraphicalNetwork, _keep_plans, as_mode, enumerate_cuts)
from .regions import MEMBERSHIP_SLACK, RateRegion, RegionConstraint, region_from_cuts

# ---------------------------------------------------------------------------
# Channels and instances.


@dataclass(frozen=True, eq=False)
class Channel:
    """A conditional pmf p(outputs | inputs) as a dense tensor.

    Axes follow ``given`` variables first, then ``out`` variables; for every
    input combination the output slice sums to one.  Equality and hashing
    are by identity, as ``probs`` is an array.
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


# Plans: what an instance's shape fixes, built once per shape from its
# variable tuples.  They hold immutable values, and an error is not cached.


@lru_cache(maxsize=256)
def _parts_plan(in_vars: tuple, given: tuple, out: tuple):
    """``from_parts``'s checks and layout: (n, canonical variables, the input
    pmf's and the channel's axis order and canonical shape, and a (mask,
    summed axes) pair per factor marginal)."""
    sizes: dict[str, int] = {}
    n = 1
    for where, variables, letter, wanted, refusal in (
            ("input pmf", in_vars, "y", False, "input pmf must not contain channel outputs"),
            ("channel", given, "x", True, "channel inputs must be x variables"),
            ("channel", out, "y", True, "channel outputs must be y variables")):
        for name, size in variables:
            if name.startswith(letter) != wanted:
                raise ValueError(refusal)
            if name != "q":
                if len(name) < 2 or name[0] not in "xuy" or not name[1:].isdigit():
                    raise ValueError(f"{where}: unrecognized variable {name!r}")
                node = int(name[1:])
                if name[0] == "u" and node < 2:
                    raise ValueError(f"{where}: u1 is not a valid description variable")
                n = max(n, node)
            if sizes.setdefault(name, size) != size:
                raise ValueError(f"{where}: variable {name!r} has conflicting sizes "
                                 f"{sizes[name]} and {size}")
    in_names = {name for name, _ in in_vars}
    for name, size in given:
        if size > 1 and name not in in_names:
            raise ValueError(f"channel: input {name!r} is not in the input pmf")

    canonical = tuple(_canonical_vars(n, sizes))
    capped_cells((size for _, size in canonical), "full joint")
    pos = {name: i for i, (name, _) in enumerate(canonical)}

    def aligned(variables) -> tuple[tuple[int, ...], tuple[int, ...]]:
        order = sorted(range(len(variables)), key=lambda i: pos[variables[i][0]])
        shape = [1] * len(canonical)
        for name, size in variables:
            shape[pos[name]] = size
        return tuple(order), tuple(shape)

    inputs = (1 << (len(canonical) - n)) - 1  # q, x and u precede y1..yn
    outs = tuple(i for i in range(len(canonical) - n, len(canonical)) if canonical[i][1] > 1)
    factors = ((inputs, outs),) + tuple(
        (inputs | 1 << i, tuple(j for j in outs if j != i)) for i in outs)
    return n, canonical, aligned(in_vars), aligned(given + out), factors


@lru_cache(maxsize=256)
def _instance_plan(variables: tuple, n: int, q_vars: tuple[str, ...]):
    """``DmInstance``'s masks (q, x, u, y) for a joint over ``variables``,
    which must be the canonical list for ``n``."""
    if [name for name, _ in variables] != [name for name, _ in _canonical_vars(n, {})]:
        raise ValueError(f"joint must use the canonical variable list for n = {n}")
    try:
        q = sum(1 << i for i in _axes_of(variables, q_vars))
    except ValueError as err:
        raise ValueError(f"q_vars: {err}") from None
    for name in q_vars:
        if name.startswith("y"):
            raise ValueError(f"q_vars: {name!r} is a channel output, not time sharing")
    return (q, _node_masks(variables, "x", n), _node_masks(variables, "u", n, first=2),
            _node_masks(variables, "y", n))


def _q_names(q_vars) -> tuple[str, ...]:
    """The one reading of a ``q_vars`` argument: None is ("q",), a string is
    one name, and any other iterable is read as its names, each a string."""
    if q_vars is None:
        return ("q",)
    names = (q_vars,) if isinstance(q_vars, str) else tuple(q_vars)
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise SchemaError(f"q_vars[{i}]: expected a variable name, got {name!r}")
    return names


@dataclass(frozen=True)
class DmInstance:
    """A network instance: full joint over the canonical variables.

    ``joint`` is a ``JointPmf`` or ``gaussian``'s Gaussian rows: ``mi`` and the cut
    evaluators read only its ``variables`` and ``entropies``, one call each, while
    ``from_parts``, ``constraint_repair`` and ``marton_identity_check`` need a pmf.

    ``q_vars`` lists the variables treated as time sharing; every information
    term is conditioned on them.  It is read one way here, in ``from_parts``
    and in ``cutset_dm`` (``_q_names``): None is ("q",) and a string is one
    name.  Constraint repair appends input variables here rather than fusing
    them into one product-alphabet symbol, which preserves the distribution
    while keeping the tensor small.

    ``x``, ``u`` and ``y`` hold the bitmask (``JointPmf.mask_of``) of x_k,
    u_k and y_k at index k, and 0 where there is no such variable.
    """

    joint: JointPmf
    n: int
    destinations: tuple[int, ...]
    q_vars: tuple[str, ...]

    def __init__(self, joint: JointPmf, n: int, destinations, q_vars=("q",)):
        n = as_node_count(n)
        q_vars = _q_names(q_vars)
        q, x, u, y = _instance_plan(joint.variables, n, q_vars)
        dests = as_nodes(destinations, n, "destinations", first=2)
        self.__dict__.update(_q=q, x=x, u=u, y=y, joint=joint, n=n, destinations=dests,
                             q_vars=q_vars)

    @classmethod
    def from_parts(
        cls,
        input_pmf: JointPmf,
        channel: Channel,
        destinations: Iterable[int],
        q_vars: Sequence[str] | None = None,
    ) -> "DmInstance":
        """Join p(q, x, u) with p(y | x) into the canonical full joint.

        The per-cut evaluators see the outputs one y_k at a time, so the
        joint is handed the product's marginals over (q, x, u) and over
        (q, x, u, y_k) for each y_k with more than one symbol, made from the
        factors: p(q, x, u) times the channel's own marginal.  The DDF, J,
        broadcast-region and Marton entropies are reduced from those, and the
        normalizing total is the factors' sum of p(q, x, u) times
        sum_y p(y | x), so those evaluators never build the full joint.  It is
        built once, when first read: by an entropy over two or more outputs
        (the cutset term), by ``constraint_repair``, by a read of
        ``joint.probs`` or of a marginal over every variable, or by pickling.
        """
        n, canonical, (a_order, a_shape), (b_order, b_shape), factors = _parts_plan(
            input_pmf.variables, channel.given, channel.out)
        a = input_pmf.probs.transpose(a_order).reshape(a_shape)
        b = channel.probs.transpose(b_order).reshape(b_shape)
        sums = [b.sum(axis=summed, keepdims=True) for _, summed in factors]
        total = float((a * sums[0]).sum())  # sums[0] is sum_y p(y | x)

        @cache  # made once, for the pmf and its full lattice entry
        def build() -> np.ndarray:
            probs = a * b
            probs /= total
            probs.flags.writeable = False
            return probs

        marginals = [(mask, a * (b_sum / total)) for (mask, _), b_sum in zip(factors, sums)]
        joint = JointPmf._trusted(canonical, build, marginals)
        return cls(joint, n, destinations, q_vars)

    def mi(self, a: int, b: int, given: int = 0) -> RateBits:
        """I(a ; b | given, Q) for disjoint bitmasks a and b, with variables
        already inside the conditioning dropped from a and b (an exact
        identity, not an approximation)."""
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


def _node_masks(variables: tuple, kind: str, n: int, first: int = 1) -> tuple[int, ...]:
    """The bitmask of variable ``kind``k of ``variables`` at index k, for k in
    first..n, and 0 below."""
    return (0,) * first + tuple(1 << _axes_of(variables, (f"{kind}{k}",))[0]
                                for k in range(first, n + 1))


#: The cut functionals ``_cut_program`` compiles.
_DDF, _CUTSET, _MARTON = range(3)


@lru_cache(maxsize=256)
def _cut_program(n: int, q: int, dests: int, mode: str, kind: int):
    """(cuts, entropy masks, index array (cuts, terms, 4)) of a cut functional.
    ``cuts`` is the tuple of ``enumerate_cuts``' cuts for ``mode`` and the
    destinations in the bitmask ``dests``, the one enumeration of the
    functional's evaluators.  A term is ``DmInstance.mi(a, b, given)``'s H(a|g),
    H(g), H(a|b|g) and H(b|g), g = given|q; slot -1 reads 0.0, for an empty g
    and for an empty side.  The masks keep the per-cut order of first use: a
    miss's bits depend on which marginal it is reduced from.  A ``_DDF`` row is
    the rate term, then the far nodes' description and correlation prices, each
    group padded with empty terms to n - 1; ``_MARTON`` adds I(u_k; y_k) and
    I(u_k; u(earlier)).  Kept as ``networks._keep_plans`` keeps plans.
    """
    _, x, u, y = _instance_plan(tuple(_canonical_vars(n, {})), n, ())
    slots: dict[int, int] = {}
    empty = (-1,) * 4

    def mi(a: int, b: int, given: int = 0) -> tuple[int, ...]:
        given |= q
        a, b = a & ~given, b & ~given
        return tuple(slots.setdefault(m, len(slots)) if a and b and m else -1
                     for m in (a | given, given, a | b | given, b | given))

    nodes = [k for k in range(2, n + 1) if dests >> k & 1]
    cuts = tuple(enumerate_cuts(n, nodes, mode))
    all_x, rows = sum(x), []
    for cut in cuts:
        far = cut.complement  # ascending, so each node's earlier nodes precede it
        x_far = sum(x[k] for k in far)
        if kind == _CUTSET:
            rows.append([mi(all_x & ~x_far, sum(y[k] for k in far), x_far)])
            continue
        b = sum(u[k] for k in far) | (y[nodes[0]] if mode == "unicast" else 0)
        groups = [[mi(all_x & ~x_far, b, x_far)]] + [[] for _ in range(2 + 2 * (kind == _MARTON))]
        x_earlier = u_earlier = 0
        for k in far:
            groups[1].append(mi(u[k], u_earlier | all_x, x[k] | y[k]))
            groups[2].append(mi(x[k], x_earlier))
            x_earlier, u_earlier = x_earlier | x[k], u_earlier | u[k]
        for k in far if kind == _MARTON else ():
            groups[3].append(mi(u[k], y[k]))
            groups[4].append(mi(u[k], sum(u[j] for j in far if j < k)))
        rows.append(groups[0] + [t for g in groups[1:] for t in g + [empty] * (n - 1 - len(g))])
    idx = np.array(rows, dtype=np.intp)
    idx.flags.writeable = False
    return cuts, tuple(slots), idx


def _cut_values(inst: DmInstance, dests: Iterable[int], mode: str, kind: int):
    """(cuts, terms, values) of ``_cut_program``'s functional on ``inst``: its
    cuts, the (cuts, terms) array of its terms, clamped at zero as
    ``mask_mutual_info`` clamps them, and each cut's value, a ``_CUTSET`` term
    or the rate term less both prices, each sum added left to right as Python's
    ``sum`` adds it."""
    mode = as_mode(mode)  # before it keys the cache
    program = _keep_plans(_cut_program, inst.n)
    cuts, masks, idx = program(inst.n, inst._q, sum(1 << d for d in dests), mode, kind)
    h = np.array([*inst.joint.entropies(masks), 0.0])[idx]
    v = (h[..., 0] - h[..., 1]) - (h[..., 2] - h[..., 3])
    v, w = np.where(v > 0.0, v, 0.0), inst.n - 1
    if kind == _CUTSET:
        return cuts, v, v[:, 0]
    return cuts, v, v[:, 0] - _row_sums(v[:, 1:w + 1]) - _row_sums(v[:, w + 1:2 * w + 1])


def _bound(dests: tuple[int, ...], mode: str, cuts: Sequence[Cut], values: list[RateBits]):
    """A cut bound's result: the minimum of ``values`` for ``"unicast"``, and
    their region over ``cuts`` otherwise."""
    return min(values) if mode == "unicast" else region_from_cuts(dests, cuts, values)


def ddf_unicast_dm(inst: DmInstance, dest: int) -> tuple[RateBits, list[CutTerms]]:
    """Achievable rate to one destination plus the per-cut breakdown."""
    dest = as_node(dest, inst.n, "dest", first=2)
    cuts, v, totals = _cut_values(inst, (dest,), "unicast", _DDF)
    terms = [CutTerms(cut, row[0], dict(zip(cut.complement, row[1:])),
                      dict(zip(cut.complement, row[inst.n:])), total)
             for cut, row, total in zip(cuts, v.tolist(), totals.tolist())]
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
    cuts, _, totals = _cut_values(inst, range(2, inst.n + 1), "broadcast", _DDF)
    return dict(zip([cut.s for cut in cuts], totals.tolist()))


def ddf_broadcast_region_dm(inst: DmInstance) -> RateRegion:
    """Private-message inner bound: per cut, the far-side destinations share J(S)."""
    cuts, _, totals = _cut_values(inst, inst.destinations, "broadcast", _DDF)
    return region_from_cuts(inst.destinations, cuts, totals.tolist())


def cutset_dm(
    input_pmf: JointPmf,
    channel: Channel,
    dests: Iterable[int],
    mode: str = "unicast",
    q_vars: Sequence[str] | None = None,
) -> RateBits | RateRegion:
    """Cutset outer bound at a fixed input pmf: I(X(S); Y(S^c) | X(S^c), Q).

    The bound has no description variable, so each u_k outside ``q_vars``
    is summed out of ``input_pmf`` before the joint is built, which then has
    |Q| prod|X| prod|Y| cells, not that times prod|U|.  Its axis stays, of
    size 1, so ``DmInstance.from_parts`` still checks its name.
    """
    q_vars = _q_names(q_vars)
    drop = {name for name in input_pmf.names if name.startswith("u") and name not in q_vars}
    inst = DmInstance.from_parts(_summed_out(input_pmf, drop), channel, dests, q_vars)
    cuts, _, values = _cut_values(inst, inst.destinations, mode, _CUTSET)
    return _bound(inst.destinations, mode, cuts, values.tolist())


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
    shape = tuple(net.alphabets) + tuple(s for _, s in outs)
    capped_cells(shape, "deterministic joint")
    idx = tuple(np.indices(net.alphabets)) + tuple(net.maps[k] for k, _ in outs)
    tensors = []
    for v in values:
        t = np.zeros(shape)
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
    description to be its own observation.  The prices add up to the total
    correlation of X(S^c), so by the chain rule each cut's value is the form
    computed here, H(Y(S^c), X(S^c)) - sum_{k in S^c} H(X_k).
    """
    dests = as_nodes(dests, net.n, "dests", first=2)
    cuts = enumerate_cuts(net.n, dests, mode)
    outs, (probs,) = _det_scatter(net, input_pmf, input_pmf.probs)
    joint = JointPmf._trusted(input_pmf.variables + tuple((f"y{k}", s) for k, s in outs), probs)
    x = _node_masks(joint.variables, "x", net.n)
    y = _node_masks(joint.variables, "y", net.n, first=2)
    h = joint.entropies([x[k] for k in range(2, net.n + 1)]
                        + [sum(x[k] | y[k] for k in c.complement) for c in cuts])
    values = [hc - sum(h[k - 2] for k in c.complement) for c, hc in zip(cuts, h[net.n - 1:])]
    return _bound(dests, mode, cuts, values)


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

    Returns (lhs, rhs, lhs - rhs) for the cut with the largest discrepancy;
    a cut must beat an earlier one by more than 1e-12 to replace it, so
    rounding-level discrepancies, which any exact identity leaves, report
    the first cut rather than one picked by the last bits.

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
    for k in range(2, inst.n + 1):
        leak = inst.mi(sum(inst.u), inst.y[k], inst.x[1])
        if leak > 1e-9:
            raise ValueError(
                "not a single-hop broadcast instance: descriptions leak into "
                f"y{k} beyond x1 (I = {leak:.2e})"
            )
    _, v, lhs_cuts = _cut_values(inst, range(2, inst.n + 1), "broadcast", _MARTON)
    rhs_cuts, w = 0.0, inst.n - 1
    for j in range(2 * w + 1, 3 * w + 1):
        rhs_cuts = rhs_cuts + v[:, j] - v[:, j + w]
    worst: tuple[RateBits, RateBits, float] | None = None
    for lhs, rhs in zip(lhs_cuts.tolist(), rhs_cuts.tolist()):
        delta = lhs - rhs
        if worst is None or abs(delta) > abs(worst[2]) + 1e-12:
            worst = (lhs, rhs, delta)
    assert worst is not None
    return worst


def simplex_grid(cells: int, resolution: int) -> np.ndarray:
    """All pmfs on ``cells`` outcomes with probabilities i/resolution.

    Rows are in lexicographic order.  Intended for sweeping at most a few
    free variables; larger alphabets are refused, and a grid of more than
    2,000,000 rows raises TensorCapError.
    """
    cells, resolution = as_int(cells, "cells"), as_int(resolution, "resolution")
    if cells < 1 or cells > 4:
        raise ValueError("simplex_grid supports 1..4 cells")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    count = math.comb(resolution + cells - 1, cells - 1)
    if count > 2_000_000:
        raise TensorCapError(f"{count} grid points is too many; lower the resolution")
    # Lexicographic order, built one column at a time: each row is repeated
    # once per value its next count can take, from 0 up to its remaining mass.
    counts: list[np.ndarray] = []
    left = np.array([resolution], dtype=np.int64)
    for _ in range(cells - 1):
        reps = left + 1
        starts = np.cumsum(reps) - reps
        nxt = np.arange(int(reps.sum()), dtype=np.int64)
        nxt -= np.repeat(starts, reps)
        counts = [np.repeat(col, reps) for col in counts] + [nxt]
        left = np.repeat(left, reps)
        left -= nxt
    # Filled in place: the integer columns and the grid are the only copies.
    grid = np.empty((count, cells))
    for j, col in enumerate(counts + [left]):
        grid[:, j] = col
    grid /= resolution
    return grid


#: Simplex-grid rows ``conferencing_dbc_region`` reduces at a time.  A
#: block's largest temporaries are its (columns, rows) float arrays of at most
#: 8 columns (``_entropy_columns``), 112 KiB at 1,792 rows, and its two rows
#: of two corners a row, 56 KiB.  So none reaches the 128 KiB at which glibc
#: maps fresh pages for an allocation, and a call's few blocks reuse the
#: heap's pages instead of faulting in new ones.
_BLOCK_ROWS = 7 << 8


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, adding the columns left to right: the order
    of numpy's ``sum`` below 8 columns, without its per-row overhead."""
    total = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        total += a[..., j]
    return total


@dataclass(frozen=True, eq=False)
class ConferencingRegion:
    """Union over input pmfs of the three-constraint conferencing polytopes.

    ``boundary`` samples the Pareto frontier of the union at the sweep's
    resolution, by increasing r2, each point more than 1e-12 from the next in
    both rates.  Membership is resolution-dependent in the same way;
    ``contains`` reads its rates by ``errors.as_nonnegative``.
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
        r2, r3 = as_nonnegative(r2, "r2"), as_nonnegative(r3, "r3")
        ok = (
            (r2 <= self._r2_caps + MEMBERSHIP_SLACK)
            & (r3 <= self._r3_caps + MEMBERSHIP_SLACK)
            & (r2 + r3 <= self._sum_caps + MEMBERSHIP_SLACK)
        )
        return bool(np.any(ok))


#: Bins of ``_undominated``'s pre-pass, which runs on more than
#: ``4 * _BINS`` corners.
_BINS = 256


def _undominated(corner_r2: np.ndarray, corner_r3: np.ndarray) -> np.ndarray:
    """Indices, by decreasing r2, of the corners that no other corner
    dominates (both rates at least its own); of equal corners, the first.

    On many corners a bin pass first drops every corner it proves strictly
    dominated: the bin floor((r2 - lo) / (hi - lo) * _BINS) never falls as r2
    rises, so a corner in a higher bin has a strictly larger r2, and a corner
    whose r3 is at most a higher bin's largest r3 would lose the scan below
    to it.  Dropping such a corner leaves every running maximum of that scan
    as it was, so only the sort gets shorter."""
    picked = None
    if corner_r2.size > 4 * _BINS:
        lo, hi = corner_r2.min(), corner_r2.max()
        # A NaN r3 stops the scan below, which no bin would show.
        if 0.0 < hi - lo < np.inf and not np.isnan(corner_r3.max()):
            bins = ((corner_r2 - lo) / (hi - lo) * _BINS).astype(np.intp)  # 0 .. _BINS
            above = np.full(_BINS + 2, -np.inf)
            np.maximum.at(above, bins, corner_r3)
            above = np.maximum.accumulate(above[::-1])[::-1]  # over bins >= b
            picked = np.flatnonzero(corner_r3 > above[1:][bins])
            corner_r2, corner_r3 = corner_r2[picked], corner_r3[picked]
    order = np.argsort(-corner_r2, kind="stable")
    r3s = corner_r3[order]
    kept = order[r3s > np.maximum.accumulate(np.concatenate([[-np.inf], r3s[:-1]]))]
    r2s = corner_r2[kept]  # of equal r2 kept, the last has the largest r3
    kept = kept[r2s != np.append(r2s[1:], np.nan)]
    return kept if picked is None else picked[kept]


def _pareto_frontier(
    corner_r2: np.ndarray, corner_r3: np.ndarray
) -> tuple[tuple[float, float], ...]:
    """The corners that are not dominated, by increasing r2.  Scanning by
    decreasing r2, a corner is kept when its r3 exceeds the last kept one's
    by more than 1e-12; then, by increasing r2, a kept corner within 1e-12 in
    r2 of the last one left in, whose r3 is larger, is left out: rounding
    alone separates no two points."""
    rising: list[tuple[float, float]] = []
    best_r3 = -1.0
    kept = _undominated(corner_r2, corner_r3)
    for r2v, r3v in zip(corner_r2[kept].tolist(), corner_r3[kept].tolist()):
        if r3v > best_r3 + 1e-12:
            rising.append((r2v, r3v))
            best_r3 = r3v
    frontier = rising[-1:]
    for r2v, r3v in reversed(rising[:-1]):
        if r2v - frontier[-1][0] > 1e-12:
            frontier.append((r2v, r3v))
    return tuple(frontier)


def _add_rows(t: np.ndarray, rows: Sequence[int], out: np.ndarray) -> np.ndarray:
    """``out`` = t[rows[0]] + t[rows[1]] + ..., added left to right."""
    np.copyto(out, t[rows[0]])
    for j in rows[1:]:
        out += t[j]
    return out


def _entropy_columns(
    y2_map: np.ndarray, y3_map: np.ndarray
) -> tuple[list[list[int]], list[list[int]], list[int], list[int]]:
    """The columns of a ``conferencing_dbc_region`` block.  First come the
    (y2, y3) cells some input reaches, in the dense joint's flat order, each
    with the inputs that reach it; then each marginal that spans two or more
    of them, with its cells; last, the columns whose p log2 p sum, left to
    right, to H(Y2) and to H(Y3) (the cells alone sum to H(Y2, Y3)).

    A cell no input reaches is 0.0 in the dense joint and its p log2 p is
    0.0, which adds nothing to a row sum; a one-cell marginal is that cell.
    So every sum has the dense joint's bits.  With m <= 4 inputs there are at
    most 4 cells and 4 spanning marginals, and 8 columns only when the cells
    form a 2 x 2 square."""
    pairs = list(zip(y2_map.tolist(), y3_map.tolist()))
    cells = sorted(set(pairs))
    inputs = [[x for x, pair in enumerate(pairs) if pair == cell] for cell in cells]
    spans: list[list[int]] = []
    cols: tuple[list[int], list[int]] = ([], [])
    for axis, out in enumerate(cols):
        for v in sorted({cell[axis] for cell in cells}):
            members = [k for k, cell in enumerate(cells) if cell[axis] == v]
            if len(members) > 1:
                spans.append(members)
                members = [len(cells) + len(spans) - 1]
            out.append(members[0])
    return inputs, spans, cols[0], cols[1]


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
    input pmfs, swept on a simplex grid.  ``y2_map[x]`` and ``y3_map[x]`` are
    the symbols input x gives each receiver, read and ranked by
    ``errors.as_symbols`` as ``DeterministicNetwork`` reads its maps.

    The grid is reduced in blocks of ``_BLOCK_ROWS`` rows, over the joint
    cells some input reaches (``_entropy_columns``), so that no temporary
    reaches 128 KiB; each block keeps only its undominated corners.  Neither
    the block size nor the left-out cells show in the bits.
    """
    c23, c32 = as_number(c23, "c23"), as_number(c32, "c32")
    if not (c23 >= 0 and c32 >= 0):  # also rejects NaN
        raise ValueError("conferencing capacities must be nonnegative")
    # Each symbol is read as its rank in its map: at most m columns per receiver.
    y2_map, y3_map = as_symbols(y2_map, "y2_map"), as_symbols(y3_map, "y3_map")
    grid_res = as_int(grid_res, "grid_res")
    if y2_map.ndim != 1 or y2_map.shape != y3_map.shape or not y2_map.size:
        raise ValueError("output maps must be flat, nonempty and equally long")
    pmfs = simplex_grid(y2_map.size, grid_res)
    rows = pmfs.shape[0]
    inputs, spans, h2_cols, h3_cols = _entropy_columns(y2_map, y3_map)
    h_cols = range(len(inputs))
    block = min(_BLOCK_ROWS, rows)
    r2_caps, r3_caps, h23 = np.empty(rows), np.empty(rows), np.empty(rows)
    buf, corners = np.empty((len(inputs) + len(spans), block)), np.empty((2, 2 * block))
    # Each polytope's two upper corners that are undominated within their
    # block; the frontier sorts them, so their order does not matter.
    kept_r2: list[np.ndarray] = []
    kept_r3: list[np.ndarray] = []
    for lo in range(0, rows, block):
        hi = min(lo + block, rows)
        b = hi - lo
        p, grid = buf[:, :b], pmfs[lo:hi].T
        for k, xs in enumerate(inputs):
            _add_rows(grid, xs, p[k])
        for k, cells in enumerate(spans, len(inputs)):
            _add_rows(p, cells, p[k])
        t = np.where(p >= ZERO_EPS, p, 1.0)
        np.log2(t, out=t)
        t *= p
        r2, r3, h = r2_caps[lo:hi], r3_caps[lo:hi], h23[lo:hi]
        for cols, out in ((h2_cols, r2), (h3_cols, r3), (h_cols, h)):
            np.subtract(0.0, _add_rows(t, cols, out), out=out)  # never -0.0
        r2 += c32
        r3 += c23
        c2, c3 = corners[0, :2 * b], corners[1, :2 * b]
        top_r2, top_r3 = np.minimum(r2, h, out=c2[:b]), np.minimum(r3, h, out=c3[b:])
        np.minimum(r3, np.subtract(h, top_r2, out=c3[:b]), out=c3[:b])
        np.minimum(r2, np.subtract(h, top_r3, out=c2[b:]), out=c2[b:])
        kept = _undominated(c2, c3)
        kept_r2.append(c2[kept])
        kept_r3.append(c3[kept])
    best_sum = r2_caps + r3_caps  # one grid-sized scratch for the three maxima
    np.minimum(h23, best_sum, out=best_sum)
    i_sum = int(np.argmax(best_sum))  # the first maximum
    max_sum = float(best_sum[i_sum])
    max_r2 = float(np.max(np.minimum(r2_caps, h23, out=best_sum)))
    max_r3 = float(np.max(np.minimum(r3_caps, h23, out=best_sum)))
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
        boundary=_pareto_frontier(np.concatenate(kept_r2), np.concatenate(kept_r3)),
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

    joint = _summed_out(inst.joint, {f"u{k}" for k in far})
    q_vars = tuple(dict.fromkeys(list(inst.q_vars) + [f"x{k}" for k in far]))
    return DmInstance(joint, inst.n, inst.destinations, q_vars)


def _summed_out(pmf: JointPmf, drop: set[str]) -> JointPmf:
    """``pmf`` with the variables in ``drop`` summed out through
    ``JointPmf.marginal``; their axes stay, of size 1."""
    marg = pmf.marginal([name for name in pmf.names if name not in drop])
    variables = tuple((name, 1 if name in drop else size) for name, size in pmf.variables)
    return JointPmf._trusted(variables, marg.reshape(tuple(s for _, s in variables)))


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


def _probs_from_doc(doc: dict, cells: int) -> np.ndarray:
    probs = doc.get("probs")
    if not isinstance(probs, list):
        raise SchemaError("probs: expected a flat list")
    if len(probs) != cells:
        raise SchemaError(f"probs: expected {cells} entries, got {len(probs)}")
    # A one-axis object array, so that a nested entry is an entry that is
    # not a number, named probs[i], rather than another axis.
    return as_numbers(np.fromiter(probs, dtype=object, count=cells), "probs")


def load_pmf(path: str | Path) -> tuple[JointPmf, tuple[str, ...]]:
    """Read a pmf file; returns the pmf and its declared time-sharing names."""
    return load_json_object(path, _pmf_from_doc)


def _pmf_from_doc(doc: dict) -> tuple[JointPmf, tuple[str, ...]]:
    variables = _vars_from_doc(doc)
    probs = _probs_from_doc(doc, capped_cells((s for _, s in variables), "pmf"))
    q_vars = doc.get("q_vars", [])
    if not isinstance(q_vars, list) or not all(isinstance(q, str) for q in q_vars):
        raise SchemaError("q_vars: expected a list of variable names")
    pmf = JointPmf(variables, probs)
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
    return Channel(given, out, _probs_from_doc(doc, cells))
