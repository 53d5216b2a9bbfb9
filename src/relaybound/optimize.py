"""Deterministic small-scale optimizers used by the bound evaluators.

Everything here is dependency-free numerics: a coarse-grid + Nelder-Mead
maximizer for box-constrained objectives, golden-section line search, a
feasibility bisection, and a dense-tableau simplex for rate-region LPs.
``golden_max`` and ``bisect_feasible`` have no library caller; they stay
because the benchmark's tracer wraps them by name.

The maximizer is called many times on a few boxes (a diamond sweep over
three relay positions runs six searches on two boxes), so its scan is
planned once per (box, grid side): the grid axes as Python floats and the
read-only meshes, kept in a cache of 32 plans of at most 128 KiB each.  Each
call then pays only for its objective's grid call and its Nelder-Mead probes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    InfeasibleError, TensorCapError, UnboundedError, as_int, as_number, as_numbers)
from .info import CELL_CAP

log = logging.getLogger(__name__)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: The value of a Nelder-Mead (value, vertex) pair.
_VALUE = itemgetter(0)

#: Internal convergence tolerance on rates (user-facing guarantees are 1e-6).
SPREAD_TOL = 1e-8


@dataclass(frozen=True)
class BoxDim:
    """One box dimension; transform is "linear" or "log" (requires lo > 0)."""

    lo: float
    hi: float
    transform: str = "linear"

    def __post_init__(self):
        for name in ("lo", "hi"):
            object.__setattr__(self, name, as_number(getattr(self, name), name))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"box bounds must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.transform not in ("linear", "log"):
            raise ValueError(f"unknown transform {self.transform!r}")
        if self.transform == "log" and self.lo <= 0:
            raise ValueError("log-transformed dimension requires lo > 0")

    def to_internal(self, x: float) -> float:
        return math.log(x) if self.transform == "log" else x

    def to_external(self, t: float) -> float:
        return math.exp(t) if self.transform == "log" else t


#: The bytes of the meshes and axes of a scan plan that ``_kept_plan`` keeps,
#: at most, counting each Python float of the axes at 32 bytes: the 16**3
#: grid of ``ddf_diamond_opt``'s default budget takes 97.5 KiB.  The 32 plans
#: kept take at most 4 MiB, and under 2 KiB each of headers and keys.
_PLAN_BYTES = 128 << 10


class _ScanPlan(NamedTuple):
    """The box-and-grid half of a ``grid_then_refine`` call: per dimension,
    (to_external, internal lo, internal hi), the internal grid axis as
    Python floats and half a grid step; and the external mesh."""

    ranges: tuple
    axes: tuple
    steps: tuple
    mesh: tuple


def _scan_plan(dims: tuple[BoxDim, ...], grid: int) -> _ScanPlan:
    """The scan plan of ``grid`` points per dimension of ``dims``: each axis
    is ``np.linspace`` in internal coordinates (the lower end alone when
    ``grid`` is 1), mapped to external ones through the scalar map, so grid
    probes see exactly the arguments the scalar probe would pass."""
    los = [d.to_internal(d.lo) for d in dims]
    his = [d.to_internal(d.hi) for d in dims]
    # BoxDim.to_external, chosen once per dimension rather than per probe.
    exts = [math.exp if d.transform == "log" else float for d in dims]
    axes = tuple(tuple(np.linspace(lo, hi, grid).tolist()) if grid > 1 else (lo,)
                 for lo, hi in zip(los, his))
    mesh = np.meshgrid(*(np.array([ext(t) for t in ax]) for ext, ax in zip(exts, axes)),
                       indexing="ij")
    return _ScanPlan(tuple(zip(exts, los, his)), axes,
                     tuple((hi - lo) / max(grid - 1, 1) / 2 for lo, hi in zip(los, his)),
                     tuple(mesh))


@lru_cache(maxsize=32)
def _kept_plan(dims: tuple[BoxDim, ...], grid: int, zeros: tuple) -> _ScanPlan | None:
    """``_scan_plan(dims, grid)`` with read-only meshes, kept when its meshes
    and axes take at most ``_PLAN_BYTES``; None for a larger plan, which each
    call builds for itself.  ``zeros``, the signs of the bounds that are
    zero, only keys the cache: -0.0 == 0.0, but a grid scans its bounds with
    their signs."""
    if 8 * len(dims) * (grid ** len(dims) + 4 * grid) > _PLAN_BYTES:
        return None
    plan = _scan_plan(dims, grid)
    for m in plan.mesh:
        m.flags.writeable = False
    return plan


def grid_then_refine(
    f: Callable[..., float],
    box: Sequence[BoxDim | tuple],
    grid_per_dim: int = 8,
    refine_budget: int = 400,
) -> tuple[tuple[float, ...], float]:
    """Maximize f over a box: full grid scan, then Nelder-Mead from the best cell.

    ``box`` lists one ``BoxDim`` or ``(lo, hi[, transform])`` per dimension.

    ``f`` must work elementwise: the grid is scanned in one call on arrays of
    shape ``(grid_per_dim,) * ndim`` (``np.meshgrid(..., indexing="ij")`` of
    the axes), whose result may be any array broadcastable to that shape, and
    Nelder-Mead then probes it one point at a time on Python floats, so ``f``
    may take a scalar fast path.  Its two kinds of call should agree bit for
    bit at a point, as the diamond objectives do.  The grid
    is uniform in internal (possibly log) coordinates and includes the
    endpoints; one of more than ``info.CELL_CAP`` points raises TensorCapError
    before any array is built or ``f`` is called.  The scan's axes and
    meshes are planned once per (box, grid side) and kept, read-only, in a
    bounded cache while they take at most ``_PLAN_BYTES`` (128 KiB; 4 MiB in
    all), so ``f`` must not write into its arguments; a larger grid is built
    for its call alone.  Ties prefer the
    lexicographically smallest probe, so a constant
    objective returns the box's lower corner.  Non-finite probes are discarded;
    if every grid probe is non-finite the search starts at the lower corner.
    The returned value is never below the best grid value.  The procedure is
    fully deterministic: Nelder-Mead keeps its simplex as (value, vertex)
    pairs, best first by a stable sort, so tied vertices keep their order.

    ``refine_budget`` is a soft cap: Nelder-Mead makes at most
    ``refine_budget + ndim + 1`` scalar probes, because its initial simplex
    of ndim + 1 probes always runs and the budget is checked before each step.
    """
    grid_per_dim = as_int(grid_per_dim, "grid_per_dim")
    refine_budget = as_int(refine_budget, "refine_budget")
    if grid_per_dim < 1:
        raise ValueError("grid_per_dim must be >= 1")
    dims = tuple(d if isinstance(d, BoxDim) else BoxDim(*d) for d in box)
    ndim = len(dims)
    cells = grid_per_dim ** ndim
    if cells > CELL_CAP:
        raise TensorCapError(f"a grid of {grid_per_dim}**{ndim} = {cells} points "
                             f"is over the cap of {CELL_CAP}; lower grid_per_dim")
    zeros = tuple(math.copysign(1.0, b) for d in dims for b in (d.lo, d.hi) if not b)
    ranges, axes, steps, mesh = (_kept_plan(dims, grid_per_dim, zeros)
                                 or _scan_plan(dims, grid_per_dim))

    evals = 0

    def probe(t: Sequence[float]) -> float:
        """f at t clipped to the box, -inf if not finite; counted, and kept
        as the incumbent when strictly better."""
        nonlocal evals, overall_t, overall_v
        evals += 1
        # min(max(ti, lo), hi), without two builtin calls per coordinate.
        x = [ext(lo if ti < lo else hi if ti > hi else ti)
             for ti, (ext, lo, hi) in zip(t, ranges)]
        v = float(f(*x))
        if not math.isfinite(v):
            log.debug("discarding non-finite probe f(%s) = %s", x, v)
            v = -math.inf
        if v > overall_v:  # no vertex changes once probed, so t is kept as is
            overall_t, overall_v = t, v
        return v

    vals = np.asarray(f(*mesh), dtype=float)
    if vals.shape != mesh[0].shape:
        vals = np.broadcast_to(vals, mesh[0].shape)
    # C order is itertools.product order, and argmax takes the first maximum.
    # A NaN or +inf would be that maximum, so a finite one leaves -inf as the
    # only non-finite value, which the search reads as it stands.
    k = int(vals.argmax())
    if not math.isfinite(vals.flat[k]):
        finite = np.isfinite(vals)
        log.debug("discarding %d non-finite grid probes", int(vals.size - finite.sum()))
        vals = np.where(finite, vals, -math.inf)
        k = int(vals.argmax())
    overall_t = [ax[i] for ax, i in zip(axes, np.unravel_index(k, vals.shape))]
    overall_v = float(vals.flat[k])

    # Nelder-Mead (reflect 1, expand 2, contract 0.5, shrink 0.5) in internal
    # coordinates, clipped to the box, on (value, vertex) pairs.
    simplex = [overall_t]
    for i, (s, (_, _, hi)) in enumerate(zip(steps, ranges)):
        vert = list(overall_t)
        vert[i] = vert[i] + s if vert[i] + s <= hi else vert[i] - s
        simplex.append(vert)
    pairs = [(probe(v), v) for v in simplex]

    while evals < refine_budget:
        # Best first; a reverse sort is stable, so ties keep their order.
        pairs.sort(key=_VALUE, reverse=True)
        (best_v, best), (worst_v, worst) = pairs[0], pairs[-1]
        if best_v - worst_v < SPREAD_TOL:
            break
        # sum adds each column left to right from the int 0, so a column of
        # -0.0 sums to +0.0
        centroid = [sum(col) / ndim for col in zip(*[v for _, v in pairs[:-1]])]
        refl = [c + (c - w) for c, w in zip(centroid, worst)]
        fr = probe(refl)
        if fr > best_v:
            expa = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            fe = probe(expa)
            pairs[-1] = (fe, expa) if fe > fr else (fr, refl)
        elif fr > pairs[-2][0]:
            pairs[-1] = (fr, refl)
        else:
            contr = [c + 0.5 * (w - c) for c, w in zip(centroid, worst)]
            fc = probe(contr)
            if fc > worst_v:
                pairs[-1] = (fc, contr)
            else:
                for i in range(1, ndim + 1):
                    vert = [0.5 * (a + b) for a, b in zip(best, pairs[i][1])]
                    pairs[i] = (probe(vert), vert)

    arg = tuple(ext(min(max(t, lo), hi)) for t, (ext, lo, hi) in zip(overall_t, ranges))
    return arg, overall_v


def golden_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-9
) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi].

    Exact only for unimodal objectives; for others this is a heuristic, but the
    endpoints are always probed so monotone objectives resolve correctly.
    """
    if not lo <= hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    best_x, best_v = lo, f(lo)
    if (v := f(hi)) > best_v:
        best_x, best_v = hi, v
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    for x, v in ((x1, f1), (x2, f2)):
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


def bisect_feasible(
    pred: Callable[[float], bool], lo: float, hi: float, tol: float = 1e-9
) -> float:
    """Largest t in [lo, hi] with pred(t) true, to within tol.

    pred must be true at lo and monotone nonincreasing in t.
    """
    if not pred(lo):
        raise ValueError(f"predicate is false at the lower end {lo}")
    if pred(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def simplex_lp_max(
    c: Sequence[float],
    constraints: Sequence[tuple[Sequence[float], float]],
) -> tuple[np.ndarray, float]:
    """Maximize c.x subject to a.x <= b rows and x >= 0, by dense-tableau simplex.

    Bland's rule is used for both the entering and leaving choices, so the
    iteration is deterministic and cannot cycle.  Constraints with a +inf
    bound are skipped.  A negative bound, -inf included, raises
    InfeasibleError (the origin start requires b >= 0; with the nonnegative
    row coefficients produced by rate regions such a row is genuinely
    infeasible).  An objective direction with no binding row raises
    UnboundedError.  A NaN bound, a non-finite objective or row coefficient,
    or a bound or coefficient that is not a number (a bool, a string), raises
    ValueError naming it.
    """
    c = as_numbers(c, "objective")
    n = c.size
    rows = []
    bs = []
    for i, (coeffs, bound) in enumerate(constraints):
        bound = as_number(bound, f"constraint {i} bound")
        if math.isnan(bound):
            raise ValueError(f"constraint {i}: bound must not be NaN")
        if bound == math.inf:
            continue
        if bound < 0:
            raise InfeasibleError(f"constraint bound {bound} < 0 with x >= 0")
        a = as_numbers(coeffs, f"constraint {i} coefficients")
        if a.size != n:
            raise ValueError(f"constraint arity {a.size} != objective arity {n}")
        rows.append(a)
        bs.append(bound)
    m = len(rows)
    tol = 1e-9

    # tableau: m rows of [A | I | b]; last row holds reduced costs for max.
    tab = np.zeros((m + 1, n + m + 1))
    for i, (a, b) in enumerate(zip(rows, bs)):
        tab[i, :n] = a
        tab[i, n + i] = 1.0
        tab[i, -1] = b
    tab[-1, :n] = c
    basis = list(range(n, n + m))

    while True:
        enter = -1
        for j in range(n + m):
            if tab[-1, j] > tol:
                enter = j
                break
        if enter < 0:
            break
        leave, best_ratio = -1, math.inf
        for i in range(m):
            if tab[i, enter] > tol:
                ratio = tab[i, -1] / tab[i, enter]
                if ratio < best_ratio - tol or (
                    abs(ratio - best_ratio) <= tol
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    leave, best_ratio = i, ratio
        if leave < 0:
            raise UnboundedError(f"objective unbounded along variable {enter}")
        pivot = tab[leave, enter]
        tab[leave] /= pivot
        for i in range(m + 1):
            if i != leave and tab[i, enter] != 0.0:
                tab[i] -= tab[i, enter] * tab[leave]
        basis[leave] = enter

    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i, -1]
    return x, float(np.dot(c, x))
