"""Deterministic small-scale optimizers used by the bound evaluators.

Everything here is dependency-free numerics: a coarse-grid + Nelder-Mead
maximizer for box-constrained objectives, golden-section line search, a
feasibility bisection, and a dense-tableau simplex for rate-region LPs.
``golden_max`` and ``bisect_feasible`` have no library caller; they stay
because the benchmark's tracer wraps them by name.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InfeasibleError, UnboundedError, as_int

log = logging.getLogger(__name__)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Internal convergence tolerance on rates (user-facing guarantees are 1e-6).
SPREAD_TOL = 1e-8


@dataclass(frozen=True)
class BoxDim:
    """One box dimension; transform is "linear" or "log" (requires lo > 0)."""

    lo: float
    hi: float
    transform: str = "linear"

    def __post_init__(self):
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


@dataclass(frozen=True)
class Box:
    dims: tuple[BoxDim, ...]

    def __init__(self, dims: Sequence[BoxDim | tuple]):
        norm = tuple(d if isinstance(d, BoxDim) else BoxDim(*d) for d in dims)
        object.__setattr__(self, "dims", norm)


def grid_then_refine(
    f: Callable[..., float],
    box: Box,
    grid_per_dim: int = 8,
    refine_budget: int = 400,
) -> tuple[tuple[float, ...], float]:
    """Maximize f over a box: full grid scan, then Nelder-Mead from the best cell.

    ``f`` must work elementwise: the grid is scanned in one call on arrays of
    shape ``(grid_per_dim,) * ndim`` (``np.meshgrid(..., indexing="ij")`` of
    the axes), whose result may be any array broadcastable to that shape, and
    Nelder-Mead then probes it one point at a time on Python floats.  The grid
    is uniform in internal (possibly log) coordinates and includes the
    endpoints.  Ties prefer the lexicographically smallest probe, so a constant
    objective returns the box's lower corner.  Non-finite probes are discarded;
    if every grid probe is non-finite the search starts at the lower corner.
    The returned value is never below the best grid value.  The procedure is
    fully deterministic.
    """
    grid_per_dim = as_int(grid_per_dim, "grid_per_dim")
    refine_budget = as_int(refine_budget, "refine_budget")
    if grid_per_dim < 1:
        raise ValueError("grid_per_dim must be >= 1")
    dims = box.dims
    los = [d.to_internal(d.lo) for d in dims]
    his = [d.to_internal(d.hi) for d in dims]

    evals = 0

    def probe(t: Sequence[float]) -> float:
        """f at t clipped to the box, -inf if not finite; counted, and kept
        as the incumbent when strictly better."""
        nonlocal evals, overall_t, overall_v
        evals += 1
        x = tuple(d.to_external(min(max(ti, lo), hi))
                  for d, ti, lo, hi in zip(dims, t, los, his))
        v = float(f(*x))
        if not math.isfinite(v):
            log.debug("discarding non-finite probe f(%s) = %s", x, v)
            v = -math.inf
        if v > overall_v:
            overall_t, overall_v = list(t), v
        return v

    axes = [
        np.linspace(lo, hi, grid_per_dim) if grid_per_dim > 1 else np.array([lo])
        for lo, hi in zip(los, his)
    ]
    # External coordinates per axis through the scalar map, so grid probes see
    # exactly the arguments the scalar probe would pass.
    ext_axes = [np.array([d.to_external(float(t)) for t in ax])
                for d, ax in zip(dims, axes)]
    mesh = np.meshgrid(*ext_axes, indexing="ij")
    vals = np.broadcast_to(np.asarray(f(*mesh), dtype=float), mesh[0].shape)
    finite = np.isfinite(vals)
    if not finite.all():
        log.debug("discarding %d non-finite grid probes", int(vals.size - finite.sum()))
        vals = np.where(finite, vals, -math.inf)
    # C order is itertools.product order, and argmax takes the first maximum.
    cell = np.unravel_index(int(np.argmax(vals)), vals.shape)
    overall_t = [float(ax[i]) for ax, i in zip(axes, cell)]
    overall_v = float(vals[cell])

    # Nelder-Mead (reflect 1, expand 2, contract 0.5, shrink 0.5) in internal
    # coordinates, clipped to the box.
    steps = [(hi - lo) / max(grid_per_dim - 1, 1) / 2 for lo, hi in zip(los, his)]
    simplex = [list(overall_t)]
    for i, s in enumerate(steps):
        vert = list(overall_t)
        vert[i] = vert[i] + s if vert[i] + s <= his[i] else vert[i] - s
        simplex.append(vert)
    values = [probe(v) for v in simplex]

    ndim = len(dims)
    while evals < refine_budget:
        order = sorted(range(ndim + 1), key=lambda i: -values[i])
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[0] - values[-1] < SPREAD_TOL:
            break
        centroid = [sum(vert[i] for vert in simplex[:-1]) / ndim for i in range(ndim)]
        worst = simplex[-1]
        refl = [c + (c - w) for c, w in zip(centroid, worst)]
        fr = probe(refl)
        if fr > values[0]:
            expa = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            fe = probe(expa)
            if fe > fr:
                simplex[-1], values[-1] = expa, fe
            else:
                simplex[-1], values[-1] = refl, fr
        elif fr > values[-2]:
            simplex[-1], values[-1] = refl, fr
        else:
            contr = [c + 0.5 * (w - c) for c, w in zip(centroid, worst)]
            fc = probe(contr)
            if fc > values[-1]:
                simplex[-1], values[-1] = contr, fc
            else:
                for i in range(1, ndim + 1):
                    simplex[i] = [0.5 * (a + b) for a, b in zip(simplex[0], simplex[i])]
                    values[i] = probe(simplex[i])

    clipped = [min(max(t, lo), hi) for t, lo, hi in zip(overall_t, los, his)]
    arg = tuple(d.to_external(t) for d, t in zip(dims, clipped))
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
    iteration is deterministic and cannot cycle.  Constraints with an infinite
    bound are skipped.  A negative bound raises InfeasibleError (the origin
    start requires b >= 0; with the nonnegative row coefficients produced by
    rate regions such a row is genuinely infeasible).  An objective direction
    with no binding row raises UnboundedError.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    bs = []
    for coeffs, bound in constraints:
        if math.isinf(bound):
            continue
        if bound < 0:
            raise InfeasibleError(f"constraint bound {bound} < 0 with x >= 0")
        a = np.asarray(coeffs, dtype=float)
        if a.size != n:
            raise ValueError(f"constraint arity {a.size} != objective arity {n}")
        rows.append(a)
        bs.append(float(bound))
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
