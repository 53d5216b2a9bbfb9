"""``grid_then_refine`` written with parallel vertex and value lists, re-sorted
through an index permutation at every step: ``optimize.grid_then_refine``
must reproduce its argument, value and probe sequence bit for bit."""

import logging
import math

import numpy as np

from relaybound.optimize import SPREAD_TOL, BoxDim

log = logging.getLogger(__name__)


def grid_then_refine_reference(f, box, grid_per_dim=8, refine_budget=400):
    dims = [d if isinstance(d, BoxDim) else BoxDim(*d) for d in box]
    los = [d.to_internal(d.lo) for d in dims]
    his = [d.to_internal(d.hi) for d in dims]
    exts = [math.exp if d.transform == "log" else float for d in dims]
    ranges = list(zip(exts, los, his))

    evals = 0

    def probe(t):
        nonlocal evals, overall_t, overall_v
        evals += 1
        x = [ext(lo if ti < lo else hi if ti > hi else ti)
             for ti, (ext, lo, hi) in zip(t, ranges)]
        v = float(f(*x))
        if not math.isfinite(v):
            v = -math.inf
        if v > overall_v:
            overall_t, overall_v = list(t), v
        return v

    axes = [
        np.linspace(lo, hi, grid_per_dim) if grid_per_dim > 1 else np.array([lo])
        for lo, hi in zip(los, his)
    ]
    ext_axes = [np.array([ext(float(t)) for t in ax]) for ext, ax in zip(exts, axes)]
    mesh = np.meshgrid(*ext_axes, indexing="ij")
    vals = np.broadcast_to(np.asarray(f(*mesh), dtype=float), mesh[0].shape)
    vals = np.where(np.isfinite(vals), vals, -math.inf)
    cell = np.unravel_index(int(np.argmax(vals)), vals.shape)
    overall_t = [float(ax[i]) for ax, i in zip(axes, cell)]
    overall_v = float(vals[cell])

    steps = [(hi - lo) / max(grid_per_dim - 1, 1) / 2 for lo, hi in zip(los, his)]
    simplex = [list(overall_t)]
    for i, s in enumerate(steps):
        vert = list(overall_t)
        vert[i] = vert[i] + s if vert[i] + s <= his[i] else vert[i] - s
        simplex.append(vert)
    values = [probe(v) for v in simplex]

    ndim = len(dims)
    while evals < refine_budget:
        order = sorted(range(ndim + 1), key=values.__getitem__, reverse=True)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[0] - values[-1] < SPREAD_TOL:
            break
        centroid = [sum(col) / ndim for col in zip(*simplex[:-1])]
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

    arg = tuple(ext(min(max(t, lo), hi)) for t, (ext, lo, hi) in zip(overall_t, ranges))
    return arg, overall_v


def run_logged(search, f, box, **kw):
    """``search(f, box, **kw)``'s result and every call it made to ``f``, in
    order, each as bytes or ``repr`` so that equal logs mean equal bits."""
    calls = []

    def logged(*x):
        v = f(*x)
        if isinstance(x[0], np.ndarray):
            calls.append((tuple(a.tobytes() for a in x), np.asarray(v).tobytes()))
        else:
            calls.append(repr((x, v)))
        return v

    return repr(search(logged, box, **kw)), calls
