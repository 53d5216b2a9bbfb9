"""Checks for the grid + Nelder-Mead maximizer, line searches, and the LP."""

import itertools
import math

import numpy as np
import pytest

from relaybound import (
    Box,
    BoxDim,
    InfeasibleError,
    UnboundedError,
    bisect_feasible,
    golden_max,
    grid_then_refine,
    simplex_lp_max,
)


def lp_vertex_oracle(c, constraints):
    """Brute-force LP max by enumerating candidate basic feasible points.

    Intersects every n-subset of hyperplanes drawn from the constraint rows
    and the x_i = 0 planes, keeps the feasible ones, and returns the best
    objective value.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    planes = [(np.asarray(a, dtype=float), float(b)) for a, b in constraints]
    planes += [(np.eye(n)[i], 0.0) for i in range(n)]
    best = None
    for subset in itertools.combinations(planes, n):
        a = np.array([p[0] for p in subset])
        b = np.array([p[1] for p in subset])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9):
            continue
        if any(np.dot(row, x) > bound + 1e-9 for row, bound in planes[: len(constraints)]):
            continue
        val = float(np.dot(c, x))
        if best is None or val > best:
            best = val
    return best


def test_box_dim_validation():
    with pytest.raises(ValueError, match="lo < hi"):
        BoxDim(1.0, 1.0)
    with pytest.raises(ValueError, match="unknown transform"):
        BoxDim(0.0, 1.0, "cubic")
    with pytest.raises(ValueError, match="lo > 0"):
        BoxDim(0.0, 1.0, "log")
    d = BoxDim(math.exp(-2), math.exp(2), "log")
    assert abs(d.to_internal(1.0)) < 1e-15
    assert abs(d.to_external(0.0) - 1.0) < 1e-15


def test_grid_then_refine_quadratic():
    box = Box([(-4.0, 4.0), (-4.0, 4.0)])

    def f(x, y):
        return -((x - 1.3) ** 2) - 2.0 * (y + 0.7) ** 2

    arg, val = grid_then_refine(f, box, grid_per_dim=9, refine_budget=600)
    assert abs(arg[0] - 1.3) < 1e-3
    assert abs(arg[1] + 0.7) < 1e-3
    assert val <= 0.0
    assert val > -1e-6


def test_grid_then_refine_log_dimension():
    box = Box([BoxDim(1e-3, 1e3, "log")])
    arg, val = grid_then_refine(lambda s: -(np.log(s) - math.log(7.0)) ** 2, box)
    assert abs(arg[0] - 7.0) / 7.0 < 1e-3
    assert val > -1e-6


def test_grid_then_refine_deterministic_and_tie_breaking():
    box = Box([(0.0, 1.0), (0.0, 1.0)])
    runs = [grid_then_refine(lambda x, y: 5.0, box) for _ in range(2)]
    assert runs[0] == runs[1]
    # constant objective: lexicographically smallest probe wins
    assert runs[0][0] == (0.0, 0.0)
    assert runs[0][1] == 5.0


def test_grid_then_refine_handles_non_finite():
    box = Box([(0.0, 2.0)])

    def f(x):
        return np.where(x < 0.5, math.nan, np.where(x < 1.0, -math.inf, -((x - 1.5) ** 2)))

    arg, val = grid_then_refine(f, box, grid_per_dim=17, refine_budget=200)
    assert abs(arg[0] - 1.5) < 1e-3
    assert val > -1e-6


def test_grid_then_refine_never_below_grid():
    # a spiky objective the refinement step can easily wander away from
    box = Box([(0.0, 1.0)])

    def f(x):
        return np.where(abs(x - 2.0 / 7.0) < 1e-3, 1.0, np.sin(40.0 * x))

    grid_vals = [f(t) for t in np.linspace(0.0, 1.0, 8)]
    _, val = grid_then_refine(f, box, grid_per_dim=8, refine_budget=100)
    assert val >= max(grid_vals)


def scalar_grid_scan(f, box, grid_per_dim):
    """The grid phase as a scalar loop: probes in itertools.product order, the
    first strictly greater finite value wins, and the lower corner is the
    start when no probe is finite."""
    axes = [np.linspace(d.to_internal(d.lo), d.to_internal(d.hi), grid_per_dim)
            for d in box.dims]
    best_t, best_v = None, -math.inf
    for t in itertools.product(*axes):
        v = float(f(*(d.to_external(float(ti)) for d, ti in zip(box.dims, t))))
        if math.isfinite(v) and v > best_v:
            best_t, best_v = t, v
    if best_t is None:
        best_t = [ax[0] for ax in axes]
    return tuple(d.to_external(float(ti)) for d, ti in zip(box.dims, best_t)), best_v


def test_grid_scan_matches_scalar_oracle():
    # A 5x5x5 table of values looked up elementwise; few distinct values, so
    # exact ties are common, and NaN and +-inf cells must be skipped.
    box = Box([(0.0, 4.0), BoxDim(1.0, 16.0, "log"), (0.0, 1.0)])
    rng = np.random.default_rng(7)
    pool = np.array([math.nan, math.inf, -math.inf, 0.0, 1.0, 2.0])
    tables = [pool[rng.integers(0, pool.size, size=(5, 5, 5))] for _ in range(40)]
    tables.append(np.full((5, 5, 5), math.nan))
    tables[-1][1, 2, 3] = math.inf
    for table in tables:
        def f(x, y, z):
            return table[np.rint(x).astype(int), np.rint(np.log2(y)).astype(int),
                         np.rint(4.0 * z).astype(int)]

        start, best = scalar_grid_scan(f, box, 5)
        scalar_probes = []

        def recorded(*x):
            if np.ndim(x[0]) == 0:
                scalar_probes.append(x)
            return f(*x)

        _, val = grid_then_refine(recorded, box, grid_per_dim=5, refine_budget=0)
        # Nelder-Mead's first vertex is the grid's best cell.
        assert scalar_probes[0] == start
        assert val >= best
    assert start == (0.0, 1.0, 0.0) and best == -math.inf


def test_grid_then_refine_returns_its_best_probe():
    # Every call is recorded: the grid scan (arrays) and each Nelder-Mead probe
    # (floats).  The objectives use only +, - and * so that a point scores the
    # same in both kinds of call, and the returned value must be the best
    # finite value seen, reproduced by f at the returned argument.
    def bumpy(x, y):
        return -((x * x - 1.0) ** 2) - (y - 0.3) * (y - 0.3) * (y + 0.7) + 0.25 * x * y

    def ridge(s):
        return np.where(s > 40.0, math.nan, -(s - 3.0) * (s - 3.0) * (s - 9.0) * 0.01)

    cases = [(bumpy, Box([(-2.0, 2.0), (-1.5, 1.5)])),
             (ridge, Box([BoxDim(0.1, 100.0, "log")])),
             (lambda x, y, z: -(x - 0.2) ** 2 - (y - z) ** 2 + x * z,
              Box([(0.0, 1.0), BoxDim(0.5, 8.0, "log"), (-1.0, 1.0)]))]
    for f, box in cases:
        for grid, budget in ((2, 5), (3, 40), (5, 400)):
            grid_vals, probe_vals = [], []

            def recorded(*x):
                v = f(*x)
                if np.ndim(x[0]) == 0:
                    probe_vals.append(float(v))
                else:
                    grid_vals.extend(np.broadcast_to(v, np.shape(x[0])).ravel().tolist())
                return v

            arg, val = grid_then_refine(recorded, box, grid_per_dim=grid, refine_budget=budget)
            assert len(grid_vals) == grid ** len(box.dims) and probe_vals
            assert len(probe_vals) <= budget + len(box.dims) + 1
            assert val == max(v for v in grid_vals + probe_vals if math.isfinite(v))
            assert float(f(*arg)) == val


def test_grid_then_refine_validation():
    with pytest.raises(ValueError, match="grid_per_dim"):
        grid_then_refine(lambda x: x, Box([(0.0, 1.0)]), grid_per_dim=0)


def test_golden_max():
    x, v = golden_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0)
    assert abs(x - 0.3) < 1e-6
    assert abs(v) < 1e-12
    # monotone: the probed endpoint wins
    x, v = golden_max(lambda t: t, 0.0, 5.0)
    assert x == 5.0 and v == 5.0
    x, v = golden_max(lambda t: -t, 0.0, 5.0)
    assert x == 0.0 and v == 0.0
    with pytest.raises(ValueError):
        golden_max(lambda t: t, 1.0, 0.0)


def test_bisect_feasible():
    t = bisect_feasible(lambda x: x <= 0.625, 0.0, 1.0, tol=1e-12)
    assert abs(t - 0.625) < 1e-9
    assert bisect_feasible(lambda x: True, 0.0, 3.0) == 3.0
    with pytest.raises(ValueError, match="false at the lower end"):
        bisect_feasible(lambda x: False, 0.0, 1.0)


def test_simplex_matches_vertex_oracle():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        c = rng.uniform(0.0, 2.0, size=n)
        constraints = [
            (rng.uniform(0.05, 2.0, size=n), float(rng.uniform(0.1, 5.0)))
            for _ in range(m)
        ]
        x, val = simplex_lp_max(c, constraints)
        want = lp_vertex_oracle(c, constraints)
        assert want is not None
        assert abs(val - want) < 1e-7
        assert np.all(x >= -1e-9)
        for a, b in constraints:
            assert float(np.dot(a, x)) <= b + 1e-7


def test_simplex_known_solution():
    # max x + y  s.t.  x + 2y <= 4, 3x + y <= 6  ->  (1.6, 1.2), value 2.8
    x, val = simplex_lp_max([1.0, 1.0], [([1.0, 2.0], 4.0), ([3.0, 1.0], 6.0)])
    assert abs(val - 2.8) < 1e-9
    assert np.allclose(x, [1.6, 1.2], atol=1e-9)


def test_simplex_edge_cases():
    # infinite bounds are ignored
    x, val = simplex_lp_max([1.0], [([1.0], math.inf), ([2.0], 3.0)])
    assert abs(val - 1.5) < 1e-9
    with pytest.raises(InfeasibleError):
        simplex_lp_max([1.0], [([1.0], -1.0)])
    with pytest.raises(UnboundedError):
        simplex_lp_max([1.0, 1.0], [([1.0, 0.0], 1.0)])
    with pytest.raises(ValueError, match="arity"):
        simplex_lp_max([1.0, 1.0], [([1.0], 1.0)])
    # no finite constraints at all: unbounded unless c <= 0
    with pytest.raises(UnboundedError):
        simplex_lp_max([1.0], [])
    x, val = simplex_lp_max([-1.0], [])
    assert val == 0.0
