"""Checks for the grid + Nelder-Mead maximizer, line searches, and the LP."""

import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from relaybound import (
    BoxDim,
    InfeasibleError,
    SchemaError,
    TensorCapError,
    UnboundedError,
    grid_then_refine,
    simplex_lp_max,
)
from relaybound.info import CELL_CAP
from relaybound import optimize
from relaybound.diamond import _DDF_BOX
from relaybound.optimize import bisect_feasible, golden_max
from tests.neldermead import grid_then_refine_reference, run_logged


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
    # [0, inf] once reached np.linspace, and grid_then_refine gave ((nan,), -inf)
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="box bounds must be finite"):
            BoxDim(lo, hi)
    with pytest.raises(ValueError, match="box bounds must be finite"):
        grid_then_refine(lambda x: -x * x, [(0.0, math.inf)], 4, 10)
    d = BoxDim(math.exp(-2), math.exp(2), "log")
    assert abs(d.to_internal(1.0)) < 1e-15
    assert abs(d.to_external(0.0) - 1.0) < 1e-15


def test_grid_then_refine_quadratic():
    box = [(-4.0, 4.0), (-4.0, 4.0)]

    def f(x, y):
        return -((x - 1.3) ** 2) - 2.0 * (y + 0.7) ** 2

    arg, val = grid_then_refine(f, box, grid_per_dim=9, refine_budget=600)
    assert abs(arg[0] - 1.3) < 1e-3
    assert abs(arg[1] + 0.7) < 1e-3
    assert val <= 0.0
    assert val > -1e-6


def test_grid_then_refine_log_dimension():
    box = [BoxDim(1e-3, 1e3, "log")]
    arg, val = grid_then_refine(lambda s: -(np.log(s) - math.log(7.0)) ** 2, box)
    assert abs(arg[0] - 7.0) / 7.0 < 1e-3
    assert val > -1e-6


def test_grid_then_refine_deterministic_and_tie_breaking():
    box = [(0.0, 1.0), (0.0, 1.0)]
    runs = [grid_then_refine(lambda x, y: 5.0, box) for _ in range(2)]
    assert runs[0] == runs[1]
    # constant objective: lexicographically smallest probe wins
    assert runs[0][0] == (0.0, 0.0)
    assert runs[0][1] == 5.0


def test_grid_then_refine_handles_non_finite():
    box = [(0.0, 2.0)]

    def f(x):
        return np.where(x < 0.5, math.nan, np.where(x < 1.0, -math.inf, -((x - 1.5) ** 2)))

    arg, val = grid_then_refine(f, box, grid_per_dim=17, refine_budget=200)
    assert abs(arg[0] - 1.5) < 1e-3
    assert val > -1e-6


def test_grid_then_refine_never_below_grid():
    # a spiky objective the refinement step can easily wander away from
    box = [(0.0, 1.0)]

    def f(x):
        return np.where(abs(x - 2.0 / 7.0) < 1e-3, 1.0, np.sin(40.0 * x))

    grid_vals = [f(t) for t in np.linspace(0.0, 1.0, 8)]
    _, val = grid_then_refine(f, box, grid_per_dim=8, refine_budget=100)
    assert val >= max(grid_vals)


def scalar_grid_scan(f, box, grid_per_dim):
    """The grid phase as a scalar loop: probes in itertools.product order, the
    first strictly greater finite value wins, and the lower corner is the
    start when no probe is finite."""
    dims = [d if isinstance(d, BoxDim) else BoxDim(*d) for d in box]
    axes = [np.linspace(d.to_internal(d.lo), d.to_internal(d.hi), grid_per_dim)
            for d in dims]
    best_t, best_v = None, -math.inf
    for t in itertools.product(*axes):
        v = float(f(*(d.to_external(float(ti)) for d, ti in zip(dims, t))))
        if math.isfinite(v) and v > best_v:
            best_t, best_v = t, v
    if best_t is None:
        best_t = [ax[0] for ax in axes]
    return tuple(d.to_external(float(ti)) for d, ti in zip(dims, best_t)), best_v


def test_grid_scan_matches_scalar_oracle():
    # A 5x5x5 table of values looked up elementwise; few distinct values, so
    # exact ties are common, and NaN and +-inf cells must be skipped.
    box = [(0.0, 4.0), BoxDim(1.0, 16.0, "log"), (0.0, 1.0)]
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


def bumpy(x, y):
    return -((x * x - 1.0) ** 2) - (y - 0.3) * (y - 0.3) * (y + 0.7) + 0.25 * x * y


def ridge(s):
    return np.where(s > 40.0, math.nan, -(s - 3.0) * (s - 3.0) * (s - 9.0) * 0.01)


def test_grid_then_refine_returns_its_best_probe():
    # Every call is recorded: the grid scan (arrays) and each Nelder-Mead probe
    # (floats).  The objectives use only +, - and * so that a point scores the
    # same in both kinds of call, and the returned value must be the best
    # finite value seen, reproduced by f at the returned argument.
    cases = [(bumpy, [(-2.0, 2.0), (-1.5, 1.5)]),
             (ridge, [BoxDim(0.1, 100.0, "log")]),
             (lambda x, y, z: -(x - 0.2) ** 2 - (y - z) ** 2 + x * z,
              [(0.0, 1.0), BoxDim(0.5, 8.0, "log"), (-1.0, 1.0)])]
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
            assert len(grid_vals) == grid ** len(box) and probe_vals
            assert len(probe_vals) <= budget + len(box) + 1
            assert val == max(v for v in grid_vals + probe_vals if math.isfinite(v))
            assert float(f(*arg)) == val


def test_grid_then_refine_probes_on_python_floats():
    # The grid is one call on arrays; every Nelder-Mead probe passes Python
    # floats, on linear and log dimensions alike, even with integer bounds.
    box = [(0, 1), BoxDim(0.5, 8.0, "log"), (-2, 3)]
    kinds = []

    def f(x, y, z):
        kinds.append(tuple(type(v) for v in (x, y, z)))
        return -(x - 0.3) ** 2 - (np.log(y) - 1.0) ** 2 - (z + 4.0) ** 2

    arg, _ = grid_then_refine(f, box, grid_per_dim=4, refine_budget=200)
    assert kinds[0] == (np.ndarray,) * 3
    assert len(kinds) > 20 and set(kinds[1:]) == {(float,) * 3}
    assert arg[2] == -2.0 and type(arg[2]) is float


def test_nelder_mead_matches_the_reference_loop():
    # The loop on (value, vertex) pairs gives the argument, the value and
    # every probe, in order, of the loop on parallel vertex and value lists.
    def spiky(x):
        return np.where(abs(x - 2.0 / 7.0) < 1e-3, 1.0, np.sin(40.0 * x))

    def patchy(x):
        return np.where(x < 0.5, math.nan, np.where(x < 1.0, -math.inf, -((x - 1.5) ** 2)))

    # few distinct values, so vertices tie and the sort's order of ties shows
    table = np.random.default_rng(7).choice([0.0, 1.0, 2.0, math.nan], size=(5, 5, 5))

    def lookup(x, y, z):
        return table[np.rint(x).astype(int), np.rint(np.log2(y)).astype(int),
                     np.rint(4.0 * z).astype(int)]

    cases = [(lookup, [(0.0, 4.0), BoxDim(1.0, 16.0, "log"), (0.0, 1.0)], 5),
             (lambda x, y: -((x - 1.3) ** 2) - 2.0 * (y + 0.7) ** 2, [(-4.0, 4.0)] * 2, 9),
             (lambda s: -(np.log(s) - math.log(7.0)) ** 2, [BoxDim(1e-3, 1e3, "log")], 8),
             (lambda x, y: 5.0, [(0.0, 1.0)] * 2, 8),
             (patchy, [(0.0, 2.0)], 17),
             (spiky, [(0.0, 1.0)], 8),
             (bumpy, [(-2.0, 2.0), (-1.5, 1.5)], 3),
             (ridge, [BoxDim(0.1, 100.0, "log")], 5),
             (lambda x, y, z: -(x - 0.2) ** 2 - (y - z) ** 2 + x * z,
              [(0.0, 1.0), BoxDim(0.5, 8.0, "log"), (-1.0, 1.0)], 2)]
    for f, box, grid in cases:
        for budget in (0, 60, 1500, 6000):
            kw = dict(grid_per_dim=grid, refine_budget=budget)
            got = run_logged(grid_then_refine, f, box, **kw)
            assert got == run_logged(grid_then_refine_reference, f, box, **kw), (box, budget)


def test_the_centroid_sums_a_column_of_negative_zeros_to_positive_zero():
    # The centroid adds each column left to right from the int 0, as the
    # reference loop's sum does, so a column of -0.0 reads +0.0; a float-only
    # sum reads -0.0.  That shows only when the worst vertex holds +0.0 in
    # the column: then the reflection c + (c - w) is +0.0, not -0.0.  Here
    # the box's lower end -0.0 scores 1 and every other point -1, so the
    # shrinks halve the other vertex down to 2**-1074 and then to +0.0.
    def sign(x):
        return -np.copysign(1.0, x)

    kw = dict(grid_per_dim=1, refine_budget=4000)
    got = run_logged(grid_then_refine, sign, [(-0.0, 1.0)], **kw)
    assert got == run_logged(grid_then_refine_reference, sign, [(-0.0, 1.0)], **kw)
    assert got[0] == repr(((-0.0,), 1.0))
    # the shrink to +0.0 (call 3,224 after the grid's), then the reflection
    assert got[1][3224:3226] == [repr(((0.0,), np.float64(-1.0)))] * 2
    # -0.0 bounds elsewhere in the box, on other objectives
    def peak(x, y):
        return x + 2.0 * y

    def plus_inf_below(x, y):  # +inf is discarded, as NaN is
        return np.where(x < -0.6, math.inf, -(x + 0.1) ** 2 - (y + 0.3) ** 2)

    for f, box, grid in ((peak, [(-1.0, -0.0), (-2.0, -0.0)], 3),
                         (plus_inf_below, [(-1.0, -0.0), BoxDim(-0.0, 1.0)], 4)):
        for budget in (0, 60, 400):
            kw = dict(grid_per_dim=grid, refine_budget=budget)
            got = run_logged(grid_then_refine, f, box, **kw)
            assert got == run_logged(grid_then_refine_reference, f, box, **kw), (box, budget)


def test_scan_plans_are_read_only_and_an_objective_cannot_write_into_them():
    box = [(0, 1), BoxDim(0.5, 8.0, "log")]

    def f(x, y):
        return -(x - 0.3) ** 2 - (np.log(y) - 1.0) ** 2

    def vandal(x, y):
        if isinstance(x, np.ndarray):
            x[...] = 0.3
        return f(x, y)

    kw = dict(grid_per_dim=5, refine_budget=60)
    want = run_logged(grid_then_refine_reference, f, box, **kw)
    assert run_logged(grid_then_refine, f, box, **kw) == want
    with pytest.raises(ValueError, match="read-only"):
        grid_then_refine(vandal, box, **kw)
    assert run_logged(grid_then_refine, f, box, **kw) == want
    plan = optimize._kept_plan((BoxDim(0.0, 1.0), BoxDim(0.5, 8.0, "log")), 5, (1.0,))
    assert all(isinstance(a, np.ndarray) and not a.flags.writeable for a in plan.mesh)
    assert all(type(ax) is tuple and type(ax[0]) is float for ax in plan.axes)
    # the default DDF search's 16**3 grid is kept; 215**3 would take 238 MB
    assert optimize._kept_plan(tuple(_DDF_BOX), 16, (1.0,)) is not None


def test_equal_boxes_share_one_scan_plan():
    optimize._kept_plan.cache_clear()
    for box in ([(0, 1)], [BoxDim(0.0, 1.0)], [(0.0, 1)], ((0, 1.0, "linear"),)):
        grid_then_refine(lambda x: -x * x, box, grid_per_dim=4, refine_budget=10)
    info = optimize._kept_plan.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 3)
    # -0.0 == 0.0, but the grids differ in their last point's sign
    grid_then_refine(lambda x: x, [(-1.0, -0.0)], grid_per_dim=3, refine_budget=0)
    grid_then_refine(lambda x: x, [(-1.0, 0.0)], grid_per_dim=3, refine_budget=0)
    assert optimize._kept_plan.cache_info().currsize == 3


def test_scan_plans_past_the_byte_bound_are_not_kept_and_kept_ones_stay_within_it():
    # 88**2 is the largest two-dimensional grid kept; each box is its own key.
    maxsize = optimize._kept_plan.cache_info().maxsize
    bound = maxsize * optimize._PLAN_BYTES
    assert bound <= 4 << 20
    assert 8 * 2 * (88 * 88 + 4 * 88) <= optimize._PLAN_BYTES < 8 * 2 * (89 * 89 + 4 * 89)
    boxes = [[(0.0, 1.0 + i), (0.0, 1.0)] for i in range(maxsize + 8)]
    optimize._kept_plan.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for box in boxes:
            grid_then_refine(lambda x, y: 0.0, box, grid_per_dim=88, refine_budget=0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the meshes and axes, and under 2 KiB a plan of headers, tuples and keys
    assert grown <= bound + 2048 * maxsize
    refs = [weakref.ref(optimize._kept_plan(
        tuple(BoxDim(*d) for d in box), 88, (1.0, 1.0)).mesh[0]) for box in boxes[-maxsize:]]
    assert all(ref() is not None for ref in refs)
    # one more grid point per side is over the bound: built per call, not kept
    seen = []

    def f(x, y):
        if isinstance(x, np.ndarray):
            seen.append(x.flags.writeable)
        return -(x - 0.5) ** 2

    arg, _ = grid_then_refine(f, [(0.0, 1.0)] * 2, grid_per_dim=89, refine_budget=0)
    assert seen == [True] and arg[0] == 0.5
    assert optimize._kept_plan((BoxDim(0.0, 1.0),) * 2, 89, (1.0, 1.0)) is None


def test_grid_then_refine_refuses_a_grid_over_the_cell_cap():
    # 100000**3 points once failed only inside numpy, after it tried to
    # allocate 7.11 PiB; the cap is checked before any array or call of f.
    calls = []
    tracemalloc.start()
    try:
        for grid, ndim in ((100_000, 3), (216, 3), (3_163, 2)):
            with pytest.raises(TensorCapError, match=rf"^a grid of {grid}\*\*{ndim} = "):
                grid_then_refine(lambda *x: calls.append(x), [(0.0, 1.0)] * ndim,
                                 grid_per_dim=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and peak < 100_000
    with pytest.raises(TensorCapError) as info:
        grid_then_refine(lambda x, y, z: x, [(0.0, 1.0)] * 3, grid_per_dim=216)
    assert str(info.value) == ("a grid of 216**3 = 10077696 points is over the cap of "
                               f"{CELL_CAP}; lower grid_per_dim")


def test_grid_then_refine_validation():
    with pytest.raises(ValueError, match="grid_per_dim"):
        grid_then_refine(lambda x: x, [(0.0, 1.0)], grid_per_dim=0)


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
    # a NaN objective once gave the value nan, and an infinite one warned
    for c, message in (([math.nan, 1.0], r"objective\[0\]: must be finite, got nan"),
                       ([1.0, math.inf], r"objective\[1\]: must be finite, got inf")):
        with pytest.raises(SchemaError, match=message):
            simplex_lp_max(c, [([1.0, 1.0], 1.0)])
    # these three once raised "objective unbounded along variable 0"
    with pytest.raises(SchemaError, match=r"constraint 1 coefficients\[0\]: must be finite, got nan"):
        simplex_lp_max([1.0, 1.0], [([1.0, 1.0], 2.0), ([math.nan, 1.0], 1.0)])
    with pytest.raises(ValueError, match="constraint 0: bound must not be NaN"):
        simplex_lp_max([1.0, 1.0], [([1.0, 1.0], math.nan)])
    with pytest.raises(InfeasibleError):
        simplex_lp_max([1.0, 1.0], [([1.0, 1.0], -math.inf)])
