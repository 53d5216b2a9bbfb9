"""Rate-region constraint containers and the three query operations."""

import itertools
import math

import numpy as np
import pytest

from perfbench import checks
from relaybound import (
    Cut,
    RateRegion,
    RegionConstraint,
    region_max_symmetric,
    region_max_weighted,
    region_membership,
)
from relaybound.errors import SchemaError
from relaybound.networks import enumerate_cuts
from relaybound.regions import region_from_cuts


def two_dest_region():
    # R2 <= 1.0, R3 <= 1.5, R2 + R3 <= 2.0
    return RateRegion(
        [2, 3],
        [
            RegionConstraint((1, 0), 1.0),
            RegionConstraint((0, 1), 1.5),
            RegionConstraint((1, 1), 2.0),
        ],
    )


def test_region_validation():
    with pytest.raises(ValueError, match="at least one"):
        RateRegion([], [])
    with pytest.raises(ValueError, match="arity"):
        RateRegion([2, 3], [RegionConstraint((1,), 1.0)])
    with pytest.raises(ValueError, match="0/1"):
        RateRegion([2], [RegionConstraint((2,), 1.0)])


def test_region_from_cuts_needs_one_bound_per_cut():
    # A bound list of the wrong length, a generator among them, is refused
    # rather than cut short: a dropped constraint would widen the region.
    cuts = enumerate_cuts(3, [2, 3], "broadcast")
    assert len(cuts) == 3
    for bounds, got in (([1.0], 1), ([], 0), ([1.0] * 4, 4), ((b for b in [1.0, 2.0]), 2),
                        (iter([0.5] * 5), 5)):
        with pytest.raises(SchemaError) as err:
            region_from_cuts([2, 3], cuts, bounds)
        assert str(err.value) == f"bounds: expected 3, one per cut, got {got}"
    # a generator of one bound per cut builds one constraint per cut, in order
    region = region_from_cuts([2, 3], cuts, (b for b in [1.0, 2.0, 3.0]))
    assert [c.cut for c in region.constraints] == cuts
    assert [c.bound for c in region.constraints] == [1.0, 2.0, 3.0]


def test_to_dicts_carries_cut_provenance():
    cut = Cut([1], 3)
    region = RateRegion([3], [RegionConstraint((1,), 0.7, cut)])
    docs = region.to_dicts()
    assert docs == [{"cut": [1], "coeff": [1], "bound": 0.7}]
    region2 = RateRegion([3], [RegionConstraint((1,), 0.7)])
    assert region2.to_dicts()[0]["cut"] is None


def test_membership_brute_force():
    region = two_dest_region()
    for r2, r3 in itertools.product(np.linspace(0, 2, 9), repeat=2):
        want = r2 <= 1.0 + 1e-9 and r3 <= 1.5 + 1e-9 and r2 + r3 <= 2.0 + 1e-9
        assert region_membership(region, [r2, r3]) == want
    # boundary slack
    assert region_membership(region, [1.0 + 5e-10, 0.0])
    assert not region_membership(region, [1.0 + 1e-8, 0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        region_membership(region, [-0.1, 0.0])
    with pytest.raises(ValueError, match="expected 2 rates"):
        region_membership(region, [0.1])


def test_max_weighted():
    region = two_dest_region()
    x, val = region_max_weighted(region, [1.0, 1.0])
    assert abs(val - 2.0) < 1e-9
    x, val = region_max_weighted(region, [1.0, 0.0])
    assert abs(val - 1.0) < 1e-9
    x, val = region_max_weighted(region, [0.0, 1.0])
    assert abs(val - 1.5) < 1e-9
    # weights favoring dim 3: optimum sits at (0.5, 1.5)
    x, val = region_max_weighted(region, [1.0, 3.0])
    assert abs(val - 5.0) < 1e-9
    assert np.allclose(x, [0.5, 1.5], atol=1e-9)
    with pytest.raises(ValueError, match="expected 2 weights"):
        region_max_weighted(region, [1.0])
    with pytest.raises(ValueError, match="no constraints"):
        region_max_weighted(RateRegion([2], []), [1.0])


def test_max_weighted_clamps_negative_bounds():
    # R2 <= -0.5 leaves not even the origin in the region: both queries refuse it
    region = RateRegion([2, 3], [RegionConstraint((1, 0), -0.5), RegionConstraint((0, 1), 1.0)])
    assert not region_membership(region, [0.0, 0.0])
    for query in (lambda: region_max_weighted(region, [1.0, 1.0]),
                  lambda: region_max_symmetric(region)):
        with pytest.raises(ValueError, match="region is empty"):
            query()
    # a bound below zero by less than the membership slack still clamps to 0
    region = RateRegion([2, 3], [RegionConstraint((1, 0), -1e-12), RegionConstraint((0, 1), 1.0)])
    x, val = region_max_weighted(region, [1.0, 1.0])
    assert val == 1.0 and list(x) == [0.0, 1.0]
    assert region_max_symmetric(region) == 0.0


def test_max_symmetric():
    region = two_dest_region()
    assert abs(region_max_symmetric(region) - 1.0) < 1e-8
    # sum constraint binds: R2 + R3 <= 1.2 -> t = 0.6
    region2 = RateRegion([2, 3], [RegionConstraint((1, 1), 1.2)])
    assert abs(region_max_symmetric(region2) - 0.6) < 1e-8
    # single destination, single cut
    region3 = RateRegion([2], [RegionConstraint((1,), 0.77)])
    assert abs(region_max_symmetric(region3) - 0.77) < 1e-8
    with pytest.raises(ValueError, match="no constraints"):
        region_max_symmetric(RateRegion([2], []))
    # all-infinite bounds leave the region unbounded
    region4 = RateRegion([2], [RegionConstraint((1,), math.inf)])
    assert region_max_symmetric(region4) == math.inf
    # a zero-coefficient constraint alone cannot bound the diagonal
    region5 = RateRegion([2], [RegionConstraint((0,), 1.0)])
    assert region_max_symmetric(region5) == math.inf
    # a bound below zero by less than the membership slack reads as zero...
    region6 = RateRegion([2, 3], [RegionConstraint((1, 0), -5e-10), region.constraints[1]])
    assert region_max_symmetric(region6) == 0.0
    # ...and one below the slack leaves no feasible point at all
    for coeff in ((1, 0), (0, 0)):
        bad = RateRegion([2, 3], [RegionConstraint(coeff, -2e-9), region.constraints[1]])
        with pytest.raises(ValueError, match="region is empty"):
            region_max_symmetric(bad)


def test_max_symmetric_matches_lp_on_random_regions():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ndim = int(rng.integers(1, 4))
        cons = []
        for _ in range(int(rng.integers(1, 5))):
            coeff = tuple(int(b) for b in rng.integers(0, 2, size=ndim))
            if not any(coeff):
                coeff = tuple(1 for _ in range(ndim))
            cons.append(RegionConstraint(coeff, float(rng.uniform(0.2, 3.0))))
        if rng.random() < 0.3:  # inside the slack below zero
            cons.append(RegionConstraint(cons[0].coeff, -float(rng.uniform(0.0, 1e-9))))
        region = RateRegion(range(2, 2 + ndim), cons)
        t = region_max_symmetric(region)
        want = min(max(c.bound, 0.0) / sum(c.coeff) for c in cons)
        assert t == want
    # Regions built from cuts equal the benchmark's reference formula exactly.
    for _ in range(20):
        n = int(rng.integers(3, 7))
        dests = sorted(int(d) for d in rng.choice(np.arange(2, n + 1), 2, replace=False))
        cuts = enumerate_cuts(n, dests, "broadcast")
        bounds = [float(b) for b in rng.uniform(-1e-9, 3.0, len(cuts))]
        region = region_from_cuts(dests, cuts, bounds)
        assert [c.cut for c in region.constraints] == cuts
        ref = checks.symmetric_max({c.s: b for c, b in zip(cuts, bounds)}, dests)
        assert region_max_symmetric(region) == ref
