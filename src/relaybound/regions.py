"""Achievable-rate regions as intersections of per-cut halfspaces.

A region lives in the orthant indexed by destination nodes; every constraint
bounds the sum of rates over the destinations on the far side of some cut.
The largest symmetric rate has the closed form min over constraints of
max(b, 0) / |c|, where |c| counts the constraint's destinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError, as_int, as_number, as_numbers
from .networks import Cut
# bisect_feasible is unused here; the benchmark's tracer wraps it by this name.
from .optimize import bisect_feasible, simplex_lp_max  # noqa: F401

MEMBERSHIP_SLACK = 1e-9


@dataclass(frozen=True)
class RegionConstraint:
    """sum of R_d over dims with coeff 1 is at most bound; cut is provenance."""

    coeff: tuple[int, ...]
    bound: float
    cut: Cut | None = None


@dataclass(frozen=True)
class RateRegion:
    dims: tuple[int, ...]
    constraints: tuple[RegionConstraint, ...]

    def __init__(self, dims: Sequence[int], constraints: Sequence[RegionConstraint]):
        dims = tuple(as_int(d, f"dims[{i}]") for i, d in enumerate(dims))
        if not dims:
            raise ValueError("a region needs at least one rate dimension")
        constraints = list(constraints)
        for i, c in enumerate(constraints):
            if math.isnan(as_number(c.bound, f"constraints[{i}].bound")):
                raise SchemaError(f"constraints[{i}].bound: a bound must not be NaN")
            if len(c.coeff) != len(dims):
                raise ValueError(
                    f"constraint arity {len(c.coeff)} != {len(dims)} dimensions"
                )
            if set(map(type, c.coeff)) != {int}:
                coeff = tuple(as_int(x, f"constraints[{i}].coeff[{j}]")
                              for j, x in enumerate(c.coeff))
                constraints[i] = c = RegionConstraint(coeff, c.bound, c.cut)
            if not set(c.coeff) <= {0, 1}:
                raise ValueError(f"coefficients must be 0/1, got {c.coeff}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "constraints", tuple(constraints))

    def to_dicts(self) -> list[dict]:
        return [
            {
                "cut": list(c.cut.s) if c.cut is not None else None,
                "coeff": list(c.coeff),
                "bound": c.bound,
            }
            for c in self.constraints
        ]


def region_from_cuts(
    dims: Sequence[int], cuts: Sequence[Cut], bounds: Iterable[float]
) -> RateRegion:
    """One constraint per cut, in cut order: the destinations on the cut's far
    side share that cut's bound, floored at zero."""
    constraints = []
    for i, (cut, bound) in enumerate(zip(cuts, bounds)):
        far = set(cut.complement)
        coeff = tuple(1 if d in far else 0 for d in dims)
        if type(bound) is not float:
            bound = as_number(bound, f"bounds[{i}]")
        bound = max(bound, 0.0)
        constraints.append(RegionConstraint(coeff, bound, cut))
    return RateRegion(dims, constraints)


def region_membership(region: RateRegion, rates: Sequence[float]) -> bool:
    """True when the rate tuple satisfies every constraint within 1e-9 slack."""
    rates = as_numbers(np.fromiter(rates, dtype=object), "rates").tolist()
    if len(rates) != len(region.dims):
        raise ValueError(f"expected {len(region.dims)} rates, got {len(rates)}")
    if any(r < 0 for r in rates):
        raise ValueError(f"rates must be nonnegative, got {rates}")
    for c in region.constraints:
        total = sum(r for r, m in zip(rates, c.coeff) if m)
        if total > c.bound + MEMBERSHIP_SLACK:
            return False
    return True


def _clamped(region: RateRegion) -> list[tuple[tuple[int, ...], float]]:
    """(coeff, max(bound, 0)) of every constraint.  A region with no
    constraints, or with a bound below -MEMBERSHIP_SLACK (so that not even
    the origin is a member), raises."""
    if not region.constraints:
        raise ValueError("region has no constraints")
    if any(c.bound < -MEMBERSHIP_SLACK for c in region.constraints):
        raise ValueError("region is empty: a constraint bound is negative")
    return [(c.coeff, max(c.bound, 0.0)) for c in region.constraints]


def region_max_weighted(
    region: RateRegion, weights: Sequence[float]
) -> tuple[np.ndarray, float]:
    """Maximize sum_d w_d R_d over the region via the simplex LP."""
    weights = as_numbers(np.fromiter(weights, dtype=object), "weights")
    if len(weights) != len(region.dims):
        raise ValueError(f"expected {len(region.dims)} weights, got {len(weights)}")
    return simplex_lp_max(weights, _clamped(region))


def region_max_symmetric(region: RateRegion) -> float:
    """Largest t with (t, ..., t) in the region: min over constraints of
    max(b, 0) / |c|, or inf when no constraint bounds a rate."""
    return min((b / sum(c) for c, b in _clamped(region) if any(c)), default=math.inf)
