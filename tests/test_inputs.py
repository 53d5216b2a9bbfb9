"""One owner per input rule: every integer argument (node id, destination,
cut member, size, symbol, budget, resolution) is refused with a SchemaError
naming it when it is a bool, a non-integral number or out of range, and an
integral float or a numpy integer gives bit-identical results to the int.
Every number argument (capacity, rate, weight, power) is refused when it is
a bool (numpy's too) or a non-number, and a numpy real scalar gives
bit-identical results to the float."""

import math
import pickle
import re

import numpy as np
import pytest

from relaybound import (
    BoxDim,
    Channel,
    Cut,
    DdfParams,
    DeterministicNetwork,
    DiamondConfig,
    DmInstance,
    GaussianNetwork,
    GraphicalNetwork,
    InfeasibleError,
    JointPmf,
    RateRegion,
    RegionConstraint,
    SchemaError,
    binary_entropy,
    blackwell_region,
    conferencing_dbc_region,
    constraint_repair,
    cutset_cut_rate,
    cutset_diamond,
    cutset_dm,
    cutset_estimate,
    ddf_diamond,
    ddf_diamond_opt,
    ddf_multicast_dm,
    ddf_rates_general,
    ddf_region,
    ddf_unicast_dm,
    ddf_unicast_rate,
    diamond_sweep,
    graphical_mincut,
    nnc_diamond,
    nnc_diamond_opt,
    node_penalty,
    penalty_rate,
    received_snr,
    region_max_weighted,
    region_membership,
    simplex_grid,
    simplex_lp_max,
    ternary_entropy,
)
from relaybound.diamond import nnc_diamond_terms
from relaybound.errors import as_number, as_numbers
from relaybound.networks import enumerate_cuts
from tests.maxflow import maxflow_oracle


def _dm_parts():
    rng = np.random.default_rng(11)
    names = [("x1", 2), ("x2", 2), ("x3", 2), ("u2", 2), ("u3", 2)]
    p = rng.random((2,) * 5)
    pmf = JointPmf(names, p / p.sum())
    c = rng.random((2,) * 6)
    c /= c.sum(axis=(3, 4, 5), keepdims=True)
    channel = Channel(names[:3], [("y1", 2), ("y2", 2), ("y3", 2)], c)
    return pmf, channel


PMF, CHANNEL = _dm_parts()
INST = DmInstance.from_parts(PMF, CHANNEL, [2, 3])
GRAPH = GraphicalNetwork([(1, 2, 1.0), (2, 3, 1.0), (1, 3, 0.5)], [3])
_G = np.random.default_rng(12).uniform(0.1, 2.0, (3, 3))
np.fill_diagonal(_G, 0.0)
GNET = GaussianNetwork(3, _G, 10.0, [2, 3])

#: (call of one integer argument, that argument's name in the message, a
#: valid value of it, the values refused).  Each row was once truncated,
#: wrapped or passed on to a numpy or builtin error.
PROBES = [
    (lambda v: graphical_mincut(GRAPH, v), "dest", 3, [2.5]),
    (lambda v: cutset_estimate(GNET, v, budget=20), "dest", 3, [3.5]),
    (lambda v: ddf_multicast_dm(INST, [v]), r"dests\[0\]", 2, [2.5]),
    (lambda v: cutset_dm(PMF, CHANNEL, [v]), r"destinations\[0\]", 2, [2.5]),
    (lambda v: enumerate_cuts(4, [v], "unicast"), r"destinations\[0\]", 2, [2.5]),
    (lambda v: constraint_repair(INST, [1, v]), r"a_set\[1\]", 2, [2.5, True]),
    (lambda v: RateRegion([v, 3], []), r"dims\[0\]", 2, [2.5]),
    (lambda v: conferencing_dbc_region([0, v, 0], [0, 1, 1], 0.1, 0.2, 30),
     "y2_map", 1, [1.5, -1]),
    (lambda v: ddf_unicast_rate(GNET, v), "dest", 3, [3.5]),
    (lambda v: cutset_estimate(GNET, 3, budget=v), "budget", 3, [2.5]),
    (lambda v: simplex_grid(3, v), "resolution", 3, [2.5]),
    (lambda v: received_snr(GNET, v), "k", 2, [2.5]),
    (lambda v: node_penalty(GNET, v), "k", 2, [2.5]),
    (lambda v: maxflow_oracle(GRAPH, v), "dest", 3, [2.5]),
    (lambda v: ddf_unicast_dm(INST, v), "dest", 2, [2.5]),
    (lambda v: Channel([("x1", v)], [("y1", 2)], np.full(4, 0.5) if v else []),
     "variable 'x1'", 2, [0]),
    # an unchecked seed drew OS entropy (None) or raised numpy's TypeError, and
    # a negative one raised numpy's "expected non-negative integer"
    (lambda v: cutset_estimate(GNET, 3, budget=20, seed=v), "seed", 3, [1.5, None, True, -1]),
    # an output symbol is an integer of any size, as in y2_map above
    (lambda v: DeterministicNetwork([2, 2], {2: [0, v, 1, 0]}), r"maps\[2\]\[1\]", 1,
     [1.5, -1, True]),
]


@pytest.mark.parametrize("call, name, good, bad", PROBES,
                         ids=[f"{i}-{p[1]}" for i, p in enumerate(PROBES)])
def test_integer_arguments_have_one_owner(call, name, good, bad):
    for value in bad:
        with pytest.raises(SchemaError, match=name):
            call(value)
    want = pickle.dumps(call(good))
    for same in (float(good), np.int64(good)):
        assert pickle.dumps(call(same)) == want


def test_node_ranges_share_one_message():
    with pytest.raises(SchemaError, match=r"dest: 1 is outside 2\.\.3; a destination must lie"):
        graphical_mincut(GRAPH, 1)
    with pytest.raises(SchemaError, match=r"k: 4 is outside 1\.\.3; a node must lie in 1\.\.3"):
        received_snr(GNET, 4)
    with pytest.raises(SchemaError, match=r"destinations: 5 is outside 2\.\.4"):
        enumerate_cuts(4, [5], "unicast")


REGION = ddf_region(GNET)

#: (call of one number argument, that argument's name in the message, a
#: valid value of it that float32 holds exactly, the values refused).  The
#: first three rows once went through float(), which took bools and strings.
NUMBER_PROBES = [
    (lambda v: GraphicalNetwork([(1, 2, v), (2, 3, 1.0)], [3]), r"edges\[0\]\.cap", 1.5,
     [True, "1.5", np.bool_(True)]),
    (lambda v: region_membership(REGION, [v, 0.1]), r"rates\[0\]", 0.25,
     [True, "0.1", np.bool_(False), math.nan, math.inf, -math.inf]),
    (lambda v: region_max_weighted(REGION, [1.0, v]), r"weights\[1\]", 0.5,
     [True, "1", None, math.nan, math.inf, -math.inf]),
    (lambda v: as_number(v, "value"), "value", 2.5, [np.bool_(True), True, "2.5", None]),
    (lambda v: diamond_sweep([0.5], v, budget=60), "power", 10.0,
     [True, "10", 0.0, -1.0, math.nan, math.inf]),
    (lambda v: DiamondConfig.from_distance(0.5, v), "power", 10.0, [np.bool_(True), 0, math.inf]),
    (lambda v: DiamondConfig(1.0, 2.0, 3.0, 4.0).to_network(v), "power", 2.0, [0.0, math.nan]),
    (lambda v: GaussianNetwork(3, _G, [10.0, v, 10.0], [2, 3]), r"power\[1\]", 0.5,
     [0.0, -2.0, math.nan, math.inf]),
    (lambda v: GaussianNetwork(3, _G, v, [2, 3]), "power", 10.0,
     ["10", True, np.bool_(True), None, 0.0, math.nan]),
    (lambda v: GaussianNetwork(3, [[0, 1.5, 0.5], [v, 0, 2], [0.25, 1, 0]], 10.0, [2, 3]),
     r"gains\[1\]\[0\]", 2.0, ["1", True, np.bool_(True), None]),
    (lambda v: DiamondConfig(v, 2.0, 3.0, 4.0), "s21", 2.0, [True, "1", np.bool_(False), None]),
    (lambda v: DiamondConfig(1.0, 2.0, 3.0, v), "s43", 4.0, [True, "4", None]),
    # arrays of numbers: each entry through as_numbers, named by its index
    (lambda v: cutset_cut_rate(GNET, Cut([1], 3), [[v, 0, 0], [0, 2, 0], [0, 0, 2]]),
     r"k_cov\[0\]\[0\]", 2.0, ["2", True, np.bool_(True), None]),
    (lambda v: ddf_rates_general(GNET, np.diag(GNET.power), v), "sigma_sq", 1.0,
     ["2", True, np.bool_(True), None]),
    (lambda v: ddf_rates_general(GNET, np.diag(GNET.power), [1.0, v, 1.0]),
     r"sigma_sq\[1\]", 0.5, ["2", True, None]),
    # output symbols are integers (see PROBES), and one of any numeric type builds
    # the same network
    (lambda v: DeterministicNetwork([2, 2], {2: [0, v, 1, 0]}), r"maps\[2\]\[1\]", 1.0,
     ["1", True, np.bool_(True), None]),
    (lambda v: DeterministicNetwork([2, 2], {2: np.full((2, 2), v)}), r"maps\[2\]\[0\]\[0\]",
     1.0, [True, np.bool_(False), "1"]),
    # diamond and penalty scalars
    (lambda v: DdfParams(v, 1.0, 1.0), "rho", 0.5, [True, "0.5", np.bool_(False), None]),
    (lambda v: DdfParams(0.1, v, 1.0), "sigma2_sq", 1.0, ["1", True, None]),
    (lambda v: DdfParams(0.1, 1.0, v), "sigma3_sq", 2.0, ["2", np.bool_(True), None]),
    (lambda v: nnc_diamond(DiamondConfig(1.0, 2.0, 3.0, 4.0), v, 1.0), "sigma2_sq", 1.0,
     ["1", True, None]),
    (lambda v: nnc_diamond(DiamondConfig(1.0, 2.0, 3.0, 4.0), 1.0, v), "sigma3_sq", 0.5,
     ["0.5", np.bool_(True), None]),
    (lambda v: cutset_diamond(DiamondConfig(1.0, 2.0, 3.0, 4.0), v), "rho", 0.5,
     [True, "0.5", np.bool_(True), None]),
    (lambda v: penalty_rate(v), "snr", 2.0, [True, "2", np.bool_(False), None]),
    # a NaN bound once made every query misread the region
    (lambda v: region_membership(RateRegion([2], [RegionConstraint((1,), v)]), [1.0]),
     r"constraints\[0\]\.bound", 1.5, [math.nan, True, "1.5", None]),
    # scalars that once reached a comparison or numpy unchecked
    (lambda v: ternary_entropy(v, 0.25), "alpha", 0.5, ["0.5", True, np.bool_(False), None]),
    (lambda v: ternary_entropy(0.25, v), "beta", 0.5, ["0.5", True, None]),
    (lambda v: binary_entropy(v), r"^p:", 0.25, ["0.25", True, None]),
    (lambda v: DiamondConfig.from_distance(v, 10.0), r"^d:", 0.5, ["0.5", True, None]),
    (lambda v: blackwell_region(v, 0.0, 30), "c23", 0.5, ["0.1", True, None]),
    (lambda v: conferencing_dbc_region([0, 1, 0], [0, 1, 1], 0.5, v, 30), "c32", 0.25,
     ["0.25", np.bool_(True), None]),
]


@pytest.mark.parametrize("call, name, good, bad", NUMBER_PROBES,
                         ids=[f"{i}-{p[1]}" for i, p in enumerate(NUMBER_PROBES)])
def test_number_arguments_have_one_owner(call, name, good, bad):
    for value in bad:
        with pytest.raises(SchemaError, match=name):
            call(value)
    want = pickle.dumps(call(good))
    same = [np.float32(good), np.float64(good)]
    if float(good).is_integer():
        same += [int(good), np.int64(good)]
    for value in same:
        assert pickle.dumps(call(value)) == want


def test_probability_and_lp_arrays_are_read_as_given():
    # These once went through np.asarray(..., dtype=float) first, which took
    # strings and bools: ["0.5", "0.5"] built a pmf, [True, False] a point
    # mass, and the LP below answered 1.0.
    for probs, got in ((["0.5", "0.5"], "'0.5'"), ([True, False], "True"),
                       (np.array([True, False]), "True")):
        message = rf"^probs\[0\]: expected a number, got {re.escape(got)}$"
        with pytest.raises(SchemaError, match=message):
            JointPmf([("a", 2)], probs)
        with pytest.raises(SchemaError, match=message):
            Channel([("x", 1)], [("y", 2)], probs)
    with pytest.raises(SchemaError, match=r"^probs\[1\]\[0\]: expected a number, got '0.25'$"):
        JointPmf([("a", 2), ("b", 2)], [[0.25, 0.25], ["0.25", 0.25]])
    with pytest.raises(SchemaError, match=r"^objective\[0\]: expected a number, got '1'$"):
        simplex_lp_max(["1", True], [(["1", 1], 1.0)])
    with pytest.raises(SchemaError,
                       match=r"^constraint 0 coefficients\[1\]: expected a number, got True$"):
        simplex_lp_max([1, 2], [([1, True], 1.0)])
    # numeric arrays and lists of plain numbers are read as floats
    quarter = [np.array([0.25, 0.75]), np.array([0.25, 0.75], dtype=np.float32),
               [0.25, 0.75], (0.25, np.float64(0.75))]
    point = [np.array([1, 0]), np.array([1, 0], dtype=np.uint8), [1, 0.0]]
    for probs, want in [(p, [0.25, 0.75]) for p in quarter] + [(p, [1.0, 0.0]) for p in point]:
        for made in (JointPmf([("a", 2)], probs), Channel([("x", 1)], [("y", 2)], probs)):
            arr = made.probs
            assert arr.dtype == float and arr.ravel().tolist() == want
            assert not arr.flags.writeable
    for c, a in ((np.array([1, 2]), np.array([1, 1])), ([1, 2.0], (1, 1)), ([1, 2], [1.0, 1.0])):
        x, value = simplex_lp_max(c, [(a, 1.0)])
        assert x.tolist() == [0.0, 1.0] and value == 2.0


def test_nested_arrays_convert_and_name_a_bad_entry():
    arr = as_numbers([[1, 2], [3, 4]], "x")
    assert arr.dtype == float and arr.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    for bad, got in (("3", "'3'"), (True, "True"), (None, "None")):
        with pytest.raises(SchemaError, match=rf"^x\[1\]\[0\]: expected a number, got {got}$"):
            as_numbers([[1, 2], [bad, 4]], "x")


#: (call, the exact message) of the real-number rules through their former
#: sites: each has one owner in ``errors``, ``as_nonnegative`` (a finite real
#: >= 0) or ``as_positive`` (a finite real > 0).  The node count's owner,
#: ``as_node_count``, is pinned by the network and instance validation tests.
SCALAR_RULES = [
    (lambda: DiamondConfig(-1.0, 1, 1, 1), "s21: must be finite and nonnegative, got -1.0"),
    (lambda: DiamondConfig(1, 1, 1, math.inf), "s43: must be finite and nonnegative, got inf"),
    (lambda: GraphicalNetwork([(1, 2, 1.0), (2, 3, math.nan)], [3]),
     "edges[1].cap: must be finite and nonnegative, got nan"),
    (lambda: penalty_rate(-1.0), "snr: must be finite and nonnegative, got -1.0"),
    (lambda: penalty_rate(np.float32(math.inf)), "snr: must be finite and nonnegative, got inf"),
    (lambda: DdfParams(0.0, 0.0, 1.0), "sigma2_sq: must be finite and positive, got 0.0"),
    (lambda: DdfParams(0.0, 1.0, math.nan), "sigma3_sq: must be finite and positive, got nan"),
    (lambda: nnc_diamond_terms(DiamondConfig(1, 1, 1, 1), 1.0, math.inf),
     "sigma3_sq: must be finite and positive, got inf"),
    (lambda: GaussianNetwork(2, np.zeros((2, 2)), 0.0, [2]),
     "power: must be finite and positive, got 0.0"),
    (lambda: GaussianNetwork(2, np.zeros((2, 2)), [1.0, -2], [2]),
     "power[1]: must be finite and positive, got -2.0"),
    (lambda: DiamondConfig.from_distance(0.5, math.nan),
     "power: must be finite and positive, got nan"),
    (lambda: diamond_sweep([0.5], -1.0), "power: must be finite and positive, got -1.0"),
]


# The cutset search once raised numpy's LinAlgError on an n = 3 network with
# every off-diagonal gain ``gain``, whose received SNRs overflow, where the
# DDF evaluators refused it by the SNR's name; the network now refuses them.
SCALAR_RULES += [
    (lambda gain=gain, power=power: cutset_estimate(
        GaussianNetwork(3, np.full((3, 3), gain) - np.diag([gain] * 3), power, [3]), 3),
     "snr: must be finite and nonnegative, got inf")
    for gain, powers in ((1e154, (1.0,)), (1e160, (1e-3, 1.0, 1e6, 1e12)))
    for power in powers
]


@pytest.mark.parametrize("call, message", SCALAR_RULES,
                         ids=[f"{i}-{m.split(':')[0]}" for i, (_, m) in enumerate(SCALAR_RULES)])
def test_real_number_rules_have_one_owner_and_one_message(call, message):
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        call()


def test_lp_bounds_box_dims_and_region_coefficients_go_through_their_owners():
    # these once escaped as_number and as_int: a bound of True read as 1.0,
    # "1" raised a bare TypeError, BoxDim(True, 2.0) built and BoxDim("0", 1.0)
    # raised a TypeError, and the coefficient True passed the 0/1 test
    for bound, got in ((True, "True"), ("1", "'1'"), (None, "None")):
        message = f"^constraint 0 bound: expected a number, got {got}$"
        with pytest.raises(SchemaError, match=message):
            simplex_lp_max([1.0], [([1.0], bound)])
    for lo, got in ((True, "True"), ("0", "'0'"), (np.bool_(False), "np.False_|False")):
        with pytest.raises(SchemaError, match=f"^lo: expected a number, got ({got})$"):
            BoxDim(lo, 2.0)
    with pytest.raises(SchemaError, match="^hi: expected a number, got '1'$"):
        BoxDim(0.0, "1")
    with pytest.raises(SchemaError,
                       match=r"^constraints\[0\]\.coeff\[0\]: expected an integer, got True$"):
        RateRegion([2], [RegionConstraint((True,), 1.0)])
    with pytest.raises(SchemaError,
                       match=r"^constraints\[1\]\.coeff\[1\]: expected an integer, got 0\.5$"):
        RateRegion([2, 3], [RegionConstraint((1, 0), 1.0), RegionConstraint((1, 0.5), 1.0)])
    # the LP's own bound rules stand: NaN is refused, +inf skipped, -inf infeasible
    with pytest.raises(ValueError, match="^constraint 0: bound must not be NaN$"):
        simplex_lp_max([1.0], [([1.0], math.nan)])
    assert simplex_lp_max([1.0], [([1.0], math.inf), ([1.0], np.float64(2.0))])[1] == 2.0
    with pytest.raises(InfeasibleError):
        simplex_lp_max([1.0], [([1.0], -math.inf)])
    # integral and numpy values read as the plain ones
    assert BoxDim(np.int64(1), np.float32(2.0)) == BoxDim(1.0, 2.0)
    for one in (1.0, np.int64(1)):
        region = RateRegion([2], [RegionConstraint((one,), 1.5)])
        assert region.constraints == (RegionConstraint((1,), 1.5),)
        assert type(region.constraints[0].coeff[0]) is int
        assert region_max_weighted(region, [1.0])[1] == 1.5


def test_diamond_variances_and_snrs_must_be_finite():
    cfg = DiamondConfig.from_distance(0.5, 10.0)
    for bad in (math.nan, math.inf):
        # an infinite variance once made two DDF terms NaN, and min() skipped
        # them: 3.7338 bits, above the cutset value 3.6655
        with pytest.raises(ValueError, match="finite"):
            DdfParams(0.1, bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            DdfParams(0.1, 1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            nnc_diamond(cfg, bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            nnc_diamond(cfg, 1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            penalty_rate(bad)
    with pytest.raises(ValueError, match="rho"):
        DdfParams(math.nan, 1.0, 1.0)
    with pytest.raises(ValueError, match="rho"):
        cutset_diamond(cfg, math.nan)
    assert ddf_diamond(cfg, DdfParams(0.1, 1e300, 1.0)) <= cutset_diamond(cfg, 0.1)


def test_diamond_budgets_must_be_nonnegative():
    cfg = DiamondConfig.from_distance(0.5, 10.0)
    # a negative budget once reached budget ** (1 / dim) and raised a
    # TypeError from the complex grid side
    for call in (lambda: ddf_diamond_opt(cfg, budget=-5), lambda: nnc_diamond_opt(cfg, budget=-1),
                 lambda: diamond_sweep([0.5], 10.0, budget=-5)):
        with pytest.raises(ValueError, match="budget"):
            call()
    # budget 0 is the coarsest grid and no refinement; the sweep hands NNC
    # budget // 3, which is 0 for budgets 1 and 2
    assert diamond_sweep([0.5], 10.0, budget=2).rows[0].nnc == nnc_diamond_opt(cfg, budget=0)[0]


def test_entropies_refuse_nan():
    # NaN once passed the simplex test: 0.4644 bits and 0.0 bits
    for call in (lambda: ternary_entropy(math.nan, 0.2), lambda: ternary_entropy(0.2, math.nan),
                 lambda: binary_entropy(math.nan)):
        with pytest.raises(ValueError, match="simplex"):
            call()


@pytest.mark.parametrize("mode", [["unicast"], {"unicast": 1}], ids=["list", "dict"])
def test_a_mode_is_checked_before_it_keys_a_cache(mode):
    # a list or dict mode once raised TypeError from the cut program's cache key
    message = f"^unknown mode {re.escape(repr(mode))}$"
    with pytest.raises(ValueError, match=message):
        cutset_dm(PMF, CHANNEL, [2], mode=mode)
    with pytest.raises(ValueError, match=message):
        enumerate_cuts(3, [2], mode)
