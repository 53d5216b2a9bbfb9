"""One owner per input rule: every integer argument (node id, destination,
cut member, size, symbol, budget, resolution) is refused with a SchemaError
naming it when it is a bool, a non-integral number or out of range, and an
integral float or a numpy integer gives bit-identical results to the int.
Every number argument (capacity, rate, weight, power) is refused when it is
a bool (numpy's too) or a non-number, and a numpy real scalar gives
bit-identical results to the float."""

import math
import pickle

import numpy as np
import pytest

from relaybound import (
    Channel,
    Cut,
    DdfParams,
    DeterministicNetwork,
    DiamondConfig,
    DmInstance,
    GaussianNetwork,
    GraphicalNetwork,
    JointPmf,
    RateRegion,
    RegionConstraint,
    SchemaError,
    conferencing_dbc_region,
    constraint_repair,
    cutset_cut_rate,
    cutset_diamond,
    cutset_dm,
    cutset_estimate,
    ddf_diamond,
    ddf_multicast_dm,
    ddf_rates_general,
    ddf_region,
    ddf_unicast_dm,
    ddf_unicast_rate,
    diamond_sweep,
    graphical_mincut,
    nnc_diamond,
    node_penalty,
    penalty_rate,
    received_snr,
    region_max_weighted,
    region_membership,
    simplex_grid,
)
from relaybound.errors import as_number
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
     [True, "0.1", np.bool_(False)]),
    (lambda v: region_max_weighted(REGION, [1.0, v]), r"weights\[1\]", 0.5,
     [True, "1", None]),
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
