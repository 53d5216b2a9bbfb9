"""One owner per input rule: every integer argument (node id, destination,
cut member, size, symbol, budget, resolution) is refused with a SchemaError
naming it when it is a bool, a non-integral number or out of range, and an
integral float or a numpy integer gives bit-identical results to the int."""

import pickle

import numpy as np
import pytest

from relaybound import (
    Channel,
    DmInstance,
    GaussianNetwork,
    GraphicalNetwork,
    JointPmf,
    RateRegion,
    SchemaError,
    conferencing_dbc_region,
    constraint_repair,
    cutset_dm,
    cutset_estimate,
    ddf_multicast_dm,
    ddf_unicast_dm,
    ddf_unicast_rate,
    graphical_mincut,
    maxflow_oracle,
    node_penalty,
    received_snr,
    simplex_grid,
)
from relaybound.networks import enumerate_cuts


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
