"""Network model validation, cut enumeration, and file round-trips."""

import json

import numpy as np
import pytest

from relaybound import (
    Cut,
    DeterministicNetwork,
    GaussianNetwork,
    GraphicalNetwork,
    SchemaError,
    enumerate_cuts,
    load_network,
    received_snr,
    save_network,
)
from relaybound.networks import cut_submatrix, gain_submatrix, network_to_dict


def diamond_gains(s21, s31, s42, s43, p):
    g = np.zeros((4, 4))
    g[1, 0] = (s21 / p) ** 0.5
    g[2, 0] = (s31 / p) ** 0.5
    g[3, 1] = (s42 / p) ** 0.5
    g[3, 2] = (s43 / p) ** 0.5
    return g


def test_cut_validation():
    c = Cut([3, 1], 4)
    assert c.s == (1, 3)
    assert c.complement == (2, 4)
    with pytest.raises(ValueError, match="source"):
        Cut([2, 3], 4)
    with pytest.raises(ValueError, match="outside"):
        Cut([1, 5], 4)
    with pytest.raises(ValueError, match="n >= 2"):
        Cut([1], 1)


def test_enumerate_cuts_unicast():
    cuts = enumerate_cuts(3, [3], "unicast")
    assert [c.s for c in cuts] == [(1,), (1, 2)]
    cuts = enumerate_cuts(4, [4], "unicast")
    assert [c.s for c in cuts] == [(1,), (1, 2), (1, 3), (1, 2, 3)]


def test_enumerate_cuts_broadcast():
    cuts = enumerate_cuts(3, [2, 3], "broadcast")
    assert [c.s for c in cuts] == [(1,), (1, 2), (1, 3)]
    # every odd mask except the full set separates some destination
    cuts = enumerate_cuts(4, [2, 3, 4], "broadcast")
    assert len(cuts) == 7


def test_enumerate_cuts_validation():
    with pytest.raises(ValueError, match="exactly one destination"):
        enumerate_cuts(3, [2, 3], "unicast")
    with pytest.raises(ValueError, match="unknown mode"):
        enumerate_cuts(3, [3], "multicast")
    with pytest.raises(ValueError, match="must lie in"):
        enumerate_cuts(3, [4], "unicast")
    with pytest.raises(ValueError, match="refusing to enumerate"):
        enumerate_cuts(30, [30], "unicast")


def test_gaussian_network_validation():
    g = diamond_gains(2.0, 1.0, 1.0, 2.0, 1.0)
    net = GaussianNetwork(4, g, 1.0, [4])
    assert net.common_power == 1.0
    assert net.power.shape == (4,)
    assert not net.gains.flags.writeable

    with pytest.raises(ValueError, match="diagonal"):
        GaussianNetwork(2, np.array([[1.0, 0.0], [1.0, 0.0]]), 1.0, [2])
    with pytest.raises(ValueError, match="must be 3x3"):
        GaussianNetwork(3, np.zeros((2, 2)), 1.0, [3])
    with pytest.raises(ValueError, match="positive"):
        GaussianNetwork(2, np.zeros((2, 2)), 0.0, [2])
    with pytest.raises(ValueError, match="destinations"):
        GaussianNetwork(2, np.zeros((2, 2)), 1.0, [])
    with pytest.raises(ValueError, match="destinations"):
        GaussianNetwork(2, np.zeros((2, 2)), 1.0, [1])
    with pytest.raises(ValueError, match="per-node power"):
        GaussianNetwork(2, np.zeros((2, 2)), [1.0, 2.0], [2]).common_power


def test_received_snr_manual():
    p = [2.0, 3.0, 1.0, 1.0]
    g = diamond_gains(4.0, 9.0, 1.0, 1.0, 1.0)
    net = GaussianNetwork(4, g, p, [4])
    # node 2 hears only node 1: g21^2 * P1 = 4 * 2
    assert abs(received_snr(net, 2) - 8.0) < 1e-12
    # node 4 hears nodes 2 and 3: 1 * 3 + 1 * 1
    assert abs(received_snr(net, 4) - 4.0) < 1e-12
    assert received_snr(net, 1) == 0.0
    with pytest.raises(ValueError):
        received_snr(net, 5)


def test_submatrices():
    g = np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 4.0], [5.0, 6.0, 0.0]])
    net = GaussianNetwork(3, g, 1.0, [3])
    sub = gain_submatrix(net, [2, 3], [1])
    assert sub.tolist() == [[3.0], [5.0]]
    cut = Cut([1, 2], 3)
    assert cut_submatrix(net, cut).tolist() == [[5.0, 6.0]]
    with pytest.raises(ValueError, match="cut is over"):
        cut_submatrix(net, Cut([1], 4))


def test_deterministic_network_validation():
    maps = {2: np.array([[0, 1], [1, 0]])}
    net = DeterministicNetwork([2, 2], maps, [2])
    assert net.out_size(2) == 2
    with pytest.raises(ValueError, match="missing output map"):
        DeterministicNetwork([2, 2, 2], {2: np.zeros((2, 2, 2), int)}, [3])
    with pytest.raises(ValueError, match="negative"):
        DeterministicNetwork([2, 2], {2: np.array([[0, -1], [0, 0]])}, [2])
    with pytest.raises(ValueError, match="outside"):
        DeterministicNetwork([2, 2], {5: np.zeros((2, 2), int), 2: np.zeros((2, 2), int)}, [2])
    with pytest.raises(ValueError, match="n >= 2"):
        DeterministicNetwork([2], {}, [])


def test_graphical_network_validation():
    net = GraphicalNetwork([(1, 2, 1.5), (2, 3, 2.0)], [3])
    assert net.n == 3
    assert net.edges == ((1, 2, 1.5), (2, 3, 2.0))
    net5 = GraphicalNetwork([(1, 2, 1.0)], [2], n=5)
    assert net5.n == 5
    with pytest.raises(ValueError, match="self-loop"):
        GraphicalNetwork([(2, 2, 1.0)], [2])
    with pytest.raises(ValueError, match="negative capacity"):
        GraphicalNetwork([(1, 2, -1.0)], [2])
    with pytest.raises(ValueError, match="smaller than"):
        GraphicalNetwork([(1, 4, 1.0)], [4], n=3)
    with pytest.raises(ValueError, match="exclude the source"):
        GraphicalNetwork([(1, 2, 1.0)], [1])
    with pytest.raises(ValueError, match="nonempty"):
        GraphicalNetwork([(1, 2, 1.0)], [])


def test_gaussian_round_trip(tmp_path):
    g = diamond_gains(2.0, 1.0, 0.5, 3.0, 2.0)
    net = GaussianNetwork(4, g, 2.0, [4])
    path = tmp_path / "net.json"
    save_network(net, path)
    doc = json.loads(path.read_text())
    assert doc["model"] == "gaussian"
    assert doc["power"] == 2.0  # uniform vector collapses to a scalar
    back = load_network(path)
    assert isinstance(back, GaussianNetwork)
    assert np.array_equal(back.gains, net.gains)
    assert np.array_equal(back.power, net.power)
    assert back.destinations == net.destinations

    net2 = GaussianNetwork(2, np.zeros((2, 2)), [1.0, 2.5], [2])
    save_network(net2, path)
    assert json.loads(path.read_text())["power"] == [1.0, 2.5]
    back2 = load_network(path)
    assert back2.power.tolist() == [1.0, 2.5]


def test_deterministic_round_trip(tmp_path):
    # node 3 is a pure sink (alphabet size 1)
    maps = {
        2: np.array([[0, 1], [1, 0]]).reshape(2, 2, 1),
        3: np.array([[0, 0], [1, 1]]).reshape(2, 2, 1),
    }
    net = DeterministicNetwork([2, 2, 1], maps, [3])
    path = tmp_path / "det.json"
    save_network(net, path)
    doc = json.loads(path.read_text())
    assert doc["maps"]["y2"] == [0, 1, 1, 0]
    back = load_network(path)
    assert isinstance(back, DeterministicNetwork)
    assert back.alphabets == (2, 2, 1)
    assert np.array_equal(back.maps[2], net.maps[2])
    assert back.destinations == (3,)


def test_graphical_round_trip(tmp_path):
    net = GraphicalNetwork([(1, 2, 1.0), (1, 3, 2.0), (2, 4, 1.0), (3, 4, 2.0)], [4])
    path = tmp_path / "graph.json"
    save_network(net, path)
    back = load_network(path)
    assert isinstance(back, GraphicalNetwork)
    assert back.edges == net.edges
    assert back.n == 4
    assert back.destinations == (4,)


def test_schema_errors(tmp_path):
    path = tmp_path / "bad.json"

    path.write_text("not json")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_network(path)

    path.write_text("[1, 2]")
    with pytest.raises(SchemaError, match="JSON object"):
        load_network(path)

    path.write_text(json.dumps({"n": 2}))
    with pytest.raises(SchemaError, match="model: missing"):
        load_network(path)

    path.write_text(json.dumps({"model": "quantum"}))
    with pytest.raises(SchemaError, match="unknown model"):
        load_network(path)

    doc = {"model": "gaussian", "n": 2, "power": 1.0,
           "gains": [[0, 1], [1, "x"]], "destinations": [2]}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"gains\[1\]\[1\]"):
        load_network(path)

    doc["gains"] = [[0, 1], [1, 0.5]]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="diagonal"):
        load_network(path)

    doc["gains"] = [[0, 1]]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="expected 2 rows"):
        load_network(path)

    doc = {"model": "gaussian", "n": 2, "power": "high",
           "gains": [[0, 1], [1, 0]], "destinations": [2]}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="power"):
        load_network(path)

    doc = {"model": "deterministic", "alphabets": [2, 2],
           "maps": {"z2": [0, 0, 0, 0]}}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="maps.z2"):
        load_network(path)

    doc = {"model": "graphical", "edges": [{"from": 1, "to": 2}],
           "destinations": [2]}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"edges\[0\].cap"):
        load_network(path)

    # constructor errors surface as schema errors with the original message
    doc = {"model": "gaussian", "n": 2, "power": -1.0,
           "gains": [[0, 1], [1, 0]], "destinations": [2]}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="positive"):
        load_network(path)


def test_gaussian_network_rejects_non_finite_inputs(tmp_path):
    g = np.array([[0.0, 1.0], [2.0, 0.0]])
    for bad in (np.nan, np.inf, -np.inf):
        gains = g.copy()
        gains[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            GaussianNetwork(2, gains, 1.0, [2])
        with pytest.raises(ValueError, match="finite"):
            GaussianNetwork(2, g, bad, [2])
        with pytest.raises(ValueError, match="finite"):
            GaussianNetwork(2, g, [1.0, bad], [2])
    # Python's json reads NaN and Infinity literals; the loader rejects them
    path = tmp_path / "net.json"
    for text in ('"gains": [[0, 1], [NaN, 0]], "power": 1',
                 '"gains": [[0, 1], [1, 0]], "power": Infinity'):
        path.write_text('{"model": "gaussian", "n": 2, "destinations": [2], ' + text + "}")
        with pytest.raises(SchemaError, match="finite"):
            load_network(path)


def test_network_to_dict_rejects_other_types():
    with pytest.raises(TypeError):
        network_to_dict(object())
