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
from relaybound.networks import cut_submatrix, network_to_dict


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


@pytest.mark.parametrize("s, n, field", [
    ([1, 2.5], 3, r"s\[1\]: expected an integer, got 2.5"),
    ([1, 2], 3.7, "n: expected an integer, got 3.7"),
    ([1, True], 3, r"s\[1\]: expected an integer, got True"),
])
def test_cut_rejects_non_integral_ints(s, n, field):
    with pytest.raises(SchemaError, match=field):
        Cut(s, n)


def test_cut_accepts_integral_numbers():
    c = Cut([1.0, np.int64(3)], 3.0)
    assert c.s == (1, 3) and c.n == 3
    assert type(c.n) is int and all(type(k) is int for k in c.s)


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


def test_deterministic_map_symbols_must_fit_int64():
    # 1e20 once wrapped to -2**63 in the int cast (with a numpy warning), and
    # out_size(2) read 2.
    for big in (1e20, 2.0**63):
        with pytest.raises(ValueError, match=r"y2 has symbols of 2\*\*63"):
            DeterministicNetwork([2, 2], {2: [0, big, 1, 0]})
    top = 2.0**63 - 1024  # the largest float below 2**63
    net = DeterministicNetwork([2, 2], {2: [0, top, 1, 0]})
    assert net.maps[2].tolist() == [[0, 2**63 - 1024], [1, 0]]
    assert net.out_size(2) == 2**63 - 1023


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


def test_gaussian_network_rejects_non_integral_ints():
    g = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="n: expected an integer, got 2.7"):
        GaussianNetwork(2.7, g, 1.0, [2])
    with pytest.raises(ValueError, match=r"destinations\[0\]: expected an integer, got 2.9"):
        GaussianNetwork(2, g, 1.0, [2.9])
    with pytest.raises(ValueError, match="n: expected an integer, got True"):
        GaussianNetwork(True, g, 1.0, [2])
    net = GaussianNetwork(np.int64(2), g, 1.0, [2.0])
    assert net.n == 2 and net.destinations == (2,)
    assert type(net.n) is int and type(net.destinations[0]) is int


def test_deterministic_network_rejects_non_integral_ints():
    table = np.zeros((2, 2), int)
    with pytest.raises(ValueError, match=r"alphabets\[0\]: expected an integer, got 2.9"):
        DeterministicNetwork([2.9, 2], {2: table}, [2])
    with pytest.raises(ValueError, match=r"maps\[2.5\] node: expected an integer"):
        DeterministicNetwork([2, 2], {2.5: table}, [2])
    with pytest.raises(ValueError, match=r"destinations\[0\]: expected an integer"):
        DeterministicNetwork([2, 2], {2: table}, ["2"])
    net = DeterministicNetwork([2.0, np.int64(2)], {2.0: table}, [2])
    assert net.alphabets == (2, 2) and list(net.maps) == [2]


def test_graphical_network_rejects_non_integral_ints():
    with pytest.raises(ValueError, match=r"edges\[0\].to: expected an integer, got 2.5"):
        GraphicalNetwork([(1, 2.5, 1.0)], [2])
    with pytest.raises(ValueError, match=r"edges\[1\].from: expected an integer"):
        GraphicalNetwork([(1, 2, 1.0), (None, 3, 1.0)], [3])
    with pytest.raises(ValueError, match=r"destinations\[0\]: expected an integer, got 2.5"):
        GraphicalNetwork([(1, 2, 1.0)], [2.5])
    with pytest.raises(ValueError, match="n: expected an integer, got 3.5"):
        GraphicalNetwork([(1, 2, 1.0)], [2], n=3.5)
    net = GraphicalNetwork([(1.0, np.int64(2), 1.0)], [2], n=3.0)
    assert net.edges == ((1, 2, 1.0),) and net.n == 3


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

    # integer fields: bools, non-numbers and non-integral numbers are refused
    graph = {"model": "graphical", "n": 3, "destinations": [3],
             "edges": [{"from": 1, "to": 2, "cap": 1.0}, {"from": 2, "to": 3, "cap": 1.0}]}
    det = {"model": "deterministic", "alphabets": [2, 2], "maps": {"y2": [0, 1, 0, 1]}}
    gauss = {"model": "gaussian", "n": 2, "power": 1.0,
             "gains": [[0, 1], [1, 0]], "destinations": [2]}
    for base, key, bad, where in (
        (graph, "n", 2.7, "n"), (graph, "n", [3], "n"), (graph, "n", True, "n"),
        (graph, "destinations", [2.9], r"destinations\[0\]"),
        (gauss, "n", 2.5, "n"), (gauss, "destinations", [2.5], r"destinations\[0\]"),
        (det, "alphabets", [2.9, 2], r"alphabets\[0\]"),
        (det, "destinations", ["2"], r"destinations\[0\]"),
    ):
        path.write_text(json.dumps({**base, key: bad}))
        with pytest.raises(SchemaError, match=where + ": expected an integer"):
            load_network(path)
    path.write_text(json.dumps({**graph, "edges": [{"from": True, "to": 3, "cap": 1.0}]}))
    with pytest.raises(SchemaError, match=r"edges\[0\].from: expected an integer"):
        load_network(path)
    # a null n, like a missing one, means "infer n from the edges"
    path.write_text(json.dumps({**graph, "n": None}))
    assert load_network(path).n == 3
    # an integral float is the integer it spells
    path.write_text(json.dumps({**gauss, "n": 2.0, "destinations": [2.0]}))
    assert load_network(path).destinations == (2,)

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


def test_deterministic_and_graphical_networks_reject_bad_inputs(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            DeterministicNetwork([2, 2], {2: [0, bad, 1, 1]})
        with pytest.raises(ValueError, match="finite"):
            GraphicalNetwork([(1, 2, bad), (2, 3, 1.0)], [3])
    with pytest.raises(ValueError, match="integral"):
        DeterministicNetwork([2, 2], {2: [0, 0.5, 1, 1]})
    assert DeterministicNetwork([2, 2], {2: [0.0, 1.0, 1.0, 0.0]}).maps[2].tolist() == [
        [0, 1], [1, 0]]
    path = tmp_path / "net.json"
    det = '"model": "deterministic", "alphabets": [2, 2], "maps": {"y2": [0, %s, 1, 1]}'
    for text in (det % "Infinity", det % "0.5", det % "{}",
                 '"model": "graphical", "destinations": [3], "edges": '
                 '[{"from": 1, "to": 2, "cap": NaN}, {"from": 2, "to": 3, "cap": 1}]'):
        path.write_text("{" + text + "}")
        with pytest.raises(SchemaError):
            load_network(path)


def test_network_to_dict_rejects_other_types():
    with pytest.raises(TypeError):
        network_to_dict(object())
