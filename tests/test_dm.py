"""Discrete-memoryless bounds: independent re-evaluation and exactness checks."""

import itertools
import json
import math

import numpy as np
import pytest

from relaybound import (
    Channel,
    DmInstance,
    DeterministicNetwork,
    GraphicalNetwork,
    JointPmf,
    SchemaError,
    TensorCapError,
    blackwell_region,
    conferencing_dbc_region,
    constraint_repair,
    constraint_values_j,
    cutset_dm,
    ddf_broadcast_region_dm,
    ddf_multicast_dm,
    ddf_unicast_dm,
    det_dm_instance,
    deterministic_inner,
    entropy,
    graphical_mincut,
    graphical_to_deterministic,
    load_channel,
    load_pmf,
    marton_identity_check,
    mutual_info,
    save_pmf,
    simplex_grid,
)
from relaybound.dm import _pareto_frontier, pmf_to_dict
from tests.bitpipe import bit_pipe_oracle
from tests.maxflow import maxflow_oracle


def naive_mi(pmf, a, b, given):
    """Mutual information with the same subset-overlap conventions as the
    evaluator: the conditioning set absorbs duplicates, empty sets give 0."""
    a = set(a) - set(given)
    b = set(b) - set(given)
    if not a or not b:
        return 0.0
    return mutual_info(pmf, a, b, given)


def naive_cut_value(inst, cut_s, dest):
    """One cut's bound assembled from scratch: the cut mutual information
    minus one description price and one correlation price per far-side node."""
    pmf = inst.joint
    q = set(inst.q_vars)
    n = inst.n
    near = set(cut_s)
    far = [k for k in range(1, n + 1) if k not in near]
    xs = lambda nodes: {f"x{k}" for k in nodes}
    us = lambda nodes: {f"u{k}" for k in nodes if k >= 2}
    ys = lambda nodes: {f"y{k}" for k in nodes}
    b = us(far) | (ys([dest]) if dest is not None else set())
    total = naive_mi(pmf, xs(near), b, xs(far) | q)
    all_x = xs(range(1, n + 1))
    for k in far:
        earlier = [j for j in far if j < k]
        total -= naive_mi(pmf, us([k]), us(earlier) | all_x, xs([k]) | ys([k]) | q)
        total -= naive_mi(pmf, xs([k]), xs(earlier), q)
    return total


def random_instance(rng, n, dests, with_q=False):
    nq = int(rng.integers(2, 4)) if with_q else 1
    in_vars = [("q", nq)] if with_q else []
    in_vars += [(f"x{k}", int(rng.integers(2, 4))) for k in range(1, n + 1)]
    in_vars += [(f"u{k}", int(rng.integers(2, 4))) for k in range(2, n + 1)]
    p = rng.random(tuple(s for _, s in in_vars))
    p /= p.sum()
    pin = JointPmf(in_vars, p)
    x_sizes = [s for name, s in in_vars if name.startswith("x")]
    y_vars = [(f"y{k}", int(rng.integers(2, 4))) for k in range(1, n + 1)]
    c = rng.random(tuple(x_sizes) + tuple(s for _, s in y_vars))
    c /= c.sum(axis=tuple(range(n, 2 * n)), keepdims=True)
    chan = Channel([(f"x{k}", s) for k, s in enumerate(x_sizes, 1)], y_vars, c)
    return DmInstance.from_parts(pin, chan, dests)


def test_channel_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        Channel([("x1", 2)], [("y2", 2)], np.array([[0.6, 0.6], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="duplicate"):
        Channel([("x1", 2)], [("x1", 2)], np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="output"):
        Channel([("x1", 2)], [], np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        Channel([("x1", 2)], [("y2", 2)], np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="finite"):
        Channel([("x1", 2)], [("y2", 2)], np.array([[math.nan, 1.0], [0.5, 0.5]]))
    assert not Channel([("x1", 2)], [("y2", 2)], np.eye(2)).probs.flags.writeable


def test_from_parts_validation():
    pin = JointPmf([("x1", 2)], np.array([0.5, 0.5]))
    chan = Channel([("x1", 2)], [("y2", 2)], np.eye(2))
    with pytest.raises(ValueError, match="channel outputs"):
        DmInstance.from_parts(JointPmf([("y2", 2)], np.array([0.5, 0.5])), chan, [2])
    with pytest.raises(ValueError, match="u1"):
        DmInstance.from_parts(
            JointPmf([("x1", 2), ("u1", 2)], np.full((2, 2), 0.25)), chan, [2]
        )
    with pytest.raises(ValueError, match="unrecognized"):
        DmInstance.from_parts(JointPmf([("w1", 2)], np.array([0.5, 0.5])), chan, [2])
    with pytest.raises(ValueError, match="conflicting sizes"):
        DmInstance.from_parts(JointPmf([("x1", 3)], np.full(3, 1 / 3)), chan, [2])
    with pytest.raises(ValueError, match="at least two nodes"):
        DmInstance.from_parts(
            pin, Channel([("x1", 2)], [("y1", 2)], np.eye(2)), []
        )
    with pytest.raises(ValueError, match="channel inputs"):
        DmInstance.from_parts(pin, Channel([("u2", 2)], [("y2", 2)], np.eye(2)), [2])
    inst = DmInstance.from_parts(pin, chan, [2])
    assert inst.n == 2
    assert inst.q_vars == ("q",)
    assert inst.joint.names == ("q", "x1", "x2", "u2", "y1", "y2")


def test_dm_instance_validation():
    joint = JointPmf(
        [("q", 1), ("x1", 2), ("x2", 1), ("u2", 1), ("y1", 1), ("y2", 2)],
        np.eye(2).reshape(1, 2, 1, 1, 1, 2) / 2,
    )
    inst = DmInstance(joint, 2, [2])
    assert inst.destinations == (2,)
    with pytest.raises(ValueError, match="canonical"):
        DmInstance(JointPmf([("x1", 2)], np.array([0.5, 0.5])), 2, [2])
    with pytest.raises(ValueError, match="destinations"):
        DmInstance(joint, 2, [3])
    with pytest.raises(ValueError, match="unknown variable"):
        DmInstance(joint, 2, [2], ("q", "zz"))


def test_cut_terms_match_naive_evaluator():
    rng = np.random.default_rng(40)
    for trial in range(8):
        n = int(rng.integers(2, 5))
        inst = random_instance(rng, n, [n], with_q=bool(trial % 2))
        got_min, terms = ddf_unicast_dm(inst, n)
        for t in terms:
            want = naive_cut_value(inst, t.cut.s, n)
            assert abs(t.total - want) < 1e-12
        assert got_min == min(t.total for t in terms)
        jvals = constraint_values_j(inst)
        for cut_s, j in jvals.items():
            assert abs(j - naive_cut_value(inst, cut_s, None)) < 1e-12


def test_evaluators_sharing_a_joint_match_fresh_instances():
    # A shared joint reduces later marginals from what earlier evaluators
    # cached, so its last bits may differ from a fresh joint's; the same
    # call sequence on a fresh copy gives the same bits.
    rng = np.random.default_rng(41)
    for trial in range(4):
        n = int(rng.integers(3, 5))
        inst = random_instance(rng, n, [n], with_q=bool(trial % 2))

        def fresh():
            return DmInstance(
                JointPmf(inst.joint.variables, inst.joint.probs), n, [n], inst.q_vars
            )

        ddf_unicast_dm(inst, n)
        shared = constraint_values_j(inst)
        alone = constraint_values_j(fresh())
        assert list(shared) == list(alone)
        for cut_s, j in shared.items():
            assert abs(j - alone[cut_s]) <= 1e-12
        again = fresh()
        ddf_unicast_dm(again, n)
        assert [j.hex() for j in constraint_values_j(again).values()] == [
            j.hex() for j in shared.values()
        ]


def test_cascade_of_perfect_bit_pipes():
    # x1 -> y2, x2 -> y3 noiselessly; u2 repeats y2; one bit end to end
    in_vars = [("x1", 2), ("x2", 2), ("u2", 2)]
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            p[a, b, a] = 0.25  # u2 = x1 (= y2)
    pin = JointPmf(in_vars, p)
    c = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for b in range(2):
            c[a, b, a, b] = 1.0  # y2 = x1, y3 = x2
    chan = Channel([("x1", 2), ("x2", 2)], [("y2", 2), ("y3", 2)], c)
    inst = DmInstance.from_parts(pin, chan, [3])
    rate, terms = ddf_unicast_dm(inst, 3)
    assert rate == 1.0
    assert len(terms) == 2


def test_two_node_reduction_to_channel_capacity():
    # with no relays, the bound collapses to I(x1; y2) whatever u2 is
    rng = np.random.default_rng(41)
    for _ in range(10):
        in_vars = [("x1", 3), ("u2", int(rng.integers(1, 4)))]
        p = rng.random((3, in_vars[1][1]))
        p /= p.sum()
        pin = JointPmf(in_vars, p)
        c = rng.random((3, 3))
        c /= c.sum(axis=1, keepdims=True)
        chan = Channel([("x1", 3)], [("y2", 3)], c)
        inst = DmInstance.from_parts(pin, chan, [2])
        rate, _ = ddf_unicast_dm(inst, 2)
        want = naive_mi(inst.joint, {"x1"}, {"y2"}, {"q"})
        assert abs(rate - want) < 1e-12


def test_multicast_is_worst_unicast():
    rng = np.random.default_rng(42)
    inst = random_instance(rng, 3, [2, 3])
    r2, _ = ddf_unicast_dm(inst, 2)
    r3, _ = ddf_unicast_dm(inst, 3)
    assert ddf_multicast_dm(inst, [2, 3]) == min(r2, r3)
    assert ddf_multicast_dm(inst, [2]) == r2
    with pytest.raises(ValueError, match="destination"):
        ddf_multicast_dm(inst, [])
    with pytest.raises(ValueError, match="destination"):
        ddf_unicast_dm(inst, 1)


def test_broadcast_region_clamps_j():
    rng = np.random.default_rng(43)
    inst = random_instance(rng, 3, [2, 3])
    region = ddf_broadcast_region_dm(inst)
    jvals = constraint_values_j(inst)
    assert region.dims == (2, 3)
    for c in region.constraints:
        assert c.bound == max(jvals[c.cut.s], 0.0)
        far = set(c.cut.complement)
        assert c.coeff == tuple(1 if d in far else 0 for d in (2, 3))


def test_cutset_dm_on_noiseless_channel():
    # deterministic channel: the cut MI is exactly H(Y(S^c) | X(S^c))
    rng = np.random.default_rng(44)
    p = rng.random((2, 2, 2))
    p /= p.sum()
    pin = JointPmf([("x1", 2), ("x2", 2), ("x3", 2)], p)
    c = np.zeros((2, 2, 2, 2, 2))
    for a in range(2):
        for b in range(2):
            for d in range(2):
                c[a, b, d, a ^ b, b ^ d] = 1.0  # y2 = x1 xor x2, y3 = x2 xor x3
    chan = Channel(
        [("x1", 2), ("x2", 2), ("x3", 2)], [("y2", 2), ("y3", 2)], c
    )
    got = cutset_dm(pin, chan, [3], mode="unicast")
    inst = DmInstance.from_parts(pin, chan, [3])
    want = min(
        entropy(inst.joint, {"y2", "y3"}, {"x2", "x3", "q"}),
        entropy(inst.joint, {"y3"}, {"x3", "q"}),
    )
    assert abs(got - want) < 1e-12
    region = cutset_dm(pin, chan, [2, 3], mode="broadcast")
    assert region.dims == (2, 3)
    with pytest.raises(ValueError, match="exactly one"):
        cutset_dm(pin, chan, [2, 3], mode="unicast")
    with pytest.raises(ValueError, match="unknown mode"):
        cutset_dm(pin, chan, [3], mode="region")


def test_marton_identity_on_random_broadcast():
    rng = np.random.default_rng(45)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        nx = int(rng.integers(2, 5))
        u_sizes = [int(rng.integers(1, 4)) for _ in range(n - 1)]
        y_sizes = [int(rng.integers(2, 4)) for _ in range(n - 1)]
        in_vars = [("x1", nx)] + [
            (f"u{k}", s) for k, s in zip(range(2, n + 1), u_sizes)
        ]
        p = rng.random(tuple(s for _, s in in_vars))
        p /= p.sum()
        c = rng.random((nx,) + tuple(y_sizes))
        c /= c.sum(axis=tuple(range(1, n)), keepdims=True)
        chan = Channel(
            [("x1", nx)],
            [(f"y{k}", s) for k, s in zip(range(2, n + 1), y_sizes)],
            c,
        )
        inst = DmInstance.from_parts(JointPmf(in_vars, p), chan, range(2, n + 1))
        lhs, rhs, delta = marton_identity_check(inst)
        assert abs(delta) <= 1e-12
        assert abs(lhs - rhs) <= 1e-12


def test_marton_guards():
    rng = np.random.default_rng(46)
    # a relay that transmits
    inst = random_instance(rng, 2, [2])
    with pytest.raises(ValueError, match="node 2 transmits"):
        marton_identity_check(inst)

    # descriptions leaking into an output beyond x1: set y2 = u2 with
    # u2 = x1 xor a coin, built directly as a canonical joint
    probs = np.zeros((1, 2, 1, 2, 1, 2))
    for a in range(2):
        for flip, w in ((0, 0.35), (1, 0.15)):
            u = a ^ flip
            probs[0, a, 0, u, 0, u] = w
    joint = JointPmf(
        [("q", 1), ("x1", 2), ("x2", 1), ("u2", 2), ("y1", 1), ("y2", 2)], probs
    )
    with pytest.raises(ValueError, match="leak"):
        marton_identity_check(DmInstance(joint, 2, [2]))

    # node 1 receiving
    probs = np.zeros((1, 2, 1, 2, 2, 2))
    for a in range(2):
        for u in range(2):
            probs[0, a, 0, u, a, u] = 0.25
    joint = JointPmf(
        [("q", 1), ("x1", 2), ("x2", 1), ("u2", 2), ("y1", 2), ("y2", 2)], probs
    )
    with pytest.raises(ValueError, match="node 1 receives"):
        marton_identity_check(DmInstance(joint, 2, [2]))


def repair_test_instance(rng):
    """x1 independent of a correlated (x2, x3) pair, constant descriptions:
    the cut at {1} prices the relay correlation with no offsetting rate."""
    rho = float(rng.uniform(0.4, 0.9))
    p23 = np.array([[rho, (1 - rho) / 2], [(1 - rho) / 2, 0.0]])
    p23 /= p23.sum()
    p1 = rng.dirichlet([2.0, 2.0])
    pin = JointPmf(
        [("x1", 2), ("x2", 2), ("x3", 2)], np.einsum("a,bc->abc", p1, p23)
    )
    c = rng.random((2, 2, 2, 2, 2, 2))
    c /= c.sum(axis=(3, 4, 5), keepdims=True)
    chan = Channel(
        [("x1", 2), ("x2", 2), ("x3", 2)], [("y1", 2), ("y2", 2), ("y3", 2)], c
    )
    return DmInstance.from_parts(pin, chan, [3])


def test_constraint_repair_zeroes_the_cut():
    rng = np.random.default_rng(47)
    inst = repair_test_instance(rng)
    jvals = constraint_values_j(inst)
    worst = min(jvals, key=jvals.get)
    assert jvals[worst] < -0.01
    repaired = constraint_repair(inst, worst)
    jafter = constraint_values_j(repaired)
    assert jafter[worst] == 0.0
    assert min(jafter.values()) >= min(jvals.values()) + 1e-12
    # time-sharing set grew by the far-side inputs
    far = [k for k in range(1, 4) if k not in worst]
    assert repaired.q_vars == ("q",) + tuple(f"x{k}" for k in far)
    # retained-variable marginals are untouched
    kept = [
        name
        for name in inst.joint.names
        if not (name.startswith("u") and int(name[1:]) in far)
    ]
    assert np.allclose(
        repaired.joint.marginal(kept), inst.joint.marginal(kept), atol=1e-12
    )
    # repairing again is a no-op for that cut
    again = constraint_repair(repaired, worst)
    assert constraint_values_j(again)[worst] == 0.0


def small_instance(rng, n, unit):
    """Binary inputs; q, each u_k and each y_k of size 1 or 2, and size 1
    for the variable named ``unit``."""
    size = lambda name: 1 if name == unit else int(rng.integers(1, 3))
    in_vars = [("q", size("q"))] + [(f"x{k}", 2) for k in range(1, n + 1)]
    in_vars += [(f"u{k}", size(f"u{k}")) for k in range(2, n + 1)]
    p = rng.random(tuple(s for _, s in in_vars))
    pin = JointPmf(in_vars, p / p.sum())
    y_vars = [(f"y{k}", size(f"y{k}")) for k in range(1, n + 1)]
    c = rng.random((2,) * n + tuple(s for _, s in y_vars))
    c /= c.sum(axis=tuple(range(n, 2 * n)), keepdims=True)
    chan = Channel([(f"x{k}", 2) for k in range(1, n + 1)], y_vars, c)
    return DmInstance.from_parts(pin, chan, [n])


def test_constraint_repair_zero_is_structural():
    # Every repaired cut reads exactly 0.0, whatever the summation order: its
    # terms are differences of entropies whose subsets differ only by size-1
    # variables, and those share one memo entry.
    rng = np.random.default_rng(49)
    for n in (3, 4, 5):
        for unit in ["q", "y1"] + [f"u{k}" for k in range(2, n + 1)]:
            inst = small_instance(rng, n, unit)
            assert inst.joint.size_of(unit) == 1
            for cut_s in constraint_values_j(inst):
                repaired = constraint_repair(inst, cut_s)
                j_after = constraint_values_j(repaired)
                assert j_after[cut_s] == 0.0, (n, unit, cut_s)


def test_entropy_memo_key_drops_size_one_variables():
    rng = np.random.default_rng(50)
    for trial in range(20):
        inst = small_instance(rng, 4, ["q", "y1", "u2", "u3", "u4"][trial % 5])
        pmf = inst.joint
        units = [nm for nm, s in pmf.variables if s == 1]
        wide = [nm for nm, s in pmf.variables if s > 1]
        a = [nm for nm in wide if rng.random() < 0.4]
        extra = [nm for nm in units if rng.random() < 0.7] or units[:1]
        order = [a, a + extra] if trial % 2 else [a + extra, a]
        first = pmf.joint_entropy(order[0])
        entries = len(pmf._entropies)
        assert pmf.joint_entropy(order[1]) == first
        assert len(pmf._entropies) == entries
        for nm in extra:
            assert pmf.joint_entropy(a + [nm]) == first
        assert len(pmf._entropies) == entries


def test_channel_and_instance_reject_non_integral_ints():
    with pytest.raises(ValueError, match=r"variable 'x1' size: expected an integer"):
        Channel([("x1", 2.5)], [("y2", 2)], np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match=r"variable 'y2' size: expected an integer"):
        Channel([("x1", 2)], [("y2", True)], np.full((2, 1), 1.0))
    chan = Channel([("x1", 2.0)], [("y2", np.int64(2))], np.eye(2))
    assert chan.given == (("x1", 2),) and chan.out == (("y2", 2),)
    joint = JointPmf(
        [("q", 1), ("x1", 2), ("x2", 1), ("u2", 1), ("y1", 1), ("y2", 2)],
        np.eye(2).reshape(1, 2, 1, 1, 1, 2) / 2,
    )
    with pytest.raises(ValueError, match="n: expected an integer, got 2.5"):
        DmInstance(joint, 2.5, [2])
    with pytest.raises(ValueError, match=r"destinations\[0\]: expected an integer"):
        DmInstance(joint, 2, [2.5])
    assert DmInstance(joint, 2.0, [np.int64(2)]).destinations == (2,)


def test_constraint_repair_guards():
    rng = np.random.default_rng(48)
    inst = repair_test_instance(rng)
    with pytest.raises(ValueError, match="source"):
        constraint_repair(inst, [2])
    with pytest.raises(ValueError, match="far side"):
        constraint_repair(inst, [1, 2, 3])
    with pytest.raises(ValueError, match="outside"):
        constraint_repair(inst, [1, 7])


def random_det_net(rng, n):
    alphabets = [int(rng.integers(2, 4)) for _ in range(n)]
    maps = {}
    for k in range(2, n + 1):
        out = int(rng.integers(2, 4))
        maps[k] = rng.integers(0, out, size=tuple(alphabets))
    return DeterministicNetwork(alphabets, maps, [n])


def test_deterministic_inner_matches_general_evaluator():
    rng = np.random.default_rng(49)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        net = random_det_net(rng, n)
        p = rng.random(tuple(net.alphabets))
        p /= p.sum()
        pin = JointPmf([(f"x{k}", a) for k, a in enumerate(net.alphabets, 1)], p)
        dest = int(rng.integers(2, n + 1))
        direct = deterministic_inner(net, pin, [dest])
        via_dm, _ = ddf_unicast_dm(det_dm_instance(net, pin, [dest]), dest)
        assert abs(direct - via_dm) < 1e-12


def test_deterministic_inner_broadcast_matches_region():
    rng = np.random.default_rng(50)
    net = random_det_net(rng, 3)
    p = rng.random(tuple(net.alphabets))
    p /= p.sum()
    pin = JointPmf([(f"x{k}", a) for k, a in enumerate(net.alphabets, 1)], p)
    direct = deterministic_inner(net, pin, [2, 3], mode="broadcast")
    via_dm = ddf_broadcast_region_dm(det_dm_instance(net, pin, [2, 3]))
    assert direct.dims == via_dm.dims
    for a, b in zip(direct.constraints, via_dm.constraints):
        assert a.cut.s == b.cut.s
        assert abs(a.bound - b.bound) < 1e-12
    with pytest.raises(ValueError, match="unknown mode"):
        deterministic_inner(net, pin, [2], mode="sum")
    with pytest.raises(ValueError, match="exactly one"):
        deterministic_inner(net, pin, [2, 3], mode="unicast")
    with pytest.raises(ValueError, match="must be over"):
        deterministic_inner(net, JointPmf([("x1", 2)], np.array([0.5, 0.5])), [2])
    # Both builders check the input alphabets with the same message.
    sizes = [a + 1 if k == 0 else a for k, a in enumerate(net.alphabets)]
    wide = JointPmf([(f"x{k}", a) for k, a in enumerate(sizes, 1)],
                    np.full(sizes, 1.0 / np.prod(sizes)))
    msg = f"x1 alphabet {sizes[0]} != network alphabet {net.alphabets[0]}"
    for build in (lambda: deterministic_inner(net, wide, [2]),
                  lambda: det_dm_instance(net, wide, [2])):
        with pytest.raises(ValueError, match=msg):
            build()


def test_graphical_mincut_hand_example():
    net = GraphicalNetwork(
        [(1, 2, 1.0), (1, 3, 2.0), (2, 4, 2.0), (3, 4, 1.0)], [4]
    )
    assert graphical_mincut(net, 4) == 2.0
    assert maxflow_oracle(net, 4) == 2.0
    with pytest.raises(ValueError, match="destination"):
        graphical_mincut(net, 1)
    with pytest.raises(ValueError, match="destination"):
        maxflow_oracle(net, 5)


def test_graphical_mincut_matches_maxflow_random():
    rng = np.random.default_rng(51)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.6:
                    edges.append((u, v, float(rng.integers(0, 5))))
        if not edges:
            edges = [(1, n, 1.0)]
        net = GraphicalNetwork(edges, [n], n=n)
        assert graphical_mincut(net, n) == maxflow_oracle(net, n)


def test_bit_pipe_encoding_achieves_mincut():
    rng = np.random.default_rng(52)
    done = 0
    while done < 4:
        n = int(rng.integers(3, 5))
        edges, total = [], 0
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.7:
                    c = int(rng.integers(0, 3))
                    if total + c <= 8:
                        edges.append((u, v, float(c)))
                        total += c
        if total == 0:
            continue
        net = GraphicalNetwork(edges, [n], n=n)
        det = graphical_to_deterministic(net)
        cells = int(np.prod(det.alphabets))
        pin = JointPmf(
            [(f"x{k}", a) for k, a in enumerate(det.alphabets, 1)],
            np.full(det.alphabets, 1.0 / cells),
        )
        inner = deterministic_inner(det, pin, [n])
        assert inner == graphical_mincut(net, n)
        done += 1


def test_bit_pipe_encoder_matches_the_cell_by_cell_oracle():
    rng = np.random.default_rng(53)
    into_source = zero_caps = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        edges, total = [], 0
        for _ in range(int(rng.integers(1, 8))):
            u, v = (int(k) for k in rng.choice(np.arange(1, n + 1), 2, replace=False))
            c = int(rng.integers(0, 3))
            if total + c <= 9:
                edges.append((u, v, float(c)))
                total += c
        into_source += any(v == 1 for _, v, _ in edges)
        zero_caps += any(c == 0 for _, _, c in edges)
        net = GraphicalNetwork(edges, [int(rng.integers(2, n + 1))], n=n)
        det = graphical_to_deterministic(net)
        alphabets, maps = bit_pipe_oracle(net)
        assert det.alphabets == tuple(alphabets)
        assert sorted(det.maps) == sorted(maps) == list(range(2, n + 1))
        for v, table in maps.items():
            assert det.maps[v].dtype == table.dtype
            assert np.array_equal(det.maps[v], table)
    assert into_source > 50 and zero_caps > 50


def test_graphical_to_deterministic_guards():
    with pytest.raises(ValueError, match="not a small integer"):
        graphical_to_deterministic(GraphicalNetwork([(1, 2, 0.5)], [2]))
    with pytest.raises(TensorCapError):
        graphical_to_deterministic(GraphicalNetwork([(1, 2, 21.0)], [2]))


def test_simplex_grid_shape_and_order():
    grid = simplex_grid(3, 8)
    assert grid.shape == (math.comb(10, 2), 3)
    assert np.all(grid >= 0)
    assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-12)
    assert grid[0].tolist() == [0.0, 0.0, 1.0]
    assert grid[-1].tolist() == [1.0, 0.0, 0.0]
    rows = [tuple(r) for r in grid]
    assert rows == sorted(rows)
    assert len(set(rows)) == len(rows)
    assert simplex_grid(1, 5).tolist() == [[1.0]]
    with pytest.raises(ValueError, match="cells"):
        simplex_grid(5, 4)
    with pytest.raises(ValueError, match="resolution"):
        simplex_grid(2, 0)
    with pytest.raises(ValueError, match="too many"):
        simplex_grid(4, 300)


def combinations_simplex_grid(cells, resolution):
    """Stars and bars: each choice of bar positions gives one row of counts."""
    bars = np.array(
        list(itertools.combinations(range(resolution + cells - 1), cells - 1)),
        dtype=np.int64,
    ).reshape(math.comb(resolution + cells - 1, cells - 1), cells - 1)
    ends = np.full((bars.shape[0], 1), resolution + cells - 1, dtype=np.int64)
    counts = np.diff(np.hstack([np.full_like(ends, -1), bars, ends]), axis=1) - 1
    return counts / resolution


def test_simplex_grid_matches_combinations_oracle():
    for cells in (1, 2, 3, 4):
        for resolution in (1, 2, 7, 60):
            got = simplex_grid(cells, resolution)
            want = combinations_simplex_grid(cells, resolution)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    assert simplex_grid(3, 996).tobytes() == combinations_simplex_grid(3, 996).tobytes()


def test_blackwell_region_landmarks():
    reg = blackwell_region(0.0, 0.0, grid_res=96)
    assert abs(reg.max_sum - math.log2(3.0)) < 1e-12
    assert reg.max_r2 == 1.0
    assert reg.max_r3 == 1.0
    assert abs(sum(reg.sum_argmax) - 1.0) < 1e-12
    assert len(reg.region_at_sum_opt.constraints) == 3

    # conferencing: half a bit of receiver cooperation buys half a bit of rate
    reg2 = blackwell_region(0.0, 0.5, grid_res=96)
    assert reg2.max_r2 == 1.5
    assert abs(reg2.max_sum - math.log2(3.0)) < 1e-12


def test_blackwell_membership():
    reg = blackwell_region(0.0, 0.0, grid_res=96)
    assert reg.contains(0.5, 0.5)
    assert reg.contains(1.0, 0.49)
    assert not reg.contains(1.0, 0.51)
    assert not reg.contains(1.3, 0.1)
    assert reg.contains(0.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        reg.contains(-0.1, 0.5)


def test_blackwell_boundary_is_a_frontier():
    reg = blackwell_region(0.0, 0.0, grid_res=96)
    b = reg.boundary
    assert len(b) > 10
    r2s = [p[0] for p in b]
    r3s = [p[1] for p in b]
    assert all(x < y for x, y in zip(r2s, r2s[1:]))
    assert all(x > y for x, y in zip(r3s, r3s[1:]))
    for r2, r3 in b[:: max(1, len(b) // 20)]:
        assert reg.contains(r2, r3)


def loop_frontier(corner_r2, corner_r3):
    """The frontier scan as a plain loop over every sorted corner."""
    frontier, best_r3 = [], -1.0
    for idx in np.lexsort((-corner_r3, -corner_r2)):
        r3v = float(corner_r3[idx])
        if r3v > best_r3 + 1e-12:
            frontier.append((float(corner_r2[idx]), r3v))
            best_r3 = r3v
    return tuple(reversed(frontier))


def test_pareto_frontier_matches_loop_oracle():
    rng = np.random.default_rng(59)
    # Few distinct levels nudged by multiples of 3e-13: exact ties and
    # near-ties inside the 1e-12 acceptance margin.
    for _ in range(30):
        m = int(rng.integers(1, 60))
        r2 = rng.integers(0, 5, m) * 0.25 + rng.integers(-4, 5, m) * 3e-13
        r3 = rng.integers(0, 5, m) * 0.25 + rng.integers(-4, 5, m) * 3e-13
        assert _pareto_frontier(r2, r3) == loop_frontier(r2, r3)
    # corners of real conferencing instances
    for _ in range(30):
        m = int(rng.integers(2, 5))
        y2 = rng.integers(0, 3, m).tolist()
        y3 = rng.integers(0, 3, m).tolist()
        c23, c32 = (float(c) for c in rng.choice([0.0, 0.1, 0.5], 2))
        reg = conferencing_dbc_region(y2, y3, c23, c32, grid_res=40)
        r2c, r3c, h23 = reg._r2_caps, reg._r3_caps, reg._sum_caps
        corner_r2 = np.concatenate(
            [np.minimum(r2c, h23), np.minimum(r2c, h23 - np.minimum(r3c, h23))])
        corner_r3 = np.concatenate(
            [np.minimum(r3c, h23 - np.minimum(r2c, h23)), np.minimum(r3c, h23)])
        assert reg.boundary == loop_frontier(corner_r2, corner_r3)


def test_conferencing_region_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        conferencing_dbc_region([0, 1], [0, 1], -0.1, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        conferencing_dbc_region([0, 1], [0, 1], 0.0, math.nan)
    with pytest.raises(ValueError, match="equally long"):
        conferencing_dbc_region([0, 1], [0, 1, 1], 0.0, 0.0)
    with pytest.raises(ValueError, match="equally long"):
        conferencing_dbc_region([], [], 0.0, 0.0)


def test_pmf_file_round_trip(tmp_path):
    rng = np.random.default_rng(53)
    p = rng.random((2, 3, 2))
    p /= p.sum()
    pmf = JointPmf([("q", 2), ("x1", 3), ("u2", 2)], p)
    path = tmp_path / "pmf.json"
    save_pmf(pmf, path, q_vars=("q",))
    back, q_vars = load_pmf(path)
    assert back.variables == pmf.variables
    assert np.array_equal(back.probs, pmf.probs)
    assert q_vars == ("q",)

    # q defaults to ("q",) when present but undeclared
    doc = pmf_to_dict(pmf)
    assert "q_vars" not in doc
    path.write_text(json.dumps(doc))
    _, q_vars = load_pmf(path)
    assert q_vars == ("q",)


def test_pmf_file_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(SchemaError, match="vars"):
        load_pmf(path)
    path.write_text(json.dumps({"vars": [{"name": "x1", "size": 2}], "probs": [1.0]}))
    with pytest.raises(SchemaError, match="probs: expected 2"):
        load_pmf(path)
    path.write_text(
        json.dumps({"vars": [{"name": "x1", "size": 2}], "probs": [0.5, "a"]})
    )
    with pytest.raises(SchemaError, match=r"probs\[1\]"):
        load_pmf(path)
    path.write_text(
        json.dumps(
            {"vars": [{"name": "x1", "size": 2}], "probs": [0.5, 0.5], "q_vars": ["z"]}
        )
    )
    with pytest.raises(SchemaError, match="q_vars: unknown"):
        load_pmf(path)
    path.write_text(
        json.dumps({"vars": [{"name": "x1", "size": 2}], "probs": [0.7, 0.7]})
    )
    with pytest.raises(SchemaError, match="sum to"):
        load_pmf(path)
    path.write_text(
        json.dumps({"vars": [{"name": "x1", "size": 2}], "probs": [math.nan, 1.0]})
    )
    with pytest.raises(SchemaError, match="finite"):
        load_pmf(path)
    # a tiny file cannot demand a huge tensor
    path.write_text(
        json.dumps(
            {
                "vars": [{"name": f"x{k}", "size": 1000} for k in range(1, 5)],
                "probs": [],
            }
        )
    )
    with pytest.raises(TensorCapError):
        load_pmf(path)


def test_channel_file_round_trip_and_errors(tmp_path):
    path = tmp_path / "chan.json"
    doc = {
        "vars": [{"name": "x1", "size": 2}, {"name": "y2", "size": 2}],
        "given": ["x1"],
        "probs": [0.9, 0.1, 0.2, 0.8],
    }
    path.write_text(json.dumps(doc))
    chan = load_channel(path)
    assert chan.given == (("x1", 2),)
    assert chan.out == (("y2", 2),)
    assert abs(chan.probs[0, 0] - 0.9) < 1e-15

    doc["given"] = ["y2"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="precede"):
        load_channel(path)

    doc["given"] = ["x9"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="unknown variable"):
        load_channel(path)

    doc["given"] = "x1"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="given"):
        load_channel(path)

    doc["given"] = ["x1"]
    doc["probs"] = [0.9, 0.3, 0.2, 0.8]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="sum to 1"):
        load_channel(path)

    doc["probs"] = [math.nan, 0.1, 0.2, 0.8]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="finite"):
        load_channel(path)
