"""Discrete-memoryless bounds: independent re-evaluation and exactness checks."""

import itertools
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from relaybound import dm, info
from relaybound.dm import _pareto_frontier, pmf_to_dict
from relaybound.networks import enumerate_cuts
from tests.bitpipe import bit_pipe_oracle
from tests.cutterms import (
    cutset_oracle, deterministic_oracle, j_oracle, marton_oracle, unicast_oracle)
from tests.maxflow import maxflow_oracle
from tests.plans import _clear_plans


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
    return DmInstance.from_parts(*random_parts(rng, n, with_q), dests)


def random_parts(rng, n, with_q=False):
    """An input pmf over (q,) x, u and a channel p(y | x), sizes 2 or 3."""
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
    return pin, chan


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
    with pytest.raises(ValueError, match="^n: a network needs at least 2 nodes, got 1$"):
        DmInstance.from_parts(
            pin, Channel([("x1", 2)], [("y1", 2)], np.eye(2)), []
        )
    with pytest.raises(ValueError, match="channel inputs"):
        DmInstance.from_parts(pin, Channel([("u2", 2)], [("y2", 2)], np.eye(2)), [2])
    # a channel input the pmf lacks once reported "joint mass is 2.0, expected 1"
    with pytest.raises(ValueError, match="channel: input 'x2' is not in the input pmf"):
        DmInstance.from_parts(pin, Channel([("x1", 2), ("x2", 2)], [("y2", 2)],
                                           np.full((2, 2, 2), 0.5)), [2])
    inst = DmInstance.from_parts(pin, chan, [2])
    assert inst.n == 2
    assert inst.q_vars == ("q",)
    assert inst.joint.names == ("q", "x1", "x2", "u2", "y1", "y2")
    # rows 1 + 0.9995e-9 pass Channel's 1e-9 check and a pmf summing to
    # 1 + 0.9e-12 passes JointPmf's; the pair once raised "joint mass is
    # 1.0000000010004, expected 1"
    row = np.array([0.3, 0.7 + 0.9995e-9])
    edge = DmInstance.from_parts(JointPmf([("x1", 2)], np.array([0.4, 0.6 + 0.9e-12])),
                                 Channel([("x1", 2)], [("y2", 2)], np.array([row, row[::-1]])),
                                 [2])
    assert abs(float(edge.joint.probs.sum()) - 1.0) <= 1e-15
    ref = DmInstance.from_parts(JointPmf([("x1", 2)], np.array([0.4, 0.6])),
                                Channel([("x1", 2)], [("y2", 2)], [[0.3, 0.7], [0.7, 0.3]]), [2])
    assert abs(ddf_unicast_dm(edge, 2)[0] - ddf_unicast_dm(ref, 2)[0]) <= 1e-8


@pytest.mark.parametrize("in_vars, match", [
    ([("x1", 3)], "conflicting sizes 3 and 2"),
    ([("x1", 2), ("u1", 2)], "u1 is not a valid description variable"),
    ([("x1", 2), ("y2", 2)], "input pmf must not contain channel outputs"),
])
def test_malformed_parts_raise_the_same_error_on_every_call(in_vars, match):
    # Plans are cached per shape, but a shape that fails is not: the second
    # call checks it again and raises the same error.
    sizes = [s for _, s in in_vars]
    pin = JointPmf(in_vars, np.full(sizes, 1.0 / math.prod(sizes)))
    chan = Channel([("x1", 2)], [("y2", 2)], np.eye(2))
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match=match) as err:
            DmInstance.from_parts(pin, chan, [2])
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_cold_and_warm_plans_give_the_same_bits_and_pickles():
    # Every value comes from the same operations whether the shape's plans
    # were built by this call or by an earlier one, and a result's object
    # graph, which pickle records, holds no object whose sharing depends on
    # that.  Each run rebuilds its parts, so a warm run's inputs are equal to
    # the cold run's but not the same objects.
    pin0, chan0 = random_parts(np.random.default_rng(77), 4, with_q=True)
    n = 4

    def run():
        pin = JointPmf(list(pin0.variables), pin0.probs.copy())
        chan = Channel(list(chan0.given), list(chan0.out), chan0.probs.copy())
        inst = DmInstance.from_parts(pin, chan, [n])
        built = pickle.dumps(inst)
        value, terms = ddf_unicast_dm(inst, n)
        j = constraint_values_j(inst)
        cutset = cutset_dm(pin, chan, [n], "broadcast")
        repaired = constraint_repair(inst, min(j, key=j.get))
        bits = (value.hex(), [t.total.hex() for t in terms],
                {s: v.hex() for s, v in j.items()},
                [c.bound.hex() for c in cutset.constraints],
                sorted(constraint_values_j(repaired).values()))
        return bits, built, pickle.dumps(inst), pickle.dumps(repaired)

    _clear_plans()
    cold = run()
    warm = run()
    assert cold[0] == warm[0]
    assert cold[1] == warm[1]  # from_parts
    assert cold[2] == warm[2]  # the instance with its memo and lattice
    assert cold[3] == warm[3]  # constraint_repair
    _clear_plans()
    assert run() == cold


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
    # canonical joints for n = 1 and n = 0 once built instances with no cuts,
    # on which constraint_values_j raised an IndexError
    one = JointPmf([("q", 1), ("x1", 2), ("y1", 1)], [0.5, 0.5])
    for small, n in ((one, 1), (JointPmf([("q", 1)], [1.0]), 0)):
        with pytest.raises(ValueError, match=f"^n: a network needs at least 2 nodes, got {n}$"):
            DmInstance(small, n, [])
    with pytest.raises(ValueError, match="instance has no destinations"):
        ddf_broadcast_region_dm(DmInstance(joint, 2, []))


def test_a_channel_output_is_not_a_time_sharing_variable():
    # y2 once passed as q: every term conditioned on the destination's own
    # output, and ddf_unicast_dm and every J read 0.0
    pin = JointPmf([("x1", 2)], np.array([0.4, 0.6]))
    chan = Channel([("x1", 2)], [("y2", 2)], [[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(ValueError, match="q_vars: 'y2' is a channel output"):
        DmInstance.from_parts(pin, chan, [2], ("y2",))
    with pytest.raises(ValueError, match="q_vars: 'y1' is a channel output"):
        cutset_dm(pin, chan, [2], q_vars=("q", "y1"))
    inst = DmInstance.from_parts(pin, chan, [2])
    with pytest.raises(ValueError, match="'y2'"):
        DmInstance(inst.joint, 2, [2], ("q", "y2"))
    # inputs and descriptions stay allowed: constraint_repair appends x's
    for q_vars in (("q", "x2"), ("u2",), ()):
        assert DmInstance(inst.joint, 2, [2], q_vars).q_vars == q_vars
    assert ddf_unicast_dm(inst, 2)[0] > 0.1


def library_bits(pin, chan, dests):
    """The bits of every DM evaluator on a fresh instance from the parts."""
    inst = DmInstance.from_parts(pin, chan, dests)
    bits = [ddf_unicast_dm(inst, d) for d in dests]
    j = constraint_values_j(inst)
    bits += [j, [c.bound for c in ddf_broadcast_region_dm(inst).constraints],
             cutset_dm(pin, chan, dests[-1:], "unicast"),
             [c.bound for c in cutset_dm(pin, chan, dests, "broadcast").constraints]]
    repaired = constraint_repair(inst, min(j, key=j.get))
    return bits + [ddf_unicast_dm(repaired, dests[-1]), constraint_values_j(repaired)]


def oracle_bits(pin, chan, dests):
    """``library_bits`` through the per-cut oracle, in the same call sequence."""
    inst = DmInstance.from_parts(pin, chan, dests)
    n = inst.n

    def j_values(inst):
        cuts = enumerate_cuts(n, range(2, n + 1), "broadcast")
        return dict(zip([c.s for c in cuts], j_oracle(inst, range(2, n + 1)), strict=True))

    bits = [unicast_oracle(inst, d) for d in dests]
    j = j_values(inst)
    bits += [j, [max(v, 0.0) for v in j_oracle(inst, dests)],
             min(cutset_oracle(pin, chan, dests[-1:], "unicast")),
             cutset_oracle(pin, chan, dests, "broadcast")]
    repaired = constraint_repair(inst, min(j, key=j.get))
    return bits + [unicast_oracle(repaired, dests[-1]), j_values(repaired)]


def as_hex(value):
    """``value`` with every float, CutTerms included, as its hex string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dm.CutTerms):
        return (value.cut, as_hex(value.first_term), as_hex(value.penalty_u),
                as_hex(value.penalty_x), as_hex(value.total))
    if isinstance(value, dict):
        return {k: as_hex(v) for k, v in value.items()}
    return [as_hex(v) for v in value]


def test_cut_programs_give_the_per_cut_oracle_bits():
    # Each evaluator runs one cut program per shape.  The per-cut loop it
    # replaced gives the same bits in the same call sequence on a fresh
    # instance from the same parts, and a repaired cut still reads 0.0.
    rng = np.random.default_rng(60)
    for trial in range(16):
        n = 2 + trial % 4
        pin, chan = random_parts(rng, n, with_q=trial >= 8)
        dests = list(range(2, n + 1))
        got, want = library_bits(pin, chan, dests), oracle_bits(pin, chan, dests)
        assert as_hex(got) == as_hex(want), (trial, n)
        j, j_after = got[len(dests)], got[-1]
        assert j_after[min(j, key=j.get)] == 0.0
    for n in (2, 3, 4, 5):
        parts = single_hop_parts(rng, n)
        got, want = (check(DmInstance.from_parts(*parts, range(2, n + 1)))
                     for check in (marton_identity_check, marton_oracle))
        assert as_hex(got) == as_hex(want), n


def test_one_cut_program_serves_every_alphabet_shape_of_an_n():
    # Programs are keyed on n, the q mask and the destinations, not on the
    # variables: a second shape of the same n runs on the first's programs
    # and gets the bits of a run that built its own.
    rng = np.random.default_rng(61)
    first, second = random_parts(rng, 4), random_parts(rng, 4)
    assert first[0].variables != second[0].variables
    assert first[1].out != second[1].out
    _clear_plans()
    for plan in (dm._cut_program, info._layout, info._sub_layout, info._reduction):
        assert plan.cache_info().currsize == 0
    alone = as_hex(library_bits(*second, [4]))
    _clear_plans()
    library_bits(*first, [4])
    built = dm._cut_program.cache_info()
    assert as_hex(library_bits(*second, [4])) == alone
    assert dm._cut_program.cache_info().misses == built.misses


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
    # call sequence on a fresh copy built from the same parts gives the same
    # bits.  A joint built directly, without the factor marginals that
    # from_parts supplies, agrees within 1e-12.
    rng = np.random.default_rng(41)
    for trial in range(4):
        n = int(rng.integers(3, 5))
        pin, chan = random_parts(rng, n, with_q=bool(trial % 2))
        inst = DmInstance.from_parts(pin, chan, [n])

        def fresh():
            return DmInstance.from_parts(pin, chan, [n])

        ddf_unicast_dm(inst, n)
        shared = constraint_values_j(inst)
        alone = constraint_values_j(
            DmInstance(JointPmf(inst.joint.variables, inst.joint.probs), n, [n], inst.q_vars))
        assert list(shared) == list(alone)
        for cut_s, j in shared.items():
            assert abs(j - alone[cut_s]) <= 1e-12
        again = fresh()
        ddf_unicast_dm(again, n)
        assert [j.hex() for j in constraint_values_j(again).values()] == [
            j.hex() for j in shared.values()
        ]


def joint_route_cutset(inst, dests, mode):
    """The cutset bound evaluated on ``inst``'s own joint, cut by cut."""
    cuts = enumerate_cuts(inst.n, dests, mode)
    xs = lambda nodes: sum(inst.x[k] for k in nodes)
    values = [inst.mi(xs(c.s), sum(inst.y[k] for k in c.complement), xs(c.complement))
              for c in cuts]
    return min(values) if mode == "unicast" else values


def close_all(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12, (g, w)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 4),
    with_q=st.booleans(),
    broadcast=st.booleans(),
    repaired=st.sets(st.integers(2, 4)),
    y_sizes=st.lists(st.sampled_from([1, 2, 3]), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_marginals_agree_with_the_joint_route(n, with_q, broadcast, repaired, y_sizes,
                                                      seed):
    # from_parts hands the joint marginals made from its factors; a joint
    # built directly reduces every entropy from the full tensor instead.
    # Both routes agree within 1e-12 on every evaluator, on instances with
    # size-1 outputs and with far-side inputs moved into q_vars the way
    # constraint_repair moves them.
    rng = np.random.default_rng(seed)
    far = sorted(k for k in repaired if k <= n)
    small = (2,) if n == 4 else (2, 3)
    in_vars = [("q", int(rng.integers(2, 4)))] if with_q else []
    in_vars += [("x1", int(rng.choice(small)))]
    in_vars += [(f"x{k}", 1 if broadcast else int(rng.choice(small))) for k in range(2, n + 1)]
    in_vars += [(f"u{k}", 1 if k in far else int(rng.choice(small))) for k in range(2, n + 1)]
    p = rng.random(tuple(s for _, s in in_vars))
    pin = JointPmf(in_vars, p / p.sum())
    x_vars = [v for v in in_vars if v[0].startswith("x")]
    y_vars = [(f"y{k}", 1 if broadcast and k == 1 else y_sizes[k - 1]) for k in range(1, n + 1)]
    c = rng.random(tuple(s for _, s in x_vars + y_vars))
    c /= c.sum(axis=tuple(range(n, 2 * n)), keepdims=True)
    chan = Channel(x_vars, y_vars, c)
    q_vars = ("q",) + tuple(f"x{k}" for k in far)
    dests = list(range(2, n + 1))

    inst = DmInstance.from_parts(pin, chan, dests, q_vars)
    ref = DmInstance(JointPmf(inst.joint.variables, inst.joint.probs), n, dests, q_vars)
    for d in dests:
        (got, got_terms), (want, want_terms) = ddf_unicast_dm(inst, d), ddf_unicast_dm(ref, d)
        close_all([got], [want])
        for t, r in zip(got_terms, want_terms):
            assert t.cut == r.cut
            close_all([t.first_term, t.total], [r.first_term, r.total])
            close_all(t.penalty_u.values(), r.penalty_u.values())
            close_all(t.penalty_x.values(), r.penalty_x.values())
        close_all([cutset_dm(pin, chan, [d], "unicast", q_vars)],
                  [joint_route_cutset(ref, [d], "unicast")])
    got_j, want_j = constraint_values_j(inst), constraint_values_j(ref)
    assert list(got_j) == list(want_j)
    close_all(got_j.values(), want_j.values())
    close_all([c.bound for c in ddf_broadcast_region_dm(inst).constraints],
              [c.bound for c in ddf_broadcast_region_dm(ref).constraints])
    close_all([c.bound for c in cutset_dm(pin, chan, dests, "broadcast", q_vars).constraints],
              joint_route_cutset(ref, dests, "broadcast"))
    if broadcast:
        close_all(marton_identity_check(inst), marton_identity_check(ref))


def test_factor_route_never_reduces_the_full_joint(monkeypatch):
    rng = np.random.default_rng(44)
    n = 4
    pin, chan = random_parts(rng, n, with_q=True)
    inst = DmInstance.from_parts(pin, chan, [2, 3, 4])
    widest = pin.probs.size * max(s for _, s in chan.out)
    sources = []
    reduce = JointPmf.marginal
    monkeypatch.setattr(JointPmf, "marginal",
                        lambda self, names: sources.append(self) or reduce(self, names))
    ddf_unicast_dm(inst, n)
    constraint_values_j(inst)
    ddf_broadcast_region_dm(inst)
    assert sources
    for src in sources:
        assert src.probs.size <= widest < inst.joint.probs.size
        assert sum(name.startswith("y") for name in src.names) <= 1

    # The cutset bound has no description: its joint is built without them.
    built = []
    from_parts = DmInstance.from_parts
    monkeypatch.setattr(DmInstance, "from_parts",
                        lambda *args: built.append(from_parts(*args)) or built[-1])
    cutset_dm(pin, chan, [2, 3, 4], "broadcast")
    (joint,) = [b.joint for b in built]
    assert all(s == 1 for name, s in joint.variables if name.startswith("u"))
    assert joint.probs.size == inst.joint.probs.size // math.prod(
        s for name, s in pin.variables if name.startswith("u"))


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
    # once an IndexError from a cut program over no cuts
    with pytest.raises(ValueError, match="need at least one destination"):
        cutset_dm(pin, chan, [], mode="broadcast")


def single_hop_parts(rng, n):
    """An input pmf over x1 and u2..un and a channel p(y2..yn | x1)."""
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
    return JointPmf(in_vars, p), chan


def test_marton_identity_on_random_broadcast():
    rng = np.random.default_rng(45)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        inst = DmInstance.from_parts(*single_hop_parts(rng, n), range(2, n + 1))
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
    # An output symbol of 2**62 once reached np.zeros, which refused it as
    # "array is too big"; a symbol of 10**12 tried to allocate 29.1 TiB.
    net = DeterministicNetwork([2, 2], {2: np.array([[0, 0], [1, 2**62]])}, [2])
    pin = JointPmf([("x1", 2), ("x2", 2)], np.full((2, 2), 0.25))
    for build in (lambda: deterministic_inner(net, pin, [2]),
                  lambda: det_dm_instance(net, pin, [2])):
        with pytest.raises(TensorCapError, match="deterministic joint would need"):
            build()


def test_deterministic_closed_form_matches_the_per_cut_loop():
    # H(Y(S^c), X(S^c)) - sum H(X_k) against the textbook form evaluated cut
    # by cut: generic (correlated), independent and sparse input pmfs.
    rng = np.random.default_rng(63)
    worst = 0.0
    for i in range(45):
        n = int(rng.integers(2, 6))
        net = random_det_net(rng, n)
        shape = tuple(net.alphabets)
        if i % 3 == 0:
            p = rng.random(shape)
        elif i % 3 == 1:
            p = rng.random(shape[0])
            for a in shape[1:]:
                p = np.multiply.outer(p, rng.random(a))
        else:
            p = rng.random(shape) * (rng.random(shape) < 0.4)
            p.flat[int(rng.integers(p.size))] += 1.0
        pin = JointPmf([(f"x{k}", a) for k, a in enumerate(shape, 1)], p / p.sum())
        dest = int(rng.integers(2, n + 1))
        dests = [d for d in range(2, n + 1) if rng.random() < 0.5] or [n]
        want = min(deterministic_oracle(net, pin, [dest]))
        worst = max(worst, abs(deterministic_inner(net, pin, [dest]) - want))
        region = deterministic_inner(net, pin, dests, "broadcast")
        want = deterministic_oracle(net, pin, dests, "broadcast")
        assert len(region.constraints) == len(want)
        for c, v in zip(region.constraints, want):
            worst = max(worst, abs(c.bound - max(v, 0.0)))
    assert worst <= 1e-12
    # Uniform bit-pipe inputs give dyadic cells, so both forms are exact.
    for net, det, pin in uniform_bit_pipe_networks():
        n = net.n
        assert deterministic_inner(det, pin, [n]) == min(deterministic_oracle(det, pin, [n]))
        region = deterministic_inner(det, pin, range(2, n + 1), "broadcast")
        want = deterministic_oracle(det, pin, range(2, n + 1), "broadcast")
        assert [c.bound for c in region.constraints] == [max(v, 0.0) for v in want]


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


def uniform_bit_pipe_networks():
    """Four random graphical networks (``default_rng(52)``, n = 3-4, at most
    8 bits of capacity), each with its bit-pipe encoding and uniform inputs."""
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
        yield net, det, pin
        done += 1


def test_bit_pipe_encoding_achieves_mincut():
    for net, det, pin in uniform_bit_pipe_networks():
        inner = deterministic_inner(det, pin, [net.n])
        assert inner == graphical_mincut(net, net.n)


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
    # a grid past 2,000,000 rows is a resource cap, not a usage error
    with pytest.raises(TensorCapError, match="too many"):
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


def region_snapshot(reg):
    """Every field and cap array of a conferencing region, as bytes where exact."""
    return (reg.max_sum, reg.max_r2, reg.max_r3, reg.sum_argmax,
            reg.region_at_sum_opt, reg.boundary, reg._r2_caps.tobytes(),
            reg._r3_caps.tobytes(), reg._sum_caps.tobytes())


def test_conferencing_region_is_the_same_for_any_block_size(monkeypatch):
    # The simplex grid is reduced in row blocks, each block's corners
    # pre-filtered before one frontier pass: the block size must not show.
    rng = np.random.default_rng(61)
    cases = [([0, 1, 0], [0, 1, 1], 0.0, 0.0, 60), ([0, 1, 0], [0, 1, 1], 0.0, 0.5, 45)]
    for _ in range(8):
        m = int(rng.integers(2, 5))
        cases.append((rng.integers(0, 3, m).tolist(), rng.integers(0, 3, m).tolist(),
                      *(float(c) for c in rng.choice([0.0, 0.1, 0.5], 2)), 18))
    for y2, y3, c23, c32, res in cases:
        whole = region_snapshot(conferencing_dbc_region(y2, y3, c23, c32, res))
        for rows in (1, 7, 100):
            monkeypatch.setattr(dm, "_BLOCK_ROWS", rows)
            assert region_snapshot(conferencing_dbc_region(y2, y3, c23, c32, res)) == whole
        monkeypatch.undo()


def test_row_sums_add_like_numpy_below_eight_columns():
    # The conferencing region's marginals and entropies add columns left to
    # right; below 8 columns numpy's sum does the same, so the bits match it.
    rng = np.random.default_rng(62)
    for k in range(1, 8):
        a = rng.uniform(0.0, 1.0, (500, 3, k)) * 10.0 ** rng.integers(-12, 1, (500, 3, k))
        assert dm._row_sums(a).tobytes() == a.sum(axis=-1).tobytes()
        t = a.transpose(0, 2, 1)
        assert dm._row_sums(t).tobytes() == t.sum(axis=-1).tobytes()


def test_a_point_mass_region_has_no_negative_zero():
    # Every simplex-grid pmf of constant maps is a point mass, whose row
    # entropies once came out as -0.0.
    reg = conferencing_dbc_region([0, 0], [0, 0], 0.0, 0.0, 4)
    values = [*reg.boundary[0], reg.max_sum, reg.max_r2, reg.max_r3,
              *(c.bound for c in reg.region_at_sum_opt.constraints)]
    assert reg.boundary == ((0.0, 0.0),)
    assert [math.copysign(1.0, v) for v in values] == [1.0] * len(values)


def test_conferencing_region_ranks_output_symbols():
    # Only which inputs share a symbol matters.  The block joint was once
    # sized by the largest symbol: 2**62 raised numpy's "array is too big"
    # and 10**30 overflowed.
    small = region_snapshot(conferencing_dbc_region([0, 1], [0, 0], 0.0, 0.0, 4))
    for big in (2**62, 10**30):
        assert region_snapshot(conferencing_dbc_region([0, big], [0, 0], 0.0, 0.0, 4)) == small
    gappy = conferencing_dbc_region([7, 0, 7], [3, 9, 9], 0.1, 0.2, 30)
    assert region_snapshot(gappy) == region_snapshot(
        conferencing_dbc_region([1, 0, 1], [0, 1, 1], 0.1, 0.2, 30))


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
    with pytest.raises(SchemaError, match=r"probs\[0\]: must be finite, got nan"):
        load_pmf(path)
    x1 = {"name": "x1", "size": 2}
    for doc, message in (
        ({"vars": ["x1"], "probs": [1.0]}, r"vars\[0\]: expected an object"),
        ({"vars": [{"name": 1, "size": 2}], "probs": [0.5, 0.5]},
         r"vars\[0\]\.name: expected a string"),
        ({"vars": [{"name": "x1", "size": 0}], "probs": []},
         r"vars\[0\]\.size: expected a positive integer"),
        ({"vars": [x1], "probs": "0.5,0.5"}, "probs: expected a flat list"),
        ({"vars": [x1], "probs": [0.5, 0.5], "q_vars": "x1"},
         "q_vars: expected a list of variable names"),
        ({"vars": [x1], "probs": [0.5, 0.5], "q_vars": [1]},
         "q_vars: expected a list of variable names"),
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=message):
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


# [[0.5], [0.5]] has the right length, and a bool is not a number
@pytest.mark.parametrize("probs, index", [([[0.5], [0.5]], 0), ([0.5, True], 1)])
def test_model_file_probs_are_a_flat_list_of_numbers(tmp_path, probs, index):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vars": [{"name": "x1", "size": 2}], "probs": probs}))
    with pytest.raises(SchemaError, match=rf"probs\[{index}\]: expected a number"):
        load_pmf(path)
    path.write_text(json.dumps({"vars": [{"name": "x1", "size": 1}, {"name": "y2", "size": 2}],
                                "given": ["x1"], "probs": probs}))
    with pytest.raises(SchemaError, match=rf"probs\[{index}\]: expected a number"):
        load_channel(path)


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
