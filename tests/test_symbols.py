"""Output symbols have one owner, ``errors.as_symbols``: a deterministic map
or a conferencing receiver's map is read exactly and stored as its symbols'
ranks, so only which inputs share a symbol can move a bound."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaybound import (
    DeterministicNetwork,
    JointPmf,
    SchemaError,
    conferencing_dbc_region,
    constraint_values_j,
    det_dm_instance,
    deterministic_inner,
)
from relaybound.errors import as_symbols

#: Labels a relabelling may use: small, sparse, either side of 2**53 (where
#: floats stop holding every int) and of 2**63 (int64's end), and up to 1e30.
LABELS = st.one_of(st.integers(0, 20), st.integers(2**53 - 2, 2**53 + 2),
                   st.integers(2**63 - 2, 2**64 + 2), st.integers(0, 10**30))


def relabelled(table: np.ndarray, labels: list[int]) -> list:
    """``table``'s symbols 0, 1, .. replaced by ``labels[0]``, ``labels[1]``,
    .., as nested lists of Python ints."""
    return np.array(labels, dtype=object)[table].tolist()


def uniformish(rng, shape) -> np.ndarray:
    p = rng.random(shape) + 0.05
    return p / p.sum()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
       labels=st.lists(LABELS, min_size=4, max_size=4, unique=True))
def test_relabelling_symbols_injectively_moves_no_bound(n, seed, labels):
    rng = np.random.default_rng(seed)
    alphabets = [int(a) for a in rng.integers(1, 4, n)]
    alphabets[0] = 2
    tables = {k: rng.integers(0, 4, alphabets) for k in range(2, n + 1)}
    net = DeterministicNetwork(alphabets, tables, range(2, n + 1))
    twin = DeterministicNetwork(alphabets, {k: relabelled(t, labels) for k, t in tables.items()},
                                range(2, n + 1))
    pin = JointPmf([(f"x{k}", a) for k, a in enumerate(alphabets, 1)],
                   uniformish(rng, alphabets))
    for k, table in tables.items():
        assert net.out_size(k) == twin.out_size(k) == len(np.unique(table))
        inst = det_dm_instance(twin, pin, [n])
        assert inst.joint.size_of(f"y{k}") == inst.joint.size_of(f"u{k}") == len(np.unique(table))
    assert deterministic_inner(twin, pin, [n]) == pytest.approx(
        deterministic_inner(net, pin, [n]), abs=1e-12)
    for a, b in zip(deterministic_inner(net, pin, range(2, n + 1), "broadcast").constraints,
                    deterministic_inner(twin, pin, range(2, n + 1), "broadcast").constraints,
                    strict=True):
        assert a.cut.s == b.cut.s and b.bound == pytest.approx(a.bound, abs=1e-12)
    j = constraint_values_j(det_dm_instance(net, pin, [n]))
    j_twin = constraint_values_j(det_dm_instance(twin, pin, [n]))
    assert j.keys() == j_twin.keys()
    assert all(j_twin[s] == pytest.approx(v, abs=1e-12) for s, v in j.items())
    m = int(rng.integers(2, 5))
    y2, y3 = rng.integers(0, 4, m), rng.integers(0, 4, m)
    reg = conferencing_dbc_region(y2.tolist(), y3.tolist(), 0.1, 0.3, 12)
    reg_twin = conferencing_dbc_region(relabelled(y2, labels), relabelled(y3, labels[::-1]),
                                       0.1, 0.3, 12)
    assert reg_twin.max_sum == pytest.approx(reg.max_sum, abs=1e-12)
    # Rounding separates no two boundary points, so the boundaries match
    # point for point.
    assert len(reg_twin.boundary) == len(reg.boundary)
    for p, q in zip(reg.boundary, reg_twin.boundary):
        assert q == pytest.approx(p, abs=1e-12), (p, q)


def test_a_relabelled_receiver_keeps_its_boundary():
    # Each boundary once ended at r2 = 0.30000000000000016, an ulp right of
    # (0.3, 1.28496), with r3 1.25459 here and 1.18336 once y3 is relabelled.
    reg = conferencing_dbc_region([2, 2, 2, 2], [3, 1, 3, 2], 0.1, 0.3, 12)
    twin = conferencing_dbc_region([2, 2, 2, 2], [0, 2, 0, 1], 0.1, 0.3, 12)
    assert reg.boundary == twin.boundary
    assert reg.boundary[-1] == pytest.approx((0.3, 1.284962500721156), abs=1e-15)


UNIFORM = JointPmf([("x1", 2), ("x2", 2)], np.full((2, 2), 0.25))


def test_a_sparse_symbol_costs_no_memory():
    # The y2 axis was once max symbol + 1 long: 2e6 peaked at 122 MiB, and
    # 1e7 raised TensorCapError.
    for big in (2_000_000, 10**7):
        tracemalloc.start()
        try:
            net = DeterministicNetwork([2, 2], {2: [[0, big], [0, 0]]}, [2])
            value = deterministic_inner(net, UNIFORM, [2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 0.5 and peak < 2**20


def test_symbols_past_two_to_the_53_stay_distinct():
    # Read as float64, both once became 9007199254740992 and merged.
    net = DeterministicNetwork([2, 1], {2: [[2**53], [2**53 + 1]]}, [2])
    assert net.maps[2].tolist() == [[0], [1]]
    assert deterministic_inner(net, JointPmf([("x1", 2), ("x2", 1)], [0.5, 0.5]), [2]) == 1.0


def test_both_callers_rank_a_symbol_past_int64_alike():
    # DeterministicNetwork once refused 10**30; conferencing_dbc_region took it.
    net = DeterministicNetwork([3, 1], {2: [0, 10**30, 0]}, [2])
    ranks = as_symbols([0, 10**30, 0], "y2_map").tolist()
    assert net.maps[2].ravel().tolist() == ranks == [0, 1, 0]
    assert conferencing_dbc_region([0, 10**30, 0], [0, 1, 1], 0.1, 0.2, 30).max_sum == (
        conferencing_dbc_region([0, 1, 0], [0, 1, 1], 0.1, 0.2, 30).max_sum)


def test_as_symbols_reads_exactly_and_names_a_bad_entry():
    for values in ([3, 7, 3], [3.0, 7, np.int64(3)], np.array([3, 7, 3], dtype=np.uint64),
                   np.array([3.0, 7.0, 3.0]), (2**70 + 3, 2**70 + 7, 2**70 + 3)):
        ranks = as_symbols(values, "m")
        assert ranks.dtype.kind == "i" and ranks.tolist() == [0, 1, 0]
    assert as_symbols([[5], [1]], "m").tolist() == [[1], [0]]
    for bad, message in (([[0, 1.5]], r"m\[0\]\[1\]: expected an integer, got 1.5"),
                         ([0, True], r"m\[1\]: expected an integer, got True"),
                         (np.array([0.0, np.nan]), r"m\[1\]: expected an integer, got nan"),
                         (np.array([[0], [-2]]), r"m\[1\]\[0\]: an output symbol must be "
                                                 r"nonnegative, got -2"),
                         (["0"], r"m\[0\]: expected an integer, got '0'")):
        with pytest.raises(SchemaError, match="^" + message + "$"):
            as_symbols(bad, "m")
