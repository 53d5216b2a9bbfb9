"""Exactness and closed-form checks for the dense pmf information measures."""

import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaybound import (
    GaussianNetwork,
    JointPmf,
    TensorCapError,
    binary_entropy,
    entropy,
    gauss_c,
    log_det_rate,
    mutual_info,
    ternary_entropy,
)
from relaybound.gaussian import _GRAM_GATE
from relaybound import cli, gaussian, info
from relaybound.info import CELL_CAP, ZERO_EPS, _plain_entropies
from tests.plans import _clear_plans, _plan_caches


def naive_marginal(pmf, names):
    """Dict-accumulation marginal, adding cells in flat index-ascending order."""
    keep = sorted(pmf.axis_of(n) for n in set(names))
    buckets = {}
    for idx in np.ndindex(*pmf.probs.shape):
        key = tuple(idx[i] for i in keep)
        buckets[key] = buckets.get(key, 0.0) + float(pmf.probs[idx])
    shape = tuple(pmf.probs.shape[i] for i in keep)
    out = np.zeros(shape)
    for key, val in buckets.items():
        out[key] = val
    return out


def rowloop_marginal(pmf, names):
    """Row-loop marginal: the dropped axes lead a transposed copy, and its rows
    are added one at a time into a zero accumulator."""
    keep = sorted(pmf.axis_of(n) for n in set(names))
    drop = [i for i in range(pmf.probs.ndim) if i not in keep]
    kept_shape = tuple(pmf.probs.shape[i] for i in keep)
    q = np.transpose(pmf.probs, drop + keep).reshape(-1, math.prod(kept_shape))
    out = np.zeros(q.shape[1])
    for row in q:
        out += row
    return out.reshape(kept_shape)


def naive_entropy(marg):
    acc = 0.0
    for p in marg.reshape(-1):
        if p >= ZERO_EPS:
            acc -= p * math.log2(p)
    return acc


def random_pmf(rng, sizes, names=None):
    if names is None:
        names = [f"v{i}" for i in range(len(sizes))]
    p = rng.random(tuple(sizes))
    p /= p.sum()
    return JointPmf(list(zip(names, sizes)), p)


def test_marginal_matches_naive_accumulation_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ndim = int(rng.integers(1, 5))
        sizes = [int(rng.integers(1, 5)) for _ in range(ndim)]
        pmf = random_pmf(rng, sizes)
        subset_count = int(rng.integers(1, ndim + 1))
        names = list(rng.choice(pmf.names, size=subset_count, replace=False))
        got = pmf.marginal(names)
        want = naive_marginal(pmf, names)
        assert got.shape == want.shape
        assert np.array_equal(got, want), "marginal should be bitwise reproducible"


def test_marginal_and_entropy_match_row_loop_on_many_shapes():
    # Marginals are bitwise.  Entropies are within 1e-12 of the oracle even
    # when the lattice reduces them from cached supersets, so it is warmed
    # first with random supersets of the target, in random order.
    rng = np.random.default_rng(5)
    one_cell = strided = warmed = 0
    for _ in range(600):
        ndim = int(rng.integers(1, 8))
        sizes = [int(rng.choice([1, 1, 2, 3, 4, 5])) for _ in range(ndim)]
        pmf = random_pmf(rng, sizes)
        names = list(rng.choice(pmf.names, size=int(rng.integers(0, ndim)), replace=False))
        keep = sorted(pmf.axis_of(n) for n in names)
        drop = [i for i in range(ndim) if i not in keep]
        one_cell += math.prod(sizes[i] for i in keep) == 1
        strided += not np.transpose(pmf.probs, drop + keep).flags.c_contiguous
        got = pmf.marginal(names)
        want = rowloop_marginal(pmf, names)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        for _ in range(int(rng.integers(0, 4))):
            extra = [n for n in pmf.names if n not in names and rng.random() < 0.5]
            pmf.joint_entropy(names + extra)
            warmed += bool(extra)
        assert abs(pmf.joint_entropy(names) - naive_entropy(want)) <= 1e-12
    assert one_cell >= 50 and strided >= 50 and warmed >= 300


def _edge_pmf(sizes, negative_zero=False):
    """A pmf of ``sizes`` whose cells are 1, 2, 3, ... scaled to sum to 1;
    with ``negative_zero`` the last index of axis 1 holds -0.0 throughout."""
    p = np.arange(1.0, math.prod(sizes) + 1).reshape(sizes)
    if negative_zero:
        p[:, -1] = 0.0
    p /= p.sum()
    if negative_zero:
        p[:, -1] = -0.0
    return JointPmf([(f"v{i}", s) for i, s in enumerate(sizes)], p)


#: (sizes, kept names, -0.0 column) at the edges of ``JointPmf.marginal``'s
#: bin maps: each dtype's last kept cell count and the next, no kept variable
#: (a 0-d result), one kept cell among size-1 axes, a -0.0 column (the oracle
#: adds from +0.0), and sources whose map is too large to keep.
BIN_MAP_EDGES = {
    "uint8-last": ((256, 2), ["v0"], False),
    "uint16-first": ((257, 2), ["v0"], False),
    "uint16-last": ((65_536, 1), ["v0"], False),
    "uint32-first": ((65_537, 1), ["v0"], False),
    "no-kept-variable": ((3, 4), [], False),
    "one-kept-cell": ((1, 3, 1, 2), ["v0", "v2"], False),
    "size-1-axes-kept": ((1, 3, 1, 2), ["v0", "v1", "v2"], False),
    "negative-zero": ((3, 4), ["v1"], True),
    "negative-zero-one-cell": ((1, 2), ["v0"], True),
    "above-the-cap": ((3, 4_000), ["v1"], False),
    "above-the-cap-few-kept": ((3_000, 3), ["v1"], True),
}


@pytest.mark.parametrize("sizes, names, negative_zero", BIN_MAP_EDGES.values(),
                         ids=BIN_MAP_EDGES.keys())
def test_marginal_matches_both_oracles_at_the_bin_map_edges(sizes, names, negative_zero):
    pmf = _edge_pmf(sizes, negative_zero)
    bins, kept_shape, _ = info._reduction(pmf._layout, tuple(names))
    dtype = np.min_scalar_type(math.prod(kept_shape) - 1)
    kept_map = pmf.probs.size * dtype.itemsize <= info._MAP_BYTES
    assert (bins is not None) == kept_map
    if kept_map:
        assert bins.dtype == dtype and not bins.flags.writeable
    got = pmf.marginal(names)
    assert got.shape == kept_shape
    assert got.tobytes() == rowloop_marginal(pmf, names).tobytes()
    if pmf.probs.size <= 20_000:
        assert got.tobytes() == naive_marginal(pmf, names).tobytes()
    if negative_zero and names:
        assert np.signbit(got).sum() == 0


def test_bin_maps_agree_across_the_dtype_edges():
    # the map of a kept cell count is the same in the smallest dtype that
    # holds it as in intp, at both edges of uint8 and uint16
    for cells, dtype in ((256, np.uint8), (257, np.uint16), (65_536, np.uint16),
                         (65_537, np.uint32)):
        assert np.min_scalar_type(cells - 1) == dtype
        compact = info._bin_map((cells, 1), (cells, 2), dtype)
        wide = info._bin_map((cells, 1), (cells, 2), np.intp)
        assert compact.dtype == dtype and np.array_equal(compact, wide)
        assert wide.tolist() == [i // 2 for i in range(2 * cells)]


def test_bin_maps_stay_within_their_bound_and_a_large_source_allocates_one_map():
    # Every key's map at the largest size kept: the maps kept after more
    # keys than the cache holds take at most maxsize * _MAP_BYTES = 8 MiB.
    maxsize = info._reduction.cache_info().maxsize
    assert maxsize * info._MAP_BYTES <= 8 << 20
    keys = [(pmf, names) for pmf, kept in ((_edge_pmf([2] * 13), 8), (_edge_pmf([2] * 12), 9))
            for names in itertools.combinations(pmf.names, kept)]
    assert len(keys) > maxsize
    _clear_plans()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for pmf, names in keys:
            pmf.marginal(names)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the maps, and under 1.5 KiB a key of the cache's tuples and array headers
    assert grown <= (8 << 20) + 1536 * maxsize
    _clear_plans()
    refs = []
    for pmf, names in keys:
        pmf.marginal(names)
        refs.append(weakref.ref(info._reduction(pmf._layout, names)[0]))
    alive = [ref() for ref in refs if ref() is not None]
    assert len(alive) == maxsize
    assert all(bins.nbytes == info._MAP_BYTES for bins in alive)
    # A source whose map is not kept allocates one cells-long intp map and
    # the output, as a lattice entry does: its kept-cell range is freed before
    # the output is made.  numpy's bincount copies read-only weights, so a
    # pmf's own (read-only) tensor adds one float copy of itself.
    for sizes, names in (((40, 2_000), ["v1"]), ((2_000, 40), ["v1"])):
        pmf = _edge_pmf(sizes)
        assert info._reduction(pmf._layout, tuple(names))[0] is None
        want = pmf.marginal(names)
        for source, copied in ((info._lean(pmf._layout, pmf.probs.copy()), 0), (pmf, 1)):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                got = source.marginal(names)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert got.tobytes() == want.tobytes()
            assert peak <= (1 + copied) * 8 * pmf.probs.size + got.nbytes + 4096


def test_entropy_matches_naive_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        sizes = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 4)))]
        pmf = random_pmf(rng, sizes)
        names = list(pmf.names[: int(rng.integers(1, len(sizes) + 1))])
        got = entropy(pmf, names)
        want = naive_entropy(naive_marginal(pmf, names))
        assert abs(got - want) <= 1e-12


def test_closed_form_kernels():
    assert gauss_c(0.0) == 0.0
    assert gauss_c(1.0) == 0.5
    assert gauss_c(3.0) == 1.0
    assert abs(gauss_c(15.0) - 2.0) < 1e-15
    with pytest.raises(ValueError):
        gauss_c(-0.1)
    # elementwise on arrays, bit-identical to the scalar calls
    snr = np.exp(np.random.default_rng(3).uniform(-30.0, 30.0, size=(40, 50)))
    snr[0, 0] = 0.0
    got = gauss_c(snr)
    assert got.shape == snr.shape
    assert got.tolist() == [[gauss_c(float(x)) for x in row] for row in snr]
    snr[3, 4] = -1e-300
    with pytest.raises(ValueError):
        gauss_c(snr)
    assert gauss_c(math.inf) == math.inf


def test_gauss_c_refuses_nan():
    for snr in (math.nan, np.float64(math.nan), np.array(math.nan), [1.0, math.nan],
                np.array([[0.0], [math.nan]])):
        with pytest.raises(ValueError, match="nonnegative"):
            gauss_c(snr)

    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    h011 = -(0.11 * math.log2(0.11) + 0.89 * math.log2(0.89))
    assert abs(binary_entropy(0.11) - h011) < 1e-15

    assert abs(ternary_entropy(1 / 3, 1 / 3) - math.log2(3)) < 1e-12
    assert ternary_entropy(1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        ternary_entropy(-0.01, 0.5)
    with pytest.raises(ValueError):
        ternary_entropy(0.6, 0.6)


def test_joint_pmf_validation():
    with pytest.raises(ValueError, match="duplicate"):
        JointPmf([("a", 2), ("a", 2)], np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="alphabet size"):
        JointPmf([("a", 0)], np.array([1.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        JointPmf([("a", 2)], np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="sum to"):
        JointPmf([("a", 2)], np.array([0.7, 0.7]))
    with pytest.raises(ValueError, match="finite"):
        JointPmf([("x1", 2)], np.array([math.nan, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        JointPmf([("x1", 2)], np.array([math.inf, 0.0]))
    with pytest.raises(TensorCapError):
        JointPmf([("a", 10_000), ("b", 10_000)], [1.0])
    assert CELL_CAP == 10_000_000

    pmf = JointPmf([("a", 2), ("b", 3)], np.full((2, 3), 1 / 6))
    assert pmf.names == ("a", "b")
    assert pmf.size_of("b") == 3
    assert pmf.axis_of("b") == 1
    with pytest.raises(ValueError, match="unknown variable"):
        pmf.axis_of("c")
    assert not pmf.probs.flags.writeable
    assert pmf.marginal(["a", "b"]) is pmf.probs


def test_joint_pmf_rejects_non_integral_sizes():
    with pytest.raises(ValueError, match="variable 'a' size: expected an integer, got 2.9"):
        JointPmf([("a", 2.9)], [0.5, 0.5])
    with pytest.raises(ValueError, match="variable 'a' size: expected an integer, got True"):
        JointPmf([("a", True)], [1.0])
    pmf = JointPmf([("a", 2.0), ("b", np.int64(1))], [0.5, 0.5])
    assert pmf.variables == (("a", 2), ("b", 1))


def test_entropy_basics():
    pmf = JointPmf([("x", 4)], np.full(4, 0.25))
    assert entropy(pmf, ["x"]) == 2.0

    # independent pair: conditioning changes nothing
    p = np.outer([0.3, 0.7], [0.25, 0.25, 0.5])
    pmf2 = JointPmf([("x", 2), ("y", 3)], p)
    assert abs(entropy(pmf2, ["x"], ["y"]) - entropy(pmf2, ["x"])) < 1e-12

    # copy: zero conditional entropy
    eye = np.eye(3) / 3
    pmf3 = JointPmf([("x", 3), ("y", 3)], eye)
    assert entropy(pmf3, ["x"], ["y"]) == 0.0

    with pytest.raises(ValueError, match="unknown variable"):
        entropy(pmf2, ["z"])


def test_entropy_memo_is_per_pmf():
    rng = np.random.default_rng(6)
    pmf = random_pmf(rng, [2, 3, 2], names=["a", "b", "c"])
    h = entropy(pmf, ["a"], ["b"])
    oracle = naive_entropy(naive_marginal(pmf, ["a", "b"])) - naive_entropy(
        naive_marginal(pmf, ["b"])
    )
    assert abs(h - oracle) <= 1e-12
    # a repeated call, in any order of the names, reads the memo's float,
    # which is keyed by the subset's bitmask (bit i for variable i)
    memo = dict(pmf._entropies)
    assert pmf.mask_of(["b", "a"]) == pmf.mask_of({"a", "b"}) == 0b011
    assert pmf.joint_entropy(["b", "a"]) is pmf._entropies[0b011]
    assert pmf.joint_entropy({"a", "b"}) is pmf.joint_entropy(["b", "a"])
    assert pmf.entropy_of(0b011) is pmf.joint_entropy(["a", "b"])
    assert pmf._entropies == memo
    # a second pmf over the same names starts from an empty memo of its own
    other = random_pmf(rng, [2, 3, 2], names=["a", "b", "c"])
    assert other._entropies == {} and other._entropies is not pmf._entropies
    h_other = other.joint_entropy(["a", "b"])
    assert abs(h_other - naive_entropy(naive_marginal(other, ["a", "b"]))) <= 1e-12
    assert list(other._entropies) == [0b011]
    assert pmf._entropies == memo
    with pytest.raises(ValueError, match="unknown variable"):
        pmf.joint_entropy(["z"])
    with pytest.raises(ValueError, match="unknown variable 'z'"):
        pmf.mask_of(["a", "z"])


def test_no_variable_has_entropy_exactly_zero(monkeypatch):
    # H of no variable, or of size-1 variables only, is +0.0 with no
    # reduction and no memo entry.  A 1-cell marginal sums to 1 within ulps,
    # so reducing one gave about +-3e-16: entropy(pmf, []) and
    # mutual_info(pmf, [], ["a"]) gave 3.2e-16 on 79 of these 200 pmfs.
    rng = np.random.default_rng(0)
    reductions, reduce = [], JointPmf.marginal
    monkeypatch.setattr(JointPmf, "marginal",
                        lambda self, names: reductions.append(names) or reduce(self, names))
    for _ in range(200):
        pmf = random_pmf(rng, [3, 3, 2], names=["a", "b", "c"])
        reductions.clear()
        assert entropy(pmf, []) == 0.0
        assert math.copysign(1.0, pmf.entropy_of(0)) == 1.0
        assert pmf.entropies([0, 0]) == [0.0, 0.0]
        assert reductions == [] and pmf._entropies == {}
        assert mutual_info(pmf, [], ["a"]) == 0.0
        assert 0 not in pmf._entropies and () not in reductions
    unit = random_pmf(rng, [3, 1, 2, 1], names=["a", "u", "c", "v"])
    assert unit.joint_entropy(["u", "v"]) == 0.0 and () not in reductions
    assert entropy(unit, ["a"], ["u", "v"]) == entropy(unit, ["a"])
    assert 0 not in unit._entropies


def test_lattice_reduces_from_the_smallest_superset_first_cached_among_ties(monkeypatch):
    pmf = random_pmf(np.random.default_rng(9), [2, 3, 3, 1, 2], names=list("abcud"))
    for names in ("abd", "acd", "abc"):  # 12, 12 and 18 cells, each from the full joint
        pmf.joint_entropy(names)
    sources = []
    reduce = JointPmf.marginal
    monkeypatch.setattr(JointPmf, "marginal",
                        lambda self, names: sources.append(self.names) or reduce(self, names))
    pmf.joint_entropy("adu")  # abd and acd cover it; abd was cached first
    pmf.joint_entropy("a")  # now ad, of 4 cells, is the smallest cover
    pmf.joint_entropy("abcd")  # only the full joint, its size-1 axis dropped
    assert sources == [("a", "b", "d"), ("a", "d"), ("a", "b", "c", "d")]


def twin_pmfs(sizes, seed, kind, supplied):
    """Two pmfs equal in every bit but not the same objects: dense, with
    exact zeros and cells below ``ZERO_EPS`` (sparse), or a point mass.
    ``supplied`` masks seed their lattices with those marginals, as
    ``DmInstance.from_parts`` seeds its joint."""
    rng = np.random.default_rng(seed)
    p = rng.random(sizes)
    if kind == "point":
        p = np.zeros(sizes)
        p.flat[rng.integers(p.size)] = 1.0
    elif kind == "sparse":
        p[rng.random(sizes) < 0.3] = 0.0
        p.flat[0] += p.sum() == 0.0
        p /= p.sum()
        p[(rng.random(sizes) < 0.2) & (p > 0)] = 0.5 * ZERO_EPS
    p /= p.sum()
    variables = tuple((f"v{i}", s) for i, s in enumerate(sizes))
    axes = range(len(sizes))
    marginals = [(m, p.sum(axis=tuple(i for i in axes if not m >> i & 1), keepdims=True))
                 for m in supplied]
    return [JointPmf._trusted(variables, p.copy(), [(m, a.copy()) for m, a in marginals])
            for _ in range(2)]


def lattice_state(pmf):
    return ([(cells, mask, e.probs.shape, e.probs.tobytes()) for cells, mask, e in pmf._lattice],
            list(pmf._entropies))


@st.composite
def batch_cases(draw):
    """(sizes, seed, pmf kind, supplied masks, calls): each call is a batch
    of masks for ``entropies`` or a run of one-mask ``entropy_of`` calls.  The
    masks repeat, include 0, and include masks of size-1 variables only."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=9))
    full = (1 << len(sizes)) - 1
    units = sum(1 << i for i, s in enumerate(sizes) if s == 1)
    mask = st.one_of(st.integers(0, full), st.just(0), st.integers(0, full).map(units.__and__))
    calls = draw(st.lists(st.tuples(st.booleans(), st.lists(mask, max_size=12)),
                          min_size=1, max_size=5))
    calls = [(single, masks + masks[::3]) for single, masks in calls]
    kind = draw(st.sampled_from(["dense", "sparse", "point"]))
    return (sizes, draw(st.integers(0, 2**32 - 1)), kind,
            draw(st.lists(st.integers(0, full), max_size=2)), calls)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=batch_cases())
def test_batched_entropies_equal_single_calls_bit_for_bit(case):
    # A batch of several misses gives the floats that one-miss batches
    # (``entropy_of``, which is ``entropies((mask,))[0]``) give for the same
    # masks on a fresh twin, and leaves the memo and the lattice with the
    # same masks, marginals and order, whether the batches stand alone or
    # between one-mask calls.
    sizes, seed, kind, supplied, calls = case
    pmf, twin = twin_pmfs(sizes, seed, kind, supplied)
    reductions, reduce = [], JointPmf.marginal
    JointPmf.marginal = lambda self, names: reductions.append(names) or reduce(self, names)
    try:  # each miss is reduced once, through the class attribute
        for single, masks in calls:
            start = len(reductions)
            got = [pmf.entropy_of(m) for m in masks] if single else pmf.entropies(masks)
            mid = len(reductions)
            want = [twin.entropy_of(m) for m in masks]
            assert reductions[start:mid] == reductions[mid:]
            assert [h.hex() for h in got] == [h.hex() for h in want]
            assert lattice_state(pmf) == lattice_state(twin)
    finally:
        JointPmf.marginal = reduce
    # a batch over the whole call list on fresh twins, and the plan it left
    pmf, twin = twin_pmfs(sizes, seed, kind, supplied)
    masks = [m for _, ms in calls for m in ms]
    for _ in range(2):
        got, want = pmf.entropies(masks), [twin.entropy_of(m) for m in masks]
        assert [h.hex() for h in got] == [h.hex() for h in want]
        assert lattice_state(pmf) == lattice_state(twin)
        pmf, twin = twin_pmfs(sizes, seed, kind, supplied)


def test_batched_entropies_take_chunks_of_many_marginals(monkeypatch):
    # Marginals larger than a chunk, and more cells than one chunk holds,
    # give the floats of the one-marginal kernel; no chunk joins more than
    # _CHUNK_CELLS cells.
    rng = np.random.default_rng(12)
    margs = [rng.random(int(k)) for k in rng.integers(1, 3 * info._CHUNK_CELLS, 12)]
    margs += [rng.random(int(k)) for k in rng.integers(1, 300, 200)]
    for m in margs[::7]:
        m[rng.random(m.size) < 0.1] = 0.0
    rng.shuffle(margs)
    joined, concatenate = [], np.concatenate
    monkeypatch.setattr(np, "concatenate", lambda arrays: joined.append(
        sum(a.size for a in arrays)) or concatenate(arrays))
    got = _plain_entropies(margs)
    assert [h.hex() for h in got] == [_plain_entropies([m])[0].hex() for m in margs]
    assert len(joined) > 3 and max(joined) <= info._CHUNK_CELLS
    assert _plain_entropies([]) == []


def test_batched_entropies_hold_about_two_chunks_at_a_time():
    # A chunk's float temporaries stay under the 128 KiB at which glibc maps
    # fresh pages, and no chunk's arrays outlive it into the next one: over
    # hundreds of marginals, with and without cells below ZERO_EPS, the
    # traced peak is its cells and their p log2 p, plus a mask.
    chunk_bytes = info._CHUNK_CELLS * 8
    assert chunk_bytes < 128 << 10
    rng = np.random.default_rng(13)
    margs = [m / m.sum() for m in (rng.random(int(k)) for k in rng.integers(1, 3000, 300))]
    sparse = [np.where(rng.random(m.size) < 0.3, 0.0, m) for m in margs]
    for batch in (margs, sparse):
        _plain_entropies(batch)
        tracemalloc.start()
        try:
            _plain_entropies(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * chunk_bytes


def test_entropy_plans_are_bounded_and_cleared_with_the_other_plans():
    maxsize = info._miss_plan.cache_info().maxsize
    assert maxsize is not None and maxsize <= 1024
    rng = np.random.default_rng(8)
    pmf = random_pmf(rng, [2] * 9)
    probs = pmf.probs
    _clear_plans()
    for m in range(1, maxsize + 40):  # a distinct pair of misses each time
        JointPmf(list(pmf.variables), probs).entropies([m, m ^ 0b110000000])
    assert info._miss_plan.cache_info().currsize == maxsize
    _clear_plans()
    assert info._miss_plan.cache_info().currsize == 0


def test_clear_plans_empties_every_plan_cache_of_the_package():
    # every cache of every loaded relaybound module, the Gaussian cut
    # patterns and the CLI parser among them
    net = GaussianNetwork(3, [[0, 0, 0], [1.0, 0, 0], [0.5, 2.0, 0]], 1.0, [2, 3])
    gaussian.ddf_region(net)
    cli._parser()
    caches = _plan_caches()
    assert gaussian._cut_pattern in caches and cli._parser in caches
    assert any(cache.cache_info().currsize for cache in caches)
    _clear_plans()
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)


def oracle_conditional(pmf, a, given):
    """H(a | given) from row-loop marginals, floored at zero like ``entropy``."""
    h = naive_entropy(rowloop_marginal(pmf, a + given))
    if given:
        h -= naive_entropy(rowloop_marginal(pmf, given))
    return max(h, 0.0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(st.sampled_from([1, 1, 2, 3, 4]), min_size=1, max_size=7),
    roles=st.lists(st.sampled_from("abg-"), min_size=7, max_size=7),
    seed=st.integers(0, 2**32 - 1),
    units=st.integers(1, 3),
)
def test_mask_memo_matches_the_oracle_and_ignores_order_and_size_one_variables(
        sizes, roles, seed, units):
    rng = np.random.default_rng(seed)
    pmf = random_pmf(rng, sizes)
    parts = {r: [n for n, role in zip(pmf.names, roles) if role == r] for r in "abg"}
    a, b, g = parts["a"], parts["b"], parts["g"]
    h = entropy(pmf, a, g)
    i = mutual_info(pmf, a, b, g)
    assert abs(h - oracle_conditional(pmf, a, g)) <= 1e-12
    want_i = max(oracle_conditional(pmf, a, g) - oracle_conditional(pmf, a, b + g), 0.0)
    assert abs(i - want_i) <= 1e-12
    # the same floats for the names in another order, from the memo
    assert entropy(pmf, a[::-1], g[::-1]) == h
    assert mutual_info(pmf, a[::-1], b[::-1], g[::-1]) == i
    # the same floats when a nonempty subset gains size-1 variables: in this
    # pmf, or in a fresh one whose extra size-1 axes the calls also name
    free = [n for n, s in pmf.variables if s == 1 and n not in a + b + g]
    pad = {r: (parts[r] + free[k::3] if parts[r] else parts[r]) for k, r in enumerate("abg")}
    assert entropy(pmf, pad["a"], pad["g"]) == h
    assert mutual_info(pmf, pad["a"], pad["b"], pad["g"]) == i
    extra = [(f"w{k}", 1) for k in range(units)]
    wider = JointPmf(list(pmf.variables) + extra,
                     pmf.probs.reshape(pmf.probs.shape + (1,) * units))
    ws = [n for n, _ in extra]
    assert entropy(wider, a + ws if a else a, g) == h
    assert mutual_info(wider, a, b + ws if b else b, g) == i
    # overlapping and unknown names raise
    for x in pmf.names:
        with pytest.raises(ValueError, match="overlapping"):
            mutual_info(pmf, a + [x], b + [x] if x not in b else b, g)
    with pytest.raises(ValueError, match="unknown variable"):
        entropy(pmf, a + ["zz"], g)
    with pytest.raises(ValueError, match="unknown variable"):
        mutual_info(pmf, a, b, g + ["zz"])


def test_entropy_inequalities_sweep():
    rng = np.random.default_rng(2)
    for _ in range(50):
        pmf = random_pmf(rng, [2, 3, 2], names=["a", "b", "c"])
        h_ab = entropy(pmf, ["a", "b"])
        h_a = entropy(pmf, ["a"])
        h_b = entropy(pmf, ["b"])
        assert h_ab <= h_a + h_b + 1e-12
        assert entropy(pmf, ["a"], ["b"]) <= h_a + 1e-12
        assert entropy(pmf, ["a"], ["b", "c"]) <= entropy(pmf, ["a"], ["b"]) + 1e-12
        # chain rule
        assert abs(h_ab - (h_a + entropy(pmf, ["b"], ["a"]))) < 1e-12


def test_mutual_info_basics():
    p = np.outer([0.3, 0.7], [0.25, 0.25, 0.5])
    indep = JointPmf([("x", 2), ("y", 3)], p)
    assert mutual_info(indep, ["x"], ["y"]) < 1e-12

    eye = np.eye(3) / 3
    copy = JointPmf([("x", 3), ("y", 3)], eye)
    assert abs(mutual_info(copy, ["x"], ["y"]) - math.log2(3)) < 1e-12

    with pytest.raises(ValueError, match="overlapping"):
        mutual_info(copy, ["x"], ["x"])
    with pytest.raises(ValueError, match="overlapping"):
        mutual_info(copy, ["x"], ["y"], ["y"])


def test_mutual_info_bsc_closed_form():
    eps = 0.11
    joint = np.array([[0.5 * (1 - eps), 0.5 * eps], [0.5 * eps, 0.5 * (1 - eps)]])
    pmf = JointPmf([("x", 2), ("y", 2)], joint)
    want = 1.0 - (-(eps * math.log2(eps) + (1 - eps) * math.log2(1 - eps)))
    assert abs(mutual_info(pmf, ["x"], ["y"]) - want) < 1e-12


def test_mutual_info_symmetry_and_nonnegativity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pmf = random_pmf(rng, [3, 2, 2], names=["a", "b", "c"])
        ab = mutual_info(pmf, ["a"], ["b"], ["c"])
        ba = mutual_info(pmf, ["b"], ["a"], ["c"])
        assert abs(ab - ba) < 1e-12
        assert ab >= 0.0
        assert mutual_info(pmf, ["a"], ["b"]) >= 0.0


def test_log_det_rate_against_slogdet():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(n, n))
        m = a @ a.T
        want = 0.5 * np.linalg.slogdet(np.eye(n) + m)[1] / math.log(2)
        assert abs(log_det_rate(m) - want) < 1e-9


def test_log_det_rate_edges():
    assert log_det_rate(np.zeros((0, 0))) == 0.0
    assert log_det_rate(np.zeros((3, 3))) == 0.0
    assert abs(log_det_rate(np.array([[3.0]])) - 1.0) < 1e-15
    with pytest.raises(ValueError, match="square"):
        log_det_rate(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        log_det_rate(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="eigenvalue"):
        log_det_rate(-2.0 * np.eye(2))
    # [[nan]] once gave nan, and [[inf]] inf with a RuntimeWarning
    for m in ([[math.nan]], [[math.inf]], [[-math.inf]], [np.eye(2), [[1.0, 0.0], [0.0, math.nan]]]):
        with pytest.raises(ValueError, match="entries must be finite"):
            log_det_rate(np.array(m))


def test_plain_entropy_treats_tiny_mass_as_zero():
    marg = np.array([1.0, 1e-16])
    assert _plain_entropies([marg])[0] == 0.0


def test_plain_entropy_matches_math_log2_loop():
    rng = np.random.default_rng(7)
    for _ in range(3000):
        marg = rng.random(int(rng.integers(2, 4)))
        marg /= marg.sum()
        assert abs(_plain_entropies([marg])[0] - naive_entropy(marg)) <= 1e-12
    # a point mass has entropy +0.0, not -0.0
    (h,) = _plain_entropies([np.array([0.0, 1.0])])
    assert math.copysign(1.0, h) == 1.0


def test_log_det_rate_on_stacks():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(2, 3, 4, 4))
    m = a @ a.swapaxes(-1, -2)
    got = log_det_rate(m)
    assert isinstance(got, np.ndarray) and got.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert got[idx] == log_det_rate(m[idx])  # the stack repeats one slice's arithmetic
    assert isinstance(log_det_rate(m[0, 0]), float)
    assert log_det_rate(np.zeros((5, 0, 0))).shape == (5,)
    assert log_det_rate(np.zeros((0, 3, 3))).shape == (0,)
    with pytest.raises(ValueError, match="symmetric"):
        bad = m.copy()
        bad[1, 2, 0, 1] += 1e-3
        log_det_rate(bad)


def test_log_det_rate_falls_back_per_slice_with_relative_tolerances():
    # an indefinite I + m in one slice raises for the stack, naming m's
    # smallest eigenvalue
    ok = np.array([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match="eigenvalue -3.000e"):
        log_det_rate(np.stack([ok, np.diag([-3.0, 2e9])]))
    # asymmetry is measured against the matrix's own scale
    big = 1e12 * ok
    big[0, 1] += 1e-4
    assert abs(log_det_rate(big) - log_det_rate(1e12 * ok)) < 1e-12
    with pytest.raises(ValueError, match="symmetric"):
        big[0, 1] += 1e4
        log_det_rate(big)


def _log_det_steps(m):
    """The kernel's arithmetic spelled out: (1/2)(m + m^T), the Cholesky of
    I plus it, and the sum of log2 of its diagonal."""
    sym = 0.5 * (m + m.swapaxes(-1, -2))
    chol = np.linalg.cholesky(np.eye(m.shape[-1]) + sym)
    return np.log2(chol.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)


def test_log_det_rate_takes_symmetric_stacks_with_the_same_bits():
    # A stack equal to its transpose skips the scale and asymmetry passes;
    # any other stack is checked and symmetrized.  Both give the bits of the
    # spelled-out steps, on Grams of powers 10^U(-3, 12) up to the Gram gate.
    rng = np.random.default_rng(41)
    asymmetric = 0
    for _ in range(40):
        n = int(rng.integers(1, 8))
        g = rng.lognormal(0.0, 1.0, size=(24, n, n))
        power = 10.0 ** rng.uniform(-3.0, 12.0, size=(24, 1, n))
        gram = (g * power) @ g.swapaxes(-1, -2)  # rounding-asymmetric
        gram = gram[gram.max(axis=(-2, -1)) <= _GRAM_GATE]
        sym = 0.5 * (gram + gram.swapaxes(-1, -2))  # equal to its transpose
        asymmetric += not np.array_equal(gram, sym)
        want = _log_det_steps(gram)
        assert np.array_equal(log_det_rate(gram), want)
        assert np.array_equal(log_det_rate(sym), want)
        assert np.array_equal(_log_det_steps(sym), want)
        for i in range(len(gram)):
            assert log_det_rate(gram[i]) == want[i] == log_det_rate(sym[i])
    assert asymmetric >= 10  # the checked path ran too
    # a zero and a negative zero are equal, and I + m erases the sign
    m = np.array([[2.0, 0.0, 1.0], [-0.0, 3.0, 0.5], [1.0, 0.5, 4.0]])
    assert log_det_rate(m) == _log_det_steps(m)
    # m + m^T overflows near the float maximum, and m itself is not summed
    assert math.isclose(log_det_rate(np.array([[1e308]])), 0.5 * math.log2(1e308))


def test_log_det_rate_refuses_non_finite_entries_in_any_slice():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(6, 4, 4))
    stack = a @ a.swapaxes(-1, -2)
    stack = 0.5 * (stack + stack.swapaxes(-1, -2))
    for i, j, value in ((0, 2, math.inf), (0, 2, -math.inf), (1, 1, math.inf),
                        (3, 3, -math.inf), (1, 2, math.nan), (2, 2, math.nan)):
        bad = stack.copy()
        bad[3, i, j] = bad[3, j, i] = value  # still equal to its transpose, but a NaN
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            log_det_rate(bad)
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            log_det_rate(bad[3])
        # finiteness comes before the eigenvalue test, in any slice order
        bad[5] = -2.0 * np.eye(4)
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            log_det_rate(bad)
    with pytest.raises(ValueError, match="eigenvalue -2.000e"):
        log_det_rate(bad[4:])


def test_joint_pmf_equality_and_hash_are_by_identity():
    a = JointPmf([("x", 2)], np.array([0.5, 0.5]))
    b = JointPmf([("x", 2)], np.array([0.5, 0.5]))
    assert a == a and a != b
    assert hash(a) == hash(a)
    memo = {a: "a", b: "b"}
    assert memo[a] == "a" and memo[b] == "b"
