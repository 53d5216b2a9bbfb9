"""Gaussian inner/outer bound checks against independent arithmetic oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaybound import (
    Cut,
    DiamondConfig,
    GaussianNetwork,
    cut_rate_term,
    cutset_estimate,
    cutset_diamond_opt,
    cutset_estimate_region,
    cutset_relaxed_cut,
    ddf_cut_rate,
    ddf_region,
    ddf_unicast_cut_rate,
    ddf_unicast_rate,
    gap_certificate,
    node_penalty,
    penalty_rate,
    relaxed_inner_cut,
    received_snr,
)
from relaybound.gaussian import _cut_plan, _plan_rates, cutset_cut_rate, ddf_cut_rate_general
from relaybound.networks import enumerate_cuts


def random_net(rng, n, lognormal=False, vector_power=False):
    if lognormal:
        g = rng.lognormal(0.0, 1.0, size=(n, n))
    else:
        g = rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(g, 0.0)
    p = rng.uniform(0.5, 20.0, size=n) if vector_power else float(rng.uniform(0.5, 20.0))
    return GaussianNetwork(n, g, p, [n])


def random_feasible_cov(rng, net):
    n = net.n
    a = rng.standard_normal((n, n + 2))
    c = a @ a.T
    d = np.sqrt(np.diag(c))
    corr = c / np.outer(d, d)
    p = net.power * rng.uniform(0.2, 1.0, size=n)
    return corr * np.outer(np.sqrt(p), np.sqrt(p))


def test_penalty_rate_bounds_and_spot_value():
    assert penalty_rate(0.0) == 0.0
    rng = np.random.default_rng(20)
    for s in rng.uniform(0.0, 1e6, size=2000):
        p = penalty_rate(float(s))
        assert 0.0 <= p <= 0.5
    # monotone in snr, saturating at 1/2
    assert penalty_rate(1e12) < 0.5
    assert penalty_rate(1e12) > 0.499999
    want_160 = 0.5 * math.log2(1.0 + 160.0 / 161.0)
    assert abs(penalty_rate(160.0) - want_160) < 1e-15
    assert abs(want_160 - 0.497764) < 1e-5
    with pytest.raises(ValueError):
        penalty_rate(-1.0)


def test_node_penalty_uses_received_snr():
    g = np.zeros((3, 3))
    g[1, 0] = 2.0
    g[2, 1] = 1.0
    net = GaussianNetwork(3, g, [3.0, 1.0, 1.0], [3])
    assert abs(received_snr(net, 2) - 12.0) < 1e-12
    assert abs(node_penalty(net, 2) - penalty_rate(12.0)) < 1e-15


def test_cut_rate_term_matches_slogdet():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        net = random_net(rng, n, vector_power=bool(rng.integers(0, 2)))
        for cut in [Cut([1], n), Cut(range(1, n), n)]:
            far = cut.complement
            g = net.gains[np.ix_([k - 1 for k in far], [j - 1 for j in cut.s])]
            m = g @ np.diag([net.power[j - 1] for j in cut.s]) @ g.T
            want = 0.5 * np.linalg.slogdet(np.eye(len(far)) + m)[1] / math.log(2)
            assert abs(cut_rate_term(net, cut) - want) < 1e-9


def test_two_node_closed_forms():
    # single relay-less hop: cut {1}, dest 2
    s = 3.0
    net = GaussianNetwork(2, np.array([[0.0, 0.0], [math.sqrt(s), 0.0]]), 1.0, [2])
    cut = Cut([1], 2)
    want_term = 0.5 * math.log2(1.0 + s)
    assert abs(cut_rate_term(net, cut) - want_term) < 1e-12
    pen = 0.5 * math.log2(1.0 + s / (1.0 + s))
    assert abs(ddf_cut_rate(net, cut) - (want_term - pen)) < 1e-12
    assert abs(ddf_cut_rate(net, cut) - 0.5963225390) < 1e-9
    # the destination's row is stacked twice in the unicast variant
    want_uni = 0.5 * math.log2(1.0 + 2.0 * s) - pen
    assert abs(ddf_unicast_cut_rate(net, cut, 2) - want_uni) < 1e-12
    assert abs(ddf_unicast_rate(net, 2) - want_uni) < 1e-12


def test_cut_guards():
    net = GaussianNetwork(3, np.zeros((3, 3)), 1.0, [3])
    with pytest.raises(ValueError, match="empty far side"):
        ddf_cut_rate(net, Cut([1, 2, 3], 3))
    with pytest.raises(ValueError, match="cut is over"):
        ddf_cut_rate(net, Cut([1], 4))
    with pytest.raises(ValueError, match="far side"):
        ddf_unicast_cut_rate(net, Cut([1, 3], 3), 3)
    with pytest.raises(ValueError, match="destination"):
        ddf_unicast_rate(net, 1)


def test_relaxed_bounds_ordering():
    rng = np.random.default_rng(22)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        net = random_net(rng, n, lognormal=bool(rng.integers(0, 2)))
        for cut in [Cut([1], n), Cut(range(1, n), n)]:
            inner = ddf_cut_rate(net, cut)
            r_inner = relaxed_inner_cut(net, cut)
            term = cut_rate_term(net, cut)
            r_upper = cutset_relaxed_cut(net, cut)
            assert r_inner <= inner + 1e-12
            assert inner <= term + 1e-12
            assert term <= r_upper + 1e-12


def test_cutset_cut_rate_validation_and_hadamard():
    rng = np.random.default_rng(23)
    net = random_net(rng, 4)
    cut = Cut([1, 2], 4)
    with pytest.raises(ValueError, match="covariance must be"):
        cutset_cut_rate(net, cut, np.eye(3))
    with pytest.raises(ValueError, match="symmetric"):
        k = np.diag(net.power).copy()
        k[0, 1] = 0.5
        cutset_cut_rate(net, cut, k)
    with pytest.raises(ValueError, match="exceeds the power"):
        cutset_cut_rate(net, cut, np.diag(net.power * 2.0))
    with pytest.raises(ValueError, match="finite"):
        cutset_cut_rate(net, cut, np.diag([math.nan, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="eigenvalue"):
        k = np.diag(net.power).copy()
        k[0, 1] = k[1, 0] = net.power[0] * 5.0
        cutset_cut_rate(net, cut, k)
    # any feasible covariance stays below the relaxed outer bound
    for _ in range(40):
        k = random_feasible_cov(rng, net)
        v = cutset_cut_rate(net, cut, k)
        assert v <= cutset_relaxed_cut(net, cut) + 1e-9
    # diagonal input recovers the full-power rate term
    assert abs(cutset_cut_rate(net, cut, np.diag(net.power)) - cut_rate_term(net, cut)) < 1e-12


def test_ddf_general_reduces_to_default():
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        net = random_net(rng, n, vector_power=True)
        cuts = [Cut([1], n), Cut(range(1, n), n)]
        for cut in cuts:
            got = ddf_cut_rate_general(net, cut, np.diag(net.power), 1.0)
            assert abs(got - ddf_cut_rate(net, cut)) < 1e-9


def test_ddf_general_validation():
    rng = np.random.default_rng(25)
    net = random_net(rng, 3)
    cut = Cut([1], 3)
    with pytest.raises(ValueError, match="sigma_sq"):
        ddf_cut_rate_general(net, cut, np.diag(net.power), np.ones(2))
    with pytest.raises(ValueError, match="positive on the far side"):
        ddf_cut_rate_general(net, cut, np.diag(net.power), 0.0)
    with pytest.raises(ValueError, match="degenerate covariance"):
        k = np.diag(net.power).copy()
        k[2, 2] = 0.0
        ddf_cut_rate_general(net, cut, k)


def test_gap_certificate_exactness():
    rng = np.random.default_rng(26)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            net = random_net(rng, n, lognormal=bool(rng.integers(0, 2)),
                             vector_power=bool(rng.integers(0, 2)))
            cert = gap_certificate(net)
            assert cert.n == n
            assert cert.max_gap == n / 2.0
            assert cert.max_tighter_gap <= n / 2.0 + 1e-9
            for row in cert.rows:
                assert row.gap == n / 2.0
                # the naive float difference agrees to rounding
                assert abs((row.upper - row.inner) - n / 2.0) < 5e-13
                assert abs(row.upper - cutset_relaxed_cut(net, row.cut)) < 1e-12
                assert abs(row.inner - relaxed_inner_cut(net, row.cut)) < 1e-12
                assert abs(row.ddf - ddf_cut_rate(net, row.cut)) < 1e-12
                assert row.tighter_gap <= row.gap + 1e-9
            doc = cert.to_dict()
            assert doc["n"] == n
            assert len(doc["cuts"]) == len(cert.rows)


def test_cutset_estimate_properties():
    rng = np.random.default_rng(27)
    net = random_net(rng, 4)
    cuts_value = min(
        cut_rate_term(net, c)
        for c in [Cut([1], 4), Cut([1, 2], 4), Cut([1, 3], 4), Cut([1, 2, 3], 4)]
    )
    est = cutset_estimate(net, 4, budget=300, seed=0)
    # the diagonal seed is always probed
    assert est.estimate >= cuts_value - 1e-12
    assert est.estimate <= est.relaxed_upper + 1e-9
    assert est.evaluations <= 300 + 4
    # deterministic for a fixed seed
    est2 = cutset_estimate(net, 4, budget=300, seed=0)
    assert est.estimate == est2.estimate
    assert np.array_equal(est.k_best, est2.k_best)
    # the winning covariance is feasible and reproduces the estimate
    v = min(
        cutset_cut_rate(net, c, est.k_best)
        for c in [Cut([1], 4), Cut([1, 2], 4), Cut([1, 3], 4), Cut([1, 2, 3], 4)]
    )
    assert abs(v - est.estimate) < 1e-9
    with pytest.raises(ValueError, match="budget"):
        cutset_estimate(net, 4, budget=0)
    with pytest.raises(ValueError, match="destination"):
        cutset_estimate(net, 1)


def test_cutset_estimate_region_ordering():
    rng = np.random.default_rng(28)
    g = rng.uniform(0.1, 2.0, size=(4, 4))
    np.fill_diagonal(g, 0.0)
    net = GaussianNetwork(4, g, 2.0, [3, 4])
    est_region, relaxed_region = cutset_estimate_region(net, budget=200, seed=0)
    assert est_region.dims == (3, 4)
    assert len(est_region.constraints) == len(relaxed_region.constraints)
    for ce, cr in zip(est_region.constraints, relaxed_region.constraints):
        assert ce.coeff == cr.coeff
        assert ce.cut.s == cr.cut.s
        assert ce.bound <= cr.bound + 1e-9


def test_ddf_region_clamps_and_labels():
    rng = np.random.default_rng(29)
    g = rng.uniform(0.05, 0.3, size=(3, 3))
    np.fill_diagonal(g, 0.0)
    net = GaussianNetwork(3, g, 0.05, [2, 3])
    region = ddf_region(net)
    assert region.dims == (2, 3)
    for c in region.constraints:
        assert c.bound >= 0.0
        raw = ddf_cut_rate(net, c.cut)
        assert c.bound == max(raw, 0.0)
        far = set(c.cut.complement)
        assert c.coeff == tuple(1 if d in far else 0 for d in (2, 3))

    # One constraint per broadcast cut, in enumeration order, with its cut as
    # provenance; the first bound is clamped at zero.
    g = [[0, 0, 0, 0], [1.5, 0, 0.2, 0], [0.8, 0.3, 0, 0.1], [0.05, 1.2, 0.9, 0]]
    docs = ddf_region(GaussianNetwork(4, g, 1.0, [3, 4])).to_dicts()
    assert [(d["cut"], d["coeff"]) for d in docs] == [
        ([1], [1, 1]), ([1, 2], [1, 1]), ([1, 3], [0, 1]),
        ([1, 2, 3], [0, 1]), ([1, 4], [1, 0]), ([1, 2, 4], [1, 0])]
    want = [0.0, 0.3764976724061454, 0.5194396190009337, 0.47117777504824854,
            0.3491715472806398, 0.14391724576792847]
    assert docs[0]["bound"] == 0.0
    assert [d["bound"] for d in docs] == pytest.approx(want, rel=0, abs=1e-12)


def explicit_rate(net, cut, k_cov, rows=None):
    """slogdet of I + G_S K_S G_S^T built from explicit index lists."""
    rows = list(cut.complement) if rows is None else rows
    g = net.gains[np.ix_([r - 1 for r in rows], [j - 1 for j in cut.s])]
    k_s = k_cov[np.ix_([j - 1 for j in cut.s], [j - 1 for j in cut.s])]
    sign, logdet = np.linalg.slogdet(np.eye(len(rows)) + g @ k_s @ g.T)
    assert sign > 0
    return 0.5 * logdet / math.log(2.0)


def test_stacked_kernel_matches_slogdet_on_explicit_submatrices():
    rng = np.random.default_rng(30)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        net = random_net(rng, n, lognormal=bool(rng.integers(0, 2)),
                         vector_power=bool(rng.integers(0, 2)))
        cuts = enumerate_cuts(n, range(2, n + 1), "broadcast")  # every far size
        ks = np.array([random_feasible_cov(rng, net) for _ in range(3)])
        got = _plan_rates(_cut_plan(net, cuts), ks)
        assert got.shape == (3, len(cuts))
        for k_cov, row in zip(ks, got):
            for cut, value in zip(cuts, row):
                want = explicit_rate(net, cut, k_cov)
                assert abs(value - want) <= 1e-12 * max(1.0, abs(want))
        dest = n
        uni = [c for c in cuts if dest in c.complement]
        got = _plan_rates(_cut_plan(net, uni, dest), np.diag(net.power))
        for cut, value in zip(uni, got):
            want = explicit_rate(net, cut, np.diag(net.power), list(cut.complement) + [dest])
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want))


def test_single_cut_apis_equal_batched_rows():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4, 5, 6):
        net = random_net(rng, n, lognormal=True, vector_power=True)
        net = GaussianNetwork(n, net.gains, net.power, range(2, n + 1))
        cert = gap_certificate(net)
        for row in cert.rows:
            assert row.upper == cutset_relaxed_cut(net, row.cut)
            assert row.inner == relaxed_inner_cut(net, row.cut)
            assert row.ddf == ddf_cut_rate(net, row.cut)
            assert row.upper == cut_rate_term(net, row.cut) + len(row.cut.s) / 2.0
        for c, row in zip(ddf_region(net).constraints, cert.rows):
            assert c.bound == max(row.ddf, 0.0)
        cuts = enumerate_cuts(n, {n}, "unicast")
        assert ddf_unicast_rate(net, n) == min(ddf_unicast_cut_rate(net, c, n) for c in cuts)
        est = cutset_estimate(net, n, budget=120, seed=1)
        assert np.array_equal(est.k_best, est.k_best.T)
        assert est.estimate == min(cutset_cut_rate(net, c, est.k_best) for c in cuts)
        assert est.relaxed_upper == min(cutset_relaxed_cut(net, c) for c in cuts)


def test_cutset_estimate_spends_its_budget_and_keeps_its_values():
    # Every budget is spent exactly, budget 1 scores diag(P) alone, and no
    # estimate falls below the one-candidate-per-call search it replaced.
    g = np.random.default_rng(4).lognormal(0.0, 1.0, (5, 5))
    np.fill_diagonal(g, 0.0)
    net = GaussianNetwork(5, g, 10.0, [5])
    assert cutset_estimate(net, 5, budget=1, seed=0).estimate == 2.579214940660187
    floor = {
        1: 2.579214940660187,
        50: 3.4235674162304566,
        200: 3.427070052048134,
        300: 3.427070052048134,
        10_000: 3.427200076185405,
    }
    for budget, value in floor.items():
        est = cutset_estimate(net, 5, budget=budget, seed=0)
        assert est.evaluations == budget
        assert est.estimate >= value - 1e-12


def test_cutset_estimate_finds_the_diamond_optimum():
    for power in (1.0, 10.0, 100.0, 1000.0):
        for d in np.linspace(0.1, 0.9, 17):
            cfg = DiamondConfig.from_distance(float(d), power)
            opt, _ = cutset_diamond_opt(cfg)
            est = cutset_estimate(cfg.to_network(power), 4, budget=200, seed=0).estimate
            assert opt - 1e-3 <= est <= opt + 1e-9, (d, power)


def check_any_snr_invariants(net, dest):
    est = cutset_estimate(net, dest, budget=200, seed=0)
    rate = ddf_unicast_rate(net, dest)
    cert = gap_certificate(net)
    values = [est.estimate, est.relaxed_upper, rate, cert.max_tighter_gap]
    values += [v for r in cert.rows for v in (r.upper, r.inner, r.ddf, r.tighter_gap)]
    assert all(math.isfinite(v) for v in values)
    assert est.estimate <= est.relaxed_upper + 1e-9
    # the budget-limited estimate is only a lower estimate; the relaxation
    # bounds the cutset optimum, and so the DDF rate, at any power
    assert rate <= est.relaxed_upper + 1e-9 * max(1.0, abs(est.relaxed_upper))
    assert cert.max_gap == net.n / 2.0
    assert cert.max_tighter_gap <= net.n / 2.0 + 1e-9
    for k in range(2, net.n + 1):
        assert 0.0 <= node_penalty(net, k) <= 0.5
    # the winning covariance passes validation at any power
    for cut in enumerate_cuts(net.n, {dest}, "unicast"):
        assert cutset_cut_rate(net, cut, est.k_best) >= est.estimate


@pytest.mark.parametrize("power", [1e6, 1e9, 1e12])
def test_high_snr_network_that_once_raised(power):
    # the asymmetry of g diag(P) g^T once failed an absolute 1e-9 test here
    g = np.random.default_rng(0).uniform(0.1, 2.0, size=(4, 4))
    np.fill_diagonal(g, 0.0)
    check_any_snr_invariants(GaussianNetwork(4, g, power, [2, 3, 4]), 4)


@pytest.mark.xfail(strict=True, reason="the covariance search misses the cutset "
                   "optimum by 0.82 bits on this high-SNR network")
def test_search_estimate_reaches_ddf_rate_at_high_snr():
    # The last of 290 draws of a sweep: n = 6, gains spread over six
    # decades, P = 4.05e11, destination 2.  The DDF rate is 30.4727 and the
    # budget-200 estimate 29.6479, so a lower estimate of the cutset optimum
    # sits below an inner bound: the search missed.
    rng = np.random.default_rng(123)
    for _ in range(290):
        n = int(rng.integers(3, 7))
        g = 10.0 ** rng.uniform(-3.0, 3.0, (n, n))
        power = float(10.0 ** rng.uniform(-3.0, 12.0))
        dest = int(rng.integers(2, n + 1))
    assert (n, power, dest) == (6, 405353763245.0412, 2)
    np.fill_diagonal(g, 0.0)
    net = GaussianNetwork(n, g, power, [dest])
    estimate = cutset_estimate(net, dest, budget=200).estimate
    assert ddf_unicast_rate(net, dest) <= estimate + 1e-9


def test_invariants_over_powers_and_gain_spreads():
    rng = np.random.default_rng(32)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        g = rng.lognormal(0.0, 2.0, size=(n, n))
        np.fill_diagonal(g, 0.0)
        power = float(10.0 ** rng.uniform(-3.0, 12.0))
        net = GaussianNetwork(n, g, power, range(2, n + 1))
        check_any_snr_invariants(net, int(rng.integers(2, n + 1)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 6),
    log10_gains=st.lists(st.floats(-3.0, 3.0), min_size=36, max_size=36),
    log10_p=st.floats(-3.0, 12.0),
    dest_pick=st.integers(0, 4),
)
def test_gaussian_evaluators_hold_their_invariants(n, log10_gains, log10_p, dest_pick):
    g = 10.0 ** np.array(log10_gains[: n * n]).reshape(n, n)
    np.fill_diagonal(g, 0.0)
    net = GaussianNetwork(n, g, 10.0**log10_p, range(2, n + 1))
    dest = 2 + dest_pick % (n - 1)
    cuts = enumerate_cuts(n, {dest}, "unicast")
    est = cutset_estimate(net, dest, budget=60, seed=0)
    rate = ddf_unicast_rate(net, dest)
    cert = gap_certificate(net)
    diag = min(cut_rate_term(net, c) for c in cuts)
    values = [est.estimate, est.relaxed_upper, rate, diag, cert.max_tighter_gap]
    values += [v for r in cert.rows for v in (r.upper, r.inner, r.ddf, r.tighter_gap)]
    assert all(math.isfinite(v) for v in values)
    tol = 1e-9 * max(1.0, abs(est.relaxed_upper))
    assert diag <= est.estimate <= est.relaxed_upper + tol
    # no rate <= estimate: a budget-limited search may stop below the DDF rate
    assert rate <= est.relaxed_upper + tol
    assert cert.max_gap == n / 2.0
    assert cert.max_tighter_gap <= n / 2.0 + 1e-9
    for k in range(2, n + 1):
        assert 0.0 <= node_penalty(net, k) <= 0.5
    for cut in cuts:
        assert cutset_cut_rate(net, cut, est.k_best) >= est.estimate
    again = cutset_estimate(net, dest, budget=60, seed=0)
    assert again.estimate == est.estimate
    assert np.array_equal(again.k_best, est.k_best)
