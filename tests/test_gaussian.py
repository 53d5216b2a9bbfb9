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
    cutset_cut_rate,
    cutset_estimate,
    cutset_diamond_opt,
    ddf_rates_general,
    ddf_region,
    ddf_unicast_rate,
    gap_certificate,
    node_penalty,
    penalty_rate,
    received_snr,
)
from relaybound import gaussian
from relaybound.gaussian import _cut_plan, _plan_rates
from relaybound.networks import enumerate_cuts
from tests.covsearch import search_cov_oracle
from tests.exactdet import exact_rate


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


def certificate_rows(net):
    return {row.cut.s: row for row in gap_certificate(net).rows}


def test_cut_rate_term_matches_slogdet():
    # the full-power rate term, read off the certificate's upper and inner rows
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        net = random_net(rng, n, vector_power=bool(rng.integers(0, 2)))
        rows = certificate_rows(net)
        for cut in [Cut([1], n), Cut(range(1, n), n)]:
            far = cut.complement
            g = net.gains[np.ix_([k - 1 for k in far], [j - 1 for j in cut.s])]
            m = g @ np.diag([net.power[j - 1] for j in cut.s]) @ g.T
            want = 0.5 * np.linalg.slogdet(np.eye(len(far)) + m)[1] / math.log(2)
            assert abs(rows[cut.s].upper - len(cut.s) / 2.0 - want) < 1e-9
            assert abs(rows[cut.s].inner + len(far) / 2.0 - want) < 1e-9


def test_two_node_closed_forms():
    # single relay-less hop: cut {1}, dest 2
    s = 3.0
    net = GaussianNetwork(2, np.array([[0.0, 0.0], [math.sqrt(s), 0.0]]), 1.0, [2])
    (row,) = gap_certificate(net).rows
    assert row.cut.s == (1,)
    want_term = 0.5 * math.log2(1.0 + s)
    assert abs(row.upper - (want_term + 0.5)) < 1e-12
    assert abs(row.inner - (want_term - 0.5)) < 1e-12
    pen = 0.5 * math.log2(1.0 + s / (1.0 + s))
    assert abs(row.ddf - (want_term - pen)) < 1e-12
    assert abs(row.ddf - 0.5963225390) < 1e-9
    (general,) = ddf_rates_general(net, np.diag(net.power))
    assert abs(general - (want_term - pen)) < 1e-12
    # the destination's row is stacked twice in the unicast variant, whose
    # one cut is {1}
    want_uni = 0.5 * math.log2(1.0 + 2.0 * s) - pen
    assert abs(ddf_unicast_rate(net, 2) - want_uni) < 1e-12


def test_cut_guards():
    net = GaussianNetwork(3, np.zeros((3, 3)), 1.0, [3])
    power = np.diag(net.power)
    with pytest.raises(ValueError, match="empty far side"):
        cutset_cut_rate(net, Cut([1, 2, 3], 3), power)
    with pytest.raises(ValueError, match="cut is over"):
        cutset_cut_rate(net, Cut([1], 4), power)
    with pytest.raises(ValueError, match="destination"):
        ddf_unicast_rate(net, 1)


def test_relaxed_bounds_ordering():
    # relaxed inner <= ddf <= rate term <= relaxed upper on every row
    rng = np.random.default_rng(22)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        net = random_net(rng, n, lognormal=bool(rng.integers(0, 2)))
        for row in gap_certificate(net).rows:
            term = cutset_cut_rate(net, row.cut, np.diag(net.power))
            assert row.inner <= row.ddf + 1e-12
            assert row.ddf <= term + 1e-12
            assert term <= row.upper + 1e-12


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
    upper = certificate_rows(net)[cut.s].upper
    for _ in range(40):
        k = random_feasible_cov(rng, net)
        v = cutset_cut_rate(net, cut, k)
        assert v <= upper + 1e-9
    # diagonal input recovers the full-power rate term
    term = upper - len(cut.s) / 2.0
    assert abs(cutset_cut_rate(net, cut, np.diag(net.power)) - term) < 1e-12


def random_dests(rng, n):
    picks = rng.integers(0, 2, size=n - 1)
    return [k for k, pick in zip(range(2, n + 1), picks) if pick] or [n]


def test_ddf_general_reduces_to_default():
    # at K = diag(P) and sigma^2 = 1 every row is the certificate's ddf row
    rng = np.random.default_rng(24)
    for n in range(2, 7):
        for vector_power in (False, True):
            for _ in range(4):
                net = random_net(rng, n, vector_power=vector_power)
                net = GaussianNetwork(n, net.gains, net.power, random_dests(rng, n))
                got = ddf_rates_general(net, np.diag(net.power))
                rows = gap_certificate(net).rows
                assert len(got) == len(rows)
                for v, row in zip(got, rows):
                    assert abs(v - row.ddf) <= 1e-9 * max(1.0, abs(row.ddf))


def test_ddf_general_validation():
    rng = np.random.default_rng(25)
    net = random_net(rng, 3)
    power = np.diag(net.power)
    with pytest.raises(ValueError, match="sigma_sq"):
        ddf_rates_general(net, power, np.ones(2))
    for bad in (0.0, [1.0, -1.0, 1.0], [1.0, 1.0, math.nan], [1.0, math.inf, 1.0]):
        with pytest.raises(ValueError, match="positive on the far side"):
            ddf_rates_general(net, power, bad)
    # the source is never on the far side, so its sigma^2 is not read
    assert ddf_rates_general(net, power, [0.0, 1.0, 1.0]) == ddf_rates_general(net, power)
    with pytest.raises(ValueError, match="degenerate covariance"):
        k = power.copy()
        k[2, 2] = 0.0
        ddf_rates_general(net, k)


def explicit_ddf_general(net, cut, k_cov, sigma_sq):
    """The general DDF cut value transcribed term by term: index blocks, the
    Schur complement and slogdet."""
    far = [j - 1 for j in cut.complement]
    near = [j - 1 for j in cut.s]
    k_ff = k_cov[np.ix_(far, far)]
    k_nf = k_cov[np.ix_(near, far)]
    k_cond = k_cov[np.ix_(near, near)] - k_nf @ np.linalg.solve(k_ff, k_nf.T)
    g = net.gains[np.ix_(far, near)]
    sign_obs, obs = np.linalg.slogdet(np.diag(sigma_sq[far]) + g @ k_cond @ g.T)
    sign_far, det_far = np.linalg.slogdet(k_ff)
    assert sign_obs > 0 and sign_far > 0
    total = 0.5 * (obs + det_far) / math.log(2.0)
    for i in far:
        v = net.gains[i]
        cross = v @ k_cov[:, i]
        s = max(v @ k_cov @ v - cross * cross / k_cov[i, i], 0.0)
        total -= 0.5 * math.log2(sigma_sq[i] + s / (1.0 + s)) + 0.5 * math.log2(k_cov[i, i])
    return total


def test_ddf_general_matches_the_explicit_schur_transcription():
    rng = np.random.default_rng(33)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        g = 10.0 ** rng.uniform(-1.0, 1.0, (n, n))
        np.fill_diagonal(g, 0.0)
        net = GaussianNetwork(n, g, 10.0 ** rng.uniform(-1.0, 3.0, n), random_dests(rng, n))
        k = random_feasible_cov(rng, net)
        sigma_sq = 10.0 ** rng.uniform(-1.0, 1.0, n)
        cuts = enumerate_cuts(n, net.destinations, "broadcast")
        got = ddf_rates_general(net, k, sigma_sq)
        assert len(got) == len(cuts)
        for cut, v in zip(cuts, got):
            want = explicit_ddf_general(net, cut, k, sigma_sq)
            assert abs(v - want) <= 1e-9 * max(1.0, abs(want))


def test_ddf_general_rows_do_not_depend_on_the_stack_size(monkeypatch):
    rng = np.random.default_rng(34)
    net = random_net(rng, 6, lognormal=True, vector_power=True)
    net = GaussianNetwork(6, net.gains, net.power, range(2, 7))
    k = random_feasible_cov(rng, net)
    sigma_sq = 10.0 ** rng.uniform(-1.0, 1.0, 6)
    whole = ddf_rates_general(net, k, sigma_sq)
    assert len(whole) == 31
    monkeypatch.setattr(gaussian, "_STACK", 3)
    assert ddf_rates_general(net, k, sigma_sq) == whole


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
                # each row against the slogdet of its explicit submatrices
                term = explicit_rate(net, row.cut, np.diag(net.power))
                pen = sum(node_penalty(net, k) for k in row.cut.complement)
                tol = 1e-12 * max(1.0, abs(term))
                assert abs(row.upper - (term + len(row.cut.s) / 2.0)) < tol
                assert abs(row.inner - (term - len(row.cut.complement) / 2.0)) < tol
                assert abs(row.ddf - (term - pen)) < tol
                assert row.tighter_gap <= row.gap + 1e-9
            doc = cert.to_dict()
            assert doc["n"] == n
            assert len(doc["cuts"]) == len(cert.rows)


def test_cutset_estimate_properties():
    rng = np.random.default_rng(27)
    net = random_net(rng, 4)
    cuts_value = min(
        cutset_cut_rate(net, c, np.diag(net.power))
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


def test_ddf_region_clamps_and_labels():
    rng = np.random.default_rng(29)
    g = rng.uniform(0.05, 0.3, size=(3, 3))
    np.fill_diagonal(g, 0.0)
    net = GaussianNetwork(3, g, 0.05, [2, 3])
    region = ddf_region(net)
    assert region.dims == (2, 3)
    for c, row in zip(region.constraints, gap_certificate(net).rows, strict=True):
        assert c.bound >= 0.0
        assert c.cut.s == row.cut.s
        assert c.bound == max(row.ddf, 0.0)
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
        power = np.diag(net.power)
        for row in cert.rows:
            term = cutset_cut_rate(net, row.cut, power)
            assert row.upper == term + len(row.cut.s) / 2.0
            assert row.inner == term - len(row.cut.complement) / 2.0
        for c, row in zip(ddf_region(net).constraints, cert.rows):
            assert c.bound == max(row.ddf, 0.0)
        cuts = enumerate_cuts(n, {n}, "unicast")
        est = cutset_estimate(net, n, budget=120, seed=1)
        assert np.array_equal(est.k_best, est.k_best.T)
        assert est.estimate == min(cutset_cut_rate(net, c, est.k_best) for c in cuts)
        assert est.relaxed_upper == min(cutset_cut_rate(net, c, power) + len(c.s) / 2.0
                                        for c in cuts)


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


def oracle_nets():
    """Networks for the search oracle, each with one destination: a third
    each with uniform(0.1, 2), lognormal(0, 2) and 10^U(-3, 3) gains, the
    last two kept only when their diag(P) Gram slices stay at or below 1e5;
    last, one n = 10 network."""
    rng = np.random.default_rng(35)
    nets = []
    while len(nets) < 24:
        n = int(rng.integers(3, 7))
        family = len(nets) % 3
        if family == 0:
            g = rng.uniform(0.1, 2.0, (n, n))
        elif family == 1:
            g = rng.lognormal(0.0, 2.0, (n, n))
        else:
            g = 10.0 ** rng.uniform(-3.0, 3.0, (n, n))
        np.fill_diagonal(g, 0.0)
        net = GaussianNetwork(n, g, float(10.0 ** rng.uniform(-3.0, 4.0)), range(2, n + 1))
        plan = _cut_plan(net, enumerate_cuts(n, net.destinations, "broadcast"))
        if family == 0 or np.abs(plan * net.power @ plan.swapaxes(-1, -2)).max() <= 1e5:
            nets.append((net, int(rng.integers(2, n + 1))))
    g = np.random.default_rng(30).uniform(0.1, 2.0, (10, 10))
    np.fill_diagonal(g, 0.0)
    return nets + [(GaussianNetwork(10, g, 3.0, [10]), 10)]


def test_covariance_search_matches_the_kernel_scored_oracle():
    # The closed-form bracket and the binding-cut screening of the hill-climb
    # give the estimate and evaluation count of scoring every candidate on
    # every cut, bit for bit, on unicast and broadcast plans and at budgets
    # that cut a bracket level short.  On n = 10 the 256 unicast cuts leave
    # 16 candidates per kernel stack, and at budget 200 the first hill-climb
    # round completes 17 of its 24 candidates, in two stacks.
    for net, dest in oracle_nets():
        plans = [_cut_plan(net, enumerate_cuts(net.n, {dest}, "unicast"))]
        if net.n < 10:
            plans.append(_cut_plan(net, enumerate_cuts(net.n, net.destinations, "broadcast")))
        for plan in plans:
            for budget in (1, 2, 17, 33, 60, 200, 1000):
                best_v, best_k, terms, evals = gaussian._search_cov(net, plan, budget, 0)
                want_v, _, want_terms, want_evals = search_cov_oracle(net, plan, budget, 0)
                assert (best_v, evals) == (want_v, want_evals), (net.n, dest, budget)
                assert np.array_equal(terms, want_terms)
                assert _plan_rates(plan, best_k).min() == best_v


def test_cutset_estimate_finds_the_diamond_optimum():
    for power in (1.0, 10.0, 100.0, 1000.0):
        for d in np.linspace(0.1, 0.9, 17):
            cfg = DiamondConfig.from_distance(float(d), power)
            opt, _ = cutset_diamond_opt(cfg)
            est = cutset_estimate(cfg.to_network(power), 4, budget=200, seed=0).estimate
            assert opt - 1e-3 <= est <= opt + 1e-9, (d, power)


def profile_oracle(net, dest, rhos):
    """The best min-over-unicast-cuts value on both one-parameter rho profiles
    (rho between every pair of relays, then between every pair of nodes),
    each cut's log-det by slogdet on its explicit gain and covariance blocks."""
    n, d = net.n, np.sqrt(net.power)
    off = np.ones((n, n)) - np.eye(n)
    relays = off.copy()
    relays[0, :] = relays[:, 0] = 0.0
    corr = np.eye(n) + np.concatenate([rhos[:, None, None] * relays, rhos[:, None, None] * off])
    ks = corr * np.outer(d, d)
    worst = np.full(len(ks), np.inf)
    for cut in enumerate_cuts(n, {dest}, "unicast"):
        near, far = [j - 1 for j in cut.s], [j - 1 for j in cut.complement]
        g = net.gains[np.ix_(far, near)]
        sign, logdet = np.linalg.slogdet(np.eye(len(far)) + g @ ks[:, near][:, :, near] @ g.T)
        assert np.all(sign > 0)
        worst = np.minimum(worst, 0.5 * logdet / math.log(2.0))
    return float(worst.max())


def test_bracket_search_reaches_the_best_profile_point():
    # Each rho-profile is concave in rho, so at budget 113, where all six
    # bracket levels run, the search is never below a fine grid of the profiles.
    rng = np.random.default_rng(33)
    rhos = np.linspace(0.0, 0.999, 201)
    for i in range(60):
        n = int(rng.integers(3, 7))
        g = rng.lognormal(0.0, 1.0, (n, n)) if i % 2 else rng.uniform(0.1, 2.0, (n, n))
        np.fill_diagonal(g, 0.0)
        dest = int(rng.integers(2, n + 1))
        net = GaussianNetwork(n, g, float(10.0 ** rng.uniform(-2.0, 6.0)), [dest])
        want = profile_oracle(net, dest, rhos)
        est = cutset_estimate(net, dest, budget=113, seed=0).estimate
        assert est >= want - 1e-9 * max(1.0, abs(want)), (i, est, want)


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
    # the winning covariance passes validation at any power, and the search
    # never ends below diag(P)
    cuts = enumerate_cuts(net.n, {dest}, "unicast")
    for cut in cuts:
        assert cutset_cut_rate(net, cut, est.k_best) >= est.estimate
    assert est.estimate >= min(cutset_cut_rate(net, c, np.diag(net.power)) for c in cuts)


@pytest.mark.parametrize("power", [1e6, 1e9, 1e12])
def test_high_snr_network_that_once_raised(power):
    # the asymmetry of g diag(P) g^T once failed an absolute 1e-9 test here
    g = np.random.default_rng(0).uniform(0.1, 2.0, size=(4, 4))
    np.fill_diagonal(g, 0.0)
    check_any_snr_invariants(GaussianNetwork(4, g, power, [2, 3, 4]), 4)


def test_search_estimate_reaches_ddf_rate_at_high_snr():
    # A kernel regression test.  The last of 290 draws of a sweep: n = 6,
    # gains spread over six decades, P = 4.05e11, destination 2.  In exact
    # arithmetic the DDF rate is 27.058 and the cutset value at diag(P)
    # 29.159.  Factoring the rounded Gram I + A K A^T gave 30.473 and 29.648,
    # which put an inner bound 0.82 bits above a lower estimate of the
    # cutset optimum.
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


def high_snr_draws():
    """Draws 91 and 94 of a 10^U(-3, 3)-gain sweep: n = 5, P = 4.80e11,
    destination 4, and n = 6, P = 1.38e11, destination 5.  On both a
    Cholesky factor of some cut's I + A diag(P) A^T fails."""
    rng = np.random.default_rng(1)
    for i in range(95):
        n = int(rng.integers(3, 7))
        g = 10.0 ** rng.uniform(-3.0, 3.0, (n, n))
        np.fill_diagonal(g, 0.0)
        power = float(10.0 ** rng.uniform(-3.0, 12.0))
        dest = int(rng.integers(2, n + 1))
        if i in (91, 94):
            yield GaussianNetwork(n, g, power, range(2, n + 1)), dest


def test_invariants_over_powers_and_gain_spreads():
    rng = np.random.default_rng(32)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        g = rng.lognormal(0.0, 2.0, size=(n, n))
        np.fill_diagonal(g, 0.0)
        power = float(10.0 ** rng.uniform(-3.0, 12.0))
        net = GaussianNetwork(n, g, power, range(2, n + 1))
        check_any_snr_invariants(net, int(rng.integers(2, n + 1)))
    draws = list(high_snr_draws())
    assert [(net.n, f"{net.power[0]:.2e}", dest) for net, dest in draws] == [
        (5, "4.80e+11", 4), (6, "1.38e+11", 5)]
    for net, dest in draws:
        check_any_snr_invariants(net, dest)


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
    diag = min(cutset_cut_rate(net, c, np.diag(net.power)) for c in cuts)
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


GAIN_FAMILIES = {
    "uniform": lambda rng, n: rng.uniform(0.1, 2.0, (n, n)),
    "lognormal": lambda rng, n: rng.lognormal(0.0, 2.0, (n, n)),
    "decades": lambda rng, n: 10.0 ** rng.uniform(-3.0, 3.0, (n, n)),
}


def exact_terms(net, cuts, k_cov, dest=None):
    """Each cut's rate term by the exact oracle, on the explicit blocks: the
    far-side rows (and the destination's row once more) by the source-side
    columns of G, and K over the source side."""
    terms = []
    for cut in cuts:
        near = [j - 1 for j in cut.s]
        far = [j - 1 for j in cut.complement] + ([dest - 1] if dest else [])
        terms.append(exact_rate(net.gains[np.ix_(far, near)], k_cov[np.ix_(near, near)]))
    return np.array(terms)


@pytest.mark.parametrize("family", sorted(GAIN_FAMILIES))
def test_every_kernel_row_matches_exact_rationals(family):
    # The rows of the cut plans, the certificate, the DDF rate and the
    # estimate, each within 1e-9 bits of the exact determinant of I + A K A^T
    # on the same float inputs, for powers up to 1e12.
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        g = GAIN_FAMILIES[family](rng, n)
        np.fill_diagonal(g, 0.0)
        net = GaussianNetwork(n, g, float(10.0 ** rng.uniform(-3.0, 12.0)), range(2, n + 1))
        dest = int(rng.integers(2, n + 1))
        ucuts = enumerate_cuts(n, {dest}, "unicast")
        bcuts = enumerate_cuts(n, net.destinations, "broadcast")
        for k in (np.diag(net.power), random_feasible_cov(rng, net)):
            for cuts, d in ((ucuts, None), (ucuts, dest), (bcuts, None)):
                got = _plan_rates(_cut_plan(net, cuts, d), k)
                assert np.abs(got - exact_terms(net, cuts, k, d)).max() <= 1e-9
        pen = {k: node_penalty(net, k) for k in range(2, n + 1)}
        terms = exact_terms(net, bcuts, np.diag(net.power))
        for row, term in zip(gap_certificate(net).rows, terms):
            assert abs(row.upper - (term + len(row.cut.s) / 2.0)) <= 1e-9
            assert abs(row.ddf - (term - sum(pen[k] for k in row.cut.complement))) <= 1e-9
        terms = exact_terms(net, ucuts, np.diag(net.power), dest)
        rate = min(t - sum(pen[k] for k in c.complement) for c, t in zip(ucuts, terms))
        assert abs(ddf_unicast_rate(net, dest) - rate) <= 1e-9
        est = cutset_estimate(net, dest, budget=60, seed=0)
        assert abs(est.estimate - exact_terms(net, ucuts, est.k_best).min()) <= 1e-9


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 6),
    log10_gains=st.lists(st.floats(-3.0, 3.0), min_size=36, max_size=36),
    log10_p=st.floats(-3.0, 12.0),
)
def test_cut_function_is_submodular_at_full_power(n, log10_gains, log10_p):
    # With independent inputs the cut value f(S), S the source side, is
    # submodular over the sides that hold node 1 (Parvaresh and Etkin, IEEE
    # Trans. IT 2014); f(V) = 0.  No oracle: the kernel against itself, at the
    # drawn power and at 1e12, the top of the range, where rounding is worst.
    g = 10.0 ** np.array(log10_gains[: n * n]).reshape(n, n)
    np.fill_diagonal(g, 0.0)
    for power in (10.0**log10_p, 1e12):
        net = GaussianNetwork(n, g, power, range(2, n + 1))
        cuts = enumerate_cuts(n, net.destinations, "broadcast")
        f = dict(zip((sum(1 << (k - 1) for k in c.s) for c in cuts),
                     _plan_rates(_cut_plan(net, cuts), np.diag(net.power)).tolist()))
        f[(1 << n) - 1] = 0.0
        for a in f:
            for b in f:
                assert f[a | b] + f[a & b] <= f[a] + f[b] + 1e-9, (power, a, b)
