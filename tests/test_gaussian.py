"""Gaussian inner/outer bound checks against independent arithmetic oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaybound import (
    Cut,
    DiamondConfig,
    GaussianNetwork,
    SchemaError,
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
from relaybound.diamond import cutset_diamond_terms
from relaybound.dm import DmInstance, ddf_unicast_dm
from relaybound.gaussian import _cut_plan, _plan_rates
from relaybound.networks import enumerate_cuts
from tests.covsearch import search_cov_oracle
from tests.cutterms import j_oracle
from tests.exactdet import exact_ddf_row, exact_rate


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
    for bad in (0.0, [1.0, -1.0, 1.0]):
        with pytest.raises(ValueError, match="positive on the far side"):
            ddf_rates_general(net, power, bad)
    for bad, message in (([1.0, 1.0, math.nan], r"sigma_sq\[2\]: must be finite, got nan"),
                         ([1.0, math.inf, 1.0], r"sigma_sq\[1\]: must be finite, got inf"),
                         (math.nan, "sigma_sq: must be finite, got nan")):
        with pytest.raises(SchemaError, match=message):
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


def full_power_family():
    """60 draws: n = 3-5, gains uniform(0.1, 2), per-node P = 10^U(-3, 12),
    a random K with K_jj = P_j, and per-node sigma^2 = 10^U(-1, 1)."""
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(3, 6))
        g = rng.uniform(0.1, 2.0, (n, n))
        np.fill_diagonal(g, 0.0)
        net = GaussianNetwork(n, g, 10.0 ** rng.uniform(-3.0, 12.0, n), random_dests(rng, n))
        a = rng.standard_normal((n, n + 2))
        c = a @ a.T
        d = np.sqrt(np.diag(c) / net.power)
        yield net, c / np.outer(d, d), 10.0 ** rng.uniform(-1.0, 1.0, n)


def test_ddf_general_rows_are_the_per_cut_oracle_bits():
    # the rows run dm's cut program on the Gaussian joint; the per-cut loop
    # it replaced gives the same bits
    for net, k, sigma_sq in full_power_family():
        rows = ddf_rates_general(net, k, sigma_sq)
        joint = gaussian._GaussianJoint(net, gaussian._validate_cov(net, k), sigma_sq)
        want = j_oracle(DmInstance(joint, net.n, net.destinations), net.destinations)
        assert [v.hex() for v in rows] == [v.hex() for v in want]


def exact_rows_worst(net):
    """The largest distance of ``ddf_rates_general``'s rows at K = diag(P),
    sigma^2 = 1 from their exact rational values."""
    got = ddf_rates_general(net, np.diag(net.power))
    cuts = enumerate_cuts(net.n, net.destinations, "broadcast")
    return max(abs(v - exact_ddf_row(net.gains, net.power, [j - 1 for j in cut.s]))
               for cut, v in zip(cuts, got, strict=True))


def test_ddf_general_rows_are_exact_at_any_snr():
    # a common power up to 1e12 and gains over six decades; a Cholesky of
    # the rounded 2n x 2n block once put these rows off by up to 1.35e-2 bits
    rng = np.random.default_rng(5)
    for i in range(60):
        n = int(rng.integers(3, 6))
        g = 10.0 ** rng.uniform(-3.0, 3.0, (n, n))
        np.fill_diagonal(g, 0.0)
        net = GaussianNetwork(n, g, float(10.0 ** rng.uniform(-3.0, 12.0)), [n])
        assert exact_rows_worst(net) <= 1e-9, i


def test_ddf_general_rows_are_exact_with_per_node_powers_and_sparse_gains():
    # the rounded 2n x 2n block once raised "degenerate covariance" on draw
    # 10 and was off by up to 0.53 bits on the others
    rng = np.random.default_rng(11)
    for i in range(40):
        n = int(rng.integers(2, 7))
        g = 10.0 ** rng.uniform(-3.0, 3.0, (n, n))
        np.fill_diagonal(g, 0.0)
        if rng.random() < 0.3:
            g[rng.random((n, n)) < 0.4] = 0.0
        power = 10.0 ** rng.uniform(-3.0, 12.0, n)
        dests = sorted({int(d) for d in rng.integers(2, n + 1, 2)})
        assert exact_rows_worst(GaussianNetwork(n, g, power, dests)) <= 1e-7, i


def test_unicast_rate_is_the_dm_functional_on_the_gaussian_joint():
    # y_dest joins the first term, as in ddf_unicast_dm: the same functional
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(3, 6))
        g = rng.uniform(0.1, 2.0, (n, n))
        np.fill_diagonal(g, 0.0)
        net = GaussianNetwork(n, g, float(10.0 ** rng.uniform(0.0, 2.0)), [n])
        joint = DmInstance(gaussian._GaussianJoint(net, np.diag(net.power), np.ones(n)), n, [n])
        assert abs(ddf_unicast_dm(joint, n)[0] - ddf_unicast_rate(net, n)) <= 1e-12


def test_gaussian_joint_gives_the_diamond_cutset_terms():
    # I(X(S); Y(S^c) | X(S^c)) conditions on the far-side inputs, so with
    # correlated relays it is not the plan kernel's near-block value
    for cfg in (DiamondConfig(1000.0, 3.0, 1.0, 1.0), DiamondConfig(50.0, 4.0, 2.0, 2.0),
                DiamondConfig.from_distance(0.3, 10.0)):
        net = cfg.to_network(1.0)
        for rho in (0.0, 0.5, 0.9):
            k = np.eye(4)
            k[1, 2] = k[2, 1] = rho
            joint = DmInstance(gaussian._GaussianJoint(net, k, np.ones(4)), 4, [4])
            want = dict(zip([(1,), (1, 2), (1, 3), (1, 2, 3)], cutset_diamond_terms(cfg, rho)))
            for cut in enumerate_cuts(4, {4}, "unicast"):
                far = cut.complement
                got = joint.mi(sum(joint.x[j] for j in cut.s), sum(joint.y[j] for j in far),
                               sum(joint.x[j] for j in far))
                assert abs(got - want[cut.s]) <= 1e-12, (cfg, rho, cut.s)


@pytest.mark.xfail(strict=True, reason="the plan kernel scores the near-side block K(S), "
                   "not K(S|S^c), so correlated relays inflate the cut terms")
def test_cutset_estimate_never_exceeds_the_diamond_optimum():
    for cfg in (DiamondConfig(1000.0, 3.0, 1.0, 1.0), DiamondConfig(50.0, 4.0, 2.0, 2.0)):
        opt, _ = cutset_diamond_opt(cfg)
        est = cutset_estimate(cfg.to_network(1.0), 4, budget=200, seed=0).estimate
        assert est <= opt + 1e-9, (cfg, est, opt)


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


def _plan_uncached(net, cuts, dest=None):
    """A cut plan built without the cache: the gains where the row is far
    and the column near, the destination's row appended once more."""
    masks = np.array([sum(1 << (k - 1) for k in cut.s) for cut in cuts], dtype=np.int64)
    near = (masks[:, None] >> np.arange(net.n)) & 1 == 1
    plan = np.where(~near[:, :, None] & near[:, None, :], net.gains, 0.0)
    if dest is not None:
        plan = np.concatenate([plan, plan[:, dest - 1 : dest]], axis=1)
    return plan


def test_cut_patterns_are_kept_read_only_in_a_bounded_cache():
    rng = np.random.default_rng(43)
    for n in range(2, 9):
        net = random_net(rng, n)
        lists = [(enumerate_cuts(n, {d}, "unicast"), d) for d in range(2, n + 1)]
        for bits in range(1, 1 << (n - 1)):
            dests = [k for k in range(2, n + 1) if bits >> (k - 2) & 1]
            lists.append((enumerate_cuts(n, dests, "broadcast"), dests[-1]))
        for cuts, dest in lists:
            for d in (None, dest):
                want = _plan_uncached(net, cuts, d)
                for _ in range(2):  # built, then read from the cache
                    plan = _cut_plan(net, cuts, d)
                    assert plan.shape == want.shape and np.array_equal(plan, want)
                    plan[...] = -1.0  # the caller's own array
                pattern, rows = gaussian._cut_pattern(n, tuple(c.s for c in cuts), d)
                assert not pattern.flags.writeable
                assert d is None or not rows.flags.writeable
    info = gaussian._cut_pattern.cache_info()
    assert info.maxsize is not None and 0 < info.currsize <= info.maxsize
    # past the table size nothing is kept
    n = 13
    net = random_net(rng, n)
    cuts = [Cut([1, 4, 7], n), Cut(range(1, n), n)]
    gaussian._cut_pattern.cache_clear()
    assert np.array_equal(_cut_plan(net, cuts, n), _plan_uncached(net, cuts, n))
    assert gaussian._cut_pattern.cache_info().currsize == 0


def test_single_cut_rate_keeps_its_bits(monkeypatch):
    # cutset_cut_rate on one cut: the uncached plan's Gram, then the kernel's
    # steps on it, bit for bit, at diag(P) and at a correlated K.  The kernel
    # is handed Grams equal to their transposes, which it takes without its
    # scale and asymmetry passes.
    kernel = gaussian.log_det_rate

    def symmetric_only(m):
        assert (m == m.swapaxes(-1, -2)).all()
        return kernel(m)

    monkeypatch.setattr(gaussian, "log_det_rate", symmetric_only)
    rng = np.random.default_rng(44)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        net = random_net(rng, n, lognormal=True)
        for k_cov in (np.diag(net.power), random_feasible_cov(rng, net)):
            k = 0.5 * (k_cov + k_cov.T)  # as the covariance check leaves it
            for cut in enumerate_cuts(n, range(2, n + 1), "broadcast"):
                plan = _plan_uncached(net, [cut])
                gram = plan @ k @ plan.swapaxes(-1, -2)
                if gram.max() > gaussian._GRAM_GATE:
                    continue
                sym = 0.5 * (gram + gram.swapaxes(-1, -2))
                chol = np.linalg.cholesky(np.eye(n) + sym)
                want = float(np.log2(chol.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)[0])
                assert cutset_cut_rate(net, cut, k_cov) == want


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
    gaussian._normals.cache_clear()
    assert cutset_estimate(net, 5, budget=1, seed=0).estimate == 2.579214940660187
    assert gaussian._normals.cache_info().misses == 0  # no round, no normals drawn
    with pytest.raises(SchemaError, match="seed: must be nonnegative, got -1"):
        cutset_estimate(net, 5, budget=1, seed=-1)
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


def block_cases(trace, n):
    """The hill-climb block edges that a search meets, from the oracle's
    per-round ``trace``, with blocks as ``gaussian._search_cov`` forms them:
    at most ``_BLOCK`` rounds, within draws of at most ``_NORMALS_CAP``
    normals once all the rounds' normals pass it ("drawn").  A block of
    several rounds ends at a move in its first, an inner or its last round
    ("first", "inner", "last"), or at a draw's end ("draw edge"); the
    budget cuts the last round short in a block of one round or several
    ("mid-round", "mid-block")."""
    rounds = len(trace)
    per = max(1, gaussian._NORMALS_CAP // (gaussian._ROUND * n * n))
    cases = {"drawn"} if rounds > per else set()
    per = min(per, rounds)
    start = 0
    while start < rounds:
        end = min(start + gaussian._BLOCK, (start // per + 1) * per, rounds)
        moved = [r for r in range(start, end) if trace[r][1]]
        if end - start > 1 and moved:
            cases.add({start: "first", end - 1: "last"}.get(moved[0], "inner"))
        if end - start < gaussian._BLOCK and end % per == 0 and end < rounds and not moved:
            cases.add("draw edge")
        if end == rounds and trace[-1][0] < gaussian._ROUND:
            cases.add("mid-round" if end - start == 1 else "mid-block")
        start = moved[0] + 1 if moved else end
    return cases


def test_covariance_search_matches_the_kernel_scored_oracle():
    # The closed-form bracket and the block-screened hill-climb give the
    # estimate and evaluation count of scoring every candidate on every cut,
    # round by round, bit for bit, on unicast and broadcast plans and at
    # budgets that cut a bracket level short.  On n = 10 the 256 unicast
    # cuts leave 16 candidates per kernel stack, and at budget 200 the first
    # hill-climb round completes 17 of its 24 candidates, in two stacks; at
    # budgets 1000 and 2000 its normals pass _NORMALS_CAP.  The inputs meet
    # every block edge of ``block_cases``.
    cases = set()
    for net, dest in oracle_nets():
        plans = [_cut_plan(net, enumerate_cuts(net.n, {dest}, "unicast"))]
        if net.n < 10:
            plans.append(_cut_plan(net, enumerate_cuts(net.n, net.destinations, "broadcast")))
        for plan in plans:
            for budget in (1, 2, 17, 33, 60, 200, 1000) + ((2000,) if net.n == 10 else ()):
                best_v, best_k, terms, evals = gaussian._search_cov(net, plan, budget, 0)
                trace = []
                want_v, _, want_terms, want_evals = search_cov_oracle(net, plan, budget, 0, trace)
                assert (best_v, evals) == (want_v, want_evals), (net.n, dest, budget)
                assert np.array_equal(terms, want_terms)
                assert _plan_rates(plan, best_k).min() == best_v
                cases |= block_cases(trace, net.n)
    assert cases == {"first", "inner", "last", "draw edge", "mid-round", "mid-block", "drawn"}


def test_covariance_search_matches_the_oracle_past_the_gram_gate():
    # The bracket scores its profiles from eigh of the Gram, which the kernel
    # leaves for the singular values past _GRAM_GATE.  On the draws whose
    # unicast Gram at diag(P) passes the gate, its picks still match the
    # kernel-scored oracle: the estimates differ by rounding only, and those
    # of draw 91 (P = 4.80e11) not at all at either budget.
    past_gate = 0
    for net, dest in gain_spread_sweep():
        plan = _cut_plan(net, enumerate_cuts(net.n, {dest}, "unicast"))
        if (plan @ np.diag(net.power) @ plan.swapaxes(-1, -2)).max() <= gaussian._GRAM_GATE:
            continue
        past_gate += 1
        for budget in (17, 200):
            best_v, _, terms, evals = gaussian._search_cov(net, plan, budget, 0)
            want_v, _, want_terms, want_evals = search_cov_oracle(net, plan, budget, 0)
            assert evals == want_evals, (net.n, dest, budget)
            assert np.array_equal(terms, want_terms)
            assert abs(best_v - want_v) <= 1e-12, (net.n, dest, budget)
    assert past_gate == 67


def test_rho_grid_is_linspace_bit_for_bit():
    # random brackets in [0, 0.999], spans down to 1e-12 and 0, and each
    # again with one profile's lo == hi, where linspace takes its zero-step
    # branch for both profiles
    rng = np.random.default_rng(31)
    grids = [(np.zeros(2), np.full(2, 0.999))]
    for span in (None, 1e-3, 1e-6, 1e-9, 1e-12, 0.0):
        for _ in range(200):
            if span is None:
                lo, hi = np.sort(rng.uniform(0.0, 0.999, (2, 2)), axis=0)
            else:
                lo = rng.uniform(0.0, 0.999 - span, 2)
                hi = lo + span * rng.uniform(0.0, 1.0, 2)
            grids += [(lo, hi), (lo, np.where(np.arange(2) == rng.integers(2), lo, hi))]
    for lo, hi in grids:
        rhos, steps = gaussian._rho_grid(lo.tolist(), hi.tolist())
        assert {type(v) for v in steps + rhos[0] + rhos[1]} == {float}
        want = np.linspace(lo, hi, gaussian._POINTS, axis=1)
        assert np.array(rhos).tobytes() == want.tobytes(), (lo, hi)
        assert np.array(steps).tobytes() == ((hi - lo) / (gaussian._POINTS - 1)).tobytes()


def test_hill_climb_normals_are_the_per_round_stream():
    # One block draw gives the normals of successive per-round draws, bit
    # for bit, whether it comes from the cache or is drawn uncached; a
    # cached block is read-only and the cache is bounded.
    for seed in range(10):
        for n in range(2, 11):
            rounds = 1 + (seed + n) % 4
            rng = np.random.default_rng(seed)
            want = [rng.standard_normal((gaussian._ROUND, n, n)) for _ in range(rounds)]
            for block in (gaussian._normals(seed, rounds, n),
                          gaussian._normals.__wrapped__(seed, rounds, n)):
                assert block.shape == (rounds, gaussian._ROUND, n, n)
                assert all(np.array_equal(b, w) for b, w in zip(block, want))
            assert not gaussian._normals(seed, rounds, n).flags.writeable
    info = gaussian._normals.cache_info()
    assert info.maxsize * gaussian._NORMALS_CAP * 8 <= 2 << 20
    assert 0 < info.currsize <= info.maxsize


#: log_det_rate calls of cutset_estimate per (n, budget) on the networks of
#: ``test_covariance_search_keeps_its_kernel_calls``: one for diag(P), one for
#: the bracket's winner, and per hill-climb block one on the binding cut plus,
#: for each round with candidates that pass it, the stacks of those
#: candidates.  A block holds up to _BLOCK rounds of one draw of normals and
#: ends at the first round whose pick beats the incumbent.  At budget 1000
#: the 38 rounds take 5 blocks at n = 4, 6 at n = 6 (draws of 37 and 1
#: rounds) and 7 at n = 10 (draws of 13, 13 and 12 rounds, and one move).
#: Round by round, with one binding-cut call per round, the search made 7,
#: 7 and 8 calls at budget 200 and 40, 40 and 41 at budget 1000.  How the
#: search draws its normals or builds its rho grid must not change them.
KERNEL_CALLS = {
    (4, 1): 1, (4, 17): 2, (4, 200): 3, (4, 1000): 7,
    (6, 1): 1, (6, 17): 2, (6, 200): 3, (6, 1000): 8,
    (10, 1): 1, (10, 17): 2, (10, 200): 5, (10, 1000): 10,
}


def test_covariance_search_keeps_its_kernel_calls(monkeypatch):
    calls = []
    kernel = gaussian.log_det_rate
    monkeypatch.setattr(gaussian, "log_det_rate", lambda m: calls.append(1) or kernel(m))
    for n, seed in ((4, 1), (6, 2), (10, 3)):
        g = np.random.default_rng(seed).uniform(0.1, 2.0, (n, n))
        np.fill_diagonal(g, 0.0)
        net = GaussianNetwork(n, g, 10.0, [n])
        for budget in (1, 17, 200, 1000):
            calls.clear()
            cutset_estimate(net, n, budget=budget, seed=0)
            assert len(calls) == KERNEL_CALLS[n, budget], (n, budget)


def test_a_large_search_draws_its_normals_round_by_round():
    # At n = 10 and budget 10,000 the normals of all 413 rounds would take
    # 7.9 MB at once.  The peak may exceed the peak of a budget-300 search,
    # whose 9 rounds draw one block below the cap and which runs the same
    # kernel stacks, by one block at the cap at most: a bound measured here,
    # under whatever numpy runs the test.
    g = np.random.default_rng(30).uniform(0.1, 2.0, (10, 10))
    np.fill_diagonal(g, 0.0)
    net = GaussianNetwork(10, g, 3.0, [10])

    def peak(budget):
        gaussian._normals.cache_clear()
        tracemalloc.start()
        try:
            cutset_estimate(net, 10, budget=budget, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cutset_estimate(net, 10, budget=1, seed=0)  # builds the cut plans untraced
    baseline = peak(300)
    assert gaussian._normals.cache_info().currsize == 1  # one block, below the cap
    assert peak(10_000) <= baseline + gaussian._NORMALS_CAP * 8


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


def test_a_gram_past_half_the_float_range_keeps_its_bits():
    # n = 2, gains 1e151, P = 1e6: a received SNR of 1e308, which the network
    # accepts.  The Gram's sum with its transpose once overflowed there, a
    # RuntimeWarning that this suite's filter raises.  Only a slice past the
    # gate can overflow, and the SVD route never reads its Gram, so the
    # estimate keeps the bits it had with the warning ignored:
    # (1/2) log2(1 + 1e308), and half a bit more for the relaxed bound.
    net = GaussianNetwork(2, np.array([[0.0, 1e151], [1e151, 0.0]]), 1e6, [2])
    est = cutset_estimate(net, 2, budget=10, seed=0)
    assert (est.estimate, est.relaxed_upper, est.evaluations) == (
        511.57692661265384, 512.0769266126538, 10)
    assert est.estimate == pytest.approx(0.5 * math.log2(1e308), rel=1e-15)
    # in a stack, the ordinary slice keeps the bits of its own call
    plan = np.array([[[0.0, 0.0], [1e151, 0.0]], [[0.0, 0.0], [2.0, 0.0]]])
    k = np.diag([1e6, 1e6])
    rates = _plan_rates(plan, k)
    assert rates[0] == est.estimate
    assert rates[1] == _plan_rates(plan[1:], k)[0] == 0.5 * math.log2(4e6 + 1)


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


def gain_spread_sweep():
    """The 95 (network, destination) draws of a sweep with n = 3..6, gains
    10^U(-3, 3) and P = 10^U(-3, 12)."""
    rng = np.random.default_rng(1)
    for _ in range(95):
        n = int(rng.integers(3, 7))
        g = 10.0 ** rng.uniform(-3.0, 3.0, (n, n))
        np.fill_diagonal(g, 0.0)
        power = float(10.0 ** rng.uniform(-3.0, 12.0))
        dest = int(rng.integers(2, n + 1))
        yield GaussianNetwork(n, g, power, range(2, n + 1)), dest


def high_snr_draws():
    """Draws 91 and 94 of ``gain_spread_sweep``: n = 5, P = 4.80e11,
    destination 4, and n = 6, P = 1.38e11, destination 5.  On both a
    Cholesky factor of some cut's I + A diag(P) A^T fails."""
    for i, draw in enumerate(gain_spread_sweep()):
        if i in (91, 94):
            yield draw


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
