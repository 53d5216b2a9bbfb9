"""Diamond-network closed forms checked against independent oracles.

Every bound formula is re-transcribed here in natural-log arithmetic, and the
partial-decode terms are additionally recomputed from an explicit jointly
Gaussian covariance via log-det mutual-information identities, so the module
under test and the oracles share no code.
"""

import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaybound import (
    DdfParams,
    DiamondConfig,
    af_diamond,
    cutset_diamond,
    cutset_diamond_opt,
    ddf_diamond,
    ddf_diamond_opt,
    df_diamond,
    diamond_sweep,
    grid_then_refine,
    nnc_diamond,
    nnc_diamond_opt,
    received_snr,
)
from relaybound import diamond
from relaybound.diamond import (
    _ddf_objective,
    _min_terms,
    _nnc_objective,
    cutset_diamond_terms,
    ddf_diamond_terms,
    nnc_diamond_terms,
)
from relaybound.optimize import golden_max
from tests.neldermead import grid_then_refine_reference, run_logged

LN2 = math.log(2.0)


def oracle_c(x):
    return math.log1p(x) / (2.0 * LN2)


def oracle_relay_info(s, sig):
    return (math.log((1.0 + s) * (sig + s)) - math.log(sig + (1.0 + sig) * s)) / (2.0 * LN2)


def oracle_ddf_terms(cfg, rho, s2, s3):
    i2 = oracle_relay_info(cfg.s21, s2)
    i3 = oracle_relay_info(cfg.s31, s3)
    one_m = 1.0 - rho * rho
    t1 = oracle_c(cfg.s42 + cfg.s43 + 2.0 * rho * math.sqrt(cfg.s42 * cfg.s43))
    t2 = oracle_c(one_m * cfg.s42) + i3
    t3 = oracle_c(one_m * cfg.s43) + i2
    num = (s2 + cfg.s21) * (s3 + cfg.s31)
    den = (s2 * s3 + s2 * cfg.s31 + s3 * cfg.s21) * one_m
    t4 = i2 + i3 - (math.log(num) - math.log(den)) / (2.0 * LN2)
    return (t1, t2, t3, t4)


def oracle_nnc_terms(cfg, s2, s3):
    t1 = oracle_c(cfg.s21 / (1.0 + s2) + cfg.s31 / (1.0 + s3))
    t2 = oracle_c(cfg.s42) + oracle_c(cfg.s31 / (1.0 + s3)) - oracle_c(1.0 / s2)
    t3 = oracle_c(cfg.s43) + oracle_c(cfg.s21 / (1.0 + s2)) - oracle_c(1.0 / s3)
    t4 = oracle_c(cfg.s42 + cfg.s43) - oracle_c(1.0 / s2) - oracle_c(1.0 / s3)
    return (t1, t2, t3, t4)


def oracle_af(cfg):
    num = (
        math.sqrt(cfg.s21 * cfg.s42 * (1.0 + cfg.s31))
        + math.sqrt(cfg.s31 * cfg.s43 * (1.0 + cfg.s21))
    ) ** 2
    den = (
        cfg.s42 * (1.0 + cfg.s31)
        + cfg.s43 * (1.0 + cfg.s21)
        + (1.0 + cfg.s21) * (1.0 + cfg.s31)
    )
    return oracle_c(num / den)


def oracle_df(cfg):
    mac = cfg.s42 + cfg.s43 + 2.0 * math.sqrt(cfg.s42 * cfg.s43)
    return min(oracle_c(cfg.s21), oracle_c(cfg.s31), oracle_c(mac))


def oracle_cutset_terms(cfg, rho):
    one_m = 1.0 - rho * rho
    return (
        oracle_c(cfg.s21 + cfg.s31),
        oracle_c(cfg.s31) + oracle_c(one_m * cfg.s42),
        oracle_c(cfg.s21) + oracle_c(one_m * cfg.s43),
        oracle_c(cfg.s42 + cfg.s43 + 2.0 * rho * math.sqrt(cfg.s42 * cfg.s43)),
    )


def gaussian_mi(cov, a, b, given=()):
    """I(a; b | given) from a covariance matrix, via the log-det identity."""

    def logdet(idx):
        if not idx:
            return 0.0
        sub = cov[np.ix_(sorted(idx), sorted(idx))]
        sign, val = np.linalg.slogdet(sub)
        assert sign > 0
        return val

    a, b, g = set(a), set(b), set(given)
    return (logdet(a | g) + logdet(b | g) - logdet(g) - logdet(a | b | g)) / (2.0 * LN2)


def ddf_terms_from_covariance(cfg, rho, s2, s3):
    """Partial-decode bound terms evaluated on the explicit joint covariance.

    Variables 0..7 are X1, X2, X3, U2, U3, Y2, Y3, Y4 with unit input powers,
    relay inputs correlated rho, descriptions U_k = sqrt(s_k1) X1 + V_k with
    noise variance sigma_k^2, and unit channel noise.
    """
    g21, g31 = math.sqrt(cfg.s21), math.sqrt(cfg.s31)
    g42, g43 = math.sqrt(cfg.s42), math.sqrt(cfg.s43)
    x1, x2, x3, u2, u3, y2, y3, y4 = range(8)
    # linear map from independent sources [X1, X2', W, V2, V3, Z2, Z3, Z4]
    # where X2 = X2', X3 = rho X2' + sqrt(1-rho^2) W
    mix = np.zeros((8, 8))
    mix[x1, 0] = 1.0
    mix[x2, 1] = 1.0
    mix[x3, 1] = rho
    mix[x3, 2] = math.sqrt(1.0 - rho * rho)
    mix[u2, 0] = g21
    mix[u2, 3] = math.sqrt(s2)
    mix[u3, 0] = g31
    mix[u3, 4] = math.sqrt(s3)
    mix[y2, 0] = g21
    mix[y2, 5] = 1.0
    mix[y3, 0] = g31
    mix[y3, 6] = 1.0
    mix[y4, :] = g42 * mix[x2, :] + g43 * mix[x3, :]
    mix[y4, 7] = 1.0
    cov = mix @ mix.T
    t1 = gaussian_mi(cov, {x2, x3}, {y4})
    t2 = gaussian_mi(cov, {x2}, {y4}, {x3}) + gaussian_mi(cov, {u3}, {y3})
    t3 = gaussian_mi(cov, {x3}, {y4}, {x2}) + gaussian_mi(cov, {u2}, {y2})
    t4 = (
        gaussian_mi(cov, {u2}, {y2})
        + gaussian_mi(cov, {u3}, {y3})
        - gaussian_mi(cov, {u2}, {u3})
        - gaussian_mi(cov, {x2}, {x3})
    )
    return (t1, t2, t3, t4)


def random_cfg(rng):
    return DiamondConfig(*[float(x) for x in rng.uniform(0.1, 60.0, size=4)])


def test_config_validation():
    with pytest.raises(ValueError, match="s31"):
        DiamondConfig(1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="relay position"):
        DiamondConfig.from_distance(0.0, 10.0)
    with pytest.raises(ValueError, match="relay position"):
        DiamondConfig.from_distance(1.0, 10.0)
    with pytest.raises(ValueError, match="power"):
        DiamondConfig.from_distance(0.5, 0.0)
    with pytest.raises(ValueError, match="power"):
        DiamondConfig.from_distance(0.5, 10.0).to_network(0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            DiamondConfig(1.0, 1.0, bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            DiamondConfig.from_distance(0.5, bad)
        with pytest.raises(ValueError, match="finite"):
            DiamondConfig(1.0, 1.0, 1.0, 1.0).to_network(bad)
    with pytest.raises(ValueError, match="rho"):
        DdfParams(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"^sigma2_sq: must be finite and positive, got 0\.0$"):
        DdfParams(0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^sigma2_sq: must be finite and positive, got -1\.0$"):
        nnc_diamond_terms(DiamondConfig(1, 1, 1, 1), -1.0, 1.0)
    with pytest.raises(ValueError, match="rho"):
        cutset_diamond_terms(DiamondConfig(1, 1, 1, 1), 1.5)


def test_from_distance_geometry():
    cfg = DiamondConfig.from_distance(0.5, 10.0)
    assert cfg == DiamondConfig(80.0, 80.0, 80.0, 80.0)
    cfg = DiamondConfig.from_distance(0.2, 10.0)
    assert abs(cfg.s21 - 10.0 / 0.2**3) < 1e-9
    assert abs(cfg.s31 - 10.0 / 0.8**3) < 1e-9
    assert cfg.s43 == cfg.s21
    assert cfg.s42 == cfg.s31


def test_to_network_reproduces_snrs():
    cfg = DiamondConfig(3.0, 7.0, 11.0, 5.0)
    net = cfg.to_network(2.0)
    assert net.destinations == (4,)
    assert abs(received_snr(net, 2) - cfg.s21) < 1e-9
    assert abs(received_snr(net, 3) - cfg.s31) < 1e-9
    assert abs(received_snr(net, 4) - (cfg.s42 + cfg.s43)) < 1e-9
    assert received_snr(net, 1) == 0.0


def test_closed_forms_match_transcription_oracles():
    rng = np.random.default_rng(31)
    for _ in range(40):
        cfg = random_cfg(rng)
        rho = float(rng.uniform(0.0, 0.95))
        s2 = float(rng.uniform(0.05, 20.0))
        s3 = float(rng.uniform(0.05, 20.0))
        got = ddf_diamond_terms(cfg, DdfParams(rho, s2, s3))
        want = oracle_ddf_terms(cfg, rho, s2, s3)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12
        got = nnc_diamond_terms(cfg, s2, s3)
        want = oracle_nnc_terms(cfg, s2, s3)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12
        assert abs(af_diamond(cfg) - oracle_af(cfg)) < 1e-12
        assert abs(df_diamond(cfg) - oracle_df(cfg)) < 1e-12
        got = cutset_diamond_terms(cfg, rho)
        want = oracle_cutset_terms(cfg, rho)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12


def test_ddf_terms_match_covariance_algebra():
    rng = np.random.default_rng(32)
    for _ in range(20):
        d = float(rng.uniform(0.1, 0.9))
        cfg = DiamondConfig.from_distance(d, 10.0)
        rho = float(rng.uniform(0.0, 0.9))
        s2 = float(rng.uniform(0.1, 10.0))
        s3 = float(rng.uniform(0.1, 10.0))
        got = ddf_diamond_terms(cfg, DdfParams(rho, s2, s3))
        want = ddf_terms_from_covariance(cfg, rho, s2, s3)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-9


def test_minima_and_argmin_consistency():
    rng = np.random.default_rng(33)
    cfg = random_cfg(rng)
    p = DdfParams(0.3, 2.0, 0.7)
    assert ddf_diamond(cfg, p) == min(ddf_diamond_terms(cfg, p))
    assert nnc_diamond(cfg, 2.0, 0.7) == min(nnc_diamond_terms(cfg, 2.0, 0.7))
    assert cutset_diamond(cfg, 0.4) == min(cutset_diamond_terms(cfg, 0.4))




def search_objectives(monkeypatch):
    """A list that collects each diamond search's call of ``grid_then_refine``
    as (objective, box, keywords)."""
    searches = []

    def recorded(f, box, **kw):
        searches.append((f, box, kw))
        return grid_then_refine(f, box, **kw)

    monkeypatch.setattr(diamond, "grid_then_refine", recorded)
    return searches


def test_scalar_terms_equal_the_grid_elements(monkeypatch):
    # The search's grid calls its objective on arrays and its Nelder-Mead
    # probes call it on floats; the two must agree bit for bit, so that a
    # point scores the same in both phases.  The objective is the minimum of
    # the terms that ddf_diamond_terms and nnc_diamond_terms report, from the
    # same formula, at points of the search box.
    searches = search_objectives(monkeypatch)
    rng = np.random.default_rng(38)
    cases = []
    for _ in range(300):
        cfg = DiamondConfig(*(float(x) for x in 10.0 ** rng.uniform(-3.0, 12.0, 4)))
        cases.append((cfg, rng.uniform(0.0, 0.999, 50), *np.exp(rng.uniform(-6.0, 6.0, (2, 50)))))
    for cfg, rho, s2, s3 in cases:
        searches.clear()
        ddf_diamond_opt(cfg, 0)
        nnc_diamond_opt(cfg, 0)
        (ddf, _, _), (nnc, _, _) = searches
        ddf_grid = ddf(rho, s2, s3).tolist()
        ddf_terms = [t.tolist() for t in _ddf_objective(cfg, tuple)(rho, s2, s3)]
        for k in range(len(rho)):
            point = (float(rho[k]), float(s2[k]), float(s3[k]))
            terms = ddf_diamond_terms(cfg, DdfParams(*point))
            assert list(terms) == [t[k] for t in ddf_terms], (cfg, point)
            assert ddf(*point) == ddf_grid[k] == min(terms), (cfg, point)
        nnc_grid = nnc(s2, s3).tolist()
        nnc_terms = [t.tolist() for t in _nnc_objective(cfg, tuple)(s2, s3)]
        for k in range(len(rho)):
            point = (float(s2[k]), float(s3[k]))
            terms = nnc_diamond_terms(cfg, *point)
            assert list(terms) == [t[k] for t in nnc_terms], (cfg, point)
            assert nnc(*point) == nnc_grid[k] == min(terms), (cfg, point)
    # An SNR that gauss_c refuses raises one message on both kinds of call, so
    # a NaN term never becomes a quiet -inf probe: with rho = NaN,
    # C(s42 + s43 + 2 rho sqrt(s42 s43)) is C(nan).  (This once came from
    # s42 s43 overflowing at rho = 0, which sqrt(s42) sqrt(s43) now avoids.)
    cfg = DiamondConfig(1.0, 1.0, 1e200, 1e200)
    ddf = _ddf_objective(cfg)
    value = ddf(0.0, 1.0, 1.0)
    assert value == ddf(np.zeros(1), np.ones(1), np.ones(1))[0] == ddf_diamond(
        cfg, DdfParams(0.0, 1.0, 1.0)) and math.isfinite(value)
    for args in ((math.nan, 1.0, 1.0), (np.array([0.5, math.nan]), np.ones(2), np.ones(2))):
        with pytest.raises(ValueError) as info:
            ddf(*args)
        assert str(info.value) == "snr must be nonnegative, got nan"


#: (SNRs, DDF parameters) off the search box at which the joint cost's
#: divisor (s2 s3 + s2 s31 + s3 s21)(1 - rho^2) is subnormal or zero.  The
#: last point's fourth term is exactly log2(3/4) / 2; its subnormal divisor
#: once cost it 1.2e-12 bits.
UNDERFLOWING = [((0.0, 0.0, 1.0, 1.0), (0.0, 1e-200, 1e-200)),
                ((0.0, 0.0, 1.0, 1.0), (0.6, 1e-200, 1e-200)),
                ((1e-200, 0.0, 1.0, 1.0), (0.3, 1e-200, 1e-200)),
                ((1e-30, 1e-30, 1.0, 1.0), (0.6, 1e-300, 1e-300)),
                ((1e-14, 3e-15, 1.0, 1.0), (0.0, 5e-324, 5e-324)),
                ((0.0, 0.0, 1.0, 1.0), (0.5, 1e-12, 1e-300))]


def test_ddf_joint_cost_survives_underflowing_noise_variances():
    # Where the plain divisor is not a normal float, ddf_diamond_terms takes
    # the terms in logs; the cost is the value of its exact rationals.
    for snrs, point in UNDERFLOWING:
        cfg, params = DiamondConfig(*snrs), DdfParams(*point)
        terms = ddf_diamond_terms(cfg, params)
        assert all(math.isfinite(t) for t in terms), (snrs, point)
        s21, s31 = (Fraction(x) for x in snrs[:2])
        rho, s2, s3 = (Fraction(x) for x in point)
        ratio = (s2 + s21) * (s3 + s31) / ((s2 * s3 + s2 * s31 + s3 * s21) * (1 - rho * rho))
        want = 0.5 * (math.log2(ratio.numerator) - math.log2(ratio.denominator))
        i2, i3 = oracle_relay_info(cfg.s21, point[1]), oracle_relay_info(cfg.s31, point[2])
        assert i2 + i3 - terms[3] == pytest.approx(want, rel=1e-15, abs=2e-15), (snrs, point)
    assert abs(terms[3] - 0.5 * math.log2(0.75)) <= 1e-15


def test_min_terms_is_min_of_floats_and_np_minimum_of_arrays():
    # Floats give the first of equal terms, as min does: here 0.0, not -0.0.
    assert _min_terms((1.0, 0.5, 2.0, 0.5)) == 0.5
    assert math.copysign(1.0, _min_terms((1.0, 0.0, -0.0))) == 1.0
    arrays = (np.array([1.0, -2.0, 3.0]), np.array([0.5, 4.0, 3.0]), np.array([2.0, 5.0, -1.0]))
    assert _min_terms(arrays).tolist() == [0.5, -2.0, -1.0]
    assert _min_terms((np.array([1.0, 2.0]), 1.5)).tolist() == [1.0, 1.5]


def test_diamond_searches_keep_their_probe_counts(monkeypatch):
    # One grid call on arrays, then one call per Nelder-Mead probe on floats:
    # faster probes must not come from making fewer of them.
    calls = []

    def recorded(f, box, **kw):
        def g(*x):
            calls.append(type(x[0]))
            return f(*x)
        return grid_then_refine(g, box, **kw)

    monkeypatch.setattr(diamond, "grid_then_refine", recorded)
    cfg = DiamondConfig.from_distance(0.3, 10.0)
    for opt, budget, probes in ((ddf_diamond_opt, 1500, 139), (nnc_diamond_opt, 500, 16)):
        calls.clear()
        opt(cfg, budget)
        assert calls == [np.ndarray] + [float] * probes, opt.__name__


def test_diamond_searches_match_the_reference_loop(monkeypatch):
    # Both searches' objectives, on SNRs 10^U(-3, 12) and on relay positions
    # at powers 10^U(-3, 12): the library's Nelder-Mead gives the argument,
    # the value and every probe, in order, of the loop on parallel lists.
    searches = search_objectives(monkeypatch)
    rng = np.random.default_rng(39)
    cfgs = [DiamondConfig(*(10.0 ** rng.uniform(-3.0, 12.0, 4)).tolist()) for _ in range(5)]
    cfgs += [DiamondConfig.from_distance(float(rng.uniform(0.02, 0.98)),
                                         float(10.0 ** rng.uniform(-3.0, 12.0)))
             for _ in range(5)]
    for cfg in cfgs:
        for budget in (0, 60, 1500, 6000):
            searches.clear()
            ddf_diamond_opt(cfg, budget)
            nnc_diamond_opt(cfg, budget)
            for f, box, kw in searches:
                got = run_logged(grid_then_refine, f, box, **kw)
                assert got == run_logged(grid_then_refine_reference, f, box, **kw), (cfg, budget)


def test_from_distance_refuses_an_snr_past_the_floats():
    # d**3 underflows below d ~ 1e-108 (this once raised ZeroDivisionError),
    # and p / d**3 or p / (1 - d)**3 can overflow (once reported as s21 or
    # s31 "must be finite")
    for d, p in ((1e-120, 1.0), (1e-100, 1e10), (1.0 - 2.0**-53, 1e300)):
        with pytest.raises(ValueError) as info:
            DiamondConfig.from_distance(d, p)
        assert str(info.value) == (f"relay position d = {d} at power {p} gives a received "
                                   "SNR that overflows a float")
    assert DiamondConfig.from_distance(1e-100, 1.0).s21 == 1.0 / 1e-100**3


def test_spot_values_at_midpoint():
    cfg = DiamondConfig.from_distance(0.5, 10.0)
    assert abs(df_diamond(cfg) - 3.1699250014) < 1e-9
    assert abs(af_diamond(cfg) - 3.3722424721) < 1e-9
    assert abs(nnc_diamond(cfg, 1.0, 1.0) - 2.6654584391) < 1e-9
    assert abs(cutset_diamond(cfg, 0.0) - 3.6654584391) < 1e-9
    assert abs(ddf_diamond(cfg, DdfParams(0.0, 1.0, 1.0)) - 2.6743915638) < 1e-9
    # optimized values, pinned for regression
    ddf_v, _ = ddf_diamond_opt(cfg)
    nnc_v, _ = nnc_diamond_opt(cfg)
    cut_v, cut_rho = cutset_diamond_opt(cfg)
    assert abs(ddf_v - 3.1663798503) < 1e-6
    assert abs(nnc_v - 2.9752264003) < 1e-6
    assert abs(cut_v - 3.6654584391) < 1e-9
    assert cut_rho < 1e-6  # symmetric geometry: no correlation gain


def test_optimizers_return_consistent_argmax():
    rng = np.random.default_rng(34)
    for _ in range(5):
        cfg = random_cfg(rng)
        v, p = ddf_diamond_opt(cfg, budget=2000)
        assert abs(ddf_diamond(cfg, p) - v) < 1e-12
        assert v >= ddf_diamond(cfg, DdfParams(0.5, 1.0, 1.0)) - 1e-9
        nv, ns = nnc_diamond_opt(cfg, budget=800)
        assert abs(nnc_diamond(cfg, *ns) - nv) < 1e-12
        cv, crho = cutset_diamond_opt(cfg)
        assert abs(cutset_diamond(cfg, crho) - cv) < 1e-12


def test_cutset_opt_matches_dense_grid():
    rng = np.random.default_rng(35)
    for _ in range(10):
        cfg = random_cfg(rng)
        opt, _ = cutset_diamond_opt(cfg)
        dense = max(cutset_diamond(cfg, r) for r in np.linspace(0.0, 1.0, 20001))
        assert opt >= dense - 1e-9
        assert abs(opt - dense) < 1e-5


def oracle_cutset_opt(cfg):
    """The cutset optimum by golden-section search on the unimodal profile."""
    return golden_max(lambda r: cutset_diamond(cfg, r), 0.0, 1.0, tol=1e-10)[1]


def test_cutset_opt_never_below_the_golden_oracle():
    # Relay positions at powers 10^U(-3, 12), free SNRs 10^U(-3, 9), high SNRs
    # 10^U(6, 12) (where the optimum crowds rho -> 1 and 1 - rho^2 cancels),
    # and s31 = (sqrt(s42) + sqrt(s43))^2, where the crossing sits at rho = 1.
    rng = np.random.default_rng(37)
    cfgs = [DiamondConfig.from_distance(float(rng.uniform(0.02, 0.98)),
                                        float(10.0 ** rng.uniform(-3.0, 12.0)))
            for _ in range(600)]
    cfgs += [DiamondConfig(*(10.0 ** rng.uniform(-3.0, 9.0, 4)).tolist()) for _ in range(800)]
    cfgs += [DiamondConfig(*(10.0 ** rng.uniform(6.0, 12.0, 4)).tolist()) for _ in range(400)]
    for s21, s42, s43 in (10.0 ** rng.uniform(-3.0, 12.0, (200, 3))).tolist():
        cfgs.append(DiamondConfig(s21, (math.sqrt(s42) + math.sqrt(s43)) ** 2, s42, s43))
    near_one = 0
    for cfg in cfgs:
        value, rho = cutset_diamond_opt(cfg)
        want = oracle_cutset_opt(cfg)
        assert 0.0 <= rho <= 1.0
        assert value >= want - 1e-12 * max(1.0, abs(want)), cfg
        if 1.0 - rho >= 1e-5:
            assert abs(cutset_diamond(cfg, rho) - value) <= 1e-12 * max(1.0, abs(value)), cfg
        near_one += 1.0 - 5e-6 < rho < 1.0
        if cfg.s21 + cfg.s31 == cfg.s42 + cfg.s43:  # from_distance: no correlation gain
            assert (value, rho) == (cutset_diamond(cfg, 0.0), 0.0)
    assert near_one >= 100


_SNR = st.one_of(st.just(0.0), st.floats(-3.0, 12.0).map(lambda e: 10.0**e))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.tuples(_SNR, _SNR, _SNR, _SNR))
def test_cutset_opt_dominates_a_rho_grid_at_any_snr(snrs):
    cfg = DiamondConfig(*snrs)
    value, rho = cutset_diamond_opt(cfg)
    assert math.isfinite(value) and 0.0 <= rho <= 1.0
    if cfg.s42 * cfg.s43 == 0.0:  # no term grows with rho: ties go to rho = 0
        assert rho == 0.0
    slack = 1e-12 * max(1.0, abs(value))
    for r in np.linspace(0.0, 1.0, 101):
        assert value >= cutset_diamond(cfg, float(r)) - slack


def test_inner_bounds_below_cutset():
    rng = np.random.default_rng(36)
    for _ in range(10):
        cfg = random_cfg(rng)
        cut_v, _ = cutset_diamond_opt(cfg)
        assert df_diamond(cfg) <= cut_v + 1e-6
        assert af_diamond(cfg) <= cut_v + 1e-6
        nnc_v, _ = nnc_diamond_opt(cfg, budget=800)
        assert nnc_v <= cut_v + 1e-6
        ddf_v, _ = ddf_diamond_opt(cfg, budget=2000)
        assert ddf_v <= cut_v + 1e-6


def test_sweep_structure_and_csv():
    table = diamond_sweep([0.3, 0.5, 0.7], 10.0, budget=600)
    assert table.power == 10.0
    assert len(table.rows) == 3
    assert [r.d for r in table.rows] == [0.3, 0.5, 0.7]
    for r in table.rows:
        assert max(r.df, r.af, r.nnc, r.ddf) <= r.cutset + 1e-6
        assert 0 <= r.nnc_active < 4
        assert 0 <= r.ddf_active < 4
    csv = table.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "d,cutset,df,af,nnc,ddf"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0.300000"
    assert all(len(cell.split(".")[1]) == 6 for cell in first)
    doc = table.to_dict()
    assert doc["power"] == 10.0
    assert set(doc["rows"][0]) == {"d", "cutset", "df", "af", "nnc", "ddf", "params"}
    assert set(doc["rows"][0]["params"]) == {"cutset_rho", "nnc_sigma_sq", "ddf", "active"}


def test_sweep_position_symmetry():
    table = diamond_sweep([0.25, 0.75], 10.0, budget=1200)
    a, b = table.rows
    assert abs(a.cutset - b.cutset) < 1e-9
    assert abs(a.df - b.df) < 1e-12
    assert abs(a.af - b.af) < 1e-12
    assert abs(a.nnc - b.nnc) < 1e-6
    assert abs(a.ddf - b.ddf) < 1e-6


def test_sweep_validation():
    with pytest.raises(ValueError, match="power"):
        diamond_sweep([0.5], 0.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    d=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    log10_p=st.floats(-2.0, 8.0),
)
def test_inner_bounds_finite_and_below_cutset_at_any_snr(d, log10_p):
    cfg = DiamondConfig.from_distance(d, 10.0**log10_p)
    cut_v, _ = cutset_diamond_opt(cfg)
    inner = {
        "df": df_diamond(cfg),
        "af": af_diamond(cfg),
        "nnc": nnc_diamond_opt(cfg)[0],
        "ddf": ddf_diamond_opt(cfg)[0],
    }
    for name, v in inner.items():
        assert math.isfinite(v), name
        assert v <= cut_v + 1e-6, name


# ---------------------------------------------------------------------------
# SNRs up to 1e200 and noise variances from 1e-300 to 1e300, where the
# products in the closed forms overflow a float.

_DIGITS = decimal.Context(prec=50)


def decimal_terms(cfg, rho, s2, s3):
    """DF, AF, then the DDF, NNC and cutset terms at (rho, s2, s3), each
    transcribed in 50-digit decimals, whose exponents do not overflow."""
    with decimal.localcontext(_DIGITS):
        s21, s31, s42, s43, rho, s2, s3 = (decimal.Decimal(x) for x in (
            cfg.s21, cfg.s31, cfg.s42, cfg.s43, rho, s2, s3))
        ln2 = decimal.Decimal(2).ln()

        def half_log2(x):
            return x.ln() / (2 * ln2)

        def c(x):
            return half_log2(1 + x)

        shrink, root = 1 - rho * rho, (s42 * s43).sqrt()
        mac = s42 + s43 + 2 * root
        af = ((s21 * s42 * (1 + s31)).sqrt() + (s31 * s43 * (1 + s21)).sqrt()) ** 2 / (
            s42 * (1 + s31) + s43 * (1 + s21) + (1 + s21) * (1 + s31))
        i2 = half_log2((1 + s21) * (s2 + s21) / (s2 + (1 + s2) * s21))
        i3 = half_log2((1 + s31) * (s3 + s31) / (s3 + (1 + s3) * s31))
        joint = half_log2((s2 + s21) * (s3 + s31) / ((s2 * s3 + s2 * s31 + s3 * s21) * shrink))
        c2, c3 = c(1 / s2), c(1 / s3)
        return [min(c(s21), c(s31), c(mac)), c(af),
                c(s42 + s43 + 2 * rho * root), c(shrink * s42) + i3, c(shrink * s43) + i2,
                i2 + i3 - joint,
                c((s21 * (1 + s3) + s31 * (1 + s2)) / ((1 + s2) * (1 + s3))),
                c(s42) + c(s31 / (1 + s3)) - c2, c(s43) + c(s21 / (1 + s2)) - c3,
                c(s42 + s43) - c2 - c3,
                c(s21 + s31), c(s31) + c(shrink * s42), c(s21) + c(shrink * s43),
                c(s42 + s43 + 2 * rho * root)]


_WIDE_SNR = st.floats(0.0, 200.0).map(lambda e: 10.0**e)
_WIDE_VARIANCE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.tuples(_WIDE_SNR, _WIDE_SNR, _WIDE_SNR, _WIDE_SNR), st.floats(0.0, 0.999),
       _WIDE_VARIANCE, _WIDE_VARIANCE)
def test_closed_forms_are_finite_and_exact_at_wide_snrs(snrs, rho, s2, s3):
    # Each product that overflowed once gave inf, NaN, a wrong finite value
    # or "snr must be nonnegative, got nan"; a RuntimeWarning fails the test.
    cfg = DiamondConfig(*snrs)
    got = [df_diamond(cfg), af_diamond(cfg), *ddf_diamond_terms(cfg, DdfParams(rho, s2, s3)),
           *nnc_diamond_terms(cfg, s2, s3), *cutset_diamond_terms(cfg, rho)]
    for i, (g, w) in enumerate(zip(got, decimal_terms(cfg, rho, s2, s3), strict=True)):
        assert math.isfinite(g), i
        assert abs(decimal.Decimal(g) - w) <= decimal.Decimal(1e-12) * max(1, abs(w)), i


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.tuples(_WIDE_SNR, _WIDE_SNR, _WIDE_SNR, _WIDE_SNR))
def test_searches_are_finite_and_below_the_cutset_at_wide_snrs(snrs):
    cfg = DiamondConfig(*snrs)
    cut_v, cut_rho = cutset_diamond_opt(cfg)
    slack = 1e-12 * max(1.0, cut_v)
    assert math.isfinite(cut_v) and 0.0 <= cut_rho <= 1.0
    for r in np.linspace(0.0, 1.0, 41):
        assert cut_v >= cutset_diamond(cfg, float(r)) - slack
    ddf_v, params = ddf_diamond_opt(cfg, 60)
    nnc_v, (s2, s3) = nnc_diamond_opt(cfg, 30)
    assert ddf_v == pytest.approx(ddf_diamond(cfg, params), rel=1e-12, abs=1e-12)
    assert nnc_v == pytest.approx(nnc_diamond(cfg, s2, s3), rel=1e-12, abs=1e-12)
    for v in (df_diamond(cfg), af_diamond(cfg), ddf_v, nnc_v):
        assert math.isfinite(v) and v <= cut_v + slack


def test_overflowing_diamonds_once_broke():
    # AF once returned inf from 1e103, the DDF terms NaN, and the cutset
    # optimum lost its crossing once (1 + c)(1 + d) s42 s43 overflowed.
    assert af_diamond(DiamondConfig(1e103, 1e103, 1e103, 1e103)) == pytest.approx(
        0.5 * math.log2(4e103 / 3), rel=1e-12)
    terms = ddf_diamond_terms(DiamondConfig(1e20, 1e20, 1e20, 1e20), DdfParams(0.9, 1e-300, 1e300))
    assert all(math.isfinite(t) for t in terms)
    # Products and divisor fit here, but the joint cost's ratio 1e20 / 2e-290
    # does not: the plain form once gave a fourth term of -inf.
    cfg, point = DiamondConfig(1e10, 1e10, 1.0, 1.0), (0.0, 1e-300, 1e-300)
    terms = ddf_diamond_terms(cfg, DdfParams(*point))
    assert all(math.isfinite(t) for t in terms)
    for got, want in zip(terms, decimal_terms(cfg, *point)[2:6], strict=True):
        assert abs(decimal.Decimal(got) - want) <= decimal.Decimal(1e-15) * max(1, abs(want))
    cfg = DiamondConfig(4.663186724754534e+66, 7.504670246336563e+136, 1.3897810349602676e+118,
                        2.6639004526865278e+132)
    value, _ = cutset_diamond_opt(cfg)  # once the value at rho = 0
    assert value > cutset_diamond(cfg, 0.0) + 1e-8
    assert value >= max(cutset_diamond(cfg, float(r)) for r in np.linspace(0.0, 1.0, 1001))
    # The NNC's first term once read 0.0: (1 + s2)(1 + s3) overflowed.
    cfg = DiamondConfig(2.46795629372621e+127, 9.064477030004617e+53, 1.5e8, 2e3)
    first = nnc_diamond_terms(cfg, 4.501387147930518e+247, 9.582205054431667e+63)[0]
    assert first == pytest.approx(oracle_c(cfg.s31 / 9.582205054431667e+63), rel=1e-9)
    # a zero SNR is log2(0) = -inf where the terms are taken in log2s
    cfg = DiamondConfig(0.0, 1e200, 0.0, 1e200)
    for terms in (ddf_diamond_terms(cfg, DdfParams(0.5, 1e300, 1e-300)),
                  nnc_diamond_terms(cfg, 1e300, 1e-300)):
        assert all(math.isfinite(t) for t in terms)
    for p in (1e110, 1e155):
        row = diamond_sweep([0.05], p, budget=300).rows[0]
        values = (row.cutset, row.df, row.af, row.nnc, row.ddf)
        assert all(math.isfinite(v) for v in values) and max(values) == row.cutset


def test_diamond_config_refuses_sums_past_the_floats():
    with pytest.raises(ValueError, match=r"^s21, s31: the source's total SNR s21 \+ s31 overflows"):
        DiamondConfig(1e308, 1e308, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"^s42, s43: the beamformed SNR"):
        DiamondConfig(1.0, 1.0, 5e307, 5e307)
    cfg = DiamondConfig(1e308, 1.0, 4e307, 4e307)
    assert all(math.isfinite(v) for v in (df_diamond(cfg), af_diamond(cfg),
                                          cutset_diamond_opt(cfg)[0], ddf_diamond_opt(cfg, 60)[0],
                                          nnc_diamond_opt(cfg, 30)[0]))


def test_log2_objectives_agree_on_grids_and_floats():
    # As test_scalar_terms_equal_the_grid_elements, where the searches take
    # their terms in log2s.
    rng = np.random.default_rng(40)
    for _ in range(40):
        cfg = DiamondConfig(*(10.0 ** rng.uniform(0.0, 200.0, 4)).tolist())
        rho, s2, s3 = rng.uniform(0.0, 0.999, 8), *np.exp(rng.uniform(-6.0, 6.0, (2, 8)))
        ddf, nnc = _ddf_objective(cfg, tuple, logs=True), _nnc_objective(cfg, tuple, logs=True)
        ddf_grid = [np.broadcast_to(t, rho.shape).tolist() for t in ddf(rho, s2, s3)]
        nnc_grid = [np.broadcast_to(t, rho.shape).tolist() for t in nnc(s2, s3)]
        for k in range(len(rho)):
            point = (float(rho[k]), float(s2[k]), float(s3[k]))
            assert [float(t) for t in ddf(*point)] == [t[k] for t in ddf_grid], (cfg, point)
            assert [float(t) for t in nnc(*point[1:])] == [t[k] for t in nnc_grid], (cfg, point)
