"""Diamond-network closed forms checked against independent oracles.

Every bound formula is re-transcribed here in natural-log arithmetic, and the
partial-decode terms are additionally recomputed from an explicit jointly
Gaussian covariance via log-det mutual-information identities, so the module
under test and the oracles share no code.
"""

import math

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
    golden_max,
    nnc_diamond,
    nnc_diamond_opt,
    received_snr,
)
from relaybound.diamond import (
    cutset_diamond_terms,
    ddf_diamond_terms,
    nnc_diamond_terms,
)

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
    with pytest.raises(ValueError, match="variances"):
        DdfParams(0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match="variances"):
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
