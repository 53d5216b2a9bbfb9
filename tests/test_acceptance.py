"""Acceptance suite: the headline guarantees, one pass/fail line each.

Each test prints a single `[criterion N]` line so a plain pytest run doubles
as a checklist.  Expected values come from oracles written independently of
the library code: term-by-term transcriptions of the bound formulas in
natural-log arithmetic, an explicit jointly Gaussian covariance evaluated
with log-det identities, and a textbook max-flow implementation.
"""

import math
import time

import numpy as np
import pytest

from relaybound import (
    DdfParams,
    DiamondConfig,
    Channel,
    DeterministicNetwork,
    DmInstance,
    GaussianNetwork,
    GraphicalNetwork,
    JointPmf,
    af_diamond,
    blackwell_region,
    constraint_repair,
    constraint_values_j,
    cutset_diamond,
    cutset_diamond_opt,
    cutset_estimate,
    ddf_diamond,
    ddf_unicast_dm,
    det_dm_instance,
    deterministic_inner,
    df_diamond,
    diamond_sweep,
    gap_certificate,
    graphical_mincut,
    graphical_to_deterministic,
    marton_identity_check,
    nnc_diamond,
    penalty_rate,
)
from tests.maxflow import maxflow_oracle

LN2 = math.log(2.0)


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_half_bit_per_node_gap():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst_raw = 0.0
    worst_tighter = -math.inf
    cuts = 0
    for n in (2, 3, 4, 5):
        for trial in range(50):
            if trial % 2:
                gains = rng.lognormal(0.0, 1.0, size=(n, n))
            else:
                gains = rng.uniform(0.1, 2.0, size=(n, n))
            np.fill_diagonal(gains, 0.0)
            power = 1.0 if trial % 3 else rng.uniform(0.5, 4.0, size=n)
            net = GaussianNetwork(n, gains, power, range(2, n + 1))
            cert = gap_certificate(net)
            for row in cert.rows:
                cuts += 1
                assert row.gap == n / 2.0
                worst_raw = max(worst_raw, abs((row.upper - row.inner) - n / 2.0))
                worst_tighter = max(worst_tighter, row.tighter_gap - n / 2.0)
    elapsed = time.perf_counter() - start
    ok = worst_tighter <= 1e-9 and worst_raw <= 5e-13 and elapsed < 30.0
    report(
        1,
        ok,
        f"relaxed gap is N/2 exactly on {cuts} cuts of 200 networks "
        f"(float residue {worst_raw:.1e}), per-cut gap exceeds N/2 by at most "
        f"{max(worst_tighter, 0.0):.1e}, {elapsed:.1f}s",
    )


def test_criterion_2_penalty_stays_under_half_bit():
    rng = np.random.default_rng(2)
    snrs = rng.uniform(0.0, 1e6, size=10_000)
    vals = [penalty_rate(float(s)) for s in snrs]
    in_range = all(0.0 <= v <= 0.5 for v in vals)
    spot = penalty_rate(160.0)
    oracle = math.log1p(160.0 / 161.0) / (2.0 * LN2)
    spot_ok = abs(spot - 0.497764) <= 1e-5 and abs(spot - oracle) <= 1e-12
    report(
        2,
        in_range and spot_ok,
        f"penalty in [0, 0.5] on 10^4 draws up to S=10^6; "
        f"penalty(160) = {spot:.6f} (target 0.497764 +- 1e-5)",
    )


def _gaussian_mi(cov, a, b, given=()):
    def logdet(idx):
        if not idx:
            return 0.0
        sub = cov[np.ix_(sorted(idx), sorted(idx))]
        sign, val = np.linalg.slogdet(sub)
        assert sign > 0
        return val

    a, b, g = set(a), set(b), set(given)
    return (logdet(a | g) + logdet(b | g) - logdet(g) - logdet(a | b | g)) / (2.0 * LN2)


def _ddf_terms_covariance_oracle(cfg, rho, s2, s3):
    """The four partial-decode terms from an explicit 8-variable covariance."""
    g21, g31 = math.sqrt(cfg.s21), math.sqrt(cfg.s31)
    g42, g43 = math.sqrt(cfg.s42), math.sqrt(cfg.s43)
    x1, x2, x3, u2, u3, y2, y3, y4 = range(8)
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
    t1 = _gaussian_mi(cov, {x2, x3}, {y4})
    t2 = _gaussian_mi(cov, {x2}, {y4}, {x3}) + _gaussian_mi(cov, {u3}, {y3})
    t3 = _gaussian_mi(cov, {x3}, {y4}, {x2}) + _gaussian_mi(cov, {u2}, {y2})
    t4 = (
        _gaussian_mi(cov, {u2}, {y2})
        + _gaussian_mi(cov, {u3}, {y3})
        - _gaussian_mi(cov, {u2}, {u3})
        - _gaussian_mi(cov, {x2}, {x3})
    )
    return (t1, t2, t3, t4)


def test_criterion_3_closed_form_matches_covariance_algebra():
    from relaybound.diamond import ddf_diamond_terms

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        d = float(rng.uniform(0.1, 0.9))
        rho = float(rng.uniform(0.0, 0.9))
        s2 = float(rng.uniform(0.1, 10.0))
        s3 = float(rng.uniform(0.1, 10.0))
        cfg = DiamondConfig.from_distance(d, 10.0)
        got = ddf_diamond_terms(cfg, DdfParams(rho, s2, s3))
        want = _ddf_terms_covariance_oracle(cfg, rho, s2, s3)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    ok = worst <= 1e-9
    report(
        3,
        ok,
        f"closed-form partial-decode terms match the covariance log-det "
        f"evaluation on 20 tuples, worst |delta| = {worst:.1e} (cap 1e-9)",
    )


def _oracle_c(x):
    return math.log1p(x) / (2.0 * LN2)


def _oracle_relay_info(s, sig):
    return (math.log((1.0 + s) * (sig + s)) - math.log(sig + (1.0 + sig) * s)) / (
        2.0 * LN2
    )


def _oracle_ddf_spot(cfg):
    # rho = 0, unit description noise at both relays
    i2 = _oracle_relay_info(cfg.s21, 1.0)
    i3 = _oracle_relay_info(cfg.s31, 1.0)
    num = (1.0 + cfg.s21) * (1.0 + cfg.s31)
    den = 1.0 + cfg.s31 + cfg.s21
    t4 = i2 + i3 - (math.log(num) - math.log(den)) / (2.0 * LN2)
    return min(
        _oracle_c(cfg.s42 + cfg.s43),
        _oracle_c(cfg.s42) + i3,
        _oracle_c(cfg.s43) + i2,
        t4,
    )


def test_criterion_4_diamond_orderings_and_spot_values():
    grid = [0.05 * k for k in range(1, 20)]
    table = diamond_sweep(grid, 10.0, budget=4000)
    margin = max(
        max(row.df, row.af, row.nnc, row.ddf) - row.cutset for row in table.rows
    )
    cfg = DiamondConfig.from_distance(0.5, 10.0)
    df = df_diamond(cfg)
    af = af_diamond(cfg)
    nnc = nnc_diamond(cfg, 1.0, 1.0)
    cut = cutset_diamond(cfg, 0.0)
    ddf = ddf_diamond(cfg, DdfParams(0.0, 1.0, 1.0))
    ddf_oracle = _oracle_ddf_spot(cfg)
    checks = [
        ("orderings", margin <= 1e-6),
        ("DF", abs(df - 3.169925) <= 1e-6),
        ("AF", abs(af - 3.3724) <= 5e-4),
        ("NNC", abs(nnc - 2.6654) <= 1e-4),
        ("cutset", abs(cut - 3.6654) <= 1e-4),
        ("DDF-oracle", abs(ddf - ddf_oracle) <= 1e-9),
    ]
    ok = all(flag for _, flag in checks)
    failed = ",".join(name for name, flag in checks if not flag) or "none"
    report(
        4,
        ok,
        "inner bounds <= cutset + 1e-6 at 19 positions "
        f"(worst margin {margin:.1e}); spot values at d=0.5: DF {df:.6f}, "
        f"AF {af:.4f}, NNC {nnc:.4f}, cutset {cut:.4f}; partial-decode spot "
        f"{ddf:.6f} equals its arithmetic oracle to 1e-9 (the commonly quoted "
        f"2.6765 disagrees with that formula); failed: {failed}",
    )


def test_criterion_5_single_hop_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        nx = int(rng.integers(2, 5))
        nq = int(rng.integers(1, 3))
        in_vars = [("q", nq)] if nq > 1 else []
        in_vars += [("x1", nx)]
        in_vars += [(f"u{k}", int(rng.integers(1, 4))) for k in range(2, n + 1)]
        p = rng.random(tuple(s for _, s in in_vars))
        p /= p.sum()
        y_vars = [(f"y{k}", int(rng.integers(2, 4))) for k in range(2, n + 1)]
        c = rng.random((nx,) + tuple(s for _, s in y_vars))
        c /= c.sum(axis=tuple(range(1, n)), keepdims=True)
        chan = Channel([("x1", nx)], y_vars, c)
        inst = DmInstance.from_parts(JointPmf(in_vars, p), chan, range(2, n + 1))
        _, _, delta = marton_identity_check(inst)
        worst = max(worst, abs(delta))
    ok = worst <= 1e-12
    report(
        5,
        ok,
        "broadcast constraint total equals the single-hop inner-bound form "
        f"on 100 random instances, worst |delta| = {worst:.1e} (cap 1e-12)",
    )


def test_criterion_6_deterministic_specialization():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        alphabets = [int(rng.integers(2, 4)) for _ in range(n)]
        maps = {
            k: rng.integers(0, int(rng.integers(2, 4)), size=tuple(alphabets))
            for k in range(2, n + 1)
        }
        dest = int(rng.integers(2, n + 1))
        net = DeterministicNetwork(alphabets, maps, [dest])
        p = rng.random(tuple(alphabets))
        p /= p.sum()
        pin = JointPmf([(f"x{k}", a) for k, a in enumerate(alphabets, 1)], p)
        direct = deterministic_inner(net, pin, [dest])
        via_dm, _ = ddf_unicast_dm(det_dm_instance(net, pin, [dest]), dest)
        worst = max(worst, abs(direct - via_dm))
    ok = worst <= 1e-12
    report(
        6,
        ok,
        "wiring each description to the node output reproduces the "
        f"deterministic bound on 10 networks, worst |delta| = {worst:.1e}",
    )


def test_criterion_7_mincut_equals_maxflow():
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(20):
        n = int(rng.integers(4, 9))
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.5:
                    edges.append((u, v, float(rng.integers(0, 4))))
        if not edges:
            edges = [(1, n, 1.0)]
        net = GraphicalNetwork(edges, [n], n=n)
        if graphical_mincut(net, n) != maxflow_oracle(net, n):
            mismatches += 1

    encode_worst = 0.0
    done = 0
    while done < 6:
        n = int(rng.integers(3, 5))
        edges, total = [], 0
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.7:
                    c = int(rng.integers(0, 3))
                    if total + c <= 9:
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
        encode_worst = max(
            encode_worst, abs(deterministic_inner(det, pin, [n]) - graphical_mincut(net, n))
        )
        done += 1
    ok = mismatches == 0 and encode_worst == 0.0
    report(
        7,
        ok,
        f"min-cut equals max-flow on 20 random DAGs ({mismatches} mismatches); "
        f"bit-pipe encoding with uniform inputs achieves it exactly on 6 "
        f"networks (worst |delta| = {encode_worst:.1e})",
    )


def test_criterion_8_blackwell_landmarks():
    reg0 = blackwell_region(0.0, 0.0, grid_res=996)
    sum_err = abs(reg0.max_sum - math.log2(3.0))
    reg1 = blackwell_region(0.0, 0.5, grid_res=996)
    ok = sum_err <= 1e-9 and reg1.max_r2 == 1.5
    report(
        8,
        ok,
        f"no-conferencing max sum-rate = log2(3) + {sum_err:.1e} on the "
        f"resolution-996 grid (cap 1e-9); max R2 with half a bit of "
        f"conferencing = {reg1.max_r2} (need exactly 1.5)",
    )


def test_criterion_9_constraint_repair():
    rng = np.random.default_rng(9)
    min_gain = math.inf
    for _ in range(20):
        rho = float(rng.uniform(0.4, 0.7))
        p23 = np.array([[rho, (1 - rho) / 2], [(1 - rho) / 2, 0.0]])
        p23 /= p23.sum()
        p1 = rng.dirichlet([2.0, 2.0])
        pin = JointPmf(
            [("x1", 2), ("x2", 2), ("x3", 2)], np.einsum("a,bc->abc", p1, p23)
        )
        c = rng.random((2, 2, 2, 2, 2, 2))
        c /= c.sum(axis=(3, 4, 5), keepdims=True)
        chan = Channel(
            [("x1", 2), ("x2", 2), ("x3", 2)],
            [("y1", 2), ("y2", 2), ("y3", 2)],
            c,
        )
        inst = DmInstance.from_parts(pin, chan, [3])
        before = constraint_values_j(inst)
        worst_cut = min(before, key=before.get)
        assert before[worst_cut] <= -0.01
        after = constraint_values_j(constraint_repair(inst, worst_cut))
        assert after[worst_cut] == 0.0
        min_gain = min(min_gain, min(after.values()) - min(before.values()))
    ok = min_gain >= 1e-12
    report(
        9,
        ok,
        "repair zeroes the violated constraint exactly on 20 instances and "
        f"raises the worst constraint by at least {min_gain:.4f}",
    )


def test_criterion_10_two_cutset_paths_agree():
    worst = 0.0
    for d in (0.2, 0.5, 0.8):
        cfg = DiamondConfig.from_distance(d, 10.0)
        closed, _ = cutset_diamond_opt(cfg)
        searched = cutset_estimate(cfg.to_network(10.0), 4, budget=10_000, seed=0)
        worst = max(worst, abs(closed - searched.estimate))
    ok = worst <= 1e-3
    report(
        10,
        ok,
        "diamond closed-form cutset optimum matches the generic covariance "
        f"search at three positions, worst |delta| = {worst:.1e} (cap 1e-3)",
    )
