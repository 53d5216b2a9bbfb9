"""Checks of relaybound's outputs against computations made apart from it.

Nothing here calls a relaybound kernel.  Cuts are enumerated with
``itertools``, cut log-dets come from ``numpy.linalg.slogdet`` on explicitly
built submatrices, DM marginals from ``ndarray.sum`` over axes, diamond
optima from the closed-form terms on a dense grid over rho, and weighted
region maxima from vertex enumeration of the LP.  Every check raises
``CheckFailed`` with a message naming the first disagreement.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

#: Probabilities below this count as exact zeros (0 log 0 = 0).
ZERO_EPS = 1e-15


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def close(got: float, want: float, tol: float, what: str) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r} within {tol:g}")


def at_most(got: float, cap: float, what: str) -> None:
    if not got <= cap:
        raise CheckFailed(f"{what}: {got!r} exceeds {cap!r}")


# ---------------------------------------------------------------------------
# Cuts and Gaussian cut terms.


def cuts(n: int, dests: Iterable[int], unicast: bool) -> list[tuple[int, ...]]:
    """Source sides S (containing node 1) with every destination outside S
    (unicast) or at least one destination outside S (broadcast)."""
    dests = set(dests)
    out = []
    for r in range(n):
        for extra in itertools.combinations(range(2, n + 1), r):
            s = (1,) + extra
            outside = dests - set(s)
            if (outside == dests) if unicast else bool(outside):
                out.append(s)
    return out


def far_side(n: int, s: Sequence[int]) -> list[int]:
    return [k for k in range(1, n + 1) if k not in s]


def cut_log_det(gains: np.ndarray, cov: np.ndarray, s: Sequence[int],
                rows: Sequence[int] | None = None) -> float:
    """(1/2) log2 det(I + G K(S) G^T) with G the rows x S gain block; rows
    defaults to the far side of S and may repeat a node."""
    n = gains.shape[0]
    rows = far_side(n, s) if rows is None else rows
    g = np.array([[gains[r - 1, c - 1] for c in s] for r in rows], dtype=float)
    k = np.array([[cov[a - 1, b - 1] for b in s] for a in s], dtype=float)
    sign, logdet = np.linalg.slogdet(np.eye(len(rows)) + g @ k @ g.T)
    if sign <= 0:
        raise CheckFailed(f"cut {tuple(s)}: I + G K G^T is not positive definite")
    return 0.5 * logdet / math.log(2.0)


def node_penalty(gains: np.ndarray, power: np.ndarray, k: int) -> float:
    """(1/2) log2(1 + S_k/(1+S_k)) with S_k = sum_j g_kj^2 P_j."""
    snr = float(sum(gains[k - 1, j] ** 2 * power[j] for j in range(len(power))))
    return 0.5 * math.log2(1.0 + snr / (1.0 + snr))


def check_cutset_estimate(gains, power, dest: int, est) -> None:
    """``estimate`` is the slogdet minimum over unicast cuts at ``k_best``;
    ``k_best`` is PSD with diagonal at most P; diag(P) value <= estimate <=
    relaxed_upper, the latter recomputed too."""
    gains = np.asarray(gains, dtype=float)
    power = np.asarray(power, dtype=float)
    n = gains.shape[0]
    k = np.asarray(est.k_best, dtype=float)
    if k.shape != (n, n) or not np.all(np.isfinite(k)):
        raise CheckFailed(f"k_best has shape {k.shape} or non-finite entries")
    at_most(float(np.max(np.abs(k - k.T))), 1e-9 * max(1.0, float(power.max())),
            "k_best asymmetry")
    lam = float(np.linalg.eigvalsh(0.5 * (k + k.T))[0])
    if lam < -1e-9 * max(1.0, float(power.max())):
        raise CheckFailed(f"k_best is not PSD: eigenvalue {lam:.3e}")
    for j in range(n):
        at_most(float(k[j, j]), float(power[j]) + 1e-9, f"k_best[{j},{j}] vs power")
    cut_list = cuts(n, {dest}, unicast=True)
    at_best = min(cut_log_det(gains, k, s) for s in cut_list)
    close(est.estimate, at_best, 1e-9, "estimate vs slogdet min over cuts at k_best")
    diag = np.diag(power)
    terms = {s: cut_log_det(gains, diag, s) for s in cut_list}
    at_most(min(terms.values()), est.estimate + 1e-9, "diag(P) value vs estimate")
    relaxed = min(t + len(s) / 2.0 for s, t in terms.items())
    close(est.relaxed_upper, relaxed, 1e-9, "relaxed_upper")
    at_most(est.estimate, est.relaxed_upper + 1e-9, "estimate vs relaxed_upper")


def check_ddf_unicast(gains, power, dest: int, rate: float) -> None:
    """Unicast inner bound: per cut, the destination's row enters twice, then
    every far-side node pays its penalty; the rate is the minimum over cuts."""
    gains = np.asarray(gains, dtype=float)
    power = np.asarray(power, dtype=float)
    n = gains.shape[0]
    diag = np.diag(power)
    want = min(
        cut_log_det(gains, diag, s, far_side(n, s) + [dest])
        - sum(node_penalty(gains, power, k) for k in far_side(n, s))
        for s in cuts(n, {dest}, unicast=True)
    )
    close(rate, want, 1e-9, "ddf_unicast_rate")


def check_gap_certificate(gains, power, dests, cert) -> None:
    """Every broadcast cut has one row with gap exactly N/2, tighter_gap at
    most N/2 + 1e-9, and a ddf term that charges the recomputed per-node
    penalties.  The rows do not expose each node's penalty, so the share of
    [0, 1/2] per node is checked on the total charged: in [0, |S^c|/2]."""
    gains = np.asarray(gains, dtype=float)
    power = np.asarray(power, dtype=float)
    n = gains.shape[0]
    half_n = n / 2.0
    want_cuts = cuts(n, dests, unicast=False)
    got_cuts = [tuple(r.cut.s) for r in cert.rows]
    if sorted(got_cuts) != sorted(want_cuts):
        raise CheckFailed(f"certificate cuts {got_cuts} != broadcast cuts {want_cuts}")
    diag = np.diag(power)
    pen = {k: node_penalty(gains, power, k) for k in range(2, n + 1)}
    for row in cert.rows:
        s = tuple(row.cut.s)
        far = far_side(n, s)
        if row.gap != half_n:
            raise CheckFailed(f"cut {s}: gap {row.gap!r} != N/2 = {half_n}")
        at_most(row.tighter_gap, half_n + 1e-9, f"cut {s}: tighter_gap")
        term = cut_log_det(gains, diag, s)
        close(row.upper, term + len(s) / 2.0, 1e-9, f"cut {s}: upper")
        close(row.inner, term - len(far) / 2.0, 1e-9, f"cut {s}: inner")
        close(row.ddf, term - sum(pen[k] for k in far), 1e-9, f"cut {s}: ddf")
        charged = (row.upper - len(s) / 2.0) - row.ddf
        if not -1e-9 <= charged <= len(far) / 2.0 + 1e-9:
            raise CheckFailed(f"cut {s}: penalties total {charged}, outside [0, |S^c|/2]")
    if cert.max_gap != half_n:
        raise CheckFailed(f"max_gap {cert.max_gap!r} != N/2")
    close(cert.max_tighter_gap, max(r.tighter_gap for r in cert.rows), 0.0,
          "max_tighter_gap")


# ---------------------------------------------------------------------------
# The two-relay diamond.


def diamond_snrs(d: float, p: float) -> tuple[float, float, float, float]:
    """(s21, s31, s42, s43) for relays at distance d, path-loss exponent 3."""
    near, far = p / d**3, p / (1.0 - d) ** 3
    return near, far, far, near


def _c(x: float) -> float:
    return 0.5 * math.log2(1.0 + x)


def diamond_cutset_profile(snrs, rho: float) -> float:
    s21, s31, s42, s43 = snrs
    shrink = 1.0 - rho * rho
    return min(
        _c(s21 + s31),
        _c(s31) + _c(shrink * s42),
        _c(s21) + _c(shrink * s43),
        _c(s42 + s43 + 2.0 * rho * math.sqrt(s42 * s43)),
    )


def diamond_cutset_opt(snrs, points: int = 4001) -> float:
    """Max over rho in [0, 1] of the closed-form cutset profile: a dense grid,
    then ternary search inside the winning cell's neighbours.  The profile is
    a minimum of nonincreasing and nondecreasing terms, so it is unimodal."""
    grid = np.linspace(0.0, 1.0, points)
    vals = [diamond_cutset_profile(snrs, float(r)) for r in grid]
    i = int(np.argmax(vals))
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, points - 1)])
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if diamond_cutset_profile(snrs, m1) < diamond_cutset_profile(snrs, m2):
            lo = m1
        else:
            hi = m2
    return max(max(vals), diamond_cutset_profile(snrs, 0.5 * (lo + hi)))


def check_diamond_estimate(d: float, p: float, estimate: float) -> None:
    """The covariance search lands within 1e-3 of the closed-form optimum and
    never above it by more than 1e-9."""
    opt = diamond_cutset_opt(diamond_snrs(d, p))
    if not opt - 1e-3 <= estimate <= opt + 1e-9:
        raise CheckFailed(
            f"diamond d={d}, P={p}: estimate {estimate!r} vs closed-form optimum {opt!r}"
        )


def check_sweep(doc: dict, positions: Sequence[float], p: float) -> None:
    """diamond-sweep JSON: inner bounds <= cutset + 1e-6 and cutset equal to
    the dense-grid optimum to 2e-6."""
    rows = doc.get("rows", [])
    if len(rows) != len(positions):
        raise CheckFailed(f"sweep has {len(rows)} rows, expected {len(positions)}")
    for row, d in zip(rows, positions):
        close(row["d"], d, 1e-12, "sweep position")
        for name in ("df", "af", "nnc", "ddf"):
            at_most(row[name], row["cutset"] + 1e-6, f"d={d}: {name} vs cutset")
        close(row["cutset"], diamond_cutset_opt(diamond_snrs(d, p)), 2e-6,
              f"d={d}: cutset vs dense-grid optimum")


# ---------------------------------------------------------------------------
# Rate regions.


def ddf_region_bounds(gains, power, dests) -> dict[tuple[int, ...], float]:
    """Per broadcast cut: max(cut term - far-side penalties, 0)."""
    gains = np.asarray(gains, dtype=float)
    power = np.asarray(power, dtype=float)
    n = gains.shape[0]
    diag = np.diag(power)
    return {
        s: max(cut_log_det(gains, diag, s)
               - sum(node_penalty(gains, power, k) for k in far_side(n, s)), 0.0)
        for s in cuts(n, dests, unicast=False)
    }


def check_region_constraints(doc: dict, bounds: dict, dests: Sequence[int]) -> None:
    got = {tuple(c["cut"]): c for c in doc["constraints"]}
    if sorted(got) != sorted(bounds):
        raise CheckFailed(f"region cuts {sorted(got)} != {sorted(bounds)}")
    for s, b in bounds.items():
        want_coeff = [0 if d in s else 1 for d in dests]
        if list(got[s]["coeff"]) != want_coeff:
            raise CheckFailed(f"cut {s}: coeff {got[s]['coeff']} != {want_coeff}")
        close(got[s]["bound"], b, 1e-9, f"cut {s}: region bound")


def symmetric_max(bounds: dict, dests: Sequence[int]) -> float:
    """Largest t with (t, ..., t) in the region: min over cuts of b/|c|."""
    return min(
        max(b, 0.0) / sum(1 for d in dests if d not in s) for s, b in bounds.items()
    )


def lp_max(weights: Sequence[float], rows: Sequence[tuple[Sequence[int], float]]) -> float:
    """max w.x subject to a.x <= b for each row and x >= 0, by enumerating
    the vertices of the polytope (exact at these small dimensions)."""
    dim = len(weights)
    a = [np.asarray(r, dtype=float) for r, _ in rows] + list(np.eye(dim))
    b = [float(v) for _, v in rows] + [0.0] * dim
    sign = [1.0] * len(rows) + [-1.0] * dim  # -x_i <= 0
    mat = np.array([s * r for s, r in zip(sign, a)])
    rhs = np.array(b)
    best = -math.inf
    for idx in itertools.combinations(range(len(mat)), dim):
        sub = mat[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, rhs[list(idx)])
        if np.all(mat @ x <= rhs + 1e-12):
            best = max(best, float(np.dot(weights, x)))
    if best == -math.inf:
        raise CheckFailed("the LP has no vertex")
    return best


def check_weighted(doc: dict, bounds: dict, dests: Sequence[int]) -> None:
    weights = doc["weights"]
    rows = [([0 if d in s else 1 for d in dests], max(b, 0.0)) for s, b in bounds.items()]
    close(doc["value"], lp_max(weights, rows), 1e-9, "weighted region maximum")
    x = np.asarray(doc["argmax"], dtype=float)
    if np.any(x < -1e-12):
        raise CheckFailed(f"argmax {x.tolist()} has a negative rate")
    for coeff, b in rows:
        at_most(float(np.dot(coeff, x)), b + 1e-9, "argmax vs region constraint")
    close(float(np.dot(weights, x)), doc["value"], 1e-9, "weights . argmax")


def check_blackwell_csv(text: str) -> None:
    """The frontier is monotone (r2 up, r3 down) and sum = r2 + r3."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["r2", "r3", "sum"] or len(rows) < 3:
        raise CheckFailed("blackwell output lacks its header or its rows")
    pts = [tuple(float(v) for v in r) for r in rows[1:]]
    for (a2, a3, _), (b2, b3, _) in zip(pts, pts[1:]):
        if b2 < a2 or b3 > a3:
            raise CheckFailed(f"frontier not monotone at ({a2}, {a3}) -> ({b2}, {b3})")
    for r2, r3, total in pts:
        close(total, r2 + r3, 1.5e-6, "blackwell sum column")


# ---------------------------------------------------------------------------
# Discrete-memoryless instances.


def canonical_names(n: int) -> list[str]:
    return (["q"] + [f"x{k}" for k in range(1, n + 1)]
            + [f"u{k}" for k in range(2, n + 1)] + [f"y{k}" for k in range(1, n + 1)])


def _to_canonical(tensor: np.ndarray, names: Sequence[str], order: Sequence[str]):
    axes = sorted(range(len(names)), key=lambda i: order.index(names[i]))
    t = np.transpose(np.asarray(tensor, dtype=float), axes)
    shape = [1] * len(order)
    for i in axes:
        shape[order.index(names[i])] = tensor.shape[i]
    return t.reshape(shape)


class DmReference:
    """Entropies of the full joint p(q, x, u) p(y | x), built here with
    broadcasting and reduced with ``ndarray.sum``; nothing is shared with
    relaybound's ``JointPmf``."""

    def __init__(self, n, input_probs, input_names, channel_probs, channel_names):
        self.n = n
        self.order = canonical_names(n)
        joint = (_to_canonical(input_probs, input_names, self.order)
                 * _to_canonical(channel_probs, channel_names, self.order))
        self.joint = joint / joint.sum()
        self._h: dict[frozenset, float] = {}

    def h(self, names: frozenset) -> float:
        val = self._h.get(names)
        if val is None:
            drop = tuple(i for i, nm in enumerate(self.order) if nm not in names)
            marg = self.joint.sum(axis=drop) if drop else self.joint
            p = marg[marg >= ZERO_EPS]
            val = float(-np.sum(p * np.log2(p)))
            self._h[names] = val
        return val

    def mi(self, a, b, given=frozenset()) -> float:
        """I(a; b | given, q), floored at zero."""
        given = frozenset(given) | {"q"}
        a, b = frozenset(a) - given, frozenset(b) - given
        if not a or not b:
            return 0.0
        val = self.h(a | given) + self.h(b | given) - self.h(a | b | given) - self.h(given)
        return max(val, 0.0)

    @staticmethod
    def xs(nodes):
        return frozenset(f"x{k}" for k in nodes)

    @staticmethod
    def us(nodes):
        return frozenset(f"u{k}" for k in nodes if k >= 2)

    def cut_terms(self, s, dest):
        """(first term, {k: u-penalty}, {k: x-penalty}, total) of one cut."""
        far = far_side(self.n, s)
        b = self.us(far) | (frozenset({f"y{dest}"}) if dest is not None else frozenset())
        first = self.mi(self.xs(s), b, self.xs(far))
        all_x = self.xs(range(1, self.n + 1))
        pen_u, pen_x = {}, {}
        for k in far:
            earlier = [j for j in far if j < k]
            pen_u[k] = self.mi(self.us([k]), self.us(earlier) | all_x,
                               self.xs([k]) | {f"y{k}"})
            pen_x[k] = self.mi(self.xs([k]), self.xs(earlier))
        return first, pen_u, pen_x, first - sum(pen_u.values()) - sum(pen_x.values())

    def cutset_term(self, s) -> float:
        far = far_side(self.n, s)
        return self.mi(self.xs(s), frozenset(f"y{k}" for k in far), self.xs(far))


def check_dm_unicast(ref: DmReference, dest: int, value: float, terms) -> None:
    """Per-cut terms of ddf_unicast_dm match to 1e-9; value is their min.

    ``terms`` holds (cut, first, penalty_u, penalty_x, total) tuples."""
    want_cuts = cuts(ref.n, {dest}, unicast=True)
    got = {tuple(t[0]): t for t in terms}
    if sorted(got) != sorted(want_cuts):
        raise CheckFailed(f"unicast cuts {sorted(got)} != {want_cuts}")
    for s in want_cuts:
        first, pen_u, pen_x, total = ref.cut_terms(s, dest)
        _, g_first, g_pen_u, g_pen_x, g_total = got[s]
        close(g_first, first, 1e-9, f"cut {s}: first term")
        for k in pen_u:
            close(g_pen_u[k], pen_u[k], 1e-9, f"cut {s}: u-penalty of node {k}")
            close(g_pen_x[k], pen_x[k], 1e-9, f"cut {s}: x-penalty of node {k}")
        close(g_total, total, 1e-9, f"cut {s}: total")
    if value != min(t[4] for t in terms):
        raise CheckFailed(f"unicast value {value!r} is not the minimum of its cuts")


def check_dm_constraints(ref: DmReference, values: dict, clamp: bool = False) -> None:
    """J(S) for every broadcast cut over destinations 2..n, to 1e-9 (clamped
    at zero for region bounds)."""
    want_cuts = cuts(ref.n, range(2, ref.n + 1), unicast=False)
    if sorted(values) != sorted(want_cuts):
        raise CheckFailed(f"constraint cuts {sorted(values)} != {want_cuts}")
    for s in want_cuts:
        want = ref.cut_terms(s, None)[3]
        close(values[s], max(want, 0.0) if clamp else want, 1e-9, f"J{s}")


def check_dm_cutset(ref: DmReference, dest: int, values: dict) -> None:
    """I(X(S); Y(S^c) | X(S^c), Q) for every unicast cut, to 1e-9."""
    want_cuts = cuts(ref.n, {dest}, unicast=True)
    if sorted(values) != sorted(want_cuts):
        raise CheckFailed(f"cutset cuts {sorted(values)} != {want_cuts}")
    for s in want_cuts:
        close(values[s], ref.cutset_term(s), 1e-9, f"cutset term of cut {s}")
