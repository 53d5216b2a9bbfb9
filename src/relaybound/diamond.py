"""Closed-form bound comparison for the four-node Gaussian diamond.

Node 1 broadcasts to relays 2 and 3 over orthogonal-noise links with received
SNRs s21 and s31; the relays reach destination 4 over a MAC with SNRs s42 and
s43.  Every bound below is an explicit function of those four SNRs, so the
whole benchmark is cheap enough to sweep and to cross-check against the
generic covariance machinery.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import as_int, as_nonnegative, as_number, as_positive
from .info import RateBits, _gauss_c_of_float, gauss_c
from .networks import GaussianNetwork
from .optimize import BoxDim, grid_then_refine
from .optimize import golden_max  # noqa: F401 -- a module attribute the benchmark tracer wraps


@dataclass(frozen=True)
class DiamondConfig:
    """Received SNRs of the four links."""

    s21: float
    s31: float
    s42: float
    s43: float

    def __post_init__(self):
        for name in ("s21", "s31", "s42", "s43"):
            object.__setattr__(self, name, as_nonnegative(getattr(self, name), name))
        # Every bound is finite below these sums, and the cutset's is not above.
        if not self.s21 + self.s31 < math.inf:
            raise ValueError("s21, s31: the source's total SNR s21 + s31 overflows a float")
        if not math.sqrt(self.s42) + math.sqrt(self.s43) < 2.0**512:
            raise ValueError("s42, s43: the beamformed SNR (sqrt(s42) + sqrt(s43))**2 overflows")

    @classmethod
    def from_distance(cls, d: float, p: float) -> "DiamondConfig":
        """Relays at distance d from the source, 1 - d from the destination,
        with path-loss exponent 3 (gain = distance^(-3/2)) and power p."""
        d = as_number(d, "d")
        if not 0.0 < d < 1.0:
            raise ValueError(f"relay position d must lie in (0, 1), got {d}")
        p = as_positive(p, "power")
        near_cube = d**3  # 0.0 once it underflows, below d ~ 1e-108
        near = p / near_cube if near_cube else math.inf
        far = p / (1.0 - d) ** 3
        if max(near, far) == math.inf:
            raise ValueError(
                f"relay position d = {d} at power {p} gives a received SNR that overflows a float")
        return cls(s21=near, s31=far, s42=far, s43=near)

    def to_network(self, power: float) -> GaussianNetwork:
        """The same diamond as a GaussianNetwork carrying unit-variance noise."""
        power = as_positive(power, "power")
        g = np.zeros((4, 4))
        g[1, 0] = math.sqrt(self.s21 / power)
        g[2, 0] = math.sqrt(self.s31 / power)
        g[3, 1] = math.sqrt(self.s42 / power)
        g[3, 2] = math.sqrt(self.s43 / power)
        return GaussianNetwork(4, g, power, destinations=[4])


@dataclass(frozen=True)
class DdfParams:
    """Relay correlation and per-relay description-noise variances."""

    rho: float
    sigma2_sq: float
    sigma3_sq: float

    def __post_init__(self):
        object.__setattr__(self, "rho", as_number(self.rho, "rho"))
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        for name in ("sigma2_sq", "sigma3_sq"):
            object.__setattr__(self, name, as_positive(getattr(self, name), name))


def _min_terms(terms):
    """Elementwise minimum of bound terms: ``min`` of floats, the first of
    equal terms, and ``np.minimum`` of broadcastable arrays.  Each form of an
    objective is taken only where its terms are finite, and ``gauss_c``
    refuses a NaN SNR, so no NaN reaches it."""
    if isinstance(terms[0], float):
        return min(terms)
    return functools.reduce(np.minimum, terms)


#: The search range of a description- or quantizer-noise variance, and the
#: search boxes over the DDF parameters (rho, sigma2_sq, sigma3_sq) and over
#: the two NNC quantizer variances.
_NOISE = BoxDim(math.exp(-6.0), math.exp(6.0), "log")
_DDF_BOX = (BoxDim(0.0, 0.999), _NOISE, _NOISE)
_NNC_BOX = (_NOISE, _NOISE)


def _search(objective, box: Sequence[BoxDim], full: int, budget) -> tuple[RateBits, tuple[float, ...]]:
    """(value, argument) of ``grid_then_refine`` on ``objective`` over ``box``:
    ``full`` points per dimension when the budget affords that grid, else
    about budget ** (1 / dim), and the rest of the budget refines."""
    budget = as_int(budget, "budget")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    dim = len(box)
    grid = full if budget >= full**dim else max(2, round(budget ** (1 / dim)))
    arg, value = grid_then_refine(objective, box, grid_per_dim=grid,
                                  refine_budget=max(budget - grid**dim, 0))
    return value, arg


def _geomean(x: float, y: float) -> float:
    """sqrt(x y), with its bits, or sqrt(x) sqrt(y) where x y overflows."""
    root = math.sqrt(x * y)
    return root if root < math.inf else math.sqrt(x) * math.sqrt(y)


def _half_log2(x):
    """(1/2) log2(x) of an array, elementwise."""
    return 0.5 * np.log2(x)


def _half_log2_of_float(x: float) -> float:
    """(1/2) log2(x) of a float, as a float with the array's bits."""
    return 0.5 * float(np.log2(x))


def _kernels(reduce):
    """The (half-log2, C, reduce) of a plain diamond objective on floats and
    on arrays, which it picks once per call by its arguments' type.  The
    float ones skip ``gauss_c``'s type check and ``_min_terms``'s, and give
    the same bits."""
    return ((_half_log2_of_float, _gauss_c_of_float, min if reduce is _min_terms else reduce),
            (_half_log2, gauss_c, reduce))


def _ddf_objective(cfg: DiamondConfig, reduce=_min_terms, logs: bool = False):
    """``reduce`` of the four DDF cut terms of ``cfg``, as one function of
    (rho, s2, s3), elementwise on arrays or on floats: by default their
    minimum, the search's objective, and with ``tuple`` the terms.

    The derived constants are bound once per configuration and the plain
    form picks its half-log2, C(x) and reduce once per call (``_kernels``);
    every C(x) is ``gauss_c``'s, which refuses a negative or NaN SNR on both
    kinds of call.  The products below
    overflow once an SNR or a variance nears 1e154, and the joint cost loses
    digits once its divisor is subnormal; with ``logs`` the relay and joint
    costs are taken as sums of log2s, which do neither.  ``_ddf_fits`` picks
    the form once: at the point for ``ddf_diamond_terms``, at the box's
    corners for ``ddf_diamond_opt``."""
    s21, s31, s42, s43 = cfg.s21, cfg.s31, cfg.s42, cfg.s43
    a21, a31, mac = 1.0 + s21, 1.0 + s31, s42 + s43
    root = _geomean(s42, s43)
    if logs:
        with np.errstate(divide="ignore"):  # log2(0) = -inf is exact
            l21, l31, la21, la31 = np.log2((s21, s31, a21, a31)).tolist()
        lae = np.logaddexp2

        def in_logs(rho, s2, s3):
            shrink, l2, l3 = 1.0 - rho * rho, np.log2(s2), np.log2(s3)
            l2b, l3b = lae(l2, l21), lae(l3, l31)  # log2(s2 + s21), log2(s3 + s31)
            i2 = 0.5 * (la21 + l2b - lae(l2b, l2 + l21))
            i3 = 0.5 * (la31 + l3b - lae(l3b, l3 + l31))
            joint_cost = 0.5 * (l2b + l3b - lae(l2 + l3, lae(l2 + l31, l3 + l21)) - np.log2(shrink))
            return reduce((gauss_c(mac + 2.0 * rho * root), gauss_c(shrink * s42) + i3,
                           gauss_c(shrink * s43) + i2, i2 + i3 - joint_cost))

        return in_logs

    on_floats, on_arrays = _kernels(reduce)

    def objective(rho, s2, s3):
        half_log2, c, reduce_ = on_floats if isinstance(s2, float) else on_arrays
        # I between a relay's description and its observation, in bits.
        i2 = half_log2(a21 * (s2 + s21) / (s2 + (1.0 + s2) * s21))
        i3 = half_log2(a31 * (s3 + s31) / (s3 + (1.0 + s3) * s31))
        shrink = 1.0 - rho * rho
        den = s2 * s3 + s2 * s31 + s3 * s21
        joint_cost = half_log2((s2 + s21) * (s3 + s31) / (den * shrink))
        return reduce_((
            c(mac + 2.0 * rho * root),
            c(shrink * s42) + i3,
            c(shrink * s43) + i2,
            i2 + i3 - joint_cost,
        ))

    return objective


def _ddf_fits(cfg: DiamondConfig, rho: float, s2: float, s3: float) -> bool:
    """Whether the plain ``_ddf_objective`` holds at (rho, s2, s3): its
    products and its joint cost's ratio b2 b3 / (den (1 - rho^2)) stay
    finite, and that divisor stays a normal float (2**-1022 or more), which
    keeps every digit of the ratio."""
    b2, b3 = s2 + cfg.s21, s3 + cfg.s31
    den = (s2 * s3 + s2 * cfg.s31 + s3 * cfg.s21) * (1.0 - rho * rho)
    return (max((1.0 + cfg.s21) * b2, (1.0 + cfg.s31) * b3, b2 * b3) < math.inf
            and 2.0**-1022 <= den < math.inf and b2 * b3 / den < math.inf)


def ddf_diamond_terms(cfg: DiamondConfig, params: DdfParams) -> tuple[float, ...]:
    point = (params.rho, params.sigma2_sq, params.sigma3_sq)
    terms = _ddf_objective(cfg, tuple, logs=not _ddf_fits(cfg, *point))(*point)
    return tuple(float(t) for t in terms)


def ddf_diamond(cfg: DiamondConfig, params: DdfParams) -> RateBits:
    """Partial-decode-and-bin achievable rate at fixed parameters."""
    return min(ddf_diamond_terms(cfg, params))


def ddf_diamond_opt(cfg: DiamondConfig, budget: int = 6000) -> tuple[RateBits, DdfParams]:
    """DDF rate maximized over DdfParams by a deterministic search of about
    ``budget`` probes; its rounded grid side can itself exceed the budget, e.g.
    budget 2,000 scans 13**3 = 2,197 grid points (see ``grid_then_refine``)."""
    # The products grow with the variances; the divisor falls, and the ratio
    # rises, as they fall and as rho rises: so the plain form holds on the
    # box if it holds at two corners.
    rho, noise, _ = _DDF_BOX
    logs = not (_ddf_fits(cfg, rho.lo, noise.hi, noise.hi)
                and _ddf_fits(cfg, rho.hi, noise.lo, noise.lo))
    value, arg = _search(_ddf_objective(cfg, logs=logs), _DDF_BOX, 16, budget)
    return value, DdfParams(*arg)


def _nnc_fits(cfg: DiamondConfig, s2: float, s3: float) -> bool:
    """Whether nothing in ``_nnc_objective`` overflows at (s2, s3) or below."""
    return max(cfg.s21 * (1.0 + s3) + cfg.s31 * (1.0 + s2), (1.0 + s2) * (1.0 + s3),
               1.0 / s2, 1.0 / s3) < math.inf


def _nnc_objective(cfg: DiamondConfig, reduce=_min_terms, logs: bool = False):
    """``reduce`` of the four NNC cut terms of ``cfg``, as one function of
    (s2, s3), elementwise on arrays or on floats, as ``_ddf_objective``;
    C(s42), C(s43) and C(s42 + s43) are bound once per configuration.  With
    ``logs``, the first SNR is a sum of quotients and C(1 / s) a difference of
    log2s, so neither overflows."""
    s21, s31 = cfg.s21, cfg.s31
    c42, c43, c_mac = gauss_c(cfg.s42), gauss_c(cfg.s43), gauss_c(cfg.s42 + cfg.s43)
    if logs:
        def in_logs(s2, s3):
            c2, c3 = (0.5 * (np.log2(1.0 + s) - np.log2(s)) for s in (s2, s3))
            q2, q3 = s21 / (1.0 + s2), s31 / (1.0 + s3)
            return reduce((gauss_c(q2 + q3), c42 + gauss_c(q3) - c2, c43 + gauss_c(q2) - c3,
                           c_mac - c2 - c3))

        return in_logs

    on_floats, on_arrays = _kernels(reduce)

    def objective(s2, s3):
        _, c, reduce_ = on_floats if isinstance(s2, float) else on_arrays
        c2, c3 = c(1.0 / s2), c(1.0 / s3)
        return reduce_((
            c((s21 * (1.0 + s3) + s31 * (1.0 + s2)) / ((1.0 + s2) * (1.0 + s3))),
            c42 + c(s31 / (1.0 + s3)) - c2,
            c43 + c(s21 / (1.0 + s2)) - c3,
            c_mac - c2 - c3,
        ))

    return objective


def nnc_diamond_terms(
    cfg: DiamondConfig, sigma2_sq: float, sigma3_sq: float
) -> tuple[float, ...]:
    s2, s3 = as_positive(sigma2_sq, "sigma2_sq"), as_positive(sigma3_sq, "sigma3_sq")
    terms = _nnc_objective(cfg, tuple, logs=not _nnc_fits(cfg, s2, s3))(s2, s3)
    return tuple(float(t) for t in terms)


def nnc_diamond(cfg: DiamondConfig, sigma2_sq: float, sigma3_sq: float) -> RateBits:
    """Compress-and-forward (noisy network coding) rate at fixed quantizers.

    Can be negative for poor quantizer choices; reported as computed.
    """
    return min(nnc_diamond_terms(cfg, sigma2_sq, sigma3_sq))


def nnc_diamond_opt(
    cfg: DiamondConfig, budget: int = 2000
) -> tuple[RateBits, tuple[float, float]]:
    """NNC rate maximized over the quantizer variances by a deterministic search
    of about ``budget`` probes; its rounded grid side can itself exceed the
    budget, e.g. budget 43 scans 7**2 = 49 grid points."""
    logs = not _nnc_fits(cfg, _NOISE.hi, _NOISE.hi)  # the products grow with s2 and s3
    return _search(_nnc_objective(cfg, logs=logs), _NNC_BOX, 24, budget)


def af_diamond(cfg: DiamondConfig) -> RateBits:
    """Amplify-and-forward: the relays scale their observations to full power,
    leaving a single effective Gaussian channel to the destination."""
    a = math.sqrt(cfg.s21 * cfg.s42 * (cfg.s31 + 1.0))
    b = math.sqrt(cfg.s31 * cfg.s43 * (cfg.s21 + 1.0))
    den = (
        cfg.s42 * (cfg.s31 + 1.0)
        + cfg.s43 * (cfg.s21 + 1.0)
        + (cfg.s21 + 1.0) * (cfg.s31 + 1.0)
    )
    if a + b < 2.0**512 and den < math.inf:  # (a + b)**2 and den fit a float
        return gauss_c((a + b) ** 2 / den)
    with np.errstate(divide="ignore"):  # else (a + b)^2 / den = 2^x from log2s
        l21, l31, l42, l43, la21, la31 = np.log2(
            (cfg.s21, cfg.s31, cfg.s42, cfg.s43, cfg.s21 + 1.0, cfg.s31 + 1.0)).tolist()
    lae = np.logaddexp2
    x = 2.0 * lae((l21 + l42 + la31) / 2, (l31 + l43 + la21) / 2) - lae(
        lae(l42 + la31, l43 + la21), la21 + la31)
    return 0.5 * float(lae(0.0, x))


def df_diamond(cfg: DiamondConfig) -> RateBits:
    """Both relays decode the full message, then beamform over the MAC."""
    return min(
        gauss_c(cfg.s21),
        gauss_c(cfg.s31),
        gauss_c(cfg.s42 + cfg.s43 + 2.0 * _geomean(cfg.s42, cfg.s43)),
    )


def _cutset_terms(cfg: DiamondConfig, rho: float, shrink: float) -> tuple[float, ...]:
    """The four cutset terms at correlation rho, with shrink = 1 - rho**2."""
    return (
        gauss_c(cfg.s21 + cfg.s31),
        gauss_c(cfg.s31) + gauss_c(shrink * cfg.s42),
        gauss_c(cfg.s21) + gauss_c(shrink * cfg.s43),
        gauss_c(cfg.s42 + cfg.s43 + 2.0 * rho * _geomean(cfg.s42, cfg.s43)),
    )


def cutset_diamond_terms(cfg: DiamondConfig, rho: float) -> tuple[float, ...]:
    rho = as_number(rho, "rho")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    return _cutset_terms(cfg, rho, 1.0 - rho * rho)


def cutset_diamond(cfg: DiamondConfig, rho: float) -> RateBits:
    """Cutset outer bound at a fixed relay correlation."""
    return min(cutset_diamond_terms(cfg, rho))


def cutset_diamond_opt(cfg: DiamondConfig) -> tuple[RateBits, float]:
    """Cutset bound maximized over the relay correlation, in closed form.

    The terms are constant, decreasing, decreasing and increasing in rho, so
    the maximum is at rho = 0, at rho = 1, or where C(s42 + s43 + 2 b rho),
    b = sqrt(s42 s43), meets the constant, at (s21 + s31 - s42 - s43) / (2 b),
    or C(c) + C((1 - rho^2) d), (c, d) = (s31, s42) or (s21, s43), at the root
    rho = -qc / (b + sqrt(b^2 - qa qc)) of qa rho^2 + 2 b rho + qc, taken when
    qc < 0 < qa, with qa = (1 + c) d and qc = (1 + s42 + s43) - (1 + c)(1 + d).
    There 1 - rho^2 = (s42 + s43 - c + 2 b rho) / qa, floored at 0, which does
    not cancel as rho -> 1.  The best candidate in [0, 1] wins, the smallest rho
    on ties; ``cutset_diamond(cfg, rho)`` reproduces its value within 1e-12
    relative when 1 - rho >= 1e-5.
    """
    s21, s31, s42, s43 = cfg.s21, cfg.s31, cfg.s42, cfg.s43
    b = _geomean(s42, s43)
    candidates = [(0.0, 1.0), (1.0, 0.0)]
    if b > 0:
        rho = (s21 + s31 - s42 - s43) / (2.0 * b)
        candidates.append((rho, 1.0 - rho * rho))
    for c, d in ((s31, s42), (s21, s43)):
        qa, qc = (1.0 + c) * d, (1.0 + s42 + s43) - (1.0 + c) * (1.0 + d)
        if qc < 0.0 < qa:
            disc = b * b - qa * qc
            if disc < math.inf:
                rho = -qc / (b + math.sqrt(disc))
                shrink = (s42 + s43 - c + 2.0 * b * rho) / qa
            else:  # the same root and shrink, with qa, b and qc over (1 + c)(1 + d)
                qa, qc = d / (1.0 + d), (1.0 + s42 + s43) / (1.0 + c) / (1.0 + d) - 1.0
                scaled = b / (1.0 + c) / (1.0 + d)
                rho = -qc / (scaled + math.sqrt(scaled * scaled - qa * qc))
                shrink = (s42 + s43 - c + 2.0 * b * rho) / (1.0 + c) / d
            candidates.append((rho, max(shrink, 0.0)))
    value, neg_rho = max((min(_cutset_terms(cfg, rho, shrink)), -rho)
                         for rho, shrink in candidates if 0.0 <= rho <= 1.0)
    return value, -neg_rho


# ---------------------------------------------------------------------------
# Sweeps over the relay position.


@dataclass(frozen=True)
class SweepRow:
    d: float
    cutset: float
    df: float
    af: float
    nnc: float
    ddf: float
    cutset_rho: float
    nnc_sigma_sq: tuple[float, float]
    ddf_params: DdfParams
    nnc_active: int
    ddf_active: int


@dataclass(frozen=True)
class SweepTable:
    power: float
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        lines = ["d,cutset,df,af,nnc,ddf"]
        for r in self.rows:
            lines.append(
                f"{r.d:.6f},{r.cutset:.6f},{r.df:.6f},{r.af:.6f},"
                f"{r.nnc:.6f},{r.ddf:.6f}"
            )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "power": self.power,
            "rows": [
                {
                    "d": r.d,
                    "cutset": r.cutset,
                    "df": r.df,
                    "af": r.af,
                    "nnc": r.nnc,
                    "ddf": r.ddf,
                    "params": {
                        "cutset_rho": r.cutset_rho,
                        "nnc_sigma_sq": list(r.nnc_sigma_sq),
                        "ddf": asdict(r.ddf_params),
                        "active": {"nnc": r.nnc_active, "ddf": r.ddf_active},
                    },
                }
                for r in self.rows
            ],
        }


def diamond_sweep(
    d_grid: Sequence[float], p: float, budget: int = 6000
) -> SweepTable:
    """Evaluate every bound on a grid of relay positions.

    Rows follow d_grid and are deterministic for a fixed budget.
    """
    p = as_positive(p, "power")

    def one(d: float) -> SweepRow:
        cfg = DiamondConfig.from_distance(d, p)
        cut_v, cut_rho = cutset_diamond_opt(cfg)
        nnc_v, nnc_s = nnc_diamond_opt(cfg, budget=budget // 3)
        ddf_v, ddf_p = ddf_diamond_opt(cfg, budget=budget)
        return SweepRow(
            d=d,
            cutset=cut_v,
            df=df_diamond(cfg),
            af=af_diamond(cfg),
            nnc=nnc_v,
            ddf=ddf_v,
            cutset_rho=cut_rho,
            nnc_sigma_sq=nnc_s,
            ddf_params=ddf_p,
            nnc_active=int(np.argmin(nnc_diamond_terms(cfg, *nnc_s))),
            ddf_active=int(np.argmin(ddf_diamond_terms(cfg, ddf_p))),
        )

    return SweepTable(power=float(p), rows=tuple(one(float(d)) for d in d_grid))
