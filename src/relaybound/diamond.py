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

from .errors import as_int, as_number, as_power
from .info import RateBits, gauss_c
from .networks import GaussianNetwork
from .optimize import Box, grid_then_refine
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
            snr = as_number(getattr(self, name), name)
            if not math.isfinite(snr):
                raise ValueError(f"{name} must be finite")
            if snr < 0:
                raise ValueError(f"{name} must be nonnegative")
            object.__setattr__(self, name, snr)

    @classmethod
    def from_distance(cls, d: float, p: float) -> "DiamondConfig":
        """Relays at distance d from the source, 1 - d from the destination,
        with path-loss exponent 3 (gain = distance^(-3/2)) and power p."""
        if not 0.0 < d < 1.0:
            raise ValueError(f"relay position d must lie in (0, 1), got {d}")
        p = as_power(p)
        near = p / d**3
        far = p / (1.0 - d) ** 3
        return cls(s21=near, s31=far, s42=far, s43=near)

    def to_network(self, power: float) -> GaussianNetwork:
        """The same diamond as a GaussianNetwork carrying unit-variance noise."""
        power = as_power(power)
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
        for name in ("rho", "sigma2_sq", "sigma3_sq"):
            object.__setattr__(self, name, as_number(getattr(self, name), name))
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if not (0 < self.sigma2_sq < math.inf and 0 < self.sigma3_sq < math.inf):
            raise ValueError("description-noise variances must be finite and positive")


def _min_terms(terms):
    """Elementwise minimum of bound terms (scalars or broadcastable arrays)."""
    return functools.reduce(np.minimum, terms)


#: The search range of a description- or quantizer-noise variance.
_NOISE = (math.exp(-6.0), math.exp(6.0), "log")


def _search(terms, box: Box, full: int, budget) -> tuple[RateBits, tuple[float, ...]]:
    """(value, argument) of ``grid_then_refine`` on the minimum of ``terms``
    over ``box``: ``full`` points per dimension when the budget affords that
    grid, else about budget ** (1 / dim), and the rest of the budget refines."""
    budget = as_int(budget, "budget")
    dim = len(box.dims)
    grid = full if budget >= full**dim else max(2, round(budget ** (1 / dim)))
    arg, value = grid_then_refine(lambda *x: _min_terms(terms(*x)), box, grid_per_dim=grid,
                                  refine_budget=max(budget - grid**dim, 0))
    return value, arg


def _relay_info(s: float, sigma_sq):
    """I between a relay's description and its observation, in bits."""
    return 0.5 * np.log2(
        (1.0 + s) * (sigma_sq + s) / (sigma_sq + (1.0 + sigma_sq) * s)
    )


def _ddf_terms(cfg: DiamondConfig, rho, s2, s3) -> tuple:
    """The four DDF cut terms, elementwise in (rho, s2, s3)."""
    i2 = _relay_info(cfg.s21, s2)
    i3 = _relay_info(cfg.s31, s3)
    cross = 2.0 * rho * math.sqrt(cfg.s42 * cfg.s43)
    shrink = 1.0 - rho * rho
    joint_cost = 0.5 * np.log2(
        (s2 + cfg.s21)
        * (s3 + cfg.s31)
        / ((s2 * s3 + s2 * cfg.s31 + s3 * cfg.s21) * shrink)
    )
    return (
        gauss_c(cfg.s42 + cfg.s43 + cross),
        gauss_c(shrink * cfg.s42) + i3,
        gauss_c(shrink * cfg.s43) + i2,
        i2 + i3 - joint_cost,
    )


def ddf_diamond_terms(cfg: DiamondConfig, params: DdfParams) -> tuple[float, ...]:
    terms = _ddf_terms(cfg, params.rho, params.sigma2_sq, params.sigma3_sq)
    return tuple(float(t) for t in terms)


def ddf_diamond(cfg: DiamondConfig, params: DdfParams) -> RateBits:
    """Partial-decode-and-bin achievable rate at fixed parameters."""
    return min(ddf_diamond_terms(cfg, params))


def ddf_diamond_opt(cfg: DiamondConfig, budget: int = 6000) -> tuple[RateBits, DdfParams]:
    """DDF rate maximized over DdfParams by a deterministic search."""
    box = Box([(0.0, 0.999), _NOISE, _NOISE])
    value, arg = _search(functools.partial(_ddf_terms, cfg), box, 16, budget)
    return value, DdfParams(*arg)


def _nnc_terms(cfg: DiamondConfig, s2, s3) -> tuple:
    """The four NNC cut terms, elementwise in (s2, s3)."""
    return (
        gauss_c(
            (cfg.s21 * (1.0 + s3) + cfg.s31 * (1.0 + s2))
            / ((1.0 + s2) * (1.0 + s3))
        ),
        gauss_c(cfg.s42) + gauss_c(cfg.s31 / (1.0 + s3)) - gauss_c(1.0 / s2),
        gauss_c(cfg.s43) + gauss_c(cfg.s21 / (1.0 + s2)) - gauss_c(1.0 / s3),
        gauss_c(cfg.s42 + cfg.s43) - gauss_c(1.0 / s2) - gauss_c(1.0 / s3),
    )


def nnc_diamond_terms(
    cfg: DiamondConfig, sigma2_sq: float, sigma3_sq: float
) -> tuple[float, ...]:
    s2, s3 = as_number(sigma2_sq, "sigma2_sq"), as_number(sigma3_sq, "sigma3_sq")
    if not (0 < s2 < math.inf and 0 < s3 < math.inf):
        raise ValueError("compression-noise variances must be finite and positive")
    return tuple(float(t) for t in _nnc_terms(cfg, s2, s3))


def nnc_diamond(cfg: DiamondConfig, sigma2_sq: float, sigma3_sq: float) -> RateBits:
    """Compress-and-forward (noisy network coding) rate at fixed quantizers.

    Can be negative for poor quantizer choices; reported as computed.
    """
    return min(nnc_diamond_terms(cfg, sigma2_sq, sigma3_sq))


def nnc_diamond_opt(
    cfg: DiamondConfig, budget: int = 2000
) -> tuple[RateBits, tuple[float, float]]:
    """NNC rate maximized over the quantizer variances by a deterministic search."""
    return _search(functools.partial(_nnc_terms, cfg), Box([_NOISE, _NOISE]), 24, budget)


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
    return gauss_c((a + b) ** 2 / den)


def df_diamond(cfg: DiamondConfig) -> RateBits:
    """Both relays decode the full message, then beamform over the MAC."""
    return min(
        gauss_c(cfg.s21),
        gauss_c(cfg.s31),
        gauss_c(cfg.s42 + cfg.s43 + 2.0 * math.sqrt(cfg.s42 * cfg.s43)),
    )


def _cutset_terms(cfg: DiamondConfig, rho: float, shrink: float) -> tuple[float, ...]:
    """The four cutset terms at correlation rho, with shrink = 1 - rho**2."""
    return (
        gauss_c(cfg.s21 + cfg.s31),
        gauss_c(cfg.s31) + gauss_c(shrink * cfg.s42),
        gauss_c(cfg.s21) + gauss_c(shrink * cfg.s43),
        gauss_c(cfg.s42 + cfg.s43 + 2.0 * rho * math.sqrt(cfg.s42 * cfg.s43)),
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
    b = math.sqrt(s42 * s43)
    candidates = [(0.0, 1.0), (1.0, 0.0)]
    if b > 0:
        rho = (s21 + s31 - s42 - s43) / (2.0 * b)
        candidates.append((rho, 1.0 - rho * rho))
    for c, d in ((s31, s42), (s21, s43)):
        qa, qc = (1.0 + c) * d, (1.0 + s42 + s43) - (1.0 + c) * (1.0 + d)
        if qc < 0.0 < qa:
            rho = -qc / (b + math.sqrt(b * b - qa * qc))
            candidates.append((rho, max((s42 + s43 - c + 2.0 * b * rho) / qa, 0.0)))
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
    p = as_power(p)

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
