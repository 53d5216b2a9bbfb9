"""Inner and outer bounds for Gaussian relay networks.

The inner bound evaluates, per cut S (source side), a mutual-information term
(1/2) log2 |I + G(S) diag(P(S)) G(S)^T| minus one penalty per far-side node,

    penalty_k = (1/2) log2(1 + S_k / (1 + S_k)) <= 1/2,

with S_k the full-power received SNR at node k.  The cutset outer bound uses
the same log-det kernel with a free input covariance.  Relaxing the penalty to
its worst case 1/2 per node, and the covariance by Hadamard's inequality to
1/2 per source-side node, pins the inner/outer gap at exactly n/2 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .dm import _DDF, DmInstance, _canonical_vars, _cut_values
from .errors import as_int, as_node, as_nonnegative, as_numbers
from .info import RateBits, log_det_rate
from .networks import _TABLE_NODES, Cut, GaussianNetwork, enumerate_cuts, received_snr
from .networks import cut_submatrix  # noqa: F401 -- a module attribute the benchmark tracer wraps
from .regions import RateRegion, region_from_cuts


def penalty_rate(snr: float) -> RateBits:
    """(1/2) log2(1 + s/(1+s)); lies in [0, 1/2] for every s >= 0."""
    snr = as_nonnegative(snr, "snr")
    return 0.5 * math.log2(1.0 + snr / (1.0 + snr))


def node_penalty(net: GaussianNetwork, k: int) -> RateBits:
    return penalty_rate(received_snr(net, k))


#: Matrices per kernel call.  Full-power evaluators score at most this many
#: cuts per call and the covariance search at most this many (candidate, cut)
#: pairs, which bounds the memory of one stack.
_STACK = 4096


def _cut_plan(
    net: GaussianNetwork, cuts: Sequence[Cut], dest: int | None = None
) -> np.ndarray:
    """The stack A, shape (len(cuts), n, n), of the gains G masked to each
    cut's far-side rows and source-side columns.

    The other rows are zero, so det(I + A K A^T) equals the determinant over
    the far block, |I + G(S) K(S) G(S)^T|.  With ``dest`` the destination's
    row is appended once more (n + 1 rows): the unicast cut's doubled
    observation.  The 0/1 pattern comes from ``_cut_pattern``.
    """
    build = _cut_pattern if net.n <= _TABLE_NODES else _cut_pattern.__wrapped__
    pattern, rows = build(net.n, tuple([cut.s for cut in cuts]), dest)
    return np.where(pattern, net.gains[rows], 0.0)


@lru_cache(maxsize=64)
def _cut_pattern(n: int, sides: tuple[tuple[int, ...], ...], dest: int | None):
    """(pattern, rows) of ``_cut_plan``: the read-only 0/1 far-row by
    near-column pattern of the cuts with source sides ``sides``, and the
    rows of G it selects, the destination's row once more at the end when
    ``dest`` is given.  Kept per cut list, like ``enumerate_cuts``' tables,
    for networks of at most ``_TABLE_NODES`` nodes."""
    masks = np.array([sum(1 << (k - 1) for k in s) for s in sides], dtype=np.int64)
    near = (masks[:, None] >> np.arange(n)) & 1 == 1
    pattern = ~near[:, :, None] & near[:, None, :]
    rows = slice(None)
    if dest is not None:
        rows = np.append(np.arange(n), dest - 1)
        pattern = pattern[:, rows]
        rows.flags.writeable = False
    pattern.flags.writeable = False
    return pattern, rows


#: Largest Gram entry A K A^T that the Gram route takes.  Rounding the Gram
#: costs about eps max|Gram| in its eigenvalues: 1e-10 bits at 1e5, but a
#: fraction of a bit by 1e15, where it swamps the unit eigenvalues of
#: I + Gram.  Above the gate a slice's rate comes from the singular values of
#: A K^{1/2}, whose squares carry no such error.  The SVD costs 2-5 times the
#: Cholesky, so the slices of everyday powers keep the Cholesky.
_GRAM_GATE = 1e5


def _plan_rates(plan: np.ndarray, k_cov: np.ndarray) -> np.ndarray:
    """(1/2) log2 |I + A K A^T| for every cut of the plan, in one kernel call:
    shape (ncuts,) for one covariance, (m, ncuts) for a stack of m.  Slices
    past ``_GRAM_GATE`` sum (1/2) log2(1 + s^2) over the singular values s of
    A K^{1/2} instead, with K^{1/2} from ``eigh``."""
    gram = plan @ k_cov[..., None, :, :] @ plan.swapaxes(-1, -2)
    # equal to its transpose, so ``log_det_rate`` skips its scale and
    # asymmetry passes; these are the bits it would symmetrize to itself
    gram = 0.5 * (gram + gram.swapaxes(-1, -2))
    # a PSD matrix's largest entry lies on its diagonal
    if gram.max() <= _GRAM_GATE:
        return log_det_rate(gram)
    big = gram.diagonal(axis1=-2, axis2=-1).max(axis=-1) > _GRAM_GATE
    rates = np.empty(big.shape)
    rates[~big] = log_det_rate(gram[~big])
    w, v = np.linalg.eigh(k_cov)
    root = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]  # K = root root^T up to rounding
    sv = np.linalg.svd((plan @ root[..., None, :, :])[big], compute_uv=False)
    rates[big] = np.log1p(sv * sv).sum(axis=-1) / (2.0 * math.log(2.0))
    return rates


def _ddf_rows(
    net: GaussianNetwork, cuts: Sequence[Cut], dest: int | None = None
) -> tuple[list[RateBits], list[RateBits]]:
    """(rate terms, inner-bound values) of every cut at K = diag(P), one
    kernel call per ``_STACK`` cuts, with ``dest`` as in ``_cut_plan``.  A
    value is its term less the far-side penalties, summed in far-side order."""
    power = np.diag(net.power)
    terms: list[RateBits] = []
    for i in range(0, len(cuts), _STACK):
        terms += _plan_rates(_cut_plan(net, cuts[i : i + _STACK], dest), power).tolist()
    pen = {k: node_penalty(net, k) for k in range(2, net.n + 1)}
    return terms, [t - sum(pen[k] for k in cut.complement) for t, cut in zip(terms, cuts)]


def _validate_cov(net: GaussianNetwork, k_cov: np.ndarray) -> np.ndarray:
    """Check K against the network; tolerances are 1e-9 of max(1, max|K|),
    and 1e-9 of max(1, P_j) on the diagonal."""
    k = as_numbers(k_cov, "k_cov")
    if k.shape != (net.n, net.n):
        raise ValueError(f"covariance must be {net.n}x{net.n}, got {k.shape}")
    tol = 1e-9 * max(1.0, float(np.max(np.abs(k))))
    if np.max(np.abs(k - k.T)) > tol:
        raise ValueError(f"covariance is not symmetric within {tol:.3e}")
    k = 0.5 * (k + k.T)
    eig = np.linalg.eigvalsh(k)
    if eig[0] < -tol:
        raise ValueError(f"covariance has eigenvalue {eig[0]:.3e} < {-tol:.3e}")
    for j in range(net.n):
        if k[j, j] > net.power[j] + 1e-9 * max(1.0, net.power[j]):
            raise ValueError(
                f"covariance diagonal {k[j, j]} at node {j + 1} exceeds the "
                f"power limit {net.power[j]}"
            )
    return k


def cutset_cut_rate(net: GaussianNetwork, cut: Cut, k_cov: np.ndarray) -> RateBits:
    """(1/2) log2 |I + G(S) K(S) G(S)^T| for a feasible input covariance K."""
    if cut.n != net.n:
        raise ValueError(f"cut is over {cut.n} nodes, network has {net.n}")
    if not cut.complement:
        raise ValueError(f"cut {cut.s} has an empty far side")
    k = _validate_cov(net, k_cov)
    return float(_plan_rates(_cut_plan(net, [cut]), k)[0])


class _GaussianJoint:
    """x = K^{1/2} w (K^{1/2} from ``eigh``), u_k = G_k x + sigma_k zhat_k and y_k =
    G_k x + z_k as rows over unit sources: an entropy source over ``dm``'s canonical
    variables, q without a row.  A subset's entropy, less 2 pi e terms, is
    log2 |det R| of a QR of its rows: no Gram."""

    def __init__(self, net: GaussianNetwork, k_cov: np.ndarray, sigma_sq: np.ndarray):
        n = net.n
        w, v = np.linalg.eigh(k_cov)
        root = v * np.sqrt(np.maximum(w, 0.0))
        signal = net.gains @ root
        self.rows = np.block([[root, np.zeros((n, 2 * n - 1))],
                              [signal[1:], np.zeros((n - 1, n)), np.diag(np.sqrt(sigma_sq[1:]))],
                              [signal, np.eye(n), np.zeros((n, n - 1))]])
        self.variables = tuple(_canonical_vars(n, {}))
        self._h: dict[int, float] = {}

    def entropy_of(self, mask: int) -> float:
        mask >>= 1  # q is bit 0
        if mask not in self._h:
            rows = self.rows[[i for i in range(len(self.rows)) if mask >> i & 1]]
            diag = np.abs(np.linalg.qr(rows.T, mode="r").diagonal())
            if not diag.all():
                raise ValueError("degenerate covariance: a subset's covariance is singular")
            self._h[mask] = float(np.log2(diag).sum())
        return self._h[mask]

    def entropies(self, masks) -> list[float]:
        return [self.entropy_of(mask) for mask in masks]


def ddf_rates_general(
    net: GaussianNetwork, k_cov: np.ndarray, sigma_sq: float | np.ndarray = 1.0
) -> list[RateBits]:
    """Inner-bound value of every broadcast cut, in ``gap_certificate``'s row
    order, for a general input covariance K and per-node description noise:
    ``dm``'s J(S) cut program run on a ``DmInstance`` of ``_GaussianJoint``,

        (1/2) log2 |Sigma(S^c) + G(S) K(S|S^c) G(S)^T| + (1/2) log2 |K(S^c)|
        - sum_{k in S^c} [ (1/2) log2(sigma_k^2 + S_k/(1+S_k)) + (1/2) log2 K_kk ]

    with K(S|S^c) the Schur complement and S_k the received-signal variance
    at node k given X_k.  At K = diag(P) and sigma^2 = 1 these are the
    certificate's ``ddf`` rows.
    """
    k = _validate_cov(net, k_cov)
    n = net.n
    sig = as_numbers(sigma_sq, "sigma_sq")
    if sig.ndim == 0:
        sig = np.full(n, float(sig))
    if sig.shape != (n,):
        raise ValueError(f"sigma_sq must be a scalar or length-{n} vector")
    # every node but the source is on the far side of the cut {1}
    if not np.all(sig[1:] > 0):
        raise ValueError("quantizer variances must be positive on the far side")
    inst = DmInstance(_GaussianJoint(net, k, sig), n, net.destinations)
    return _cut_values(inst, net.destinations, False, _DDF)[1].tolist()


def ddf_unicast_rate(net: GaussianNetwork, dest: int) -> RateBits:
    """Achievable rate to a single destination: minimum over unicast cuts."""
    dest = as_node(dest, net.n, "dest", first=2)
    cuts = enumerate_cuts(net.n, {dest}, "unicast")
    return min(_ddf_rows(net, cuts, dest)[1])


def ddf_region(net: GaussianNetwork) -> RateRegion:
    """Broadcast inner bound: one halfspace per cut, clamped at zero."""
    cuts = enumerate_cuts(net.n, net.destinations, "broadcast")
    return region_from_cuts(net.destinations, cuts, _ddf_rows(net, cuts)[1])


# ---------------------------------------------------------------------------
# Cutset estimation: heuristic maximization over input covariances.


@dataclass(frozen=True)
class CutsetEstimate:
    """A searched estimate of the cutset value plus the certified relaxation.

    ``estimate`` is the best min over cuts of (1/2) log2 |I + G(S) K(S) G(S)^T|
    found inside the searched covariance family.  It scores the near-side
    block K(S), not the conditional covariance K(S|S^c) of I(X(S); Y(S^c) |
    X(S^c)); the two agree when K(S, S^c) = 0, as at K = diag(P), but a
    correlated K can score above its true cut values, so the estimate is not
    a lower bound on the cutset optimum.  ``relaxed_upper`` is the
    always-valid min over cuts of the relaxed outer bound.  ``evaluations``
    counts the candidate covariances scored, whether in closed form, on one
    cut or on every cut.
    """

    estimate: RateBits
    relaxed_upper: RateBits
    k_best: np.ndarray
    evaluations: int


#: The rho bracket search: levels, and points per level and profile.
_LEVELS, _POINTS = 6, 8
#: Perturbations of the incumbent per hill-climb round.
_ROUND = 24
#: Floor of a closed-form profile factor 1 + rho lam.
_TINY = np.finfo(float).tiny


def _search_cov(net, plan: np.ndarray, budget: int, seed: int):
    """Search over the cuts of ``plan``: returns (best value, best K,
    per-cut rates at K = diag(P), evaluations used).

    Three phases, each counting every candidate it scores against the
    budget: diag(P); a bracket search on each rho-profile's rho, scored in
    closed form from one generalized eigenproblem per cut and profile, whose
    overall winner (first among ties) goes through the kernel once; and
    rounds of PSD-preserving perturbations of the incumbent, scored on the
    incumbent's binding cut and completed over every cut, in kernel stacks
    of at most ``_STACK`` (candidate, cut) pairs, only where that bound
    beats the incumbent.  A phase's candidates are cut to the budget left;
    a candidate replaces the incumbent when it is strictly better.
    """
    budget = as_int(budget, "budget")
    seed = as_int(seed, "seed")
    if budget < 1:
        raise ValueError("budget must be positive")
    n = net.n
    powers = net.power.copy()
    chunk = max(1, _STACK // len(plan))
    best_k = np.diag(powers)
    diag_terms = terms = _plan_rates(plan, best_k[None])[0]
    evals, best_v = 1, float(diag_terms.min())

    # The profiles K(rho) = diag(P) + rho K1, with K1 the off-diagonal part
    # over every relay pair, then every node pair.  With C = I + A diag(P) A^T
    # of a cut, |I + A K(rho) A^T| = |C| prod(1 + rho lam) over the
    # eigenvalues lam of C^{-1/2} A K1 A^T C^{-1/2}.  C >= I, so flooring
    # eigh's eigenvalues of C at 1 only undoes rounding.
    d = np.sqrt(powers)
    scaled = d[:, None] * d[None, :]
    off = np.ones((2, n, n)) - np.eye(n)
    off[0, 0, :] = off[0, :, 0] = 0.0
    w, v = np.linalg.eigh(np.eye(plan.shape[1]) + (plan * powers) @ plan.swapaxes(-1, -2))
    root = (v / np.sqrt(np.maximum(w, 1.0))[..., None, :]).swapaxes(-1, -2) @ plan
    lam = np.linalg.eigvalsh(root @ (off * scaled)[:, None] @ root.swapaxes(-1, -2))

    # Each profile is the log-det of an affine map of rho, minimised over
    # cuts, so it is concave in rho and its maximum lies within one spacing
    # of the best point of a level: the bracket keeps it.
    lo, hi = np.zeros(2), np.full(2, 0.999)
    top, win = -math.inf, None
    for level in range(_LEVELS):
        if level and evals + 2 * _POINTS + 16 > budget:
            break
        rhos = np.linspace(lo, hi, _POINTS, axis=1)
        # 1 + rho lam > 0 in exact arithmetic; the floor keeps a point that
        # rounding pushed through zero finite, and last
        factors = np.maximum(1.0 + rhos[:, :, None, None] * lam[:, None], _TINY)
        values = (diag_terms + 0.5 * np.log2(factors).sum(axis=-1)).min(axis=-1)
        values = values.ravel()[: budget - evals]
        evals += len(values)
        if len(values) and values.max() > top:
            i = int(np.argmax(values))
            top, win = values[i], (i // _POINTS, rhos.flat[i])
        if len(values) < 2 * _POINTS:
            break
        step = (hi - lo) / (_POINTS - 1)
        rho = rhos[[0, 1], np.argmax(values.reshape(2, -1), axis=1)]
        lo, hi = np.maximum(rho - step, 0.0), np.minimum(rho + step, 0.999)
    if win is not None:
        k = (np.eye(n) + off[win[0]] * win[1]) * scaled
        at = _plan_rates(plan, k[None])[0]
        if at.min() > best_v:
            best_v, best_k, terms = float(at.min()), k, at

    # hill-climb: rounds of congruences M K M^T of the incumbent, PSD for
    # every M, shrunk to the power limits; the step shrinks after a round
    # that fails.  A min over one cut bounds the min over all cuts from
    # above, so a candidate no better than the incumbent at its binding cut
    # cannot beat it, and the pick (first among ties) is the full stack's.
    rng = np.random.default_rng(seed)
    scale = 0.3
    while evals < budget:
        mix = np.eye(n) + scale * rng.standard_normal((_ROUND, n, n))
        cand = mix @ best_k @ mix.swapaxes(-1, -2)
        cand = 0.5 * (cand + cand.swapaxes(-1, -2))  # exactly symmetric, whatever the scale
        diag = np.diagonal(cand, axis1=-2, axis2=-1)
        shrink = np.sqrt(np.minimum(1.0, powers / np.maximum(diag, 1e-12)))
        cand = (cand * (shrink[:, :, None] * shrink[:, None, :]))[: budget - evals]
        evals += len(cand)
        bind = int(np.argmin(terms))
        hope = cand[_plan_rates(plan[bind : bind + 1], cand)[:, 0] > best_v]
        if len(hope):
            rows = np.concatenate(
                [_plan_rates(plan, hope[i : i + chunk]) for i in range(0, len(hope), chunk)]
            )
            i = int(np.argmax(rows.min(axis=-1)))
            if rows[i].min() > best_v:
                best_v, best_k, terms = float(rows[i].min()), hope[i], rows[i]
                continue
        scale = max(scale * 0.97**_ROUND, 0.01)
    return best_v, best_k, diag_terms, evals


def cutset_estimate(
    net: GaussianNetwork, dest: int, budget: int = 10_000, seed: int = 0
) -> CutsetEstimate:
    """Estimate the unicast cutset bound by searching input covariances.

    The searched family (full-power diagonal, a bracket search on two
    one-parameter correlation profiles, a local hill-climb) always contains
    K = diag(P), so the estimate is at least the easy diagonal value.  Each
    candidate is scored with its near-side block K(S) in place of K(S|S^c)
    (see ``CutsetEstimate``), so with correlated inputs the estimate can
    exceed the true cutset optimum.  ``budget`` caps the
    candidate covariances scored; the result reports their count as
    ``evaluations``.  The kernel calls are fewer: one for diag(P), one for
    the bracket's winner (its points are scored in closed form), and per
    hill-climb round one on the incumbent's binding cut plus one per
    ``_STACK`` (candidate, cut) pairs for the candidates that beat the
    incumbent there.  ``estimate`` is the kernel's minimum over cuts at
    ``k_best``.
    """
    dest = as_node(dest, net.n, "dest", first=2)
    cuts = enumerate_cuts(net.n, {dest}, "unicast")
    best_v, best_k, terms, evals = _search_cov(net, _cut_plan(net, cuts), budget, seed)
    relaxed = min(t + len(cut.s) / 2.0 for t, cut in zip(terms.tolist(), cuts))
    return CutsetEstimate(best_v, relaxed, best_k, evals)


# ---------------------------------------------------------------------------
# The half-bit-per-node gap certificate.


@dataclass(frozen=True)
class GapRow:
    cut: Cut
    upper: RateBits
    inner: RateBits
    gap: RateBits
    ddf: RateBits
    tighter_gap: RateBits


@dataclass(frozen=True)
class GapCertificate:
    """Per-cut witnesses that outer minus inner is at most n/2 bits.

    ``gap`` is upper - inner with the shared log-det term cancelled
    algebraically before any floating-point subtraction, so it equals n/2
    exactly; ``tighter_gap`` subtracts the unrelaxed inner bound instead.
    """

    n: int
    rows: tuple[GapRow, ...]
    max_gap: RateBits
    max_tighter_gap: RateBits

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "max_gap": self.max_gap,
            "max_tighter_gap": self.max_tighter_gap,
            "cuts": [
                {
                    "cut": list(r.cut.s),
                    "upper": r.upper,
                    "inner": r.inner,
                    "gap": r.gap,
                    "ddf": r.ddf,
                    "tighter_gap": r.tighter_gap,
                }
                for r in self.rows
            ],
        }


def gap_certificate(net: GaussianNetwork) -> GapCertificate:
    half_n = net.n / 2.0
    cuts = enumerate_cuts(net.n, net.destinations, "broadcast")
    rows = []
    for cut, term, ddf in zip(cuts, *_ddf_rows(net, cuts)):
        upper = term + len(cut.s) / 2.0
        inner = term - len(cut.complement) / 2.0
        rows.append(GapRow(cut, upper, inner, half_n, ddf, upper - ddf))
    return GapCertificate(
        net.n,
        tuple(rows),
        max(r.gap for r in rows),
        max(r.tighter_gap for r in rows),
    )
