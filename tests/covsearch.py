"""The cutset covariance search scored candidate by candidate:
``gaussian._search_cov`` is checked against it for equal estimates and
evaluation counts.  It scores every bracket point and every hill-climb
candidate against every cut through the log-det kernel, round by round,
where the library scores the bracket in closed form and screens the
hill-climb's rounds a block at a time on the incumbent's binding cut."""

import numpy as np

from relaybound.gaussian import _LEVELS, _POINTS, _ROUND, _STACK, _plan_rates


def rho_profiles(n: int, rhos: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Full-power covariances of the two one-parameter profiles, shape
    (2 m, n, n) for ``rhos`` of shape (2, m): rho between every pair of
    relays 2..n, then rho between every pair of nodes."""
    off = np.ones((2, n, n)) - np.eye(n)
    off[0, 0, :] = off[0, :, 0] = 0.0
    d = np.sqrt(powers)
    corr = np.eye(n) + off[:, None] * rhos[:, :, None, None]
    return (corr * (d[:, None] * d[None, :])).reshape(-1, n, n)


def search_cov_oracle(net, plan: np.ndarray, budget: int, seed: int, trace=None):
    """(best value, best K, per-cut rates at K = diag(P), evaluations used),
    each phase's candidates scored as one stack in one kernel call per
    ``_STACK`` (candidate, cut) pairs; the best candidate of a stack (first
    among ties) replaces the incumbent when it is strictly better.  The
    hill-climb runs round by round, each round's normals drawn from the
    ``default_rng(seed)`` stream as it starts.  A list ``trace`` gets, per
    hill-climb round, (candidates scored, whether its pick replaced the
    incumbent)."""
    n = net.n
    powers = net.power.copy()
    chunk = max(1, _STACK // len(plan))
    best_k = np.diag(powers)
    diag_terms = _plan_rates(plan, best_k[None])[0]
    evals, best_v = 1, float(diag_terms.min())

    def score(ks: np.ndarray) -> np.ndarray:
        nonlocal evals, best_v, best_k
        ks = ks[: budget - evals]
        if not len(ks):
            return np.empty(0)
        evals += len(ks)
        values = np.concatenate(
            [_plan_rates(plan, ks[i : i + chunk]).min(axis=-1) for i in range(0, len(ks), chunk)]
        )
        i = int(np.argmax(values))
        if values[i] > best_v:
            best_v, best_k = float(values[i]), ks[i]
        return values

    lo, hi = np.zeros(2), np.full(2, 0.999)
    for level in range(_LEVELS):
        if level and evals + 2 * _POINTS + 16 > budget:
            break
        rhos = np.linspace(lo, hi, _POINTS, axis=1)
        values = score(rho_profiles(n, rhos, powers))
        if len(values) < 2 * _POINTS:
            break
        step = (hi - lo) / (_POINTS - 1)
        rho = rhos[[0, 1], np.argmax(values.reshape(2, -1), axis=1)]
        lo, hi = np.maximum(rho - step, 0.0), np.minimum(rho + step, 0.999)

    rng = np.random.default_rng(seed)
    scale = 0.3
    while evals < budget:
        mix = np.eye(n) + scale * rng.standard_normal((_ROUND, n, n))
        cand = mix @ best_k @ mix.swapaxes(-1, -2)
        cand = 0.5 * (cand + cand.swapaxes(-1, -2))
        diag = np.diagonal(cand, axis1=-2, axis2=-1)
        shrink = np.sqrt(np.minimum(1.0, powers / np.maximum(diag, 1e-12)))
        incumbent = best_v
        scored = len(score(cand * (shrink[:, :, None] * shrink[:, None, :])))
        if best_v == incumbent:
            scale = max(scale * 0.97**_ROUND, 0.01)
        if trace is not None:
            trace.append((scored, best_v != incumbent))
    return best_v, best_k, diag_terms, evals
