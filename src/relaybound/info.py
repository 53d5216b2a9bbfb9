"""Exact information measures on dense joint pmfs, plus Gaussian rate kernels.

All rates and entropies are in bits.  Probabilities below ``ZERO_EPS`` are
treated as exact zeros (the 0 log 0 = 0 convention).

Exactness contract: every marginal and every entropy is bit-identical to the
naive oracle that adds the joint's cells into each marginal cell in ascending
flat-index order and then sums ``-p * math.log2(p)`` over the marginal in flat
order.  Identical subsets therefore give identical floats, which exact
comparisons downstream (a repaired cut's functional being exactly 0.0) rely
on.  Three numpy shortcuts break the contract and are avoided:

* reducing a strided (non-contiguous) view, where numpy may reorder the
  additions;
* reducing to a single kept cell, where numpy switches to pairwise summation;
* ``np.log2``, which differs from ``math.log2`` in the last bit on some inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import TensorCapError

#: Probabilities strictly below this are treated as exact zeros.
ZERO_EPS = 1e-15

#: Tolerance on |sum(probs) - 1| at construction time.
SUM_TOL = 1e-12

#: Default cap on joint tensor size, in cells.
CELL_CAP = 10_000_000

#: Rates are plain floats measured in bits per channel use.
RateBits = float


def gauss_c(snr):
    """Gaussian point-to-point capacity C(x) = (1/2) log2(1 + x), elementwise.

    A scalar gives a float, an array an array of the same shape.  Raises
    ValueError if any snr is negative.  It uses ``np.log2`` and so is outside
    the exactness contract above, which covers marginals and entropies only.
    """
    x = np.asarray(snr, dtype=float)
    if x.ndim == 0:
        # As a float: numpy's per-call cost on a 0-d array is several times
        # larger, and optimizers probe one point at a time.
        x = float(x)
        if x < 0:
            raise ValueError(f"snr must be nonnegative, got {snr}")
        return float(0.5 * np.log2(1.0 + x))
    if (x < 0).any():
        raise ValueError(f"snr must be nonnegative, got {snr}")
    return 0.5 * np.log2(1.0 + x)


def ternary_entropy(alpha: float, beta: float) -> RateBits:
    """Entropy in bits of the distribution (alpha, beta, 1 - alpha - beta)."""
    if alpha < 0 or beta < 0 or alpha + beta > 1:
        raise ValueError(
            f"(alpha, beta) = ({alpha}, {beta}) is outside the probability simplex"
        )
    acc = 0.0
    for p in (alpha, beta, 1.0 - alpha - beta):
        if p >= ZERO_EPS:
            acc -= p * math.log2(p)
    return acc


def binary_entropy(p: float) -> RateBits:
    """Entropy in bits of a Bernoulli(p) variable."""
    return ternary_entropy(p, 0.0)


@dataclass(frozen=True, eq=False)
class JointPmf:
    """A joint pmf over named finite variables, stored as a dense tensor.

    ``variables`` is an ordered sequence of (name, alphabet_size) pairs and
    ``probs`` has one axis per variable, in that order (row-major layout).
    The pmf is immutable (``probs`` is a read-only copy), so it memoizes the
    entropy of each variable subset it is asked for; the memo lives and dies
    with the pmf.  Equality and hashing are by identity, like the memo.
    """

    variables: tuple[tuple[str, int], ...]
    probs: np.ndarray = field(repr=False)

    def __init__(
        self,
        variables: Sequence[tuple[str, int]],
        probs: np.ndarray,
        cell_cap: int = CELL_CAP,
    ):
        variables = tuple((str(n), int(s)) for n, s in variables)
        names = [n for n, _ in variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for name, size in variables:
            if size < 1:
                raise ValueError(f"variable {name!r} has alphabet size {size} < 1")
        shape = tuple(s for _, s in variables)
        cells = math.prod(shape) if shape else 1
        if cells > cell_cap:
            raise TensorCapError(
                f"joint tensor would need {cells} cells, cap is {cell_cap}; "
                "reduce alphabet sizes"
            )
        arr = np.asarray(probs, dtype=float).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise ValueError("probabilities must be finite")
        if np.any(arr < 0):
            raise ValueError("probabilities must be nonnegative")
        total = float(np.sum(arr))
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1 +/- {SUM_TOL}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "_entropies", {})

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    def size_of(self, name: str) -> int:
        return self.variables[self.axis_of(name)][1]

    def axis_of(self, name: str) -> int:
        for i, (n, _) in enumerate(self.variables):
            if n == name:
                return i
        raise ValueError(f"unknown variable {name!r}; have {list(self.names)}")

    def marginal(self, names: Iterable[str]) -> np.ndarray:
        """Marginal tensor over ``names``, axes in this pmf's variable order.

        Each output cell is bit-identical to adding the dropped cells in
        ascending flat-index order.  The joint is transposed into a
        C-contiguous (dropped, kept) matrix so that one ``np.add.reduce`` over
        axis 0 adds whole rows in that order; a strided view could be reduced
        in another order.  A single kept cell is summed with ``np.cumsum``,
        because numpy reduces a contiguous vector pairwise.  Entropies of the
        result are then summed in flat order with ``math.log2``, not
        ``np.log2``, which differs in the last bit on some inputs.
        """
        keep = sorted(self.axis_of(n) for n in set(names))
        drop = [i for i in range(len(self.variables)) if i not in keep]
        if not drop:
            return self.probs
        kept_shape = tuple(self.probs.shape[i] for i in keep)
        q = np.ascontiguousarray(np.transpose(self.probs, drop + keep))
        q = q.reshape(-1, math.prod(kept_shape))
        if q.shape[1] == 1:
            return np.cumsum(q[:, 0])[-1:].reshape(kept_shape)
        return np.add.reduce(q, axis=0).reshape(kept_shape)

    def joint_entropy(self, names: Iterable[str]) -> RateBits:
        """H(names) in bits, memoized per variable subset on this pmf."""
        key = frozenset(names)
        val = self._entropies.get(key)
        if val is None:
            val = _plain_entropy(self.marginal(key))
            self._entropies[key] = val
        return val


def _plain_entropy(marg: np.ndarray) -> float:
    """Entropy of a marginal tensor, summed in flat order with ``math.log2``."""
    acc = 0.0
    for p in marg.ravel().tolist():
        if p >= ZERO_EPS:
            acc -= p * math.log2(p)
    return acc


def entropy(pmf: JointPmf, names: Iterable[str], given: Iterable[str] = ()) -> RateBits:
    """H(names | given) in bits, floored at zero.

    Unknown variable names raise ValueError.
    """
    names = set(names)
    given = set(given)
    h = pmf.joint_entropy(names | given)
    if given:
        h -= pmf.joint_entropy(given)
    return h if h > 0.0 else 0.0


def mutual_info(
    pmf: JointPmf,
    a: Iterable[str],
    b: Iterable[str],
    given: Iterable[str] = (),
) -> RateBits:
    """I(a ; b | given) in bits, computed as H(a|given) - H(a|b,given).

    Tiny negatives from rounding are clamped to zero.  The three variable
    sets must be pairwise disjoint.
    """
    a, b, given = set(a), set(b), set(given)
    for x, y, what in ((a, b, "a/b"), (a, given, "a/given"), (b, given, "b/given")):
        if x & y:
            raise ValueError(f"overlapping variable subsets {what}: {sorted(x & y)}")
    value = entropy(pmf, a, given) - entropy(pmf, a, b | given)
    return value if value > 0.0 else 0.0


def log_det_rate(m: np.ndarray) -> RateBits | np.ndarray:
    """(1/2) log2 det(I + m) for a symmetric positive semidefinite matrix, or
    for every matrix of a stack ``(..., k, k)``.

    One matrix gives a float, a stack an array of its leading shape.  One
    batched Cholesky factorization of I + m does the work; only a slice where
    it stalls near the semidefinite boundary falls back to an eigenvalue
    decomposition.  Tolerances are relative to each slice's scale
    ``max(1, max|m|)``: asymmetry beyond 1e-9 of it raises ValueError, and so
    does an eigenvalue below -1e-9 of it in the fallback.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    size = m.shape[-1]
    if m.size == 0:
        rates = np.zeros(m.shape[:-2])
    else:
        mt = m.swapaxes(-1, -2)
        scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
        if (np.abs(m - mt).max(axis=(-2, -1)) > 1e-9 * scale).any():
            raise ValueError("matrix is not symmetric within 1e-9 of its scale")
        sym = 0.5 * (m + mt)
        a = np.eye(size) + sym
        try:
            rates = _half_log2_diag(np.linalg.cholesky(a))
        except np.linalg.LinAlgError:
            flat = zip(a.reshape(-1, size, size), sym.reshape(-1, size, size),
                       np.ravel(scale))
            rates = np.array([_fallback_rate(*args) for args in flat]).reshape(m.shape[:-2])
    return float(rates) if m.ndim == 2 else rates


def _half_log2_diag(chol: np.ndarray) -> np.ndarray:
    """(1/2) log2 det of the product L L^T, from its Cholesky factors L."""
    return np.log2(chol.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)


def _fallback_rate(a: np.ndarray, sym: np.ndarray, scale: float) -> RateBits:
    """One slice of ``log_det_rate`` after the batched factorization failed."""
    try:
        return float(_half_log2_diag(np.linalg.cholesky(a)))
    except np.linalg.LinAlgError:
        eig = np.linalg.eigvalsh(sym)
        if eig[0] < -1e-9 * scale:
            raise ValueError(
                f"matrix has eigenvalue {eig[0]:.3e} below the clamp -1e-9 x {scale:.3e}"
            ) from None
        return float(sum(0.5 * math.log2(1.0 + max(w, 0.0)) for w in eig))
