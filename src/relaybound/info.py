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


def gauss_c(snr: float) -> RateBits:
    """Gaussian point-to-point capacity C(x) = (1/2) log2(1 + x).

    Raises ValueError for negative snr.
    """
    if snr < 0:
        raise ValueError(f"snr must be nonnegative, got {snr}")
    return 0.5 * math.log2(1.0 + snr)


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


@dataclass(frozen=True)
class JointPmf:
    """A joint pmf over named finite variables, stored as a dense tensor.

    ``variables`` is an ordered sequence of (name, alphabet_size) pairs and
    ``probs`` has one axis per variable, in that order (row-major layout).
    The pmf is immutable (``probs`` is a read-only copy), so it memoizes the
    entropy of each variable subset it is asked for; the memo lives and dies
    with the pmf.
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


def log_det_rate(m: np.ndarray) -> RateBits:
    """(1/2) log2 det(I + m) for a symmetric positive semidefinite matrix.

    Uses a Cholesky factorization of I + m; falls back to an eigenvalue
    decomposition with a -1e-9 clamp when the factorization stalls near the
    semidefinite boundary.  Asymmetry beyond 1e-9 raises ValueError.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        return 0.0
    if np.max(np.abs(m - m.T)) > 1e-9:
        raise ValueError("matrix is not symmetric within 1e-9")
    sym = 0.5 * (m + m.T)
    a = np.eye(sym.shape[0]) + sym
    try:
        chol = np.linalg.cholesky(a)
        return float(np.sum(np.log2(np.diag(chol))))
    except np.linalg.LinAlgError:
        eig = np.linalg.eigvalsh(sym)
        if eig[0] < -1e-9:
            raise ValueError(
                f"matrix has eigenvalue {eig[0]:.3e} below the -1e-9 clamp"
            ) from None
        return float(sum(0.5 * math.log2(1.0 + max(w, 0.0)) for w in eig))
