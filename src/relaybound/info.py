"""Exact information measures on dense joint pmfs, plus Gaussian rate kernels.

All rates and entropies are in bits.  Probabilities below ``ZERO_EPS`` are
treated as exact zeros (the 0 log 0 = 0 convention).

Exactness contract:

* ``JointPmf.marginal`` is bit-identical to the naive oracle that adds the
  pmf's cells into each marginal cell in ascending flat-index order.
* An entropy is an exact float where the identity is structural: a size-1
  variable adds nothing, so H(A + size-1 variables) is the same float as
  H(A), and a difference of two such entropies is exactly 0.0 (a repaired
  cut's functional relies on this).  Otherwise an entropy is within 1e-12 of
  the oracle that sums ``-p * math.log2(p)`` over the naive marginal.  Its
  last bits depend on which cached marginal it was reduced from, so the same
  sequence of calls on a fresh pmf gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError, TensorCapError, as_int

#: Probabilities strictly below this are treated as exact zeros.
ZERO_EPS = 1e-15

#: Tolerance on |sum(probs) - 1| at construction time.
SUM_TOL = 1e-12

#: Cap on a pmf or channel tensor's size, in cells.
CELL_CAP = 10_000_000

#: Rates are plain floats measured in bits per channel use.
RateBits = float


def gauss_c(snr):
    """Gaussian point-to-point capacity C(x) = (1/2) log2(1 + x), elementwise.

    A scalar gives a float, an array an array of the same shape.  Raises
    ValueError if any snr is negative.  The exactness contract above covers
    marginals and entropies only.
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


def checked_tensor(variables: Sequence[tuple[str, int]], probs) -> tuple[tuple, np.ndarray]:
    """``variables`` as (name, size) pairs, sizes integers >= 1 and names
    distinct, and ``probs`` as a finite, nonnegative, read-only float copy
    with one axis each; the cell cap is checked before ``probs`` is read."""
    variables = tuple((str(n), as_int(s, f"variable {n!r} size")) for n, s in variables)
    names = [n for n, _ in variables]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    for name, size in variables:
        if size < 1:
            raise SchemaError(f"variable {name!r} has alphabet size {size} < 1")
    shape = tuple(s for _, s in variables)
    cells = math.prod(shape)
    if cells > CELL_CAP:
        raise TensorCapError(
            f"joint tensor would need {cells} cells, cap is {CELL_CAP}; "
            "reduce alphabet sizes"
        )
    arr = np.asarray(probs, dtype=float).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError("probabilities must be finite")
    if np.any(arr < 0):
        raise ValueError("probabilities must be nonnegative")
    arr = arr.copy()
    arr.flags.writeable = False
    return variables, arr


@dataclass(frozen=True, eq=False)
class JointPmf:
    """A joint pmf over named finite variables, stored as a dense tensor.

    ``variables`` is an ordered sequence of (name, alphabet_size) pairs and
    ``probs`` has one axis per variable, in that order (row-major layout).
    The pmf is immutable (``probs`` is a read-only copy), so it memoizes the
    entropy of each variable subset it is asked for, and the marginal behind
    it; the memo lives and dies with the pmf.  Equality and hashing are by
    identity, like the memo.
    """

    variables: tuple[tuple[str, int], ...]
    probs: np.ndarray = field(repr=False)

    def __init__(self, variables: Sequence[tuple[str, int]], probs: np.ndarray):
        variables, arr = checked_tensor(variables, probs)
        total = float(np.sum(arr))
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1 +/- {SUM_TOL}")
        self._set(variables, arr)

    def _set(self, variables: tuple[tuple[str, int], ...], probs: np.ndarray) -> None:
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_axes", {n: i for i, (n, _) in enumerate(variables)})
        object.__setattr__(self, "_unit", frozenset(n for n, s in variables if s == 1))
        object.__setattr__(self, "_entropies", {})
        object.__setattr__(self, "_marginals", {})

    @classmethod
    def _trusted(cls, variables: tuple[tuple[str, int], ...], probs: np.ndarray) -> JointPmf:
        """A pmf over parts that are valid already, built without
        re-validation: ``probs`` is made from checked pmfs (a marginal, or a
        product whose sum the caller checked) and is set read-only here."""
        probs.flags.writeable = False
        pmf = object.__new__(cls)
        pmf._set(variables, probs)
        return pmf

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    def size_of(self, name: str) -> int:
        return self.variables[self.axis_of(name)][1]

    def axis_of(self, name: str) -> int:
        try:
            return self._axes[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}; have {list(self.names)}") from None

    def marginal(self, names: Iterable[str]) -> np.ndarray:
        """Marginal tensor over ``names``, axes in this pmf's variable order.

        Each output cell is bit-identical to adding the dropped cells in
        ascending flat-index order.  The joint is transposed into a
        C-contiguous (dropped, kept) matrix so that one ``np.add.reduce`` over
        axis 0 adds whole rows in that order; a strided view could be reduced
        in another order.  A single kept cell is summed with ``np.cumsum``,
        because numpy reduces a contiguous vector pairwise.
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
        """H(names) in bits, memoized per variable subset on this pmf.

        The memo key leaves out size-1 variables, which add nothing to an
        entropy, so every subset that differs from another only by them reads
        the same entry.  A subset's marginal is reduced, through ``marginal``,
        from the smallest marginal cached so far that covers it (the full
        joint at first), and is cached in turn as a sub-pmf.
        """
        key = frozenset(names) - self._unit
        val = self._entropies.get(key)
        if val is None:
            for name in key:
                self.axis_of(name)  # raises on an unknown name
            lattice = self._marginals
            if not lattice:
                full = tuple(v for v in self.variables if v[1] > 1)
                shape = tuple(s for _, s in full)
                lattice[frozenset(n for n, _ in full)] = JointPmf._trusted(
                    full, self.probs.reshape(shape))
            src = min((m for k, m in lattice.items() if key <= k),
                      key=lambda m: m.probs.size)
            marg = src.marginal(key)
            lattice[key] = JointPmf._trusted(
                tuple(v for v in src.variables if v[0] in key), marg)
            val = self._entropies[key] = _plain_entropy(marg)
        return val


def _plain_entropy(marg: np.ndarray) -> float:
    """Entropy in bits of a marginal tensor, cells below ``ZERO_EPS`` left out."""
    p = marg[marg >= ZERO_EPS]
    return 0.0 - float((p * np.log2(p)).sum())  # +0.0, never -0.0, for a point mass


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
