"""Exact information measures on dense joint pmfs, plus Gaussian rate kernels.

All rates and entropies are in bits.  Probabilities below ``ZERO_EPS`` are
treated as exact zeros (the 0 log 0 = 0 convention).

Exactness contract:

* ``JointPmf.marginal`` is bit-identical to the naive oracle that adds the
  pmf's cells into each marginal cell, from +0.0, in ascending flat-index
  order (one ``np.bincount`` over a bin map).
* An entropy is an exact float where the identity is structural: a size-1
  variable adds nothing, so H(A + size-1 variables) is the same float as
  H(A), and a difference of two such entropies is exactly 0.0 (a repaired
  cut's functional relies on this); H of no variable, or of size-1 variables
  only, is exactly 0.0, with no reduction.  Otherwise an entropy is within
  1e-12 of the oracle that sums ``-p * math.log2(p)`` over the naive
  marginal.  Its last bits depend on which cached marginal it was reduced
  from, so the same sequence of calls on a fresh pmf gives the same bits.
* A pmf built from a product of factors (``dm.DmInstance.from_parts``) may
  be handed marginals of that product, computed from the factors rather
  than from the full tensor, and its entropies may then be reduced from
  them.  Those marginals are exact up to rounding, so the entropies keep the
  1e-12 bound above; ``JointPmf.marginal`` itself stays bit-identical.

A variable subset is an integer bitmask, bit i for variable i.  A pmf
answers entropies one way, ``JointPmf.entropies(masks)``, and
``entropy_of`` is its one-mask call.  Each pmf memoizes its entropies by
mask, and reduces a miss, always through ``JointPmf.marginal``, from the
smallest cached marginal that covers it (``JointPmf``).  ``entropy`` and
``mutual_info`` take names; ``mask_mutual_info`` is ``mutual_info`` on
masks, one four-entropy formula whether or not it conditions (H of no
variable reads 0.0).  It reads only its source's ``entropies``, in one call,
and floors no entropy, so it serves differential entropies too.

Structure is planned once per shape, and values are computed on every call:
a variables tuple's axes and kept mask, a lattice key's sub-variables, and
``marginal``'s bin map (up to 8 KiB, 8 MiB in all) and kept shape come from
bounded caches keyed on the variables' interned layout, which hashes by
identity (and on the mask or the names asked for).  A miss scans the lattice
from the first entry with the key's cell count, since a smaller entry cannot
cover it, and ties keep their order.  ``JointPmf.entropies`` plans its misses
once per lattice state, which recurs across fresh instances of one shape, and
takes their p log2 p in chunks, each entropy summed alone, so a batch gives
the bits and the lattice of the same misses asked one at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import SchemaError, TensorCapError, as_int, as_number, as_numbers

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

    A scalar gives a float, an array an array of the same shape, and the two
    agree bit for bit.  Raises ValueError if any snr is negative or NaN, with
    one message for a float and for an array whose first such entry it is.
    The exactness contract above covers marginals and entropies only.
    """
    # A float skips np.asarray, whose per-call cost is several times that of
    # the log: optimizers probe one point at a time.
    if isinstance(snr, float):
        return _gauss_c_of_float(snr)
    x = np.asarray(snr, dtype=float)
    if x.ndim:
        if not (x >= 0).all():  # also refuses NaN
            raise ValueError(f"snr must be nonnegative, got {float(x[~(x >= 0)][0])}")
        return 0.5 * np.log2(1.0 + x)
    if not float(x) >= 0:
        raise ValueError(f"snr must be nonnegative, got {snr}")
    return _gauss_c_of_float(float(x))


def _gauss_c_of_float(snr: float) -> float:
    """``gauss_c`` of a float, with the array's bits, for a caller that knows
    its type.  np.log2, not math.log2, keeps the scalar bits equal to the
    array's."""
    if not snr >= 0:
        raise ValueError(f"snr must be nonnegative, got {snr}")
    return 0.5 * float(np.log2(1.0 + snr))


def ternary_entropy(alpha: float, beta: float) -> RateBits:
    """Entropy in bits of the distribution (alpha, beta, 1 - alpha - beta)."""
    alpha, beta = as_number(alpha, "alpha"), as_number(beta, "beta")
    if not (alpha >= 0 and beta >= 0 and alpha + beta <= 1):  # also refuses NaN
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
    return ternary_entropy(as_number(p, "p"), 0.0)


def capped_cells(sizes: Iterable[int], what: str) -> int:
    """The cells of a tensor with axes of ``sizes``; above ``CELL_CAP`` it
    raises TensorCapError naming ``what``."""
    cells = math.prod(sizes)
    if cells > CELL_CAP:
        raise TensorCapError(
            f"{what} would need {cells} cells, cap is {CELL_CAP}; reduce alphabet sizes")
    return cells


def checked_tensor(variables: Sequence[tuple[str, int]], probs) -> tuple[tuple, np.ndarray]:
    """``variables`` as (name, size) pairs, sizes integers >= 1 and names
    distinct, and ``probs``, read by ``as_numbers`` as given, as a finite,
    nonnegative, read-only float copy with one axis each; the cell cap is
    checked before ``probs`` is read."""
    variables = tuple((str(n), as_int(s, f"variable {n!r} size")) for n, s in variables)
    names = [n for n, _ in variables]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    for name, size in variables:
        if size < 1:
            raise SchemaError(f"variable {name!r} has alphabet size {size} < 1")
    shape = tuple(s for _, s in variables)
    capped_cells(shape, "joint tensor")
    arr = as_numbers(probs, "probs").reshape(shape)
    if np.any(arr < 0):
        raise ValueError("probabilities must be nonnegative")
    arr.flags.writeable = False
    return variables, arr


@dataclass(frozen=True, eq=False)
class JointPmf:
    """A joint pmf over named finite variables, stored as a dense tensor.

    ``variables`` is an ordered sequence of (name, alphabet_size) pairs and
    ``probs`` has one axis per variable, in that order (row-major layout).
    The pmf is immutable (``probs`` is a read-only copy), so it memoizes the
    entropy of each variable subset it is asked for; the memo lives and dies
    with the pmf.  Equality and hashing are by identity, like the memo.

    The memo is a dict keyed by bitmask (``mask_of``) less the size-1
    variables, and holds no key 0.  Behind it, the lattice is a list of
    (cells, mask, lean sub-pmf) sorted by cells, ties in insertion order, so
    its first entry that covers a missing subset is the smallest cached
    marginal that does.
    It starts with the pmf itself and any marginals its builder supplied.
    """

    variables: tuple[tuple[str, int], ...]
    probs: np.ndarray = field(repr=False)

    def __init__(self, variables: Sequence[tuple[str, int]], probs: np.ndarray):
        variables, arr = checked_tensor(variables, probs)
        total = float(np.sum(arr))
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1 +/- {SUM_TOL}")
        self._set(variables, arr)

    def _set(self, variables: tuple[tuple[str, int], ...], probs: np.ndarray,
             marginals: Iterable[tuple[int, np.ndarray]] = ()) -> None:
        layout = _layout(variables)
        self.__dict__.update(variables=layout.variables, probs=probs, _layout=layout,
                             _kept=layout.kept, _entropies={})
        # A supplied marginal precedes the pmf itself among equal sizes.
        lattice = [self._entry(mask & layout.kept, p) for mask, p in marginals]
        lattice.append(self._entry(layout.kept, probs))
        lattice.sort(key=itemgetter(0))
        self.__dict__["_lattice"] = lattice

    def _entry(self, mask: int, probs: np.ndarray) -> tuple[int, int, JointPmf]:
        """A lattice entry over the variables in ``mask``, which holds no
        size-1 variable; ``probs`` has their cells and any size-1 axes."""
        sub, _, shape, cells = _sub_layout(self._layout, mask)
        return cells, mask, _lean(sub, probs.reshape(shape))

    @classmethod
    def _trusted(cls, variables: tuple[tuple[str, int], ...], probs: np.ndarray,
                 marginals: Iterable[tuple[int, np.ndarray]] = ()) -> JointPmf:
        """A pmf over parts that are valid already, built without
        re-validation: ``probs`` is made from checked pmfs (a marginal, or a
        product whose sum the caller checked) and is set read-only here.

        ``marginals`` holds (mask, tensor) pairs, each the marginal of
        ``probs`` over ``mask``'s variables, on this pmf's axes with size 1
        where summed out.  They seed the entropy lattice: a builder holding
        ``probs`` as a product gets them from its factors far more cheaply
        than from a reduction of ``probs``.
        """
        probs.flags.writeable = False
        pmf = object.__new__(cls)
        pmf._set(variables, probs, marginals)
        return pmf

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    def size_of(self, name: str) -> int:
        return self.variables[self.axis_of(name)][1]

    def axis_of(self, name: str) -> int:
        return _axes_of(self.variables, (name,))[0]

    def mask_of(self, names: Iterable[str]) -> int:
        """The bitmask of ``names``; an unknown name raises ValueError."""
        return sum(1 << i for i in _axes_of(self.variables, names))

    def marginal(self, names: Iterable[str]) -> np.ndarray:
        """Marginal tensor over ``names``, axes in this pmf's variable order.

        Each output cell adds its cells from +0.0 in ascending flat-index
        order: ``np.bincount`` adds each flat cell into the kept cell that its
        bin map (``_reduction``) names.  A map too large to keep is built per
        call as intp; bincount copies a kept (compact, read-only) map, and a
        read-only source such as a pmf's own tensor.
        """
        plan = _reduction(self._layout, tuple(names))
        if plan is None:
            return self.probs
        bins, kept_shape, open_shape = plan
        if bins is None:
            bins = _bin_map(open_shape, self.probs.shape, np.intp)
        return np.bincount(bins, self.probs.reshape(-1)).reshape(kept_shape)

    def joint_entropy(self, names: Iterable[str]) -> RateBits:
        """H(names) in bits: ``entropy_of(mask_of(names))``."""
        return self.entropy_of(self.mask_of(names))

    def entropy_of(self, mask: int) -> RateBits:
        """H of the variables in ``mask`` in bits: ``entropies((mask,))[0]``."""
        return self.entropies((mask,))[0]

    def entropies(self, masks: Iterable[int]) -> list[RateBits]:
        """H of the variables in each mask in bits, the one way a pmf answers.
        The memo key drops size-1 variables, which add nothing to an entropy,
        and key 0 reads 0.0 with no reduction.  The distinct misses, in order
        of first use, replay their plan (``_miss_plan``): each is reduced
        through ``marginal`` from the first lattice entry that covers it and
        enters the lattice, and all share one ``_plain_entropies``."""
        memo, kept = self._entropies, self._kept
        keys = [mask & kept for mask in masks]
        if new := [key for key in keys if key and key not in memo]:
            lattice, margs, new = self._lattice, [], tuple(dict.fromkeys(new))
            for src, names, pos, cells, key, sub in _miss_plan(
                    self._layout, tuple([mask for _, mask, _ in lattice]), new):
                margs.append(lattice[src][2].marginal(names))
                if pos >= 0:
                    lattice.insert(pos, (cells, key, _lean(sub, margs[-1])))
            memo.update(zip(new, _plain_entropies(margs)))
        return [memo[key] if key else 0.0 for key in keys]


def _lean(layout: _Layout, probs: np.ndarray) -> JointPmf:
    """A lattice entry's pmf: only what ``JointPmf.marginal`` reads is set."""
    sub = object.__new__(JointPmf)
    sub.__dict__.update(variables=layout.variables, _layout=layout, probs=probs)
    return sub


# Plans: what a variables tuple fixes, built once per shape.  A pmf keeps
# only their immutable values, and an error is not cached.


class _Layout(NamedTuple):
    """``_layout``'s plan of a variables tuple, kept by every pmf over it, so no
    pmf's object graph depends on which call built a plan.  It hashes and
    compares by identity: the plans keyed on it never hash the tuple."""

    variables: tuple[tuple[str, int], ...]
    axes: dict[str, int]  # name -> axis
    kept: int  # the mask of the variables of more than one symbol
    __hash__, __eq__, __ne__ = object.__hash__, object.__eq__, object.__ne__

    def __reduce__(self):
        return _layout, (self.variables,)


@lru_cache(maxsize=1024)
def _layout(variables: tuple[tuple[str, int], ...]) -> _Layout:
    return _Layout(variables, {name: i for i, (name, _) in enumerate(variables)},
                   sum(1 << i for i, (_, s) in enumerate(variables) if s > 1))


@lru_cache(maxsize=4096)
def _sub_layout(layout: _Layout, mask: int) -> tuple[_Layout, tuple, tuple, int]:
    """(layout, names, shape, cells) of the variables in ``mask``."""
    sub = tuple(v for i, v in enumerate(layout.variables) if mask >> i & 1)
    shape = tuple(size for _, size in sub)
    return _layout(sub), tuple(name for name, _ in sub), shape, math.prod(shape)


_MAP_BYTES = 8192  # the bytes of a bin map that ``_reduction`` keeps, at most


@lru_cache(maxsize=1024)
def _reduction(layout: _Layout, names: tuple[str, ...]):
    """``JointPmf.marginal``'s (bin map or None, kept shape, open shape: the
    source's with its dropped axes 1); None when none is dropped.  The map is
    kept, read-only and in the smallest unsigned dtype, only up to
    ``_MAP_BYTES``, so the maps take at most 1024 * 8 KiB = 8 MiB."""
    shape = tuple(size for _, size in layout.variables)
    keep = _axes_of(layout.variables, names)
    if len(keep) == len(shape):
        return None
    open_shape = tuple(size if i in keep else 1 for i, size in enumerate(shape))
    dtype, bins = np.min_scalar_type(math.prod(open_shape) - 1), None
    if math.prod(shape) * dtype.itemsize <= _MAP_BYTES:
        bins = _bin_map(open_shape, shape, dtype)
        bins.flags.writeable = False
    return bins, tuple([shape[i] for i in keep]), open_shape


def _bin_map(open_shape: tuple, shape: tuple, dtype) -> np.ndarray:
    """Each flat cell's index among the cells of ``open_shape`` (``shape``
    with its dropped axes 1), as a new flat array of ``dtype``."""
    bins = np.empty(math.prod(shape), dtype)  # filled: twice as fast as a ravel
    bins.reshape(shape)[...] = np.arange(math.prod(open_shape), dtype=dtype).reshape(open_shape)
    return bins


@lru_cache(maxsize=256)
def _miss_plan(layout: _Layout, lattice: tuple[int, ...], misses: tuple[int, ...]) -> tuple:
    """Each key of ``misses`` in turn on a lattice of the masks ``lattice``, which
    it then joins: the index of the first entry covering it (the full pmf does),
    its names, insertion index (-1 for none), cells, mask and layout."""
    lattice, plan = [(_sub_layout(layout, mask)[3], mask) for mask in lattice], []
    for key in misses:
        sub, names, _, cells = _sub_layout(layout, key)
        i = bisect_left(lattice, cells, key=itemgetter(0))
        while key & lattice[i][1] != key:
            i += 1
        pos = -1 if key == lattice[i][1] else bisect_right(lattice, cells, key=itemgetter(0))
        if pos >= 0:
            lattice.insert(pos, (cells, key))
        plan.append((i, names, pos, cells, key, sub))
    return tuple(plan)


def _axes_of(variables: tuple[tuple[str, int], ...], names: Iterable[str]) -> list[int]:
    """The ascending axes of the distinct ``names``; an unknown name raises
    ValueError."""
    axes = _layout(variables).axes
    try:
        return sorted({axes[name] for name in names})
    except KeyError as err:
        have = [name for name, _ in variables]
        raise ValueError(f"unknown variable {err.args[0]!r}; have {have}") from None


_CHUNK_CELLS = 1 << 14  # the cells of a ``_plain_entropies`` chunk, at most


def _plain_entropies(margs: Sequence[np.ndarray]) -> list[float]:
    """The entropy in bits of each marginal, cells below ``ZERO_EPS`` left out,
    from one p log2 p per chunk of at most ``_CHUNK_CELLS`` cells (a larger
    marginal alone), each summed over its own slice; a point mass gives +0.0."""
    out, stop = [], 0
    while stop < len(margs):
        start, ends, stop = stop, [margs[stop].size], stop + 1
        while stop < len(margs) and ends[-1] + margs[stop].size <= _CHUNK_CELLS:
            ends.append(ends[-1] + margs[stop].size)
            stop += 1
        flat = (margs[start].reshape(-1) if stop - start == 1
                else np.concatenate([m.reshape(-1) for m in margs[start:stop]]))
        if not (keep := flat >= ZERO_EPS).all():  # a slice ends at its count of kept cells
            flat, ends = flat[keep], np.searchsorted(np.flatnonzero(keep), ends).tolist()
        t = flat * np.log2(flat)
        out += [0.0 - float(np.add.reduce(t[a:b])) for a, b in zip([0, *ends], ends)]
    return out


def entropy(pmf: JointPmf, names: Iterable[str], given: Iterable[str] = ()) -> RateBits:
    """H(names | given) in bits, floored at zero.

    Unknown variable names raise ValueError.
    """
    a, given = pmf.mask_of(names), pmf.mask_of(given)
    h_all, h_given = pmf.entropies((a | given, given))
    h = h_all - h_given
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
    a, b, given = pmf.mask_of(a), pmf.mask_of(b), pmf.mask_of(given)
    for x, y, what in ((a, b, "a/b"), (a, given, "a/given"), (b, given, "b/given")):
        if x & y:
            both = sorted(n for i, n in enumerate(pmf.names) if (x & y) >> i & 1)
            raise ValueError(f"overlapping variable subsets {what}: {both}")
    return mask_mutual_info(pmf, a, b, given)


def mask_mutual_info(source, a: int, b: int, given: int = 0) -> RateBits:
    """``mutual_info`` over bitmasks of ``source``'s variables,
    (H(A, G) - H(G)) - (H(A, B, G) - H(B, G)), from one call of its
    ``entropies``; the value, not any entropy, is clamped at zero.  With no
    ``given``, H(G) is H of no variable, exactly 0.0 with no reduction."""
    hag, hg, habg, hbg = source.entropies((a | given, given, a | b | given, b | given))
    value = (hag - hg) - (habg - hbg)
    return value if value > 0.0 else 0.0


def log_det_rate(m: np.ndarray) -> RateBits | np.ndarray:
    """(1/2) log2 det(I + m) for a symmetric positive semidefinite matrix, or
    for every matrix of a stack ``(..., k, k)``.

    One matrix gives a float, a stack an array of its leading shape.  One
    batched Cholesky factorization of I + m does the work, so the result is
    as accurate as m's entries: a rounding error of eps max|m| in them blurs
    the unit eigenvalues of I + m, by about 1e-9 bits at max|m| = 1e6 and
    most of a bit by 1e15, which is why ``gaussian`` takes the singular
    values of a factor for large slices.
    A NaN or infinite entry raises ValueError, asymmetry beyond 1e-9 of a
    slice's scale ``max(1, max|m|)`` does too, and so does an I + m that is
    not positive definite, naming the smallest eigenvalue of m.  A stack
    equal to its transpose is factored as it stands, with no scale or
    asymmetry pass, and gives the bits its symmetrization would.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if m.size == 0:
        rates = np.zeros(m.shape[:-2])
    else:
        mt = m.swapaxes(-1, -2)
        if (m == mt).all():
            # Equal to its transpose (so NaN-free) and its own symmetrization
            # up to the signs of zeros, which I + m erases: no scale pass.  An
            # infinity surfaces in the Cholesky's diagonal or makes it fail.
            sym = m
        else:
            scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
            if not scale.max() < math.inf:  # a NaN max|m| fails the test too
                raise ValueError("matrix entries must be finite")
            if (np.abs(m - mt).max(axis=(-2, -1)) > 1e-9 * scale).any():
                raise ValueError("matrix is not symmetric within 1e-9 of its scale")
            sym = 0.5 * (m + mt)
        try:
            chol = np.linalg.cholesky(np.eye(m.shape[-1]) + sym)
        except np.linalg.LinAlgError:
            _check_finite(m)
            low = float(np.linalg.eigvalsh(sym).min())
            raise ValueError(
                f"I + m is not positive definite: m has eigenvalue {low:.3e}") from None
        rates = np.log2(chol.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)
        if not rates.max() < math.inf:  # a NaN fails the test too
            _check_finite(m)
    return float(rates) if m.ndim == 2 else rates


def _check_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")

