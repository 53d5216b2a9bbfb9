"""An exact log-det oracle for the Gaussian rate kernel: (1/2) log2 |I + A K A^T|
with A and K read exactly as rationals (every float is one) and the
determinant taken over the integers, so no rounding enters until the final
logarithm."""

import math
from fractions import Fraction

import numpy as np


def _scaled(x) -> tuple[np.ndarray, int]:
    """x as an object array of Python ints and the shift with x = ints / 2**shift
    exactly: float denominators are powers of two."""
    fracs = [Fraction(float(v)) for v in np.ravel(x)]
    shift = max(f.denominator.bit_length() - 1 for f in fracs)
    ints = [f.numerator << (shift - f.denominator.bit_length() + 1) for f in fracs]
    return np.array(ints, dtype=object).reshape(np.shape(x)), shift


def _det(m: list[list[int]]) -> int:
    """The determinant of an integer matrix by Bareiss's fraction-free
    elimination; every division is exact.  The pivots of a positive definite
    matrix are positive, so no row is swapped."""
    m = [list(row) for row in m]
    prev = 1
    for k in range(len(m) - 1):
        if m[k][k] <= 0:
            raise ValueError("I + A K A^T is not positive definite")
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


def exact_rate(a: np.ndarray, k_cov: np.ndarray) -> float:
    """(1/2) log2 |I + A K A^T| for an r x n matrix A and an n x n K, exact up
    to the rounding of the final log2."""
    ai, sa = _scaled(a)
    ki, sk = _scaled(k_cov)
    if not len(ai):
        return 0.0
    shift = 2 * sa + sk
    gram = ai @ ki @ ai.T + np.eye(len(ai), dtype=int).astype(object) * (1 << shift)
    det = _det(gram.tolist())
    return 0.5 * (math.log2(det) - len(ai) * shift)


def exact_ddf_row(gains: np.ndarray, power: np.ndarray, near: list[int]) -> float:
    """``ddf_rates_general``'s row of the cut with 0-based source side ``near``
    at K = diag(P) and sigma^2 = 1, exact up to the rounding of the final
    log2: (1/2) log2 of the determinant of the 2n x 2n joint covariance of
    the far-side inputs and observations, [D; A] K [D; A]^T + diag(I - D, I),
    minus the prices (1/2) log2((1 + 2 S_k) / (1 + S_k)) + (1/2) log2 P_k of
    the far-side nodes, with S_k = sum_{j != k} g_kj^2 P_j."""
    n = len(power)
    far = [k for k in range(n) if k not in near]
    a = np.zeros((n, n))
    a[np.ix_(far, near)] = gains[np.ix_(far, near)]
    maps = np.concatenate([np.diag([float(k in far) for k in range(n)]), a])
    mi, sm = _scaled(maps)
    ki, sk = _scaled(np.diag(power))
    shift = 2 * sm + sk
    ones = [int(k not in far) for k in range(n)] + [1] * n
    block = mi @ ki @ mi.T + np.diag(np.array(ones, dtype=object) << shift)
    ratio = Fraction(_det(block.tolist()), 1 << (2 * n * shift))
    for k in far:
        snr = sum(Fraction(float(gains[k, j])) ** 2 * Fraction(float(power[j]))
                  for j in range(n) if j != k)
        ratio /= (1 + 2 * snr) / (1 + snr) * Fraction(float(power[k]))
    return 0.5 * (math.log2(ratio.numerator) - math.log2(ratio.denominator))
