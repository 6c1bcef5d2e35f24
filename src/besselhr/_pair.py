"""Double-double ("pair") arithmetic for the array kernels of
series.kernel_series_grid.

Classic error-free transformations (Knuth two-sum, Dekker split/product).
A value is a pair (hi, lo) of floats with hi + lo the intended number and
|lo| <= ulp(hi)/2; complex pairs are ((re_hi, re_lo), (im_hi, im_lo)).
Only the handful of operations the grid's Horner sums and prefactors need
are provided.  Every operation is plain float arithmetic, so it works
elementwise on numpy arrays of pairs; the elementary functions at the end
(exp, cos and sin of a pair) are written for them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a: float, b: float):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def two_prod(a: float, b: float):
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_add(x, y):
    s, e = two_sum(x[0], y[0])
    e += x[1] + y[1]
    return quick_two_sum(s, e)


def dd_neg(x):
    return (-x[0], -x[1])

def dd_sub(x, y):
    return dd_add(x, dd_neg(y))


def dd_mul(x, y):
    p, e = two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return quick_two_sum(p, e)


def cdd_add(x, y):
    return (dd_add(x[0], y[0]), dd_add(x[1], y[1]))


def cdd_mul(x, y):
    re = dd_sub(dd_mul(x[0], y[0]), dd_mul(x[1], y[1]))
    im = dd_add(dd_mul(x[0], y[1]), dd_mul(x[1], y[0]))
    return (re, im)


# ---------------------------------------------------------------------------
# elementary functions of pairs of arrays
# ---------------------------------------------------------------------------

def _pair_of(q: Fraction):
    hi = float(q)
    return (hi, float(q - Fraction(hi)))


_LN2 = (0.6931471805599453, 2.3190468138462996e-17)
_HALF_PI = (1.5707963267948966, 6.123233995736766e-17)


@lru_cache(maxsize=1)
def _taylor():
    """1/j! (j <= 10) for exp; (-1)^j/(2j)! and (-1)^j/(2j+1)! (j <= 14) for
    cos and sin on [-pi/4, pi/4].  Built on first use, not at import."""
    return (
        tuple(_pair_of(Fraction(1, factorial(j))) for j in range(11)),
        tuple(_pair_of(Fraction((-1) ** j, factorial(2 * j))) for j in range(15)),
        tuple(_pair_of(Fraction((-1) ** j, factorial(2 * j + 1))) for j in range(15)),
    )


def dd_exp(x):
    """exp of a pair of arrays: x = k ln 2 + 2^8 r, expm1(r) by its Taylor
    series (|r| < 1.4e-3, 10 terms), squared back up in the expm1 form
    (1 + p)^2 - 1 = 2p + p^2, then scaled by 2^k.  Relative error a few
    2^-106 plus 4|x| 2^-106 from the reduction."""
    taylor = _taylor()[0]
    k = np.rint(x[0] / _LN2[0])
    r = dd_sub(x, dd_mul((k, 0.0), _LN2))
    r = (r[0] * 2.0**-8, r[1] * 2.0**-8)
    p = taylor[10]
    for j in range(9, 0, -1):
        p = dd_add(dd_mul(p, r), taylor[j])
    p = dd_mul(p, r)
    for _ in range(8):
        p = dd_add(dd_add(p, p), dd_mul(p, p))
    e = dd_add(p, (1.0, 0.0))
    k = k.astype(np.int64)
    return (np.ldexp(e[0], k), np.ldexp(e[1], k))


def dd_cos_sin(x):
    """(cos x, sin x) of a pair of arrays: reduce by k pi/2, Taylor series on
    [-pi/4, pi/4] (15 terms each), rotate by the quadrant.  Absolute error a
    few 2^-106 plus 4|x| 2^-106 from the reduction."""
    _, cos_taylor, sin_taylor = _taylor()
    k = np.rint(x[0] / _HALF_PI[0])
    r = dd_sub(x, dd_mul((k, 0.0), _HALF_PI))
    r2 = dd_mul(r, r)
    c = cos_taylor[-1]
    s = sin_taylor[-1]
    for j in range(len(cos_taylor) - 2, -1, -1):
        c = dd_add(dd_mul(c, r2), cos_taylor[j])
        s = dd_add(dd_mul(s, r2), sin_taylor[j])
    s = dd_mul(s, r)
    q = np.mod(k, 4.0)
    swap = (q == 1.0) | (q == 3.0)
    cos_neg = (q == 1.0) | (q == 2.0)
    sin_neg = q >= 2.0
    out_c = tuple(np.where(swap, sp, cp) for cp, sp in zip(c, s))
    out_s = tuple(np.where(swap, cp, sp) for cp, sp in zip(c, s))
    out_c = tuple(np.where(cos_neg, -v, v) for v in out_c)
    out_s = tuple(np.where(sin_neg, -v, v) for v in out_s)
    return out_c, out_s


def cdd_exp(w):
    """exp of a complex pair of arrays ((re_hi, re_lo), (im_hi, im_lo))."""
    e = dd_exp(w[0])
    c, s = dd_cos_sin(w[1])
    return (dd_mul(e, c), dd_mul(e, s))
