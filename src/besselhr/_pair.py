"""Double-double ("pair") arithmetic for the coefficient recurrences.

Classic error-free transformations (Knuth two-sum, Dekker split/product).
A value is a pair (hi, lo) of floats with hi + lo the intended number and
|lo| <= ulp(hi)/2; complex pairs are ((re_hi, re_lo), (im_hi, im_lo)).
Only the handful of operations the recurrences need are provided.
"""

from __future__ import annotations

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


def dd(a) -> tuple:
    return (float(a), 0.0)


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


def dd_div(x, y):
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul((q1, 0.0), y))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul((q2, 0.0), y))
    q3 = r[0] / y[0]
    s, e = quick_two_sum(q1, q2)
    return dd_add((s, e), (q3, 0.0))


def cdd(z) -> tuple:
    z = complex(z)
    return (dd(z.real), dd(z.imag))


def cdd_add(x, y):
    return (dd_add(x[0], y[0]), dd_add(x[1], y[1]))


def cdd_mul(x, y):
    re = dd_sub(dd_mul(x[0], y[0]), dd_mul(x[1], y[1]))
    im = dd_add(dd_mul(x[0], y[1]), dd_mul(x[1], y[0]))
    return (re, im)


def cdd_div(x, y):
    den = dd_add(dd_mul(y[0], y[0]), dd_mul(y[1], y[1]))
    re = dd_add(dd_mul(x[0], y[0]), dd_mul(x[1], y[1]))
    im = dd_sub(dd_mul(x[1], y[0]), dd_mul(x[0], y[1]))
    return (dd_div(re, den), dd_div(im, den))


def cdd_scale(x, a: float):
    return (dd_mul(x[0], (a, 0.0)), dd_mul(x[1], (a, 0.0)))


def cdd_to_complex(x) -> complex:
    return complex(x[0][0] + x[0][1], x[1][0] + x[1][1])
