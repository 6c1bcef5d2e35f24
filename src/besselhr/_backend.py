"""Numeric hot kernels: python scalars and numpy vectorized forms.

Every double-precision gamma value (the contour integrands and core's
one-point functions) comes from one numpy pass, _gamma_np: a Lanczos
approximation with Godfrey's g = 607/128 coefficient set (the same 14-term
series Numerical Recipes uses for ``gammln``), valid on Re z >= 0.5 and
extended left by Euler's reflection formula, returned as a pair (a, b) with
Gamma = e^a b: a holds the Lanczos exponent (z + 1/2) log t - t and, on the
reflected points with |Im z| >= 18, the sine's dominant exponential; b is
the Lanczos sum's factor, reflected through the sine.  The scalar sinpi and
cospi are argument-reduced, with exact zeros at the integers.

The first-kind series recurrence (first_kind_terms) and its summation loop
(sum_first_kind) are written once for any number type: the caller passes the
head, the coefficients c_m = prod_k 1/Gamma(d_k + m + 1) of the first terms
(head_coeffs: one product of n reciprocal gammas at the top of the head,
multiplied down by prod_k (d_k + m + 1), so a pole crossing gives an exact 0),
every head from mp.rgamma: rounded once to doubles for the double pass
(series_sum, series._double_head), at 50 digits for the kernel grid's
coefficient table, and at the working precision for the big-float rounds.
The rounds sum all but the head terms in one fixed-point integer loop
(sum_first_kind_fixed: one complex multiply and one division per term and
jet coefficient, whatever the rank), with the same stop rule, on plain
integers (the module never imports mpmath), from difference tables that
depend only on the index and the precision (fixed_tables, built once);
at a non-generic index each term is a jet of p coefficients in eps, the
series at the index moved by eps.  The differences d_k are short dyadic
numbers (differences of doubles), so the loop strips the trailing zero bits
they share before it steps its polynomials in m.

The contour integrands of mellinbarnes add the exponents a and the real
logs log|b| of their gamma factors, multiply only the unit phases b / |b|,
and take one exp per point (_exp_factors); G_delta is the ratio of two
such factors.  Every step is elementwise and every sum over factors runs in
a fixed order, so a point gets the same bits alone or in any batch.

The module-level names ``series_sum``, ``mb_j_integrand`` and
``mb_kernel_integrand`` are looked up at each call, so a tracer can wrap
them in place.  ``series_sum`` is the double pass only: the big-float
rounds call head_coeffs and sum_first_kind_fixed directly, so a wrapped
series_sum counts no big-float work.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

BACKEND = "numpy"
_PI = math.pi
_LN_PI = math.log(math.pi)
_LN_2 = math.log(2.0)
_LG_SHIFT = 5.2421875  # g + 1/2 with g = 607/128
_LG_C0 = 0.999999999999997092
_LG_COEF = np.array(
    [
        57.1562356658629235,
        -59.5979603554754912,
        14.1360979747417471,
        -0.491913816097620199,
        0.339946499848118887e-4,
        0.465236289270485756e-4,
        -0.983744753048795646e-4,
        0.158088703224912494e-3,
        -0.210264441724104883e-3,
        0.217439618115212643e-3,
        -0.164318106536763890e-3,
        0.844182239838527433e-4,
        -0.261908384015814087e-4,
        0.368991826595316234e-5,
    ]
)
_SQRT_2PI = 2.5066282746310005


def is_nonpositive_int(z):
    """Whether z is a pole of Gamma, elementwise for an array."""
    return (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))


# ---------------------------------------------------------------------------
# scalar kernels
# ---------------------------------------------------------------------------

def sinpi(z):
    # argument reduction: exact zeros at the integers
    k = math.floor(z.real + 0.5)
    s = cmath.sin(_PI * complex(z.real - k, z.imag))
    if k % 2.0 != 0.0:
        return -s
    return s


def cospi(z):
    k = math.floor(z.real + 0.5)
    c = cmath.cos(_PI * complex(z.real - k, z.imag))
    if k % 2.0 != 0.0:
        return -c
    return c


def zf_powers(zf, count):
    """zf^m for m < count, each the product of m factors zf taken from
    1.0 + 0.0j, the powers the head coefficients are multiplied by."""
    powers = [1.0 + 0.0j]
    for _ in range(count - 1):
        powers.append(powers[-1] * zf)
    return powers


def head_coeffs(diffs, m_fresh, rgamma):
    """The head c_m = prod_k 1/Gamma(d_k + m + 1), m = 0 .. M = m_fresh, as
    a list: c_M is the product of the n values rgamma returns for the list
    of arguments d_k + M + 1 (all right of Re 2 at series._m_fresh, so none
    reflects), and c_m = c_(m+1) prod_k (d_k + m + 1) below it, so an
    integer pole crossing multiplies by an exact 0."""
    c = math.prod(rgamma([d + (m_fresh + 1) for d in diffs]))
    head = [c]
    for m in range(m_fresh, 0, -1):
        for d in diffs:
            c = c * (d + m)
        head.append(c)
    return head[::-1]


def first_kind_terms(zf, diffs, head, powers):
    """The terms t_m = zf^m / prod_k Gamma(diffs_k + m + 1), m = 0, 1, ...

    Through m = M, the index of head's last coefficient c_m (head_coeffs;
    head may be an iterator), they are powers[m] c_m (zf_powers), so integer
    pole crossings give exact zero terms; past it the term ratio
    zf / prod_k (diffs_k + m) is applied.  The arithmetic is that of zf,
    diffs and head: python scalars with a head of mp.rgamma values rounded
    once, or mpmath numbers with mp.rgamma at the working precision.
    """
    for m, (c, p) in enumerate(zip(head, powers)):
        t = p * c
        yield t
    diffs = tuple(diffs)  # a tuple iterates faster than a numpy array
    while True:
        m += 1
        r = zf
        for d in diffs:
            r = r / (d + m)
        t = t * r
        yield t


def sum_first_kind(zf, diffs, tol, floor, m_min, m_cap, head):
    """Sum of first_kind_terms: past m_min and past the first nonzero term
    (the exact zeros before it, at integer pole crossings, are no tail) it
    stops after three consecutive terms below tol * |partial sum| + floor,
    or after the term m_cap.

    Returns (sum, abs_sum, terms_used, next_ratio, last_abs_term), where
    next_ratio is |t_(m+1) / t_m| for the last term summed, t_m.
    """
    total = 0.0 + 0.0j
    abs_total = 0.0
    small = 0
    terms = first_kind_terms(zf, diffs, head, zf_powers(zf, len(head)))
    for m, t in enumerate(terms):
        total = total + t
        t_abs = abs(t)
        abs_total = abs_total + t_abs
        if m >= m_min and abs_total > 0.0:
            if t_abs <= tol * abs(total) + floor:
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
        if m >= m_cap:
            break
    q = abs(zf)
    for d in diffs:
        q = q / abs(d + m + 1.0)
    return total, abs_total, m + 1, q, t_abs


def _abs_ub(re, im):
    """|re + i im| rounded up to an integer, from the top 60 bits of each
    part: an upper bound, at most about 2^-58 relative above."""
    ar = -re if re < 0 else re
    ai = -im if im < 0 else im
    k = (ar if ar > ai else ai).bit_length() - 60
    if k <= 0:
        return math.isqrt(ar * ar + ai * ai) + 1
    ar = (ar >> k) + 1
    ai = (ai >> k) + 1
    return (math.isqrt(ar * ar + ai * ai) + 1) << k


def _difference_table(values):
    """Forward differences [f(0), Δf(0), Δ²f(0), ...] of the samples
    f(0), f(1), ... of a polynomial whose degree is len(values) - 1."""
    table = list(values)
    for level in range(1, len(table)):
        for j in range(len(table) - 1, level - 1, -1):
            table[j] -= table[j - 1]
    return table


class FixedTables(NamedTuple):
    """What sum_first_kind_fixed needs of a series besides zf and its head,
    all of it fixed by the differences d_k, the slopes s_k, wp and the head
    length M (fixed_tables): the shifts (shift, down) that scale t W / R to
    t zf / P, from the fraction bits fb the d_k keep, the growth
    1 + sum_k |s_k| of the higher orders, the forward differences of
    P_0 .. P_(p-1) from m = M + 1 (re, im per order; P_j of degree n - j),
    and those of R = |P_0|^2, to be shifted left by down."""

    shift: int
    down: int
    growth: int
    p_tables: tuple
    r_table: tuple


def fixed_tables(diffs, slopes, wp, M, p):
    """The FixedTables of the series with differences diffs ((re, im)
    integers with wp fraction bits), integer slopes, head length M and p
    jet orders, for sum_first_kind_fixed.  The d_k enter at their own
    fraction bits fb: wp less the trailing zero bits all their parts share
    (0 for integers), so P_j(m) is a polynomial in m with integer
    coefficients scaled by 2^(n fb), sampled at m = M + 1 ... M + 1 + 2n
    for the difference tables."""
    n = len(diffs)
    common = 0
    for dr, di in diffs:
        common |= dr | di
    strip = min(wp, (common & -common).bit_length() - 1) if common else wp
    fb = wp - strip
    diffs = [(dr >> strip, di >> strip) for dr, di in diffs]
    one = 1 << fb

    def coeffs(m):
        # P_0(m) .. P_(p-1)(m) as (re, im), scaled by 2^(n fb)
        pr, pi = 1, 0
        hi = [(0, 0)] * (p - 1)
        for (dr, di), s in zip(diffs, slopes):
            ar = dr + m * one
            if hi:
                hi = [
                    (hr * ar - hj * di + (s * lr << fb), hr * di + hj * ar + (s * lj << fb))
                    for (hr, hj), (lr, lj) in zip(hi, [(pr, pi)] + hi)
                ]
            pr, pi = pr * ar - pi * di, pr * di + pi * ar
        return [(pr, pi), *hi]

    samples = [coeffs(M + 1 + j) for j in range(2 * n + 1)]
    p_tables = tuple(
        tuple(_difference_table([s[j][part] for s in samples[: n - j + 1]]))
        for j in range(p)
        for part in (0, 1)
    )
    r_table = _difference_table([pr * pr + pi * pi for (pr, pi), *_ in samples])
    # t W / R is t zf / P(m) times 2^(wp - n fb): shift each term left by
    # n fb - wp, or, where that is negative, scale R by 2^(wp - n fb)
    shift = n * fb - wp
    down = max(-shift, 0)
    growth = 1 + sum(map(abs, slopes))
    return FixedTables(max(shift, 0), down, growth, p_tables, tuple(r_table))


def sum_first_kind_fixed(head, zf, tables, wp, tol, floor, m_min, m_cap):
    """sum_first_kind in fixed-point integers, for the big-float rounds, at the
    index moved to d_k + eps s_k: each term a jet of the coefficients of
    eps^0 .. eps^(p-1) (p = 1 at a generic index, where the integer slopes
    s_k do not enter).

    head holds the terms t_0 .. t_M, each p (re, im) integers in units of
    2^E, the largest near 2^wp; past it t_m = t_(m-1) zf / P(m, eps) with
    P(m, eps) = prod_k (d_k + m + eps s_k) truncated at eps^(p-1).  zf is
    (re, im) integers with wp fraction bits, and tables the series'
    FixedTables (fixed_tables, built once per index and wp by the caller),
    from d_k of wp fraction bits with every Re(d_k + m) > 0 for m > M; tol
    >= 0 and floor (in units of 2^E) carry wp fraction bits.  A call builds
    only W's table, the n + 1 products zf conj(Delta^i P_0) (W(m) =
    zf conj(P_0(m)) is linear in P_0), and the copies the loop steps: R's
    table and, at p > 1, the P_j tables.  Order 0 costs one complex
    multiply by W(m) and one floor division by R(m) = |P_0(m)|^2 a term,
    W and R stepped by forward differences: additions only, and exact.
    The scale 2^(n fb - wp) that t W / R lacks is a left shift of each
    product where n fb >= wp, and is folded into the copy of R's table
    (shifted left by down = wp - n fb) where n fb < wp, so every term is
    the floor of the same rational it is at fb = wp: the integers do not
    depend on fb.  Order j >= 1 follows from
    q_j P_0 = zf t_j - sum_(i=1..j) P_i q_(j-i): the same multiply and
    division, less that sum times conj(P_0), with P_0 and each P_i (degree
    n - i in m) stepped likewise.

    A term is small when order 0 is, by the stop rule of sum_first_kind on
    integer magnitudes, and each order j >= 1 is at most tol times its own
    term mass plus floor or at most its rounding, 2 (1 + sum_k |s_k|)^j
    units (a higher order may cancel, or vanish identically): order 0 sums
    what p = 1 sums, or more.  Returns ([[sum_re, sum_im]], [abs_sum],
    terms_used), an entry per order in units of 2^E.  abs_sum_j is
    sum_m |t_(m,j)| in upper bounds (_abs_ub) plus the loop's rounding, so
    it never undercounts the term mass from t_M: a division floors both
    parts of a term (below sqrt(2) units), and past M the terms rise to one
    peak and fall.  With N terms and A the largest mass, the floors move
    order 0 by at most sqrt(2) N (N + 2 A / |t_M|) units and the rounding of
    zf and d_k by at most 2 (n + 1) N A 2^-wp; order j by that times
    (1 + sum_k |s_k|)^j, as |P_i / P_0| <= (sum_k |s_k|)^i where every
    |d_k + m| >= 1.
    """
    p = len(head[0])
    M = len(head) - 1
    zr, zi = zf
    p0 = list(zip(*tables.p_tables[:2]))  # the table of P_0, (re, im)
    n = len(p0) - 1
    wr = [zr * a + zi * b for a, b in p0]
    wi = [zi * a - zr * b for a, b in p0]
    rr = [c << tables.down for c in tables.r_table]
    shift, down, growth = tables.shift, tables.down, tables.growth
    w_steps = range(n)
    r_steps = range(n, 2 * n)
    higher = range(1, p)
    # the tables of P_0 .. P_(p-1), stepped for the higher orders only
    p_tables = [list(t) for t in tables.p_tables] if p > 1 else ()
    sums = [[0, 0] for _ in range(p)]
    masses = [0] * p
    tol2 = 2 * tol
    isqrt = math.isqrt
    sr = si = abs_sum = small = m = 0
    loud = False
    while True:
        if m <= M:
            t = head[m]
            tr, ti = t[0]
        else:
            w_re, w_im, r = wr[0], wi[0], rr[0]
            if shift:
                tr, ti = (
                    ((tr * w_re - ti * w_im) << shift) // r,
                    ((tr * w_im + ti * w_re) << shift) // r,
                )
            else:
                tr, ti = (tr * w_re - ti * w_im) // r, (tr * w_im + ti * w_re) // r
            for j in w_steps:
                wr[j] += wr[j + 1]
                wi[j] += wi[j + 1]
                rr[j] += rr[j + 1]
            for j in r_steps:
                rr[j] += rr[j + 1]
        sr += tr
        si += ti
        # _abs_ub(tr, ti), inline
        ar = -tr if tr < 0 else tr
        ai = -ti if ti < 0 else ti
        k = (ar if ar > ai else ai).bit_length() - 60
        if k <= 0:
            t_abs = isqrt(ar * ar + ai * ai) + 1
        else:
            ar = (ar >> k) + 1
            ai = (ai >> k) + 1
            t_abs = (isqrt(ar * ar + ai * ai) + 1) << k
        abs_sum += t_abs
        if p > 1:
            if m > M:
                p0r, p0i = p_tables[0][0], p_tables[1][0]
                q = [(tr, ti)]
                for j in higher:
                    ur, ui = t[j]
                    cr = ci = 0
                    for i in range(1, j + 1):
                        ar, ai = p_tables[2 * i][0], p_tables[2 * i + 1][0]
                        br, bi = q[j - i]
                        cr += ar * br - ai * bi
                        ci += ar * bi + ai * br
                    cr, ci = cr * p0r + ci * p0i, ci * p0r - cr * p0i
                    nr = ((ur * w_re - ui * w_im) << shift) - (cr << down)
                    ni = ((ur * w_im + ui * w_re) << shift) - (ci << down)
                    q.append((nr // r, ni // r))
                t = q
                for table in p_tables:
                    for j in range(len(table) - 1):
                        table[j] += table[j + 1]
            loud = False
            for j in higher:
                ur, ui = t[j]
                sums[j][0] += ur
                sums[j][1] += ui
                a = _abs_ub(ur, ui)
                masses[j] += a
                if a > 2 * growth**j and (a << wp) - floor > tol * masses[j]:
                    loud = True
        if m >= m_min:
            # t_abs 2^wp <= tol _abs_ub(sr, si) + floor, settled on the
            # bounds max <= _abs_ub < 2 max + 2 where they decide it
            over = (t_abs << wp) - floor
            ar = -sr if sr < 0 else sr
            ai = -si if si < 0 else si
            low = tol * (ar if ar > ai else ai)
            if not loud and (
                over <= low or (over <= (low << 1) + tol2 and over <= tol * _abs_ub(sr, si))
            ):
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
        if m >= m_cap:
            break
        m += 1
    terms = m + 1
    sums[0], masses[0] = [sr, si], abs_sum
    t_low = max(abs(c) for pair in head[M] for c in pair) or 1
    top = max(masses)
    slack = 2 * terms * (terms + 2 * (2 * top // t_low + 1)) + 2 * (n + 1) * terms * (
        (2 * top >> wp) + 1
    )
    return sums, [a + slack * growth**j for j, a in enumerate(masses)], terms


def series_sum(zf, diffs, tol, m_min, m_cap, head):
    """sum_first_kind in double precision, the pass first_kind makes; head
    holds the coefficients of head_coeffs over mp.rgamma, rounded once."""
    return sum_first_kind(zf, diffs, tol, 1e-300, m_min, m_cap, head)


# ---------------------------------------------------------------------------
# numpy vectorized kernels
# ---------------------------------------------------------------------------

def _gamma_np(z):
    """Gamma(z) = e^a * b elementwise over an array of one or more
    dimensions (the in-place steps need an array), as the pair (a, b).

    On Re z >= 1/2, a = (z + 1/2) log t - t with t = z + g + 1/2, and
    b = sqrt(2 pi) ser / z with ser the Lanczos sum.  Left of it the
    reflection Gamma(z) = pi / (sin(pi z) Gamma(1 - z)) gives a = -a(1 - z)
    and b = pi / (b(1 - z) S) with S = sin(pi z), reduced at the integers;
    where |Im z| >= 18, with u = sgn(Im z) z, the sine's dominant factor
    (sgn i/2) e^(-i pi u) goes into a and S = 1 - e^(2 pi i u).  The growth
    is all in a and b is finite off the poles, so a caller takes log|b| as
    a real log.
    """
    z = np.asarray(z, dtype=np.complex128)
    left = z.real < 0.5
    w = np.where(left, 1.0 - z, z)
    t = w + _LG_SHIFT
    a = (w + 0.5) * np.log(t)
    a -= t
    b = np.full(z.shape, _LG_C0, dtype=np.complex128)
    y = w.copy()
    for c in _LG_COEF:
        y += 1.0
        np.divide(c, y, out=t)
        b += t
    b *= _SQRT_2PI
    b /= w
    if left.any():
        zl = z[left]
        sgn = np.sign(zl.imag)
        big = sgn * zl.imag >= 18.0
        s = np.empty(zl.shape, dtype=np.complex128)
        lin = np.zeros(zl.shape, dtype=np.complex128)
        s[~big] = _sinpi_np(zl[~big])
        # sin(pi z) = (sgn i / 2) e^(-i pi u) (1 - e^(2 pi i u)), u = sgn z
        sgn = sgn[big]
        u = zl[big] * sgn
        s[big] = 1.0 - np.exp(2j * _PI * u)
        lin[big] = 1j * _PI * (u - 0.5 * sgn) + _LN_2
        a[left] = lin - a[left]
        b[left] = _PI / (b[left] * s)
    return a, b


def _sinpi_np(z):
    k = np.floor(z.real + 0.5)
    s = np.sin(_PI * ((z.real - k) + 1j * z.imag))
    return np.where(np.mod(k, 2.0) != 0.0, -s, s)


def _exp_factors(acc, a, b):
    """exp(acc + sum_l a_l) * prod_l b_l over the rows l of a and b, one
    exp per point: log|b_l| joins the exponent as a real log and only the
    unit phases b_l / |b_l| are multiplied, so the product cannot overflow
    where the exponent does not.  Both run over l = 0, 1, ... in order; acc,
    a and b are overwritten."""
    mag = np.abs(b)
    a.real += np.log(mag)
    np.divide(b.real, mag, out=b.real)
    np.divide(b.imag, mag, out=b.imag)
    acc += a[0]
    phase = b[0]
    for l in range(1, a.shape[0]):
        acc += a[l]
        phase *= b[l]
    return np.exp(acc) * phase


def _shifts(s, lam):
    """The (n, *s.shape) array of s - lam_l, one row per l."""
    return s - lam.reshape((-1,) + (1,) * np.ndim(s))


def mb_j_integrand(s, lam, sig, n, lnx):
    # prod_l Gamma(w_l) e(sig_l w_l / 4) x^(-n s) with w_l = s - lam_l
    w = _shifts(s, lam)
    a, b = _gamma_np(w)
    a += (0.5j * _PI * sig).reshape((-1,) + (1,) * np.ndim(s)) * w
    return _exp_factors(-n * lnx * s, a, b)


def mb_kernel_integrand(s, lam, dl, delta, lnx):
    # prod_l G_d(w_l) |x|^(-s), d = dl_l + delta mod 2, each G_d the ratio
    # i^d pi^(1/2 - w) Gamma((w + d)/2) / Gamma((1 - w + d)/2) of two
    # factors from one _gamma_np call
    w = _shifts(s, lam)
    d = ((dl + delta) % 2).reshape((-1,) + (1,) * np.ndim(s))
    a, b = _gamma_np(np.stack([0.5 * (w + d), 0.5 * (1.0 - w + d)]))
    g = (0.5 - w) * _LN_PI + a[0] - a[1] + (0.5j * _PI) * d
    return _exp_factors(-lnx * s, g, b[0] / b[1])
