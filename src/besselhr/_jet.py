"""Truncated Laurent series in a perturbation eps ("jets"), in mpmath.

Where two components of an index differ by an integer, the connection
coefficients of series have poles, and the sign-vector functions and the
kernels are limits.  Moving the index to lam + eps u, with u a direction of
distinct integers summing to 0 (direction), every quantity of the
combination sum_l C_l J_l becomes a Laurent series in eps: C_l has a pole of
order at most p - 1, p the size of the largest cluster of components that
differ by integers (cluster_order), and J_l is analytic.  The limit is the
eps^0 coefficient of the sum, which p coefficients of each factor determine.

A Jet is eps^val (c_0 + c_1 eps + ... + c_(p-1) eps^(p-1)) with a majorant
a_j >= |c_j| of each coefficient: the same operation applied to the moduli,
so a_j also bounds the rounding of c_j relative to the working precision.
Sums align their orders, products truncate at p coefficients, and a
quotient needs a divisor with a nonzero leading coefficient.  complex() of a
jet is its eps^0 coefficient.  context(lam) holds jet forms of pi, sinpi
and expjpi for the formulas of series that take a ctx; they act on the
linear jets lam + eps u and their combinations.  sinpi at an integer
returns eps times a jet whose leading coefficient is nonzero, so the pole
of 1/sin becomes a negative val.  rgamma is 1/Gamma(a + eps d) at Re a > 0
by polygammas.  vanishing_side reads the classes of cluster_order for the
side where a kernel vanishes identically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import mpmath as mp


class Jet:
    __slots__ = ("c", "a", "val")

    def __init__(self, c, a=None, val: int = 0):
        self.c = list(c)
        self.a = [abs(x) for x in self.c] if a is None else list(a)
        self.val = val

    def _lift(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        zeros = [0] * (len(self.c) - 1)
        return Jet([other, *zeros], [abs(other), *zeros])

    def coeff(self, order: int):
        """The coefficient of eps^order (0 below val)."""
        j = order - self.val
        if j < 0:
            return 0
        if j >= len(self.c):
            raise ValueError(f"eps^{order} lies past the jet's {len(self.c)} coefficients")
        return self.c[j]

    def __complex__(self) -> complex:
        return complex(self.coeff(0))

    def __abs__(self) -> "Jet":
        return Jet(self.a, self.a, self.val)

    def __neg__(self) -> "Jet":
        return Jet([-x for x in self.c], self.a, self.val)

    def __add__(self, other) -> "Jet":
        other = self._lift(other)
        p = len(self.c)
        lo = min(self.val, other.val)
        c, a = [0] * p, [0] * p
        for x in (self, other):
            s = x.val - lo
            for j in range(p - s):
                c[j + s] += x.c[j]
                a[j + s] += x.a[j]
        return Jet(c, a, lo)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        return self + -self._lift(other)

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            m = abs(other)
            return Jet([x * other for x in self.c], [x * m for x in self.a], self.val)
        p = len(self.c)
        c = [sum(self.c[i] * other.c[j - i] for i in range(j + 1)) for j in range(p)]
        a = [sum(self.a[i] * other.a[j - i] for i in range(j + 1)) for j in range(p)]
        return Jet(c, a, self.val + other.val)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            m = abs(other)
            return Jet([x / other for x in self.c], [x / m for x in self.a], self.val)
        b0, m0 = other.c[0], abs(other.c[0])
        c, a = [], []
        for j in range(len(self.c)):
            c.append((self.c[j] - sum(other.c[i] * c[j - i] for i in range(1, j + 1))) / b0)
            a.append((self.a[j] + sum(other.a[i] * a[j - i] for i in range(1, j + 1))) / m0)
        return Jet(c, a, self.val - other.val)


def _exp_series(h, p: int):
    """The p coefficients of exp(h(eps)) for the coefficients h of a series
    with h_0 = 0: E_0 = 1, E_j = (1/j) sum_{i=1..j} i h_i E_(j-i)."""
    e = [mp.mpf(1)]
    for j in range(1, p):
        e.append(sum(i * h[i] * e[j - i] for i in range(1, j + 1)) / j)
    return e


def _linear(x: Jet):
    """c_0 and c_1 of a jet that is exactly c_0 + c_1 eps."""
    assert x.val == 0 and not any(x.c[2:]), "a jet of the index must be linear"
    return x.c[0], x.c[1] if len(x.c) > 1 else 0


def _expjpi(x: Jet) -> Jet:
    """exp(i pi x) of a linear jet: e(c_0/2) (i pi c_1)^j / j!."""
    c0, c1 = _linear(x)
    front = mp.expjpi(c0)
    step = mp.mpc(0, 1) * mp.pi * c1
    return Jet([front * step**j / math.factorial(j) for j in range(len(x.c))])


def _sinpi(x: Jet, scale) -> Jet:
    """sin(pi x) of a linear jet.  Where c_0 lies within 2^(10 - prec) scale
    of an integer k, the difference of two components that differ by k in
    double and were rounded once at this precision, it is
    (-1)^k sin(pi c_1 eps): eps times the series of sin(pi c_1 eps) / eps,
    whose leading coefficient is pi c_1."""
    c0, c1 = _linear(x)
    p = len(x.c)
    t = mp.pi * c1
    k = mp.nint(mp.re(c0))
    if abs(c0 - k) <= mp.ldexp(scale, 10 - mp.mp.prec):
        sign = -1 if int(k) % 2 else 1
        odd = [sign * (-1) ** (j // 2) * t ** (j + 1) / math.factorial(j + 1) if j % 2 == 0 else 0
               for j in range(p)]
        return Jet(odd, val=1)
    s, co = mp.sinpi(c0), mp.cospi(c0)
    cycle = (s, co, -s, -co)
    return Jet([cycle[j % 4] * t**j / math.factorial(j) for j in range(p)])


def rgamma(x: Jet) -> Jet:
    """1/Gamma(c_0 + c_1 eps) of a linear jet at Re c_0 > 0:
    1/Gamma(c_0) exp(-sum_(j>=1) psi^(j-1)(c_0) (c_1 eps)^j / j!)."""
    c0, c1 = _linear(x)
    p = len(x.c)
    front = mp.rgamma(c0)
    if not c1:
        return Jet([front] + [0] * (p - 1))
    h = [0] + [-mp.psi(j - 1, c0) * c1**j / math.factorial(j) for j in range(1, p)]
    return Jet([front * e for e in _exp_series(h, p)])


def exp_linear(c0, c1, p: int) -> Jet:
    """exp(c_0 + c_1 eps) as a jet of p coefficients."""
    front = mp.exp(c0)
    return Jet([front * c1**j / math.factorial(j) for j in range(p)])


def context(lam: tuple):
    """The jet stand-ins for the mpmath functions of the connection
    coefficients at the index lam: its components are O(1 + max |lam|), so
    a difference that lies within 2^(10 - prec) of that of an integer is
    one that the doubles make exact, rounded by the precision."""
    scale = 1 + max(abs(v) for v in lam)
    return SimpleNamespace(pi=mp.pi, expjpi=_expjpi, sinpi=lambda x: _sinpi(x, scale))


def direction(n: int):
    """u_l = 2l - n - 1, l = 1..n: distinct integers that sum to 0, so
    lam + eps u is generic for small eps != 0 and keeps sum lam."""
    return tuple(2 * l - n - 1 for l in range(1, n + 1))


@lru_cache(maxsize=256)
def cluster_order(lam: tuple) -> int:
    """The size of the largest set of components whose differences are
    exact integers (the doubles compared as rationals): 1 at a generic
    index, and the number of coefficients the jets of the limit carry."""
    keys = [(Fraction(v.real) % 1, v.imag) for v in lam]
    return max(map(keys.count, keys))


def vanishing_side(lam: tuple, deltas: tuple) -> int:
    """-1 where the kernel of the index (lam, deltas) vanishes identically
    on x < 0, else 0: no other side can.

    The kernel's Mellin-Barnes integrand is P_0(s) + sgn(x) P_1(s) with
    P_d = prod_l G_(delta_l + d)(s - lam_l), and G_1/G_0(s) = i tan(pi s/2),
    so P_1/P_0 = prod_l i tan(pi (s - mu_l)/2), mu_l = lam_l + delta_l.  A
    shift of mu by 1 turns tan into -1/tan, so the factors of one class of
    cluster_order (components an exact integer apart) leave a constant
    exactly when as many mu_l lie an even integer from the class's first
    member as an odd one.  Then n is even and the constant is
    i^n (-1)^(n/2) = +1: P_1 = P_0, and the side x < 0 vanishes."""
    balance = {}
    for v, d in zip(lam, deltas):
        key = (Fraction(v.real) % 1, v.imag)
        mu = Fraction(v.real) + d
        first, count = balance.get(key, (mu, 0))
        balance[key] = first, count + (1 if (mu - first) % 2 == 0 else -1)
    return -1 if all(count == 0 for _, count in balance.values()) else 0


def linear(c0, c1, p: int) -> Jet:
    """c_0 + c_1 eps as a jet of p coefficients."""
    return Jet([c0, c1] + [0] * (p - 2))


def index_jets(values, p: int):
    """values_l + eps u_l as jets of p coefficients."""
    return [linear(v, u, p) for v, u in zip(values, direction(len(values)))]
