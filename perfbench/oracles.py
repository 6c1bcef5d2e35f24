"""Reference values computed apart from the evaluators they check.

Nothing here calls into besselhr: the closed forms are written out from the
paper's formulas, and the rank-two references use mpmath's own Hankel and
Macdonald functions (not besselhr._reference, which shares its series with
nothing here but is part of the package under test).

Conventions, with e(t) = exp(2 pi i t):

* rank one, lambda = (0):      J(x; +-) = e^{+- i x};
  kernel J_(0,delta)(x) = sgn(x)^delta e(x).
* rank two, lambda = (mu, -mu), argument 2x of the classical functions:
  J(x; ++) =  i pi e^{i pi mu} H1_{2mu}(2x),  J(x; --) = -i pi e^{-i pi mu} H2_{2mu}(2x),
  J(x; +-) = 2 e^{-i pi mu} K_{2mu}(2x),     J(x; -+) = 2 e^{i pi mu} K_{2mu}(2x).
* prototype index lambda_l = (n + 1 - 2l)/(2n): every sign-vector function is
  one exponential, c / sqrt(n) (2 pi / x)^{(n-1)/2} exp(i n xi x) with
  xi = i exp(i pi (n_minus - n_plus) / (2n)) and
  c = e(-(n-1)/8 + sum_{l in plus positions} (l-1)/(2n)).

A kernel is the sum over sign vectors with prod sig = sgn x of
(prod sig_l^delta_l) J(2 pi |x|^{1/n}; sig), so the kernel references are the
same sums taken over these closed forms.  Each kernel reference also returns
the summed magnitude of its terms, the scale its own rounding error has.
"""

from __future__ import annotations

import cmath
import itertools
import math

import mpmath as mp


def prototype_lambda(n: int) -> tuple:
    return tuple((n + 1 - 2 * l) / (2.0 * n) for l in range(1, n + 1))


def rank1_signvec(sign: int, x: float) -> complex:
    return cmath.exp(sign * 1j * x)


def rank2_signvec(signs: tuple, mu: complex, x: float) -> complex:
    """Sign-vector function at rank two from mpmath's classical functions."""
    nu = 2 * mu
    with mp.workdps(30):
        if signs == (1, 1):
            v = 1j * mp.pi * mp.expjpi(mu) * mp.hankel1(nu, 2 * x)
        elif signs == (-1, -1):
            v = -1j * mp.pi * mp.expjpi(-mu) * mp.hankel2(nu, 2 * x)
        elif signs == (1, -1):
            v = 2 * mp.expjpi(-mu) * mp.besselk(nu, 2 * x)
        elif signs == (-1, 1):
            v = 2 * mp.expjpi(mu) * mp.besselk(nu, 2 * x)
        else:
            raise ValueError("rank-two sign vector expected")
        return complex(v)


def prototype_signvec(signs: tuple, x: float) -> complex:
    n = len(signs)
    n_minus = sum(1 for s in signs if s < 0)
    n_plus = n - n_minus
    xi = 1j * cmath.exp(1j * math.pi * (n_minus - n_plus) / (2 * n))
    plus_sum = sum(l for l, s in enumerate(signs) if s > 0)  # 0-based l = position - 1
    c = cmath.exp(2j * math.pi * (-(n - 1) / 8.0 + plus_sum / (2.0 * n)))
    return c / math.sqrt(n) * (2 * math.pi / x) ** ((n - 1) / 2.0) * cmath.exp(
        1j * n * xi * x
    )


def _kernel_sum(n: int, deltas: tuple, x: float, signvec):
    z = 2.0 * math.pi * abs(x) ** (1.0 / n)
    parity = 1 if x > 0 else -1
    total = 0j
    mass = 0.0
    for signs in itertools.product((1, -1), repeat=n):
        if math.prod(signs) != parity:
            continue
        coef = math.prod(s for s, d in zip(signs, deltas) if d % 2)
        term = coef * signvec(signs, z)
        total += term
        mass += abs(term)
    return total, mass


def rank1_kernel(deltas: tuple, x: float):
    v = (1.0 if x > 0 or deltas[0] % 2 == 0 else -1.0) * cmath.exp(2j * math.pi * x)
    return v, abs(v)


def rank2_kernel(mu: complex, deltas: tuple, x: float):
    return _kernel_sum(2, deltas, x, lambda s, z: rank2_signvec(s, mu, z))


def prototype_kernel(n: int, deltas: tuple, x: float):
    return _kernel_sum(n, deltas, x, prototype_signvec)
