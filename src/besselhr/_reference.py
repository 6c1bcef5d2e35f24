"""Independent classical-function references (mpmath big-float series).

Second route for the rank-two checks: ascending series for J and I summed
directly in big-float arithmetic, and the third-kind / K / Y functions
through the classical connection formulae

    H1_v = (J_{-v} - e^{-i pi v} J_v)/(i sin pi v),
    H2_v = (e^{i pi v} J_v - J_{-v})/(i sin pi v),
    K_v  = pi (I_{-v} - I_v)/(2 sin pi v),
    Y_v  = (J_v cos pi v - J_{-v})/sin pi v.

Nothing here touches the package's own evaluation paths.
"""

from __future__ import annotations

import mpmath as mp


def _ascending(nu, x, signfac):
    # sum_m signfac^m (x/2)^{nu+2m} / (m! Gamma(nu+m+1)); signfac=-1 gives J,
    # +1 gives I.  Truncates relative to the *working* precision so that
    # downstream connection-formula cancellation stays covered.
    cut = mp.mpf(10) ** (-(mp.mp.dps - 5))
    nu = mp.mpc(nu)
    x = mp.mpc(x)
    half = x / 2
    t = mp.power(half, nu) * mp.rgamma(nu + 1)
    total = t
    m = 0
    while True:
        m += 1
        t = t * signfac * half * half / m / (nu + m)
        total += t
        if m > 8 and abs(t) < abs(total) * cut:
            break
        if m > 100000:
            break
    return total


def _wdps(x, dps):
    # the ascending series cancels like e^{2|x|}, so working precision
    # scales with the argument
    return dps + int(abs(complex(x))) + 25


def besselj(nu, x, dps=40) -> complex:
    with mp.workdps(_wdps(x, dps)):
        return complex(_ascending(nu, x, -1))


def besseli(nu, x, dps=40) -> complex:
    with mp.workdps(_wdps(x, dps)):
        return complex(_ascending(nu, x, 1))


def hankel1(nu, x, dps=40) -> complex:
    with mp.workdps(_wdps(x, dps)):
        jp = _ascending(nu, x, -1)
        jm = _ascending(-mp.mpc(nu), x, -1)
        nu = mp.mpc(nu)
        return complex((jm - mp.expjpi(-nu) * jp) / (1j * mp.sinpi(nu)))


def hankel2(nu, x, dps=40) -> complex:
    with mp.workdps(_wdps(x, dps)):
        jp = _ascending(nu, x, -1)
        jm = _ascending(-mp.mpc(nu), x, -1)
        nu = mp.mpc(nu)
        return complex((mp.expjpi(nu) * jp - jm) / (1j * mp.sinpi(nu)))


def bessely(nu, x, dps=40) -> complex:
    with mp.workdps(_wdps(x, dps)):
        jp = _ascending(nu, x, -1)
        jm = _ascending(-mp.mpc(nu), x, -1)
        nu = mp.mpc(nu)
        return complex((jp * mp.cospi(nu) - jm) / mp.sinpi(nu))


def besselk(nu, x, dps=40) -> complex:
    with mp.workdps(_wdps(x, dps)):
        ip = _ascending(nu, x, 1)
        im = _ascending(-mp.mpc(nu), x, 1)
        nu = mp.mpc(nu)
        return complex(mp.pi * (im - ip) / (2 * mp.sinpi(nu)))
