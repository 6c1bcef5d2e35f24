import cmath
import math
import random
import re
import time
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from besselhr import _backend, _jet, asympt, coeffs, core
from besselhr import kernel as kernel_module
from besselhr import series
from besselhr.asympt import (
    j_varsigma_asymptotic,
    second_kind_sweep,
    sweep_start,
    validity_floor,
    varsigma_factor,
)
from besselhr.coeffs import build_b_table
from besselhr.core import (
    OutOfSectorError,
    PoleError,
    RootOfUnity,
    SignVector,
    SpectralIndex,
    SurfacePoint,
    ToleranceNotMetError,
    ValidityFloorError,
)
from besselhr.kernel import (
    CANCEL_SWITCH,
    FE_MELLIN_TOL,
    KernelIndex,
    SampledWeightFunction,
    WeightFunction,
    _GGW,
    _GKW,
    _BAND_TOP,
    _KernelGrid,
    _asymptotic_sweep,
    _asymptotic_zone,
    _fe_grid,
    bessel_kernel,
    functional_equation_check,
    hankel_transform,
    kernel_asymptotics,
    kernel_sweep,
    mellin_inversion,
)
from besselhr.mellinbarnes import g_delta, mb_eval_est, mb_kernel_est
from besselhr.series import j_function, sign_vectors


def _band_top(si):
    """Where the kernel's asymptotic band ends: every node at or above it
    takes the expansion unchecked."""
    return max(validity_floor(si), _BAND_TOP)


def test_kernel_maass_even_plus_side():
    # -(pi / cosh pi t) (Y_{2it} + Y_{-2it})(4 pi sqrt x)
    t = 0.6
    ki = KernelIndex(SpectralIndex([1j * t, -1j * t]), (0, 0))
    for x in (0.3, 2.0, 30.0):
        r = bessel_kernel(x, ki)
        arg = 4 * math.pi * math.sqrt(x)
        with mp.workdps(45):
            y = complex(mp.bessely(2j * t, arg)) + complex(mp.bessely(-2j * t, arg))
        want = -math.pi / math.cosh(math.pi * t) * y
        assert abs(r.value - want) <= max(1e-9 * abs(want), 4 * r.error)


def test_kernel_maass_even_minus_side():
    t = 0.6
    ki = KernelIndex(SpectralIndex([1j * t, -1j * t]), (0, 0))
    for x in (0.3, 2.0):
        r = bessel_kernel(-x, ki)
        with mp.workdps(45):
            k = complex(mp.besselk(2j * t, 4 * math.pi * math.sqrt(x)))
        want = 4 * math.cosh(math.pi * t) * k
        assert abs(r.value - want) <= max(1e-9 * abs(want), 4 * r.error)


def test_kernel_rank1_fourier():
    # rank one, parity 0: e(x) on the plus side, e(-x) on the minus side
    ki = KernelIndex(SpectralIndex([0.0]), (0,))
    x = 0.37
    r = bessel_kernel(x, ki)
    assert abs(r.value - cmath.exp(2j * math.pi * x)) < 1e-10
    r = bessel_kernel(-x, ki)
    assert abs(r.value - cmath.exp(-2j * math.pi * x)) < 1e-10


def test_kernel_vs_mb_kernel_log_grid():
    # signed-sum construction against the direct kernel contour integral
    cases = [
        (SpectralIndex([0.0]), (0,)),
        (SpectralIndex([0.2j, -0.2j]), (0, 1)),
        (SpectralIndex([0.3, -0.1, -0.2]), (0, 1, 0)),
    ]
    for si, deltas in cases:
        ki = KernelIndex(si, deltas)
        for ax in np.geomspace(0.1, 100.0, 7):
            for sgn in (1, -1):
                x = float(sgn * ax)
                r = bessel_kernel(x, ki, "auto", 1e-9)
                vm, em = mb_kernel_est(x, si, ki.deltas, 1e-9)
                assert abs(r.value - vm) < 1e-7 + 4 * (r.error + em), (
                    si.rank,
                    x,
                    abs(r.value - vm),
                    r.error,
                    em,
                )


def _generic_index(n, kind):
    # fixed generic indices: distinct real parts, and for "complex" also
    # distinct imaginary parts
    re = [0.31, -0.12, 0.07, -0.26, 0.19, -0.04][:n]
    im = [0.0] * n if kind == "real" else [0.2, -0.1, 0.15, -0.3, 0.05, 0.25][:n]
    return SpectralIndex([complex(a, b) for a, b in zip(re, im)])


def _signvec_sum(x, ki, tol):
    """The kernel as the explicit signed sum of sign-vector functions, its
    error bound and max |J(sig)| over the sign vectors of the sum."""
    n = ki.rank
    inner = 2.0 * math.pi * abs(x) ** (1.0 / n)  # as bessel_kernel rounds it
    total = 0j
    err = 0.0
    peak = 0.0
    for sv in sign_vectors(n, 1 if x > 0 else -1):
        r = j_function(inner, sv, ki.lam, tol)
        total += math.prod(s for s, d in zip(sv.signs, ki.deltas) if d) * r.value
        err += r.tail_bound
        peak = max(peak, abs(r.value))
    return total, err + 4.0 * np.finfo(float).eps * peak * (n + 1), peak


@pytest.mark.parametrize("n", range(1, 7))
def test_kernel_coeffs_closed_form(n):
    # K_l = sum_k e_k(y) R^(k)_l from the stored root rows equals the
    # 2^(n-1)-term signed sum of the sign-vector connection coefficients
    # (at 40 digits): at 30 digits within its bounds, and rounded once, with
    # |K_l| as bound, in the double pass
    for kind in ("real", "complex"):
        lam = _generic_index(n, kind).lam
        for deltas in ((0,) * n, (1,) + (0,) * (n - 1), tuple(l % 2 for l in range(1, n + 1))):
            for parity in (1, -1):
                with mp.workdps(40):
                    lam_mp = [mp.mpc(v) for v in lam]
                    sines = series._sines(mp, lam_mp)
                    want = [0] * n
                    for sv in sign_vectors(n, parity):
                        coef = math.prod(s for s, d in zip(sv.signs, deltas) if d)
                        cs, _ = series._connection_coeffs(mp, lam_mp, sines, sv)
                        want = [w + coef * c for w, c in zip(want, cs)]
                rows = series._root_rows_mp(lam, parity, 30)
                got, bounds = series._kernel_coeffs(lam, deltas, parity, 30, rows)
                scale = max(abs(w) for w in want)
                assert max(abs(g - w) for g, w in zip(got, want)) <= mp.mpf(10) ** -28 * scale
                with mp.workdps(30):
                    assert all(abs(g) <= b for g, b in zip(got, bounds))
                double, mags, _ = series._coeffs_double(lam, ("kernel", deltas, parity))
                assert all(abs(g - complex(w)) <= 2.0**-52 * abs(w) for g, w in zip(double, want))
                assert mags == pytest.approx([float(abs(w)) for w in want], rel=1e-15)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_kernel_series_matches_signvec_sum(n, kind):
    # n first-kind series against 2^(n-1) sign-vector functions, within the
    # summed reported errors; the error is relative to the kernel
    tol = 1e-9
    ki = KernelIndex(_generic_index(n, kind), [l % 2 for l in range(n)])
    for inner in (1.5, 7.0):
        ax = (inner / (2 * math.pi)) ** n
        for sgn in (1, -1):
            r = bessel_kernel(sgn * ax, ki, "series", tol)
            want, want_err, peak = _signvec_sum(sgn * ax, ki, tol)
            assert r.method == "series"
            assert abs(r.value - want) <= r.error + want_err, (n, kind, sgn * ax)
            assert r.error <= (tol + 1e-14) * abs(r.value), (n, kind, sgn * ax)
            # the cancellation reference by root is the largest |J(sig)|
            assert r.cancellation == pytest.approx(peak / abs(want), rel=1e-7)


@pytest.mark.parametrize("lam, deltas", [
    ([0.2, 0.2, -0.4], (0, 1, 0)),
    ([0.25, 0.25, -0.1 + 0.2j, -0.4 - 0.2j], (1, 0, 0, 1)),
])
def test_kernel_series_nongeneric_cancellation(lam, deltas):
    # at a non-generic index the grouped sums are limits on jets and the
    # top-k factor is taken at the index itself: the cancellation is the
    # largest |J(sig)| of the explicit sign-vector functions
    ki = KernelIndex(SpectralIndex(lam), deltas)
    n = ki.rank
    for x in (0.02, 0.7, -0.7, 5.0):
        r = bessel_kernel(x, ki, "series", 1e-9)
        inner = 2.0 * math.pi * abs(x) ** (1.0 / n)
        svs = sign_vectors(n, 1 if x > 0 else -1)
        peak = max(abs(j_function(inner, sv, ki.lam, 1e-10).value) for sv in svs)
        assert r.method == "series"
        assert r.cancellation == pytest.approx(peak / abs(r.value), rel=1e-7), x


# the connection formulas' functions in double (series computes them in
# mpmath and rounds): the rows' identity holds in either arithmetic
_DOUBLE = SimpleNamespace(pi=math.pi, expjpi=series._DOUBLE.expjpi, sinpi=core.sinpi)


def _check_root_rows(ctx, lam, rel):
    """Each sign vector's E E_l S_l against prod_S e(lam_l / 2) times the
    row of its number k of minus signs, and top_products against the
    largest |prod_S e(lam_l / 2)| with |S| = k."""
    n = len(lam)
    sines = series._sines(ctx, lam)
    for parity in (1, -1):
        ks = range(0 if parity > 0 else 1, n + 1, 2)
        rows = dict(zip(ks, series._root_rows(ctx, lam, parity)))
        peaks = dict.fromkeys(ks, 0.0)
        for sv in sign_vectors(n, parity):
            factor = math.prod(ctx.expjpi(lam[l]) for l in range(n) if sv.signs[l] < 0)
            want = series._connection_coeffs(ctx, lam, sines, sv)[0]
            got = [factor * c for c in rows[sv.n_minus]]
            scale = max(abs(w) for w in want)
            assert max(abs(g - w) for g, w in zip(got, want)) <= rel * scale, (n, str(sv))
            peaks[sv.n_minus] = max(peaks[sv.n_minus], float(abs(factor)))
        tops = series.top_products([complex(v) for v in lam])
        assert [tops[k] for k in ks] == pytest.approx([peaks[k] for k in ks], rel=1e-14)


@pytest.mark.parametrize("n", range(1, 11))
def test_root_rows_reproduce_connection_coeffs(n):
    # J(sig) = prod_S e(lam_l / 2) G_k: the rows of the cancellation
    # reference carry every sign vector's connection coefficients, in
    # double at ranks 1-10 and at 50 digits through rank 6
    rng = np.random.default_rng(n)
    re, im = rng.uniform(-0.4, 0.4, n), rng.uniform(-0.3, 0.3, n)
    for values in (re, re + 1j * im):
        lam = SpectralIndex(list(values)).lam
        _check_root_rows(_DOUBLE, lam, 1e-13)
        if n <= 6:
            with mp.workdps(50):
                lam_mp = [mp.mpc(v) for v in lam]
                mean = sum(lam_mp) / n
                _check_root_rows(mp, [v - mean for v in lam_mp], mp.mpf(10) ** -45)


def test_kernel_series_nongeneric_cauchy_mean():
    # lam = (1/2, -1/2) is non-generic, so the collapsed sum is taken as the
    # limit, on jets in a perturbation of the index.  Classical values:
    # -2 pi J_1(4 pi sqrt x) for x > 0 (delta = 00), -4i K_1(4 pi sqrt|x|)
    # for x < 0 (delta = 10)
    si = SpectralIndex([0.5, -0.5])
    cases = [
        (0.7, (0, 0), -2 * math.pi * complex(mp.besselj(1, 4 * math.pi * math.sqrt(0.7)))),
        (-0.7, (1, 0), -4j * complex(mp.besselk(1, 4 * math.pi * math.sqrt(0.7)))),
    ]
    for x, deltas, want in cases:
        r = bessel_kernel(x, KernelIndex(si, deltas), "series", 1e-9)
        assert abs(r.value - want) <= 1e-9 * abs(want)
        assert abs(r.value - want) <= 4 * r.error


def test_kernel_cancellation_switch():
    # holomorphic parameters: the minus side vanishes identically, which
    # auto mode answers exactly.  1e-9 off them it is about 2 pi 1e-9 times
    # the sign-vector terms, and auto mode falls back to the direct contour
    # integral
    assert bessel_kernel(-2.0, KernelIndex(SpectralIndex([1.0, -1.0]), (1, 0))) == core.EvalResult(
        0j, 0.0, "exact", 1.0)
    ki = KernelIndex(SpectralIndex([1 + 1e-9, -1 - 1e-9]), (1, 0))
    r = bessel_kernel(-0.5, ki)
    assert r.method == "mellin-barnes"
    assert r.cancellation > 1e6
    assert abs(r.value) < 1e-9


def test_series_error_covers_a_vanishing_kernel():
    # the kernel above vanishes identically at x = -2; the non-generic
    # index's Cauchy mean counts the rounding of its circle points, which is
    # what it holds there, so the series route claims no correct digit
    ki = KernelIndex(SpectralIndex([1.0, -1.0]), (1, 0))
    r = bessel_kernel(-2.0, ki, "series")
    assert r.method == "series" and r.error >= abs(r.value)


# s points near the real axis, where no factor tan(pi (s - mu)/2) of
# P_1/P_0 is near its limits +-i, and off every pole of the indices below
_RATIO_S = np.array([0.31 + 0.17j, -0.52 + 0.43j, 1.27 - 0.29j, 2.13 + 0.05j])


def _integrand_ratio(si, deltas):
    """P_1/P_0 at _RATIO_S, from the kernel integrand at x = 1."""
    lam, dl = np.array(si.lam), np.array(deltas)
    p0, p1 = (_backend.mb_kernel_integrand(_RATIO_S, lam, dl, d, 0.0) for d in (0, 1))
    return p1 / p0


def _mirrored_indices(rng, count):
    """Seeded indices of ranks 2-6 and their parities: n // 2 components,
    each one of two bases (a multiple of 1/2 in [-1/2, 1/2], and a
    multiple of 1/16 there, complex in half the draws) plus an integer in
    [-2, 2], their negatives, and 0 at odd rank, in a random order.  Their
    sum is exactly 0, so SpectralIndex keeps every component and every
    integer difference."""
    for _ in range(count):
        n = int(rng.integers(2, 7))
        bases = [int(rng.integers(-1, 2)) / 2, int(rng.integers(-8, 9)) / 16
                 + 1j * int(rng.integers(-4, 5)) / 16 * (rng.random() < 0.5)]
        half = [bases[int(rng.integers(0, 2))] + int(rng.integers(-2, 3)) for _ in range(n // 2)]
        lam = half + [-v for v in half] + [0.0] * (n % 2)
        lam = [lam[i] for i in rng.permutation(n)]
        yield lam, tuple(int(d) for d in rng.integers(0, 2, n))


def test_vanishing_side_against_the_integrand_ratio():
    # the exact rule against P_1/P_0: 1 at every s point where the rule puts
    # a vanishing side at x < 0, and away from 1 at some point elsewhere
    rng = np.random.default_rng(41)
    cases = list(_mirrored_indices(rng, 300))
    cases += [((0.5, -0.5), (1, 0)), ((0.0,), (0,)), ((0.0,), (1,)),
              ((1.0, 0.0, -1.0), (0, 1, 0)), ((0.5, 0.5, -1.0), (0, 0, 1))]
    # the kernel-grid indices bar its vanishing item, and the hankel-fe ones
    p3, p4, p5, p6 = ([(n + 1 - 2 * l) / (2 * n) for l in range(1, n + 1)] for n in (3, 4, 5, 6))
    g3 = (0.1 + 0.2j, -0.05 - 0.3j, -0.05 + 0.1j)
    cases += [((0.3j, -0.3j), (0, 0)), ((0.3j, -0.3j), (0, 1)), ((0.3, -0.3), (1, 1)),
              (p3, (0, 1, 0)), (p3, (0, 0, 0)), (p3, (1, 1, 0)), (g3, (0, 1, 0)), (g3, (0, 0, 1)),
              (p4, (0, 1, 0, 1)), (p4, (0, 0, 0, 0)), (p4, (1, 1, 0, 0)),
              ((0.3, -0.1, -0.25, 0.05), (0, 0, 0, 0)), (p5, (0, 1, 0, 0, 1)),
              (p6, (0, 1, 0, 0, 1, 0)), ((0.25j, -0.25j), (0, 0))]
    found = {-1: 0, 0: 0}
    for lam, deltas in cases:
        ki = KernelIndex(SpectralIndex(lam), deltas)
        assert ki.vanishing == _jet.vanishing_side(ki.lam.lam, ki.deltas)
        off = np.abs(_integrand_ratio(ki.lam, ki.deltas) - 1.0)
        if ki.vanishing:
            assert ki.rank % 2 == 0 and off.max() < 1e-12, (lam, deltas)
        else:
            assert off.max() > 1e-3, (lam, deltas)
        found[ki.vanishing] += 1
    assert found[-1] >= 20 and found[0] >= 200, found


# the indices with a vanishing side x < 0 (holomorphic parameters)
_VANISHING = [((0.5, -0.5), (0, 0)), ((1.0, -1.0), (1, 0)), ((0.0, 0.0), (1, 0))]


def test_vanishing_side_is_exact_in_auto_mode_and_in_the_sweep():
    xs = np.array([0.5, 3.0, 20.0])
    for lam, deltas in _VANISHING:
        ki = KernelIndex(SpectralIndex(lam), deltas)
        assert ki.vanishing == -1
        for x in xs:
            assert bessel_kernel(-x, ki) == core.EvalResult(0j, 0.0, "exact", 1.0)
        plus, minus = kernel_sweep(np.log(xs), ki, 1e-9)
        values, errors, routes, swept = minus
        assert swept.all() and routes == ["exact"] * 3
        assert not values.any() and not errors.any()
        for i, x in enumerate(xs):  # the side x > 0 keeps bessel_kernel's bits
            r = bessel_kernel(x, ki)
            assert r.method != "exact"
            assert (plus[2][i], plus[0][i], plus[1][i]) == (r.method, r.value, r.error)


def test_forced_routes_hold_zero_within_their_errors_on_a_vanishing_side():
    # the forced routes keep computing that side: the independent checks of
    # the rule
    for lam, deltas in _VANISHING:
        ki = KernelIndex(SpectralIndex(lam), deltas)
        for x in (-0.5, -3.0):
            for method in ("series", "mb"):
                r = bessel_kernel(x, ki, method, 1e-9)
                assert r.method == {"mb": "mellin-barnes"}.get(method, method)
                assert abs(r.value) <= r.error, (lam, x, method)


def test_vanishing_side_transform_in_a_second():
    # lam = (0.5, -0.5), delta = 00: on the plus side -2 pi J_1(4 pi sqrt x),
    # the minus side 0, so at the even weight the transform is the integral
    # over y > 0 alone
    weight = WeightFunction.unit_mass()
    ki = KernelIndex(SpectralIndex([0.5, -0.5]), (0, 0))
    t0 = time.perf_counter()
    r = hankel_transform(weight, ki, [0.5, 1.0, 2.0], 1e-6)
    assert time.perf_counter() - t0 < 1.0
    with mp.workdps(20):
        want = complex(mp.quad(
            lambda u: weight(float(mp.exp(u))) * mp.exp(u) * mp.besselj(1, 4 * mp.pi * mp.exp(u / 2)),
            mp.linspace(-8, 6, 15),
        )) * -2 * math.pi
    assert abs(r.values[1] - want) <= 1e-6 * abs(want)


def test_vanishing_side_functional_equation_check_in_seconds():
    t0 = time.perf_counter()
    report = functional_equation_check(
        KernelIndex(SpectralIndex([0.0, 0.0]), (1, 0)), WeightFunction.unit_mass(),
        [0.5, 0.5 + 1j, 0.5 + 2j])
    assert time.perf_counter() - t0 < 5.0
    assert report.passed


def test_mb_method_is_the_mellin_barnes_kernel_bits():
    ki = KernelIndex(SpectralIndex([0.25j, -0.25j]), (0, 0))
    for x in (0.7, -2.0):
        r = bessel_kernel(x, ki, "mb", 1e-9)
        value, err = mb_kernel_est(x, ki.lam, ki.deltas, 1e-9)
        assert (r.method, r.cancellation) == ("mellin-barnes", 1.0)
        assert np.array([r.value]).tobytes() == np.array([value]).tobytes()
        assert float(r.error).hex() == float(err).hex()


def test_kernel_parity_decay_even_rank():
    # for even rank the minus side is exponentially small; rate >= 0.9 * 4 pi
    ki = KernelIndex(SpectralIndex([0.3j, -0.3j]), (0, 0))
    xs = np.linspace(3.0, 6.0, 7)
    logs = [math.log(abs(bessel_kernel(-float(x) ** 2, ki).value)) for x in xs]
    rate = -float(np.polyfit(xs, logs, 1)[0])
    assert rate >= 0.9 * 4 * math.pi


def test_kernel_asymptotics_m_decay():
    ki = KernelIndex(SpectralIndex([0.2, -0.15, -0.05]), (0, 0, 0))
    x = 20.0
    full = bessel_kernel(x**3, ki, "auto", 1e-12)
    diffs = []
    for m in (1, 2, 3):
        ka = kernel_asymptotics(x, ki, m)
        diffs.append(abs(full.value - ka.side_value(True)))
    # successive truncations gain at least ~x^{-1} per order
    assert diffs[1] < diffs[0] / x
    assert diffs[2] < diffs[1] / x
    # and the remainder bound of the report covers the difference
    ka = kernel_asymptotics(x, ki, 3)
    assert diffs[2] <= 4 * ka.side_error(True) + 1e-12


def test_kernel_asymptotics_even_rank_minus_side_empty():
    ki = KernelIndex(SpectralIndex([0.1j, -0.1j]), (0, 0))
    ka = kernel_asymptotics(10.0, ki, 2)
    assert len(ka.plus_terms) == 2
    assert len(ka.minus_terms) == 0
    assert ka.e_decay_rate == pytest.approx(4 * math.pi)


def test_kernel_asymptotics_leading_w():
    ki = KernelIndex(SpectralIndex([0.2, -0.15, -0.05]), (0, 0, 0))
    ka = kernel_asymptotics(25.0, ki, 1)
    for _, w, _ in ka.plus_terms + ka.minus_terms:
        assert abs(w - 25.0 ** (-1.0)) < 0.05 * 25.0 ** (-1.0)


@pytest.mark.parametrize("m_terms", [-1, 31, 32, 40])
def test_kernel_asymptotics_terms_outside_the_table_raise(m_terms):
    # the stored B table holds B_0..B_M_CAP: W sums m_terms terms and is
    # charged twice B_(m_terms), so m_terms runs over 0..M_CAP
    ki = KernelIndex(SpectralIndex([0.2, -0.15, -0.05]), (0, 0, 0))
    with pytest.raises(ValueError, match=r"m_terms must lie in \[0, 30\]"):
        kernel_asymptotics(10.0, ki, m_terms)


def _w_from_table_of_its_length(x, si, sign, m_terms):
    # W summed over a table built to min(m_terms + 1, 30) terms
    n = si.rank
    xi = RootOfUnity(2 * n, 0 if sign > 0 else n)
    bs = build_b_table(n, si, xi, min(m_terms + 1, 30)).coeffs
    acc = 0j
    t = x ** (-(n - 1) / 2.0)
    for m in range(m_terms):
        acc += bs[m] * t
        t /= 2.0 * math.pi * x
    return acc, 2.0 * (abs(bs[m_terms]) * abs(t))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_asymptotics_reads_a_prefix_of_the_stored_table_bits(n):
    # a prefix of the one table built to M_CAP terms gives the bits of a
    # table built to each length
    si = SpectralIndex([0.2, -0.15, -0.05, 0.1j][:n])
    ki = KernelIndex(si, (1,) + (0,) * (n - 1))
    for x in (10.0, 37.5):
        for m in range(31):
            ka = kernel_asymptotics(x, ki, m)
            got = [(w, e) for _, w, e in ka.plus_terms + ka.minus_terms]
            signs = (1, -1)
            want = [_w_from_table_of_its_length(x, si, s, m) for s in signs]
            assert repr(got) == repr(want)


def test_hankel_transform_rank1_fourier_oracle():
    ki = KernelIndex(SpectralIndex([0.0]), (0,))
    w = WeightFunction(eta=0, mu=0.0, width=1.0)
    res = hankel_transform(w, ki, [0.5, 1.0, 3.0], tol=1e-8)
    from numpy.polynomial.legendre import leggauss

    gx, gw = leggauss(40)

    def fourier(x):
        total = 0.0 + 0.0j
        edges = np.arange(-400.0, 400.0001, 0.2)
        for a, b in zip(edges[:-1], edges[1:]):
            y = 0.5 * (a + b) + 0.5 * (b - a) * gx
            vals = w.log_values(np.log(np.abs(y)), 1) * np.sign(y) ** 0
            vals = np.where(y != 0, w.amplitude * np.exp(
                -((np.log(np.abs(y)) - w.mu) / w.width) ** 2
            ), 0.0)
            total += 0.5 * (b - a) * np.sum(gw * vals * np.exp(2j * np.pi * x * y))
        return total

    for x, v, e in zip(res.x, res.values, res.errors):
        want = fourier(x)
        assert abs(v - want) < 1e-7


def test_hankel_delta_sequence():
    # unit-mass bumps shrinking around y = 1 converge to the kernel value
    si = SpectralIndex([0.2j, -0.2j])
    ki = KernelIndex(si, (0, 0))
    x = 1.0
    want = bessel_kernel(x, ki, "auto", 1e-11).value
    errs = []
    for width in (0.16, 0.08, 0.04):
        w = WeightFunction.unit_mass(eta=0, mu=0.0, width=width)
        res = hankel_transform(w, ki, [x], tol=1e-9)
        errs.append(abs(res.values[0] - want))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.1 * abs(want)


def test_hankel_transform_is_linear_in_the_amplitude():
    # the weight is cut relative to its peak, so a small or negative
    # amplitude scales the transform within the reported errors
    ki = KernelIndex(SpectralIndex([0.25j, -0.25j]), (0, 0))
    xs = [0.5, 1.0, 2.0]
    ref = hankel_transform(WeightFunction(), ki, xs)
    for a in (1e-8, 1e-20, -1.0):
        res = hankel_transform(WeightFunction(amplitude=a), ki, xs)
        for v, e, v1, e1 in zip(res.values, res.errors, ref.values, ref.errors):
            assert abs(v / a - v1) <= e / abs(a) + e1


def test_sampled_weight_matches_closed_form():
    from besselhr.kernel import SampledWeightFunction

    w = WeightFunction(eta=0, mu=0.2, width=0.7)
    u = np.linspace(-5.5, 5.9, 1600)
    ws = SampledWeightFunction(u, w.log_values(u), eta=0)
    assert abs(ws(1.3) - w(1.3)) < 5e-5  # linear interpolation on h ~ 7e-3
    # numeric Mellin on the grid vs the closed form
    for s in (0.5, 0.5 + 1j):
        a = ws.mellin(s)
        b = w.mellin(s)
        assert abs(a - b) < 1e-5 * abs(b)
    # transforms agree to interpolation accuracy
    ki = KernelIndex(SpectralIndex([0.2j, -0.2j]), (0, 0))
    ra = hankel_transform(w, ki, [0.8], tol=1e-7)
    rb = hankel_transform(ws, ki, [0.8], tol=1e-7)
    assert abs(ra.values[0] - rb.values[0]) < 1e-4 * max(1.0, abs(ra.values[0]))


def test_sampled_weight_mellin_is_the_interpolants():
    # exact per segment on both sides of |s h| = 1, where the segment
    # integrals switch from their closed forms to their Taylor series;
    # to rounding of the mass M(Re s) the oscillating sum moves
    u = np.linspace(-3.0, 3.0, 9)
    v = np.exp(-u * u) * np.array([1e-9, 1, 2, 3, 4, 3, 2, 1, 1e-9])
    ws = SampledWeightFunction(u, v)
    for s in (1e-9j, 0.5, 0.5 + 0.94j, 1.0 + 0.5j, 3 + 2j, 0.5 + 40j):
        with mp.workdps(30):
            want = 2 * sum(
                mp.quad(lambda t: (v[i] + (v[i + 1] - v[i]) * (t - u[i]) / (u[i + 1] - u[i]))
                        * mp.exp(s * t), [u[i], u[i + 1]])
                for i in range(len(u) - 1)
            )
        assert abs(ws.mellin(s) - complex(want)) < 1e-15 * abs(ws.mellin(s.real))


def test_sampled_weight_support_is_cut_at_tiny():
    # the samples where |v| >= tiny max |v|, one sample wider on each side:
    # the interpolant falls to the cut only at the next sample
    u = np.arange(8.0)
    ws = SampledWeightFunction(u, [1e-9, 1e-6, -1e-3, 2.0, 1.0, 1e-3, 1e-6, 1e-9])
    assert ws.log_support(1e-4) == (1.0, 6.0)
    assert ws.log_support(1e-7) == (0.0, 7.0)
    assert ws.log_support(0.9) == (2.0, 4.0)


def test_sampled_weight_rejects_bad_decay():
    from besselhr.kernel import SampledWeightFunction

    u = np.linspace(-2, 2, 50)
    with pytest.raises(ValueError):
        SampledWeightFunction(u, np.ones_like(u))


def test_mellin_inversion_round_trip():
    w = WeightFunction(eta=0, mu=0.3, width=0.8)
    for x in (0.4, -1.7, 3.0):
        assert abs(mellin_inversion(w, x) - w(x)) < 1e-7
    w1 = WeightFunction(eta=1, mu=0.0, width=1.0)
    for x in (0.4, -1.7):
        assert abs(mellin_inversion(w1, x) - w1(x)) < 1e-7


@pytest.mark.parametrize("case", ["rank2", "rank3"])
@pytest.mark.parametrize("mu", [-10.0, -5.0, 5.0, 10.0])
def test_functional_equation_follows_the_weight_centre(case, mu):
    # Upsilon_mu(x) = e^mu Upsilon_0(x e^mu): the check's nodes move by -mu,
    # so a bump centred away from 0 passes as one centred at 0 does
    ki = _SWEEP_CASES[case][0]
    rep = functional_equation_check(ki, WeightFunction(eta=0, mu=mu), [0.5, 0.5 + 1j, 0.5 + 2j])
    assert rep.passed and rep.max_rel_error < 1e-6


@pytest.mark.parametrize("s", [1e300, complex("nan"), 3.0, -3.0, 0.5 + 1j * math.inf])
def test_functional_equation_s_points_on_the_line(s, monkeypatch):
    # finite points on Re s = 1/2 only, refused before any kernel work
    ki = _SWEEP_CASES["rank2"][0]
    monkeypatch.setattr(kernel_module, "_KernelGrid", None)
    with pytest.raises(ValueError, match="Re s = 1/2"):
        functional_equation_check(ki, WeightFunction(eta=0), [0.5, s])


def test_functional_equation_refuses_s_it_cannot_resolve(monkeypatch):
    # at width 2 the weight's closed form at 1 - s falls below a quarter of
    # its value at s = 1/2 past |Im s| = sqrt(ln 4) ~ 1.18: the default point
    # 0.5+2i is named, before any kernel work
    ki = _SWEEP_CASES["rank2"][0]
    monkeypatch.setattr(kernel_module, "_KernelGrid", None)
    with pytest.raises(ValueError, match=r"cannot resolve s = \(0.5\+2j\)"):
        functional_equation_check(ki, WeightFunction(eta=0, width=2.0), [0.5, 0.5 + 1j, 0.5 + 2j])
    with pytest.raises(ValueError, match=r"cannot resolve s = \(0.5-2.4j\)"):
        functional_equation_check(ki, WeightFunction(eta=1, mu=5.0), [0.5 - 2.4j])


def test_functional_equation_refuses_weights_wider_than_it_resolves(monkeypatch):
    # criterion 11's rank-3 index: width 2 at 0.5+1.1i passes at 7.9e-7;
    # width 2.5 at 0.5+0.94i, which the quarter bound admits, would miss at
    # 1.45e-6, so the width is named before any kernel work
    ki = _SWEEP_CASES["rank3"][0]
    rep = functional_equation_check(ki, WeightFunction(width=2.0), [0.5 + 1.1j])
    assert rep.passed and rep.max_rel_error < 1e-6
    monkeypatch.setattr(kernel_module, "_KernelGrid", None)
    with pytest.raises(ValueError, match="width at most 2, not 2.5"):
        functional_equation_check(ki, WeightFunction(width=2.5), [0.5 + 0.94j])
    # a sampled bump's width is sqrt(2) times the spread of its samples in u
    with pytest.raises(ValueError, match="width at most 2, not 2.5"):
        functional_equation_check(ki, _sampled_bump(2.5), [0.5 + 0.94j])


def _sampled_bump(width):
    u = np.linspace(-16.0, 16.0, 6401)
    return SampledWeightFunction(u, WeightFunction(width=width).log_values(u))


@pytest.mark.parametrize("case", ["rank2", "rank3"])
@pytest.mark.parametrize("width", [1.0, 2.0])
def test_functional_equation_passes_sampled_weights(case, width):
    # the right side takes the Mellin transform of the interpolant the
    # transform integrates (a trapezoid sum of the samples is h^2 |s|^2 / 12
    # off it: 2.5e-6 at rank 3), and the kernel grid spans only the samples
    # above the cut (the whole sample range overran the grid's panel budget
    # at rank 2)
    ws = _sampled_bump(width)
    assert ws.width == pytest.approx(width, rel=1e-9)
    rep = functional_equation_check(_SWEEP_CASES[case][0], ws, [0.5, 0.5 + 0.94j])
    assert rep.passed and rep.max_rel_error < 1e-6


@pytest.mark.parametrize("case", ["rank2", "rank3"])
def test_functional_equation_passes_up_to_the_resolution_bound(case):
    # width 1: the bound is |Im s| <= 2 sqrt(ln 4) ~ 2.35, and 0.5+2.3i passes
    ki = _SWEEP_CASES[case][0]
    rep = functional_equation_check(ki, WeightFunction(eta=0), [0.5 + 2.3j])
    assert rep.passed and rep.max_rel_error < 1e-6


# (case, width, eta, mu): ranks 2-4 at each width, each rank through all
# four (eta, mu) pairs
_ETA_MU = [(0, 0.0), (1, 0.3), (0, 0.3), (1, 0.0)]
_CUT_CASES = [
    (case, width, *_ETA_MU[(k + r) % 4])
    for r, case in enumerate(("rank2", "rank3", "rank4"))
    for k, width in enumerate((0.5, 1.0, 1.5, 2.0))
]


def test_fe_cut_leaves_out_only_the_rounding_floor(monkeypatch):
    # the weight's transform_cut moves each rel_error by at most 1e-11 from
    # the check cut at 6.5 (tools/fe_cut_scan.py puts the tail past it near
    # 1e-12); where the cut is 6.5 the check is the same and is not rerun
    s_points = [0.5, 0.5 + 0.6j, 0.5 - 1.1j]
    runs = {}
    for case, width, eta, mu in _CUT_CASES:
        w = WeightFunction(eta=eta, mu=mu, width=width)
        ki = _SWEEP_CASES[case][0]
        assert w.transform_cut(ki.rank) <= 6.5
        if w.transform_cut(ki.rank) < 6.5:
            rep = functional_equation_check(ki, w, s_points)
            runs[case, width, eta, mu] = [r for *_, r in rep.rel_errors]
    assert len(runs) == 8
    monkeypatch.setattr(WeightFunction, "transform_cut", lambda self, rank: 6.5)
    for (case, width, eta, mu), rels in runs.items():
        w = WeightFunction(eta=eta, mu=mu, width=width)
        full = functional_equation_check(_SWEEP_CASES[case][0], w, s_points)
        for a, (*_, b) in zip(rels, full.rel_errors):
            assert abs(a - b) <= 1e-11, (case, width, eta, mu, a, b)


def test_fe_cut_of_sampled_weights_stays_at_6_5(monkeypatch):
    # the transform of a linear interpolant decays like a power of x: a
    # sampled weight keeps the cut at 6.5 at every rank, and its check its bits
    ws = _sampled_bump(1.0)
    assert {ws.transform_cut(n) for n in range(1, 7)} == {6.5}
    ki = _SWEEP_CASES["rank3"][0]
    rep = functional_equation_check(ki, ws, [0.5, 0.5 + 0.94j])
    monkeypatch.setattr(SampledWeightFunction, "transform_cut", lambda self, rank: 6.5)
    assert functional_equation_check(ki, ws, [0.5, 0.5 + 0.94j]) == rep


@pytest.mark.parametrize("delta", [0, 1])
def test_functional_equation_passes_at_rank_one(delta):
    # at width 1 the check's grid ends at log x = 4.5, inside the panel
    # budget (a cut at 6.5 overruns it at rank 1)
    ki = KernelIndex(SpectralIndex([0.0]), (delta,))
    rep = functional_equation_check(ki, WeightFunction(eta=0), [0.5, 0.5 + 1j, 0.5 + 2j])
    assert rep.passed and rep.max_rel_error < 1e-6


def test_functional_equation_names_its_own_grid_past_the_budget():
    # rank 1 at width 2 keeps the cut at 6.5 and overruns the budget: the
    # error names the check's grid, the rank and the width, before any
    # kernel is summed
    ki = KernelIndex(SpectralIndex([0.0]), (0,))
    with pytest.raises(ValueError, match=r"functional-equation check's kernel grid \(x nodes up "
                       r"to log x = 6.5, weight width 2\) needs more than the 20000-panel "
                       r"budget at rank 1"):
        functional_equation_check(ki, WeightFunction(eta=0, width=2.0), [0.5])


def test_weight_values_at_signed_points():
    # one evaluation for both weight classes: log_values at log|y| and sgn y
    from besselhr.kernel import SampledWeightFunction

    w = WeightFunction(eta=1, mu=0.2, width=0.7)
    u = np.linspace(-5.5, 5.9, 1600)
    ws = SampledWeightFunction(u, w.log_values(u), eta=1)
    for f in (w, ws):
        assert f(0.0) == 0.0
        for y in (0.4, 1.3, 3.0):
            assert f(y) == f.log_values(math.log(y)) == -f(-y)


@pytest.mark.parametrize("eta", [0, 1])
def test_functional_equation_right_side_matches_mpmath_gammas(monkeypatch, eta):
    # the check takes prod_l G_(delta_l + eta)(s - lam_l) at all its s points
    # from one kernel integrand call at x = 1; each value is the 30-digit
    # product within the bound of test_mb_integrands_match_mpmath_gammas,
    # 8 eps n (1 + |s| log(2 + |s|))
    ki = _SWEEP_CASES["rank3"][0]
    s_points = [0.5, 0.5 + 1j, 0.5 - 2j]
    calls = []
    integrand = _backend.mb_kernel_integrand

    def recorded(s, lam, dl, delta, lnx):
        out = integrand(s, lam, dl, delta, lnx)
        calls.append((list(s), delta, lnx, out))
        return out

    monkeypatch.setattr(_backend, "mb_kernel_integrand", recorded)
    assert functional_equation_check(ki, WeightFunction(eta=eta), s_points).passed
    [(s, delta, lnx, got)] = calls
    assert s == s_points and delta == eta and lnx == 0.0
    eps = np.finfo(float).eps
    with mp.workdps(30):
        for si, value in zip(s_points, got):
            ref = mp.mpf(1)
            for lam, dl in zip(ki.lam.lam, ki.deltas):
                d = (dl + eta) % 2
                w = mp.mpc(si) - mp.mpc(lam)
                ref *= (1j) ** d * mp.pi ** (0.5 - w) * mp.gamma((w + d) / 2) / mp.gamma(
                    (1 - w + d) / 2)
            bound = 8 * eps * ki.rank * (1.0 + abs(si) * math.log(2.0 + abs(si)))
            assert abs(value - ref) <= bound * abs(ref)


def test_functional_equation_rank2():
    ki = KernelIndex(SpectralIndex([0.25j, -0.25j]), (0, 0))
    w = WeightFunction(eta=0)
    rep = functional_equation_check(ki, w, [0.5, 0.5 + 1j, 0.5 + 2j], rel_tol=1e-6)
    assert rep.passed
    assert rep.max_rel_error < 1e-6


# kernel indices of the array sweep: the rank-2 index of the README
# transform, the rank-3 index of acceptance criterion 11, the rank-4
# prototype index, and a non-generic index (every node to bessel_kernel)
_SWEEP_CASES = {
    "rank2": (
        KernelIndex(SpectralIndex([0.25j, -0.25j]), (0, 0)),
        # 1.2..1.285 holds negative-side K-type nodes the sweep leaves
        np.concatenate([np.linspace(-8.0, 5.0, 40), np.linspace(1.2, 1.285, 6)]),
    ),
    "rank3": (
        KernelIndex(SpectralIndex([0.1 + 0.2j, -0.05 - 0.3j, -0.05 + 0.1j]), (0, 1, 0)),
        np.linspace(-20.0, 9.0, 40),
    ),
    "rank4": (
        KernelIndex(SpectralIndex([0.375, 0.125, -0.125, -0.375]), (0, 1, 0, 1)),
        np.linspace(-6.0, 8.0, 30),
    ),
    "nongeneric": (
        KernelIndex(SpectralIndex([0.5, -0.5]), (1, 0)),
        np.linspace(-3.0, 4.0, 6),
    ),
    # the asymptotic band, 6 <= 2 pi |x|^{1/n} < 12 here, and one node next
    # to a zero of the + side, where the expansion's error exceeds
    # tol |value| and the node takes the series route
    "band": (
        KernelIndex(SpectralIndex([0.3j, -0.3j]), (0, 0)),
        np.append(2.0 * np.log(np.linspace(5.5, 12.5, 15) / (2.0 * math.pi)), 0.1246522895686179),
    ),
    # a large index: the band runs from (max|lambda|+1)^2 = 7.84 to the
    # validity floor 31.36
    "band-large": (
        KernelIndex(SpectralIndex([1.8, -0.6, -1.2]), (0, 1, 0)),
        3.0 * np.log(np.geomspace(4.5, 40.0, 12) / (2.0 * math.pi)),
    ),
}


@pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
def test_kernel_sweep_matches_bessel_kernel(case):
    # per node: the route bessel_kernel takes, and agreement within the
    # summed reported errors
    ki, u = _SWEEP_CASES[case]
    tol = 1e-9
    for sgn, (values, errors, routes, swept) in zip((1, -1), kernel_sweep(u, ki, tol)):
        for i, ui in enumerate(u):
            r = bessel_kernel(sgn * math.exp(ui), ki, "auto", tol)
            assert routes[i] == r.method, (case, sgn, ui)
            assert abs(values[i] - r.value) <= errors[i] + r.error, (case, sgn, ui)
        assert set(routes) == {"series", "asymptotic"}
        if case == "nongeneric":
            # the pair grid has no coefficients at a non-generic index: its
            # series-route nodes go to bessel_kernel, its asymptotic ones are swept
            asymptotic = np.array(routes) == "asymptotic"
            assert (swept == asymptotic).all() and asymptotic.any() and not asymptotic.all()
        else:
            assert swept.sum() > len(u) // 2
        if case.startswith("band"):
            # the array pass serves every node from the start up with the
            # expansion, but for the one next to a zero
            inner = 2.0 * math.pi * np.exp(u / ki.rank)
            above = inner >= sweep_start(ki.lam)
            assert (above & (inner < _band_top(ki.lam))).sum() >= 5
            taken = (np.array(routes) == "asymptotic") & swept
            at_zero = case == "band" and sgn > 0
            assert (taken == above).sum() == len(u) - at_zero
            assert routes[-1] == ("series" if at_zero else "asymptotic")
        if case == "rank2" and sgn < 0:
            # the band's K-type nodes, which the pair grid cannot serve,
            # take the certified expansion in the array pass
            assert swept[-6:].all() and set(routes[-6:]) == {"asymptotic"}


def _scan_index(n, kind):
    """The seeded generic rank-n index of the band scan: uniform real (and
    imaginary) parts, mean 0, max |lambda| at most 0.5."""
    rng = random.Random(1000 + 10 * n + (kind == "complex"))
    lam = [rng.uniform(-0.5, 0.5) + (1j * rng.uniform(-0.5, 0.5) if kind == "complex" else 0)
           for _ in range(n)]
    lam = [v - sum(lam) / n for v in lam]
    return [v * min(1.0, 0.5 / max(map(abs, lam))) for v in lam]


@pytest.mark.parametrize(
    "lam, zs",
    [(_scan_index(n, "complex" if n % 2 else "real"), (6.0, 7.0, 9.0, 11.0)) for n in range(2, 9)]
    + [([1.8, -0.6, -1.2], (7.84 * (1 + 1e-12), 12.0, 20.0, 30.0))],
    ids=[f"rank{n}" for n in range(2, 9)] + ["large"],
)
def test_asymptotic_band_is_honest(lam, zs):
    # across the band, from the kernel's asymptotic start to the validity
    # floor (or 12), the expansion's reported error covers its gap to the
    # series at tol 1e-13, on both signs, at the same x and so at the same z
    # (a subset of the scan that fixed the start)
    si = SpectralIndex(lam)
    n = si.rank
    ki = KernelIndex(si, tuple(l % 2 for l in range(n)))
    for z in zs:
        assert sweep_start(si) <= z < _band_top(si)
        for x in (z / (2.0 * math.pi)) ** n * np.array([1.0, -1.0]):
            r = bessel_kernel(x, ki, "asympt")
            want = bessel_kernel(x, ki, "series", 1e-13)
            assert abs(r.value - want.value) <= r.error, (z, x)


def test_expansion_under_covers_below_the_start(monkeypatch):
    # why the start is not 5: there the rank-7 scan index's expansion misses
    # the series at tol 1e-13 by more than both reported errors, on both
    # signs (2.1 and 1.4 times the expansion's); the sweep's floor is
    # lifted to see it
    si = SpectralIndex(_scan_index(7, "complex"))
    ki = KernelIndex(si, tuple(l % 2 for l in range(7)))
    assert sweep_start(si) == 6.0
    monkeypatch.setattr(asympt, "sweep_start", lambda si: 0.0)
    for parity in (1, -1):
        values, errors, _, _ = _asymptotic_sweep(np.array([5.0]), parity, ki)
        est, _ = series.kernel_series(5.0, parity, si, ki.deltas, 1e-13)
        assert abs(values[0] - est.value) > errors[0] + est.tail_bound, parity


def test_band_node_past_the_switch_is_left_to_the_series():
    # a band node next to a zero of the kernel: at tol 1e-4 its expansion
    # has a correct digit and error 1.2e-5 |value|, but cancellation 2.5e6,
    # past CANCEL_SWITCH, so the rule does not keep it (bessel_kernel's
    # switch test, applied before the series route is asked)
    ki = KernelIndex(SpectralIndex([0.3j, -0.3j]), (0, 0))
    tried, (values, errors, peaks, ok), keep, stands = _asymptotic_zone(
        np.array([6.687252228925185 + 1e-7]), 1, ki, 1e-4
    )
    assert ok[0] and errors[0] <= 1e-4 * abs(values[0])
    assert peaks[0] > CANCEL_SWITCH * abs(values[0]) and not keep[0] and not stands[0]


def test_mellin_barnes_fallback_without_a_digit_keeps_the_first_route():
    # a node of the width-1.5 FE check's grid next to a zero of the kernel:
    # the expansion has cancellation 2.0e6, past CANCEL_SWITCH, and error
    # 2.2e-13 against a value 1.26e-8; the Mellin-Barnes value there has no
    # correct digit, so auto mode keeps the expansion, and the check passes
    ki = KernelIndex(SpectralIndex([0.25j, -0.25j]), (0, 0))
    x = math.exp(13.274679888244686)
    r = bessel_kernel(x, ki, "auto", 1e-9)
    assert r.method == "asymptotic" and r.cancellation > CANCEL_SWITCH
    assert r.error < 1e-4 * abs(r.value)
    value, err = mb_kernel_est(x, ki.lam, ki.deltas, 1e-9 * r.cancellation * abs(r.value))
    assert err >= abs(value)
    rep = functional_equation_check(ki, WeightFunction(width=1.5), [0.5, 0.5 + 1j])
    assert rep.passed and rep.max_rel_error < 1e-6


def test_asympt_method_below_the_kernel_start_names_it():
    ki = KernelIndex(SpectralIndex([1.8, -0.6, -1.2]), (0, 0, 0))
    x = (7.0 / (2.0 * math.pi)) ** 3  # below the start 7.84
    with pytest.raises(ValueError, match="asymptotic start 7.84"):
        bessel_kernel(x, ki, "asympt")
    assert bessel_kernel(x, ki).method == "series"


def test_kernel_sweep_nongeneric_asymptotic_nodes_bits():
    # at a non-generic index the asymptotic-zone nodes are swept with the
    # bits bessel_kernel gives them, one node at a time
    ki, _ = _SWEEP_CASES["nongeneric"]
    u = np.linspace(1.5, 9.0, 25)
    for sgn, (values, errors, routes, swept) in zip((1, -1), kernel_sweep(u, ki, 1e-9)):
        assert swept.all()
        for i, ui in enumerate(u):
            r = bessel_kernel(sgn * math.exp(ui), ki, "auto", 1e-9)
            assert (routes[i], values[i], errors[i]) == (r.method, r.value, r.error), (sgn, ui)


def test_kernel_sweep_serves_a_band_index_in_the_pair_grid():
    # an index 1e-6 from the non-generic (1/2, -1/2) is generic: the pair
    # grid serves every series node, within the summed errors of
    # bessel_kernel's series route
    ki = KernelIndex(SpectralIndex([0.5, -0.5 + 1e-6]), (1, 0))
    u = np.linspace(-3.0, 4.0, 15)
    for sgn, (values, errors, routes, swept) in zip((1, -1), kernel_sweep(u, ki, 1e-9)):
        assert swept.all() and routes.count("series") >= 5
        for i in np.flatnonzero(np.array(routes) == "series"):
            r = bessel_kernel(sgn * math.exp(u[i]), ki, "series", 1e-9)
            assert abs(values[i] - r.value) <= errors[i] + r.error, (sgn, u[i])


def test_kernel_series_grid_refuses_only_integer_differences():
    # 1e-9 from lam = (1, -1) the grid certifies its points; at (1, -1)
    # itself it refuses
    v, e, peak, ok = series.kernel_series_grid(
        np.array([1.0, 3.0]), SpectralIndex([1.0, -1.0 + 1e-9]), (0, 0))
    assert ok.all()
    with pytest.raises(ValueError, match="needs a generic index"):
        series.kernel_series_grid(np.array([1.0]), SpectralIndex([1.0, -1.0]), (0, 0))


def test_kernel_sweep_serves_asymptotic_nodes_below_the_switch():
    # an asymptotic-zone node whose cancellation, 6.37e5, lies between
    # CANCEL_SWITCH/2 and CANCEL_SWITCH: bessel_kernel keeps the asymptotic
    # value, and the sweep serves the node in its array pass with those bits
    ki = KernelIndex(SpectralIndex([1 + 2.5e-7, -1 - 2.5e-7]), (1, 0))
    assert 2.0 * math.pi * math.sqrt(30.0) >= _band_top(ki.lam)
    r = bessel_kernel(-30.0, ki, "auto", 1e-9)
    assert r.method == "asymptotic" and CANCEL_SWITCH / 2 < r.cancellation < CANCEL_SWITCH
    values, errors, routes, swept = kernel_sweep(np.log([30.0]), ki, 1e-9)[1]
    assert swept[0]
    assert (routes[0], values[0], errors[0]) == (r.method, r.value, r.error)


def test_kernel_sweep_past_the_switch_takes_the_mellin_barnes_bits():
    # negative-side asymptotic nodes with cancellation ~4e15 go to
    # bessel_kernel, which takes the Mellin-Barnes route: 1e-20 i off the
    # holomorphic parameters (1, -1), whose minus side the sweep answers
    # exactly, the kernel there is about 2 pi 1e-20 times its terms
    xs = [10.0, 30.0, 100.0]
    values, errors, routes, swept = kernel_sweep(
        np.log(xs), KernelIndex(SpectralIndex([1.0, -1.0]), (1, 0)), 1e-9)[1]
    assert swept.all() and routes == ["exact"] * 3
    assert not values.any() and not errors.any()
    ki = KernelIndex(SpectralIndex([1 + 1e-20j, -1 - 1e-20j]), (1, 0))
    values, errors, routes, swept = kernel_sweep(np.log(xs), ki, 1e-9)[1]
    assert not swept.any()
    for i, x in enumerate(xs):
        r = bessel_kernel(-x, ki, "auto", 1e-9)
        assert r.method == "mellin-barnes" and r.cancellation > 1e15
        assert (routes[i], values[i], errors[i]) == (r.method, r.value, r.error), x


def test_kernel_sweep_sub_batch_bits(monkeypatch):
    # each node's value depends on the node alone: a sub-batch (spanning
    # other blocks, in reverse order) returns the same bits as the full
    # batch, on both kernel signs of one call; and the two signs share
    # neither values nor routes.  The series nodes span two _BLOCK blocks
    # of asymptotic passes and take one series pass, and sweeping each
    # block alone, or the whole under a row bound that splits the series
    # nodes into passes of 64, gives the same bits again
    ki = _SWEEP_CASES["rank3"][0]
    u = np.linspace(-20.0, 9.0, 1200)
    sub = np.arange(3, 1200, 7)[::-1]
    grid = series.kernel_series_grid
    passes = []
    monkeypatch.setattr(kernel_module, "kernel_series_grid",
                        lambda inner, *args: passes.append(len(inner)) or grid(inner, *args))
    fulls = kernel_sweep(u, ki, 1e-9)
    assert len(passes) == 1 and passes[0] > kernel_module._BLOCK
    parts = kernel_sweep(u[sub], ki, 1e-9)
    assert len(fulls) == len(parts) == 2
    for full, part in zip(fulls, parts):
        assert full[0][sub].tobytes() == part[0].tobytes()
        assert full[1][sub].tobytes() == part[1].tobytes()
        assert [full[2][i] for i in sub] == part[2]
        assert full[3][sub].tobytes() == part[3].tobytes()
    assert (fulls[0][0] != fulls[1][0]).all()
    assert {"series", "asymptotic"} <= set(fulls[0][2]) & set(fulls[1][2])
    blocks = [kernel_sweep(u[lo : lo + kernel_module._BLOCK], ki, 1e-9)
              for lo in range(0, len(u), kernel_module._BLOCK)]
    assert ["series" in block[0][2] for block in blocks] == [True, True, False]
    passes.clear()
    monkeypatch.setattr(kernel_module, "_SERIES_ROWS", 64 * ki.rank)
    rowed = kernel_sweep(u, ki, 1e-9)
    assert len(passes) > 2 and max(passes) == 64
    for side, full in enumerate(fulls):
        joined = [np.concatenate([b[side][k] for b in blocks]) for k in (0, 1, 3)]
        assert [a.tobytes() for a in joined] == [full[k].tobytes() for k in (0, 1, 3)]
        assert sum((b[side][2] for b in blocks), []) == full[2]
        assert [rowed[side][k].tobytes() for k in (0, 1, 3)] == [a.tobytes() for a in joined]
        assert rowed[side][2] == full[2]


def test_kernel_grid_counts():
    # the README index: the asymptotic band serves the nodes the pair grid
    # leaves, so none falls back; a non-generic index leaves its
    # series-route nodes to bessel_kernel
    ki = _SWEEP_CASES["rank2"][0]
    grid = _KernelGrid(ki, -3.0, 3.0, 1e-9)
    assert (grid.swept, grid.fallback, grid.mb) == (2 * grid.u.size, 0, 0)
    ki = _SWEEP_CASES["nongeneric"][0]
    grid = _KernelGrid(ki, -3.0, 3.0, 1e-9)
    assert grid.swept + grid.fallback == 2 * grid.u.size
    assert 0 < grid.fallback < grid.swept
    assert grid.mb == 0


def test_hankel_transform_permutation_bits():
    ki = KernelIndex(SpectralIndex([0.2j, -0.2j]), (0, 0))
    w = WeightFunction(eta=0)
    xs = [0.5, -1.0, 2.0, 1.3]
    a = hankel_transform(w, ki, xs)
    b = hankel_transform(w, ki, xs[::-1])
    for x, v, e in zip(b.x, b.values, b.errors):
        i = xs.index(x)
        assert v == a.values[i] and e == a.errors[i]


@pytest.mark.parametrize("eta", [0, 1])
def test_transform_at_parity_bits(eta):
    # upsilon(-y) = (-1)^eta upsilon(y) gives Upsilon(-x) = (-1)^eta Upsilon(x),
    # bit for bit, with and without a window
    ki = _SWEEP_CASES["rank3"][0]
    w = WeightFunction(eta=eta)
    grid = _KernelGrid(ki, -8.0, 7.0, 1e-9)
    sign = -1 if eta else 1
    for x in (0.2, 0.9, 1.0, 2.5, 7.0):
        for window in (None, w.log_support(1e-11)):
            (vp,), (ep,) = grid.transform([x], w, window)
            (vm,), (em,) = grid.transform([-x], w, window)
            assert vm == sign * vp and em == ep, (x, window)


@pytest.mark.parametrize("case", ["rank2", "rank3"])
def test_windowed_transform_on_fe_grid(case):
    # the window leaves out only panels the weight, cut at the grid's own
    # cutoff, does not reach
    ki = _SWEEP_CASES[case][0]
    w = WeightFunction(eta=0)
    grid, ux, _, window = _fe_grid(ki, w)
    xs = np.exp(ux[::5])
    win = grid.transform(xs, w, window)[0]
    full = grid.transform(xs, w)[0]
    assert np.max(np.abs(win - full)) <= 1e-9 * np.max(np.abs(full))


def test_hankel_transform_uses_full_grid():
    ki = KernelIndex(SpectralIndex([0.25j, -0.25j]), (0, 0))
    w = WeightFunction(eta=0)
    xs = [0.5, -1.0, 2.0, 4.0]
    tol = 1e-7
    res = hankel_transform(w, ki, xs, tol)
    ylo, yhi = w.log_support(tol * 1e-3)
    grid = _KernelGrid(ki, math.log(0.5) + ylo, math.log(4.0) + yhi, tol * 1e-2)
    for x, v, e in zip(xs, res.values, res.errors):
        (gv,), (ge,) = grid.transform([x], w)
        assert (v, e) == (gv, ge)


@pytest.mark.parametrize("xs", [[1.0, math.nan], [math.inf], [-math.inf, 2.0]])
def test_hankel_transform_rejects_non_finite_points(xs, monkeypatch):
    # before any kernel grid is built
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(kernel_module, "_KernelGrid", no_grid)
    ki = KernelIndex(SpectralIndex([0.25j, -0.25j]), (0, 0))
    with pytest.raises(ValueError, match="grid points must be finite"):
        hankel_transform(WeightFunction(eta=0), ki, xs)


def test_hankel_transform_rejects_underflowing_points():
    # the table of the smallest |x| starts at log|x| + ylo; below the normal
    # range of e^u the transform raises and names the |x| it can serve
    ki = KernelIndex(SpectralIndex([0.25j, -0.25j]), (0, 0))
    w = WeightFunction(eta=0)
    tol = 1e-7
    least = math.exp(kernel_module._LOG_TINY - w.log_support(tol * 1e-3)[0])
    assert f"{least:.3g}" == "2.7e-306"
    for xs in ([5e-324, 1.0], [-least * (1.0 - 1e-9)]):
        with pytest.raises(ValueError, match=r"grid points need \|x\| >= 2.7e-306"):
            hankel_transform(w, ki, xs, tol)
    res = hankel_transform(w, ki, [least * (1.0 + 1e-9)], tol)
    assert math.isfinite(abs(res.values[0])) and 0 < res.errors[0] < 1e-6


def test_functional_equation_rank2_odd_weight():
    # eta = 1: the negative side of the FE grid is -Upsilon(x)
    ki = KernelIndex(SpectralIndex([0.25j, -0.25j]), (0, 1))
    w = WeightFunction(eta=1)
    rep = functional_equation_check(ki, w, [0.5, 0.5 + 1j, 0.5 + 2j], rel_tol=1e-6)
    assert rep.passed
    assert rep.max_rel_error < 1e-6
    assert {d for d, _, _ in rep.rel_errors} == {1}


class _NanMellinAt1(WeightFunction):
    """The README weight with a Mellin transform that is not a number at
    s = 1 - (0.5 + 1i)."""

    def mellin(self, s):
        return complex("nan") if s == 0.5 - 1j else super().mellin(s)


def test_functional_equation_check_fails_on_nan():
    # a relative error that is not a number fails the check and is the
    # reported maximum, wherever it falls among the checks
    ki = KernelIndex(SpectralIndex([0.25j, -0.25j]), (0, 0))
    rep = functional_equation_check(ki, _NanMellinAt1(eta=0), [0.5, 0.5 + 1j, 0.5 + 2j])
    assert [math.isnan(r) for _, _, r in rep.rel_errors] == [False, True, False]
    assert not rep.passed and math.isnan(rep.max_rel_error)


def test_asymptotic_kernel_without_a_correct_digit_raises():
    # at x = 1e100 the rounding of the phase leaves an error of 7.9e10
    # against a value of 1.4e-25; at 1e12 the error is 7.9e-12 against 1e-3
    ki = KernelIndex(SpectralIndex([0.2, -0.2]), (0, 0))
    for x in (1e100, 1e308):
        with pytest.raises(ToleranceNotMetError, match="no digit"):
            bessel_kernel(x, ki)
    r = bessel_kernel(1e12, ki)
    assert r.method == "asymptotic"
    assert r.error < 1e-8 * abs(r.value)
    # the negative side decays below double range: 0 with error 0 is exact
    r = bessel_kernel(-1e6, ki)
    assert (r.value, r.error, r.method) == (0, 0, "asymptotic")


def _signvec_sum_kernel(x, ki):
    """The asymptotic kernel as the plain sum of j_varsigma_asymptotic over
    the sign vectors: value, error and max |J(sig)|."""
    n = ki.rank
    inner = 2.0 * math.pi * abs(x) ** (1.0 / n)
    total = 0j
    err = 0.0
    peak = 0.0
    for sv in series.sign_vectors(n, 1 if x > 0 else -1):
        coef = 1.0
        for s, d in zip(sv.signs, ki.deltas):
            if d % 2:
                coef *= s
        ev = j_varsigma_asymptotic(inner, sv, ki.lam)
        total += coef * ev.value
        err += ev.error_estimate
        peak = max(peak, abs(ev.value))
    err += 4.0 * np.finfo(float).eps * peak * (n + 1)
    return total, err, peak


@pytest.mark.parametrize("n", range(1, 9))
def test_asymptotic_kernel_equals_signvec_sum(n):
    # bessel_kernel's asymptotic zone sums one grouped term per root; it
    # agrees with the plain sum over sign vectors far inside its error, with
    # the same error and cancellation up to rounding, and at rank 1 (one
    # sign vector per side, constants +-1) with the same bits
    for lam in ([0.15 * l for l in range(n)], [0.1 * l + 0.07j * (l % 2) for l in range(n)]):
        si = SpectralIndex(lam)
        x_floor = (_band_top(si) / (2.0 * math.pi)) ** n
        for deltas in ((0,) * n, tuple(l % 2 for l in range(n))):
            ki = KernelIndex(si, deltas)
            for ax in np.geomspace(x_floor * (1 + 1e-12), max(1e6, 2 * x_floor), 7):
                for x in (float(ax), -float(ax)):
                    total, err, peak = _signvec_sum_kernel(x, ki)
                    r = bessel_kernel(x, ki, "asympt")
                    case = (lam, deltas, x)
                    assert r.method == "asymptotic"
                    assert abs(r.value - total) <= 0.1 * r.error, case
                    assert r.error == pytest.approx(err, rel=1e-12, abs=0.0), case
                    cancel = peak / max(abs(total), 1e-300)
                    assert r.cancellation == pytest.approx(cancel, rel=1e-12, abs=0.0), case
                    assert (r.error == 0) == (r.value == 0), case
                    if n == 1:
                        assert (r.value, r.error, r.cancellation) == (total, err, cancel), case


def _asymptotic_case(n):
    """A generic rank-n index and nodes u = log x from the top of the
    asymptotic band to 1e4 times it in 2 pi |x|^{1/n}, where the negative
    side underflows."""
    si = SpectralIndex([0.1 * l + 0.07j * (l % 2) for l in range(n)])
    u_floor = n * math.log(_band_top(si) / (2.0 * math.pi))
    return si, u_floor + n * math.log(1e4) * np.linspace(0.01, 1.0, 13) ** 2


@pytest.mark.parametrize("n", range(1, 11))
def test_kernel_sweep_is_bessel_kernel_at_asymptotic_nodes_bits(n):
    # one node and many take the same array path: kernel_sweep returns
    # bessel_kernel's bits at every asymptotic node, on both sides and for
    # both parity patterns, also where the kernel underflows
    si, u = _asymptotic_case(n)
    for deltas in ((0,) * n, tuple(l % 2 for l in range(n))):
        ki = KernelIndex(si, deltas)
        for sgn, (values, errors, routes, swept) in zip((1, -1), kernel_sweep(u, ki, 1e-9)):
            assert swept.all() and set(routes) == {"asymptotic"}
            for i, ui in enumerate(u):
                r = bessel_kernel(sgn * math.exp(ui), ki, "auto", 1e-9)
                assert (values[i], errors[i], routes[i]) == (r.value, r.error, r.method), (
                    deltas, sgn, ui,
                )


def test_rank10_asymptotic_sweep_agrees_with_signvec_sum():
    # 512 nodes at rank 10: the grouped sum over 6 roots against the plain
    # sum over 512 sign vectors of varsigma_factor times the second-kind
    # sweep, within the two summed errors, with the same errors and peaks
    n = 10
    si = SpectralIndex([0.1 * l + 0.07j * (l % 2) for l in range(n)])
    ki = KernelIndex(si, tuple(l % 2 for l in range(n)))
    floor = _band_top(si)
    inner = np.geomspace(floor, 1e3 * floor, 512)
    for parity in (1, -1):
        values, errors, peaks, ok = _asymptotic_sweep(inner, parity, ki)
        total = np.zeros(len(inner), dtype=np.complex128)
        err = np.zeros(len(inner))
        peak = np.zeros(len(inner))
        roots = {}
        for sv in sign_vectors(n, parity):
            if sv.n_minus not in roots:
                roots[sv.n_minus] = second_kind_sweep(inner, si, sv.xi())
            h, h_err = roots[sv.n_minus]
            const = varsigma_factor(sv, si)
            coef = math.prod(s for s, d in zip(sv.signs, ki.deltas) if d)
            total += coef * const * h
            err += abs(const) * h_err
            peak = np.maximum(peak, abs(const) * np.abs(h))
        err += 4.0 * np.finfo(float).eps * peak * (n + 1)
        assert ok.all()
        assert (np.abs(values - total) <= errors + err).all()
        normal = err > np.finfo(float).tiny
        assert normal.sum() > 100
        np.testing.assert_allclose(errors[normal], err[normal], rtol=1e-12, atol=0)
        np.testing.assert_allclose(peaks, peak, rtol=1e-12, atol=0)


def test_nonzero_kernel_value_never_reports_error_zero():
    # far out on the negative side the truncation errors underflow before
    # the values do: those nodes report at least the subnormal spacing, are
    # still served by the sweep, and an exact zero keeps error 0
    ki = KernelIndex(SpectralIndex([0.2, -0.2]), (0, 0))
    xs = np.array([3250.0, 3300.0, 3350.0, 3400.0, 1e6])
    values, errors, routes, swept = kernel_sweep(np.log(xs), ki, 1e-9)[1]
    assert swept.all() and set(routes) == {"asymptotic"}
    assert (values[:-1] != 0).all() and (np.abs(values[:-1]) < 1e-300).all()
    assert (errors[:-1] > 0).all() and (errors[:-1] < 1e-300).all()
    assert values[-1] == 0 and errors[-1] == 0
    for x, v, e in zip(xs, values, errors):
        r = bessel_kernel(-x, ki)
        assert (r.value, r.error) == (v, e)
    # across the band where the decaying side passes through the subnormals,
    # every node stays served, some only because an error below the normal
    # range counts as underflow, not as a lost digit
    for n, lam in ((2, [0.2, -0.2]), (4, [0.3, 0.1, -0.1, -0.3])):
        rate = n * math.sin(math.pi / n)
        inner = np.linspace(700.0 / rate, 760.0 / rate, 1000)
        ki = KernelIndex(SpectralIndex(lam), (0,) * n)
        values, errors, peaks, ok = _asymptotic_sweep(inner, -1, ki)
        assert ok.all() and ((errors == 0) <= (values == 0)).all()
        assert ((values != 0) & (errors >= peaks)).sum() > 10


def test_kernel_sweep_without_a_correct_digit_leaves_the_node():
    # at x = 1e100 and 1e308 the sweep's error reaches max |J(sig)|: the node
    # goes to bessel_kernel, which raises, as it does for the same x alone
    ki = KernelIndex(SpectralIndex([0.2, -0.2]), (0, 0))
    for x in (1e100, 1e308):
        with pytest.raises(ToleranceNotMetError, match="no digit"):
            kernel_sweep(np.array([math.log(x)]), ki, 1e-9)


def _panel_transform(grid, kvals, kerr, x, weight, window):
    """The transform with the kernel table kept per panel, summed as before
    the quadrature weights were folded into the table: per kernel sign the
    weight at y = s sgn(x) e^t, Kronrod and Gauss sums per panel, and the
    kernel errors times |weight| h w_K."""
    L = math.log(abs(x))
    sgn = 1 if x > 0 else -1
    edges = grid.edges
    p0, p1 = 0, len(edges) - 1
    if window is not None:
        p0 = max(int(np.searchsorted(edges, L + window[0], side="right")) - 1, 0)
        p1 = min(int(np.searchsorted(edges, L + window[1], side="left")), p1)
    half = 0.5 * (edges[p0 + 1 : p1 + 1] - edges[p0:p1])[:, None]
    t = grid.u[15 * p0 : 15 * p1] - L
    wk, wg = _GKW[None, :], _GGW[None, :]
    out, est = 0j, 0.0
    for s_w in (1, -1):
        kv = kvals[s_w].reshape(-1, 15)[p0:p1]
        g = (np.exp(t) * weight.log_values(t, s_w * sgn)).reshape(kv.shape)
        ik = np.sum(half * g * kv * wk, axis=1)
        ig = np.sum(half * g * kv * wg, axis=1)
        out += np.sum(ik)
        est += float(np.sum(np.abs(ik - ig)))
        est += float(np.sum(half * np.abs(g) * kerr[s_w].reshape(-1, 15)[p0:p1] * wk))
    return out, est


@pytest.mark.parametrize("case, eta", [("rank2", 0), ("rank3", 0), ("rank3", 1)])
def test_weighted_table_matches_panel_sums(case, eta):
    # folding the quadrature weights into the kernel table moves the FE
    # transform values only by rounding, and their errors by under 1 %.  The
    # odd weight subtracts the kernel signs' sums: at x ~ 1e-20 they are 2e3
    # times the value, so its rounding is bounded against the errors only
    ki = _SWEEP_CASES[case][0]
    w = WeightFunction(eta=eta)
    grid, ux, _, window = _fe_grid(ki, w)
    sweeps = dict(zip((1, -1), kernel_sweep(grid.u, ki, FE_MELLIN_TOL * 1e-1)))
    kvals = {s: sweep[0] for s, sweep in sweeps.items()}
    kerr = {s: sweep[1] for s, sweep in sweeps.items()}
    xs = np.exp(ux[::3])
    xs = np.concatenate([xs, -xs[::5]])
    values, errors = grid.transform(xs, w, window)
    ref = [_panel_transform(grid, kvals, kerr, x, w, window) for x in xs]
    ref_v = np.array([v for v, _ in ref])
    ref_e = np.array([e for _, e in ref])
    if eta == 0:
        assert np.max(np.abs(values - ref_v)) <= 2e-15 * np.max(np.abs(ref_v))
    assert np.all(np.abs(values - ref_v) <= 0.05 * ref_e)
    assert np.all(np.abs(errors / ref_e - 1.0) < 0.01)


def _fsum_transform(grid, kvals, x, weight, window):
    """The transform value at x and its mass sum |g K h w_K|, by math.fsum
    over the nodes of the panels x's window reaches, node by node: per
    kernel sign s the weight at y = s sgn(x) e^t, t = u - log|x|, as
    e^t log_values(t, s sgn(x))."""
    L = math.log(abs(x))
    sgn = 1 if x > 0 else -1
    edges = grid.edges
    p0, p1 = 0, len(edges) - 1
    if window is not None:
        p0 = max(int(np.searchsorted(edges, L + window[0], side="right")) - 1, 0)
        p1 = min(int(np.searchsorted(edges, L + window[1], side="left")), p1)
    re_, im, mass = [], [], []
    for p in range(p0, p1):
        h = 0.5 * (edges[p + 1] - edges[p])
        for j in range(15):
            t = float(grid.u[15 * p + j]) - L
            for s_w in (1, -1):
                g = math.exp(t) * float(weight.log_values(t, s_w * sgn))
                term = g * complex(kvals[s_w][15 * p + j]) * h * float(_GKW[j])
                re_.append(term.real)
                im.append(term.imag)
                mass.append(abs(term))
    return complex(math.fsum(re_), math.fsum(im)), math.fsum(mass)


@pytest.mark.parametrize("case, eta", [("rank2", 0), ("rank2", 1), ("rank3", 0), ("rank3", 1)])
def test_panel_pass_matches_per_x_fsum(case, eta):
    # the panel pass sums each x over the panels its window reaches within
    # 8 eps of its mass of an exact per-x sum, with and without a window,
    # at x of both signs
    ki = _SWEEP_CASES[case][0]
    w = WeightFunction(eta=eta)
    grid, ux, _, window = _fe_grid(ki, w)
    sweeps = kernel_sweep(grid.u, ki, FE_MELLIN_TOL * 1e-1)
    kvals = {1: sweeps[0][0], -1: sweeps[1][0]}
    xs = np.exp(ux[::97])
    xs = np.concatenate([xs, -xs[::2]])
    for win in (window, None):
        values = grid.values(xs, w, win)
        for x, v in zip(xs, values):
            ref, mass = _fsum_transform(grid, kvals, x, w, win)
            assert abs(v - ref) <= 8.0 * np.finfo(float).eps * mass, (x, win)


def test_panel_pass_steps_keep_bits(monkeypatch):
    # how the pass cuts panels and runs into steps moves no bit: steps of
    # at most 7 (panel, x) pairs, which cut every run into parts, and of
    # one pair, where each panel adds its own row (a few x take steps of
    # many panels by default), give the bits of the default steps, with and
    # without the window
    ki = _SWEEP_CASES["rank2"][0]
    w = WeightFunction(eta=1)
    grid, ux, _, window = _fe_grid(ki, w)
    xs = np.exp(ux[::9])
    xs = np.concatenate([xs, -xs[::4]])
    for step, some in ((7, xs), (1, xs[::60])):
        for win in (window, None):
            want = grid.transform(some, w, win)
            monkeypatch.setattr(kernel_module, "_STEP", step)
            got = grid.transform(some, w, win)
            monkeypatch.undo()
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (step, win)


@pytest.mark.parametrize("eta", [0, 1])
def test_fe_transform_order_bits(eta):
    # each node's (value, error) depends on the node alone: the FE nodes in
    # order, reversed and one at a time give the same bits, with and
    # without the window; the values-only path gives the bits of the values
    # in each of these orders
    ki = _SWEEP_CASES["rank3"][0]
    w = WeightFunction(eta=eta)
    grid, ux, _, window = _fe_grid(ki, w)
    xs = np.exp(ux[::4])
    xs = np.concatenate([xs, -xs[::3]])
    for win in (window, None):
        v, e = grid.transform(xs, w, win)
        rv, re_ = grid.transform(xs[::-1], w, win)
        assert v.tobytes() == rv[::-1].tobytes() and e.tobytes() == re_[::-1].tobytes()
        assert grid.values(xs, w, win).tobytes() == v.tobytes()
        assert grid.values(xs[::-1], w, win).tobytes() == rv.tobytes()
        for i in range(0, len(xs), 7):
            one = grid.transform(xs[i : i + 1], w, win)
            assert one[0].tobytes() == v[i : i + 1].tobytes()
            assert one[1].tobytes() == e[i : i + 1].tobytes()
            assert grid.values(xs[i : i + 1], w, win).tobytes() == one[0].tobytes()
    assert grid.values([], w).shape == (0,)


def test_transform_tiny_tol_names_the_weight_window():
    # at tol 1e-200 the weight window log_support(tol * 1e-3) is what widens
    # a one-point grid's kernel table past the panel budget: a plain
    # ValueError names the tolerance and the window, as the FE check's does
    with pytest.raises(ValueError) as exc:
        hankel_transform(WeightFunction(), KernelIndex(SpectralIndex([0.25j, -0.25j]), (0, 0)),
                         [1.0], 1e-200)
    assert type(exc.value) is ValueError
    assert str(exc.value) == (
        "the transform's kernel table (log|x y| from -21.6 to 21.6: the x grid's log|x| in "
        "[0, 0] widened by the weight window log|y| in [-21.6, 21.6] at tol 1e-200) needs "
        "more than the 20000-panel budget at rank 2"
    )


_SI2 = SpectralIndex([0.25j, -0.25j])
_KI2 = KernelIndex(_SI2, (0, 0))
_TYPED_ERRORS = {
    "sweep-below-start": (
        lambda: second_kind_sweep(np.array([5.0, 7.0]), _SI2, RootOfUnity(4, 0)),
        ValidityFloorError, "below the kernel's asymptotic start 6.000"),
    "w-below-floor": (lambda: asympt.w_function(1.0, _SI2, 1), ValidityFloorError,
                      "below floor 6.250"),
    "h-outside-half-plane": (
        lambda: asympt.h_bessel(SurfacePoint.from_polar(8.0, -1.0), _SI2, 1),
        OutOfSectorError, "outside the half-plane"),
    "asymptotics-nonpositive-x": (lambda: kernel_asymptotics(0.0, _KI2, 4), ValueError,
                                  "x must be positive"),
    "asymptotics-below-floor": (lambda: kernel_asymptotics(0.1, _KI2, 4), ValueError,
                                "below the asymptotic validity floor"),
    "kernel-at-zero": (lambda: bessel_kernel(0.0, _KI2), ValueError, "must be nonzero"),
    "kernel-unknown-method": (lambda: bessel_kernel(1.0, _KI2, "trapezoid"), ValueError,
                              "method must be auto|series|mb|asympt"),
    "transform-zero-point": (lambda: hankel_transform(WeightFunction(), _KI2, [1.0, 0.0]),
                             ValueError, "grid points must be nonzero"),
    "transform-empty-grid": (lambda: hankel_transform(WeightFunction(), _KI2, []),
                             ValueError, "the x grid has no points"),
    "sweep-underflowing-node": (
        lambda: kernel_sweep(np.array([-800.0, 0.0]), _KI2, 1e-9), ValueError,
        "kernel node u[0] = -800 lies below -708.396, the least u the sweep serves"),
    "fe-large-re-lambda": (
        lambda: functional_equation_check(
            KernelIndex(SpectralIndex([0.45, -0.45]), (0, 0)), WeightFunction(), [0.5]),
        ValueError, "Re lambda too large"),
    "sampled-three-samples": (lambda: SampledWeightFunction([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
                              ValueError, ">= 4 samples"),
    "sampled-unordered": (lambda: SampledWeightFunction([0.0, 2.0, 1.0, 3.0], [0, 1, 1, 0]),
                          ValueError, "strictly increasing"),
    "sampled-all-zero": (lambda: SampledWeightFunction([0.0, 1.0, 2.0, 3.0], [0, 0, 0, 0]),
                         ValueError, "all samples vanish"),
    "sampled-nan-value": (
        lambda: SampledWeightFunction([0.0, 1.0, 2.0, 3.0], [0.0, math.nan, 1.0, 0.0]),
        ValueError, "samples must be finite: values[1] = nan"),
    "sampled-inf-value": (
        lambda: SampledWeightFunction([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, -math.inf, 0.0]),
        ValueError, "samples must be finite: values[2] = -inf"),
    "sampled-inf-grid": (
        lambda: SampledWeightFunction([0.0, 1.0, 2.0, math.inf], [0.0, 1.0, 1.0, 0.0]),
        ValueError, "samples must be finite: log_grid[3] = inf"),
    # one tolerance rule, 0 < tol < inf, at every public entry point
    "j-function-nan-tol": (lambda: j_function(1.0, SignVector("++"), _SI2, math.nan),
                           ValueError, "tol must be a positive number"),
    "kernel-zero-tol": (lambda: bessel_kernel(1.0, _KI2, "auto", 0.0), ValueError,
                        "tol must be a positive number"),
    "kernel-negative-tol": (lambda: bessel_kernel(1.0, _KI2, "series", -1e-9), ValueError,
                            "tol must be a positive number"),
    "transform-nan-tol": (lambda: hankel_transform(WeightFunction(), _KI2, [1.0], math.nan),
                          ValueError, "tol must be a positive number"),
    "transform-inf-tol": (lambda: hankel_transform(WeightFunction(), _KI2, [1.0], math.inf),
                          ValueError, "tol must be a positive number"),
    "mb-eval-zero-tol": (lambda: mb_eval_est(1.0, SignVector((1, -1)), _SI2, 0.0), ValueError,
                         "tol must be a positive number"),
    "mb-kernel-nan-tol": (lambda: mb_kernel_est(1.0, _SI2, (0, 0), math.nan), ValueError,
                          "tol must be a positive number"),
    "fe-nan-rel-tol": (
        lambda: functional_equation_check(_KI2, WeightFunction(), [0.5], rel_tol=math.nan),
        ValueError, "rel_tol must be a positive number"),
    "fe-negative-rel-tol": (
        lambda: functional_equation_check(_KI2, WeightFunction(), [0.5], rel_tol=-1.0),
        ValueError, "rel_tol must be a positive number"),
    "mb-eval-nonpositive-x": (lambda: mb_eval_est(-1.0, SignVector((1, -1)), _SI2), ValueError,
                              "positive real x"),
    "mb-eval-rank-mismatch": (lambda: mb_eval_est(1.0, SignVector((1, -1, -1)), _SI2),
                              ValueError, "sign vector length must match the rank"),
    "mb-kernel-at-zero": (lambda: mb_kernel_est(0.0, _SI2, (0, 0)), ValueError,
                          "kernel argument must be nonzero"),
    "mb-kernel-rank-mismatch": (lambda: mb_kernel_est(1.0, _SI2, (0, 0, 0)), ValueError,
                                "parity vector length must match the rank"),
    "g-delta-unknown-form": (lambda: g_delta(0.5, 0, "sine"), ValueError,
                             "form must be 'ratio' or 'trig'"),
    "index-empty": (lambda: SpectralIndex([]), ValueError, "need at least one component"),
    "index-not-finite": (lambda: SpectralIndex([0.5, math.nan]), ValueError,
                         "components must be finite"),
    "signs-letter": (lambda: SignVector("+x"), ValueError, "signs must be +1/-1 or '+'/'-'"),
    "signs-zero": (lambda: SignVector([0]), ValueError, "signs must be +1/-1 or '+'/'-'"),
    "signs-empty": (lambda: SignVector([]), ValueError, "need at least one sign"),
    "root-order-zero": (lambda: RootOfUnity(0, 1), ValueError, "order must be positive"),
    "root-odd-equation-sign": (lambda: RootOfUnity(3, 1).equation_sign(), ValueError,
                               "even order only"),
    "point-from-positive-zero": (lambda: SurfacePoint.from_positive(0), ValueError,
                                 "modulus must be positive"),
    "point-from-polar-negative": (lambda: SurfacePoint.from_polar(-1, 0), ValueError,
                                  "modulus must be positive"),
    "gamma-pole": (lambda: core.gamma(-2), PoleError, "gamma pole at"),
    "a-table-negative": (lambda: coeffs.build_a_table(-1, 0), ValueError,
                         "table bounds must be nonnegative"),
    "uv-tables-rank-zero": (lambda: coeffs.build_uv_tables(0), ValueError, "rank must be >= 1"),
    "uv-tables-rank-mismatch": (lambda: coeffs.build_uv_tables(3, _SI2), ValueError,
                                "index rank mismatch"),
    "eq-coeffs-rank-mismatch": (lambda: coeffs.bessel_eq_coeffs(3, _SI2), ValueError,
                                "index rank mismatch"),
    "b-table-rank-mismatch": (lambda: build_b_table(3, _SI2, RootOfUnity(6, 0), 4),
                              ValueError, "index rank mismatch"),
    "b-table-root-order": (lambda: build_b_table(2, _SI2, RootOfUnity(6, 0), 4), ValueError,
                           "xi must be a 2n-th root of unity"),
    "identity-negative": (lambda: coeffs.check_combinatorial_identity(-1), ValueError,
                          "m_max must be nonnegative"),
    "first-kind-l": (lambda: series.first_kind(1.0, 1, _SI2, 3), ValueError, "l out of range"),
    "j-function-rank-mismatch": (lambda: j_function(1.0, SignVector("+++"), _SI2), ValueError,
                                 "sign vector length must match the rank"),
    "series-grid-nongeneric": (
        lambda: series.kernel_series_grid(np.array([1.0]), SpectralIndex([1.0, -1.0]), (0, 0)),
        ValueError, "the grid sweep needs a generic index"),
    "derivatives-k-max": (lambda: series.derivatives(1.0, SignVector("++"), _SI2, 3),
                          ValueError, "k_max must lie in [0, n]"),
    "second-kind-root-order": (
        lambda: asympt.second_kind(10.0, _SI2, RootOfUnity(6, 0)),
        ValueError, "xi must be a 2n-th root of unity for rank n"),
    "sweep-root-order": (
        lambda: second_kind_sweep(np.array([10.0]), _SI2, RootOfUnity(6, 0)),
        ValueError, "xi must be a 2n-th root of unity for rank n"),
    "rotate-root-order": (lambda: asympt.rotate_second_kind(10.0, _SI2, RootOfUnity(6, 0)),
                          ValueError, "xi must be a 2n-th root of unity"),
    "j-asymptotic-rank-mismatch": (
        lambda: j_varsigma_asymptotic(10.0, SignVector("+++"), _SI2),
        ValueError, "sign vector length must match rank"),
    "inverse-connection-nongeneric": (
        lambda: asympt.inverse_connection(30.0, SpectralIndex([1.0, -1.0]), 0),
        ValueError, "index too close to non-generic"),
    "kernel-index-rank-mismatch": (lambda: KernelIndex(_SI2, (0, 0, 0)), ValueError,
                                   "parity vector length must match rank"),
    # every sign but +1, "+", -1 and "-" is refused, as by series.first_kind
    **{
        f"{f.__name__}-sign-{sign!r}": (
            lambda f=f, sign=sign: f(10.0, _SI2, sign), ValueError, "sign must be +1 or -1")
        for f in (asympt.w_function, asympt.h_bessel)
        for sign in (0, 2, "x", "+-")
    },
}


@pytest.mark.parametrize("call, error, text", _TYPED_ERRORS.values(), ids=_TYPED_ERRORS.keys())
def test_typed_errors(call, error, text):
    # each input check raises its own type and names what it refused
    with pytest.raises(error, match=re.escape(text)):
        call()
