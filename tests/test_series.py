import cmath
import gc
import math
import pickle
import random
import time
import tracemalloc
import warnings
from itertools import product

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselhr import _backend, _pair, core
from besselhr.core import (
    NuIndex,
    OverflowEvalError,
    PoleError,
    RootOfUnity,
    SignVector,
    SpectralIndex,
    SurfacePoint,
    ToleranceNotMetError,
    e2pi,
    lambda_of_nu,
)
from besselhr import asympt, series
from besselhr.kernel import KernelIndex, bessel_kernel
from besselhr.mellinbarnes import mb_eval_est, mb_kernel_est
from besselhr.series import derivatives, first_kind, j_function, ode_residual

mp.mp.dps = 35


def test_first_kind_rank2_classical():
    # J_2(z; +, lam, -lam) = J_{2 lam}(2z); J_1 = J_{-2 lam}; minus sign gives I
    lam = 0.37 - 0.11j
    si = SpectralIndex([lam, -lam])
    for x in (0.6, 2.5, 8.0):
        with mp.workdps(40):
            j2, j1, i2 = (
                complex(f(nu, 2 * x))
                for f, nu in ((mp.besselj, 2 * lam), (mp.besselj, -2 * lam), (mp.besseli, 2 * lam))
            )
        r = first_kind(x, +1, si, 2)
        want = j2
        assert abs(r.value - want) <= max(2e-13 * abs(want), r.tail_bound + 1e-18)
        r = first_kind(x, +1, si, 1)
        want = j1
        assert abs(r.value - want) <= max(2e-13 * abs(want), r.tail_bound + 1e-18)
        r = first_kind(x, -1, si, 2)
        want = i2
        assert abs(r.value - want) <= max(2e-13 * abs(want), r.tail_bound + 1e-18)
    # the big-float instance of the same series at 60 digits; 2w is taken
    # from log x in mpmath, as _first_kind_mp does (the double x is an ulp off)
    with mp.workdps(60):
        for x in (0.6, 2.5, 8.0, 30.0):
            z = SurfacePoint.from_positive(x)
            w2 = 2 * mp.exp(z.log_modulus)
            nu = 2 * mp.mpc(lam)
            for sign, l, want in (
                (1, 2, mp.besselj(nu, w2)),
                (1, 1, mp.besselj(-nu, w2)),
                (-1, 2, mp.besseli(nu, w2)),
            ):
                got, _, _ = series._first_kind_mp(series._Round(z, sign, si, mp.mpf(10) ** -56), l)
                assert abs(got - want) <= mp.mpf(10) ** -30 * abs(want)


def test_series_sum_count_at_cap():
    # sum 3^m / m! stopped by the cap after m = 4: five terms, and the tail
    # ratio is that of the first omitted term, 3/5; the head 1/m! for m <= 2
    head = tuple(core.recip_gamma(m + 1.0) for m in range(3))
    total, _, terms, q, _ = _backend.series_sum(3 + 0j, np.array([0j]), 0.0, 0, 4, head)
    assert terms == 5 and q == 0.6
    assert abs(total - 16.375) < 1e-13


def test_first_kind_leading_behavior():
    # value * prod_{k != l} Gamma(lam_k - lam_l + 1) * z^{n lam_l} -> 1 at 0
    si = SpectralIndex([0.23, -0.06, -0.17])
    l = 2
    z = SurfacePoint.from_positive(1e-6)
    r = first_kind(z, +1, si, l)
    scale = z.power(3 * si.lam[l - 1])
    prod = 1.0 + 0.0j
    for k in range(3):
        if k != l - 1:
            prod *= cmath.exp(complex(mp.loggamma(si.lam[k] - si.lam[l - 1] + 1)))
    assert abs(r.value * prod * scale - 1.0) < 1e-10


def test_first_kind_rotation_law():
    # J_l(e^{i pi a/n} z) = e^{-pi i a lam_l} J_l(z; flipped sign)
    si = SpectralIndex([0.3, -0.1, -0.2])
    n, a, l = 3, 1, 2
    z = SurfacePoint.from_positive(1.7)
    zr = z.rotated(a * math.pi / n)
    lhs = first_kind(zr, +1, si, l).value
    rhs = cmath.exp(-1j * math.pi * a * si.lam[l - 1]) * first_kind(z, -1, si, l).value
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_first_kind_overflow_error():
    si = SpectralIndex([0.0])
    with pytest.raises(OverflowEvalError):
        first_kind(1000.0, +1, si, 1)


# large |lambda| indices whose double pass overflows below n|z| = 690
_LARGE_REAL = SpectralIndex(
    [5.692829635933802, 2.1664743919927028, -1.404513404879658, -10.0, 3.545209376953153]
)
_LARGE_COMPLEX = SpectralIndex(
    [-0.927803 + 2.96853j, 1.80483 + 3.64361j, -3.61068, 4.36293, 5.17394]
)


def test_first_kind_overflow_below_690_raises():
    # the terms leave double range although n|z| < 690: a typed error, not
    # a nan sum whose bound reaches int(log10(nan))
    for si, x, l in ((_LARGE_REAL, 121.0, 1), (_LARGE_COMPLEX, 127.662, 5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and numpy warns of nothing
            with pytest.raises(OverflowEvalError):
                first_kind(x, +1, si, l)


def test_double_pass_overflow_sizes_the_first_round_from_the_ridge():
    sv = SignVector.from_string("+++++")
    r = j_function(121.0, sv, _LARGE_REAL, 1e-10)
    v, e = mb_eval_est(121.0, sv, _LARGE_REAL, 1e-13)
    assert r.tail_bound <= 1e-10 * abs(r.value)
    assert abs(r.value - v) <= r.tail_bound + e
    # the kernel at x = (z / 2 pi)^5 takes the same path
    k = bessel_kernel(2648667.909549572, KernelIndex(_LARGE_REAL, (1, 0, 1, 0, 1)), "series", 1e-13)
    assert k.method == "series" and abs(k.value - v) <= k.error + e


def test_first_kind_nongeneric_pole_terms():
    # integral lambda difference: the series must run through the zero terms
    si = SpectralIndex([1.0, -1.0])  # differences 2: non-generic
    x = 1.3
    r = first_kind(x, +1, si, 2)  # J_{2 lam}(2x) with 2 lam = 2
    with mp.workdps(40):
        want = complex(mp.besselj(2.0, 2 * x))
    assert abs(r.value - want) < 1e-12 * abs(want)
    # and J_1 = J_{-2}(2x) = J_2(2x) for the integer order
    r1 = first_kind(x, +1, si, 1)
    assert abs(r1.value - want) < 1e-12 * abs(want)


def test_j_function_rank1():
    si = SpectralIndex([0.0])
    for x in (0.7, 5.0, 20.0):
        for s, sgn in (("+", 1), ("-", -1)):
            r = j_function(x, SignVector(s), si, 1e-12)
            want = cmath.exp(sgn * 1j * x)
            assert abs(r.value - want) < 5e-12
            assert abs(r.value - want) <= 4 * r.tail_bound + 5e-15


def test_j_function_rank2_closed_forms():
    lam = 0.2 + 0.1j
    si = SpectralIndex([lam, -lam])
    x = 6.0
    with mp.workdps(40):
        h1, h2, k = (complex(f(2 * lam, 2 * x)) for f in (mp.hankel1, mp.hankel2, mp.besselk))
    cases = {
        "++": 1j * math.pi * cmath.exp(1j * math.pi * lam) * h1,
        "--": -1j * math.pi * cmath.exp(-1j * math.pi * lam) * h2,
        "+-": 2 * cmath.exp(-1j * math.pi * lam) * k,
        "-+": 2 * cmath.exp(1j * math.pi * lam) * k,
    }
    for s, want in cases.items():
        got = j_function(x, SignVector(s), si, 1e-11).value
        assert abs(got - want) < 1e-10 * abs(want)


def test_j_function_vs_mb_oracle():
    si = SpectralIndex([0.3, -0.1, -0.2])
    for s in ("+++", "++-", "-+-"):
        sv = SignVector(s)
        r = j_function(2.0, sv, si, 1e-10)
        vm, em = mb_eval_est(2.0, sv, si, 1e-11)
        assert abs(r.value - vm) < 1e-8 * max(abs(vm), 1e-6)


def test_j_function_rotation_to_oscillatory():
    # J(z; sig, lam) = e(sum_{L_-} lam/2) J(e^{i pi n_-/n} z; all-plus, lam)
    si = SpectralIndex([0.25, -0.05, -0.2])
    sv = SignVector("+-+")
    z = SurfacePoint.from_positive(1.9)
    n = 3
    lhs = j_function(z, sv, si, 1e-11).value
    lam_minus = sum(si.lam[l - 1] for l in sv.minus_positions)
    rot = z.rotated(math.pi * sv.n_minus / n)
    rhs = e2pi(0.5 * lam_minus) * j_function(rot, SignVector("+++"), si, 1e-11).value
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_j_function_nongeneric_limit():
    # lam = (1/2, -1/2) is non-generic; classical value: the connection gives
    # J(x; +,-) = 2 e^{-pi i/2} K_1(2x) via continuity in lam
    si = SpectralIndex([0.5, -0.5])
    x = 1.1
    r = j_function(x, SignVector("+-"), si, 1e-9)
    want = 2 * cmath.exp(-0.5j * math.pi) * complex(mp.besselk(1, 2 * x))
    assert abs(r.value - want) < 1e-7 * abs(want)
    assert abs(r.value - want) <= 4 * r.tail_bound


def _modulus(x):
    """The modulus of SurfacePoint.from_positive(x), exp of its double log,
    in mpmath: the point the series sums at."""
    return mp.exp(mp.mpf(SurfacePoint.from_positive(x).log_modulus))


def test_j_function_limit_rank2_closed_forms():
    # lam = (0, 0): the order-0 forms, with the log-bearing Y_0 and K_0, are
    # the eps^0 coefficients of the jets in one pass, certified at tol
    si = SpectralIndex([0.0, 0.0])
    tol = 1e-10
    for x in (0.5, 2.885, 40.0):
        with mp.workdps(40):
            w = 2 * _modulus(x)
            cases = {
                "++": 1j * mp.pi * mp.hankel1(0, w),
                "--": -1j * mp.pi * mp.hankel2(0, w),
                "+-": 2 * mp.besselk(0, w),
                "-+": 2 * mp.besselk(0, w),
            }
            cases = {s: complex(v) for s, v in cases.items()}
        for s, want in cases.items():
            r = j_function(x, SignVector(s), si, tol)
            assert abs(r.value - want) <= r.tail_bound <= tol * abs(r.value), (x, s)


@pytest.mark.parametrize("lam", [(1.0, 0.0, -1.0), (0.0, 0.0, 0.0)])
def test_j_function_limit_rank3_against_mb(lam):
    # three components that differ by integers: poles of order 2 in the
    # connection coefficients, so the jets carry three coefficients
    si = SpectralIndex(lam)
    assert series._jet.cluster_order(si.lam) == 3
    for s in ("+++", "++-", "-+-"):
        for x in (0.7, 2.0, 5.0):
            r = j_function(x, SignVector(s), si, 1e-10)
            want, err = mb_eval_est(x, SignVector(s), si, 1e-12)
            assert abs(r.value - want) <= r.tail_bound + err, (s, x)
            assert r.tail_bound <= 1e-10 * abs(r.value)


def test_j_function_near_generic_band_against_cauchy_mean():
    # lambda_1 - lambda_2 = 2 + 5e-7, within 1e-4 of an integer but
    # generic: the double pass runs on coefficients rounded from their
    # 50-digit entry.  Against the mean over 8 generic points on a circle of
    # radius 1e-3 around it, which reproduces the value of the analytic
    # function to O(1e-24)
    lam = (1 + 2.5e-7, -1 - 2.5e-7)
    si = SpectralIndex(lam)
    assert series._jet.cluster_order(si.lam) == 1 and 0 < core.genericity_gap(si) < 1e-4
    for s in ("++", "+-"):
        r = j_function(2.0, SignVector(s), si, 1e-10)
        vals, errs = [], []
        for q in range(8):
            step = 1e-3 * e2pi(q / 8)
            c = j_function(2.0, SignVector(s), SpectralIndex([lam[0] + step, lam[1] - step]), 1e-12)
            vals.append(c.value)
            errs.append(c.tail_bound)
        mean = sum(vals) / 8
        assert abs(r.value - mean) <= r.tail_bound + max(errs) + 1e-15 * abs(mean), s
        assert r.tail_bound <= 1e-10 * abs(r.value)


# indices near a non-generic one, gaps 3e-5 (real), 1e-7 (imaginary) and
# 1e-12 (real), with two sign vectors each
_BAND_CASES = [
    ((1.0 + 3e-5, 0.0), ("+-", "++")),
    ((-1.7452 - 0.2303j, -2.6274 + 0.1152j, 4.3726 + 0.1152001j), ("--+", "+-+")),
    ((0.65, 0.2, -0.4, -1.4 - 1e-12), ("+-+-", "++--")),
]


def test_j_function_band_within_errors_of_a_tight_evaluation(monkeypatch):
    # an index near a non-generic one is generic: the double pass runs on
    # coefficients rounded from their 50-digit entry, and the big-float
    # rounds at the index itself where it does not certify.  Each value lies
    # within the summed errors of a tol-1e-14 evaluation, and some certify
    # in the double pass
    rounds = _record_rounds(monkeypatch)
    in_double = 0
    for lam, signs in _BAND_CASES:
        si = SpectralIndex(lam)
        assert series._jet.cluster_order(si.lam) == 1 and 0 < core.genericity_gap(si) < 1e-4
        for sv in map(SignVector, signs):
            for x in (0.3, 1.0, 3.0):
                ref = j_function(x, sv, si, 1e-14)
                for tol in (1e-10, 1e-6):
                    rounds.clear()
                    r = j_function(x, sv, si, tol)
                    assert abs(r.value - ref.value) <= r.tail_bound + ref.tail_bound, (lam, x)
                    assert r.tail_bound <= tol * abs(r.value)
                    in_double += not rounds
    assert in_double > 0


def test_j_function_coefficients_below_double_range_against_mb():
    # at lam = (250i, -250i) the connection coefficients lie below the
    # normal double range (5e-341 at +-), where rounding them to doubles
    # would drop their terms: the big-float rounds take the value alone
    si = SpectralIndex([250j, -250j])
    for sv, x in product(map(SignVector, ("+-", "++")), (0.5, 3.0)):
        r = j_function(x, sv, si, 1e-10)
        want, err = mb_eval_est(x, sv, si, 1e-10)
        assert abs(r.value - want) <= r.tail_bound + err, (sv, x)


def test_j_function_resolved_below_double_range_raises():
    # at lam = (250i, -250i), -+ and x = 0.5 the first round resolves
    # |J| = 1.45e-683 (noise 1.29e-698), below double range, as is the term
    # mass: the error says so with the big-float magnitudes, and reports no
    # digit ceiling (the mass put it below the round's own digits)
    t0 = time.perf_counter()
    with pytest.raises(ToleranceNotMetError, match="but it lies below double range") as exc:
        j_function(0.5, SignVector("-+"), SpectralIndex([250j, -250j]), 1e-10)
    assert time.perf_counter() - t0 < 1.0
    assert "achieved 1.29e-698, |value| 1.45e-683" in str(exc.value)
    assert "ceiling" not in str(exc.value)
    assert exc.value.value == 0 and exc.value.achieved == 5e-324


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
def test_j_function_signed_zero_component_same_bits(monkeypatch, zeros):
    # -0.0 == 0.0, so the store keys an index with a -0.0 component as the
    # one with +0.0; every entry comes from mpmath, which has one zero, so
    # the bits do not depend on which of the two was evaluated first
    monkeypatch.setattr(series, "_stored", series._Store())
    for index in (lambda zero: (0.3j, -0.3j, zero),
                  lambda zero: (0.4, complex(zero, 0.2), -0.4 - 0.2j)):
        bits = []
        for zero in zeros:
            si = SpectralIndex(index(zero))
            for sv, x in product(map(SignVector, ("++-", "+-+")), (0.5, 2.0)):
                r = j_function(x, sv, si, 1e-10)
                bits.append((r.value.real.hex(), r.value.imag.hex(), float(r.tail_bound).hex()))
        assert bits[:4] == bits[4:], index(0.0)


@pytest.mark.parametrize("lam, x", [((0.0, 0.0), -3.0), ((1.0, -1.0), -2.0)])
def test_vanishing_limit_kernel_ends_within_two_rounds(monkeypatch, lam, x):
    # delta = (1, 0): the kernel vanishes identically for x < 0, so no round
    # certifies it; its noise lies below tol times the cancellation
    # reference, so the rounds stop there and claim no digit
    rounds = _record_rounds(monkeypatch)
    ki = KernelIndex(SpectralIndex(lam), (1, 0))
    r = bessel_kernel(x, ki, "series", 1e-9)
    assert r.method == "series" and r.error >= abs(r.value)
    assert 1 <= len(rounds) <= 2 and max(rounds) < 100
    assert r.cancellation > 1e9


def test_j_function_high_precision_path():
    # deep cancellation: K-type at x = 30 has |J| ~ e^{-78}; the adaptive
    # big-float path must deliver the requested relative accuracy
    si = SpectralIndex([0.3, -0.1, -0.2])
    sv = SignVector("++-")
    r = j_function(30.0, sv, si, 1e-9)
    from besselhr.asympt import j_varsigma_asymptotic

    ra = j_varsigma_asymptotic(30.0, sv, si)
    assert abs(r.value - ra.value) <= 1e-7 * abs(ra.value)
    assert r.tail_bound <= 1e-8 * abs(r.value)


def test_j_function_double_pass_underflow():
    # K-type values near e^{-80}: the double pass cancels to exactly zero, and
    # the precision estimate must not overflow turning that into digits
    si = SpectralIndex([0.25, -0.25])
    for s, phase in (("+-", -0.25), ("-+", 0.25)):
        r = j_function(40.0, SignVector(s), si, 1e-10)
        want = 2 * complex(mp.expjpi(phase) * mp.besselk(0.5, 80))
        assert abs(r.value - want) <= 1e-10 * abs(want)
        assert r.tail_bound <= 1e-10 * abs(r.value)


def _record_rounds(monkeypatch):
    """The dps of every big-float round, in call order."""
    rounds = []
    mp_pass = series._j_generic_mp

    def recorded(z, sign, si, dps, kind):
        rounds.append(dps)
        return mp_pass(z, sign, si, dps, kind)

    monkeypatch.setattr(series, "_j_generic_mp", recorded)
    return rounds


def test_bigfloat_first_round_from_noise_scale(monkeypatch):
    # a double value inside its own noise (here exactly 0, or K_{1/2}(80)
    # underflowing) only bounds |value| by eps times the term mass; the first
    # round used to start near 320-350 digits from a 1e-280 scale
    # (x lies in the kernel's asymptotic band, where auto mode takes the
    # certified expansion: the series route is asked for by name)
    rounds = _record_rounds(monkeypatch)
    ki = KernelIndex(SpectralIndex([0.25j, -0.25j]), (0, 0))
    x = -2.3983292130691796
    r = bessel_kernel(x, ki, "series", 1e-9)
    assert r.method == "series"
    assert 0 < max(rounds) < 100
    want, want_err = mb_kernel_est(x, ki.lam, ki.deltas, 1e-13)
    assert abs(r.value - want) <= r.error + want_err
    rounds.clear()
    # x = 40 is above the asymptotic floor: the round is sized from the
    # leading term, and the first one certifies
    r = j_function(40.0, SignVector("+-"), SpectralIndex([0.25, -0.25]), 1e-10)
    assert len(rounds) == 1 and max(rounds) < 100
    want = 2 * complex(mp.expjpi(-0.25) * mp.besselk(0.5, 80))
    assert abs(r.value - want) <= 1e-10 * abs(want)


def test_bigfloat_precision_ceiling(monkeypatch):
    # J(300; ++-) is far below double range: no number of digits certifies
    # it, so the rounds stop at the precision ceiling instead of escalating
    # x1.6 per round for minutes.  Without the leading-term estimate (which
    # raises before any round, see below) the rounds climb to the ceiling
    rounds = _record_rounds(monkeypatch)
    monkeypatch.setattr(series, "_leading_log10", lambda *a: None)
    with pytest.raises(ToleranceNotMetError, match="asymptotic route") as exc:
        j_function(300.0, SignVector("++-"), SpectralIndex([0.3, -0.1, -0.2]), 1e-10)
    assert exc.value.value is not None and len(rounds) == 3 and max(rounds) < 1000
    assert "precision ceiling" in str(exc.value)
    # the failed round's noise lies below double range: achieved is rounded
    # up to a positive double, and the message prints the big-float magnitudes
    assert exc.value.achieved == 5e-324
    assert "achieved 1.7e-329, |value| 3.83e-341" in str(exc.value)


def test_estimate_below_the_ceiling_raises_before_any_round(monkeypatch):
    # a leading asymptotic term more than _ESTIMATE_GUARD digits below the
    # 1e-300 the rounds resolve: no round can certify the value, so none runs
    import time

    rounds = _record_rounds(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(ToleranceNotMetError, match="none was run; use the asymptotic route") as exc:
        j_function(300.0, SignVector("++-"), SpectralIndex([0.3, -0.1, -0.2]), 1e-10)
    assert time.perf_counter() - t0 < 0.3
    assert rounds == [] and exc.value.achieved == math.inf
    assert "3.83e-341" in str(exc.value)
    # an estimate 1000 digits below the value at x = 30 raises the same way
    estimate = series._leading_log10
    monkeypatch.setattr(series, "_leading_log10", lambda *a: estimate(*a) - 1000)
    with pytest.raises(ToleranceNotMetError, match="none was run"):
        j_function(30.0, SignVector("++-"), SpectralIndex([0.3, -0.1, -0.2]), 1e-10)
    assert rounds == []


def test_failed_round_rounds_achieved_up():
    # a failed round's error below double range reads as the least positive
    # double, never 0; one in range is rounded up, not to nearest
    ach, words = series._failed_round(mp.mpf("1.7e-345"), mp.mpc(0))
    assert ach == 5e-324 and words == "achieved 1.7e-345, |value| 0.0"
    noise = mp.mpf(1) / 3
    ach, words = series._failed_round(noise, mp.mpc(0))
    assert ach >= noise and ach == math.nextafter(1 / 3, math.inf) and "0.333" in words


@pytest.mark.parametrize(
    "x, signs, lam",
    [
        (40.0, "+-", (0.25, -0.25)),
        (30.0, "++-", (0.3, -0.1, -0.2)),
        (12.0, "+++", (0.3, -0.1, -0.2)),
        (16.65, "+-+-", (0.1 + 0.2j, -0.2 - 0.1j, 0.05 - 0.15j, 0.05 + 0.05j)),
    ],
)
def test_leading_log10_matches_the_series(x, signs, lam):
    # above the floor the leading asymptotic term has the series' modulus
    si = SpectralIndex(lam)
    sv = SignVector(signs)
    got = series._leading_log10(SurfacePoint.from_positive(x), si, sv)
    want = math.log10(abs(j_function(x, sv, si, 1e-10).value))
    assert abs(got - want) < 0.05


def test_leading_log10_outside_its_zone_is_none():
    si = SpectralIndex([0.3, -0.1, -0.2])
    sv = SignVector("++-")
    assert series._leading_log10(SurfacePoint.from_positive(2.0), si, sv) is None  # floor 5.76
    # the sector of xi(++-) is |arg z - pi/6| < pi + pi/3 - pi/6
    assert series._leading_log10(SurfacePoint.from_polar(30.0, -3.5), si, sv) is None
    assert series._leading_log10(SurfacePoint.from_polar(30.0, 0.5), si, sv) is not None
    # a floor that overflows double range is no estimate, not an error
    huge = SpectralIndex([1e200, -1e200])
    assert series._leading_log10(SurfacePoint.from_positive(30.0), huge, SignVector("+-")) is None


@pytest.mark.parametrize("shift", [30, -30], ids=["estimate-too-high", "estimate-too-low"])
def test_first_round_estimate_misses(monkeypatch, shift):
    # a leading term 30 digits too large leaves the first round 30 digits
    # short: it fails and the rounds escalate to a certified value.  One 30
    # digits too small buys 30 digits more than needed in one round
    args = (30.0, SignVector("++-"), SpectralIndex([0.3, -0.1, -0.2]), 1e-10)
    rounds = _record_rounds(monkeypatch)
    base = j_function(*args)
    assert len(rounds) == 1
    sized = rounds.pop()
    estimate = series._leading_log10
    monkeypatch.setattr(series, "_leading_log10", lambda *a: estimate(*a) + shift)
    r = j_function(*args)
    if shift > 0:
        assert len(rounds) > 1 and rounds[0] == sized - shift
    else:
        assert rounds == [sized - shift]
    assert r.tail_bound <= 1e-10 * abs(r.value)
    assert abs(r.value - base.value) <= r.tail_bound


def test_j_function_large_modulus_one_round(monkeypatch):
    # |J(200; ++-)| ~ 1e-227: one round sized from the leading term
    # certifies it, where the rounds sized from the double pass took six
    rounds = _record_rounds(monkeypatch)
    si = SpectralIndex([0.3, -0.1, -0.2])
    sv = SignVector("++-")
    r = j_function(200.0, sv, si, 1e-10)
    assert len(rounds) == 1
    ra = asympt.j_varsigma_asymptotic(200.0, sv, si)
    assert abs(r.value - ra.value) <= r.tail_bound + ra.error_estimate
    assert r.tail_bound <= 1e-10 * abs(r.value)


def test_j_function_beyond_double_range():
    # n |z| > 690 overflows double series termwise; the big-float route
    # must take over transparently
    si = SpectralIndex([0.0])
    r = j_function(750.0, SignVector("+"), si, 1e-8)
    want = complex(mp.expjpi(mp.mpf(750) / mp.pi))
    assert abs(r.value - want) < 1e-6


def test_index_recurrence():
    # (nu_l/(i x)) J_nu = sig_l J_{nu - e_l} - sig_{d+1} J_{nu + e^d}
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        nu = tuple(rng.uniform(-0.4, 0.4, n - 1) + 1j * rng.uniform(-0.3, 0.3, n - 1))
        sv = SignVector([1] * (n - 1) + [-1])
        x = 2.2
        for l in range(n - 1):
            lhs = nu[l] / (1j * x) * j_function(x, sv, lambda_of_nu(NuIndex(nu)), 1e-11).value
            num = list(nu)
            num[l] -= 1
            t1 = sv.signs[l] * j_function(x, sv, lambda_of_nu(NuIndex(num)), 1e-11).value
            nup = [v + 1 for v in nu]
            t2 = sv.signs[-1] * j_function(x, sv, lambda_of_nu(NuIndex(nup)), 1e-11).value
            rhs = t1 - t2
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_derivatives_vs_finite_differences():
    si = SpectralIndex([0.3, -0.1, -0.2])
    sv = SignVector("++-")
    x = 3.0
    ders = derivatives(x, sv, si, 2, 1e-11)
    h = 1e-4
    f = lambda t: j_function(t, sv, si, 1e-12).value
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
    assert abs(ders[0] - f(x)) < 1e-10 * abs(f(x))
    assert abs(ders[1] - d1) < 1e-6 * max(abs(d1), 1.0)
    assert abs(ders[2] - d2) < 1e-4 * max(abs(d2), 1.0)


def test_first_derivative_recurrence():
    # J' = sig_{d+1} i n J_{nu+e^d} + (sum nu_l / x) J_nu
    si = SpectralIndex([0.24, -0.1, -0.14])
    sv = SignVector("+-+")
    from besselhr.core import nu_of_lambda

    x = 2.7
    nu = nu_of_lambda(si).nu
    ders = derivatives(x, sv, si, 1, 1e-12)
    nup = [v + 1 for v in nu]
    rhs = sv.signs[-1] * 3j * j_function(
        x, sv, lambda_of_nu(NuIndex(nup)), 1e-12
    ).value + sum(nu) / x * ders[0]
    assert abs(ders[1] - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_ode_residual_small():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 5):
        lam = 0.25 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        si = SpectralIndex(lam)
        sv = SignVector([1] * (n - 1) + [-1])
        for x in (1.0, 4.0, 9.5):
            assert ode_residual(x, sv, si, 1e-10) < 1e-8


def _rank8_index():
    """A seeded generic rank-8 index: lambda uniform in [-0.4, 0.4], mean 0."""
    lam = np.random.default_rng(8).uniform(-0.4, 0.4, 8)
    return SpectralIndex(lam - lam.mean())


@pytest.mark.parametrize("signs", ["++++++++", "+-+-+-+-", "++++----"])
def test_rank8_series_agrees_with_mb(signs):
    si = _rank8_index()
    sv = SignVector(signs)
    for x in (0.5, 1.5, 3.0):
        r = j_function(x, sv, si, 1e-10)
        vm, em = mb_eval_est(x, sv, si, 1e-10)
        assert abs(r.value - vm) <= r.tail_bound + em


def test_rank8_ode_residual():
    # criterion 7's bound (1e-8) at rank 8, past the registry's n <= 5
    si = _rank8_index()
    for signs, x in (("++++++++", 1.0), ("++++----", 3.0)):
        assert ode_residual(x, SignVector(signs), si, 1e-10) < 1e-8


def test_bigfloat_rounds_exhausted(monkeypatch):
    # a term mass that grows with the working precision keeps the precision
    # ceiling ahead of the rounds, so no round certifies and none reaches
    # the ceiling: after 8 rounds the series must raise, not return a value
    # whose error exceeds tol * |value|
    rounds = []

    def stub(z, sign, si, dps, kind):
        rounds.append(dps)
        with mp.workdps(dps):
            mass = mp.mpf(10) ** dps
            rel = mp.mpf(10) ** (-(dps - 4))
            return mp.mpc(1), mass, 1, rel, [mp.mpc(1)] * si.rank

    monkeypatch.setattr(series, "_j_generic_mp", stub)
    # n |z| > 690 skips the double pass
    with pytest.raises(ToleranceNotMetError, match="asymptotic route") as exc:
        j_function(700.0, SignVector("+"), SpectralIndex([0.0]), 1e-10)
    assert len(rounds) == 8
    assert all(a < b for a, b in zip(rounds, rounds[1:]))
    assert exc.value.value == 1
    assert exc.value.achieved > 1e-10


@st.composite
def _bigfloat_cases(draw):
    n = draw(st.integers(1, 6))
    part = st.floats(-1.0, 1.0)
    lam = [complex(draw(part), draw(part)) for _ in range(n)]
    # x < 1 gives |zf| = x^n < 1
    x = draw(st.floats(0.3, 60.0))
    l = draw(st.integers(1, n))
    if n > 1:
        # exact integer differences cross poles of the reciprocal gammas;
        # 1e-3 off an integer is generic, with large connection coefficients;
        # a difference of -7 or -8 at x < 0.36 (m_min = 4) gives the second
        # series exact zero terms past m_min
        kind = draw(st.sampled_from(["generic", "integer", "cauchy", "zeros"]))
        if kind != "generic":
            k = draw(st.sampled_from([7, 8] if kind == "zeros" else [-2, -1, 1, 2]))
            # short dyadic parts summing to 0, which SpectralIndex keeps exact
            grid = [complex(round(v.real * 2**20), round(v.imag * 2**20)) / 2**20 for v in lam]
            lam = [grid[0], grid[0] + k, *grid[2:]]
            if n == 2:
                lam = [complex(-k / 2), complex(k / 2)]
            else:
                lam[2] -= sum(lam)
        if kind == "cauchy":
            lam[1] += 1e-3 * e2pi(draw(st.floats(0.0, 1.0)))
        if kind == "zeros":
            x, l = draw(st.floats(0.3, 0.36)), 2
    return SpectralIndex(lam), x, draw(st.sampled_from([1, -1])), l, draw(st.integers(30, 300))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_bigfloat_cases())
def test_first_kind_mp_integer_loop_against_mpmath_loop(case):
    # the fixed-point loop against the same series and stop rule summed in
    # mpmath 40 digits higher: within the stated bound (its own rounding far
    # below 10^-dps of the term mass), with a term mass that never undercounts.
    # At an integer gap the round sums jets (cluster order p > 1), and their
    # eps^0 coefficient is the series at lam, summed to the same term or past it
    si, x, sign, l, dps = case
    z = SurfacePoint.from_positive(x)
    p = series._jet.cluster_order(si.lam)
    with mp.workdps(dps):
        tol = mp.mpf(10) ** -dps
        got, terms, scale = series._first_kind_mp(series._Round(z, sign, si, tol, p), l)
    if p > 1:
        got, scale = got.coeff(0), scale.coeff(0)
    with mp.workdps(dps + 40):
        n = si.rank
        logz = mp.mpc(z.log_modulus, z.argument)
        lam = [mp.mpc(v) for v in si.lam]
        diffs = [lk - lam[l - 1] for lk in lam]
        zf = sign * mp.expjpi(mp.mpf(n) / 2) * mp.exp(n * logz)
        m_min = int(math.e * x) + 4
        fresh = series._m_fresh([complex(d) for d in diffs])
        head = tuple(_rgamma_product(diffs, m) for m in range(fresh + 1))
        total, abs_total, ref_terms, _, _ = _backend.sum_first_kind(
            zf, diffs, tol, mp.mpf(10) ** (-dps - 30), m_min, m_min + 50000, head
        )
        pref = mp.exp(-n * lam[l - 1] * logz)
        assert terms == ref_terms if p == 1 else terms >= ref_terms
        assert abs(got - pref * total) <= scale * mp.mpf(10) ** -dps
        assert scale >= abs(pref) * abs_total


# ---------------------------------------------------------------------------
# the big-float round against a per-series reference
# ---------------------------------------------------------------------------


def _abs_ub_ref(re, im, seen, what):
    # _backend._abs_ub, noting which branch ran
    ar = abs(re)
    ai = abs(im)
    k = max(ar.bit_length(), ai.bit_length()) - 60
    if k <= 0:
        seen.add(what + " exact")
        return math.isqrt(ar * ar + ai * ai) + 1
    seen.add(what + " top bits")
    ar = (ar >> k) + 1
    ai = (ai >> k) + 1
    return (math.isqrt(ar * ar + ai * ai) + 1) << k


def _sum_first_kind_fixed_ref(head, zf, diffs, wp, tol, floor, m_min, m_cap, seen):
    """The integer loop with one exact _abs_ub of the partial sum per stop
    test, the form the lean loop of _backend must match; seen collects the
    _abs_ub branches and the stop tests between max and 2 max + 2."""
    n = len(diffs)
    M = len(head) - 1
    one = 1 << wp
    zr, zi = zf

    def w_and_r(m):
        pr, pi = 1, 0
        for dr, di in diffs:
            ar = dr + m * one
            pr, pi = pr * ar - pi * di, pr * di + pi * ar
        return zr * pr + zi * pi, zi * pr - zr * pi, pr * pr + pi * pi

    samples = [w_and_r(M + 1 + j) for j in range(2 * n + 1)]
    wr = _backend._difference_table([s[0] for s in samples[: n + 1]])
    wi = _backend._difference_table([s[1] for s in samples[: n + 1]])
    rr = _backend._difference_table([s[2] for s in samples])
    shift = (n - 1) * wp
    sr = si = 0
    abs_sum = 0
    small = 0
    m = 0
    while True:
        if m <= M:
            tr, ti = head[m]
        else:
            tr, ti = (
                ((tr * wr[0] - ti * wi[0]) << shift) // rr[0],
                ((tr * wi[0] + ti * wr[0]) << shift) // rr[0],
            )
            for j in range(n):
                wr[j] += wr[j + 1]
                wi[j] += wi[j + 1]
            for j in range(2 * n):
                rr[j] += rr[j + 1]
        sr += tr
        si += ti
        t_abs = _abs_ub_ref(tr, ti, seen, "term")
        abs_sum += t_abs
        if m >= m_min:
            bound = tol * _abs_ub_ref(sr, si, seen, "sum") + floor
            low = tol * max(abs(sr), abs(si))
            if low < (t_abs << wp) - floor <= 2 * low + 2 * tol:
                seen.add("between, " + ("small" if (t_abs << wp) <= bound else "not small"))
            if (t_abs << wp) <= bound:
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
        if m >= m_cap:
            break
        m += 1
    terms = m + 1
    t_low = max(abs(c) for c in head[M]) or 1
    slack = 2 * terms * (terms + 2 * (2 * abs_sum // t_low + 1)) + 2 * (n + 1) * terms * (
        (2 * abs_sum >> wp) + 1
    )
    return sr, si, abs_sum + slack, terms


def _sum_first_kind_fixed_jet_ref(head, zf, diffs, slopes, wp, m_cap):
    """The integer loop of p orders with P(m, eps) = prod_k (d_k + m +
    eps s_k) formed afresh for each term at wp fraction bits, no forward
    differences and no stripped bits, summed through the term m_cap: the
    loop of _backend at tol 0 and floor 0, where no term is small."""
    n = len(diffs)
    p = len(head[0])
    M = len(head) - 1
    one = 1 << wp
    zr, zi = zf
    shift = (n - 1) * wp
    sums = [[0, 0] for _ in range(p)]
    masses = [0] * p
    for m in range(m_cap + 1):
        if m <= M:
            t = head[m]
        else:
            pc = [(1, 0)] + [(0, 0)] * (p - 1)
            for (dr, di), s in zip(diffs, slopes):
                ar = dr + m * one
                nxt = []
                for j in range(p):
                    pr, pi = pc[j]
                    re, im = pr * ar - pi * di, pr * di + pi * ar
                    if j:
                        re += pc[j - 1][0] * (s << wp)
                        im += pc[j - 1][1] * (s << wp)
                    nxt.append((re, im))
                pc = nxt
            p0r, p0i = pc[0]
            w_re, w_im = zr * p0r + zi * p0i, zi * p0r - zr * p0i
            r = p0r * p0r + p0i * p0i
            q = []
            for j in range(p):
                tr, ti = t[j]
                nr, ni = (tr * w_re - ti * w_im) << shift, (tr * w_im + ti * w_re) << shift
                for i in range(1, j + 1):
                    (ar, ai), (br, bi) = pc[i], q[j - i]
                    cr, ci = ar * br - ai * bi, ar * bi + ai * br
                    nr -= cr * p0r + ci * p0i
                    ni -= ci * p0r - cr * p0i
                q.append((nr // r, ni // r))
            t = q
        for j, (tr, ti) in enumerate(t):
            sums[j][0] += tr
            sums[j][1] += ti
            masses[j] += _backend._abs_ub(tr, ti)
    terms = m_cap + 1
    growth = 1 + sum(abs(s) for s in slopes)
    t_low = max(abs(c) for pair in head[M] for c in pair) or 1
    top = max(masses)
    slack = 2 * terms * (terms + 2 * (2 * top // t_low + 1)) + 2 * (n + 1) * terms * (
        (2 * top >> wp) + 1
    )
    return sums, [a + slack * growth**j for j, a in enumerate(masses)], terms


def _fixed_parts(values, bits):
    # mpmath numbers as (re, im) integers of one exponent e, the largest
    # part with bits bits, the rest floored to 2^e (zeros exact, e = 0)
    parts = [part for v in values for part in mp.mpc(v)._mpc_]
    mags = [exp + bc for _, man, exp, bc in parts if man]
    e = max(mags) - bits if mags else 0
    ints = [series.to_fixed(part, -e) for part in parts]
    return list(zip(ints[::2], ints[1::2])), e


def _first_kind_mp_per_series(z, sign, si, l, rel_tol, seen):
    """One series of a big-float round set up on its own: zf, log z and the
    fixed-point forms rebuilt, the head coefficients built afresh
    (_backend.head_coeffs), zf^m rebuilt by m exact integer products each
    floored back to the round's bits, and the head terms c_m zf^m formed
    and scaled to units of 2^E here."""
    n = si.rank
    m_min = int(math.e * z.modulus) + 4
    m_cap = m_min + 50000
    dps = mp.mp.dps
    wp = math.ceil(dps * math.log2(10)) + 2 * m_cap.bit_length() + 8
    wp += max(0, math.ceil(-n * z.log_modulus / math.log(2)))
    floor = mp.mpf(10) ** (-dps - 30)
    # the powers carry the bits of the round's longest head
    top = max(series._m_fresh([lk - lam_l for lk in si.lam]) for lam_l in si.lam)
    bits = wp + top.bit_length() + 3
    with mp.workprec(wp):
        logz = mp.mpc(z.log_modulus, z.argument)
        lam = [mp.mpc(v) for v in si.lam]
        lam_l = lam[l - 1]
        diffs = [lk - lam_l for lk in lam]
        zf = sign * mp.expjpi(mp.mpf(n) / 2) * mp.exp(n * logz)
        fresh = series._m_fresh([complex(d) for d in diffs])
        coeffs = _backend.head_coeffs(diffs, fresh, lambda args: map(mp.rgamma, args))
        [(zr, zi)], ez = _fixed_parts([zf], bits)
        products = []
        for m, c in enumerate(coeffs):
            pr, pi, e = 1, 0, 0
            for _ in range(m):
                pr, pi, e = pr * zr - pi * zi, pr * zi + pi * zr, e + ez
                k = max(abs(pr).bit_length(), abs(pi).bit_length()) - bits
                if k > 0:
                    pr, pi, e = pr >> k, pi >> k, e + k
            [(cr, ci)], ec = _fixed_parts([c], wp + series._HEAD_GUARD)
            products.append((cr * pr - ci * pi, cr * pi + ci * pr, ec + e))
        tr, ti, e = products[-1]
        e += max(abs(tr).bit_length(), abs(ti).bit_length()) - wp
        head = [
            (tr << (et - e), ti << (et - e)) if et >= e else (tr >> (e - et), ti >> (e - et))
            for tr, ti, et in products
        ]
        sr, si_, abs_sum, terms = _sum_first_kind_fixed_ref(
            head,
            series._to_fixed(zf, wp),
            [series._to_fixed(d, wp) for d in diffs],
            wp,
            series.to_fixed(mp.mpf(rel_tol)._mpf_, wp),
            series.to_fixed(floor._mpf_, wp - e),
            m_min,
            m_cap,
            seen,
        )
        total = mp.mpc(mp.mpf((sr, e)), mp.mpf((si_, e)))
        pref = mp.exp(-n * lam_l * logz)
        value = pref * total
        scale = abs(pref) * mp.mpf((abs_sum, e))
    return +value, terms, +scale


def _j_generic_mp_per_series(z, sign, si, dps, kind, seen):
    with mp.workdps(dps):
        cs, mags = series._coeffs_mp(si.lam, kind, dps)
        rel = mp.mpf(10) ** (-(dps - 4))
        value = mp.mpc(0)
        mass = mp.mpf(0)
        terms = 0
        family = []
        for l in range(si.rank):
            comp, t_used, comp_scale = _first_kind_mp_per_series(z, sign, si, l + 1, rel, seen)
            value += cs[l] * comp
            mass += mags[l] * comp_scale
            terms += t_used
            family.append(comp)
        return value, mass, terms, rel, family


def _round_cases():
    """Derandomized big-float rounds: ranks 1-6 with generic, integer-gap and
    Cauchy indices, x = 0.3 or 0.7 (|zf| < 1) or up to 60, 30-120 digits."""
    rng = random.Random(19)
    for i in range(24):
        n = 1 + i % 6
        kind = ("generic", "integer", "cauchy", "generic")[i // 6] if n > 1 else "generic"
        lam = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        if kind != "generic":
            lam[1] = lam[0] + rng.choice([-2, -1, 1, 2])
        if kind == "cauchy":
            lam[1] += 1e-3 * e2pi(rng.random())
        x = rng.choice([0.3, 0.7]) if i % 4 == 0 else rng.uniform(1.0, 60.0)
        yield SpectralIndex(lam), x, rng.choice([1, -1]), rng.randint(30, 120), i, kind
    # short dyadic differences: the README's index, and a rank-3 index
    # whose equal entries make an integer (zero) gap
    yield SpectralIndex([0.25j, -0.25j]), 2.0, 1, 40, 24, "generic"
    yield SpectralIndex([0.5, -0.25, -0.25]), 5.0, -1, 60, 25, "integer"


def _scaling_case(diffs, wp):
    # the branch of _backend.sum_first_kind_fixed that fb, the fraction
    # bits left in the differences, selects
    common = 0
    for dr, di in diffs:
        common |= dr | di
    fb = wp - min(wp, (common & -common).bit_length() - 1) if common else 0
    if fb == wp:
        return "nothing stripped"
    if fb == 0:
        return "fb = 0"
    return "n fb >= wp" if len(diffs) * fb >= wp else "n fb < wp"


def _raw(result):
    value, mass, terms, rel, family = result
    return value._mpc_, mass._mpf_, terms, rel._mpf_, [f._mpc_ for f in family]


def test_round_powers_of_ten_are_stored_with_their_bits(monkeypatch):
    # 10^-(dps-4) and 10^(-dps-30), one store entry per digits, with the
    # bits of the powers taken at dps digits
    store = _empty_store(monkeypatch)
    for dps in (20, 45, 300):
        rel, floor = series._tens(dps)
        with mp.workdps(dps):
            assert rel._mpf_ == (mp.mpf(10) ** (-(dps - 4)))._mpf_
            assert floor._mpf_ == (mp.mpf(10) ** (-dps - 30))._mpf_
        assert series._tens(dps)[1] is floor
    assert store.hits == {"tens": 3}


def test_bigfloat_round_matches_per_series_path(monkeypatch):
    # the round's shared constants and stored head rows give the same bits
    # as each series set up on its own, and the lean integer loop the same
    # integers as one exact _abs_ub per stop test: over ranks 1-6, generic,
    # integer-gap and Cauchy indices, |zf| < 1, both _abs_ub branches,
    # stop tests that the bounds max and 2 max + 2 leave open, and each
    # scaling of the differences' fraction bits fb (_scaling_case); each
    # head term within its stated rounding of c_m zf^m (_check_head_terms)
    seen = set()
    loop = _backend.sum_first_kind_fixed
    calls = []

    def fixed(head, zf, diffs, wp, *rest):
        # the one loop at p = 1 in the reference's arguments and returns
        tables = _backend.fixed_tables(diffs, [0] * len(diffs), wp, len(head) - 1, 1)
        (s,), (abs_sum,), terms = loop([[t] for t in head], zf, tables, wp, *rest)
        return (*s, abs_sum, terms)

    owners = {}  # id of a series' stored tables -> its index and l
    head_mp = series._head_mp

    def recorded(lam, l, wp, p=1):
        entry = head_mp(lam, l, wp, p)
        owners[id(entry.tables)] = lam, l
        return entry

    rounds = []
    zeros = []

    class Recorded(series._Round):
        def __init__(self, *args):
            super().__init__(*args)
            rounds.append(self)

    def both(head, zf, tables, wp, *rest):
        lam, l = owners[id(tables)]
        zeros.append(_check_head_terms(head, lam, l, wp, rounds[-1].zf))
        with mp.workprec(wp):
            diffs = [series._to_fixed(mp.mpc(lk) - mp.mpc(lam[l - 1]), wp) for lk in lam]
        args = ([t for t, in head], zf, diffs, wp, *rest)
        got = fixed(*args)
        assert got == _sum_first_kind_fixed_ref(*args, seen)
        seen.add(_scaling_case(args[2], args[3]))
        calls.append(args)
        return loop(head, zf, tables, wp, *rest)

    # tol 0 and floor 0 settle no stop test: the loop ends after term m_cap
    # (first, as a loop that mis-scales its terms runs long before that)
    one = 1 << 40
    args = ([(one, 0)], (one // 3, one // 5), [(0, 0), (one // 4, 0)], 40, 0, 0, 1, 8)
    got = fixed(*args)
    assert got == _sum_first_kind_fixed_ref(*args, seen)
    assert got[3] == 9
    monkeypatch.setattr(_backend, "sum_first_kind_fixed", both)
    monkeypatch.setattr(series, "_head_mp", recorded)
    monkeypatch.setattr(series, "_Round", Recorded)
    for si, x, sign, dps, i, label in _round_cases():
        z = SurfacePoint.from_positive(x)
        n = si.rank
        if label == "integer":
            # no connection coefficients at an integer gap: series by series
            with mp.workdps(dps):
                rel = mp.mpf(10) ** -dps
                for l in range(1, n + 1):
                    want = _first_kind_mp_per_series(z, sign, si, l, rel, seen)
                    for _ in range(2):
                        got = series._first_kind_mp(series._Round(z, sign, si, rel), l)
                        assert (got[0]._mpc_, got[1], got[2]._mpf_) == (
                            want[0]._mpc_, want[1], want[2]._mpf_
                        )
            continue
        if i % 2:
            kind = ("kernel", tuple(k % 2 for k in range(n)), sign)
        else:
            kind = ("signvec", SignVector([1] * (n - 1) + [sign]))
        want = _raw(_j_generic_mp_per_series(z, sign, si, dps, kind, seen))
        for _ in range(2):  # the head rows built, then from the store
            assert _raw(series._j_generic_mp(z, sign, si, dps, kind)) == want
    assert len(calls) == 2 * sum(si.rank for si, *_ in _round_cases())
    assert sum(zeros) > 0  # exact zeros before the integer gaps' pole crossings
    # at 24 and 40 bits every magnitude, the partial sums' too, is below 2^60;
    # the second difference strips one bit, or none with its odd part
    for wp in (24, 40):
        one = 1 << wp
        for d in ((one // 4, -one // 7), (one // 4 + 1, -one // 7)):
            args = (
                [(one, 0), (one // 3, -one // 5)],
                (7 * one // 10, one // 9),
                [(0, 0), d],
                wp,
                one >> 12,
                1,
                3,
                400,
            )
            assert fixed(*args) == _sum_first_kind_fixed_ref(*args, seen)
            seen.add(_scaling_case(args[2], wp))
    # terms of 1.2 and 1.6 2^-10 |Re s| after a sum s = S(1 + i): both
    # between the bounds, small by the exact |s| ~ 1.41 |Re s| only at 1.2
    s_re = 1 << 80
    for a in (12 * s_re // 10 >> 10, 16 * s_re // 10 >> 10):
        args = ([(s_re, s_re)] + [(a, 0)] * 3, (1 << 63, 0), [(0, 0)], 64, 1 << 54, 0, 1, 400)
        assert fixed(*args) == _sum_first_kind_fixed_ref(*args, seen)
    assert seen == {
        "term exact", "term top bits", "sum exact", "sum top bits",
        "between, small", "between, not small",
        "nothing stripped", "fb = 0", "n fb >= wp", "n fb < wp",
    }


def _jet_loop_case(rng, n, p, wp, fb, slopes):
    """Loop arguments for p orders at rank n: a head of 4 terms near 2^wp,
    zf of modulus about 4^n (the terms peak past the head), and differences
    with fb fraction bits, at least one odd at that scale (fb = 0: integers
    from -1 to 2), each with Re(d_k + m) > 0 past the head."""
    one = 1 << wp
    unit = 1 << (wp - fb)

    def part():
        return rng.randrange(-(1 << fb), 1 << fb) * unit

    head = [[(rng.randrange(-one, one), rng.randrange(-one, one)) for _ in range(p)]
            for _ in range(4)]
    zf = (4**n * one + rng.randrange(one), rng.randrange(-one, one))
    diffs = [(part(), part()) if fb else (rng.randrange(-1, 3) * one, 0) for _ in range(n)]
    diffs[0] = (diffs[0][0] | unit, diffs[0][1])
    return head, zf, diffs, slopes[:n], wp


def test_jet_loop_matches_per_term_reference():
    # the one integer loop at p = 2, 3 and 4 orders, with its forward
    # differences of P_0 .. P_(p-1), against the per-term jet step with
    # P(m, eps) formed afresh and no stripped bits: integer for integer
    # through a fixed m_cap (tol 0 and floor 0 settle no stop test), with
    # zero and nonzero slopes and for each scaling of the fraction bits fb
    rng = random.Random(36)
    seen = set()
    wp = 48
    m_cap = 40
    for p in (2, 3, 4):
        for n in sorted({p, 4}):
            for fb in (wp, 0, -(-wp // n), 1):
                for slopes in ([0] * 4, [3, -1, 0, -5]):
                    head, zf, diffs, slopes, wp = _jet_loop_case(rng, n, p, wp, fb, slopes)
                    tables = _backend.fixed_tables(diffs, slopes, wp, len(head) - 1, p)
                    got = _backend.sum_first_kind_fixed(head, zf, tables, wp, 0, 0, 1, m_cap)
                    assert got == _sum_first_kind_fixed_jet_ref(head, zf, diffs, slopes, wp, m_cap)
                    assert got[2] == m_cap + 1
                    assert all(got[0][-1])  # the top order is carried through m_cap
                    seen.add(_scaling_case(diffs, wp))
    assert seen == {"nothing stripped", "fb = 0", "n fb >= wp", "n fb < wp"}


def _set_up_ref(diffs, slopes, wp, M, p, zf):
    """The loop's set-up formed afresh, as each call once made it: the
    differences stripped to their fraction bits fb, P_0 .. P_(p-1) sampled
    at m = M + 1 ... M + 1 + 2n, W = zf conj(P_0) sampled and differenced,
    R = |P_0|^2 differenced and scaled by down."""
    n = len(diffs)
    common = 0
    for dr, di in diffs:
        common |= dr | di
    strip = min(wp, (common & -common).bit_length() - 1) if common else wp
    fb = wp - strip
    diffs = [(dr >> strip, di >> strip) for dr, di in diffs]
    samples = []
    for m in range(M + 1, M + 2 + 2 * n):
        pc = [(1, 0)] + [(0, 0)] * (p - 1)
        for (dr, di), s in zip(diffs, slopes):
            ar = dr + (m << fb)
            pc = [
                (pr * ar - pi * di + (s * pc[j - 1][0] << fb if j else 0),
                 pr * di + pi * ar + (s * pc[j - 1][1] << fb if j else 0))
                for j, (pr, pi) in enumerate(pc)
            ]
        samples.append(pc)
    zr, zi = zf
    table = _backend._difference_table
    w = [(zr * pr + zi * pi, zi * pr - zr * pi) for (pr, pi), *_ in samples[: n + 1]]
    down = max(wp - n * fb, 0)
    return {
        "shift": max(n * fb - wp, 0), "down": down,
        "w": (table([a for a, _ in w]), table([b for _, b in w])),
        "r": [c << down for c in table([pr * pr + pi * pi for (pr, pi), *_ in samples])],
        "p": [table([pc[j][part] for pc in samples[: n - j + 1]])
              for j in range(p) for part in (0, 1)],
    }


def _loop_calls(monkeypatch):
    """The arguments of every call of the integer loop, in order."""
    calls = []
    loop = _backend.sum_first_kind_fixed

    def recorded(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(_backend, "sum_first_kind_fixed", recorded)
    return calls


@pytest.mark.parametrize(
    "lam, x, dps, p, want",
    [
        ((0.3, -0.1 + 0.2j, -0.2 - 0.2j), 2.0, 15, 1, {"n fb >= wp", "down = 0"}),
        ((0.25, -0.25), 3.0, 60, 1, {"n fb < wp", "down > 0"}),
        ((0.3 + 1e-3j, -0.3 - 1e-3j), 2.0, 5, 1, {"nothing stripped", "n fb >= wp", "down = 0"}),
        ((0.375, -0.625, 0.25), 2.0, 30, 2, {"n fb < wp", "down > 0"}),
        ((0.5, -0.5), 2.0, 30, 2, {"fb = 0", "down > 0"}),
        ((1.125, 0.125, -0.875, -0.375), 1.5, 30, 3, {"n fb < wp", "down > 0"}),
        ((0.375 + 0.25j, -0.625 + 0.25j, 0.25 - 0.5j), 2.0, 30, 2, {"n fb < wp", "down > 0"}),
    ],
)
def test_stored_loop_tables_match_a_fresh_set_up(monkeypatch, lam, x, dps, p, want):
    # each series' stored tables, after a round has stepped its loop, equal
    # the set-up formed afresh, integer for integer, and the loop returns
    # the same integers on them as on tables built afresh
    si = SpectralIndex(lam)
    z = SurfacePoint.from_positive(x)
    _empty_store(monkeypatch)
    calls = _loop_calls(monkeypatch)
    with mp.workdps(dps):
        rnd = series._Round(z, 1, si, mp.mpf(10) ** -dps, p)
        for l in range(1, si.rank + 1):
            series._first_kind_mp(rnd, l)
    u = series._jet.direction(si.rank)
    cases = set()
    calls = list(calls)  # the loop calls below are recorded too
    for l, (head, zf, tables, wp, *rest) in enumerate(calls, 1):
        assert tables is series._head_mp(si.lam, l, wp, p).tables
        with mp.workprec(wp):
            diffs = [series._to_fixed(mp.mpc(lk) - mp.mpc(si.lam[l - 1]), wp) for lk in si.lam]
        slopes = [uk - u[l - 1] for uk in u]
        ref = _set_up_ref(diffs, slopes, wp, len(head) - 1, p, zf)
        w = ([zf[0] * a + zf[1] * b for a, b in zip(*tables.p_tables[:2])],
             [zf[1] * a - zf[0] * b for a, b in zip(*tables.p_tables[:2])])
        assert (tables.shift, tables.down) == (ref["shift"], ref["down"])
        assert w == ref["w"] and [c << tables.down for c in tables.r_table] == ref["r"]
        assert list(map(list, tables.p_tables)) == ref["p"]
        fresh = _backend.fixed_tables(diffs, slopes, wp, len(head) - 1, p)
        assert fresh == tables
        got = _backend.sum_first_kind_fixed(head, zf, tables, wp, *rest)
        assert got == _backend.sum_first_kind_fixed(head, zf, fresh, wp, *rest)
        # and on them the loop steps what the per-term reference forms
        # afresh, through m_cap = 40 at tol 0
        got = _backend.sum_first_kind_fixed(head, zf, tables, wp, 0, 0, 1, 40)
        assert got == _sum_first_kind_fixed_jet_ref(head, zf, diffs, slopes, wp, 40)
        cases.add(_scaling_case(diffs, wp))
        cases.add("down > 0" if tables.down else "down = 0")
    assert len(calls) == si.rank and cases == want


def _check_head_terms(head, lam, l, wp, zf, p=1):
    """Assert that each part of each integer head term of the l-th series
    of lam (rows of p (re, im) pairs, as the round passes them to the
    loop) lies within 2^E + 2^(1-wp) |zf|^m max|c_m| of c_m zf^m formed in
    mpmath at 2 wp bits (_first_kind_mp), with c_m from head_coeffs at wp
    bits (jets at p > 1), zf the round's and E read off the last term, and
    that a coefficient that is exactly 0 gives an exactly 0 term.  Returns
    the number of such zeros."""
    u = series._jet.direction(len(lam))
    with mp.workprec(wp):
        d = [mp.mpc(lk) - mp.mpc(lam[l - 1]) for lk in lam]
        rgamma = mp.rgamma
        if p > 1:
            d = [series._jet.linear(dk, uk - u[l - 1], p) for dk, uk in zip(d, u)]
            rgamma = series._jet.rgamma
        coeffs = _backend.head_coeffs(d, len(head) - 1, lambda args: map(rgamma, args))
    zeros = 0
    with mp.workprec(2 * wp):
        values = [c.c if p > 1 else [c] for c in coeffs]
        refs = [[mp.mpc(v) * zf**m for v in row] for m, row in enumerate(values)]
        last = max(abs(v) for pair in head[-1] for v in pair)
        ref_last = max(max(abs(mp.re(c)), abs(mp.im(c))) for c in refs[-1])
        e = int(mp.nint(mp.log(ref_last / last, 2)))
        assert last.bit_length() == wp
        for m, (row, ref, vs) in enumerate(zip(head, refs, values)):
            top = max(max(abs(mp.re(v)), abs(mp.im(v))) for v in vs) * abs(zf) ** m
            bound = mp.ldexp(1, e) + mp.ldexp(top, 1 - wp)
            for (re_, im_), c in zip(row, ref):
                if c == 0:
                    assert (re_, im_) == (0, 0)
                    zeros += 1
                    continue
                assert abs(mp.ldexp(re_, e) - mp.re(c)) <= bound
                assert abs(mp.ldexp(im_, e) - mp.im(c)) <= bound
    return zeros


@pytest.mark.parametrize(
    "lam, x, p",
    [
        ((0.3 + 0.1j, -0.3 - 0.1j), 1.0, 1),  # |zf| = 1
        ((0.3, -0.2, -0.1), 0.9999, 1),  # |zf| just below 1
        ((0.3 + 0.1j, -0.3 - 0.1j), 2.0**-21, 1),  # |zf| = 2^-42
        ((2.5, -2.5), 0.8, 1),  # a pole crossing, summed at p = 1
        ((0.5, -0.5), 2.0**-21, 2),  # a crossing in the jet's eps^0 coefficient
    ],
)
def test_integer_head_terms_within_their_rounding(monkeypatch, lam, x, p):
    # each series' head terms within their stated rounding of c_m zf^m
    # (_check_head_terms), exact zeros where a pole crossing makes them
    _empty_store(monkeypatch)
    si = SpectralIndex(lam)
    z = SurfacePoint.from_positive(x)
    calls = _loop_calls(monkeypatch)
    with mp.workdps(30):
        rnd = series._Round(z, 1, si, mp.mpf(10) ** -30, p)
        for l in range(1, si.rank + 1):
            series._first_kind_mp(rnd, l)
    zeros = sum(_check_head_terms(head, si.lam, l, rnd.wp, rnd.zf, p)
                for l, (head, *_) in enumerate(calls, 1))
    assert (zeros > 0) == (lam[0] - lam[1] in (5.0, 1.0))
    if x < 1e-6:
        assert abs(rnd.zf) < mp.mpf(2) ** -40


@pytest.mark.parametrize("lam, signs, x", [((0.3, -0.1, -0.2), "++-", 20.0),
                                           ((0.5, -0.5), "+-", 6.0)])
def test_cold_and_warm_j_function_repeat_bit_for_bit(monkeypatch, lam, signs, x):
    # one j_function point whose big-float rounds build each series' head
    # entry on the cold call and read it from the store on the warm one:
    # the same bits both times, and as with every entry built afresh
    rounds = _record_rounds(monkeypatch)
    args = (x, SignVector(signs), SpectralIndex(lam), 1e-10)
    cold, warm, fresh, hits = _cold_warm_fresh(monkeypatch, lambda: j_function(*args))
    assert rounds and hits["head"] == len(rounds) // 3 * len(lam)
    assert len({(r.value, r.tail_bound, r.terms_used) for r in (cold, warm, fresh)}) == 1


def test_double_head_rows_ignore_the_sign_of_zero(monkeypatch):
    # the double pass's head rows are stored by lam, whose doubles do not
    # tell 0.0 from -0.0 as keys; either index gets the same bits whichever
    # filled the store first, and cold, warm and fresh
    minus = SpectralIndex([complex(0.3, -0.0), complex(-0.3, 0.0)])
    plus = SpectralIndex([complex(0.3, 0.0), complex(-0.3, 0.0)])
    assert minus.lam == plus.lam
    # the differences lam_k - lam_2 of the double pass differ in a zero's sign
    diffs = [np.array([v - lam[1] for v in lam]) for lam in (minus.lam, plus.lam)]
    assert (diffs[0] == diffs[1]).all()
    assert np.signbit(diffs[0].imag[0]) != np.signbit(diffs[1].imag[0])

    def bits(si):
        out = [first_kind(x, s, si, l) for x in (0.7, 4.0) for s in (1, -1) for l in (1, 2)]
        out += [j_function(x, SignVector(sv), si) for x in (1.5, 20.0) for sv in ("++", "+-")]
        return [
            (r.value.real.hex(), r.value.imag.hex(), r.tail_bound.hex(), r.terms_used) for r in out
        ]

    fresh = {}
    for name, si in (("minus", minus), ("plus", plus)):
        fresh[name] = _built_afresh(monkeypatch, bits, si)
    for order in (("minus", "plus"), ("plus", "minus")):
        store = _empty_store(monkeypatch)
        for name in order + order:  # cold, then warm
            assert bits(minus if name == "minus" else plus) == fresh[name]
        assert store.hits["double"] > 0


def _bits(rows):
    return [[(v.real.hex(), v.imag.hex()) for v in row] for row in rows]


def _rgamma_product(diffs, m, rgamma=mp.rgamma):
    """prod_k 1/Gamma(d_k + m + 1), one reciprocal gamma per entry."""
    return math.prod(rgamma(d + (m + 1)) for d in diffs)


def test_double_head_rows_are_one_point_reciprocal_gammas(monkeypatch):
    # the double pass's head coefficients: each is the head of mp.rgamma
    # values at its build precision, 64 bits plus the bit length of
    # n (M + 1), with the differences formed there from lam, rounded once to
    # a double, so each part lies within half an ulp, plus that precision's
    # rounding, of a 40-digit product of one reciprocal gamma per factor; at
    # lam = (1, -1) the arguments d_2 + m + 1 of l = 1 are -1 and 0 at
    # m = 0, 1, and the head vanishes there exactly
    indices = [
        (1.0, -1.0),
        (0.31, -0.12 + 0.2j, -0.23, 0.14 - 0.1j, -0.06),
        (2.5, -1.25 + 0.5j, -1.2),
    ]
    heads = {}
    for lam in indices:
        si = SpectralIndex(lam)
        for l in range(1, si.rank + 1):
            diffs = np.array([lk - si.lam[l - 1] for lk in si.lam], dtype=np.complex128)
            head = _built_afresh(monkeypatch, series._double_head, si.lam, l, diffs)
            heads[lam, l] = head
            top = len(head) - 1
            assert top == series._m_fresh(diffs)
            wp = 64 + (si.rank * (top + 1)).bit_length()
            with mp.workprec(wp):
                lam_mp = [mp.mpc(v) for v in si.lam]
                d = [lk - lam_mp[l - 1] for lk in lam_mp]
                want = _backend.head_coeffs(d, top, lambda args: map(mp.rgamma, args))
            assert _bits([head]) == _bits([[complex(c) for c in want]])
            with mp.workdps(40):
                d = [mp.mpc(lk) - mp.mpc(si.lam[l - 1]) for lk in si.lam]
                for m, got in enumerate(head):
                    ref = _rgamma_product(d, m)
                    for part, ref_part in ((got.real, ref.real), (got.imag, ref.imag)):
                        gap = abs(part - ref_part)
                        assert gap <= math.ulp(part) / 2 + abs(ref) * mp.mpf(2) ** (1 - wp)
    head = heads[(1.0, -1.0), 1]
    assert head[0] == head[1] == 0
    assert len(head) == 5 and all(c != 0 for c in head[2:])


def _first_kind_ref(si, l, x, terms=60, sign=1):
    """J_l(x; sign) as a 40-digit sum of its first terms, each with one
    reciprocal gamma per factor."""
    n = si.rank
    with mp.workdps(40):
        lam = [mp.mpc(v) for v in si.lam]
        d = [lk - lam[l - 1] for lk in lam]
        zf = sign * series._I_POW[n % 4] * mp.mpf(x) ** n
        total = mp.fsum(zf**m * _rgamma_product(d, m) for m in range(terms))
        return complex(total * mp.mpf(x) ** (-n * lam[l - 1]))


def test_double_head_is_not_multiplied_down_from_an_underflowed_top():
    # at large |lambda| the top of a head, prod_k 1/Gamma(d_k + M + 1),
    # underflows where the coefficients below it are ordinary doubles: at
    # lam = (85.25, -85.25), l = 1, 1/Gamma(173) is subnormal, and at rank 6
    # the five factors near 1/Gamma(50) of l = 6 multiply to one.  J_l agrees
    # with a 40-digit sum within its tail bound, not 1e-11 relative off
    cases = [((85.25, -85.25), 1), ((7.5, 7.625, 7.75, 7.875, 8.25, -39.0), 6)]
    for lam, l in cases:
        si = SpectralIndex(lam)
        got = first_kind(1.0, 1, si, l)
        ref = _first_kind_ref(si, l, 1.0)
        assert got.value != 0 and abs(got.value - ref) <= got.tail_bound
    # at lam = (88.25, -88.25) the top underflows to 0 and c_0 =
    # 1/Gamma(-175.5) overflows: the double pass raises, it does not return
    # 0 +- 0, and the sign-vector function goes to the big-float rounds
    si = SpectralIndex([88.25, -88.25])
    with pytest.raises(OverflowEvalError):
        first_kind(2.0, 1, si, 1)
    value = j_function(2.0, SignVector("+-"), si)
    assert value.value != 0 and value.tail_bound <= 1e-10 * abs(value.value)
    # at x = 1 the certified |J| is beyond double range: a typed error, not
    # inf +- inf
    with pytest.raises(OverflowEvalError):
        j_function(1.0, SignVector("+-"), si)


def test_first_kind_tail_covers_its_error():
    # J_1 at lam = (5, -5), x = 1, and seeded draws of ranks 2-6 with
    # |Re lam| <= 5, |Im lam| <= 1 and x in [0.2, 3] (the first draws of
    # tools/tail_scan.py's first_kind scan) at both signs: each value lies
    # within its reported tail of a 40-digit sum.  With Lanczos heads from
    # the double differences and no prefactor rounding in the tail, the
    # first was 7.9e-22 off with 5.4e-22 reported, and many draws were past
    # their tails
    si = SpectralIndex([5, -5])
    got = first_kind(1.0, +1, si, 1)
    assert abs(got.value - _first_kind_ref(si, 1, 1.0)) <= got.tail_bound
    rng = np.random.default_rng(2026)
    for _ in range(24):
        n = int(rng.integers(2, 7))
        si = SpectralIndex(list(rng.uniform(-5, 5, n) + 1j * rng.uniform(-1, 1, n)))
        x = float(rng.uniform(0.2, 3))
        l = int(rng.integers(1, n + 1))
        rng.choice([1, -1])
        for sign in (1, -1):
            got = first_kind(x, sign, si, l)
            ref = _first_kind_ref(si, l, x, sign=sign)
            assert abs(got.value - ref) <= got.tail_bound, (x, sign, si.lam, l)


def test_first_kind_term_modulus_overflow_is_typed():
    # a term whose real and imaginary parts are finite doubles but whose
    # modulus is not: OverflowEvalError (which sends _j_generic to the
    # big-float rounds), not Python's OverflowError from abs()
    cases = [
        ((88.25 + 0.25j, -88.25 - 0.25j), 1.0),
        ((89.25, -89.25), SurfacePoint(math.log(4.0), 0.75)),
    ]
    for lam, z in cases:
        with pytest.raises(OverflowEvalError):
            first_kind(z, 1, SpectralIndex(lam), 1)


def test_head_coeffs_agree_with_rgamma_products():
    # one product of n reciprocal gammas at the top of the head, multiplied
    # down, against a product of n reciprocal gammas per entry 10 digits
    # higher, at ranks 1-6 and complex generic indices
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(2):
            lam = [complex(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in range(n)]
            for lam_l in lam:
                d = [lk - lam_l for lk in lam]
                fresh = series._m_fresh(d)
                with mp.workdps(50):
                    head = _backend.head_coeffs(
                        [mp.mpc(v) for v in d], fresh, lambda args: map(mp.rgamma, args)
                    )
                with mp.workdps(60):
                    for m, c in enumerate(head):
                        ref = _rgamma_product([mp.mpc(v) for v in d], m)
                        assert abs(c - ref) <= mp.mpf(10) ** -47 * abs(ref)


def _row_values(row, e):
    # the values of a stored head row, (re, im) integers of exponent e
    return [mp.mpc(mp.mpf((re, e)), mp.mpf((im, e))) for re, im in row]


def test_head_coeffs_vanish_before_an_integer_crossing(monkeypatch):
    # d = (0, -p) for l = 1 at lam = (p/2, -p/2): 1/Gamma(m + 1 - p) = 0 for
    # m < p, exactly, in double and in mpmath; nonzero from m = p on
    for p in (1, 10):
        si = SpectralIndex([p / 2, -p / 2])
        diffs = np.array([lk - si.lam[0] for lk in si.lam], dtype=np.complex128)
        double = _built_afresh(monkeypatch, series._double_head, si.lam, 1, diffs)
        entry = _built_afresh(monkeypatch, series._head_mp, si.lam, 1, 200)
        with mp.workprec(300):
            big = [_row_values(row, e)[0] for row, e in zip(entry.rows, entry.exps)]
        for head in (double, big):
            assert len(head) == p + 3
            assert all(c == 0 for c in head[:p]) and all(c != 0 for c in head[p:])
        with mp.workdps(60):
            for m in range(p, p + 3):
                ref = _rgamma_product([mp.mpc(v) for v in diffs.tolist()], m)
                assert abs(double[m] - ref) <= 1e-14 * abs(ref)
                assert abs(big[m] - ref) <= mp.mpf(2) ** -190 * abs(ref)


def test_first_kind_table_is_built_at_its_digits():
    # the grid's coefficient table against per-entry reciprocal gamma
    # products at 60 digits: the 50-digit terms it rounds within 1e-45
    # relative, and the stored pair mantissas within 2^-104
    si = SpectralIndex([1.3 + 0.2j, -0.4 - 0.1j, -0.9 - 0.1j])
    table = series._FirstKindTable(si.lam)
    terms = series._FirstKindTable(si.lam)._terms
    table.extend(24)
    for l, lam_l in enumerate(si.lam):
        d = [mp.mpc(lk) - mp.mpc(lam_l) for lk in si.lam]  # exact at 60 digits
        for m in range(25):
            with mp.workdps(series._GRID_DPS):
                t = next(terms[l])
            with mp.workdps(60):
                ref = _rgamma_product(d, m)
                assert abs(t - ref) <= mp.mpf(10) ** -45 * abs(ref)
                (re, im), e = table.coeffs[l][m]
                got = mp.mpc(*(mp.ldexp(mp.mpf(x[0]) + x[1], e) for x in (re, im)))
                assert abs(got - ref) <= mp.mpf(2) ** -104 * abs(ref)


def test_first_kind_is_not_cut_short_by_exact_zeros():
    # at lam = (p/2, -p/2) the terms of J_1 vanish for m < p; they are no
    # tail, so J_1 = (-1)^p J_2 within the two tail bounds, not 0 +- 0
    for p in (10, 16):
        si = SpectralIndex([p / 2, -p / 2])
        for x in (0.3, 1.0, 2.0):
            j1, j2 = (first_kind(x, 1, si, l) for l in (1, 2))
            assert j1.value != 0
            assert abs(j1.value - (-1) ** p * j2.value) <= j1.tail_bound + j2.tail_bound


def test_index_whose_head_passes_the_round_cap_raises():
    # lambda_1 - lambda_2 = 1e17 (an integer: the limit on jets) or 6e4 + 1/2
    # (generic): a series has some 1e17 or 6e4 head terms through its last
    # pole crossing, past the 50 000 a big-float round sums beyond m_min, so
    # the series raises at once, before any head is built
    for lam, signs in (([1e17, 0.0], "++"), ([3e4 + 0.25, -3e4 - 0.25], "+-")):
        t0 = time.perf_counter()
        with pytest.raises(OverflowEvalError, match="head terms, past the 50006"):
            j_function(1.0, SignVector(signs), SpectralIndex(lam))
        assert time.perf_counter() - t0 < 0.5


def test_series_beyond_reach_raises_overflow():
    # n|z| = 2e308 cannot be summed at any precision; a typed error, not an
    # OverflowError from int(inf)
    with pytest.raises(OverflowEvalError):
        j_function(1e308, SignVector("++"), SpectralIndex([0.2, -0.2]))


# ---------------------------------------------------------------------------
# the store of index constants
# ---------------------------------------------------------------------------


class _CountingStore(series._Store):
    """The module's store, counting hits by the kind of constant."""

    def __init__(self):
        super().__init__()
        self.hits = {}

    def __call__(self, key, cost, build):
        self.hits[key[0]] = self.hits.get(key[0], 0) + (key in self)
        return super().__call__(key, cost, build)


def _empty_store(monkeypatch):
    store = _CountingStore()
    monkeypatch.setattr(series, "_stored", store)
    return store


def _cold_warm_fresh(monkeypatch, evaluate):
    """evaluate() from an empty store, again from the store, and with every
    constant built afresh; and the store hits of the second call by kind."""
    store = _empty_store(monkeypatch)
    cold = evaluate()
    before = dict(store.hits)
    warm = evaluate()
    hits = {k: v - before.get(k, 0) for k, v in store.hits.items()}
    with monkeypatch.context() as m:
        m.setattr(series, "_stored", series._Store())
        m.setattr(series, "_STORE_BYTES", 0)  # no entry fits
        fresh = evaluate()
        assert not series._stored
    return cold, warm, fresh, hits


def _built_afresh(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(series, "_stored", series._Store())
        m.setattr(series, "_STORE_BYTES", 0)
        return fn(*args)


def test_cached_rank3_kernel_repeats_bit_for_bit(monkeypatch):
    # a series-route kernel point whose double pass does not certify: one
    # big-float round, its coefficients, head rows and root rows stored (the
    # point lies in the asymptotic band, so the route is asked for by name)
    rounds = _record_rounds(monkeypatch)
    ki = KernelIndex(SpectralIndex([0.3, -0.1, -0.2]), (0, 1, 0))
    runs = _cold_warm_fresh(monkeypatch, lambda: bessel_kernel(2.0, ki, "series", 1e-9))
    assert runs[0].method == "series" and rounds == [43] * 3
    assert min(runs[3][k] for k in ("coeffs", "roots", "head", "double")) > 0
    assert len({(r.value, r.error, r.cancellation) for r in runs[:3]}) == 1


def test_cached_jet_rounds_repeat_bit_for_bit(monkeypatch):
    # lambda_1 - lambda_2 = 3: the limit is one big-float round on jets, with
    # the jet coefficients and heads stored; x = 20 lies below the
    # asymptotic floor, so the round is sized from the term mass alone
    rounds = _record_rounds(monkeypatch)
    args = (20.0, SignVector("+-"), SpectralIndex([1.5, -1.5]), 1e-10)
    runs = _cold_warm_fresh(monkeypatch, lambda: j_function(*args))
    assert rounds == [53] * 3
    assert runs[3]["coeffs"] > 0 and runs[3]["head"] > 0
    assert len({(r.value, r.tail_bound, r.terms_used) for r in runs[:3]}) == 1
    with mp.workdps(40):
        want = complex(2 * mp.expjpi(-1.5) * mp.besselk(3, 2 * _modulus(20.0)))
    assert abs(runs[0].value - want) <= runs[0].tail_bound <= 1e-10 * abs(want)
    # a kernel that vanishes identically: its root rows are jets too
    rounds.clear()
    ki = KernelIndex(SpectralIndex([1.0, -1.0]), (1, 0))
    runs = _cold_warm_fresh(monkeypatch, lambda: bessel_kernel(-2.0, ki, "series"))
    assert len(rounds) == 3 and runs[3]["roots"] > 0
    assert len({(r.value, r.error, r.cancellation) for r in runs[:3]}) == 1


def test_cached_escalating_j_function_repeats_bit_for_bit(monkeypatch):
    # below the asymptotic floor (42.25 at |lambda| = 2.25) the first round
    # is sized from the double pass: the 49-digit round fails and the
    # 86-digit one certifies
    rounds = _record_rounds(monkeypatch)
    args = (20.0, SignVector("+-"), SpectralIndex([2.25, -2.25]), 1e-10)
    runs = _cold_warm_fresh(monkeypatch, lambda: j_function(*args))
    assert rounds == [49, 86] * 3
    assert len({(r.value, r.tail_bound, r.terms_used) for r in runs[:3]}) == 1
    want = 2 * complex(mp.expjpi(-2.25) * mp.besselk(4.5, 40))
    assert abs(runs[0].value - want) <= 1e-10 * abs(want)
    # above the floor the first round, sized from the leading term, certifies
    rounds.clear()
    args = (20.0, SignVector("+-"), SpectralIndex([0.25, -0.25]), 1e-10)
    runs = _cold_warm_fresh(monkeypatch, lambda: j_function(*args))
    assert len(rounds) == 3 and max(rounds) < 100
    assert len({(r.value, r.tail_bound, r.terms_used) for r in runs[:3]}) == 1
    want = 2 * complex(mp.expjpi(-0.25) * mp.besselk(0.5, 40))
    assert abs(runs[0].value - want) <= 1e-10 * abs(want)


def test_index_caches_keep_precisions_apart(monkeypatch):
    # one key at two precisions: each entry is the fresh build at its own
    store = _empty_store(monkeypatch)
    lam = SpectralIndex([0.3, -0.1, -0.2]).lam
    kind = ("kernel", (0, 1, 0), 1)
    for dps in (30, 60, 30, 60):
        fresh = _built_afresh(monkeypatch, series._coeffs_mp, lam, kind, dps)
        assert series._coeffs_mp(lam, kind, dps) == fresh
        fresh = _built_afresh(monkeypatch, series._root_rows_mp, lam, 1, dps)
        assert series._root_rows_mp(lam, 1, dps) == fresh
        bits = series.dps_to_prec(dps)
        fresh = _built_afresh(monkeypatch, series._head_mp, lam, 2, bits)
        assert series._head_mp(lam, 2, bits) == fresh
    assert series._coeffs_mp(lam, kind, 30) != series._coeffs_mp(lam, kind, 60)
    assert series._head_mp(lam, 2, 100) != series._head_mp(lam, 2, 200)
    # the kernel coefficients are built from the root rows at their own
    # digits, so the rows asked for after them are found at each precision
    assert store.hits == {"coeffs": 4, "roots": 4, "head": 2}


def test_index_caches_are_bounded(monkeypatch):
    # no rank or precision gate: what fits the budget is kept, and an entry
    # charged more than the budget is built at each use and not kept
    store = _empty_store(monkeypatch)
    lam5 = SpectralIndex([0.3, -0.1, -0.2, 0.15, -0.05]).lam
    lam7 = SpectralIndex([0.1 * k for k in range(7)]).lam
    lam12 = SpectralIndex([0.1 * k + 0.03j * k * k for k in range(12)]).lam
    # each kernel coefficient set keeps the root rows it is built from
    series._coeffs_mp(lam7, ("kernel", (0,) * 7, 1), 40)
    series._coeffs_mp(lam5, ("kernel", (0,) * 5, 1), 400)
    series._head_mp(SpectralIndex([0.0]).lam, 1, 2000)
    assert len(store) == 5
    assert store.held == sum(cost for _, cost in store.values())
    monkeypatch.setattr(series, "_STORE_BYTES", store.held)
    # the rank-12 rows at 400 digits (84 numbers) are charged above it
    assert series._charge(84, series.dps_to_prec(400)) > store.held
    for _ in range(2):
        assert series._root_rows_mp(lam12, 1, 400) == _built_afresh(
            monkeypatch, series._root_rows_mp, lam12, 1, 400
        )
    assert len(store) == 5 and store.hits["roots"] == 0


def _assert_reference_built_once(monkeypatch, n, x):
    builds = []
    root_rows = series._root_rows

    def counted(ctx, lam, parity):
        builds.append(mp.mp.dps if ctx is mp else None)
        return root_rows(ctx, lam, parity)

    monkeypatch.setattr(series, "_root_rows", counted)
    # an index no other test uses, so that nothing of it is stored before;
    # the series route by name (rank 5 at x = 1 lies in the asymptotic band)
    lam = [0.31, -0.12, -0.23, 0.14, -0.06, 0.11, 0.27, -0.35, 0.02, -0.17, 0.38, -0.29]
    ki = KernelIndex(SpectralIndex(lam[:n]), [int(k % 3 == 1) for k in range(n)])
    # in mpmath only, twice: at the pair grid's digits for the double pass's
    # K_l, and at the digits of the big-float round that certifies
    first = bessel_kernel(x, ki, "series", 1e-9)
    assert first.method == "series" and len(builds) == 2
    assert builds[0] == series._GRID_DPS and None not in builds
    built = list(builds)
    again = bessel_kernel(x, ki, "series", 1e-9)
    assert builds == built
    assert (again.value, again.error, again.cancellation) == (
        first.value, first.error, first.cancellation
    )


@pytest.mark.parametrize("n, x", [(5, 1.0), (6, 0.3)], ids=["rank5", "rank6"])
def test_rank5_and_rank6_signvec_sets_are_kept(monkeypatch, n, x):
    # a series-zone kernel point past rank 4 builds what its cancellation
    # reference (the largest sign-vector value) needs once, not at every
    # evaluation: the root rows that stand for the sign-vector sets
    _assert_reference_built_once(monkeypatch, n, x)


def test_rank12_root_rows_are_kept(monkeypatch):
    # at rank 12 too, where 2^(n-1) sign-vector coefficient sets would be
    # charged above the store's budget
    _assert_reference_built_once(monkeypatch, 12, 0.5)


def test_double_pass_reads_the_rounded_grid_coefficients():
    # the double pass's K_l, its bounds |K_l| and the rows of its
    # cancellation reference are the pair grid's 50-digit values rounded once
    for n in (1, 2, 3, 5):
        lam = SpectralIndex([0.31, -0.12 + 0.2j, -0.23, 0.14 - 0.1j, -0.06][:n]).lam
        deltas = tuple(k % 2 for k in range(n))
        for parity in (1, -1):
            kern, bounds, rows = series._coeffs_double(lam, ("kernel", deltas, parity))
            want_rows = series._root_rows_mp(lam, parity, series._GRID_DPS)
            want = series._kernel_coeffs(lam, deltas, parity, series._GRID_DPS, want_rows)[0]
            with mp.workdps(series._GRID_DPS):
                assert kern == [complex(c) for c in want]
                assert list(bounds) == [float(abs(c)) for c in want]
                assert rows == [[complex(c) for c in row] for row in want_rows]


def test_series_kernel_and_grid_share_one_coefficient_entry(monkeypatch):
    # bessel_kernel's double pass and kernel_series_grid read one stored
    # entry per index, deltas and parity: K_l is built once at 50 digits
    _empty_store(monkeypatch)
    built = []
    kernel_coeffs = series._kernel_coeffs

    def counted(lam, deltas, parity, dps, rows):
        built.append((parity, dps))
        return kernel_coeffs(lam, deltas, parity, dps, rows)

    monkeypatch.setattr(series, "_kernel_coeffs", counted)
    ki = KernelIndex(SpectralIndex([0.27, -0.08 + 0.1j, -0.19]), (0, 1, 1))
    first = [bessel_kernel(x, ki, "series", 1e-9) for x in (0.4, -0.4)]
    series.kernel_series_grid(np.array([0.5, 2.0, 4.0]), ki.lam, ki.deltas)
    again = [bessel_kernel(x, ki, "series", 1e-9) for x in (0.4, -0.4)]
    # (the big-float rounds of the points build their own, at their digits)
    grid = [b for b in built if b[1] == series._GRID_DPS]
    assert grid == [(1, series._GRID_DPS), (-1, series._GRID_DPS)]
    assert [(r.value, r.error) for r in first] == [(r.value, r.error) for r in again]


def test_store_evicts_least_recently_used_within_budget(monkeypatch):
    monkeypatch.setattr(series, "_STORE_BYTES", 100)
    store = series._Store()
    built = []

    def get(key, cost):
        return store(key, cost, lambda: built.append(key) or key.upper())

    assert [get("a", 40), get("b", 40), get("a", 40)] == ["A", "B", "A"]
    get("c", 40)  # b is the least recently used
    assert list(store) == ["a", "c"] and store.held == 80
    get("b", 30)
    assert list(store) == ["c", "b"] and store.held == 70
    assert get("d", 101) == "D" and get("d", 101) == "D"  # over the budget
    get("e", 100)
    assert list(store) == ["e"] and store.held == 100
    assert built == ["a", "b", "c", "b", "d", "d", "e"]


def test_store_holds_no_more_than_its_budget(monkeypatch):
    # a budget of a few entries under rank-4 kernel evaluations: after each
    # call the held charges stay within it while more than it is charged,
    # and the values are those of the fresh builds
    monkeypatch.setattr(series, "_STORE_BYTES", 60_000)
    _empty_store(monkeypatch)
    held = []
    charged = []
    call = series._Store.__call__

    def watched(self, key, cost, build):
        charged.append(0 if key in self else cost)
        value = call(self, key, cost, build)
        held.append(self.held)
        assert self.held == sum(c for _, c in self.values())
        return value

    monkeypatch.setattr(_CountingStore, "__call__", watched)
    # (x = 2 lies in the asymptotic band: the series route is asked for by name)
    ki = KernelIndex(SpectralIndex([0.3, -0.1, -0.25, 0.05]), (0, 1, 0, 1))
    kernel = [bessel_kernel(x, ki, "series", 1e-9) for x in (0.6, 2.0, 0.6)]
    assert max(held) <= 60_000 < sum(charged)
    fresh = _built_afresh(monkeypatch, bessel_kernel, 2.0, ki, "series", 1e-9)
    assert (kernel[1].value, kernel[1].error) == (fresh.value, fresh.error)
    assert (kernel[0].value, kernel[0].error) == (kernel[2].value, kernel[2].error)


def _build_each_kind():
    """One stored constant of each kind at ranks 1-6, at 20 to 2000 digits
    (2000 at ranks 1 and 2 only, to keep the builds short: the mantissas
    are charged per number at any rank; a complex head at 2000 digits takes
    seconds, so the one there is rank 1's, 1/Gamma(m + 1))."""
    series._head_mp((0j,), 1, series.dps_to_prec(2000))
    series._head_mp((0.5 + 0j, -0.5 + 0j), 2, series.dps_to_prec(300), 2)  # jets, p = 2
    for dps in (20, 300, 2000):
        series._tens(dps)
    for n in range(1, 7):
        si = SpectralIndex([0.1 * k + 0.03j * k * k for k in range(n)])
        deltas = tuple(k % 2 for k in range(n))
        for dps in (20, 300, 2000)[: 3 if n <= 2 else 2]:
            series._coeffs_mp(si.lam, ("kernel", deltas, 1), dps)
            series._coeffs_mp(si.lam, ("signvec", SignVector(("+-" * 3)[:n])), dps)
            series._root_rows_mp(si.lam, -1, dps)
            if dps < 2000:
                series._head_mp(si.lam, n, series.dps_to_prec(dps))
        series.first_kind(0.5, 1, si, n)  # the double pass's head rows
        series.kernel_series_grid(np.array([0.5]), si, deltas)  # a table and pairs
        series.derivatives(0.5, SignVector(("+-" * 3)[:n]), si, 0)  # the index-shift matrix
        for k in (0, n):
            asympt.b_coeffs(si, RootOfUnity(2 * n, k))


def test_store_charges_bound_entry_sizes(monkeypatch):
    # each charge is at least what tracemalloc counts for the value and a
    # copy of its key, built after a first pass has warmed mpmath's own
    # caches; a first-kind table is measured at every length it is charged
    # for, as a fresh table grown to that length
    sizes = []
    table_lengths = set()

    def measured(key, cost, build):
        table = build() if key[0] == "table" else None
        # numpy keeps up to 7 freed shape buffers per array rank and reuses
        # them; filling that cache first keeps the buffers of a build's
        # temporary arrays from being counted as the entry's
        [np.empty((0,) * nd) for nd in (1, 2, 3) for _ in range(8)]
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        if table is None:
            value = made = build()
        else:
            value, made = table, series._FirstKindTable(key[1])
            made.extend(len(table.coeffs[0]) - 1)
            table_lengths.add((len(key[1]), len(made.coeffs[0])))
        key_copy = pickle.loads(pickle.dumps(key))
        gc.collect()
        sizes.append((key[0], cost, tracemalloc.get_traced_memory()[0] - before))
        del key_copy, made
        return value

    monkeypatch.setattr(series, "_stored", measured)
    gc.freeze()  # so that the collections scan only what the builds made
    try:
        _build_each_kind()
        sizes.clear()
        tracemalloc.start()
        _build_each_kind()
    finally:
        tracemalloc.stop()
        gc.unfreeze()
    kinds = {"coeffs", "roots", "head", "double", "table", "grid", "u", "b", "tens"}
    assert {kind for kind, _, _ in sizes} == kinds
    assert [s for s in sizes if s[2] > s[1]] == []
    assert min(size for _, _, size in sizes) > 0
    # each rank's table is charged empty, then at the length the sweep grew it to
    assert sorted(r for r, t in table_lengths if t == 0) == list(range(1, 7))
    assert sorted(r for r, t in table_lengths if 2 < t < series._GRID_M_CAP) == list(range(1, 7))


def test_grid_table_is_charged_for_the_terms_it_holds(monkeypatch):
    # after a sweep the table is charged for its length, not for its cap;
    # growing it raises the charge, and a table charged again over the
    # budget is not kept
    si = SpectralIndex([0.21 + 0.1j, -0.21 - 0.1j])
    deltas = (0, 1)
    key = ("table", si.lam)
    store = _empty_store(monkeypatch)
    charges = []
    values = []
    for inner in (0.3, 3.0):
        values.append(series.kernel_series_grid(np.array([0.1, inner]), si, deltas))
        table, charge = store[key]
        terms = len(table.coeffs[0])
        assert terms < series._GRID_M_CAP
        assert charge == series._charge(2 * (terms + 6), series.dps_to_prec(series._GRID_DPS))
        assert store.held == sum(c for _, c in store.values())
        charges.append(charge)
    assert charges[0] < charges[1]

    store = _empty_store(monkeypatch)
    monkeypatch.setattr(series, "_STORE_BYTES", charges[0])
    short = series.kernel_series_grid(np.array([0.1, 0.3]), si, deltas)
    assert [a.tobytes() for side in short for a in side] == [
        v.tobytes() for side in values[0] for v in side
    ]
    assert store[key][1] == charges[0] == store.held
    again = series.kernel_series_grid(np.array([0.1, 3.0]), si, deltas)
    assert key not in store and store.held == sum(c for _, c in store.values())
    assert [a.tobytes() for side in again for a in side] == [
        v.tobytes() for side in values[1] for v in side
    ]


def _per_parity_grid(inner, parity, si, deltas, tol=1e-9):
    """kernel_series_grid at one parity by a plain Horner in r = |zf| over
    the coefficients rotated by (parity i^n)^m: the sweep as it was before
    the parities shared one pass, kept as the reference of the split."""
    n = si.rank
    deltas = tuple(int(d) % 2 for d in deltas)
    inner = np.asarray(inner, dtype=float)
    ok = n * inner <= 690.0
    kern, rows, kern_abs, tops = series._kernel_grid_coeffs(si.lam, deltas, parity)
    logs = np.array([math.log(z) for z in np.where(ok, inner, 1.0)])
    nl = _pair.two_prod(float(n), logs)
    r = _pair.dd_exp(nl)
    shift = np.frexp(r[0])[1]
    r_scaled = (np.ldexp(r[0], -shift), np.ldexp(r[1], -shift))
    quarter = n % 4 + (0 if parity > 0 else 2)
    zero = np.zeros(inner.shape)
    value = ((zero, zero), (zero, zero))
    family = []
    err = np.zeros(inner.shape)
    table = series._FirstKindTable(si.lam)
    sums = series._sum_degrees(table, r[0])
    for l in range(n):
        deg, mass, wmass, tail = (s[l] for s in sums)
        ok &= deg >= 0
        acc = ((zero, zero), (zero, zero))
        for m in range(int(deg.max()), -1, -1):
            mant, e = table.coeffs[l][m]
            scale = np.where(deg >= m, e + shift * m, -2000)
            c = tuple(
                (np.ldexp(part[0], scale), np.ldexp(part[1], scale))
                for part in series._rotate(mant, quarter * m)
            )
            acc = (
                _pair.dd_add(_pair.dd_mul(acc[0], r_scaled), c[0]),
                _pair.dd_add(_pair.dd_mul(acc[1], r_scaled), c[1]),
            )
        lam_l = si.lam[l]
        w = (_pair.dd_mul(nl, (-lam_l.real, 0.0)), _pair.dd_mul(nl, (-lam_l.imag, 0.0)))
        pref = _pair.cdd_exp(w)
        family.append(_pair.cdd_mul(pref, acc))
        value = _pair.cdd_add(value, _pair.cdd_mul(kern[l], family[-1]))
        wsize = np.hypot(w[0][0], w[1][0])
        err += kern_abs[l] * series._pair_abs(pref) * (
            series._U2
            * (
                16.0 * (mass + wmass)
                + (16.0 + 4.0 * np.abs(nl[0])) * wmass
                + (16.0 + 4.0 * wsize) * mass
            )
            + tail
        )
    peak = zero
    for row, top in zip(rows, tops):
        g = ((zero, zero), (zero, zero))
        for c, f in zip(row, family):
            g = _pair.cdd_add(g, _pair.cdd_mul(c, f))
        peak = np.maximum(peak, top * series._pair_abs(g))
    size = series._pair_abs(value)
    err = err + 4.0 * np.finfo(float).eps * size
    ok &= (err <= tol * size) & (size > 0)
    out = np.empty(inner.shape, dtype=np.complex128)
    out.real = value[0][0] + value[0][1]
    out.imag = value[1][0] + value[1][1]
    return out, err, peak, ok


@pytest.mark.parametrize("n", range(1, 7))
def test_split_horner_grid_matches_per_parity_horner(n):
    # one pass for both parities (even and odd Horner halves in r^2) against
    # the per-parity Horner in r: the same certified nodes, values within
    # 0.05 of their errors, and the same error bounds, bit for bit where the
    # values are: the formula is kept, and only its 4 eps |value| term sees
    # the value, so where that moved in its last bits the sum may round one
    # unit either way.  On the certified nodes the cancellation reference
    # moves by rounding only (elsewhere it can be noise on both sides).
    # Seeded generic indices, real and complex, both parity patterns,
    # series-zone nodes from 0.01 to the asymptotic floor
    rng = random.Random(20 + n)
    for kind in ("real", "complex"):
        lam = [rng.uniform(-0.3, 0.3) + (1j * rng.uniform(-0.3, 0.3) if kind == "complex" else 0.0)
               for _ in range(n)]
        si = SpectralIndex([v - sum(lam) / n for v in lam])
        floor = max(asympt.validity_floor(si), 12.0)
        inner = np.geomspace(0.01, floor, 80, endpoint=False)
        for deltas in ((0,) * n, tuple(k % 2 for k in range(n))):
            both = series.kernel_series_grid(inner, si, deltas)
            for parity, v, e, peak, ok in zip((1, -1), *both):
                rv, re_, rpeak, rok = _per_parity_grid(inner, parity, si, deltas)
                case = (n, kind, deltas, parity)
                assert ok.tobytes() == rok.tobytes(), case
                assert ok.sum() > 40, case
                assert (np.abs(v - rv) <= 0.05 * re_).all(), case
                assert (e[v == rv] == re_[v == rv]).all(), case
                assert (e >= re_ * (1.0 - 2.0**-52)).all(), case
                np.testing.assert_allclose(peak[ok], rpeak[ok], rtol=1e-9, err_msg=str(case))


@pytest.mark.parametrize(
    "lam, deltas",
    [([0.25j, -0.25j], (0, 0)), ([1.6 + 0.1j, -0.7 - 0.3j, -0.9 + 0.2j], (0, 1, 0))],
    ids=["rank2", "rank3"],
)
def test_grid_sorted_stacked_pass_is_per_node(lam, deltas):
    # the n series on one axis, their Horner over the nodes sorted by degree:
    # shuffled nodes give the shuffled bits of the sorted call, and each
    # node the bits of a one-node call, from z = 1e-6 (degree <= 4) to the
    # asymptotic start (degree >= 30)
    si = SpectralIndex(lam)
    inner = np.geomspace(1e-6, asympt.sweep_start(si), 48)
    deg = series._sum_degrees(series._FirstKindTable(si.lam), inner ** si.rank)[0].max(axis=0)
    assert deg.min() <= 4 and deg.max() >= 30
    whole = series.kernel_series_grid(inner, si, deltas)
    perm = np.random.default_rng(si.rank).permutation(len(inner))
    shuffled = series.kernel_series_grid(inner[perm], si, deltas)
    assert [a[:, perm].tobytes() for a in whole] == [a.tobytes() for a in shuffled]
    for i in range(len(inner)):
        one = series.kernel_series_grid(inner[i : i + 1], si, deltas)
        assert [a[:, i : i + 1].tobytes() for a in whole] == [a.tobytes() for a in one], i


def test_grid_of_no_points_is_empty():
    out = series.kernel_series_grid(np.array([]), SpectralIndex([0.25j, -0.25j]), (0, 0))
    assert [(a.shape, a.dtype) for a in out] == [
        ((2, 0), np.dtype(t)) for t in (np.complex128, float, float, bool)
    ]
