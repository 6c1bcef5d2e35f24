import cmath
import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from besselhr import core
from besselhr.core import (
    NuIndex,
    PoleError,
    RootOfUnity,
    SignVector,
    SpectralIndex,
    SurfacePoint,
    genericity_gap,
    lambda_of_nu,
    log_gamma,
    nu_of_lambda,
    recip_gamma,
)


def test_spectral_index_renormalizes():
    si = SpectralIndex([1.0, 2.0, 3.0])
    assert abs(sum(si.lam)) < 1e-12
    assert si.lam[0] == -1.0
    assert si.rank == 3
    assert si.magnitude_bound == 2.0


def test_lambda_of_nu_classical_pair():
    # rank two: nu = (2 lambda) maps to the index (lambda, -lambda)
    lam = 0.37 - 0.21j
    si = lambda_of_nu(NuIndex([2 * lam]))
    assert abs(si.lam[0] - lam) < 1e-15
    assert abs(si.lam[1] + lam) < 1e-15


def test_lambda_of_nu_zero_vector():
    si = lambda_of_nu(NuIndex([0.0, 0.0]))
    assert si.lam == (0j, 0j, 0j)


def test_lambda_of_nu_explicit():
    si = lambda_of_nu(NuIndex([1.0, 2.0]))
    assert np.allclose(si.lam, [0.0, 1.0, -1.0])


@given(
    st.lists(
        st.complex_numbers(
            min_magnitude=0, max_magnitude=5, allow_nan=False, allow_infinity=False
        ),
        min_size=1,
        max_size=6,
    )
)
def test_nu_lambda_round_trip(nu_vals):
    nu = NuIndex(nu_vals)
    back = nu_of_lambda(lambda_of_nu(nu))
    assert all(abs(a - b) <= 1e-14 * (1 + abs(a)) for a, b in zip(nu.nu, back.nu))


def test_genericity_gap_scan():
    # pairwise differences 0.4, 0.5, 0.1 -> distances to Z are the same -> 0.1
    si = SpectralIndex([0.3, -0.1, -0.2])
    assert abs(genericity_gap(si) - 0.1) < 1e-12


def test_genericity_gap_integer_difference():
    assert genericity_gap(SpectralIndex([0.5, -0.5])) == 0.0
    assert genericity_gap(SpectralIndex([0.0, 0.0, 0.0])) == 0.0


def test_sign_vector_basics():
    sv = SignVector.from_string("++-")
    assert sv.n == 3 and sv.n_plus == 2 and sv.n_minus == 1
    assert sv.product_sign == -1
    assert sv.plus_positions == (1, 2)
    xi = sv.xi()
    assert xi.order == 6
    assert abs(xi.argument - math.pi / 3) < 1e-15
    # arg xi = n_minus pi / n = pi - n_plus pi / n
    assert abs(xi.argument - (math.pi - sv.n_plus * math.pi / sv.n)) < 1e-15


def test_sign_vector_refuses_strings_other_than_one_sign():
    # each string element is one sign: "+-" and "" are not members of
    # ("+", "-"), though both are substrings of "+-"
    assert SignVector(["+", "-"]).signs == (1, -1)
    for signs in (["+-"], ["", "+"], ["-", "++"]):
        with pytest.raises(ValueError):
            SignVector(signs)


def test_root_of_unity():
    xi = RootOfUnity(order=8, index=2)  # i for n = 4
    assert xi.value == 1j
    assert xi.equation_sign() == 1
    assert RootOfUnity(order=8, index=3).equation_sign() == -1
    # designated arguments are not reduced
    big = RootOfUnity(order=8, index=11)
    assert big.argument > 2 * math.pi


def test_surface_point_powers():
    z = SurfacePoint.from_polar(2.5, 3 * math.pi)  # beyond the principal sheet
    a, b = 0.3 - 0.2j, -1.1 + 0.7j
    lhs = z.power(a) * z.power(b)
    rhs = z.power(a + b)
    assert abs(lhs - rhs) <= 1e-14 * abs(rhs)


@given(
    st.floats(-3, 3),
    st.floats(-12, 12),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=200)
def test_surface_point_power_law_property(logm, arg, a, b):
    z = SurfacePoint(logm, arg)
    lhs = z.power(a) * z.power(b)
    rhs = z.power(a + b)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-290)


def test_surface_point_rotation_adds_argument():
    z = SurfacePoint.from_positive(1.7)
    n = 3
    zr = z.rotated(math.pi / n)
    assert zr.argument == math.pi / n
    assert zr.log_modulus == z.log_modulus


# ---------------------------------------------------------------------------
# gamma kernels
# ---------------------------------------------------------------------------

def test_recip_gamma_trivial_values():
    assert recip_gamma(1.0) == pytest.approx(1.0)
    assert recip_gamma(0.0) == 0.0
    assert recip_gamma(-4.0) == 0.0
    assert abs(recip_gamma(0.5) - 1 / math.sqrt(math.pi)) < 1e-15


def test_log_gamma_trivial_values():
    assert abs(log_gamma(2.0)) < 1e-14
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14
    with pytest.raises(PoleError):
        log_gamma(-3.0)


def test_duplication_formula():
    # Gamma(s) Gamma(s + 1/2) = 2^{1-2s} sqrt(pi) Gamma(2s)
    s = 0.7 + 0.3j
    lhs = core.gamma(s) * core.gamma(s + 0.5)
    rhs = 2.0 ** (1 - 2 * s) * math.sqrt(math.pi) * core.gamma(2 * s)
    assert abs(lhs - rhs) < 1e-13 * abs(rhs)


def test_recip_times_gamma_is_one():
    rng = np.random.default_rng(42)
    s = rng.uniform(1e-3, 30, 1000) + 1j * rng.uniform(-30, 30, 1000)
    for w in s:
        w = complex(w)
        assert abs(recip_gamma(w) * cmath.exp(log_gamma(w)) - 1.0) < 1e-12


def test_reflection_formula():
    rng = np.random.default_rng(7)
    s = rng.uniform(-20, 20, 500) + 1j * rng.uniform(-20, 20, 500)
    s = s[np.hypot(s.real - np.round(s.real), s.imag) > 1e-3]
    for w in s:
        w = complex(w)
        val = recip_gamma(w) * recip_gamma(1 - w) * math.pi / core.sinpi(w)
        assert abs(val - 1.0) < 1e-11


def test_recip_gamma_accuracy():
    # scipy carries its own few-e-14 error at these magnitudes, so truth is
    # 40-digit mpmath; scipy still cross-checks the bulk cheaply
    import mpmath as mp

    mp.mp.dps = 40
    rng = np.random.default_rng(3)
    z = rng.uniform(-48, 48, 300) + 1j * rng.uniform(-48, 48, 300)
    z = z[np.hypot(z.real - np.round(z.real), z.imag) > 1e-6]
    for w in z:
        w = complex(w)
        true = complex(mp.rgamma(mp.mpc(w)))
        assert abs(recip_gamma(w) - true) < 1e-13 * abs(true)
    zs = rng.uniform(-30, 30, 2000) + 1j * rng.uniform(-30, 30, 2000)
    zs = zs[np.hypot(zs.real - np.round(zs.real), zs.imag) > 1e-6]
    ours = np.array([recip_gamma(complex(w)) for w in zs])
    rel = np.abs(ours - sp.rgamma(zs)) / np.abs(sp.rgamma(zs))
    assert rel.max() < 1e-13
    # toward |s| = 100 the quantization of log Gamma (~360) costs ~8e-14 per
    # rounding, so the attainable bound degrades to a small multiple of it
    z2 = rng.uniform(-95, 95, 200) + 1j * rng.uniform(-30, 30, 200)
    z2 = z2[np.hypot(z2.real - np.round(z2.real), z2.imag) > 1e-6]
    for w in z2:
        w = complex(w)
        true = complex(mp.rgamma(mp.mpc(w)))
        assert abs(recip_gamma(w) - true) < 3e-13 * abs(true)


def test_recip_gamma_clean_zeros_near_series_usage():
    # denominators of the first-kind series hit exact poles for integral
    # lambda differences; the reciprocal must vanish there and stay smooth
    for m in range(6):
        assert recip_gamma(-1.0 + m + 1 - 6) == 0
    vals = [recip_gamma(complex(-5 + 1e-9, 0.0)), recip_gamma(complex(-5 - 1e-9, 0.0))]
    assert all(abs(v) < 1e-6 for v in vals)
    assert recip_gamma(-5.0) == 0.0

