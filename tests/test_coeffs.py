import math
from fractions import Fraction

import numpy as np
from mpmath import mp

from besselhr.coeffs import (
    ATable,
    IntPoly,
    build_a_table,
    build_b_table,
    build_uv_tables,
    bessel_eq_coeffs,
    check_combinatorial_identity,
    falling,
    lambda_arguments,
    rising,
    _w_table,
)
from besselhr.core import RootOfUnity, SignVector, SpectralIndex


def test_a_table_basics():
    tab = build_a_table(8, 8)
    for j in range(9):
        assert tab.a(j, 0) == 1
        assert tab.a(j, 1) == j * (j + 1) // 2
    for m in range(1, 9):
        assert tab.a(0, m) == 0
    # oracle: closed-form sum for a hand-sized entry
    # A_{2,2} = -1*1^4/(1! 1!) + 2^4/(2! 0!) = 7
    assert tab.a(2, 2) == 7
    assert ATable.closed_form(2, 2) == Fraction(7)


def test_a_table_recurrence_matches_closed_form_exactly():
    tab = build_a_table(20, 20)
    assert tab.verify_closed_form()


def test_a_table_recurrence_entrywise():
    tab = build_a_table(10, 10)
    for j in range(1, 11):
        for m in range(1, 11):
            assert tab.a(j, m) == j * tab.a(j, m - 1) + tab.a(j - 1, m)


# ---------------------------------------------------------------------------
# U / V tables
# ---------------------------------------------------------------------------

def test_uv_simple_facts():
    n = 5
    uv = build_uv_tables(n)
    for k in range(n + 1):
        assert uv.u(k, k).terms == {(0,) * n: 1}
        assert uv.v(k, k).terms == {(0,) * n: 1}
    # U_{k,0} = [-Lambda_0]_k: check numerically at random values
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for k in range(n + 1):
        want = falling(-vals[0], k)
        got = uv.u(k, 0).eval(vals)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))
    # V_{k,k-1} = sigma_{k-1,1} + k(k-1)/2
    for k in range(1, n + 1):
        want = sum(vals[:k]) + k * (k - 1) / 2
        got = uv.v(k, k - 1).eval(vals)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_uv_v_recurrence():
    # V_{k,j} = (Lambda_{k-1} + j) V_{k-1,j} + V_{k-1,j-1}, run independently
    n = 6
    uv = build_uv_tables(n)
    from besselhr.coeffs import IntPoly

    for k in range(1, n + 1):
        for j in range(0, k + 1):
            coeff = IntPoly.var(n, k - 1) + IntPoly.const(n, j)
            want = coeff * uv.v(k - 1, j) + uv.v(k - 1, j - 1)
            assert (uv.v(k, j) - want).is_zero()


def test_uv_orthogonality_exact():
    for n in range(1, 7):
        uv = build_uv_tables(n)
        assert uv.orthogonality_exact()


def test_uv_orthogonality_numeric_rank8():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        lam = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        si = SpectralIndex(lam)
        uv = build_uv_tables(8, si)
        worst = max(worst, uv.orthogonality_residual())
    assert worst < 1e-10


def test_uv_exact_sum_example():
    # sum_l U_{3,l} V_{l,1} = 0 at random rational Lambda, exact arithmetic
    n = 4
    uv = build_uv_tables(n)
    tot = None
    for l in range(1, 4):
        p = uv.u(3, l) * uv.v(l, 1)
        tot = p if tot is None else tot + p
    assert tot.is_zero()


# ---------------------------------------------------------------------------
# differential equation coefficients
# ---------------------------------------------------------------------------

def test_bessel_eq_rank1():
    eq = bessel_eq_coeffs(1, SpectralIndex([0.0]))
    assert abs(eq.v[1] - 1.0) < 1e-15
    assert abs(eq.v[0]) < 1e-15


def test_bessel_eq_rank2_classical():
    # x^2 w'' + x w' + (-4 lam^2 - sign (2i)^2 x^2) w = 0, which rescales to
    # the classical (modified) equation of order 2 lam
    lam = 0.37
    eq = bessel_eq_coeffs(2, SpectralIndex([lam, -lam]))
    assert abs(eq.v[2] - 1.0) < 1e-14
    assert abs(eq.v[1] - 1.0) < 1e-14
    assert abs(eq.v[0] - (-4 * lam * lam)) < 1e-13


def test_bessel_eq_vnn_minus_1():
    for n in range(2, 7):
        si = SpectralIndex(np.linspace(-1, 1, n) + 0.1j * np.arange(n))
        eq = bessel_eq_coeffs(n, si)
        assert abs(eq.v[n] - 1.0) < 1e-13
        # V_{n,n-1} = n(n-1)/2 once sigma_1 = 0
        assert abs(eq.v[n - 1] - n * (n - 1) / 2) < 1e-12


def test_indicial_roots():
    si = SpectralIndex([0.3, -0.1, -0.2])
    eq = bessel_eq_coeffs(3, si)
    for l in (1, 2, 3):
        assert abs(eq.indicial_residual(si, l)) < 1e-12


def test_eq_coeffs_match_uv_instantiation():
    rng = np.random.default_rng(23)
    for n in (2, 3, 5):
        si = SpectralIndex(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        uv = build_uv_tables(n, si)
        eq = bessel_eq_coeffs(n, si)
        for j in range(n + 1):
            assert abs(uv.v_num[n][j] - eq.v[j]) < 1e-10 * max(1.0, abs(eq.v[j]))


# ---------------------------------------------------------------------------
# B coefficients
# ---------------------------------------------------------------------------

def _pochhammer_b(lam, xi_val, m):
    # rank-two closed form (1/2 - 2 lam)_m (1/2 + 2 lam)_m / ((4 i xi)^m m!)
    return (
        rising(0.5 - 2 * lam, m)
        * rising(0.5 + 2 * lam, m)
        / ((4j * xi_val) ** m * math.factorial(m))
    )


def test_b_table_normalization_and_rank1():
    tab = build_b_table(1, SpectralIndex([0.0]), RootOfUnity(2, 0), 10)
    assert tab.coeffs[0] == 1.0
    assert all(abs(c) == 0.0 for c in tab.coeffs[1:])


def test_b_table_rank2_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(50):
        lam = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        si = SpectralIndex([lam, -lam])
        for idx in range(4):
            xi = RootOfUnity(4, idx)
            tab = build_b_table(2, si, xi, 12)
            for m in range(13):
                want = _pochhammer_b(lam, xi.value, m)
                assert abs(tab.coeffs[m] - want) <= 1e-12 * max(1.0, abs(want))


def test_b_table_rotation_law():
    # B_m(lambda; xi) = (+-xi)^{-m} B_m(lambda; +-1) with the designated arg
    rng = np.random.default_rng(37)
    for n in range(2, 6):
        lam = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
        si = SpectralIndex(lam)
        ref = {
            1: build_b_table(n, si, RootOfUnity(2 * n, 0), 15),
            -1: build_b_table(n, si, RootOfUnity(2 * n, n), 15),
        }
        for idx in range(1, 2 * n):
            xi = RootOfUnity(2 * n, idx)
            tab = build_b_table(n, si, xi, 15)
            sign = xi.equation_sign()
            if sign == 1:
                rot = xi  # xi itself, designated argument
                base = ref[1]
            else:
                rot = RootOfUnity(2 * n, xi.index + n)  # -xi = e^{i pi} xi
                base = ref[-1]
            for m in range(16):
                want = rot.power(-m) * base.coeffs[m]
                got = tab.coeffs[m]
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _b_reference(n, si, xi, m_terms, dps=50):
    # the recurrence of build_b_table term by term at dps digits, from the
    # same double W table
    w = _w_table(n, bessel_eq_coeffs(n, si), xi)
    with mp.workdps(dps):
        bs = [mp.mpc(1)]
        for m in range(2, m_terms + 2):
            rhs = mp.mpc(0)
            for (j, k), wjk in w.items():
                if 2 <= j + k <= m:
                    rhs += mp.mpc(wjk) * falling(j + k - m, j) * bs[m - j - k]
            bs.append(rhs / ((m - 1) * mp.mpc(w[(1, 0)])))
    return bs


def test_b_table_arithmetic_against_50_digits():
    # beyond the rounding of each component to double, the table is within
    # 1e-24 |B_m| of the recurrence run at 50 digits
    rng = np.random.default_rng(41)
    for n in range(1, 7):
        for lam in (rng.uniform(-3, 3, n), rng.uniform(-3, 3, n) + 1j * rng.uniform(-1.5, 1.5, n)):
            si = SpectralIndex(lam)
            for idx in range(2 * n):
                xi = RootOfUnity(2 * n, idx)
                got = build_b_table(n, si, xi, 30).coeffs
                with mp.workdps(50):
                    for b, r in zip(got, _b_reference(n, si, xi, 30)):
                        for bc, rc in ((b.real, r.real), (b.imag, r.imag)):
                            assert abs(bc - rc) <= 2.0**-53 * abs(rc) + 1e-24 * abs(r)


def test_b_table_sign_vector_consistency():
    # xi(sign vector) feeds the table builder directly
    sv = SignVector.from_string("++-")
    si = SpectralIndex([0.3, -0.1, -0.2])
    tab = build_b_table(3, si, sv.xi(), 8)
    assert tab.coeffs[0] == 1.0


# ---------------------------------------------------------------------------
# cross-check identity for the rank-two coefficients
# ---------------------------------------------------------------------------

def test_identity_m0_m1():
    rep = check_combinatorial_identity(1)
    assert rep.results[0][0]  # both sides 1
    assert rep.results[1][0]  # both sides nu^2 - 1/4


def test_identity_up_to_8():
    rep = check_combinatorial_identity(8)
    assert rep.all_equal


def test_identity_lhs_value():
    # m = 1: -(1/2 - nu)(1/2 + nu) = nu^2 - 1/4, in the one-variable IntPoly
    # with Fraction coefficients that the identity check expands both sides in
    nu = IntPoly.var(1, 0)
    half = IntPoly.const(1, Fraction(1, 2))
    lhs = ((half - nu) * (half + nu)).scale(-1)
    assert lhs.terms == {(0,): Fraction(-1, 4), (2,): Fraction(1)}
