import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from besselhr import coeffs, series
from besselhr.core import (
    OutOfSectorError,
    OverflowEvalError,
    RootOfUnity,
    SignVector,
    SpectralIndex,
    SurfacePoint,
    ValidityFloorError,
)
from besselhr.asympt import (
    DEFAULT_THETA,
    M_CAP,
    SUBNORMAL,
    _truncate,
    b_coeffs,
    h_bessel,
    in_validity_sector,
    inverse_connection,
    j_varsigma_asymptotic,
    rotate_second_kind,
    second_kind,
    second_kind_sweep,
    sweep_start,
    validity_floor,
    w_function,
)
from besselhr.kernel import KernelIndex, kernel_asymptotics
from besselhr.mellinbarnes import mb_eval_est
from besselhr.series import j_function


def test_second_kind_rank2_k():
    # J(z; (lam,-lam); i) = (2/sqrt(pi)) K_{2 lam}(2z)
    lam = 0.23 + 0.1j
    si = SpectralIndex([lam, -lam])
    for x in (8.0, 15.0, 40.0):
        r = second_kind(x, si, RootOfUnity(4, 1))
        with mp.workdps(50):
            want = 2 / math.sqrt(math.pi) * complex(mp.besselk(2 * lam, 2 * x))
        assert abs(r.value - want) <= max(3 * r.error_estimate, 1e-13 * abs(want))


def test_second_kind_leading_term():
    # value * e^{-i n xi z} z^{(n-1)/2} -> 1 along the central ray
    si = SpectralIndex([0.2, -0.05, -0.15])
    xi = RootOfUnity(6, 2)
    center = 0.5 * math.pi - xi.argument
    for mod in (40.0, 160.0):
        z = SurfacePoint.from_polar(mod, center)
        r = second_kind(z, si, xi)
        lead = r.value * cmath.exp(-3j * xi.value * z.to_complex()) * z.power(1.0)
        assert abs(lead - 1.0) < 5.0 / mod


@pytest.mark.parametrize("n", range(1, 7))
def test_second_kind_sweep_matches_second_kind_bits(n):
    # the sweep's 2-D truncation passes keep second_kind's arithmetic: the
    # same value and error at every node, alone and in a batch, also where
    # the powers z^-m underflow (from where both routes reach)
    si = SpectralIndex([0.1 * l + 0.05j * (l % 2) for l in range(n)])
    floor = 1.0001 * max(validity_floor(si), sweep_start(si))
    for k in range(2 * n):
        xi = RootOfUnity(2 * n, k)
        if not in_validity_sector(SurfacePoint(0.0, 0.0), xi, n, DEFAULT_THETA):
            with pytest.raises(OutOfSectorError):
                second_kind_sweep(np.array([40.0]), si, xi)
            continue
        zs = [floor, 1.5 * floor, 40.0, 100.0]
        if (1j * xi.value).real <= 0.0:  # no growing exponential: far out too
            zs += [1e160, 1e300]
        vals, errs = second_kind_sweep(np.array(zs), si, xi)
        for z, v, e in zip(zs, vals, errs):
            want = second_kind(z, si, xi)
            one = second_kind_sweep(np.array([z]), si, xi)
            assert (v, e) == (one[0][0], one[1][0]), (n, k, z)
            assert (v, e) == (want.value, want.error_estimate), (n, k, z)


def _powers(t, zinv, count):
    """t z^{-m}, m < count, by repeated multiplication."""
    powers = []
    for _ in range(count):
        powers.append(t)
        t *= zinv
    return powers


def _own_terms(bs, powers):
    """How many terms a point forms: through the last whose estimate
    |b| |t z^{-m}| exceeds 2^-60 times the largest, and one more."""
    ests = [abs(b) * abs(p) for b, p in zip(bs, powers)]
    over = [m for m, e in enumerate(ests) if e > 2.0**-60 * max(ests)]
    return min(over[-1] + 2, len(bs)) if over else len(bs)


def _scalar_truncate(bs, t, zinv):
    """A scalar superasymptotic truncation in Python's complex arithmetic:
    terms b t z^{-m} by repeated multiplication through the point's own
    (_own_terms), cut before the first smallest of those (at least one
    kept); returns m*, the partial sum, the first omitted term's magnitude
    and the kept terms' summed magnitudes."""
    powers = _powers(t, zinv, len(bs))
    terms = [b * p for b, p in zip(bs[: _own_terms(bs, powers)], powers)]
    mags = [abs(v) for v in terms]
    m_star = max(1, int(np.argmin(mags)))
    return m_star, sum(terms[:m_star]), mags[min(m_star, len(mags) - 1)], sum(mags[:m_star])


def test_truncation_cut_is_per_point():
    # a block whose points form from 2 to all M_CAP + 1 terms: each point
    # has its bits alone, and every term it does not form lies below 2^-60
    # times its largest kept term
    si = SpectralIndex([0.3 + 0.1j, -0.3 - 0.1j])
    xi = RootOfUnity(4, 0)
    bs = b_coeffs(si, xi)
    zs = np.array([6.0, 8.0, 12.0, 20.0, 50.0, 300.0, 1e4, 1e8, 1e30, 1e160, 1e300])
    zinv = 1.0 / zs
    block = _truncate(bs, 1.0, zinv)
    owns = []
    for i, z in enumerate(zs):
        one = _truncate(bs, 1.0, zinv[i : i + 1])
        assert [a[i : i + 1].tobytes() for a in block] == [a.tobytes() for a in one], z
        powers = _powers(1.0, zinv[i], len(bs))
        own = _own_terms(bs, powers)
        owns.append(own)
        kept = max(abs(b * p) for b, p in zip(bs[: block[0][i]], powers))
        assert all(abs(b * p) < 2.0**-60 * kept for b, p in zip(bs[own:], powers[own:])), z
    assert owns[0] == M_CAP + 1 and owns[-1] == 2 and len(set(owns)) >= 5, owns


@pytest.mark.parametrize("n", range(1, 7))
def test_truncation_matches_a_scalar_loop_off_the_axis(n):
    # second_kind and w_function truncate by the sweep's array passes, with
    # Python's unfused complex products off the real axis: the bits of a
    # scalar loop in Python arithmetic, on and off the axis, for every root
    # in sector and for derivatives of W
    from besselhr.asympt import _finish
    from besselhr.coeffs import falling

    si = SpectralIndex([0.1 * l + 0.05j * (l % 2) for l in range(n)])
    floor = validity_floor(si)
    half = (n - 1) / 2.0
    for arg in (0.0, 0.3, -0.7, 1.9):
        for mod in (1.01 * floor, 1.7 * floor, 1e3, 1e5):
            z = SurfacePoint.from_polar(mod, arg)
            for k in range(2 * n):
                xi = RootOfUnity(2 * n, k)
                if not in_validity_sector(z, xi, n, DEFAULT_THETA):
                    continue
                m, total, omitted, mass = _scalar_truncate(b_coeffs(si, xi), 1.0 + 0.0j, z.power(-1))
                try:
                    v, e = _finish(1j * n * xi.value, np.array([z.log()]), n, np.array([total]),
                                   omitted, mass)
                except OverflowEvalError:  # a growing exponential far out
                    with pytest.raises(OverflowEvalError):
                        second_kind(z, si, xi)
                    continue
                r = second_kind(z, si, xi)
                want = (complex(v[0]), float(e[0]), m)
                assert repr((r.value, r.error_estimate, r.truncation_m)) == repr(want), (k, z)
            for sign, j in ((1, 0), (-1, 1), (1, 3)):
                xi = RootOfUnity(2 * n, 0 if sign > 0 else n)
                bs = [b * falling(-(m + half), j) for m, b in enumerate(b_coeffs(si, xi))]
                m, total, omitted, mass = _scalar_truncate(bs, z.power(-half - j), z.power(-1))
                r = w_function(z, si, sign, j)
                want = (total, 2.0 * omitted + 4.0 * float(np.finfo(float).eps) * mass, m)
                assert repr((r.value, r.error_estimate, r.truncation_m)) == repr(want), (j, z)


def test_second_kind_error_never_zero_for_a_nonzero_value():
    # far out on a decaying ray the truncation error underflows before the
    # value does: the error is then the subnormal spacing, not 0; a value
    # that underflows to 0 keeps error 0
    si = SpectralIndex([0.2, -0.2])
    xi = RootOfUnity(4, 1)  # e^{-2z}
    zs = np.array([355.0, 360.0, 365.0, 369.0, 400.0])
    vals, errs = second_kind_sweep(zs, si, xi)
    assert (vals[:-1] != 0).all() and (errs[1:-1] == SUBNORMAL).all()
    assert ((errs > 0) == (vals != 0)).all()
    assert vals[-1] == 0 and errs[-1] == 0
    for z, v, e in zip(zs, vals, errs):
        r = second_kind(float(z), si, xi)
        assert (r.value, r.error_estimate) == (v, e)


def test_second_kind_overflow_is_typed():
    # a growing exponential beyond double range raises OverflowEvalError
    si = SpectralIndex([0.2, -0.05, -0.15])
    xi = RootOfUnity(6, 2)
    z = SurfacePoint.from_polar(1e3, 0.5 * math.pi - xi.argument + 2.5)
    with pytest.raises(OverflowEvalError):
        second_kind(z, si, xi)


def test_second_kind_guards():
    si = SpectralIndex([0.2, -0.05, -0.15])
    with pytest.raises(ValidityFloorError):
        second_kind(1.0, si, RootOfUnity(6, 0))
    z = SurfacePoint.from_polar(50.0, 4.0)  # outside the sector around -pi/2...
    with pytest.raises(OutOfSectorError):
        second_kind(z, si, RootOfUnity(6, 2))


def test_h_bessel_rank2_hankel1():
    lam = 0.2j
    si = SpectralIndex([lam, -lam])
    x = 30.0
    r = h_bessel(x, si, "+")
    with mp.workdps(50):
        h1, h2 = complex(mp.hankel1(2 * lam, 2 * x)), complex(mp.hankel2(2 * lam, 2 * x))
    want = 1j * math.pi * cmath.exp(1j * math.pi * lam) * h1
    assert abs(r.value - want) < 1e-9 * abs(want)
    r = h_bessel(x, si, "-")
    want = -1j * math.pi * cmath.exp(-1j * math.pi * lam) * h2
    assert abs(r.value - want) < 1e-9 * abs(want)


def test_h_bessel_prototype_all_n():
    # at the prototype index H^+- is exactly the pure exponential solution
    for n in (2, 3, 4, 5):
        si = SpectralIndex([(n + 1 - 2 * l) / (2.0 * n) for l in range(1, n + 1)])
        x = 25.0
        for sgn in (1, -1):
            r = h_bessel(x, si, "+" if sgn > 0 else "-")
            want = (
                n**-0.5
                * cmath.exp(((n - 1) / 2.0) * complex(math.log(2 * math.pi), sgn * math.pi / 2))
                * cmath.exp(sgn * 1j * n * x)
                * x ** (-(n - 1) / 2.0)
            )
            assert abs(r.value - want) < 1e-10 * abs(want)


def test_w_leading_term():
    si = SpectralIndex([0.2, -0.05, -0.15])
    x = 50.0
    r = w_function(x, si, "+")
    assert abs(r.value * x ** 1.0 - 1.0) < 0.05


def test_w_derivative_termwise():
    # d/dz of W agrees with central differences of W itself
    si = SpectralIndex([0.2, -0.05, -0.15])
    x, h = 50.0, 1e-3
    d1 = w_function(x, si, "+", j=1)
    w0 = lambda t: w_function(t, si, "+").value
    fd = (w0(x + h) - w0(x - h)) / (2 * h)
    assert abs(d1.value - fd) < 1e-8 * abs(fd)


def test_bridge_consistency():
    # sqrt(n) (+-2 pi i)^{-(n-1)/2} J(.; all +-) equals the +-1 expansion
    si = SpectralIndex([0.3, -0.1, -0.2])
    x = 40.0
    a = j_varsigma_asymptotic(x, SignVector("+++"), si)
    b = h_bessel(x, si, "+")
    assert abs(a.value - b.value) <= 1e-14 * abs(b.value)
    am = j_varsigma_asymptotic(x, SignVector("---"), si)
    bm = h_bessel(x, si, "-")
    assert abs(am.value - bm.value) <= 1e-14 * abs(bm.value)


def test_h_bessel_complex_argument_vs_series():
    # both continuations live on the cover; compare off the positive reals
    si = SpectralIndex([0.3, -0.1, -0.2])
    for w in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        z = SurfacePoint.from_polar(25.0, w)
        a = h_bessel(z, si, "+")
        r = j_function(z, SignVector("+++"), si, 1e-9)
        assert abs(a.value - r.value) <= 1e-7 * abs(a.value) + 4 * a.error_estimate


def test_j_varsigma_vs_series():
    si = SpectralIndex([0.3, -0.1, -0.2])
    for s in ("++-", "-+-", "+--"):
        sv = SignVector(s)
        a = j_varsigma_asymptotic(25.0, sv, si)
        r = j_function(25.0, sv, si, 1e-9)
        assert abs(a.value - r.value) < 1e-7 * abs(a.value)


def test_j_varsigma_vs_mb_moderate():
    si = SpectralIndex([0.3, -0.1, -0.2])
    sv = SignVector("+++")
    for x in (20.0, 30.0):
        a = j_varsigma_asymptotic(x, sv, si)
        vm, em = mb_eval_est(x, sv, si, 1e-10)
        assert abs(a.value - vm) <= 4 * (a.error_estimate + em) + 1e-9 * abs(vm)


def test_rotation_identity_and_two_path():
    si = SpectralIndex([0.25, 0.1, -0.15, -0.2])
    x = 30.0
    # xi = 1: rotation is the identity
    direct = second_kind(x, si, RootOfUnity(8, 0))
    rot = rotate_second_kind(x, si, RootOfUnity(8, 0))
    assert abs(direct.value - rot.value) == 0.0
    # generic 2n-th root: two-path agreement
    for idx in (1, 2, 3, 5):
        xi = RootOfUnity(8, idx)
        d = second_kind(SurfacePoint.from_positive(x), si, xi) if abs(
            SurfacePoint.from_positive(x).argument - (0.5 * math.pi - xi.argument)
        ) < math.pi + math.pi / 4 - math.pi / 6 else None
        r = rotate_second_kind(x, si, xi)
        if d is not None:
            assert abs(d.value - r.value) < 1e-10 * abs(d.value)


def test_rotation_minus_one_branch():
    # J(z; lam; -1) = (-1)^{(n-1)/2} J(-z; lam; 1) in designated arithmetic
    si = SpectralIndex([0.2, -0.05, -0.15])
    n = 3
    x = 35.0
    lhs = second_kind(x, si, RootOfUnity(6, 3))
    z_rot = SurfacePoint.from_positive(x).rotated(math.pi)
    rhs = cmath.exp(1j * (n - 1) / 2.0 * math.pi) * second_kind(
        z_rot, si, RootOfUnity(6, 0)
    ).value
    assert abs(lhs.value - rhs) < 1e-12 * abs(rhs)


def test_k_decay_rate():
    si = SpectralIndex([0.2, -0.05, -0.15])
    sv = SignVector("++-")
    xs = np.linspace(30, 60, 11)
    ys = [
        math.log(abs(j_varsigma_asymptotic(float(x), sv, si).value)) + math.log(x)
        for x in xs
    ]
    slope = float(np.polyfit(xs, ys, 1)[0])
    want = -3 * math.sin(math.pi / 3)
    assert abs(slope - want) < 0.02 * abs(want)


def test_truncation_error_honesty():
    # |asympt - mb| <= 4 (asympt est + mb est) over an oscillatory sample,
    # ranks 2 and 3
    cases = [
        (SpectralIndex([0.2 + 0.1j, -0.2 - 0.1j]), SignVector("++")),
        (SpectralIndex([0.25, -0.1, -0.15]), SignVector("+++")),
    ]
    good = total = 0
    for si, sv in cases:
        for x in np.geomspace(20, 100, 12):
            a = j_varsigma_asymptotic(float(x), sv, si)
            vm, em = mb_eval_est(float(x), sv, si, 1e-9)
            total += 1
            if abs(a.value - vm) <= 4 * (a.error_estimate + em):
                good += 1
    assert good >= 0.99 * total - 1e-9 or good == total


def test_vandermonde_forward_inverse_identity():
    # V(lam) times its Lagrange-form inverse is the identity
    rng = np.random.default_rng(4)
    from besselhr.asympt import _sym_funcs_omitting
    from besselhr.core import e2pi

    for n in (2, 3, 4, 5):
        while True:  # draw generic, decently separated nodes
            lam = SpectralIndex(
                0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            )
            xs = [e2pi(-v) for v in lam.lam]
            sep = min(
                abs(xs[i] - xs[j]) for i in range(n) for j in range(i + 1, n)
            )
            if sep > 0.35:
                break
        v = np.array([[xs[l] ** (j) for l in range(n)] for j in range(n)])
        sig = _sym_funcs_omitting(xs)
        tau = [
            np.prod([xs[m] - xs[k] for k in range(n) if k != m]) for m in range(n)
        ]
        vinv = np.array(
            [
                [(-1.0) ** (n - (j + 1)) * sig[m][n - (j + 1)] / tau[m] for j in range(n)]
                for m in range(n)
            ]
        )
        assert np.abs(vinv @ v - np.eye(n)).max() < 1e-12


def test_inverse_connection_rank2_pattern():
    # J_nu = (H1 + H2)/2 in the classical normalization
    lam = 0.17 + 0.05j
    si = SpectralIndex([lam, -lam])
    x = 30.0
    vals = inverse_connection(x, si, a=0)
    with mp.workdps(60):
        want2 = complex(mp.besselj(2 * lam, 2 * x))
        want1 = complex(mp.besselj(-2 * lam, 2 * x))
    assert abs(vals[1] - want2) < 1e-8 * abs(want2)
    assert abs(vals[0] - want1) < 1e-8 * abs(want1)


def test_inverse_connection_vs_series_rank3():
    import mpmath as mpm
    from besselhr.series import _Round, _first_kind_mp
    from besselhr.core import SurfacePoint

    si = SpectralIndex([0.3, -0.1, -0.2])
    x = 60.0
    recon = inverse_connection(x, si, a=0)
    z = SurfacePoint.from_positive(x)
    with mpm.workdps(120):
        for l in range(1, 4):
            want, _, _ = _first_kind_mp(_Round(z, 1, si, mpm.mpf(10) ** -100), l)
            wantc = complex(want)
            assert abs(recon[l - 1] - wantc) < 1e-6 * abs(wantc)


def test_validity_floor_overflow_is_typed():
    # |lambda| = 5e299: the floor overflows double range
    with pytest.raises(OverflowEvalError):
        validity_floor(SpectralIndex([1e300, 0.0]))


def test_b_table_built_once_per_index_and_root(monkeypatch):
    # every route reads one table per (index, root), kept in the series store
    # and built to M_CAP terms: the bits of a fresh build
    monkeypatch.setattr(series, "_stored", series._Store())
    built = []
    build = coeffs.build_b_table

    def counted(n, si, xi, m_terms):
        built.append((si.lam, xi.index, m_terms))
        return build(n, si, xi, m_terms)

    monkeypatch.setattr(coeffs, "build_b_table", counted)
    si = SpectralIndex([0.23, -0.23])
    plus, minus = RootOfUnity(4, 0), RootOfUnity(4, 2)
    ki = KernelIndex(si, (0, 1))
    for x in (12.0, 40.0):
        second_kind(x, si, plus)
        second_kind(x, si, minus)
        second_kind_sweep(np.array([x, 2 * x]), si, plus)
        w_function(x, si, "+")
        w_function(x, si, "-", 1)
        for m in (0, 7, M_CAP):
            kernel_asymptotics(x, ki, m)
    assert built == [(si.lam, 0, M_CAP), (si.lam, 2, M_CAP)]
    for xi in (plus, minus):
        assert repr(b_coeffs(si, xi)) == repr(build(2, si, xi, M_CAP).coeffs)
    assert len(built) == 2


def test_rotate_second_kind_takes_the_second_rotation():
    # xi z leaves the sector of the +1 expansion, so -xi z serves the value,
    # within the two summed error estimates of the direct expansion at xi
    si = SpectralIndex([0.2, -0.1, -0.1])
    z = SurfacePoint.from_polar(40.0, -math.pi / 3)
    xi = RootOfUnity(6, -1)
    with pytest.raises(OutOfSectorError):
        second_kind(z.times_root(xi), si, RootOfUnity(6, 0))
    got, want = rotate_second_kind(z, si, xi), second_kind(z, si, xi)
    assert abs(got.value - want.value) <= got.error_estimate + want.error_estimate


def test_rotate_second_kind_outside_both_sectors_raises():
    si = SpectralIndex([0.2, -0.1, -0.1])
    with pytest.raises(OutOfSectorError):
        rotate_second_kind(SurfacePoint.from_polar(40.0, -3 * math.pi), si, RootOfUnity(6, -6))
