import cmath
import heapq
import math
import time

import mpmath as mp
import numpy as np
import pytest

from besselhr import _backend, core, mellinbarnes
from besselhr.core import SignVector, SpectralIndex, ToleranceNotMetError
from besselhr.kernel import KernelIndex, WeightFunction, bessel_kernel, hankel_transform
from besselhr.mellinbarnes import (
    _MAX_PIECES,
    _NODES,
    _ROUNDING_FLOOR,
    _WG,
    _WGK,
    Contour,
    _adaptive,
    _gk15,
    _integrate_contour,
    _panel_nodes,
    _segments,
    _tail_rates,
    default_contour,
    g_delta,
    mb_eval,
    mb_eval_est,
    mb_kernel_est,
)

mp.mp.dps = 35


def test_rank1_exponential():
    si = SpectralIndex([0.0])
    for x in np.geomspace(0.1, 50.0, 12):
        for sgn, sv in ((1, SignVector("+")), (-1, SignVector("-"))):
            v = mb_eval(float(x), sv, si, 1e-10)
            assert abs(v - cmath.exp(sgn * 1j * x)) < 1e-10


def test_rank2_k_bessel():
    # mixed signs: 2 e^{-+pi i lam} K_{2 lam}(2x)
    for lam in (0.3, 0.5j, 0.2 + 0.1j):
        si = SpectralIndex([lam, -lam])
        for x in (0.4, 1.5, 4.0):
            v = mb_eval(x, SignVector("+-"), si, 1e-10)
            want = 2 * cmath.exp(-1j * math.pi * lam) * complex(mp.besselk(2 * lam, 2 * x))
            assert abs(v - want) < 1e-9 * max(1.0, abs(want))
            v2 = mb_eval(x, SignVector("-+"), si, 1e-10)
            want2 = 2 * cmath.exp(1j * math.pi * lam) * complex(mp.besselk(2 * lam, 2 * x))
            assert abs(v2 - want2) < 1e-9 * max(1.0, abs(want2))


def test_rank2_hankel():
    lam = 0.2 + 0.1j
    si = SpectralIndex([lam, -lam])
    for x in (0.5, 2.0, 6.0):
        v = mb_eval(x, SignVector("++"), si, 1e-10)
        want = 1j * math.pi * cmath.exp(1j * math.pi * lam) * complex(
            mp.hankel1(2 * lam, 2 * x)
        )
        assert abs(v - want) < 1e-9 * abs(want)
        v = mb_eval(x, SignVector("--"), si, 1e-10)
        want = -1j * math.pi * cmath.exp(-1j * math.pi * lam) * complex(
            mp.hankel2(2 * lam, 2 * x)
        )
        assert abs(v - want) < 1e-9 * abs(want)


def test_contour_invariance(monkeypatch):
    # Cauchy: moving the vertical base right and doubling the bend height
    # must not change the value (no poles crossed)
    si = SpectralIndex([0.3, -0.1, -0.2])
    sv = SignVector("++-")
    x = 2.0
    c0 = default_contour(si, x)
    v0 = mb_eval(x, sv, si, 1e-11)
    c1 = Contour(c0.base_real + 0.2, c0.bend_height, c0.bend_angle, c0.t_max)
    c2 = Contour(c0.base_real, 2 * c0.bend_height, c0.bend_angle, c0.t_max)
    for c in (c1, c2):
        monkeypatch.setattr(mellinbarnes, "default_contour", lambda si, x, c=c: c)
        assert abs(mb_eval(x, sv, si, 1e-11) - v0) < 3e-11


def test_tolerance_not_met_raises():
    # deep K-type at large x: the value is ~1e-30 while the contour carries
    # O(1) mass, far below the double-precision cancellation floor
    si = SpectralIndex([0.3, -0.1, -0.2])
    with pytest.raises(ToleranceNotMetError) as exc:
        mb_eval(60.0, SignVector("++-"), si, 1e-40)
    assert exc.value.achieved is not None


def test_gamma_factor_identity():
    rng = np.random.default_rng(2)
    for _ in range(60):
        s = complex(rng.uniform(-2, 3), rng.uniform(-9, 9))
        for d in (0, 1):
            a = g_delta(s, d, "ratio")
            b = g_delta(s, d, "trig")
            assert abs(a - b) <= 1e-12 * max(abs(a), 1e-290)


def test_g_delta_is_the_rank_one_kernel_integrand():
    # the ratio form is mb_kernel_integrand at rank 1, lam = 0 and x = 1, bit
    # for bit: each point alone equals its value in one batch of 40
    rng = np.random.default_rng(30)
    s = rng.uniform(-6, 6, 40) + 1j * rng.uniform(-60, 60, 40)
    for d in (0, 1):
        batch = _backend.mb_kernel_integrand(s, np.zeros(1), np.array([d]), 0, 0.0)
        for si, want in zip(s, batch):
            got = g_delta(si, d)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_kernel_holomorphic_vanishing_side():
    # weight-3 parameters: lam = (1, -1), delta = (1, 0):
    # plus side 2 pi i^3 J_2(4 pi sqrt x), minus side identically zero
    si = SpectralIndex([1.0, -1.0])
    for x in (0.5, 2.0):
        vp, err = mb_kernel_est(x, si, (1, 0), 1e-9)
        assert err <= 1e-9
        want = 2 * math.pi * (1j**3) * complex(mp.besselj(2, 4 * math.pi * math.sqrt(x)))
        assert abs(vp - want) < 1e-9 * max(1.0, abs(want))
        vm, err = mb_kernel_est(-x, si, (1, 0), 1e-9)
        assert err <= 1e-9
        assert abs(vm) < 1e-9


def test_kernel_maass_even():
    t = 0.7
    si = SpectralIndex([1j * t, -1j * t])
    for x in (0.5, 2.0):
        vm, err = mb_kernel_est(-x, si, (0, 0), 1e-9)
        assert err <= 1e-9
        want = 4 * math.cosh(math.pi * t) * complex(
            mp.besselk(2j * t, 4 * math.pi * math.sqrt(x))
        )
        assert abs(vm - want) < 1e-9 * max(1.0, abs(want))


def test_kernel_decomposes_into_sign_vector_sum():
    # J_(lam,delta)(x) = sum over prod(sig) = sgn x of prod sig^delta J(2 pi |x|^{1/n})
    si = SpectralIndex([0.3, -0.1, -0.2])
    deltas = (0, 1, 1)
    x = 1.7
    inner = 2 * math.pi * x ** (1.0 / 3.0)
    from besselhr.series import sign_vectors

    for sgn in (1, -1):
        want = 0j
        for sv in sign_vectors(3, sgn):
            coef = 1.0
            for s, d in zip(sv.signs, deltas):
                if d % 2:
                    coef *= s
            want += coef * mb_eval(inner, sv, si, 1e-11)
        got, err = mb_kernel_est(sgn * x, si, deltas, 1e-9)
        assert err <= 1e-9
        assert abs(got - want) < 2e-9


def test_residue_series_partial_sums():
    # shifting the contour left across K pole columns reproduces the first
    # K terms of the expansion; numerically: mb minus the K-term partial sum
    # of the connection series tends to 0 with K at small x
    from besselhr.core import e2pi
    from besselhr import _backend

    si = SpectralIndex([0.23, -0.08, -0.15])
    sv = SignVector("++-")
    x = 0.8
    v = mb_eval(x, sv, si, 1e-12)
    n = 3
    sign = (-1) ** sv.n_minus
    lam = si.lam
    front = math.pi ** (n - 1) * e2pi(-0.25 * sum(s * v2 for s, v2 in zip(sv.signs, lam)))
    resid = []
    for k_terms in (1, 3, 6, 10):
        tot = 0j
        for l in range(n):
            c = front * e2pi(0.25 * (sv.n_plus - sv.n_minus) * lam[l])
            for k in range(n):
                if k != l:
                    c /= complex(_backend.sinpi(complex(lam[l] - lam[k])))
            # partial ascending series: first k_terms terms
            pref = complex(
                (x ** (-n * lam[l].real))
                * cmath.exp(-1j * n * lam[l].imag * math.log(x))
            )
            s_part = 0j
            for m in range(k_terms):
                t = (sign * (1j**n)) ** m * x ** (n * m)
                for kk in range(n):
                    t *= core.recip_gamma(lam[kk] - lam[l] + m + 1)
                s_part += t
            tot += c * complex(x ** (-n * lam[l])) * s_part
        resid.append(abs(tot - v))
    assert resid[-1] < 1e-10
    assert resid[0] > resid[-1]


def _counting(f):
    """f with a tally of its calls and of the points it was called on."""
    tally = {"calls": 0, "points": 0}

    def wrapped(s, *args):
        tally["calls"] += 1
        tally["points"] += len(s)
        return f(s, *args)

    return wrapped, tally


def test_adaptive_stops_at_rounding_floor():
    # degree 13: the 7-point Gauss and the 15-point Kronrod rules are both
    # exact, so every Kronrod-Gauss difference is rounding; tol=1e-300 used
    # to split to the 4000-piece cap, now no piece is split at all
    coef = np.linspace(1.0, -0.5, 14)
    poly = np.polynomial.Polynomial(coef)
    f, tally = _counting(poly)
    segs = _segments(default_contour(SpectralIndex([0.3, -0.1, -0.2]), 2.0), 3.0)
    segs = [(0.1 * a, 0.1 * b) for a, b in segs]  # keep |s|^13 moderate
    val, err, mass = _adaptive(f, segs, 1e-300, _gk15(f, segs))
    assert tally == {"calls": 1, "points": 15 * len(segs)}
    anti = poly.integ()
    want = sum(complex(anti(b) - anti(a)) for a, b in segs)
    assert abs(val - want) <= 1e-12 * mass
    assert err <= 50 * np.finfo(float).eps * mass


def _gk15_alone(f, a, b):
    """One GK15 panel in its own integrand call, its sums node by node: the
    symmetric pairs of dqk15 added first, then the weighted pairs in order
    from the outermost in, after the centre.  Every step is a one-element
    array, so the products round as in the batched arrays (numpy's complex
    product is fused, Python's is not)."""
    half = np.array([0.5 * (b - a)])
    fv = f(0.5 * (a + b) + half[0] * _NODES)
    av = np.abs(fv)

    def node(v, j):
        return v[j : j + 1]

    def weighted(v, nodes, weights, w_centre):
        total = node(v, 7) * w_centre
        for j, w in zip(nodes, weights):
            total = total + (node(v, j) + node(v, 14 - j)) * w
        return total

    ik = half * weighted(fv, range(7), _WGK[:7], _WGK[7])
    ig = half * weighted(fv, (1, 3, 5), _WG[:3], _WG[3])
    mass = np.abs(half) * weighted(av, range(7), _WGK[:7], _WGK[7])
    return complex(ik[0]), float(np.abs(ik - ig)[0]), float(mass[0])


def test_gk15_batch_bit_identical():
    rng = np.random.default_rng(7)
    lam = np.array([0.3, -0.1 + 0.2j, -0.2 - 0.2j])
    sig = np.array([1.0, 1.0, -1.0])
    dl = np.array([0, 1, 0])

    def fj(s):
        return _backend.mb_j_integrand(s, lam, sig, 3, math.log(2.0))

    def fk(s):
        return _backend.mb_kernel_integrand(s, lam, dl, 1, math.log(0.7))

    for trial in range(40):
        f = fj if trial % 2 else fk
        k = int(rng.integers(1, 30))
        a = rng.uniform(-6, 2, k) + 1j * rng.uniform(-40, 40, k)
        b = a + rng.uniform(-2, 2, k) + 1j * rng.uniform(-3, 3, k)
        pieces = [(complex(p), complex(q)) for p, q in zip(a, b)]
        batch = _gk15(f, pieces)
        assert batch == [_gk15(f, [p])[0] for p in pieces]
        assert batch == [_gk15_alone(f, p, q) for p, q in pieces]


def test_vanishing_kernel_stops_at_rounding_floor(monkeypatch):
    # n=2, lam=(0,0), delta=(1,0) vanishes identically for x < 0; auto mode
    # answers it exactly, and the kernel contour integral, asked alone,
    # stalls at the integrand's rounding level (it used to take 4000 pieces
    # per parity)
    ki = KernelIndex(SpectralIndex([0.0, 0.0]), (1, 0))
    assert bessel_kernel(-3.0, ki, "auto", 1e-9) == core.EvalResult(0j, 0.0, "exact", 1.0)
    f, tally = _counting(_backend.mb_kernel_integrand)
    monkeypatch.setattr(_backend, "mb_kernel_integrand", f)
    r = bessel_kernel(-3.0, ki, "mb", 1e-9)
    assert r.method == "mellin-barnes"
    assert tally["points"] < 10_000
    assert abs(r.value) <= r.error


def _mb_kernel_per_parity(x, si, deltas, tol):
    """mb_kernel_est as one contour integral per parity d, each with its own
    t_max search and refinement to tol: the reference for the one integral
    whose integrand holds both parity terms."""
    n = si.rank
    dl = np.array([int(d) % 2 for d in deltas], dtype=np.int64)
    lam = np.array(si.lam, dtype=np.complex128)
    lnx = math.log(abs(x))
    sgn = 1.0 if x > 0 else -1.0
    c = default_contour(si, 2.0 * math.pi * abs(x) ** (1.0 / n))
    total = 0j
    achieved = 0.0
    for d in (0, 1):
        def f(s, _d=d):
            return _backend.mb_kernel_integrand(s, lam, dl, _d, lnx)

        val, err = _integrate_contour(f, c, lnx, tol)
        scale = 1.0 / (4.0 * math.pi)
        total += (sgn**d) * val * scale / 1j
        achieved += err * scale
    return total, achieved


def test_mb_kernel_one_contour_integral_per_value(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _integrate_contour(*args)

    monkeypatch.setattr(mellinbarnes, "_integrate_contour", counting)
    si = SpectralIndex([0.3, -0.1, -0.2])
    for x in (-3.0, 0.7, 25.0):
        mb_kernel_est(x, si, (0, 1, 1))
        assert len(calls) == 1
        calls.clear()


@pytest.mark.parametrize("lam, x", [((0.0, 0.0), -3.0), ((1.0, -1.0), -2.0)])
def test_vanishing_side_stops_at_the_floor_of_both_parities(monkeypatch, lam, x):
    # delta = 10: the kernel vanishes identically for x < 0, where the two
    # parity terms cancel point by point.  The one integral stops at the
    # rounding floor of their summed moduli, with no digit claimed, in
    # fewer integrand points than the two parity integrals, each refined to
    # tol (1688 and 968 points; one integral 728)
    si = SpectralIndex(lam)
    f, tally = _counting(_backend.mb_kernel_integrand)
    monkeypatch.setattr(_backend, "mb_kernel_integrand", f)
    _mb_kernel_per_parity(x, si, (1, 0), 1e-9)
    per_parity = tally["points"]
    tally.update(calls=0, points=0)
    value, err = mb_kernel_est(x, si, (1, 0), 1e-9)
    assert abs(value) <= err
    assert tally["points"] < per_parity


def test_mb_kernel_agrees_with_per_parity_integrals():
    # seeded generic indices of ranks 1-4 on both signs, and the vanishing
    # side of lam = (0, 0), delta = 10 at log|x| = -20, -5, 0 and 2
    rng = np.random.default_rng(40)
    cases = []
    for n in range(1, 5):
        for _ in range(2):
            si = SpectralIndex(rng.uniform(-1, 1, n) + 1j * rng.uniform(-0.5, 0.5, n))
            deltas = tuple(int(d) for d in rng.integers(0, 2, n))
            for x in rng.uniform(0.2, 5.0, 2):
                cases += [(si, deltas, x, False), (si, deltas, -x, False)]
    cases += [(SpectralIndex([0.0, 0.0]), (1, 0), -math.exp(u), True) for u in (-20, -5, 0, 2)]
    for si, deltas, x, vanishes in cases:
        got, err = mb_kernel_est(x, si, deltas, 1e-9)
        want, want_err = _mb_kernel_per_parity(x, si, deltas, 1e-9)
        assert abs(got - want) <= err + want_err, (si, deltas, x)
        assert abs(got) <= err or not vanishes


def test_odd_classical_kernel_transform_in_seconds():
    # lam = (0, 0), delta = 10: the sweep answers the vanishing side x < 0
    # exactly, so the transform costs the plus side alone, where the kernel
    # is 2 pi i J_0(4 pi sqrt x)
    weight = WeightFunction.unit_mass()
    t0 = time.perf_counter()
    r = hankel_transform(weight, KernelIndex(SpectralIndex([0.0, 0.0]), (1, 0)), [1.0], 1e-6)
    assert time.perf_counter() - t0 < 2.0
    with mp.workdps(20):
        want = complex(mp.quad(
            lambda u: weight(float(mp.exp(u))) * mp.exp(u) * mp.besselj(0, 4 * mp.pi * mp.exp(u / 2)),
            mp.linspace(-8, 6, 15),
        )) * 2j * math.pi
    assert abs(r.values[0] - want) <= 1e-6 * abs(want)


def _adaptive_one_split(f, segs, tol):
    """The loop that split one piece per integrand call, worst piece first
    from a heap: the reference the refinement rounds of _adaptive must
    reproduce piece for piece."""
    pieces = [[a, b, *r] for (a, b), r in zip(segs, _gk15(f, segs))]

    def splittable(err, mass):
        return err > _ROUNDING_FLOOR * mass

    heap = [(-p[3], i) for i, p in enumerate(pieces) if splittable(p[3], p[4])]
    heapq.heapify(heap)
    tot_err = sum(p[3] for p in pieces)
    while heap and len(pieces) < _MAX_PIECES:
        if tot_err <= 0.3 * tol:
            # the running total drifts by rounding; decide on a fresh sum
            tot_err = sum(p[3] for p in pieces)
            if tot_err <= 0.25 * tol:
                break
        neg_err, i = heap[0]
        if -neg_err <= 0.25 * tol / len(pieces):
            break
        heapq.heappop(heap)
        a, b = pieces[i][0], pieces[i][1]
        m = 0.5 * (a + b)
        (v1, e1, m1), (v2, e2, m2) = _gk15(f, [(a, m), (m, b)])
        pieces[i] = [a, m, v1, e1, m1]
        if splittable(e1, m1):
            heapq.heappush(heap, (-e1, i))
        if splittable(e2, m2):
            heapq.heappush(heap, (-e2, len(pieces)))
        pieces.append([m, b, v2, e2, m2])
        tot_err += e1 + e2 + neg_err
    allp = sorted(pieces, key=lambda p: (p[0].imag, p[0].real, p[1].imag))
    total = 0j
    err = 0.0
    mass = 0.0
    for p in allp:
        total += p[2]
        err += p[3]
        mass += p[4]
    return total, err, mass


def _bits(result):
    val, err, mass = result
    return tuple(float(v).hex() for v in (val.real, val.imag, err, mass))


def test_adaptive_rounds_match_one_split_reference(monkeypatch):
    # the j integrand at ranks 1-5 (prototype index; rank 5, +++++, x = 0.5
    # is the floor point of test_mb_rank5_floor_agrees_with_series) and the
    # vanishing kernel point's one integral of both parities: the same (value, error, mass)
    # bits and points as one split per call, in at most half the calls.  The
    # initial panels come from the contour's tail-probe calls, with the bits
    # of the panels alone
    cases = []

    def recording(f, segs, tol, first):
        cases.append((f, segs, tol, first))
        return _adaptive(f, segs, tol, first)

    monkeypatch.setattr(mellinbarnes, "_adaptive", recording)
    for n in range(1, 6):
        si = SpectralIndex([(n + 1 - 2 * l) / (2 * n) for l in range(1, n + 1)])
        for signs in ("+" * n, ("-+" * n)[:n]):
            for x in (0.5, 3.0, 40.0):
                mb_eval_est(x, SignVector(signs), si, 1e-10)
    bessel_kernel(-3.0, KernelIndex(SpectralIndex([0.0, 0.0]), (1, 0)), "mb", 1e-9)
    assert len(cases) == 5 * 2 * 3 + 1
    calls = {"rounds": 0, "reference": 0}
    for f, segs, tol, first in cases:
        assert first == _gk15(f, segs)
        fr, rounds = _counting(f)
        fo, reference = _counting(f)
        assert _bits(_adaptive(fr, segs, tol, first)) == _bits(_adaptive_one_split(fo, segs, tol))
        assert rounds["points"] + 15 * len(segs) == reference["points"]
        calls["rounds"] += rounds["calls"]
        calls["reference"] += reference["calls"]
    assert 2 * calls["rounds"] <= calls["reference"]


def _probe_points(c):
    """The four tail probes of contour c: two points 2 apart at the end of
    each ray, the inner one first, the upper ray first."""
    out = []
    for up, sign in ((True, 1.0), (False, -1.0)):
        d = mellinbarnes._ray_dir(c, up)
        end = complex(c.base_real, sign * c.bend_height) + c.t_max * d
        out += [end - 2.0 * d, end]
    return np.array(out)


@pytest.mark.parametrize("x, trials", [(2.0, 1), (12.0, 2)])
def test_tail_probes_ride_the_panel_calls(monkeypatch, x, trials):
    # each t_max trial is one integrand call: the GK15 nodes of the segments
    # no earlier trial evaluated, then the four tail probes.  At rank 1,
    # x = 12, t_max grows once, and the second call holds only the segments
    # the longer rays add or cut differently.  A probe's value in that call
    # has the bits of the probe alone, and so has its decay rate
    si = SpectralIndex([0.0])
    sv = SignVector("+")
    lam = np.array(si.lam, dtype=np.complex128)
    integrand = _backend.mb_j_integrand
    seen = []

    def f(s, *args):
        seen.append(s.copy())
        return integrand(s, *args)

    monkeypatch.setattr(_backend, "mb_j_integrand", f)
    mb_eval_est(x, sv, si, 1e-10)
    c = default_contour(si, x)
    known = set()
    for k in range(trials):
        segs = _segments(c, math.log(x))
        new = [seg for seg in segs if seg not in known]
        known.update(new)
        probes = _probe_points(c)
        assert np.array_equal(seen[k], np.concatenate([_panel_nodes(new)[0], probes]))
        together = integrand(seen[k], lam, np.ones(1), 1, math.log(x))[-4:]
        alone = np.array([integrand(p[None], lam, np.ones(1), 1, math.log(x))[0] for p in probes])
        assert together.tobytes() == alone.tobytes()
        assert _tail_rates(together) == _tail_rates(alone)
        c = Contour(c.base_real, c.bend_height, c.bend_angle, c.t_max * 1.7)
    # the trial after the last is the adaptive loop's first split round
    assert seen[trials].size % 15 == 0
    if trials > 1:
        assert len(new) < len(segs) // 4


def test_adaptive_round_stops_at_piece_cap():
    # an integrand no piece of the cap resolves: the rounds must end at
    # exactly _MAX_PIECES pieces, in a few calls (one split per call took 3975)
    def rough(s):
        return np.exp(-0.01 * np.abs(s)) * (1.0 + 1e-3 * np.sin(1e4 * s.imag))

    f, tally = _counting(rough)
    segs = _segments(default_contour(SpectralIndex([0.3, -0.1, -0.2]), 2.0), 3.0)
    _adaptive(f, segs, 1e-14, _gk15(f, segs))
    assert tally["points"] == 15 * (2 * _MAX_PIECES - len(segs))
    assert tally["calls"] <= 20


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_x_raises_before_any_integrand_call(monkeypatch, x):
    fj, tj = _counting(_backend.mb_j_integrand)
    fk, tk = _counting(_backend.mb_kernel_integrand)
    monkeypatch.setattr(_backend, "mb_j_integrand", fj)
    monkeypatch.setattr(_backend, "mb_kernel_integrand", fk)
    si = SpectralIndex([0.3, -0.1, -0.2])
    with pytest.raises(ValueError, match="finite"):
        mb_eval_est(x, SignVector("++-"), si)
    with pytest.raises(ValueError, match="finite"):
        mb_kernel_est(x, si, (0, 1, 1))
    assert tj["calls"] == tk["calls"] == 0


def test_mb_rank5_floor_agrees_with_series():
    # rank 5 at the prototype index, +++++, x=0.5: a point where pieces hit
    # the rounding floor before the tolerance
    from besselhr.series import j_function

    si = SpectralIndex([(6 - 2 * l) / 10.0 for l in range(1, 6)])
    sv = SignVector("+++++")
    v, e = mb_eval_est(0.5, sv, si, 1e-10)
    r = j_function(0.5, sv, si, 1e-10)
    assert abs(v - r.value) <= e + r.tail_bound


def _gamma_all_points(z):
    """_backend._gamma_np with the reflection and each sine branch taken at
    every point and selected by np.where afterwards."""
    left = z.real < 0.5
    a, b = _backend._gamma_np(np.where(left, 1.0 - z, z))
    zl = np.where(left, z, 0.25)
    sgn = np.sign(zl.imag)
    big = sgn * zl.imag >= 18.0
    u = np.where(big, zl * sgn, 18j)
    sgn = np.where(big, sgn, 1.0)
    s = np.where(big, 1.0 - np.exp(2j * math.pi * u), _backend._sinpi_np(np.where(big, 0.25, zl)))
    lin = np.where(big, 1j * math.pi * (u - 0.5 * sgn) + math.log(2.0), 0.0)
    return np.where(left, lin - a, a), np.where(left, math.pi / (b * s), b)


def _mb_integrands_per_factor(s, lam, sig, dl, delta, lnx):
    """The two contour integrands with one _gamma_np call per gamma factor,
    each factor's exponent and unit phase added and multiplied in order."""
    n = lam.shape[0]
    acc_j = -n * lnx * s
    acc_k = -lnx * s
    phase_j = phase_k = None
    for l in range(n):
        w = s - lam[l]
        a, b = _backend._gamma_np(w)
        a = a + complex(0.0, 0.5 * math.pi * sig[l]) * w
        acc_j = acc_j + (a + np.log(np.abs(b)))
        u = (b.real / np.abs(b)) + 1j * (b.imag / np.abs(b))
        phase_j = u if phase_j is None else phase_j * u
        d = int((dl[l] + delta) % 2)
        a1, b1 = _backend._gamma_np(0.5 * (w + d))
        a2, b2 = _backend._gamma_np(0.5 * (1.0 - w + d))
        g = (0.5 - w) * math.log(math.pi) + a1 - a2 + 0.5j * math.pi * d
        r = b1 / b2
        acc_k = acc_k + (g + np.log(np.abs(r)))
        u = (r.real / np.abs(r)) + 1j * (r.imag / np.abs(r))
        phase_k = u if phase_k is None else phase_k * u
    return np.exp(acc_j) * phase_j, np.exp(acc_k) * phase_k


def test_gamma_np_branches_and_rows():
    # the reflection and each sine branch at their own points only give the
    # bits of taking them everywhere; a 2-d array equals its rows
    rng = np.random.default_rng(11)
    z = rng.uniform(-30.0, 30.0, (6, 400)) + 1j * rng.uniform(-45.0, 45.0, (6, 400))
    z[0, :40] = -np.arange(40) + 0.5
    z[1, :40] = rng.uniform(-5.0, 0.5, 40) + 1j * np.repeat([18.0, -18.0], 20)
    a, b = _backend._gamma_np(z)
    ref_a, ref_b = _gamma_all_points(z)
    assert a.tobytes() == ref_a.tobytes() and b.tobytes() == ref_b.tobytes()
    for row, row_a, row_b in zip(z, a, b):
        got_a, got_b = _backend._gamma_np(row)
        assert got_a.tobytes() == row_a.tobytes() and got_b.tobytes() == row_b.tobytes()
    right = z[:, 0] + 40.0
    for got, ref in zip(_backend._gamma_np(right), _gamma_all_points(right)):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", range(1, 7))
def test_mb_integrands_stacked_bits(n):
    # one gamma pass over all factors leaves the bits of one call per factor
    rng = np.random.default_rng(n)
    for _ in range(4):
        lam = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
        sig = rng.choice([-1.0, 1.0], n)
        dl = rng.integers(0, 2, n)
        s = rng.uniform(-8.0, 3.0, 150) + 1j * rng.uniform(-45.0, 45.0, 150)
        lnx = float(rng.uniform(-3.0, 3.0))
        for delta in (0, 1):
            ref_j, ref_k = _mb_integrands_per_factor(s, lam, sig, dl, delta, lnx)
            assert _backend.mb_j_integrand(s, lam, sig, n, lnx).tobytes() == ref_j.tobytes()
            got = _backend.mb_kernel_integrand(s, lam, dl, delta, lnx)
            assert got.tobytes() == ref_k.tobytes()


def _integrand_mp(s, lam, lnx, factor):
    """|x|^(-n s) prod_l factor(w_l, l) in mpmath at the working precision,
    w_l = s - lam_l, the inputs taken as the doubles they are."""
    s = mp.mpc(complex(s))
    out = mp.exp(-lnx * s)
    for l, lam_l in enumerate(lam):
        out *= factor(s - mp.mpc(complex(lam_l)), l)
    return out


def test_mb_integrands_match_mpmath_gammas():
    # both integrands at ranks 1-6 against 30-digit gamma products, within
    # 8 eps n (1 + |s| log(2 + |s|)) relative: the exponent's size sets the
    # rounding of the one exp.  The points cover the right half-plane, the
    # reflection with every |Im| of a factor below 18 and with |Im| >= 18
    # (above 36 for the kernel's halved arguments), out to |Im s| = 120;
    # values outside double range are skipped
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    checked = {"j": 0, "k": 0}
    with mp.workdps(30):
        for n in range(1, 7):
            lam = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
            dl = rng.integers(0, 2, n)
            lnx = float(rng.uniform(-2.0, 2.0))
            s = np.concatenate([
                rng.uniform(1.0, 8.0, 6) + 1j * rng.uniform(-120.0, 120.0, 6),
                rng.uniform(-6.0, 0.0, 6) + 1j * rng.uniform(-15.0, 15.0, 6),
                rng.uniform(-12.0, 0.0, 6)
                + 1j * rng.choice([-1.0, 1.0], 6) * rng.uniform(40.0, 120.0, 6),
            ])
            cases = []
            for sig in (1.0, -1.0):
                got = _backend.mb_j_integrand(s, lam, np.full(n, sig), n, lnx)
                cases.append(("j", got, n * lnx, lambda w, l, sig=sig: mp.gamma(w) * mp.expjpi(
                    sig * w / 2)))
            for delta in (0, 1):
                got = _backend.mb_kernel_integrand(s, lam, dl, delta, lnx)
                d = (dl + delta) % 2
                cases.append(("k", got, lnx, lambda w, l, d=d: (1j) ** d[l] * mp.pi ** (
                    0.5 - w) * mp.gamma((w + d[l]) / 2) / mp.gamma((1 - w + d[l]) / 2)))
            for name, got, ln_scale, factor in cases:
                for si, value in zip(s, got):
                    ref = _integrand_mp(si, lam, ln_scale, factor)
                    if 1e-290 < abs(ref) < 1e290:
                        bound = 8 * eps * n * (1.0 + abs(si) * math.log(2.0 + abs(si)))
                        assert abs(value - ref) <= bound * abs(ref), (name, n, si)
                        checked[name] += 1
    assert checked["j"] >= 150 and checked["k"] >= 200
