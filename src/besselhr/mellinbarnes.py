"""Contour quadrature of the defining Mellin-Barnes integrals.

The function of sign vector varsigma and spectral index lambda is

    (1/2 pi i) * integral over C of
        prod_l Gamma(s - lam_l) e(sig_l (s - lam_l)/4) * x^{-n s} ds,

and the signed kernel uses products of the gamma factors G_delta instead.
The contour C runs vertically through base_real (right of every pole
lam_l - m) for |Im s| <= bend_height, then leaves along straight rays tilted
left of vertical by bend_angle.  On the rays the integrand decays
factorially (1/Gamma growth of the reflected argument beats the exponential
phase factors), which is what makes the all-equal-signs case convergent; on
a straight vertical line it would only decay polynomially.

Quadrature is adaptive Gauss-Kronrod 15(7) per straight segment with
geometric subdivision toward the bend, deterministic summation order, and a
tail cut where an empirical decay-rate bound drops below tol/10.  An
integrand may return several terms per point (the kernel's two parities):
the value and Kronrod-Gauss difference come from their sum, every magnitude
(absolute mass, tail decay rates) from their summed moduli.  A piece whose
Kronrod-Gauss difference is at most 50 eps times its absolute mass is at its
rounding floor and is never split again, so the loop stops where the error
estimate stops falling instead of running to its piece cap.  The integrand
is called on batches of points: each t_max trial sends the segments no
earlier trial evaluated together with its four tail probes, so the first
call holds all the initial segments and a second one comes only when t_max
grows; each refinement round sends the halves of all its splits together.
The integrands are elementwise and the GK15 sums run over the columns of
all panels at once in a fixed order, so a panel's sums, and a probe's
value, are the same bits alone or in a batch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _backend
from .core import SignVector, SpectralIndex, ToleranceNotMetError, check_tolerance, gamma

# Gauss-Kronrod 15-point nodes/weights with the embedded 7-point Gauss rule
# (QUADPACK dqk15 constants).
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending abscissae
_WK15 = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG15 = np.zeros(15)
_WG15[1::2] = np.concatenate([_WG[:-1], _WG[::-1]])  # Gauss points are odd-indexed

# A GK15 piece whose error estimate is at most this times its absolute mass
# is at its own rounding level (QUADPACK dqk15 bounds the estimate from below
# by 50 eps times the mass); splitting it cannot lower the estimate.
_ROUNDING_FLOOR = 50.0 * np.finfo(float).eps
_MAX_PIECES = 4000  # adaptive pieces per contour integral
_POLE_MARGIN = 0.5  # the contour's base passes this far right of max Re lambda


@dataclass(frozen=True)
class Contour:
    """Bent vertical contour; all integrand poles stay strictly left."""

    base_real: float
    bend_height: float
    bend_angle: float  # tilt of the rays left of vertical, radians
    t_max: float


def _ray_dir(c: Contour, up: bool) -> complex:
    phi = 0.5 * math.pi + c.bend_angle
    d = complex(math.cos(phi), math.sin(phi))
    return d if up else d.conjugate()


def default_contour(si: SpectralIndex, x: float) -> Contour:
    max_re = max(v.real for v in si.lam)
    max_im = max(abs(v.imag) for v in si.lam)
    base = max(0.6, max_re + _POLE_MARGIN)
    height = max(2.0, max_im + 1.5)
    chi = max(min(0.5 * math.pi / si.rank, 4.0 / (1.0 + x)), 0.02)
    return Contour(base, height, chi, 30.0 + 2.0 * x)


def _segments(c: Contour, osc_rate: float):
    """Oriented straight pieces from bottom-left infinity to top-left.

    Segment lengths start near the oscillation scale of x^{-ns} and grow
    geometrically out along the rays.
    """
    h0 = min(1.0, math.pi / (1.0 + abs(osc_rate)))

    def ray_chunks(start, direction):
        out = []
        t, h = 0.0, h0
        while t < c.t_max:
            t2 = min(c.t_max, t + h)
            out.append((start + t * direction, start + t2 * direction))
            t = t2
            h *= 1.35
        return out

    bottom = ray_chunks(complex(c.base_real, -c.bend_height), _ray_dir(c, up=False))
    segs = [(b, a) for a, b in reversed(bottom)]  # inward: far bottom toward the bend
    t = -c.bend_height
    while t < c.bend_height - 1e-12:
        t2 = min(c.bend_height, t + h0)
        segs.append((complex(c.base_real, t), complex(c.base_real, t2)))
        t = t2
    segs.extend(ray_chunks(complex(c.base_real, c.bend_height), _ray_dir(c, up=True)))
    return segs


def _panel_nodes(pieces):
    """The 15 GK15 nodes of each straight piece (a, b), piece after piece in
    one flat array, and the half-lengths (b - a)/2."""
    ends = np.array(pieces, dtype=np.complex128).reshape(-1, 2)
    mid = 0.5 * (ends[:, 0] + ends[:, 1])
    half = 0.5 * (ends[:, 1] - ends[:, 0])
    return (mid[:, None] + half[:, None] * _NODES).ravel(), half


def _column_sum(rows, weights, centre, w_centre):
    """w_centre * centre + sum_j weights[j] * rows[:, j], the columns added
    in order j = 0, 1, ...: the same bits for a row alone or in a batch."""
    total = centre * w_centre
    for col in (rows * weights).T:
        total += col
    return total


def _gk15_sums(fv, half):
    """(Kronrod value, |Kronrod - Gauss|, absolute mass) per piece from fv,
    the integrand at the 15 _NODES of each piece in turn (one value per
    point, or one row per term), and the half-lengths.  The terms are
    summed at each point for the value and the difference, and the mass is
    taken from their summed moduli.  The symmetric node pairs are added
    first, as in QUADPACK dqk15, and every sum runs over the columns for
    all pieces at once."""
    fv = fv.reshape(fv.shape[:-1] + (-1, 15))
    av = np.abs(fv)
    if fv.ndim == 3:
        fv, av = fv.sum(axis=0), av.sum(axis=0)
    pairs = fv[:, :7] + fv[:, :7:-1]  # f(-x_j) + f(x_j), x_j from outermost in
    ik = half * _column_sum(pairs, _WGK[:7], fv[:, 7], _WGK[7])
    ig = half * _column_sum(pairs[:, 1::2], _WG[:3], fv[:, 7], _WG[3])
    mass = np.abs(half) * _column_sum(av[:, :7] + av[:, :7:-1], _WGK[:7], av[:, 7], _WGK[7])
    return list(zip(ik.tolist(), np.abs(ik - ig).tolist(), mass.tolist()))


def _gk15(f, pieces):
    """GK15 on each straight piece (a, b), all nodes in one integrand call:
    (Kronrod value, |Kronrod - Gauss|, absolute mass) per piece."""
    points, half = _panel_nodes(pieces)
    return _gk15_sums(f(points), half)


def _adaptive(f, segs, tol, first):
    """Adaptive bisection over straight pieces in refinement rounds;
    deterministic summation.

    Each round starts from the fresh total error, walks the splittable
    pieces from the largest error down (ties to the lowest index) and picks
    each one above the share tol/(4 * pieces) until the errors left
    unpicked sum to at most tol/4, so a round whose total is already there
    picks nothing and the loop ends; the picks are cut to the room left
    under _MAX_PIECES.  A piece whose Kronrod-Gauss difference is at most
    _ROUNDING_FLOOR times its absolute mass sits at the rounding level of
    its own rule (the QUADPACK dqk15 floor) and is never picked, so the
    loop also ends when no piece is left to pick.  Each pick's left half
    keeps its index and its right half is appended.  first holds the
    _gk15 results of the initial segments; all the halves of each round go
    to the integrand in one call.
    """
    pieces = [[a, b, *r] for (a, b), r in zip(segs, first)]
    while len(pieces) < _MAX_PIECES:
        unpicked = sum(p[3] for p in pieces)
        share = 0.25 * tol / len(pieces)
        ranked = sorted(
            (-p[3], i) for i, p in enumerate(pieces)
            if p[3] > share and p[3] > _ROUNDING_FLOOR * p[4]
        )
        picks = []
        for neg_err, i in ranked:
            if unpicked <= 0.25 * tol:
                break
            picks.append(i)
            unpicked += neg_err
        picks = picks[: _MAX_PIECES - len(pieces)]
        if not picks:
            break
        cuts = []
        for i in picks:
            a, b = pieces[i][0], pieces[i][1]
            cuts.append((i, a, 0.5 * (a + b), b))
        halves = iter(_gk15(f, [h for _, a, m, b in cuts for h in ((a, m), (m, b))]))
        for i, a, m, b in cuts:
            pieces[i] = [a, m, *next(halves)]
            pieces.append([m, b, *next(halves)])
    # deterministic order: sort all pieces by (Im a, Re a)
    allp = sorted(pieces, key=lambda p: (p[0].imag, p[0].real, p[1].imag))
    total, err, mass = 0j, 0.0, 0.0
    for p in allp:
        total += p[2]
        err += p[3]
        mass += p[4]
    return total, err, mass


def _tail_rates(fv):
    """Empirical decay rate of ln|f| (positive = decaying) and |f| at each
    ray end, from the values at two points 2 apart per ray, the inner one
    first; |f| is the summed moduli of the terms (the rows of a 2-d fv)."""
    av = [sum(map(abs, col)) for col in np.atleast_2d(fv).T]  # scalar abs: the probes' bits
    return [(math.inf, 0.0) if f0 == 0.0 else ((math.log(f1) - math.log(f0)) / 2.0, f0)
            for f1, f0 in zip(av[::2], av[1::2])]


def _integrate_contour(f, c: Contour, osc_rate: float, tol: float):
    """Integrate f (a value or a row of terms per point) along the contour,
    growing t_max until the tail is safe: the value, and its error, the
    Kronrod-Gauss differences, the tail bound and 4 eps times the mass.

    Each t_max trial makes one integrand call: the GK15 nodes of the
    contour's segments not evaluated by an earlier trial, then the four
    tail probes, two points 2 apart at the end of each ray.  Only the
    segment each ray's end cuts short changes when t_max grows, so a trial
    that fails wastes just those; the adaptive loop starts from the
    segments of the trial that passed.

    At x near the top of double range the exponent sums overflow to inf
    and nan, on the tail probes or on the panels; numpy's warnings are off
    for the whole call, and a tail that does not come under control or a
    value, error or mass that is not finite raises ToleranceNotMetError.
    """
    with np.errstate(all="ignore"):
        cc = c
        known = {}
        for _ in range(10):
            segs = _segments(cc, osc_rate)
            new = [seg for seg in segs if seg not in known]
            up, dn = _ray_dir(cc, True), _ray_dir(cc, False)
            ends = (
                (complex(cc.base_real, cc.bend_height) + cc.t_max * up, up),
                (complex(cc.base_real, -cc.bend_height) + cc.t_max * dn, dn),
            )
            points, half = _panel_nodes(new)
            probes = np.array([p for end, d in ends for p in (end - 2.0 * d, end)])
            fv = f(np.concatenate([points, probes]))
            known.update(zip(new, _gk15_sums(fv[..., : points.size], half)))
            rates = _tail_rates(fv[..., points.size :])
            if all(rate > 0.05 and math.isfinite(f0) for rate, f0 in rates):
                tail = sum(4.0 * f0 / rate for rate, f0 in rates)
                if tail < 0.1 * tol:
                    break
            cc = replace(cc, t_max=cc.t_max * 1.7)
        else:
            raise ToleranceNotMetError("contour tail does not come under control")
        val, err, mass = _adaptive(f, segs, tol, [known[seg] for seg in segs])
    if not (cmath.isfinite(val) and math.isfinite(err) and math.isfinite(mass)):
        raise ToleranceNotMetError(
            "the contour integral overflows double range: its value, error or mass is not finite"
        )
    return val, err + tail + 4.0 * np.finfo(float).eps * mass


def mb_eval_est(x: float, sv: SignVector, si: SpectralIndex, tol: float = 1e-10):
    """Value and achieved absolute-error estimate (never raises on accuracy).

    The estimate combines the quadrature error, the tail bound and a
    roundoff floor proportional to the total absolute mass moved along the
    contour (the oscillatory-cancellation cost that caps the oracle's
    accuracy at large x).
    """
    check_tolerance(tol)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if x <= 0.0:
        raise ValueError("defined for positive real x; elsewhere use the "
                         "series/asymptotic continuations")
    n = si.rank
    if sv.n != n:
        raise ValueError("sign vector length must match the rank")
    lam = np.array(si.lam, dtype=np.complex128)
    sig = np.array(sv.signs, dtype=np.float64)
    lnx = math.log(x)

    def f(s):
        return _backend.mb_j_integrand(s, lam, sig, n, lnx)

    val, err = _integrate_contour(f, default_contour(si, x), n * lnx, tol)
    scale = 1.0 / (2.0 * math.pi)
    return val * scale / 1j, err * scale


def mb_eval(x: float, sv: SignVector, si: SpectralIndex, tol: float = 1e-10) -> complex:
    """Mellin-Barnes evaluation certified to absolute accuracy tol."""
    value, achieved = mb_eval_est(x, sv, si, tol)
    if achieved > tol:
        raise ToleranceNotMetError(
            f"achieved {achieved:.2e} > tol {tol:.2e} at x={x}",
            value=value,
            achieved=achieved,
        )
    return value


def mb_kernel_est(x: float, si: SpectralIndex, deltas, tol: float = 1e-9):
    """Signed-kernel value at x != 0 with achieved-error estimate.

    Evaluates 1/(4 pi i) times the integral of the sum over d in {0,1} of
    sgn(x)^d prod_l G_{delta_l + d}(s - lam_l) |x|^{-s} ds, one contour
    integral whose integrand returns both parity terms at each point.  Where
    the kernel vanishes identically they cancel point by point, so every
    piece starts at the rounding floor of their summed moduli.
    """
    check_tolerance(tol)
    if not math.isfinite(x):
        raise ValueError(f"kernel argument must be finite, got {x}")
    if x == 0.0:
        raise ValueError("kernel argument must be nonzero")
    n = si.rank
    dl = np.array([int(d) % 2 for d in deltas], dtype=np.int64)
    if dl.shape[0] != n:
        raise ValueError("parity vector length must match the rank")
    lam = np.array(si.lam, dtype=np.complex128)
    lnx = math.log(abs(x))
    sgn = 1.0 if x > 0 else -1.0

    def f(s):  # one row per parity term
        terms = [_backend.mb_kernel_integrand(s, lam, dl, d, lnx) for d in (0, 1)]
        return np.stack([terms[0], sgn * terms[1]])

    c = default_contour(si, 2.0 * math.pi * abs(x) ** (1.0 / n))
    val, err = _integrate_contour(f, c, lnx, tol)
    scale = 1.0 / (4.0 * math.pi)
    return val * scale / 1j, err * scale


def g_delta(s, delta: int, form: str = "ratio") -> complex:
    """The gamma factor, two computable ways.

    ratio: i^delta pi^{1/2-s} Gamma((s+delta)/2) / Gamma((1-s+delta)/2),
           the kernel integrand at rank 1, lam = 0 and x = 1
    trig:  2 (2 pi)^{-s} Gamma(s) cos(pi s/2)        (delta even)
           2 i (2 pi)^{-s} Gamma(s) sin(pi s/2)      (delta odd)
    """
    s = complex(s)
    delta = int(delta) % 2
    if form == "ratio":
        g = _backend.mb_kernel_integrand(np.array([s]), np.zeros(1), np.array([delta]), 0, 0.0)
        return complex(g[0])
    if form == "trig":
        g = gamma(s) * 2.0 * (2.0 * math.pi) ** (-s)
        if delta == 0:
            return g * _backend.cospi(0.5 * s)
        return 1j * g * _backend.sinpi(0.5 * s)
    raise ValueError("form must be 'ratio' or 'trig'")
