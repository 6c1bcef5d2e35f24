"""Second-kind evaluation by truncated asymptotic expansion at infinity.

The solutions singled out by the behaviour e^{i n xi z} z^{-(n-1)/2} at the
rank-one irregular singularity are evaluated by superasymptotic truncation
(stop at the smallest term) of

    e^{i n xi z} z^{-(n-1)/2} sum_m B_m(lambda; xi) z^{-m},

with the absolute error estimated as twice the first omitted term.  The
expansion is used only inside the sector |arg z - arg(i conj(xi))| <
pi + pi/n - theta and above a validity floor proportional to
(max|lambda|+1)^2; the kernel's sweep (second_kind_sweep) reaches down to
sweep_start under the kernel's route rule (kernel._asymptotic_zone).
Every truncation follows one rule, which forms each point's terms only
down to rounding: second_kind and w_function run it at their one point of
the universal cover in Python's arithmetic (_truncate_point),
second_kind_sweep at many positive reals in 2-D (terms x points) array
passes with the same bits (_truncate), and the second-kind points are
finished by one numpy rule (_finish).  Every route
reads the B_m of an index and root from one table of M_CAP + 1 terms, kept
in the series store (b_coeffs).  Connection constants relate these to the
sign-vector functions and to the first-kind family (through a Vandermonde
matrix in e^{-2 pi i lambda_l} and its Lagrange-form inverse).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import coeffs, series
from .coeffs import elementary_symmetric, falling
from .core import (
    OutOfSectorError,
    OverflowEvalError,
    RootOfUnity,
    SignVector,
    SpectralIndex,
    SurfacePoint,
    ValidityFloorError,
    e2pi,
)
from .series import Pointlike, _as_point

DEFAULT_THETA = math.pi / 6
INVERSE_THETA = math.pi / 12  # all n rotated roots must sit in-sector on R+
M_CAP = 30
FLOOR_FACTOR = 4.0
SWEEP_MIN = 6.0  # the least argument at which the kernel tries the expansion
_EPS = float(np.finfo(float).eps)
SUBNORMAL = float(np.finfo(float).smallest_subnormal)  # the least error of a nonzero value
_CUT = 2.0**-60  # a truncation forms no term whose estimate is below _CUT times the largest


@dataclass(frozen=True)
class AsymptoticEval:
    value: complex
    truncation_m: int
    error_estimate: float  # absolute: 2 * |first omitted term|


def sector_center(xi: RootOfUnity) -> float:
    """arg(i conj(xi)) with designated arguments."""
    return 0.5 * math.pi - xi.argument


def in_validity_sector(z: SurfacePoint, xi: RootOfUnity, n: int, theta: float) -> bool:
    return abs(z.argument - sector_center(xi)) < math.pi + math.pi / n - theta


def validity_floor(si: SpectralIndex) -> float:
    try:
        return FLOOR_FACTOR * si.magnitude_bound**2
    except OverflowError:
        raise OverflowEvalError(
            f"the asymptotic validity floor overflows double range for |lambda| "
            f"{si.magnitude_bound:.3g}"
        ) from None


def sweep_start(si: SpectralIndex) -> float:
    """Where the kernel's asymptotic zone starts, and second_kind_sweep's
    floor: max(SWEEP_MIN, (max|lambda|+1)^2), validity_floor / FLOOR_FACTOR.
    The rule above it is kernel._asymptotic_zone's."""
    return max(SWEEP_MIN, validity_floor(si) / FLOOR_FACTOR)


def b_coeffs(si: SpectralIndex, xi: RootOfUnity) -> tuple:
    """B_m(lambda; xi), m = 0..M_CAP, built once per index and root and kept
    in the series store; a prefix has the bits of a table built shorter."""
    return series._stored(
        ("b", si.lam, xi.order, xi.index),
        series._charge(M_CAP + 1, 53),
        lambda: coeffs.build_b_table(si.rank, si, xi, M_CAP).coeffs,
    )


def _running(op, a):
    """The running op (a ufunc: np.add, np.multiply) down axis 0 of a, in
    place, row by row from the first."""
    for m in range(1, len(a)):
        op(a[m - 1], a[m], out=a[m])


def _truncate_point(b, t0, zinv):
    """Superasymptotic truncation of sum_m b[m] t0 z^{-m} at one point, in
    Python's arithmetic (t0 and zinv = z^{-1} Python numbers).

    The powers t0 z^{-m} come by repeated multiplication with zinv.  The
    point forms its terms only down to rounding: through the last m whose
    estimate |b_m| |t0 z^{-m}| exceeds _CUT times the largest estimate (the
    largest, not the leading one: w_function's b_0 can be 0), and one term
    more, for the omitted one; the band near sweep_start keeps all len(b).
    Among those it cuts before the first smallest term, at least the
    leading one, and sums the kept terms and their magnitudes left to
    right.  Off the real axis the powers are complex, and Python's complex
    product never fuses a multiply and an add into one rounding, as
    numpy's may.  Returns the truncation m*, the partial sum, the first
    omitted term's magnitude and the magnitudes summed over the kept terms.
    """
    powers = [t0]
    for _ in b[1:]:
        powers.append(powers[-1] * zinv)
    est = [abs(p) * abs(c) for p, c in zip(powers, b)]
    cut = _CUT * max(est)
    own = next((min(m + 2, len(b)) for m in reversed(range(len(b))) if est[m] > cut), len(b))
    # + 0.0: the sums start from +0, as Python's sum does
    terms = [c * p + 0.0 for c, p in zip(b[:own], powers)]
    mags = [abs(v) for v in terms]
    m_star = max(mags.index(min(mags)), 1)
    total, mass = terms[0], mags[0]
    for v, size in zip(terms[1:m_star], mags[1:m_star]):
        total += v
        mass += size
    return m_star, total, mags[min(m_star, own - 1)], mass


def _truncate(b, t0, zinv):
    """_truncate_point at the positive reals of the 1-d array zinv (t0 a
    real number), with its bits, in 2-D (terms x points) array passes: the
    powers, the estimates, each point's own rows (a pass forms as many
    rows as its widest point needs), the first smallest term among them
    (argmin) and the running sums, with numpy's real products, which are
    Python's.  One point takes _truncate_point itself, a shorter way to the
    same bits.  Returns the four per-point arrays.
    """
    if len(zinv) == 1:
        return tuple(np.array([v]) for v in _truncate_point(b, t0, float(zinv[0])))
    t = np.empty((len(b), len(zinv)))
    t[0] = t0
    t[1:] = zinv
    _running(np.multiply, t)
    b = np.array(b, dtype=np.complex128)
    est = np.abs(t) * np.hypot(b.real, b.imag)[:, None]  # abs() of a complex, bit for bit
    over = est > _CUT * est.max(axis=0)
    own = np.minimum(len(b) + 1 - over[::-1].argmax(axis=0), len(b))  # last over, + 2
    width = int(own.max(initial=1))
    terms = b[:width, None] * t[:width] + 0.0
    mag = np.hypot(terms.real, terms.imag)
    mine = np.where(np.arange(width)[:, None] < own, mag, np.inf)  # each point's own rows
    m_star = np.maximum(mine.argmin(axis=0), 1)
    points = np.arange(len(zinv))
    omitted = mag[np.minimum(m_star, own - 1), points]
    _running(np.add, terms)
    _running(np.add, mag)
    # row m - 1 of a running sum holds the terms before m
    return m_star, terms[m_star - 1, points], omitted, mag[m_star - 1, points]


def _finish(wc, log_z, n: int, total, omitted, mass):
    """The values e^w z^{-(n-1)/2} * total, w = wc z, at the points of the
    complex array log_z, and their absolute errors: twice the first omitted
    term plus the rounding of the kept terms and of the phase, at least the
    subnormal spacing where the value is nonzero (the error can underflow
    first).  OverflowEvalError where e^w or the value overflows."""
    with np.errstate(over="raise"):
        try:
            w = wc * np.exp(log_z)
            pref = np.exp(w - (n - 1) / 2.0 * log_z)
            value = pref * total
            # the exp(i n xi z) phase is conditioned like |n z|, which caps
            # the attainable relative accuracy of the whole evaluation
            err = np.abs(pref) * (
                2.0 * omitted + _EPS * (4.0 * mass + (4.0 + 2.0 * np.abs(w)) * np.abs(total))
            )
        except FloatingPointError:
            raise OverflowEvalError("the second-kind expansion overflows double range") from None
    return value, np.fmax(err, SUBNORMAL * (value != 0))


def second_kind(
    z: Pointlike,
    si: SpectralIndex,
    xi: RootOfUnity,
    theta: float = DEFAULT_THETA,
) -> AsymptoticEval:
    """Superasymptotically truncated second-kind evaluation at xi.

    xi must be a 2n-th root of +1 carrying its designated argument; the
    point must lie in the validity sector and above the floor, otherwise
    OutOfSectorError / ValidityFloorError direct the caller to the series
    or Mellin-Barnes routes.
    """
    z = _as_point(z)
    n = si.rank
    if xi.order != 2 * n:
        raise ValueError("xi must be a 2n-th root of unity for rank n")
    if not in_validity_sector(z, xi, n, theta):
        raise OutOfSectorError(
            f"arg z = {z.argument:.4f} outside sector around "
            f"{sector_center(xi):.4f} (theta={theta:.3f})"
        )
    floor = validity_floor(si)
    if z.modulus < floor:
        raise ValidityFloorError(
            f"|z| = {z.modulus:.3f} below validity floor {floor:.3f}; "
            "use the series or Mellin-Barnes evaluation"
        )
    m_star, total, omitted, mass = _truncate_point(b_coeffs(si, xi), 1.0 + 0.0j, z.power(-1))
    value, err = _finish(1j * n * xi.value, np.array([z.log()]), n, np.array([total]), omitted, mass)
    return AsymptoticEval(complex(value[0]), m_star, float(err[0]))


def second_kind_sweep(z, si: SpectralIndex, xi: RootOfUnity):
    """second_kind at the positive reals z (a 1-d array, argument 0), down
    to sweep_start instead of validity_floor, for its one caller, the
    kernel's route rule (kernel._asymptotic_zone).

    One _truncate over all points, with z^{-1} by the complex exponential
    of -log z, real here, and one _finish, so each point has second_kind's
    bits.  Memory is a few arrays of len(z) x (M_CAP+1) entries, so callers
    pass blocks of bounded size.  Returns the values and the absolute error
    estimates.
    """
    n = si.rank
    if xi.order != 2 * n:
        raise ValueError("xi must be a 2n-th root of unity for rank n")
    if not in_validity_sector(SurfacePoint(0.0, 0.0), xi, n, DEFAULT_THETA):
        raise OutOfSectorError(
            f"the positive reals lie outside the sector around {sector_center(xi):.4f}"
        )
    z = np.asarray(z, dtype=float)
    start = sweep_start(si)
    if (z < start).any():
        raise ValidityFloorError(f"a point lies below the kernel's asymptotic start {start:.3f}")
    log_z = np.log(z) + 0j  # argument 0
    _, total, omitted, mass = _truncate(b_coeffs(si, xi), 1.0, np.exp(-log_z).real)
    return _finish(1j * n * xi.value, log_z, n, total, omitted, mass)


def w_function(
    z: Pointlike,
    si: SpectralIndex,
    sign,
    j: int = 0,
) -> AsymptoticEval:
    """W^+- and its j-th derivative by term-wise differentiation.

    W(z) = z^{-(n-1)/2} sum_m B_m(lambda; +-1) z^{-m}; differentiating the
    truncated expansion term by term keeps the same shape with coefficients
    B_m [-(m + (n-1)/2)]_j and the error folded into the estimate.
    """
    z = _as_point(z)
    n = si.rank
    sgn = series._norm_sign(sign)
    xi = RootOfUnity(2 * n, 0 if sgn > 0 else n)
    floor = validity_floor(si)
    if z.modulus < floor:
        raise ValidityFloorError(f"|z| = {z.modulus:.3f} below floor {floor:.3f}")
    half = (n - 1) / 2.0
    bs = [b * falling(-(m + half), j) for m, b in enumerate(b_coeffs(si, xi))]
    m_star, total, omitted, mass = _truncate_point(bs, z.power(-half - j), z.power(-1))
    return AsymptoticEval(total, m_star, 2.0 * omitted + 4.0 * _EPS * mass)


def _scaled(const: complex, base: AsymptoticEval) -> AsymptoticEval:
    """const times a second-kind evaluation, with its error scaled by |const|."""
    return AsymptoticEval(const * base.value, base.truncation_m, abs(const) * base.error_estimate)


def h_bessel(z: Pointlike, si: SpectralIndex, sign) -> AsymptoticEval:
    """Oscillatory-family function: n^{-1/2} (+-2 pi i)^{(n-1)/2} J(z; lam; +-1).

    Defined on the closed half-plane 0 <= +-arg z <= pi.
    """
    z = _as_point(z)
    n = si.rank
    sgn = series._norm_sign(sign)
    if not (-1e-12 <= sgn * z.argument <= math.pi + 1e-12):
        raise OutOfSectorError("argument outside the half-plane of analyticity")
    xi = RootOfUnity(2 * n, 0 if sgn > 0 else n)
    const = n**-0.5 * cmath.exp(
        ((n - 1) / 2.0) * complex(math.log(2 * math.pi), sgn * 0.5 * math.pi)
    )
    return _scaled(const, second_kind(z, si, xi))


def root_front(n: int, k: int) -> complex:
    """A_k, the lambda-free part of varsigma_factor at k minus signs."""
    phase = (n - 1) / 8.0 - (n - 1) * k / (4.0 * n)
    return (2 * math.pi) ** ((n - 1) / 2.0) / math.sqrt(n) * e2pi(phase)


def varsigma_factor(sv: SignVector, si: SpectralIndex) -> complex:
    """(2 pi)^{(n-1)/2} c(sig, lam) / sqrt(n) = A_k prod_S e(lam_l / 2), S the
    minus set of sig, k = |S|: it takes J(z; lam; xi(sig)) to J(z; sig, lam)."""
    y = series.root_factors(si.lam, (0,) * sv.n)[0]
    return root_front(sv.n, sv.n_minus) * math.prod(y[l - 1] for l in sv.minus_positions)


def j_varsigma_asymptotic(z: Pointlike, sv: SignVector, si: SpectralIndex) -> AsymptoticEval:
    """Sign-vector function through its distinguished second-kind solution."""
    if sv.n != si.rank:
        raise ValueError("sign vector length must match rank")
    return _scaled(varsigma_factor(sv, si), second_kind(z, si, sv.xi()))


def rotate_second_kind(
    z: Pointlike, si: SpectralIndex, xi: RootOfUnity, theta: float = DEFAULT_THETA
) -> AsymptoticEval:
    """J(z; lam; xi) via (+-xi)^{(n-1)/2} J(+-xi z; lam; +-1).

    Picks whichever of the two rotations lands in the validity sector of
    the target expansion (both agree where they overlap).
    """
    z = _as_point(z)
    n = si.rank
    if xi.order != 2 * n:
        raise ValueError("xi must be a 2n-th root of unity")
    last_exc = None
    for sgn in (1, -1):
        rot = xi if sgn > 0 else RootOfUnity(2 * n, xi.index + n)
        base_xi = RootOfUnity(2 * n, 0 if sgn > 0 else n)
        zr = z.times_root(rot)
        try:
            base = second_kind(zr, si, base_xi, theta)
        except OutOfSectorError as exc:
            last_exc = exc
            continue
        return _scaled(cmath.exp(1j * ((n - 1) / 2.0) * rot.argument), base)
    raise last_exc


def _sym_funcs_omitting(values: Sequence[complex]) -> list:
    """Row of elementary symmetric polynomials with one variable omitted."""
    return [
        elementary_symmetric([v for k, v in enumerate(values) if k != l])
        for l in range(len(values))
    ]


def inverse_connection(z: Pointlike, si: SpectralIndex, a: int) -> list:
    """First-kind values J_l(z; (-1)^a, lam) rebuilt from second-kind ones.

    Uses the n roots xi_j = e^{i pi (2j + a - 2)/n} and the exact
    Lagrange-form inverse of the Vandermonde matrix in e^{-2 pi i lambda_l}:

      J_l = e^{3 pi i (n-1)/4} / (sqrt(n) (2 pi)^{(n-1)/2})
            * e^{pi i (n/2 + a - 2) lambda_l}
            * sum_j (-1)^{n-j} xi_j^{-(n-1)/2} sigma_{l, n-j} J(z; lam; xi_j).
    """
    z = _as_point(z)
    n = si.rank
    gap_scale = min(
        abs(e2pi(-si.lam[l]) - e2pi(-si.lam[k]))
        for l in range(n)
        for k in range(l + 1, n)
    ) if n > 1 else 1.0
    if gap_scale < 1e-6:
        raise ValueError(
            "index too close to non-generic; the Vandermonde system degenerates"
        )
    xs = [e2pi(-v) for v in si.lam]
    sig_rows = _sym_funcs_omitting(xs)
    roots = [RootOfUnity(2 * n, 2 * j + a - 2) for j in range(1, n + 1)]
    evals = [rotate_second_kind(z, si, xi, INVERSE_THETA) for xi in roots]
    front = cmath.exp(0.75j * math.pi * (n - 1)) / (
        math.sqrt(n) * (2 * math.pi) ** ((n - 1) / 2.0)
    )
    out = []
    for l in range(n):
        acc = 0j
        for j, xi in enumerate(roots, 1):
            acc += (
                (-1.0) ** (n - j)
                * cmath.exp(-1j * ((n - 1) / 2.0) * xi.argument)
                * sig_rows[l][n - j]
                * evals[j - 1].value
            )
        out.append(
            front * cmath.exp(1j * math.pi * (0.5 * n + a - 2) * si.lam[l]) * acc
        )
    return out
