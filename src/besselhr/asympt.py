"""Second-kind evaluation by truncated asymptotic expansion at infinity.

The solutions singled out by the behaviour e^{i n xi z} z^{-(n-1)/2} at the
rank-one irregular singularity are evaluated by superasymptotic truncation
(stop at the smallest term) of

    e^{i n xi z} z^{-(n-1)/2} sum_m B_m(lambda; xi) z^{-m},

with the absolute error estimated as twice the first omitted term.  The
expansion is used only inside the sector |arg z - arg(i conj(xi))| <
pi + pi/n - theta and above a validity floor proportional to
(max|lambda|+1)^2.  Connection constants relate these to the sign-vector
functions and to the first-kind family (through a Vandermonde matrix in
e^{-2 pi i lambda_l} and its Lagrange-form inverse).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coeffs import cached_b_table, elementary_symmetric, falling
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


@dataclass(frozen=True)
class AsymptoticEval:
    value: complex
    truncation_m: int
    error_estimate: float  # absolute: 2 * |first omitted term|
    in_sector: bool


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


def second_kind(
    z: Pointlike,
    si: SpectralIndex,
    xi: RootOfUnity,
    theta: float = DEFAULT_THETA,
    m_cap: int = M_CAP,
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
    tab = cached_b_table(si, xi, m_cap)
    zinv = z.power(-1)
    terms = []
    t = 1.0 + 0.0j
    for m in range(len(tab.coeffs)):
        terms.append(tab.coeffs[m] * t)
        t *= zinv
    mags = [abs(v) for v in terms]
    m_star = int(np.argmin(mags))
    if m_star == 0:
        m_star = 1  # always keep the leading term
    total = sum(terms[:m_star])
    w = 1j * n * xi.value * z.to_complex()
    pref = cmath.exp(w) * z.power(-(n - 1) / 2.0)
    eps = np.finfo(float).eps
    # the exp(i n xi z) phase is conditioned like |n z|, which caps the
    # attainable relative accuracy of the whole evaluation
    err = abs(pref) * (
        2.0 * mags[min(m_star, len(mags) - 1)]
        + eps * (4.0 * sum(mags[:m_star]) + (4.0 + 2.0 * abs(w)) * abs(total))
    )
    return AsymptoticEval(pref * total, m_star, err, True)


def second_kind_sweep(z, si: SpectralIndex, xi: RootOfUnity):
    """second_kind at the positive reals z (argument 0), for many points.

    The same per-point rules as second_kind (truncation at the first
    smallest term, at least one term, the partial sum left to right and the
    same error formula), with the expansion summed as numpy passes over the
    cached B_m table: one pass finds each point's truncation, a second sums
    up to it.  Memory is a few arrays of the size of z.  Returns the values
    and the absolute error estimates.
    """
    n = si.rank
    if xi.order != 2 * n:
        raise ValueError("xi must be a 2n-th root of unity for rank n")
    if not in_validity_sector(SurfacePoint(0.0, 0.0), xi, n, DEFAULT_THETA):
        raise OutOfSectorError(
            f"the positive reals lie outside the sector around {sector_center(xi):.4f}"
        )
    z = np.asarray(z, dtype=float)
    floor = validity_floor(si)
    if (z < floor).any():
        raise ValidityFloorError(f"a point lies below the validity floor {floor:.3f}")
    tab = cached_b_table(si, xi, M_CAP)
    logs = [math.log(v) for v in z]
    zinv = np.array([math.exp(-v) for v in logs])  # z.power(-1) at argument 0
    coeffs = [(b.real, b.imag) for b in tab.coeffs]

    def terms():
        t = np.ones(z.shape)
        for b_re, b_im in coeffs:
            re = b_re * t
            im = b_im * t
            yield re, im, np.hypot(re, im)
            t = t * zinv

    best = np.full(z.shape, np.inf)
    m_star = np.zeros(z.shape, dtype=np.int64)
    for m, (_, _, mag) in enumerate(terms()):
        smaller = mag < best  # strict: the first smallest term, as np.argmin
        best = np.where(smaller, mag, best)
        m_star = np.where(smaller, m, m_star)
    m_star = np.maximum(m_star, 1)  # always keep the leading term
    last = np.minimum(m_star, len(coeffs) - 1)
    tot_re = np.zeros(z.shape)
    tot_im = np.zeros(z.shape)
    mag_sum = np.zeros(z.shape)
    omitted = np.zeros(z.shape)
    for m, (re, im, mag) in enumerate(terms()):
        keep = m < m_star
        tot_re = tot_re + np.where(keep, re, 0.0)
        tot_im = tot_im + np.where(keep, im, 0.0)
        mag_sum = mag_sum + np.where(keep, mag, 0.0)
        omitted = np.where(m == last, mag, omitted)
    eps = np.finfo(float).eps
    wc = 1j * n * xi.value
    half = complex(-(n - 1) / 2.0)
    values = np.empty(z.shape, dtype=np.complex128)
    errors = np.empty(z.shape)
    for i, (lg, t_re, t_im, o, ms) in enumerate(
        zip(logs, tot_re.tolist(), tot_im.tolist(), omitted.tolist(), mag_sum.tolist())
    ):
        log_z = complex(lg, 0.0)
        w = wc * cmath.exp(log_z)
        pref = cmath.exp(w) * cmath.exp(half * log_z)
        total = complex(t_re, t_im)
        values[i] = pref * total
        errors[i] = abs(pref) * (2.0 * o + eps * (4.0 * ms + (4.0 + 2.0 * abs(w)) * abs(total)))
    return values, errors


def w_function(
    z: Pointlike,
    si: SpectralIndex,
    sign,
    j: int = 0,
    m_cap: int = M_CAP,
) -> AsymptoticEval:
    """W^+- and its j-th derivative by term-wise differentiation.

    W(z) = z^{-(n-1)/2} sum_m B_m(lambda; +-1) z^{-m}; differentiating the
    truncated expansion term by term keeps the same shape with coefficients
    B_m [-(m + (n-1)/2)]_j and the error folded into the estimate.
    """
    z = _as_point(z)
    n = si.rank
    sgn = 1 if sign in (1, "+") else -1
    xi = RootOfUnity(2 * n, 0 if sgn > 0 else n)
    floor = validity_floor(si)
    if z.modulus < floor:
        raise ValidityFloorError(f"|z| = {z.modulus:.3f} below floor {floor:.3f}")
    tab = cached_b_table(si, xi, m_cap)
    half = (n - 1) / 2.0
    zinv = z.power(-1)
    terms = []
    t = z.power(-half - j)
    for m in range(len(tab.coeffs)):
        terms.append(tab.coeffs[m] * falling(-(m + half), j) * t)
        t *= zinv
    mags = [abs(v) for v in terms]
    m_star = max(1, int(np.argmin(mags)))
    total = sum(terms[:m_star])
    eps = np.finfo(float).eps
    err = 2.0 * mags[min(m_star, len(mags) - 1)] + 4.0 * eps * sum(mags[:m_star])
    return AsymptoticEval(total, m_star, err, True)


def h_bessel(z: Pointlike, si: SpectralIndex, sign) -> AsymptoticEval:
    """Oscillatory-family function: n^{-1/2} (+-2 pi i)^{(n-1)/2} J(z; lam; +-1).

    Defined on the closed half-plane 0 <= +-arg z <= pi.
    """
    z = _as_point(z)
    n = si.rank
    sgn = 1 if sign in (1, "+") else -1
    if not (-1e-12 <= sgn * z.argument <= math.pi + 1e-12):
        raise OutOfSectorError("argument outside the half-plane of analyticity")
    xi = RootOfUnity(2 * n, 0 if sgn > 0 else n)
    base = second_kind(z, si, xi)
    const = n**-0.5 * cmath.exp(
        ((n - 1) / 2.0) * complex(math.log(2 * math.pi), sgn * 0.5 * math.pi)
    )
    return AsymptoticEval(
        const * base.value, base.truncation_m, abs(const) * base.error_estimate, True
    )


def varsigma_constant(sv: SignVector, si: SpectralIndex) -> complex:
    """c(sig, lam) with J(z; sig, lam) = (2 pi)^{(n-1)/2} c / sqrt(n) * J(z; lam; xi(sig))."""
    n = sv.n
    lam_minus = sum(si.lam[l - 1] for l in sv.minus_positions)
    return e2pi(
        (n - 1) / 8.0
        - (n - 1) * sv.n_minus / (4.0 * n)
        + 0.5 * lam_minus
    )


def j_varsigma_asymptotic(
    z: Pointlike, sv: SignVector, si: SpectralIndex, theta: float = DEFAULT_THETA
) -> AsymptoticEval:
    """Sign-vector function through its distinguished second-kind solution."""
    z = _as_point(z)
    n = si.rank
    if sv.n != n:
        raise ValueError("sign vector length must match rank")
    base = second_kind(z, si, sv.xi(), theta)
    const = (2 * math.pi) ** ((n - 1) / 2.0) / math.sqrt(n) * varsigma_constant(sv, si)
    return AsymptoticEval(
        const * base.value, base.truncation_m, abs(const) * base.error_estimate, True
    )


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
        const = cmath.exp(1j * ((n - 1) / 2.0) * rot.argument)
        return AsymptoticEval(
            const * base.value,
            base.truncation_m,
            abs(const) * base.error_estimate,
            True,
        )
    raise last_exc


def _sym_funcs_omitting(values: Sequence[complex]) -> list:
    """Row of elementary symmetric polynomials with one variable omitted."""
    return [
        elementary_symmetric([v for k, v in enumerate(values) if k != l])
        for l in range(len(values))
    ]


def inverse_connection(
    z: Pointlike,
    si: SpectralIndex,
    a: int,
    theta: float = INVERSE_THETA,
) -> list:
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
    evals = []
    for j in range(1, n + 1):
        xi = RootOfUnity(2 * n, 2 * j + a - 2)
        evals.append(rotate_second_kind(z, si, xi, theta))
    front = cmath.exp(0.75j * math.pi * (n - 1)) / (
        math.sqrt(n) * (2 * math.pi) ** ((n - 1) / 2.0)
    )
    out = []
    for l in range(n):
        acc = 0j
        for j in range(1, n + 1):
            xi = RootOfUnity(2 * n, 2 * j + a - 2)
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
