"""The signed Bessel kernel, its large-argument structure, and the
rank-n Hankel transform with its functional-equation verification.

The kernel at signed argument x is the sum over the 2^{n-1} sign vectors
whose product matches sgn x of (prod_l sig_l^{delta_l}) J(z), z = 2 pi
|x|^{1/n}.  Each of those sign-vector functions is a combination of the
same n first-kind series J_l(z; sgn x).  Both routes group the sum by the
floor(n/2) + 1 roots, with the weights e_k(y) of series.root_factors.  On
the series route it collapses onto the n kernel coefficients K_l =
sum_k e_k(y) R^(k)_l, one stored K per index, delta and parity
(series.kernel_series): n series per point, summed at one precision chosen
for the kernel's own accuracy.  On the asymptotic route it is one array
term A_k e_k(y) H_k per root, through one array path (_asymptotic_sweep)
for one point and for many, and the Mellin-Barnes quadrature is available
as arbiter.  The route of each point is one rule, _asymptotic_zone's.
The signed sum can cancel catastrophically, so results carry a
cancellation indicator, max |J(sig)| / |kernel|, and auto mode switches to
the direct kernel contour integral when it explodes, unless that integral
has no correct digit where the first route has one.  On both routes that
reference is taken by root, with the factors of series.top_products.
Where the sum cancels exactly, the kernel is 0 before any route: its
Mellin-Barnes integrand is P_0 + sgn(x) P_1, and where P_1 = P_0
(_jet.vanishing_side, an exact rule on the index, computed once per
KernelIndex) the side x < 0 vanishes identically, as for the kernels of
holomorphic parameters.  Auto mode and kernel_sweep answer that side with
0, error 0 and the route "exact"; the forced routes still compute it.

The Hankel transform Upsilon(x) = int upsilon(y) J(xy) dy is computed on a
shared log grid: substituting w = xy makes the kernel samples independent of
x, so one paneled Gauss-Kronrod grid in log|w| serves every requested x with
only the smooth weight factor re-evaluated.  The grid's nodes share one
index, so kernel_sweep computes them in array passes, both kernel signs
in one call: asymptotic passes by block, and one series pass per table.
The grid keeps its samples per panel with the quadrature weights folded
in, and transforms panel by panel: the x whose weight window reaches a
panel are one run of the x sorted by log|x|, and one array step takes
the weight factor (log_factors) and the panel's node sum for the whole
run.  The functional-equation check asks for the values alone
(_KernelGrid.values), places its transform nodes by the weight's centre,
integrates each only over the panels its weight window reaches, and
integrates at the weight's one parity, where the signed Mellin transform
is twice the integral over x > 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _backend, _jet
from . import mellinbarnes as mb
from .asympt import (
    M_CAP,
    SUBNORMAL,
    b_coeffs,
    root_front,
    second_kind_sweep,
    sweep_start,
    validity_floor,
)
from .core import (
    EvalResult,
    RootOfUnity,
    SpectralIndex,
    ToleranceNotMetError,
    check_tolerance,
    e2pi,
)
from .series import kernel_series, kernel_series_grid, root_factors, top_products

CANCEL_SWITCH = 1e6
_BAND_TOP = 12.0  # below max(validity_floor, _BAND_TOP) a swept value must certify itself
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # errors below it are underflow
_LOG_TINY = math.log(_TINY)  # kernel nodes u below it have e^u below the normal range
_DECAY_TOL = 1e-8  # a sampled weight's largest end sample, relative to its peak
FE_MELLIN_TOL = 1e-8  # the functional-equation check's quadrature tolerance
_FE_MAX_WIDTH = 2.0  # the widest weight the functional-equation check resolves
_FE_UX_HI = 6.5  # the highest cut in log x: transform_cut at width 2, through rank 21


@dataclass(frozen=True)
class KernelIndex:
    lam: SpectralIndex
    deltas: tuple
    # the sign of the side where the kernel vanishes identically, or 0
    vanishing: int = field(repr=False, compare=False)

    def __init__(self, lam: SpectralIndex, deltas: Sequence[int]):
        object.__setattr__(self, "lam", lam)
        dl = tuple(int(d) % 2 for d in deltas)
        if len(dl) != lam.rank:
            raise ValueError("parity vector length must match rank")
        object.__setattr__(self, "deltas", dl)
        object.__setattr__(self, "vanishing", _jet.vanishing_side(lam.lam, dl))

    @property
    def rank(self) -> int:
        return self.lam.rank


class _Weight:
    """A weight read at y through its log_values at log|y| and sgn y; 0 at y = 0."""

    def __call__(self, y: float) -> float:
        if y == 0.0:
            return 0.0
        return float(self.log_values(math.log(abs(y)), 1 if y > 0 else -1))

    def log_factors(self, u):
        """The transform's weight factor e^u v(e^u) at y = e^u > 0, vectorized."""
        return np.exp(u) * self.log_values(u)


@dataclass(frozen=True)
class WeightFunction(_Weight):
    """Rapidly decaying weight on R^x; gaussian bump in log|y|."""

    eta: int = 0
    mu: float = 0.0
    width: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu, self.amplitude))) or not 0 < self.width < math.inf:
            raise ValueError("mu and amplitude must be finite, width positive and finite")

    def log_values(self, u, sign: int = 1):
        """Vectorized values at y = sign * exp(u)."""
        t = (np.asarray(u) - self.mu) / self.width
        v = self.amplitude * np.exp(-t * t)
        if self.eta % 2 and sign < 0:
            return -v
        return v

    def log_factors(self, u):
        """e^u v(e^u) = amplitude e^{u - ((u - mu)/width)^2}, one exponential."""
        t = (u - self.mu) / self.width
        return self.amplitude * np.exp(u - t * t)

    def log_support(self, tiny: float = 1e-16):
        """The u where |v| >= tiny |amplitude|, at least one width each side."""
        half = self.width * math.sqrt(max(1.0, -math.log(tiny)))
        return self.mu - half, self.mu + half

    def transform_cut(self, rank: int) -> float:
        """The log x above which the functional-equation check leaves out
        Upsilon, the rank-n transform, for the bump centred at mu = 0 (the
        check moves it by -mu).  Upsilon(e^u) e^{u/2} falls on two counts:
        the weight's tail at y ~ 1/x, where the kernel does not oscillate,
        like e^{-u^2/w^2}, which needs u >= 2.5 + 2 w; and the rest, where
        the kernel's phase 2 pi n (xy)^{1/n} averages the bump out, like
        e^{-(pi w)^2 e^{2u/n}}, which needs u >= n (1 - ln w).  The
        constants are fixed by tools/fe_cut_scan.py: past the cut the
        relative tail is at its rounding floor, at most 5e-12, at ranks 1
        to 6 and widths 0.5 to 2.  Never above _FE_UX_HI, the cut of width
        2 (where the rank term asks for more, at rank 6 and width 0.5, the
        tail past _FE_UX_HI is 2.6e-10)."""
        return min(_FE_UX_HI, max(2.5 + 2.0 * self.width, rank * (1.0 - math.log(self.width))))

    def mellin(self, s: complex) -> complex:
        """Signed Mellin transform at the weight's parity eta (the other
        parity's vanishes), closed form for the gaussian-log bump."""
        s = complex(s)
        return (
            2.0
            * self.amplitude
            * self.width
            * math.sqrt(math.pi)
            * cmath.exp(s * self.mu + s * s * self.width**2 / 4.0)
        )

    @classmethod
    def unit_mass(cls, eta=0, mu=0.0, width=1.0) -> "WeightFunction":
        # int_0^infty v(y) dy = amplitude * sqrt(pi) * width * e^{mu + width^2/4}
        amp = 1.0 / (math.sqrt(math.pi) * width * math.exp(mu + width**2 / 4.0))
        return cls(eta=eta, mu=mu, width=width, amplitude=amp)


class SampledWeightFunction(_Weight):
    """Weight given by user samples on a log grid, linearly interpolated.

    Same duck interface as WeightFunction; rapid decay is checked at the
    grid ends (values there must be at most _DECAY_TOL times the peak).  The
    signed Mellin transform is that of the interpolant, integrated exactly
    per segment.  The width is sqrt(2) times the standard deviation in u of
    |v|, the width of a sampled gaussian-log bump.
    """

    def __init__(self, log_grid, values, eta: int = 0):
        u = np.asarray(log_grid, dtype=float)
        v = np.asarray(values, dtype=float)
        if u.ndim != 1 or u.shape != v.shape or u.size < 4:
            raise ValueError("need matching 1-d arrays with >= 4 samples")
        bad = [f"{name}[{i}] = {a[i]}" for name, a in (("log_grid", u), ("values", v))
               for i in np.flatnonzero(~np.isfinite(a))]
        if bad:
            raise ValueError(f"samples must be finite: {', '.join(bad)}")
        if not np.all(np.diff(u) > 0):
            raise ValueError("log grid must be strictly increasing")
        peak = np.abs(v).max()
        if peak == 0.0:
            raise ValueError("all samples vanish")
        if max(abs(v[0]), abs(v[-1])) > _DECAY_TOL * peak:
            raise ValueError(
                "samples do not decay at the grid ends; the transform tail "
                "would be uncontrolled"
            )
        self.u = u
        self.v = v
        self.eta = int(eta) % 2
        self.mu = float(u[np.argmax(np.abs(v))])
        mass = np.abs(v) / np.trapezoid(np.abs(v), u)
        mean = np.trapezoid(u * mass, u)
        self.width = math.sqrt(2.0 * np.trapezoid((u - mean) ** 2 * mass, u))

    def log_values(self, u, sign: int = 1):
        out = np.interp(np.asarray(u), self.u, self.v, left=0.0, right=0.0)
        if self.eta and sign < 0:
            return -out
        return out

    def log_support(self, tiny: float = 1e-16):
        """The samples where |v| >= tiny max |v|, one sample wider each side."""
        kept = np.flatnonzero(np.abs(self.v) >= tiny * np.abs(self.v).max())
        lo, hi = max(kept[0] - 1, 0), min(kept[-1] + 1, self.u.size - 1)
        return float(self.u[lo]), float(self.u[hi])

    def transform_cut(self, rank: int) -> float:
        """_FE_UX_HI at every rank: the transform of a linear interpolant
        decays only like a power of x, so a cut below it moves the check
        (at width 1, a cut at 4.5 moves its rel_errors by up to 8.8e-8 at
        criterion 11's rank-3 index)."""
        return _FE_UX_HI

    def mellin(self, s: complex) -> complex:
        """int v(x) sgn(x)^eta |x|^s dx/|x| over both half-lines, v the
        interpolant: on a segment of length h from a, h e^{sa} (v_a A(sh) +
        v_b B(sh)) with A(z) = (e^z - 1 - z)/z^2 and B(z) = ((z - 1) e^z +
        1)/z^2, by their Taylor series sum_k z^k (1, k + 1)/(k + 2)! where
        |z| < 1 (the closed forms cancel there)."""
        s = complex(s)
        h = np.diff(self.u)
        z = s * h
        small = np.abs(z) < 1.0
        zc = np.where(small, 1.0, z)
        ez = np.exp(zc)
        ca, cb = (ez - 1.0 - zc) / (zc * zc), ((zc - 1.0) * ez + 1.0) / (zc * zc)
        zt = np.where(small, z, 0.0)
        ta = tb = 0.0
        for k in range(17, -1, -1):  # 18 terms: the rest is below 1/20! < eps/500
            f = 1.0 / math.factorial(k + 2)
            ta, tb = ta * zt + f, tb * zt + (k + 1) * f
        ca, cb = np.where(small, ta, ca), np.where(small, tb, cb)
        seg = h * np.exp(s * self.u[:-1]) * (self.v[:-1] * ca + self.v[1:] * cb)
        return 2.0 * complex(np.sum(seg))


def bessel_kernel(
    x: float, ki: KernelIndex, method: str = "auto", tol: float = 1e-9
) -> EvalResult:
    """Signed kernel J_(lambda,delta)(x), x != 0.

    On the side where the kernel vanishes identically (ki.vanishing, the
    exact rule _jet.vanishing_side) auto mode returns 0 with error 0, route
    "exact" and cancellation 1.0 before any route.  Elsewhere the route is
    _asymptotic_zone's rule.  On the series route the value
    is sum_l K_l J_l(z; sgn x), z = 2 pi |x|^{1/n}, and the reported error
    is relative to the kernel: at most tol * |value| (plus final rounding)
    unless the precision escalation gives up.  On the asymptotic route it
    is the sum of the 2^{n-1} asymptotic sign-vector functions, one grouped
    term per second-kind root, with their summed error estimates, by
    kernel_sweep's array pass at this one point.  Where an error above the
    underflow range reaches max |J(sig)| no digit is correct (at huge x the
    rounding of the phase alone does that), and ToleranceNotMetError is
    raised.  The cancellation is max |J(sig)| over those sign vectors
    divided by |value|; auto mode hands points above CANCEL_SWITCH to the
    Mellin-Barnes kernel integral, and keeps the first value if that
    integral has no correct digit (error >= |value|) while the first value
    has one.  method "series" and "asympt" force a route, also on a
    vanishing side; "asympt" takes the expansion unchecked and raises
    ValueError below sweep_start.  "mb" takes the Mellin-Barnes integral
    alone.
    """
    check_tolerance(tol)
    if x == 0.0:
        raise ValueError("kernel argument must be nonzero")
    n = ki.rank
    si = ki.lam
    parity = 1 if x > 0 else -1
    inner = 2.0 * math.pi * abs(x) ** (1.0 / n)

    if method == "mb":
        value, err = mb.mb_kernel_est(x, si, ki.deltas, tol)
        return EvalResult(value, err, "mellin-barnes", 1.0)
    if method not in ("auto", "series", "asympt"):
        raise ValueError("method must be auto|series|mb|asympt")
    if method == "auto" and parity == ki.vanishing:
        return EvalResult(0j, 0.0, "exact", 1.0)

    use_asympt = False
    if method != "series":
        tried, (values, errors, peaks, ok), keep, _ = _asymptotic_zone(
            np.array([inner]), parity, ki, tol
        )
        if method == "asympt" and not len(tried):
            raise ValueError(
                f"2 pi |x|^(1/n) = {inner:.6g} lies below the kernel's asymptotic start "
                f"{sweep_start(si):.6g}"
            )
        use_asympt = len(tried) > 0 and (method == "asympt" or bool(keep[0]))

    if use_asympt:
        total, err, peak = complex(values[0]), float(errors[0]), float(peaks[0])
        if not ok[0]:
            raise ToleranceNotMetError(
                f"asymptotic kernel error {err:.2e} exceeds max |J(sig)| {peak:.2e} "
                f"at x={x:.6g}: no digit of the value is correct",
                value=total,
                achieved=err,
            )
        tag = "asymptotic"
    else:
        est, peak = kernel_series(inner, parity, si, ki.deltas, tol)
        total, err, tag = est.value, est.tail_bound, "series"
    cancel = peak / max(abs(total), 1e-300)
    if method == "auto" and cancel > CANCEL_SWITCH:
        value, merr = mb.mb_kernel_est(x, si, ki.deltas, max(tol * peak, 1e-13 * peak))
        # a Mellin-Barnes value with no correct digit does not replace one with some
        if merr < abs(value) or err >= abs(total):
            return EvalResult(value, merr, "mellin-barnes", cancel)
    return EvalResult(total, err, tag, cancel)


# ---------------------------------------------------------------------------
# large-argument structure
# ---------------------------------------------------------------------------

def _w_lambda(x: float, si: SpectralIndex, sign: int, m_terms: int):
    """W^{+-}_lambda(x) = sum_m B_m(lambda;+-1) (2 pi)^{-m} x^{-m-(n-1)/2}."""
    n = si.rank
    bs = b_coeffs(si, RootOfUnity(2 * n, 0 if sign > 0 else n))[: m_terms + 1]
    acc = 0j
    t = x ** (-(n - 1) / 2.0)
    for b in bs[:-1]:
        acc += b * t
        t /= 2.0 * math.pi * x
    return acc, 2.0 * (abs(bs[-1]) * abs(t))


@dataclass(frozen=True)
class KernelAsymptotics:
    """Oscillatory terms and remainder bound of the kernel at +-x^n."""

    n: int
    x: float
    m_terms: int
    plus_terms: tuple  # (oscillatory coefficient, W value, W error)
    minus_terms: tuple
    e_decay_rate: float  # remainder decays like exp(-rate * x)

    def side_value(self, positive: bool) -> complex:
        terms = self.plus_terms if positive else self.minus_terms
        return sum(c * w for c, w, _ in terms)

    def side_error(self, positive: bool) -> float:
        terms = self.plus_terms if positive else self.minus_terms
        return sum(abs(c) * e for c, _, e in terms)


def kernel_asymptotics(x: float, ki: KernelIndex, m_terms: int) -> KernelAsymptotics:
    """Decomposition J(+-x^n) = sum c^{+-}(delta) e(+-n x) W^{+-}_lambda(x) + E^{+-}.

    For even rank both oscillatory terms sit on the positive side and the
    negative side is purely the exponentially small remainder; for odd rank
    each side carries one oscillatory term.  Each W sums m_terms terms, at
    most M_CAP, and its error is twice the next term.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if not 0 <= m_terms <= M_CAP:
        raise ValueError(f"m_terms must lie in [0, {M_CAP}], got {m_terms}")
    si = ki.lam
    n = ki.rank
    if 2.0 * math.pi * x < validity_floor(si):
        raise ValueError("below the asymptotic validity floor")
    sum_d = sum(ki.deltas)
    plus = []
    minus = []
    for sgn in (1, -1):
        c = (sgn**sum_d) * e2pi(sgn * (n - 1) / 8.0) / math.sqrt(n)
        osc = c * e2pi(sgn * n * x)
        w, werr = _w_lambda(x, si, sgn, m_terms)
        entry = (osc, w, werr)
        if n % 2 == 0:
            plus.append(entry)
        elif sgn > 0:
            plus.append(entry)
        else:
            minus.append(entry)
    rate = 2.0 * math.pi * n * math.sin(math.pi / n) if n > 1 else 2.0 * math.pi
    return KernelAsymptotics(n, x, m_terms, tuple(plus), tuple(minus), rate)


# ---------------------------------------------------------------------------
# Hankel transform on a shared log grid
# ---------------------------------------------------------------------------

_GKN = mb._NODES
_GKW = mb._WK15
_GGW = mb._WG15


_MAX_PANELS = 20000  # panels of one transform grid


class _PanelBudgetError(ValueError):
    """A grid would need more than _MAX_PANELS panels."""


def _panel_grid(lo: float, hi: float, n: int, rad: float = 0.9):
    """Panel edges in u = log|w| sized to the kernel oscillation.

    The kernel phase runs like 2 pi n |w|^{1/n}, i.e. at rate 2 pi e^{u/n}
    per unit u, so panels shrink as rad/(2 pi) cycles per panel for the
    embedded 7-point rule to stay resolved.
    """
    edges = [lo]
    u = lo
    while u < hi:
        h = min(0.8, rad / (1.0 + math.exp(u / n)))
        u = min(hi, u + h)
        edges.append(u)
        if len(edges) > _MAX_PANELS:
            raise _PanelBudgetError(
                f"the |x| range needs more than the {_MAX_PANELS}-panel budget "
                "of the transform grid; narrow the x grid"
            )
    return np.array(edges)


def _gk_nodes(edges):
    """The half-widths of the panels between the edges and their
    Gauss-Kronrod nodes, 15 per panel in ascending order."""
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    return halfs, (mids[:, None] + halfs[:, None] * _GKN[None, :]).ravel()


def _root_constants(parity: int, ki: KernelIndex):
    """Per root xi = e^{i pi k / n}, (-1)^k = parity, of the kernel sum on
    one side: xi, A_k e_k(y), |A_k| e_k(|y|) and |A_k| times the product of
    the k largest |y_l| (series.top_products; see _asymptotic_sweep)."""
    n = ki.rank
    _, e_val, e_abs = root_factors(ki.lam.lam, ki.deltas)
    top = top_products(ki.lam.lam)
    for k in range(0 if parity > 0 else 1, n + 1, 2):
        a = root_front(n, k)
        yield RootOfUnity(2 * n, k), a * e_val[k], abs(a) * e_abs[k].real, abs(a) * top[k]


def _asymptotic_sweep(inner, parity: int, ki: KernelIndex):
    """The kernel at the points inner (one sign, at or above
    asympt.sweep_start): the signed sum of the 2^{n-1} asymptotic
    sign-vector functions, one array term per root.

    The sign vectors with minus set S, |S| = k, share the root
    xi = e^{i pi k / n} and so the second-kind values H_k, which
    asympt.second_kind_sweep computes once for all points.  With
    y_l = (-1)^{delta_l} e(lambda_l / 2), the signed factor of such a sign
    vector is A_k prod_S y_l (series.root_factors, asympt.root_front).
    Their sum is A_k e_k(y) H_k, their errors sum to |A_k| e_k(|y|) err_k,
    and the largest |J(sig)| among them is |A_k| |H_k| times the product of
    the k largest |y_l|.  Returns the values, the summed errors (at least
    the subnormal spacing where the value is nonzero), max |J(sig)| and the
    mask of the points with a correct digit: an error below the normal
    range is an underflow (a decaying side far out), and any other error
    that reaches max |J(sig)| leaves none (at huge x the rounding of the
    phase alone does that).
    """
    values = np.zeros(len(inner), dtype=np.complex128)
    errors = np.zeros(len(inner))
    peaks = np.zeros(len(inner))
    # no point, no second-kind work: every series-route point asks here first
    for xi, c_val, c_err, c_peak in _root_constants(parity, ki) if len(inner) else ():
        h, h_err = second_kind_sweep(inner, ki.lam, xi)
        values += c_val * h
        errors += c_err * h_err
        peaks = np.maximum(peaks, c_peak * np.abs(h))
    errors += 4.0 * _EPS * peaks * (ki.rank + 1)
    errors = np.fmax(errors, SUBNORMAL * (values != 0))
    return values, errors, peaks, errors < np.maximum(peaks, _TINY)


def _asymptotic_zone(inner, parity, ki: KernelIndex, tol: float):
    """The kernel's route rule at the points inner = 2 pi |x|^{1/n} of one
    sign, the one rule of bessel_kernel and kernel_sweep.

    _asymptotic_sweep runs at every point at or above asympt.sweep_start,
    max(6, (max|lambda|+1)^2).  A point at or above max(validity_floor,
    _BAND_TOP) keeps its result whatever it is: bessel_kernel raises where
    no digit is correct and hands a cancellation past CANCEL_SWITCH to
    Mellin-Barnes.  A point of the band below it keeps its result only
    where the expansion certifies it: a correct digit (ok), error at most
    tol |value| and cancellation at most CANCEL_SWITCH.  The series route
    takes the others.  Returns the indices of the points tried,
    _asymptotic_sweep's four arrays there, the mask of those kept and the
    mask of those whose expansion stands as the value: kept, with a correct
    digit and a cancellation at most CANCEL_SWITCH (bessel_kernel's switch
    test on the same bits).
    """
    si = ki.lam
    tried = np.flatnonzero(inner >= sweep_start(si))
    z = inner[tried]
    values, errors, peaks, ok = swept = _asymptotic_sweep(z, parity, ki)
    size = np.hypot(values.real, values.imag)  # abs() of a complex, bit for bit
    calm = peaks / np.maximum(size, 1e-300) <= CANCEL_SWITCH
    keep = (z >= max(validity_floor(si), _BAND_TOP)) | (ok & (errors <= tol * size) & calm)
    return tried, swept, keep, keep & ok & calm


_BLOCK = 512  # nodes per asymptotic array pass
_SERIES_ROWS = 8192  # (series l, node) rows per series array pass


def kernel_sweep(u, ki: KernelIndex, tol: float):
    """bessel_kernel(sgn e^u_i, ki, "auto", tol) at every node u_i, for the
    kernel signs sgn = +1 and -1, in array passes: asymptotic ones over
    blocks of at most _BLOCK nodes, then one series pass over the nodes they
    leave (more only where those reach _SERIES_ROWS rows, n per node).  A
    sign where the kernel vanishes identically (ki.vanishing) takes no pass:
    its nodes are 0 with error 0, route "exact", and count as served.

    The argument of a node is the same on both signs; its route is
    _asymptotic_zone's per sign.  The nodes whose expansion stands take it;
    series.kernel_series_grid (double-double) sums both signs at the nodes
    left to the series on either, with the n series on one array axis.
    bessel_kernel itself takes every node those passes leave: the series
    nodes they do not certify, the pair-grid nodes whose cancellation comes
    within a factor 2 of CANCEL_SWITCH (the pair grid's sums are not
    bessel_kernel's, so bessel_kernel decides the Mellin-Barnes switch
    there), the kept asymptotic nodes that do not stand, and the
    series-route nodes of a non-generic index (two components that differ
    by an integer), which the pair grid cannot sum.  Each node's value
    depends only on (u_i, sgn, ki, tol), whatever block or pass it falls
    in.  Returns, for sgn = +1 and then -1, the values, the errors, the
    route of each node (the method names of EvalResult) and the mask of the
    nodes the array passes served.
    ValueError names the first node below _LOG_TINY, where e^u leaves the
    normal double range, before any pass (hankel_transform's bound).
    """
    n = ki.rank
    si = ki.lam
    below = np.flatnonzero(np.asarray(u) < _LOG_TINY)
    if len(below):
        i = int(below[0])
        raise ValueError(
            f"kernel node u[{i}] = {u[i]:.6g} lies below {_LOG_TINY:.6g}, the least u the "
            "sweep serves: e^u is below the normal double range"
        )
    # per node as a generator: the argument bessel_kernel computes from x = sgn e^u_i, bit for bit
    inner = np.fromiter(
        (2.0 * math.pi * math.exp(v) ** (1.0 / n) for v in u), dtype=float, count=len(u)
    )
    # axis 0 the kernel sign, + then -
    values = np.zeros((2, len(u)), dtype=np.complex128)
    errors = np.zeros((2, len(u)))
    routes = np.full((2, len(u)), None, dtype=object)
    swept = np.zeros((2, len(u)), dtype=bool)
    rest = np.ones((2, len(u)), dtype=bool)  # the nodes left to the series
    # a side where the kernel vanishes identically: exact zeros, in no pass
    dead = [side for side, sgn in enumerate((1, -1)) if sgn == ki.vanishing]
    routes[dead], swept[dead], rest[dead] = "exact", True, False
    for lo in range(0, len(u), _BLOCK):
        z = inner[lo : lo + _BLOCK]
        for side, sgn in enumerate((1, -1)):
            if side in dead:
                continue
            tried, (v, e, _, _), keep, stands = _asymptotic_zone(z, sgn, ki, tol)
            rest[side, lo + tried[keep]] = False
            idx = lo + tried[stands]
            values[side, idx], errors[side, idx] = v[stands], e[stands]
            routes[side, idx], swept[side, idx] = "asymptotic", True
    generic = _jet.cluster_order(si.lam) == 1  # kernel_series_grid raises otherwise
    grid = np.flatnonzero(rest.any(axis=0) & generic)
    step = _SERIES_ROWS // n
    for lo in range(0, len(grid), step):
        at = grid[lo : lo + step]
        v, e, peak, ok = kernel_series_grid(inner[at], si, ki.deltas, tol)
        # not bessel_kernel's bits: stay a factor 2 off the switch
        size = np.maximum(np.hypot(v.real, v.imag), 1e-300)
        ok &= rest[:, at] & (peak <= 0.5 * CANCEL_SWITCH * size)
        side, idx = np.nonzero(ok)
        idx = at[idx]
        values[side, idx], errors[side, idx] = v[ok], e[ok]
        routes[side, idx], swept[side, idx] = "series", True
    for side, sgn in enumerate((1, -1)):
        for i in np.flatnonzero(~swept[side]):
            r = bessel_kernel(sgn * math.exp(u[i]), ki, "auto", tol)
            values[side, i], errors[side, i], routes[side, i] = r.value, r.error, r.method
    return tuple(zip(values, errors, routes.tolist(), swept))


_STEP = 1024  # (panel, x) pairs of one panel-pass step, unless one panel takes more


def _steps(los, his):
    """The array steps of a panel pass over the x sorted by log|x|, where
    panel p serves the run los[p]:his[p]: (p, q, lo, hi), the panels p:q
    and a part lo:hi of the run they all serve, at most _STEP (panel, x)
    pairs or one panel over _STEP x.  Each x meets its panels in
    increasing order."""
    bounds = np.flatnonzero(np.diff(los) | np.diff(his)) + 1
    for a, b in zip([0, *bounds.tolist()], [*bounds.tolist(), len(los)]):
        for lo in range(int(los[a]), int(his[a]), _STEP):
            hi = min(int(his[a]), lo + _STEP)
            size = _STEP // (hi - lo)
            for p in range(a, b, size):
                yield p, min(b, p + size), lo, hi


def _fold15(a):
    """The sum over axis 1 of 15 rows by one fixed tree, 15 -> 8 -> 4 -> 2
    -> 1, in place: elementwise adds only, so each column's sum has the
    same bits whatever columns lie beside it (a matrix product or a numpy
    sum over a run need not)."""
    a[:, :7] += a[:, 8:]
    a[:, :4] += a[:, 4:8]
    a[:, :2] += a[:, 2:4]
    a[:, 0] += a[:, 1]
    return a[:, 0]


class _KernelGrid:
    """Kernel samples (K, err) on Gauss-Kronrod nodes of a paneled log|w|
    grid, by one kernel_sweep call for both signs, kept per panel with the
    quadrature folded in: with h the panel half-width, the value weights
    K h w_K as float pairs (kw, panels x 15 x 4) and the Kronrod-Gauss
    difference weights K h (w_K - w_G) (dw, panels x 15 x 4), each with the
    kernel signs + and - side by side, and the kernel-error weights
    (err_+ + err_-) h w_K (ew, panels x 15).  Counts the nodes the array
    passes served (swept), the nodes left to bessel_kernel (fallback) and
    those of them it sent to the Mellin-Barnes route (mb)."""

    def __init__(self, ki: KernelIndex, lo: float, hi: float, tol: float):
        self.edges = _panel_grid(lo, hi, ki.rank)
        halfs, self.u = _gk_nodes(self.edges)
        (kp, ep, rp, sp), (km, em, rm, sm) = kernel_sweep(self.u, ki, tol)
        self.swept = int(sp.sum() + sm.sum())
        self.fallback = 2 * len(self.u) - self.swept
        self.mb = (rp + rm).count("mellin-barnes")
        # the products in place, so that building holds one table less
        kv = np.stack([kp, km], axis=1)
        hw, hd = (np.outer(halfs, w).reshape(-1, 1) for w in (_GKW, _GKW - _GGW))
        self.dw = (kv * hd).view(float).reshape(len(halfs), 15, 4)
        kv *= hw
        self.kw = kv.view(float).reshape(len(halfs), 15, 4)
        self.ew = ((ep + em) * hw[:, 0]).reshape(len(halfs), 15)

    def _factors(self, xs, weight: WeightFunction, window, errors: bool):
        """The transform at the x of xs, panel by panel: the values and,
        if errors, their error estimates (else None).

        window = (ylo, yhi) keeps for each x only the whole panels that
        overlap [log|x| + ylo, log|x| + yhi], the reach of a weight cut at
        log|y| in [ylo, yhi].  With the x sorted by log|x| (stable), the x
        that reach panel p are one contiguous run, and a panel takes one
        array step over its run (_steps: consecutive panels with the same
        run share a step, and a run is cut into parts of at most _STEP x):
        t = u_p - log|x| (15 x run), the
        weight factor g = e^t v(e^t) (weight.log_factors), and the sums over
        the 15 nodes, by _fold15, of g times the kernel at the weight's
        parity, K(+) + (-1)^eta K(-): on sign s the weight is read at
        s sgn(x) e^t, for odd eta an exact sign flip, so the value at x < 0
        is (-1)^eta times the value at |x|.  The errors add per panel the
        Kronrod-Gauss differences |g . dw| of each kernel sign and the
        kernel errors |g| . ew.  Each x adds its panels one by one in
        increasing order, so its (value, error) depends only on (x, grid,
        weight, window), whatever other x the call holds.
        """
        xs = np.asarray(xs, dtype=float)
        ls = np.log(np.abs(xs))
        order = np.argsort(ls, kind="stable")
        ls = ls[order]
        panels = len(self.ew)
        p0, p1 = np.zeros(len(xs), dtype=int), np.full(len(xs), panels)
        if window is not None:
            p0 = np.maximum(np.searchsorted(self.edges, ls + window[0], side="right") - 1, 0)
            p1 = np.minimum(np.searchsorted(self.edges, ls + window[1], side="left"), p1)
        # p0 and p1 rise with log|x|: panel p serves the x with p0 <= p < p1, one run
        at = np.arange(panels)
        los, his = np.searchsorted(p1, at, side="right"), np.searchsorted(p0, at, side="right")
        flip = -1.0 if weight.eta % 2 else 1.0
        cols = self.kw[..., :2] + flip * self.kw[..., 2:]
        if errors:
            cols = np.concatenate([cols, self.dw], axis=2)
        cols = cols[..., None]
        nodes = self.u.reshape(panels, 15, 1)
        ew = self.ew[..., None]
        sums = np.zeros((3 if errors else 2, len(xs)))
        for p, q, lo, hi in _steps(los, his):
            g = weight.log_factors(nodes[p:q] - ls[lo:hi])
            s = _fold15(g[:, :, None, :] * cols[p:q])
            if errors:
                e = _fold15(np.abs(g) * ew[p:q])
                s[:, 2] = np.hypot(s[:, 2], s[:, 3]) + np.hypot(s[:, 4], s[:, 5]) + e
            # re, im (and the error) of each panel, added in increasing order:
            # several panels fold the running sum into the first and
            # accumulate (one call, not one per panel); one panel adds its
            # row, which skips two calls a step (the values passes of a
            # hankel-fe round take one panel a step, about 480 steps)
            run = s[:, : len(sums)]
            if len(run) > 1:
                run[0] += sums[:, lo:hi]
                np.add.accumulate(run, axis=0, out=run)
                sums[:, lo:hi] = run[-1]
            else:
                sums[:, lo:hi] += run[0]
        v = np.empty(len(xs), dtype=np.complex128)
        v.real, v.imag = sums[0], sums[1]
        neg = xs[order] < 0
        v[neg] *= flip  # numpy's complex product by flip, which sets the signs of zeros
        values = np.empty_like(v)
        values[order] = v
        if not errors:
            return values, None
        errs = np.empty(len(xs))
        errs[order] = sums[2]
        return values, errs

    def values(self, xs, weight: WeightFunction, window=None):
        """The values of transform(xs, weight, window), bit for bit, without
        their errors."""
        return self._factors(xs, weight, window, False)[0]

    def transform(self, xs, weight: WeightFunction, window=None):
        """Upsilon(x) = int v(w/x) J_(w) dw / |x| over the cached grid at each
        x of xs, with the Kronrod-Gauss panel differences plus the kernel
        errors as error: arrays of values and errors, by one panel pass
        (_factors), which also gives values its bits.  window restricts each
        x to the panels its weight reaches.  Each (value, error) depends
        only on (x, grid, weight, window).
        """
        return self._factors(xs, weight, window, True)


@dataclass(frozen=True)
class HankelResult:
    x: tuple
    values: tuple
    errors: tuple


def hankel_transform(
    weight: WeightFunction,
    ki: KernelIndex,
    x_grid: Sequence[float],
    tol: float = 1e-7,
) -> HankelResult:
    """Transform values on the grid, with per-point error estimates.

    Deterministic: every point is integrated over one shared kernel table,
    which depends only on the smallest and largest |x| of the grid, by one
    panel pass (_KernelGrid._factors) in which each point adds its panels
    in increasing order, so permuting the grid, or adding points whose |x|
    lies between those two, never changes a value.  Extending that range does: the panel edges
    start at the table's lower end, so they all move, and every value
    changes within its error estimate.  Raises ValueError for an empty
    grid, for grid points that are not finite or zero, and for an |x| so
    small that the table would reach nodes w whose |w| = e^u is below the
    normal double range.

    The reported error (Kronrod-Gauss panel differences plus kernel errors)
    leaves out the cut of the weight at log_support(tol * 1e-3) (open item
    1 of ROADMAP.md).  At criterion 11's rank-3 index and x = 2.5, against
    the tol-1e-10 value, tol 1e-4 is 3.56e-9 off with 3.84e-11 reported
    (93x) and tol 1e-6 2.3x; tol 1e-8, and the README grid at tol 1e-7
    (worst ratio 0.14), are covered.
    """
    check_tolerance(tol)
    xs = [float(x) for x in x_grid]
    if not xs:
        raise ValueError("the x grid has no points")
    if not all(map(math.isfinite, xs)):
        raise ValueError("grid points must be finite")
    if any(x == 0.0 for x in xs):
        raise ValueError("grid points must be nonzero")
    ylo, yhi = weight.log_support(tol * 1e-3)
    lmin = min(math.log(abs(x)) for x in xs)
    lmax = max(math.log(abs(x)) for x in xs)
    if lmin + ylo < _LOG_TINY:
        least = _LOG_TINY - ylo
        least = f"{math.exp(least):.3g}" if least < 709.0 else f"e^{least:.6g}"
        raise ValueError(
            f"grid points need |x| >= {least} for this weight and tolerance: below "
            "it the kernel table reaches nodes that underflow double range"
        )
    try:
        grid = _KernelGrid(ki, lmin + ylo, lmax + yhi, tol * 1e-2)
    except _PanelBudgetError:
        raise ValueError(
            f"the transform's kernel table (log|x y| from {lmin + ylo:.3g} to {lmax + yhi:.3g}: "
            f"the x grid's log|x| in [{lmin:.3g}, {lmax:.3g}] widened by the weight window "
            f"log|y| in [{ylo:.3g}, {yhi:.3g}] at tol {tol:g}) needs more than the "
            f"{_MAX_PANELS}-panel budget at rank {ki.rank}"
        ) from None
    vals, errs = grid.transform(xs, weight)
    return HankelResult(tuple(xs), tuple(vals.tolist()), tuple(errs.tolist()))


# ---------------------------------------------------------------------------
# signed Mellin transforms and the functional equation
# ---------------------------------------------------------------------------

def signed_mellin_grid(u: np.ndarray, half: np.ndarray, f, s):
    """Signed Mellin transform int f(x) sgn(x)^d |x|^{s-1} dx of grid samples
    of f at x = e^u > 0, at the parity d of f (f(-x) = (-1)^d f(x)): twice
    the integral over x > 0."""
    s = complex(s)
    w = np.exp(s * u.reshape(len(half), 15))
    f2 = 2.0 * f.reshape(len(half), 15)
    return complex(np.sum(half[:, None] * f2 * w * _GKW[None, :]))


def mellin_inversion(weight: WeightFunction, x: float) -> complex:
    """Reconstruct the weight from its closed-form signed Mellin transforms.

    upsilon(x) = sum_d sgn(x)^d/(4 pi i) int_(1) M_d upsilon(s) |x|^{-s} ds,
    where only the parity d = eta does not vanish, evaluated with a plain
    trapezoid at 4001 points of Re s = 1, |Im s| <= 40 (the integrand is a
    gaussian in Im s).
    """
    t = np.linspace(-40.0, 40.0, 4001)
    s = 1.0 + 1j * t
    d = weight.eta % 2
    ms = np.array([weight.mellin(sv) for sv in s])
    integrand = ms * np.exp(-s * math.log(abs(x)))
    val = np.trapezoid(integrand, t) * 1j  # ds = i dt
    return complex((-1.0 if x < 0 and d else 1.0) * val / (4j * math.pi))


@dataclass(frozen=True)
class FunctionalEquationReport:
    s_points: tuple
    rel_errors: tuple  # (delta, s) -> relative deviation, flattened
    max_rel_error: float
    passed: bool


def check_s_points(s_points, weight: WeightFunction) -> list:
    """The points as complex numbers; ValueError names a weight wider than
    _FE_MAX_WIDTH (for a sampled one, sqrt(2) times the standard deviation
    in log|y| of |v|), and the first point that is not finite, lies
    off Re s = 1/2, the line _fe_grid's lower end is sized for, or lies so
    far up that line that the check cannot resolve it: where the weight's
    closed form |M_d upsilon(1 - s)|, at the parity d the check uses, is
    below a quarter of its value at s = 1/2.  The check's relative error
    grows as that closed form decays, for the gaussian-log bump like
    e^{t^2 w^2 / 4} at Im s = t and width w, so there the bound is
    w |Im s| <= 2 sqrt(ln 4) ~ 2.35 whatever mu is.  That bound does not
    hold past width 2: at rank 3 and width 2.5 the error reaches 1.45e-6 at
    s = 0.5+0.94i, inside it."""
    if weight.width > _FE_MAX_WIDTH:
        raise ValueError(
            f"the functional-equation check resolves weights of width at most "
            f"{_FE_MAX_WIDTH:g}, not {weight.width:g}"
        )
    points = [complex(s) for s in s_points]
    least = 0.25 * abs(weight.mellin(0.5))
    for s in points:
        if not (cmath.isfinite(s) and s.real == 0.5):
            raise ValueError(f"the functional-equation check takes finite s on Re s = 1/2, not {s}")
        if abs(weight.mellin(1.0 - s)) < least:
            raise ValueError(
                f"the functional-equation check cannot resolve s = {s}: the weight's Mellin "
                "transform at 1 - s is below a quarter of its value at s = 1/2"
            )
    return points


def _fe_grid(ki: KernelIndex, weight: WeightFunction):
    """The functional-equation check's kernel grid, its transform nodes
    ux = log x with their panel half-widths, and its weight window.

    Upsilon_mu(x) = e^mu Upsilon_0(x e^mu) for a weight centred at mu, so
    the nodes are those of mu = 0 moved by -mu; the kernel grid, at
    log x + log y, does not move.  At mu = 0 the nodes run from ux_lo =
    ln(FE_MELLIN_TOL) / beta - 2, beta = 1/2 - max Re lambda_l, where the
    part of int |Upsilon| x^{-1/2} dx below x, which falls like x^beta,
    is near FE_MELLIN_TOL, up to the weight's transform_cut(rank), where
    Upsilon has fallen to its rounding floor.  The kernel grid reaches the weight window beyond both
    ends.  ValueError names the check's grid, the rank and the width where
    that grid would overrun the panel budget (rank 1 at width 1.5 or more).
    """
    beta = 0.5 - max(v.real for v in ki.lam.lam)
    if beta <= 0.05:
        raise ValueError("Re lambda too large for the Re s = 1/2 check")
    ux_lo = math.log(FE_MELLIN_TOL) / beta - 2.0
    ux_hi = weight.transform_cut(ki.rank)
    window = weight.log_support(FE_MELLIN_TOL * 1e-3)
    lo, hi = ux_lo - weight.mu, ux_hi - weight.mu
    try:
        grid = _KernelGrid(ki, lo + window[0], hi + window[1], FE_MELLIN_TOL * 1e-1)
    except _PanelBudgetError:
        raise ValueError(
            f"the functional-equation check's kernel grid (x nodes up to log x = {hi:.3g}, "
            f"weight width {weight.width:g}) needs more than the {_MAX_PANELS}-panel budget "
            f"at rank {ki.rank}"
        ) from None
    halfs, ux = _gk_nodes(_panel_grid(ux_lo, ux_hi, ki.rank, rad=0.7) - weight.mu)
    return grid, ux, halfs, window


def functional_equation_check(
    ki: KernelIndex,
    weight: WeightFunction,
    s_points: Sequence[complex],
    rel_tol: float = 1e-6,
) -> FunctionalEquationReport:
    """Verify M_d Upsilon(s) = prod_l G_{delta_l+d}(s - lam_l) M_d upsilon(1-s).

    The left side is quadrature over transform values computed by the shared
    kernel grid; the right side is gamma factors times the closed-form
    Mellin transform of the weight.  Only the parity d = eta contributes
    (the other signed transform vanishes identically).

    The transform nodes are one windowed grid.values call over the panels
    that the weight, cut at log_support(FE_MELLIN_TOL * 1e-3) as at the
    grid's ends, reaches: the values of grid.transform, bit for bit, without
    the error estimates, which the check does not use.  Upsilon(-x) =
    (-1)^eta Upsilon(x), so the signed transform is twice the integral over
    x > 0.  That integral runs over log x in [ux_lo, transform_cut(rank)]
    moved by -mu (_fe_grid): the lower end by the index, where the part
    of the integral below x, falling like x^beta, is near FE_MELLIN_TOL;
    the upper end by the weight, where Upsilon has fallen to its rounding
    floor.  The s points must pass check_s_points.
    """
    check_tolerance(rel_tol, "rel_tol")
    s_points = check_s_points(s_points, weight)
    si = ki.lam
    d = weight.eta % 2
    grid, ux, halfs, window = _fe_grid(ki, weight)
    up = grid.values(np.exp(ux), weight, window)

    # prod_l G_(delta_l + d)(s - lam_l) at every s: the kernel integrand at x = 1
    gammas = _backend.mb_kernel_integrand(
        np.array(s_points, dtype=np.complex128), np.array(si.lam), np.array(ki.deltas), d, 0.0
    )
    rels = []
    worst = 0.0
    for s, g in zip(s_points, gammas):
        lhs = signed_mellin_grid(ux, halfs, up, s)
        rhs = weight.mellin(1.0 - s) * complex(g)
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        rels.append((d, s, rel))
        worst = rel if math.isnan(rel) else max(worst, rel)
    return FunctionalEquationReport(
        tuple(s_points),
        tuple(rels),
        worst,
        worst < rel_tol,
    )
