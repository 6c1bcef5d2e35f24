"""Ascending series at the regular singularity and the connection formula.

The l-th first-kind solution is

    J_l(z) = sum_{m>=0} (sign i^n)^m z^{n(-lam_l+m)} / prod_k Gamma(lam_k - lam_l + m + 1),

an entire function of z^n times a power, convergent everywhere.  The
sign-vector function is the combination

    pi^{n-1} E(sig, lam) sum_l E_l(sig, lam) S_l(lam) J_l(z; (-1)^{n_minus})

with S_l = prod_{k != l} 1/sin(pi(lam_l - lam_k)).  The signed kernel sums
such combinations over sign vectors that share one first-kind family, so it
is again a combination sum_l K_l J_l (kernel_series), evaluated by the same
machinery with the kernel coefficients K_l = sum_k e_k(y) R^(k)_l
(_kernel_coeffs), and its cancellation reference max |J(sig)| by root, both
from the rows R^(k) of _root_rows.  Two numerical hazards drive
the implementation: for non-generic indices the S_l blow up and the
combination must be taken as a limit; and for large |z| the combination
cancels to exponentially small values, so the summation switches to
adaptive-precision big floats when the reported double-precision error
cannot meet the requested tolerance.  The limit is taken in the big-float
rounds, in one pass each: with lam moved to lam + eps u, the connection,
root-row and kernel coefficients are Laurent jets in eps (the formulas take
_jet.context beside _DOUBLE and mpmath), each J_l a Taylor jet (_head_mp,
the integer loop of every round, and the prefactor z^(-n(lam_l + eps u_l)),
which brings in the powers of log z), and the value and the grouped sums
are the eps^0 coefficients.  The first big-float round takes the digits its
noise test needs at an estimate of |value|: for a sign-vector function above
the asymptotic floor and inside the sector of xi(sig), the modulus of the
leading asymptotic term (_leading_log10) plus _ESTIMATE_GUARD digits;
otherwise eps times the double pass's term mass (or the e^{n|z|} ridge where
the double pass overflows or is skipped).
A round that fails escalates, up to a ceiling of digits (never below the
round's own); an estimate below what the ceiling resolves raises before any
round, and so does a round that resolves a value below double range.

The terms of J_l come from one recurrence, _backend.first_kind_terms, fed
the head c_m = prod_k 1/Gamma(d_k + m + 1) of its first terms (m <= _m_fresh,
where the integer pole crossings lie), from one product of n reciprocal
gammas (_backend.head_coeffs), every one by mp.rgamma: rounded once to
doubles for first_kind (_double_head), at the working precision for the
big-float rounds (kept as integers, _head_mp; _first_kind_mp forms the
head terms in integers and sums the rest in one integer loop for every jet
order), and at zf = 1 at 50 digits for kernel_series_grid's table
(_FirstKindTable), summed by Horner in double-double arithmetic.  A
big-float round builds what its n series share once (_Round), and raises
before it builds a head longer than its term cap (_check_head).

The big-float rounds and the grid sweep need constants that depend on the
index and the working precision only, never on z, and the same ones recur
across points, sign vectors, parities and rounds.  Each is built once and
kept in one LRU store (_stored): the coefficients c_l with their bounds, the
root rows of the kernel's K_l and cancellation reference (both by index,
kind or parity, and digits; jets at a non-generic index), the head
coefficients of each series with the integer loop's tables (by index, l,
bits and jet order), the grid's first-kind tables and coefficient pairs, the
index-shift matrix of derivatives, and the asymptotic
B_m tables of asympt (by index and root).  A key holds nothing of z, of a
family value or of the tolerance, so every result is the same bit for bit
with or without the store.  The double pass rounds its coefficients once
from 50-digit entries (a sign vector's from _coeffs_mp, a kernel's from the
grid's) and keeps its heads by index and l (_double_head): a key of doubles
does not tell 0.0 from -0.0, but mpmath, which builds every entry, has one.
Each entry is charged an upper bound on its bytes from how many numbers it
holds and their precision (_charge; a first-kind table for the terms it
holds, charged again when a sweep grows it; a head entry for the integers
it holds and their bits, _int_charge), and the store evicts the least
recently used entries to hold at most _STORE_BYTES (4 MB) at every rank and
precision; an entry charged more is not kept.
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from types import SimpleNamespace
from typing import NamedTuple, Union

import mpmath as mp
import numpy as np
from mpmath.libmp import dps_to_prec, to_fixed

from . import _backend, _jet
from ._pair import cdd_add, cdd_exp, cdd_mul, dd_add, dd_exp, dd_mul, dd_neg, two_prod
from .core import (
    NuIndex,
    OverflowEvalError,
    SignVector,
    SpectralIndex,
    SurfacePoint,
    ToleranceNotMetError,
    check_tolerance,
    e2pi,
    lambda_of_nu,
    nu_of_lambda,
)
from .coeffs import bessel_eq_coeffs, build_uv_tables, elementary_symmetric

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)  # exact i^n
# the big-float rounds stop at the digits that resolve a value this small
_DPS_CEILING_SIZE = 1e-300
# digits a first round sized from the asymptotic leading term keeps beyond
# what its noise model needs at that term's modulus
_ESTIMATE_GUARD = 4
# past this n|z| the series is not attempted: its first round alone would
# need some 45 000 digits
_SERIES_MAX_NZ = 1e5
# terms a big-float round sums past m_min at most (m_cap - m_min)
_ROUND_TERMS = 50000
# bits a stored head row keeps beyond the working precision (_head_mp)
_HEAD_GUARD = 4

Pointlike = Union[SurfacePoint, float, int]


@dataclass(frozen=True)
class SeriesEval:
    value: complex
    terms_used: int
    tail_bound: float


def _as_point(z: Pointlike) -> SurfacePoint:
    if isinstance(z, SurfacePoint):
        return z
    return SurfacePoint.from_positive(float(z))


def _norm_sign(sign) -> int:
    if sign in (1, +1, "+"):
        return 1
    if sign in (-1, "-"):
        return -1
    raise ValueError("sign must be +1 or -1")


def _m_fresh(diffs) -> int:
    # through this index the terms take the head of _backend.head_coeffs,
    # multiplied down to exact zeros at the integer pole crossings
    worst = max((-d.real for d in diffs), default=0.0)
    return int(max(0.0, worst)) + 2


@lru_cache(maxsize=256)
def _head_lengths(lam: tuple) -> tuple:
    """_m_fresh of the differences lam_k - lam_l of each series l = 1..n."""
    return tuple(_m_fresh([lk - lam_l for lk in lam]) for lam_l in lam)


def _check_head(fresh: int, cap: int):
    """OverflowEvalError, before any head is built, where a head of fresh
    terms is longer than cap: no big-float round could sum past it."""
    if fresh > cap:
        raise OverflowEvalError(
            f"a first-kind series at this index has {fresh} head terms, past the {cap} a "
            "big-float round sums: the components differ too much for the series"
        )


def first_kind(
    z: Pointlike, sign, si: SpectralIndex, l: int, tol: float = 1e-12
) -> SeriesEval:
    """First-kind solution J_l (l is 1-based) by the ascending series;
    OverflowEvalError where its terms overflow double range or its head is
    longer than any round sums (_double_head).

    tail_bound is |z^(-n lam_l)| (g + 8 eps sum_m |t_m|) + eps (|n lam_l
    log z| + 2) |value|: g bounds the terms left out as a geometric series
    (sum_m |t_m| where the term ratio is not below 3/4); 8 eps of term mass
    covers the one rounding of each head coefficient (_double_head), the
    powers of zf, the term ratios and the sum; the last term covers the
    prefactor exp(-n lam_l log z) in double.  tools/tail_scan.py checks it."""
    z = _as_point(z)
    n = si.rank
    if not 1 <= l <= n:
        raise ValueError("l out of range")
    sign = _norm_sign(sign)
    if n * z.modulus > 690.0:
        raise OverflowEvalError(
            "series terms overflow double range at this modulus; evaluate at "
            "a rescaled argument or use the asymptotic route"
        )
    lam_l = si.lam[l - 1]
    diffs = [lk - lam_l for lk in si.lam]  # Python complex: numpy scalars step slower
    zf = sign * _I_POW[n % 4] * z.power(n)
    m_min = int(math.e * z.modulus) + 4
    m_cap = m_min + 220
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
            total, abs_total, terms, q, t_abs = _backend.series_sum(
                zf, diffs, tol, m_min, m_cap, _double_head(si.lam, l, diffs)
            )
    except OverflowError:  # the modulus of a term with finite parts
        total, abs_total, terms, q, t_abs = math.inf, math.inf, 0, 1.0, 0.0
    pref = z.power(-n * lam_l)
    if q < 0.75:
        geom = t_abs * q / (1.0 - q)
    else:  # did not reach the decaying regime; flag a useless bound
        geom = abs_total
    eps = np.finfo(float).eps
    value = pref * complex(total)
    tail = abs(pref) * (geom + 8.0 * eps * abs_total)
    tail += eps * (abs(n * lam_l * z.log()) + 2.0) * abs(value)
    if not (cmath.isfinite(value) and math.isfinite(tail)):
        raise OverflowEvalError(
            "series terms overflow double range at this index and modulus; use "
            "the big-float series (j_function) or the asymptotic route"
        )
    return SeriesEval(value, int(terms), float(tail))


# the double stand-in for mpmath's expjpi in root_factors: one formula
# serves the asymptotic and kernel weights and the big-float rounds
_DOUBLE = SimpleNamespace(expjpi=lambda x: e2pi(0.5 * x))


def _sines(ctx, lam):
    """sin(pi(lam_l - lam_k)) for l != k."""
    n = len(lam)
    return [
        [ctx.sinpi(lam[l] - lam[k]) if k != l else None for k in range(n)]
        for l in range(n)
    ]


def _row(ctx, lam, sines, front, dn):
    """front * e(dn lam_l / 4) * S_l for each l."""
    n = len(lam)
    coeffs = []
    for l in range(n):
        c = front * ctx.expjpi(0.5 * dn * lam[l])
        for k in range(n):
            if k != l:
                c /= sines[l][k]
        coeffs.append(c)
    return coeffs


def _connection_coeffs(ctx, lam, sines, sv: SignVector):
    """E * E_l * S_l for each l, and their moduli."""
    signed = sum(s * v for s, v in zip(sv.signs, lam))
    front = ctx.pi ** (len(lam) - 1) * ctx.expjpi(-0.5 * signed)
    coeffs = _row(ctx, lam, sines, front, sv.n_plus - sv.n_minus)
    return coeffs, [abs(c) for c in coeffs]


def _root_rows(ctx, lam, parity: int):
    """The rows R^(k) = pi^{n-1} e((n - 2k) lam_l / 4) S_l, (-1)^k = parity.

    With sum lam = 0, the sign vector with minus set S, |S| = k, has
    E E_l S_l = prod_S e(lam_l / 2) R^(k)_l: its function is
    prod_S e(lam_l / 2) G_k with G_k = sum_l R^(k)_l J_l."""
    n = len(lam)
    sines = _sines(ctx, lam)
    ks = range(0 if parity > 0 else 1, n + 1, 2)
    return tuple(tuple(_row(ctx, lam, sines, ctx.pi ** (n - 1), n - 2 * k)) for k in ks)


def root_factors(lam, deltas, ctx=_DOUBLE):
    """y_l = (-1)^delta_l e(lam_l / 2) and, k = 0..n, e_k(y) and e_k(|y|): a
    kernel is sum_k e_k(y) times the term of the sign vectors with k minus
    signs (G_k of _root_rows, or A_k H_k with asympt.root_front)."""
    y = [-ctx.expjpi(v) if d else ctx.expjpi(v) for d, v in zip(deltas, lam)]
    return y, elementary_symmetric(y), elementary_symmetric([abs(v) for v in y])


def top_products(lam):
    """For k = 0..n the product of the k largest |e(lam_l / 2)|, the largest
    |prod_S e(lam_l / 2)| over the sets S of k indices."""
    top = sorted((abs(_DOUBLE.expjpi(v)) for v in lam), reverse=True)
    return [math.prod(top[:k]) for k in range(len(top) + 1)]


_STORE_BYTES = 4 << 20
_NUMBER_BYTES = 576  # a stored mpmath complex less its mantissas (tracemalloc, CPython 3.11)
_DOUBLE_BYTES = 64  # a stored Python complex, its tuple slot and a share of its row's tuple
_DOUBLE_KEY = 8  # numbers' worth of a double entry's key and outer tuple
_INT_BYTES = 96  # an int with its slot and share of its tuples (tracemalloc: 72 in a head row)


def _charge(numbers: int, bits: int) -> int:
    """Bytes charged for numbers complex values of bits-bit mantissas and a
    key.  Values of 53 bits are Python complex numbers, _DOUBLE_BYTES each
    and _DOUBLE_KEY more for the key (tracemalloc counts 0.58-0.92 of that at
    ranks 1-6).  Wider values are mpmath numbers, with the key charged as
    one number more: CPython stores an int in 4-byte digits of 30 bits, so
    two mantissas take at most bits / 3.75 + 8 bytes."""
    if bits <= 53:
        return (numbers + _DOUBLE_KEY) * _DOUBLE_BYTES
    return (numbers + 1) * (_NUMBER_BYTES + bits // 3)


def _int_charge(ints: int, bits: int) -> int:
    """Bytes charged for ints Python integers of at most bits bits, held in
    tuples: CPython stores an int in 4-byte digits of 30 bits, so at most
    bits / 7.5 bytes beyond its header, and _INT_BYTES for the rest."""
    return ints * (_INT_BYTES + bits // 7)


class _Store(OrderedDict):
    """key -> (value, charge), least recently used first.  store(key, cost,
    build) returns the value under key, or on a miss build(), and keeps it
    charged cost bytes, the cost of its latest access, evicting from the
    front; a value whose cost alone is over _STORE_BYTES is not kept."""

    held = 0

    def __call__(self, key, cost: int, build):
        value, charged = self.pop(key) if key in self else (build(), 0)
        self.held -= charged
        if cost <= _STORE_BYTES:
            self[key] = (value, cost)
            self.held += cost
            while self.held > _STORE_BYTES:
                self.held -= self.popitem(last=False)[1][1]
        return value


_stored = _Store()


def _jet_numbers(lam: tuple) -> int:
    """Numbers charged for one coefficient of lam's connection formulas:
    1, or at a non-generic index 2 p, a jet's p values and p majorants."""
    p = _jet.cluster_order(lam)
    return 1 if p == 1 else 2 * p


def _index_mp(lam: tuple, centred: bool):
    """The index in the current mpmath precision and the context of the
    connection formulas for it: lam itself with mpmath, or at a non-generic
    index the jets lam + eps u with _jet.context.  centred takes lam less
    its mean, the rounding left in a SpectralIndex."""
    values = [mp.mpc(v) for v in lam]
    if centred:
        mean = sum(values) / len(values)
        values = [v - mean for v in values]
    p = _jet.cluster_order(lam)
    if p == 1:
        return mp, values
    return _jet.context(lam), _jet.index_jets(values, p)


def _coeffs_mp(lam: tuple, kind, dps: int):
    """The c_l of kind (("signvec", sv): E E_l S_l; ("kernel", deltas, parity):
    _kernel_coeffs) and bounds on their moduli at dps digits, as tuples; at
    a non-generic index Laurent jets in eps and their majorants."""

    def build():
        if kind[0] == "kernel":
            return _kernel_coeffs(lam, kind[1], kind[2], dps, _root_rows_mp(lam, kind[2], dps))
        with mp.workdps(dps):
            ctx, index = _index_mp(lam, centred=False)
            return tuple(map(tuple, _connection_coeffs(ctx, index, _sines(ctx, index), kind[1])))

    numbers = 2 * len(lam) * _jet_numbers(lam)
    return _stored(("coeffs", lam, kind, dps), _charge(numbers, dps_to_prec(dps)), build)


def _root_rows_mp(lam: tuple, parity: int, dps: int):
    """_root_rows in mpmath at dps digits: at most floor(n/2) + 1 rows of n
    (of jets at a non-generic index)."""

    def build():
        with mp.workdps(dps):
            return _root_rows(*_index_mp(lam, centred=True), parity)

    n = len(lam)
    numbers = n * (n // 2 + 1) * _jet_numbers(lam)
    return _stored(("roots", lam, parity, dps), _charge(numbers, dps_to_prec(dps)), build)


def _kernel_coeffs(lam: tuple, deltas: tuple, parity: int, dps: int, rows):
    """K_l = sum_k e_k(y) R^(k)_l at dps digits from the rows R^(k) of
    _root_rows at dps digits, and bounds on |K_l| for the big-float rounds'
    noise model: the sum may cancel (near a non-generic index, by the
    growth of the rows there), and its rounding is at most a few units of
    dps digits in its terms' mass sum_k e_k(|y|) |R^(k)_l|, so a bound is at
    least 10^-3 of that mass, which the model's 10^5 then covers.  At a
    non-generic index the K_l are Laurent jets and the bounds their
    majorants."""
    ks, ls = slice(0 if parity > 0 else 1, None, 2), range(len(lam))
    with mp.workdps(dps):
        ctx, index = _index_mp(lam, centred=True)
        _, e, e_abs = root_factors(index, deltas, ctx)
        coeffs = tuple(sum(c * row[l] for c, row in zip(e[ks], rows)) for l in ls)
        if ctx is not mp:
            return coeffs, tuple(map(abs, coeffs))
        mass = [sum(c.real * abs(row[l]) for c, row in zip(e_abs[ks], rows)) for l in ls]
        return coeffs, tuple(max(abs(c), m / 1000) for c, m in zip(coeffs, mass))


def _double_head(lam: tuple, l: int, diffs):
    """The head of the l-th series for the double pass: prod_k 1/Gamma(d_k +
    m + 1) for m <= M = _m_fresh(diffs), d_k = lam_k - lam_l formed from lam
    (_backend.head_coeffs over mp.rgamma) at 64 bits plus the bit length of
    n (M + 1), where the gammas and the n (M - m) steps of the multiply-down
    move each coefficient by less than 2^-63, each rounded once to a Python
    complex.  Keyed by lam, whose doubles do not tell 0.0 from -0.0: mpmath
    has one zero.  A head longer than _ROUND_TERMS raises before it is built
    (_check_head): no round sums it, so the big-float rounds raise as well."""
    fresh = _m_fresh(diffs)
    _check_head(fresh, _ROUND_TERMS)

    def build():
        with mp.workprec(64 + (len(diffs) * (fresh + 1)).bit_length()):
            d = [mp.mpc(lk) - mp.mpc(lam[l - 1]) for lk in lam]
            return tuple(map(complex, _backend.head_coeffs(d, fresh, lambda a: map(mp.rgamma, a))))

    return _stored(("double", lam, l), _charge(fresh + 1, 53), build)


class _Head(NamedTuple):
    """A big-float series' constants (_head_mp): the head coefficients as
    rows of p (re, im) integers, c_m = row_m 2^(exps_m), and the loop's
    tables (_backend.fixed_tables)."""

    rows: tuple
    exps: tuple
    tables: _backend.FixedTables


def _fixed_row(values, bits: int):
    """mpmath numbers (or 0), taken at the current precision, as (re, im)
    integers of one exponent e, the largest part with bits bits and each
    part floored to a unit 2^e; an all-zero row is exact with e = 0."""
    parts = [part for v in values for part in mp.mpc(v)._mpc_]
    mag = max((exp + bc for _, man, exp, bc in parts if man), default=None)
    if mag is None:
        return tuple((0, 0) for _ in values), 0
    e = mag - bits
    ints = [to_fixed(part, -e) for part in parts]
    return tuple(zip(ints[::2], ints[1::2])), e


def _head_mp(lam: tuple, l: int, wp: int, p: int = 1) -> _Head:
    """What the l-th series of lam needs at wp bits besides z, all of it
    integers.  The coefficients prod_k 1/Gamma(d_k + m + 1) for m <= M =
    _m_fresh of the differences d_k = lam_k - lam_l (_backend.head_coeffs
    with mp.rgamma at wp bits) become rows of wp + _HEAD_GUARD bits
    (_fixed_row), so a coefficient moves by at most 2^-(wp + 3) of its
    row's largest part and a zero stays exact.  With
    p > 1, at the index moved to lam + eps u, each is a jet of p
    coefficients in eps at d_k + eps (u_k - u_l): _jet.rgamma at the top,
    multiplied down by the linear jets, so a pole crossing multiplies by a
    jet whose leading coefficient is 0.  The loop's tables come from the
    d_k as fixed-point pairs of wp fraction bits.  Charged a number for its
    key (_charge) and each integer it holds (_int_charge): the rows'
    (M + 1) p pairs and M + 1 exponents at wp + _HEAD_GUARD bits, and the
    tables' 2 (n + 1) p integers of P_j and 2n + 1 of R at the bits they
    can take: at m <= M + 1 + 2n, |P_j(m)| <= prod_k (|d_k| + |s_k| + m + 1)
    2^(n fb) with |s_k| < 2n and fb <= wp, a forward difference of order i
    is at most 2^i times the largest sample, and R = |P_0|^2."""

    def build():
        u = _jet.direction(len(lam))
        slopes = [uk - u[l - 1] for uk in u]
        fresh = _head_lengths(lam)[l - 1]
        with mp.workprec(wp):
            diffs = [mp.mpc(lk) - mp.mpc(lam[l - 1]) for lk in lam]
            args, rgamma = diffs, mp.rgamma
            if p > 1:
                args = [_jet.linear(d, s, p) for d, s in zip(diffs, slopes)]
                rgamma = _jet.rgamma
            head = _backend.head_coeffs(args, fresh, lambda args: map(rgamma, args))
            rows, exps = zip(*(_fixed_row(c.c if p > 1 else [c], wp + _HEAD_GUARD) for c in head))
            fixed = [_to_fixed(d, wp) for d in diffs]
        return _Head(rows, exps, _backend.fixed_tables(fixed, slopes, wp, fresh, p))

    n, M = len(lam), _head_lengths(lam)[l - 1]
    reach = max(abs(lk - lam[l - 1]) for lk in lam) + 4 * n + M + 2
    bits = n * (wp + math.ceil(reach).bit_length() + 1)  # of the P_j tables' integers
    cost = (
        _charge(0, wp)
        + _int_charge((2 * p + 1) * (M + 1), wp + _HEAD_GUARD)
        + _int_charge(2 * (n + 1) * p, bits)
        + _int_charge(2 * n + 1, 2 * bits)
    )
    return _stored(("head", lam, l, wp, p), cost, build)


def _coeffs_double(lam: tuple, kind):
    """The c_l of kind, bounds on their moduli and a kernel's rows in double,
    rounded once from 50 digits (_coeffs_mp, _kernel_grid_coeffs: E E_l S_l
    or K_l); OverflowEvalError where a c_l leaves the normal double range."""
    if kind[0] == "signvec":
        cs = [complex(c) for c in _coeffs_mp(lam, kind, _GRID_DPS)[0]]
        if not all(np.finfo(float).tiny <= abs(c) < math.inf for c in cs):
            raise OverflowEvalError("a connection coefficient leaves the normal double range")
        return cs, [abs(c) for c in cs], ()
    kern, rows, kern_abs, _ = _kernel_grid_coeffs(lam, kind[1], kind[2])
    kern, *rows = ([complex(re[0], im[0]) for re, im in row] for row in (kern, *rows))
    return kern, kern_abs, rows


def _j_generic_double(z: SurfacePoint, sign: int, si: SpectralIndex, tol: float, cs, mags):
    value = 0j
    mass = 0.0
    err = 0.0
    terms = 0
    family = []
    for l in range(si.rank):
        comp = first_kind(z, sign, si, l + 1, tol * 1e-3)
        value += cs[l] * comp.value
        mass += mags[l] * abs(comp.value)
        err += mags[l] * comp.tail_bound
        terms += comp.terms_used
        family.append(comp.value)
    eps = np.finfo(float).eps
    err += 8.0 * eps * mass
    return SeriesEval(value, terms, err), mass, family


def _tens(dps: int):
    """10^-(dps-4) and 10^(-dps-30) at dps digits: the relative noise of a
    dps-digit round (_j_generic_mp) and the floor of its series (_Round),
    one stored entry per dps."""

    def build():
        with mp.workdps(dps):
            return mp.mpf(10) ** (-(dps - 4)), mp.mpf(10) ** (-dps - 30)

    return _stored(("tens", dps), _charge(2, dps_to_prec(dps)), build)


class _Round:
    """What the n series of one big-float round share, at the current
    mpmath precision dps: the bits wp, m_min and m_cap, the floor
    10^(-dps-30) (_tens), and made in mp.workprec(wp), the precision the series run
    at: log z and zf = sign i^n z^n, their fixed-point forms and that of
    rel_tol, the series' constants (_head_mp; jets of p coefficients at
    order p > 1), and the powers zf^m through the longest head as integers
    of one exponent each (_fixed_powers).  A head longer than m_cap raises
    OverflowEvalError before any is built: its terms alone would pass the
    round's term cap (_check_head)."""

    def __init__(self, z: SurfacePoint, sign: int, si: SpectralIndex, rel_tol, order: int = 1):
        n = si.rank
        self.si = si
        self.m_min = int(math.e * z.modulus) + 4
        self.m_cap = self.m_min + _ROUND_TERMS
        top = max(_head_lengths(si.lam))
        _check_head(top, self.m_cap)
        self.order = order
        dps = mp.mp.dps
        wp = math.ceil(dps * math.log2(10)) + 2 * self.m_cap.bit_length() + 8
        wp += max(0, math.ceil(-n * z.log_modulus / math.log(2)))  # |zf| < 1
        self.wp = wp
        self.floor = _tens(dps)[1]
        with mp.workprec(wp):
            self.logz = mp.mpc(z.log_modulus, z.argument)
            self.zf = sign * mp.expjpi(mp.mpf(n) / 2) * mp.exp(n * self.logz)
            self.zf_fixed = _to_fixed(self.zf, wp)
            self.tol = to_fixed(mp.mpf(rel_tol)._mpf_, wp)
            self.heads = [_head_mp(si.lam, l, wp, order) for l in range(1, n + 1)]
            self.fixed_powers = _fixed_powers(self.zf, top, wp + top.bit_length() + 3)


def _fixed_powers(zf, top: int, bits: int):
    """zf^m for m = 0 .. top as (re, im, e), zf^m ~ (re + i im) 2^e with
    the larger part of bits bits: zf as _fixed_row rounds it, then each
    power the exact product of the one before and zf, floored back to bits
    bits.  Each step moves a power by at most 2^(1.5 - bits) of its
    modulus, so zf^m by at most m 2^(3 - bits) of |zf|^m; _Round takes
    bits = wp + bitlen(top) + 3, where that is at most 2^-wp."""
    ((zr, zi),), ez = _fixed_row([zf], bits)
    re, im, e = 1, 0, 0
    powers = [(re, im, e)]
    for _ in range(top):
        re, im, e = re * zr - im * zi, re * zi + im * zr, e + ez
        k = max(abs(re).bit_length(), abs(im).bit_length()) - bits
        if k > 0:
            re, im, e = re >> k, im >> k, e + k
        powers.append((re, im, e))
    return powers


def _first_kind_mp(rnd: _Round, l: int):
    """first_kind at the precision of the round rnd, the same series and
    stop rule with the floor 10^(-dps-30) and at most m_min + 50 000 terms;
    at a non-generic index J_l at lam + eps u, a jet of rnd.order
    coefficients whose prefactor z^(-n lam_l) exp(-n u_l log z eps) brings
    in the powers of log z.

    Every step runs with wp = dps log2(10) + 2 bitlen(m_cap) + 8 bits, and
    with the bits |zf| < 1 costs zf.  The terms through M = _m_fresh are the
    stored head rows (_head_mp) times the round's powers zf^m, exact
    integer products shifted to units of 2^E, E = wp less the bits of the
    largest part of t_M, so pole crossings stay exact zeros; the rest run
    in the integer loop _backend.sum_first_kind_fixed on the stored tables.
    Each part of a head term t_m lies within 2^E + 2^(1-wp) |zf|^m max |c_m|
    of c_m zf^m, with c_m the coefficients head_coeffs makes at wp bits
    and max |c_m| the largest part of their row: the floor to 2^E, the
    row's rounding (at most 2^-(wp+3) of it) and the powers' (at most
    2^-wp of |zf|^m).

    Returns (value, terms, abs_scale): abs_scale, the summed term magnitude
    times |prefactor| (a jet's majorants) that arithmetic noise scales with,
    is an upper bound with the loop's rounding, at most terms^2 2^-wp times
    it, so the value is within 10^-dps abs_scale of the same terms summed
    exactly, far inside the noise model 10^-(dps-5) abs_scale of _j_generic_mp.
    """
    n, wp, p = rnd.si.rank, rnd.wp, rnd.order
    entry = rnd.heads[l - 1]
    products = [
        ([(cr * zr - ci * zi, cr * zi + ci * zr) for cr, ci in row], ec + ez)
        for row, ec, (zr, zi, ez) in zip(entry.rows, entry.exps, rnd.fixed_powers)
    ]
    last, e = products[-1]
    e += max(abs(part).bit_length() for pair in last for part in pair) - wp
    head = []
    for row, ep in products:
        s = ep - e
        head.append([(re << s, im << s) if s >= 0 else (re >> -s, im >> -s) for re, im in row])
    sums, masses, terms = _backend.sum_first_kind_fixed(
        head, rnd.zf_fixed, entry.tables, wp, rnd.tol, to_fixed(rnd.floor._mpf_, wp - e),
        rnd.m_min, rnd.m_cap,
    )
    with mp.workprec(wp):
        sums = [mp.mpc(mp.mpf((sr, e)), mp.mpf((si_, e))) for sr, si_ in sums]
        masses = [mp.mpf((a, e)) for a in masses]
        lead = -n * mp.mpc(rnd.si.lam[l - 1]) * rnd.logz
        if p > 1:
            u = _jet.direction(n)
            pref = _jet.exp_linear(lead, -u[l - 1] * n * rnd.logz, p)
            value = pref * _jet.Jet(sums, masses)
            return value, terms, abs(value)
        pref = mp.exp(lead)
        value = pref * sums[0]
        scale = abs(pref) * masses[0]
    return +value, terms, +scale


def _to_fixed(x, bits):
    """An mpmath complex as integers (re, im) with bits fraction bits."""
    re, im = mp.mpc(x)._mpc_
    return to_fixed(re, bits), to_fixed(im, bits)


def _j_generic_mp(z: SurfacePoint, sign: int, si: SpectralIndex, dps: int, kind):
    """The combination in dps-digit arithmetic; returns mp values and the
    first-kind family values it was summed from.  At a non-generic index
    the coefficients and the family are jets in eps, the value and the term
    mass the eps^0 coefficients of sum_l c_l J_l and of its majorant: the
    limit and its noise scale in one pass."""
    n = si.rank
    with mp.workdps(dps):
        cs, mags = _coeffs_mp(si.lam, kind, dps)
        rel = _tens(dps)[0]
        rnd = _Round(z, sign, si, rel, _jet.cluster_order(si.lam))
        value = mp.mpc(0)
        mass = mp.mpf(0)
        terms = 0
        family = []
        for l in range(n):
            comp, t_used, comp_scale = _first_kind_mp(rnd, l + 1)
            value += cs[l] * comp
            # noise scales with the summed term magnitudes inside each
            # component, not with the (already cancelled) component value
            mass += mags[l] * comp_scale
            terms += t_used
            family.append(comp)
        if rnd.order > 1:
            value, mass = value.coeff(0), mass.coeff(0)
        return value, mass, terms, rel, family


def _leading_log10(z: SurfacePoint, si: SpectralIndex, sv: SignVector):
    """log10 |J(z; sv, si)| from the leading term of its asymptotic
    expansion, |varsigma_factor| |e^{i n xi z}| |z|^{-(n-1)/2}; None below
    the validity floor, outside the sector of xi(sv), or where the floor
    overflows."""
    from . import asympt  # asympt imports this module

    n = si.rank
    xi = sv.xi()
    try:
        if z.modulus < asympt.validity_floor(si) or not asympt.in_validity_sector(
            z, xi, n, asympt.DEFAULT_THETA
        ):
            return None
        growth = (1j * n * xi.value * z.to_complex()).real  # log |e^{i n xi z}|
        front = math.log(abs(asympt.varsigma_factor(sv, si)))
        log_j = growth - 0.5 * (n - 1) * z.log_modulus + front
    except (ArithmeticError, ValueError):
        return None
    return log_j / math.log(10.0)


def _recombine(rows, family):
    """sum_l c_l J_l for each row of coefficients c, from family values in
    the same arithmetic."""
    return [complex(sum(c * f for c, f in zip(cs, family))) for cs in rows]


def _failed_round(noise, value):
    """A failed round's achieved error, rounded up to a positive double, and
    the words that print it and |value| as big floats: either may lie below
    double range."""
    ach = noise + 4.0 * float(np.finfo(float).eps) * abs(value)
    up = float(ach)
    words = f"achieved {mp.nstr(ach, 3)}, |value| {mp.nstr(abs(value), 3)}"
    return (up if up >= ach else math.nextafter(up, math.inf)), words


def _peak(lam: tuple, parity: int, sums) -> float:
    """max |J(z; sig)| over the sign vectors of parity, by root: the
    largest top_k |G_k| of the grouped sums G_k and top_products."""
    tops = top_products(lam)[0 if parity > 0 else 1 :: 2]
    return max(t * abs(g) for t, g in zip(tops, sums))


def _evaluate(z: SurfacePoint, si: SpectralIndex, tol: float, kind):
    """sum_l c_l J_l(z; sign) with error at most tol times its modulus, for
    the coefficients of kind (see _coeffs_mp) and its sign: the product of a
    sign vector's signs, or the kernel's parity.  For a kernel, also returns
    the grouped sums G_k = sum_l R^(k)_l J_l of _root_rows at its parity,
    rebuilt from the family values of the accepted pass; () otherwise.

    A generic index (components differing by no integer, _jet.cluster_order
    1) starts with the double pass, on coefficients rounded from 50-digit
    entries (_coeffs_double), also near a non-generic index, where the term
    mass carries their growth.  Past n|z| = 690 the big-float rounds run
    alone, sized as where the double pass overflows, and so they do at a
    non-generic index, taking the limit on jets in one pass per round
    (_j_generic_mp), its value and the G_k the eps^0 coefficients.  There a
    kernel can vanish identically: a round
    whose value lies inside its noise while that noise is at most tol times
    the cancellation reference (_peak) ends the rounds, with the noise as
    the error, at least |value|, so no digit is claimed.  Auto mode no
    longer comes here for such a side (it answers it exactly, by
    _jet.vanishing_side); the forced series route and kernel_series do.
    """
    sign, parity = (kind[1].product_sign, None) if kind[0] == "signvec" else (kind[2], kind[2])
    limit = _jet.cluster_order(si.lam) > 1
    alone = si.rank * z.modulus > 690.0 or limit
    eps = np.finfo(float).eps

    def digits(logmass, log_size, guard=19):
        # the digits at which the noise test below, term mass times
        # 10^-(dps-5) <= tol |value|, holds at |value| = 10^log_size, plus guard
        return 5 + guard + int(logmass - log_size) - int(math.log10(tol))

    if not alone:
        try:
            cs, mags, rows = _coeffs_double(si.lam, kind)
            est, mass, family = _j_generic_double(z, sign, si, tol, cs, mags)
        except OverflowEvalError:  # at large |lambda| the terms overflow below n|z| = 690 too
            alone = True
    if not alone:
        if est.tail_bound <= tol * abs(est.value) and abs(est.value) > 0:
            return est, _recombine(rows, family)
        # the double-pass error aggregates eps * (internal term mass), so it
        # back-solves for the cancellation the big-float pass must absorb.
        # A value inside its own noise only says |value| <~ eps * noise_mass,
        # so the scale is not taken below that; the rounds below escalate if
        # the value is smaller still
        noise_mass = max(est.tail_bound / (8.0 * eps), mass)
        scale = max(abs(est.value), eps * noise_mass, 1e-280)
        logmass = math.log10(max(noise_mass, scale))
        dps = digits(logmass, math.log10(scale))
    else:
        if si.rank * z.modulus > _SERIES_MAX_NZ:
            raise OverflowEvalError(
                f"|z| = {z.modulus:.6g} at rank {si.rank} is beyond the series: its "
                "first big-float round would need over 45 000 digits; use the "
                "asymptotic route"
            )
        # summing past the e^{n|z|} term ridge needs ~0.44 n|z| digits; the
        # escalation loop below buys more if the combination cancels deeper
        logmass = 0.45 * si.rank * z.modulus
        dps = 26 + int(logmass) - int(math.log10(tol))
    log_j = _leading_log10(z, si, kind[1]) if kind[0] == "signvec" else None
    if log_j is not None and log_j + _ESTIMATE_GUARD < math.log10(_DPS_CEILING_SIZE):
        raise ToleranceNotMetError(
            f"the leading asymptotic term puts |J| near {mp.nstr(mp.mpf(10) ** log_j, 3)} at "
            f"|z|={z.modulus:.6g}, below the {_DPS_CEILING_SIZE:.0e} the big-float rounds "
            "resolve, so none was run; use the asymptotic route", achieved=math.inf)
    if log_j is not None:
        # a sign-vector function in its asymptotic zone: sized for the
        # leading term's |J| (below the ceiling the rounds stop at)
        dps = digits(logmass, log_j, _ESTIMATE_GUARD)
    for _ in range(8):
        round_dps = dps
        value, mass, terms, rel, family = _j_generic_mp(z, sign, si, dps, kind)
        v = complex(value)
        noise = mass * rel * 10
        if not cmath.isfinite(v) and abs(value) - noise > np.finfo(float).max:
            raise OverflowEvalError(f"|J| exceeds double range at |z|={z.modulus:.6g}")
        ach = float(noise) + 4.0 * eps * abs(v)  # incl. final rounding
        resolved = abs(v) > 0 and mp.mpf(abs(v)) > noise
        if resolved and ach <= tol * abs(v) + 8.0 * eps * abs(v):
            break
        if limit and parity and not resolved:
            with mp.workdps(round_dps):
                sums = _recombine(_root_rows_mp(si.lam, parity, round_dps), family)
            if noise <= tol * _peak(si.lam, parity, sums):
                break
        # |v| may still be cancellation noise, so escalate geometrically as
        # well as by the apparent requirement, up to the digits that resolve
        # any value of double range (|v| >= 1e-300) against this term mass;
        # a round there that fails asks for a value the series cannot give.
        # A failed round's |v| is its arithmetic's noise, which depends on
        # how the terms were rounded (and may be exactly 0), so the
        # requirement is taken at no less than the noise bound.  A round that
        # resolves a value below double range, or whose term mass lies there
        # (the ceiling is then this round's digits), ends the rounds
        logmass = float(mp.log10(mass)) if mass > 0 else 0.0
        ceiling = max(digits(logmass, math.log10(_DPS_CEILING_SIZE)), round_dps)
        below = v == 0 and abs(value) > noise
        if below or round_dps == ceiling:
            ach, failed = _failed_round(noise, value)
            raise ToleranceNotMetError(
                f"the series resolves the value in {round_dps} digits at |z|={z.modulus:.6g} "
                f"({failed}), but it lies below double range" if below else
                f"series precision ceiling of {ceiling} digits reached at "
                f"|z|={z.modulus:.6g} ({failed}); "
                "the value is below double range or beyond what the ascending "
                "series resolves: use the asymptotic route",
                value=v,
                achieved=ach,
            )
        size = max(abs(v), min(float(noise), 1e300), _DPS_CEILING_SIZE)
        dps = min(max(int(dps * 1.6) + 8, digits(logmass, math.log10(size))), ceiling)
    else:
        ach, failed = _failed_round(noise, value)
        raise ToleranceNotMetError(
            f"series not certified after 8 big-float rounds at |z|={z.modulus:.6g} "
            f"(last {round_dps} digits, {failed}); "
            "use the asymptotic route",
            value=v,
            achieved=ach,
        )
    with mp.workdps(round_dps):
        rows = _root_rows_mp(si.lam, parity, round_dps) if parity else ()
        return SeriesEval(v, terms, ach), _recombine(rows, family)


def j_function(
    z: Pointlike, sv: SignVector, si: SpectralIndex, tol: float = 1e-10
) -> SeriesEval:
    """The sign-vector function via its first-kind expansion.

    tol is a relative-accuracy request; the achieved absolute bound comes
    back in tail_bound.  At a non-generic index (two components differ by
    an integer) the value is the limit, taken in one pass per big-float
    round on jets in a perturbation eps of the index (_evaluate): the eps^0
    coefficient, where the log-bearing solutions appear.  Raises
    ToleranceNotMetError when the leading asymptotic term puts the value
    below what the big-float rounds resolve, when a round resolves a value
    below double range, when the rounds reach their precision ceiling,
    which happens for values below double range, or when they end their 8
    rounds without certifying the value (use the asymptotic route there).
    """
    z = _as_point(z)
    check_tolerance(tol)
    if sv.n != si.rank:
        raise ValueError("sign vector length must match the rank")
    return _evaluate(z, si, tol, ("signvec", sv))[0]


def sign_vectors(n: int, parity: int):
    """The 2^{n-1} sign vectors of length n whose product is parity."""
    return [SignVector(s) for s in product((1, -1), repeat=n) if math.prod(s) == parity]


def kernel_series(
    z: Pointlike, parity: int, si: SpectralIndex, deltas, tol: float = 1e-9
):
    """The signed kernel sum_l K_l J_l(z; parity) by the ascending series.

    At x with sgn x = parity and z = 2 pi |x|^{1/n}, every sign vector of
    the kernel sum uses the same first-kind family J_l(z; parity), so the
    sum collapses onto the n kernel coefficients K_l of _kernel_coeffs:
    n series per point instead of 2^{n-1} sign-vector functions.  tol is
    relative to the kernel value; the precision is chosen once, for the
    kernel.  Also returns max |J(z; sig)| over the sign vectors of the sum
    (the cancellation reference) by root: the largest top_k |G_k|, with G_k
    of _root_rows, top_products.  At a non-generic index the K_l and the G_k
    are limits, the eps^0 coefficients of jets (_evaluate); a kernel that
    vanishes there identically comes back with an error of at least its
    |value| once its noise is below tol times the cancellation reference.
    bessel_kernel's auto mode does not call it on such a side, which the
    exact rule _jet.vanishing_side answers with 0.
    """
    z = _as_point(z)
    kind = ("kernel", tuple(int(d) % 2 for d in deltas), parity)
    est, sums = _evaluate(z, si, tol, kind)
    return est, _peak(si.lam, parity, sums)


# ---------------------------------------------------------------------------
# the kernel at many points of one index: one double-double sweep
# ---------------------------------------------------------------------------

_GRID_DPS = 50  # digits of the per-index tables before rounding to pairs
_GRID_M_CAP = 600  # a point whose series needs more terms is left uncertified
_U2 = 2.0**-106  # unit roundoff of the pair arithmetic


def _mp_pair(z):
    """An mpmath complex as a complex pair ((re_hi, re_lo), (im_hi, im_lo))."""
    return tuple((float(x), float(x - float(x))) for x in (z.real, z.imag))


class _FirstKindTable:
    """c_m^(l) = prod_k 1/Gamma(lam_k - lam_l + m + 1) of one index: the
    terms of _backend.first_kind_terms at zf = 1 in mpmath at _GRID_DPS
    digits, pulled as the table grows, each stored as a complex pair
    mantissa with a power-of-two exponent, so no entry over- or underflows.
    The heads (_backend.head_coeffs) are built at once, at _GRID_DPS digits.
    Entry m is the same whatever length the table has reached."""

    def __init__(self, lam):
        self.m_fresh = list(_head_lengths(lam))
        self.coeffs = [[] for _ in lam]  # (mantissa pair, exponent)
        self.ratios = [[] for _ in lam]  # |c_0|, then |c_m / c_{m-1}|
        self._last = [1 for _ in lam]  # |c_(m-1)| for the next entry m
        self._terms = []
        with mp.workdps(_GRID_DPS):
            lam_mp = [mp.mpc(v) for v in lam]
            for lam_l, fresh in zip(lam_mp, self.m_fresh):
                d = [lk - lam_l for lk in lam_mp]
                head = _backend.head_coeffs(d, fresh, lambda args: map(mp.rgamma, args))
                self._terms.append(_backend.first_kind_terms(1, d, iter(head), [1] * (fresh + 1)))

    def extend(self, m_top: int):
        if len(self.coeffs[0]) > m_top:
            return
        with mp.workdps(_GRID_DPS):
            for l, terms in enumerate(self._terms):
                for _ in range(len(self.coeffs[l]), m_top + 1):
                    t = next(terms)
                    size = abs(t)
                    e = int(mp.floor(mp.log(size, 2)))
                    mant = mp.mpc(mp.ldexp(t.real, -e), mp.ldexp(t.imag, -e))
                    self.coeffs[l].append((_mp_pair(mant), e))
                    self.ratios[l].append(float(size / self._last[l]))
                    self._last[l] = size


def _table_charge(n: int, terms: int) -> int:
    """A _FirstKindTable's charge: terms and n + 4 generator numbers a series."""
    return _charge(n * (terms + n + 4), dps_to_prec(_GRID_DPS))


def _kernel_grid_coeffs(lam: tuple, deltas: tuple, parity: int):
    """K_l of _kernel_coeffs and the rows R^(k) of _root_rows at
    _GRID_DPS digits rounded to complex pairs; |K_l|; and top_products: one
    stored entry per index, deltas and parity, for both series routes.  The
    50-digit rows are built for it alone, not stored."""

    def build():
        with mp.workdps(_GRID_DPS):
            rows = _root_rows(mp, _index_mp(lam, centred=True)[1], parity)
            kern = _kernel_coeffs(lam, deltas, parity, _GRID_DPS, rows)[0]
            return (
                tuple(_mp_pair(c) for c in kern),
                tuple(tuple(_mp_pair(c) for c in row) for row in rows),
                tuple(float(abs(c)) for c in kern),
                top_products(lam)[0 if parity > 0 else 1 :: 2],
            )

    n = len(lam)
    return _stored(("grid", lam, deltas, parity), _charge(n * (n // 2 + 3), 106), build)


def _rotate(c, k: int):
    """Complex pair times i^k, exactly."""
    re, im = c
    for _ in range(k % 4):
        re, im = dd_neg(im), re
    return re, im


def _pair_abs(c):
    return np.hypot(c[0][0], c[1][0])


def _pair_columns(c):
    """Nested complex pairs of floats as one complex pair of arrays, with a
    last axis of length 1 for the points."""
    a = np.array(c)
    return tuple(tuple(a[..., part, h, None] for h in (0, 1)) for part in (0, 1))


def _entry(c, i):
    """Entry i along the first axis of a complex pair of arrays."""
    return tuple(tuple(x[i] for x in part) for part in c)


def _sum_degrees(table: _FirstKindTable, zabs):
    """Per series l (axis 0) and point (axis 1), the degree d at which the
    l-th series is summed, its term mass sum_{m<=d} a_m and weighted mass
    sum (m+1) a_m, with a_m = |c_m^(l)| |zf|^m, and twice the first omitted
    term: the n series side by side, each on its own bits.

    d is the first index past _m_fresh - 2 where the next term ratio is at
    most 1/2 and the next term is at most 2^-106 of the mass: from there the
    ratios only fall, so the omitted tail is below twice its first term.
    Points still running at _GRID_M_CAP get degree -1."""
    fresh = np.array(table.m_fresh)[:, None]
    table.extend(2)

    def ratios(m):
        return np.array([row[m] for row in table.ratios])[:, None]

    # the largest |zf| first: the points still running are a prefix of k
    order = np.argsort(-zabs, kind="stable")
    z = zabs[order]
    shape = (len(fresh),) + zabs.shape
    a = np.broadcast_to(ratios(0), shape).copy()
    mass = a.copy()
    wmass = a.copy()
    deg = np.full(shape, -1, dtype=np.int64)
    out = np.zeros((3,) + shape)  # the mass, the weighted mass and the tail at the degree
    k = len(z)
    m = 0
    while m < _GRID_M_CAP:
        table.extend(m + 2)
        nxt = a * z * ratios(m + 1)
        if m + 2 >= fresh.min():
            stop = (deg[:, :k] < 0) & (m + 2 >= fresh)
            stop &= (z * ratios(m + 2) <= 0.5) & (nxt <= _U2 * mass)
            deg[:, :k][stop] = m
            out[:, :, :k][:, stop] = mass[stop], wmass[stop], 2.0 * nxt[stop]
            running = np.flatnonzero((deg[:, :k] < 0).any(axis=0))
            if not running.size:
                break
            k = running[-1] + 1
            a, mass, wmass, nxt, z = a[:, :k], mass[:, :k], wmass[:, :k], nxt[:, :k], z[:k]
        m += 1
        a = nxt
        mass = mass + a
        wmass = wmass + (m + 1) * a
    back = np.argsort(order)
    return (deg[:, back], *out[:, :, back])


def kernel_series_grid(inner, si: SpectralIndex, deltas, tol: float = 1e-9):
    """The signed kernel sum_l K_l J_l(z; parity) at the points z of the
    array inner, for one generic index (components that differ by no
    integer) and both parities, in double-double arithmetic.

    kernel_series at one point, as one array pass: each J_l is z^{-n lam_l}
    times a power series in zf = parity i^n z^n whose coefficients c_m^(l)
    come from mpmath (_FirstKindTable).  The parities differ only in the sign
    of zf, so with r = |zf| each series is summed once, as two Horner halves
    in r^2 over the rotated coefficients c_m i^{nm}: E over the even m and
    O over the odd m, and J_l(+) = E + r O, J_l(-) = E - r O.  As in the
    big-float rounds of kernel_series, z is taken as exp(L) with L = log z
    in double, so zf and the prefactors are exp of exact pairs; the logs,
    exp(nL), the degrees and the prefactors serve both parities.  Each point
    has its own degree (_sum_degrees), so its values depend only on (z,
    index, tol), never on the other points.

    The n series lie on one array axis: their degrees, coefficient columns,
    Horner steps, prefactors (one cdd_exp), products with K_l and the rows
    of the cancellation reference are one array operation each, and only
    the sums over l run as a loop, in the order of l.  The Horner runs over
    the points sorted by their largest degree: step j takes only the prefix
    whose degree reaches 2j, since on the others it would add exact zeros
    to an accumulator that is still +0.  An empty inner gives empty (2, 0)
    arrays.

    Returns, as rows for parity +1 and -1, the values, their error bounds,
    max |J(z; sig)| over the sign vectors of the sum (the cancellation
    reference by root, G_k in pairs) and a mask of the certified points:
    error at most tol * |value|, value nonzero, n z <= 690.  The error bound
    is sum_l |K_l z^{-n lam_l}| (2^-106 [16 (M_l + W_l) + (16 + 4|nL|) W_l
    + (16 + 4|n lam_l L|) M_l] + tail_l) + 4 eps |value|, with M_l and W_l
    = sum (m+1) a_m the term mass and weighted mass of _sum_degrees: the
    rounding of the coefficients and of Horner, of exp(nL) raised to the
    m-th power, and of the prefactor.  It is the bound of a plain Horner in
    r, which it covers: a pair product or sum rounds by at most 8 2^-106 of
    the magnitudes it combines, and the plain Horner takes term m through m
    products by r and m + 1 sums, 16 (m + 1) in W_l with its relative error
    m |d r / r| in (16 + 4|nL|) W_l.  The split takes term m through
    floor(m/2) products by r^2, each rounding as a product and carrying the
    rounding of r^2 = r r once more, and for odd m one product by r: m
    products, and the relative error m |d r / r| again.  Its sums number
    floor(m/2) + 2 (the Horner half's and the final E +- r O), at most
    m + 1 for m >= 1; for m = 0 they are 2, within the 16 (m + 1) of W_l
    since that term takes no product.
    """
    if _jet.cluster_order(si.lam) > 1:
        raise ValueError("the grid sweep needs a generic index")
    n = si.rank
    deltas = tuple(int(d) % 2 for d in deltas)
    inner = np.asarray(inner, dtype=float)
    if not inner.size:
        return tuple(np.zeros((2, 0), dtype=t) for t in (np.complex128, float, float, bool))
    ok = n * inner <= 690.0  # past this the terms overflow; the point stays uncertified
    kern, rows, kern_abs, tops = zip(*(_kernel_grid_coeffs(si.lam, deltas, p) for p in (1, -1)))
    kern = _pair_columns(list(zip(*kern)))  # axis 0 the series, axis 1 the parity
    logs = np.array([math.log(z) for z in np.where(ok, inner, 1.0)])
    nl = two_prod(float(n), logs)  # n L as an exact pair
    r = dd_exp(nl)  # |zf|
    shift = np.frexp(r[0])[1]
    r_scaled = (np.ldexp(r[0], -shift), np.ldexp(r[1], -shift))
    r2 = dd_mul(r_scaled, r_scaled)
    # charged empty until the degrees have grown it, then for the terms it
    # holds; nothing else is stored in between
    table = _stored(("table", si.lam), _table_charge(n, 0), lambda: _FirstKindTable(si.lam))
    deg, mass, wmass, tail = _sum_degrees(table, r[0])
    _stored(("table", si.lam), _table_charge(n, len(table.coeffs[0])), lambda: table)
    ok &= (deg >= 0).all(axis=0)
    d_top = int(deg.max())
    # the mantissas of c_m^(l) i^{nm}, m <= d_top + 1, as (re/im, l, m)
    # arrays of their hi and lo parts, and the exponents
    heads = [table.coeffs[l][: d_top + 2] for l in range(n)]
    rotated = np.array([[_rotate(mant, n * m) for m, (mant, _) in enumerate(h)] for h in heads])
    parts = [rotated[..., h].transpose(2, 0, 1) for h in (0, 1)]
    exps = np.array([[e for _, e in h] for h in heads], dtype=np.int64)
    # the points by their largest degree, highest first: step j of the
    # Horner runs on the prefix whose degree reaches 2j, the rest hold +0
    top = deg.max(axis=0)
    order = np.argsort(-top, kind="stable")
    top, deg_s, shift_s = top[order], deg[:, order], shift[order]
    r2_s = (r2[0][order], r2[1][order])
    # axis 0 re/im, axis 1 the series, axis 2 the even and the odd half
    acc = (np.zeros((2, n, 2) + inner.shape), np.zeros((2, n, 2) + inner.shape))
    for j in range(d_top // 2, -1, -1):
        k = int(np.count_nonzero(top >= 2 * j))
        ms = np.arange(2 * j, 2 * j + 2)[:, None]
        # ldexp to 0 past the degree
        scale = np.where(
            deg_s[:, None, :k] >= ms, exps[:, 2 * j : 2 * j + 2, None] + shift_s[:k] * ms, -2000
        )
        c = tuple(np.ldexp(part[:, :, 2 * j : 2 * j + 2, None], scale) for part in parts)
        live = (acc[0][..., :k], acc[1][..., :k])
        acc[0][..., :k], acc[1][..., :k] = dd_add(dd_mul(live, (r2_s[0][:k], r2_s[1][:k])), c)
    back = np.argsort(order)
    acc = (acc[0][..., back], acc[1][..., back])
    ro = dd_mul((acc[0][:, :, 1], acc[1][:, :, 1]), r_scaled)
    # axis 0 re/im, axis 1 the series, axis 2 the parity
    j_pm = dd_add((acc[0][:, :, :1], acc[1][:, :, :1]), tuple(np.stack([x, -x], 2) for x in ro))
    del acc, ro  # each array pass below frees what it has read, to hold the peak down
    lam = np.array(si.lam)[:, None]
    w = (dd_mul(nl, (-lam.real, 0.0)), dd_mul(nl, (-lam.imag, 0.0)))
    pref = cdd_exp(w)
    wsize = np.hypot(w[0][0], w[1][0])
    errs = np.array(kern_abs).T[:, :, None] * _pair_abs(pref)[:, None] * (
        _U2
        * (
            16.0 * (mass + wmass)
            + (16.0 + 4.0 * np.abs(nl[0])) * wmass
            + (16.0 + 4.0 * wsize) * mass
        )
        + tail
    )[:, None]
    del w, wsize, mass, wmass, tail
    # per l and parity: J_l times its prefactor, and times K_l
    family = cdd_mul(
        tuple(tuple(x[:, None] for x in part) for part in pref),
        ((j_pm[0][0], j_pm[1][0]), (j_pm[0][1], j_pm[1][1])),
    )
    del pref, j_pm
    terms = cdd_mul(kern, family)
    zero = np.zeros(inner.shape)
    value = ((zero, zero), (zero, zero))
    err = np.zeros((2,) + inner.shape)
    for l in range(n):  # in the order of l, as kernel_series adds them
        value = cdd_add(value, _entry(terms, l))
        err += errs[l]
    del terms, errs
    size = _pair_abs(value)
    err = err + 4.0 * np.finfo(float).eps * size
    peak = np.zeros(err.shape)
    for p in range(2):
        # rows x family: axis 0 the series, axis 1 the root
        row = _pair_columns(list(zip(*rows[p])))
        prods = cdd_mul(row, tuple(tuple(x[:, p, None] for x in part) for part in family))
        g = ((zero, zero), (zero, zero))
        for l in range(n):
            g = cdd_add(g, _entry(prods, l))
        for top_k, size_k in zip(tops[p], _pair_abs(g)):
            peak[p] = np.maximum(peak[p], top_k * size_k)
    vals = np.empty(err.shape, dtype=np.complex128)
    vals.real = value[0][0] + value[0][1]
    vals.imag = value[1][0] + value[1][1]
    return vals, err, peak, ok & (err <= tol * size) & (size > 0)


# ---------------------------------------------------------------------------
# derivatives through the index-shift matrix
# ---------------------------------------------------------------------------

def derivatives(
    z: Pointlike,
    sv: SignVector,
    si: SpectralIndex,
    k_max: int,
    tol: float = 1e-10,
) -> list:
    """d^k/dz^k of the sign-vector function for k = 0..k_max (k_max <= n).

    Uses the exact lower-triangular index-shift matrix: the k-th derivative
    is sum_j S_j (i n)^j U_{k,j} z^{j-k} J_{nu + e^{d-j+1}} where the
    shifted indices re-enter through the sum-zero normalization.
    """
    z = _as_point(z)
    n = si.rank
    if not 0 <= k_max <= n:
        raise ValueError("k_max must lie in [0, n]")
    u_num = _stored(("u", si.lam), _charge((n + 1) ** 2, 53), lambda: build_uv_tables(n, si).u_num)
    nu = nu_of_lambda(si).nu
    d = n - 1

    shifted_vals = {}

    def shifted(j):
        # nu + e^{d-j+1}: ones in the first d-j+1 slots; e^0 = e^{d+1} = 0
        ones = d - j + 1
        if not 1 <= ones <= d:
            ones = 0
        if ones not in shifted_vals:
            pert = [nu[i] + (1.0 if i < ones else 0.0) for i in range(d)]
            shifted_vals[ones] = j_function(z, sv, lambda_of_nu(NuIndex(pert)), tol)
        return shifted_vals[ones]

    out = []
    inpow = 1j * n
    for k in range(k_max + 1):
        acc = 0j
        for j in range(k + 1):
            s_j = 1
            for m in range(j):
                s_j *= sv.signs[n - 1 - m]
            term = (
                s_j
                * inpow**j
                * u_num[k][j]
                * z.power(j - k)
                * shifted(j).value
            )
            acc += term
        out.append(acc)
    return out


def ode_residual(z: Pointlike, sv: SignVector, si: SpectralIndex, tol: float = 1e-10):
    """Relative residual of the rank-n differential equation.

    Returns |sum_j V_{n,j} z^j w^(j) + (V_{n,0} - sign (i n)^n z^n) w|
    normalized by the sum of the term magnitudes.
    """
    z = _as_point(z)
    n = si.rank
    eq = bessel_eq_coeffs(n, si)
    derivs = derivatives(z, sv, si, n, tol)
    num = 0j
    scale = 0.0
    for j in range(1, n + 1):
        t = eq.v[j] * z.power(j) * derivs[j]
        num += t
        scale += abs(t)
    t0 = (eq.v[0] - sv.product_sign * (_I_POW[n % 4] * float(n) ** n) * z.power(n)) * derivs[0]
    num += t0
    scale += abs(t0)
    return abs(num) / max(scale, 1e-300)
