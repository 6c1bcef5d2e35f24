"""Exact coefficient tables behind the rank-n Bessel differential equation
and the asymptotic expansions at infinity.

Three interlocking double sequences drive everything:

* an integer table ``A[j][m]`` built by A_{j,m} = j A_{j,m-1} + A_{j-1,m},
  which also has the closed form sum_{r=1}^{j} (-1)^{j-r} r^{m+j}/(r!(j-r)!);
* lower-triangular polynomial tables U_{k,j} and V_{k,j} in variables
  Lambda_0..Lambda_d, mutually inverse in the sense
  sum_l U_{k,l} V_{l,j} = delta_{k,j};
* the numeric expansion coefficients B_m(lambda; xi) of the solution
  e^{i n xi z} z^{-(n-1)/2} sum_m B_m z^{-m} at the irregular singularity,
  generated by the recurrence the differential equation forces.

U, V are kept as exact integer polynomials first (floating-point
cancellation destroys the inverse pair by k ~ 8) and instantiated at
Lambda_m = n lambda_{d-m+1} second.  The B recurrence runs in mpmath at
B_DPS digits, each step's sums as one exactly summed mp.fdot, before
rounding to complex doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import mp

from .core import RootOfUnity, SpectralIndex

B_DPS = 34  # working digits of the B recurrence
# at 40 terms and |lambda| <= 6 the recurrence's cancellation costs about 15
# of the B_DPS digits
B_TERMS_CAP = 40


def falling(x, k: int):
    """[x]_k = x (x-1) ... (x-k+1); [x]_0 = 1.  Works for Fraction/complex."""
    out = x * 0 + 1
    for i in range(k):
        out = out * (x - i)
    return out


def rising(x, k: int):
    """(x)_k = x (x+1) ... (x+k-1); (x)_0 = 1."""
    out = x * 0 + 1
    for i in range(k):
        out = out * (x + i)
    return out


# ---------------------------------------------------------------------------
# sparse multivariate polynomials (exponent tuple -> int or Fraction coefficient)
# ---------------------------------------------------------------------------

class IntPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = dict(terms) if terms else {}

    @classmethod
    def const(cls, nvars, c):
        p = cls(nvars)
        if c:
            p.terms[(0,) * nvars] = c
        return p

    @classmethod
    def var(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    def __add__(self, other):
        out = IntPoly(self.nvars, self.terms)
        for e, c in other.terms.items():
            nc = out.terms.get(e, 0) + c
            if nc:
                out.terms[e] = nc
            else:
                out.terms.pop(e, None)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if not c:
            return IntPoly(self.nvars)
        return IntPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nc = out.get(e, 0) + c1 * c2
                if nc:
                    out[e] = nc
                else:
                    out.pop(e, None)
        return IntPoly(self.nvars, out)

    def is_zero(self) -> bool:
        return not self.terms

    def eval(self, values: Sequence[complex]) -> complex:
        out = 0j
        for e, c in self.terms.items():
            t = complex(c)
            for i, p in enumerate(e):
                for _ in range(p):
                    t *= values[i]
            out += t
        return out


# ---------------------------------------------------------------------------
# A table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ATable:
    j_max: int
    m_max: int
    entries: tuple  # entries[j][m], exact ints

    def a(self, j: int, m: int) -> int:
        if j == -1:
            return 1 if m == 0 else 0
        if m == -1:
            return 0
        return self.entries[j][m]

    @staticmethod
    def closed_form(j: int, m: int) -> Fraction:
        if j == 0:
            return Fraction(1 if m == 0 else 0)
        tot = Fraction(0)
        for r in range(1, j + 1):
            tot += Fraction(
                (-1) ** (j - r) * r ** (m + j),
                math.factorial(r) * math.factorial(j - r),
            )
        return tot

    def verify_closed_form(self) -> bool:
        for j in range(self.j_max + 1):
            for m in range(self.m_max + 1):
                if Fraction(self.entries[j][m]) != self.closed_form(j, m):
                    return False
        return True


def build_a_table(j_max: int, m_max: int) -> ATable:
    """Integer table by the recurrence A_{j,m} = j A_{j,m-1} + A_{j-1,m}."""
    if j_max < 0 or m_max < 0:
        raise ValueError("table bounds must be nonnegative")
    rows = []
    for j in range(j_max + 1):
        row = []
        for m in range(m_max + 1):
            above = rows[j - 1][m] if j >= 1 else (1 if m == 0 else 0)
            left = row[m - 1] if m >= 1 else 0
            row.append(j * left + above)
        rows.append(row)
    return ATable(j_max, m_max, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# U, V, sigma tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UVTables:
    n: int
    u_sym: dict  # (k, j) -> IntPoly in Lambda_0..Lambda_d, 0 <= j <= k <= n
    v_sym: dict
    u_num: Optional[tuple] = None
    v_num: Optional[tuple] = None

    def u(self, k: int, j: int) -> IntPoly:
        if j > k or j < 0 or k < 0:
            return IntPoly(self.n)
        return self.u_sym[(k, j)]

    def v(self, k: int, j: int) -> IntPoly:
        if j > k or j < 0 or k < 0:
            return IntPoly(self.n)
        return self.v_sym[(k, j)]

    def orthogonality_exact(self) -> bool:
        nv = self.n
        for k in range(nv + 1):
            for j in range(k + 1):
                tot = IntPoly(nv)
                for l in range(j, k + 1):
                    tot = tot + self.u(k, l) * self.v(l, j)
                want = IntPoly.const(nv, 1 if k == j else 0)
                if not (tot - want).is_zero():
                    return False
        return True

    def orthogonality_residual(self) -> float:
        """Max relative deviation of the numeric tables from U V = I."""
        if self.u_num is None:
            raise ValueError("no numeric instantiation")
        worst = 0.0
        for k in range(self.n + 1):
            for j in range(k + 1):
                tot = 0j
                scale = 1.0
                for l in range(j, k + 1):
                    p = self.u_num[k][l] * self.v_num[l][j]
                    tot += p
                    scale = max(scale, abs(p))
                tot -= 1.0 if k == j else 0.0
                worst = max(worst, abs(tot) / scale)
        return worst


def lambda_arguments(si: SpectralIndex) -> tuple:
    """Lambda_m = n lambda_{d-m+1} (1-based), m = 0..d."""
    n = si.rank
    return tuple(n * si.lam[n - 1 - m] for m in range(n))


def build_uv_tables(n: int, si: Optional[SpectralIndex] = None) -> UVTables:
    """Both triangular polynomial tables up to k = n, exact first.

    U is built by U_{k,j} = -(Lambda_j + k - 1) U_{k-1,j} + U_{k-1,j-1};
    V by the finite sum V_{k,j} = sum_m A_{j,k-j-m} sigma_{k-1,m} over the
    elementary symmetric polynomials sigma of Lambda_0..Lambda_{k-1}.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    nv = n
    atab = build_a_table(n, n)

    sigma = {}
    for m in range(n + 2):
        sigma[(-1, m)] = IntPoly.const(nv, 1 if m == 0 else 0)
    for k in range(n):  # only Lambda_0..Lambda_{d} exist, d = n - 1
        for m in range(n + 2):
            if m == 0:
                sigma[(k, 0)] = IntPoly.const(nv, 1)
                continue
            prev = sigma.get((k - 1, m), IntPoly(nv))
            prevm1 = sigma.get((k - 1, m - 1), IntPoly(nv))
            sigma[(k, m)] = IntPoly.var(nv, k) * prevm1 + prev

    u = {}
    for k in range(n + 1):
        for j in range(k + 1):
            if k == 0:
                u[(0, 0)] = IntPoly.const(nv, 1)
                continue
            upper = u.get((k - 1, j), IntPoly(nv)) if j <= k - 1 else IntPoly(nv)
            diag = u.get((k - 1, j - 1), IntPoly(nv)) if j >= 1 else IntPoly(nv)
            if upper.is_zero():
                u[(k, j)] = diag
            else:
                coeff = IntPoly.var(nv, j) + IntPoly.const(nv, k - 1)
                u[(k, j)] = coeff.scale(-1) * upper + diag

    v = {}
    for k in range(n + 1):
        for j in range(k + 1):
            tot = IntPoly(nv)
            for m in range(k - j + 1):
                a = atab.a(j, k - j - m)
                if a:
                    tot = tot + sigma[(k - 1, m)].scale(a)
            v[(k, j)] = tot

    u_num = v_num = None
    if si is not None:
        if si.rank != n:
            raise ValueError("index rank mismatch")
        args = lambda_arguments(si)
        u_num = tuple(
            tuple(u[(k, j)].eval(args) if j <= k else 0j for j in range(n + 1))
            for k in range(n + 1)
        )
        v_num = tuple(
            tuple(v[(k, j)].eval(args) if j <= k else 0j for j in range(n + 1))
            for k in range(n + 1)
        )
    return UVTables(n, u, v, u_num, v_num)


# ---------------------------------------------------------------------------
# differential equation coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BesselEqCoeffs:
    """Coefficients V_{n,j}(lambda) of
    sum_j V_{n,j} x^j w^(j) + (V_{n,0} - sign (i n)^n x^n) w = 0."""

    n: int
    v: tuple  # V_{n,j}, j = 0..n
    sigma: tuple  # elementary symmetric in lambda, degree 0..n

    def indicial_residual(self, si: SpectralIndex, l: int) -> complex:
        """sum_j V_{n,j} [-n lambda_l]_j; zero for every l (1-based)."""
        root = -self.n * si.lam[l - 1]
        return sum(self.v[j] * falling(root, j) for j in range(self.n + 1))


def elementary_symmetric(values) -> list:
    # coefficient list of prod_v (1 + v t); entry m is sigma_m
    coeffs = [1.0 + 0.0j]
    for v in values:
        nxt = [0j] * (len(coeffs) + 1)
        nxt[0] = coeffs[0]
        for i in range(1, len(coeffs)):
            nxt[i] = coeffs[i] + v * coeffs[i - 1]
        nxt[len(coeffs)] = v * coeffs[-1]
        coeffs = nxt
    return coeffs


def bessel_eq_coeffs(n: int, si: SpectralIndex) -> BesselEqCoeffs:
    """V_{n,j}(lambda) = sum_m A_{j,d-j-m+1} n^m sigma_m(lambda), d = n-1."""
    if si.rank != n:
        raise ValueError("index rank mismatch")
    atab = build_a_table(n, n)
    sig = elementary_symmetric(si.lam)
    d = n - 1
    v = []
    for j in range(n + 1):
        tot = 0j
        for m in range(d - j + 2):
            a = atab.a(j, d - j - m + 1)
            if a:
                tot += a * (float(n) ** m) * sig[m]
        v.append(tot)
    return BesselEqCoeffs(n, tuple(v), tuple(sig))


# ---------------------------------------------------------------------------
# asymptotic expansion coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BTable:
    n: int
    xi: RootOfUnity
    coeffs: tuple  # B_m, m = 0..m_terms


def _w_table(n: int, eq: BesselEqCoeffs, xi: RootOfUnity) -> dict:
    inxi = 1j * n * xi.value
    w = {}
    for j in range(n + 1):
        for k in range(n - j + 1):
            if (j, k) == (0, 0):
                # (i n xi)^n - sign (i n)^n with xi^n = sign: identically 0
                w[(0, 0)] = 0j
                continue
            tot = 0j
            for r in range(k + 1):
                tot += (
                    math.factorial(n - r)
                    / math.factorial(k - r)
                    * falling(complex(-(n - 1) / 2.0), k - r)
                    * eq.v[n - r]
                )
            w[(j, k)] = (
                inxi ** (n - j - k)
                / (math.factorial(j) * math.factorial(n - j - k))
                * tot
            )
    return w


def build_b_table(
    n: int, si: SpectralIndex, xi: RootOfUnity, m_terms: int
) -> BTable:
    """Expansion coefficients B_m(lambda; xi), B_0 = 1.

    Substituting w = e^{i n xi z} z^{-(n-1)/2} sum B_m z^{-m} into the
    differential equation and collecting powers of 1/z gives

      (m-1) W_{1,0} B_{m-1} = sum_{k=2}^{min(n,m)} W_{0,k} B_{m-k}
        + sum_{j>=1, 2<=j+k<=min(n,m)} W_{j,k} [j+k-m]_j B_{m-j-k},

    with W_{1,0} = n (i n xi)^{n-1}.  The sums run in mpmath at B_DPS digits.
    """
    if si.rank != n:
        raise ValueError("index rank mismatch")
    if xi.order != 2 * n:
        raise ValueError("xi must be a 2n-th root of unity")
    if not 0 <= m_terms <= B_TERMS_CAP:
        raise ValueError(f"m_terms must lie in [0, {B_TERMS_CAP}], got {m_terms}")
    eq = bessel_eq_coeffs(n, si)
    w = _w_table(n, eq, xi)

    scale = float(n) ** n
    if abs(w.get((0, 1), 0j)) > 1e-9 * scale:
        raise AssertionError("W_{0,1} must vanish; equation coefficients corrupt")
    w10 = w[(1, 0)]
    expected_w10 = n * (1j * n * xi.value) ** (n - 1)
    if abs(w10 - expected_w10) > 1e-9 * abs(expected_w10):
        raise AssertionError("W_{1,0} mismatch")

    # the factor [j+k-m]_j of W_{j,k} B_{m-j-k} is [-i]_j at i = m-j-k, so
    # each B_i is scaled once for every j (rows[i][j]); the W are exact, as
    # are fdot's products, so a step rounds in the rows, fdot's sum and the
    # division
    with mp.workdps(B_DPS):
        wm = {jk: mp.mpc(val) for jk, val in w.items() if sum(jk) >= 2}
        w10 = mp.mpc(w10)
        bs = [mp.mpc(1)]
        rows = []
        for m in range(2, m_terms + 2):
            b = bs[m - 2]
            rows.append([b] + [falling(2 - m, j) * b for j in range(1, n + 1)])
            pairs = [(wjk, rows[m - j - k][j]) for (j, k), wjk in wm.items() if j + k <= m]
            bs.append(mp.fdot(pairs) / ((m - 1) * w10))
    return BTable(n, xi, tuple(complex(b) for b in bs))


# ---------------------------------------------------------------------------
# the rank-two cross-check identity from the stationary-phase coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    m_max: int
    results: tuple  # per m: (ok, first_mismatch or None)

    @property
    def all_equal(self) -> bool:
        return all(ok for ok, _ in self.results)


def check_combinatorial_identity(m_max: int) -> IdentityReport:
    """Exact polynomial identity equating the two expressions for the
    rank-two expansion coefficients: for every m,

      (-1)^m (1/2 - nu)_m (1/2 + nu)_m / m!
        = (1 - nu)_{2m} / m!
          + sum_{r=1}^{2m} (-1)^r (2m+2r)! / (4^r (m+r)! r!)
            * sum_{a=0}^{2m-r} C(2m-a-1, r-1) (1 - nu)_a / a!.

    Both sides are expanded as one-variable IntPoly in nu with Fraction
    coefficients and compared coefficientwise; a failure reports the first
    differing one.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    nu = IntPoly.var(1, 0)

    def poch(shift: Fraction, sign: int, k: int) -> IntPoly:
        # (shift + sign nu)_k
        out = IntPoly.const(1, Fraction(1))
        for i in range(k):
            out = out * (IntPoly.const(1, shift + i) + nu.scale(sign))
        return out

    results = []
    for m in range(m_max + 1):
        lhs = (poch(Fraction(1, 2), -1, m) * poch(Fraction(1, 2), 1, m)).scale(
            Fraction((-1) ** m, math.factorial(m))
        )
        rhs = poch(Fraction(1), -1, 2 * m).scale(Fraction(1, math.factorial(m)))
        for r in range(1, 2 * m + 1):
            alpha = Fraction(
                (-1) ** r * math.factorial(2 * m + 2 * r),
                4**r * math.factorial(m + r) * math.factorial(r),
            )
            inner = IntPoly(1)
            for a in range(0, 2 * m - r + 1):
                binom = math.comb(2 * m - a - 1, r - 1) if 2 * m - a - 1 >= r - 1 else 0
                if binom:
                    term = poch(Fraction(1), -1, a)
                    inner = inner + term.scale(Fraction(binom, math.factorial(a)))
            rhs = rhs + inner.scale(alpha)

        diff = lhs - rhs
        mismatch = None
        if not diff.is_zero():
            p = min(diff.terms)
            mismatch = (p[0], Fraction(lhs.terms.get(p, 0)), Fraction(rhs.terms.get(p, 0)))
        results.append((mismatch is None, mismatch))
    return IdentityReport(m_max, tuple(results))
