"""The package's invariants, each stated once.

Every entry has a name, the `besselhr verify` suite it belongs to, a
one-line title and a check with fixed inputs, seeds and tolerance.  A
check returns ``(ok, deviation, detail)``: whether the tolerance holds, the
figure the tolerance bounds (a residual or relative error; the runtime for
criterion 1, the worst difference/budget ratio for criterion 6 and the
decay rate for criterion 12) and a short printable account.

Entries with a number are the acceptance criteria 1-12 that
`tests/test_acceptance.py` runs; the others exist for `besselhr verify`
only and are run by the same test file.
"""

from __future__ import annotations

import cmath
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import mpmath as mp
import numpy as np

from .asympt import (
    INVERSE_THETA,
    h_bessel,
    in_validity_sector,
    j_varsigma_asymptotic,
    rotate_second_kind,
    second_kind,
)
from .coeffs import (
    build_a_table,
    build_b_table,
    build_uv_tables,
    check_combinatorial_identity,
    rising,
)
from .core import OutOfSectorError, RootOfUnity, SignVector, SpectralIndex, SurfacePoint
from .kernel import (
    KernelIndex,
    WeightFunction,
    bessel_kernel,
    functional_equation_check,
    mellin_inversion,
)
from .mellinbarnes import g_delta, mb_eval, mb_eval_est
from .series import j_function, ode_residual

CLI_SEED = 20240801  # the seed of the checks that only `besselhr verify` runs


@dataclass(frozen=True)
class Invariant:
    """One registry entry; check() -> (ok, deviation, detail)."""

    name: str
    suite: str
    title: str
    check: Callable[[], tuple]
    number: Optional[int] = None  # acceptance criterion, if it is one


REGISTRY: list[Invariant] = []


def _entry(name, suite, title, number=None):
    def register(check):
        REGISTRY.append(Invariant(name, suite, title, check, number))
        return check

    return register


def suites() -> list[str]:
    """The suite names, sorted."""
    return sorted({inv.suite for inv in REGISTRY})


def suite(name: str) -> list[Invariant]:
    """The entries of one suite in registry order; empty for an unknown name."""
    return [inv for inv in REGISTRY if inv.suite == name]


# ---------------------------------------------------------------------------
# acceptance criteria 1-12
# ---------------------------------------------------------------------------

@_entry("coefficient-exactness", "coeffs",
        "A-table recurrence == closed form (j,m <= 20)", 1)
def _coefficient_exactness():
    t0 = time.time()
    tab = build_a_table(20, 20)
    ok = tab.verify_closed_form()
    dt = time.time() - t0
    return ok and dt < 1.0, dt, f"runtime {dt:.2f}s"


@_entry("orthogonality", "coeffs",
        "U,V orthogonality exact (n<=6) and numeric < 1e-10 (n=8, 100 draws)", 2)
def _orthogonality():
    exact_ok = all(build_uv_tables(n).orthogonality_exact() for n in range(1, 7))
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        lam = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        uv = build_uv_tables(8, SpectralIndex(lam))
        worst = max(worst, uv.orthogonality_residual())
    return exact_ok and worst < 1e-10, worst, f"max numeric residual {worst:.2e}"


@_entry("rank1-oracle", "rank1",
        "|mb(x;+-,0) - e^{+-ix}| < 1e-10 on 50 points in [0.1,50]", 3)
def _rank1_oracle():
    si = SpectralIndex([0.0])
    worst = 0.0
    for x in np.linspace(0.1, 50.0, 50):
        for s, sgn in (("+", 1), ("-", -1)):
            v = mb_eval(float(x), SignVector(s), si, 1e-10)
            worst = max(worst, abs(v - cmath.exp(sgn * 1j * x)))
    return worst < 1e-10, worst, f"max abs dev {worst:.2e}"


@_entry("rank2-closed-forms", "rank2",
        "rank-2: all four sign vectors vs classical-series refs < 1e-9", 4)
def _rank2_closed_forms():
    worst = 0.0
    for lam in (0.3, 0.5j, 0.2 + 0.1j):
        si = SpectralIndex([lam, -lam])
        for x in (0.5, 2.0, 7.0, 20.0):
            with mp.workdps(40):
                h1, h2, k = (
                    complex(f(2 * lam, 2 * x)) for f in (mp.hankel1, mp.hankel2, mp.besselk)
                )
            forms = {
                "++": 1j * math.pi * cmath.exp(1j * math.pi * lam) * h1,
                "--": -1j * math.pi * cmath.exp(-1j * math.pi * lam) * h2,
                "+-": 2 * cmath.exp(-1j * math.pi * lam) * k,
                "-+": 2 * cmath.exp(1j * math.pi * lam) * k,
            }
            for s, want in forms.items():
                got = j_function(x, SignVector(s), si, 1e-11).value
                worst = max(worst, abs(got - want) / abs(want))
    return worst < 1e-9, worst, f"max rel dev {worst:.2e}"


@_entry("prototype-index", "special",
        "prototype index closed form, n in {3,4,5}, every sign vector, x in [1,10]", 5)
def _prototype_index():
    worst = 0.0
    for n in (3, 4, 5):
        si = SpectralIndex([(n + 1 - 2 * l) / (2.0 * n) for l in range(1, n + 1)])
        for signs in itertools.product("+-", repeat=n):
            sv = SignVector("".join(signs))
            xi = 1j * cmath.exp(1j * math.pi * (sv.n_minus - sv.n_plus) / (2 * n))
            c = cmath.exp(
                2j * math.pi
                * (-(n - 1) / 8.0 + sum(l - 1 for l in sv.plus_positions) / (2.0 * n))
            )
            for x in (1.0, 3.0, 10.0):
                want = (
                    c / math.sqrt(n)
                    * (2 * math.pi / x) ** ((n - 1) / 2.0)
                    * cmath.exp(1j * n * xi * x)
                )
                got = j_function(x, sv, si, 1e-9).value
                worst = max(worst, abs(got - want) / abs(want))
    return worst < 1e-8, worst, f"max rel dev {worst:.2e}"


@_entry("three-way-agreement", "crossmethod",
        "three-way series/mb/asympt pairwise < max(1e-7, 2 err), n=3, x in [20,100]", 6)
def _three_way_agreement():
    si = SpectralIndex([0.3, -0.1, -0.2])
    worst_ratio = 0.0
    for x in (20.0, 35.0, 60.0, 100.0):
        for s in ("+++", "++-"):
            sv = SignVector(s)
            rs = j_function(x, sv, si, 1e-9)
            ra = j_varsigma_asymptotic(x, sv, si)
            vm, em = mb_eval_est(x, sv, si, 1e-10)
            vals = {
                "series": (rs.value, rs.tail_bound),
                "asympt": (ra.value, ra.error_estimate),
                "mb": (vm, em),
            }
            for (na, (a, ea)), (nb, (b, eb)) in itertools.combinations(
                vals.items(), 2
            ):
                scale = max(abs(a), abs(b))
                budget = max(1e-7 * scale, 2.0 * (ea + eb))
                worst_ratio = max(worst_ratio, abs(a - b) / budget)
    return worst_ratio < 1.0, worst_ratio, f"worst diff/budget {worst_ratio:.3f}"


@_entry("ode-residual", "ode",
        "ODE residual (relative to term sum) < 1e-8, n <= 5, x <= 10", 7)
def _ode_residual():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (2, 3, 4, 5):
        lam = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        si = SpectralIndex(lam)
        for signs in ([1] * n, [1] * (n - 1) + [-1]):
            sv = SignVector(signs)
            for x in (1.0, 5.0, 10.0):
                worst = max(worst, ode_residual(x, sv, si, 1e-10))
    return worst < 1e-8, worst, f"max residual {worst:.2e}"


@_entry("identity54", "identity54",
        "rank-two coefficient identity exact for m <= 8", 8)
def _identity54():
    rep = check_combinatorial_identity(8)
    return rep.all_equal, 0.0, ""


@_entry("bridge-rotation-laws", "rotation",
        "B rotation law (n<=5, m<=15) and rank-2 closed form < 1e-12", 9)
def _bridge_rotation_laws():
    rng = np.random.default_rng(9)
    worst = 0.0
    for n in range(2, 6):
        lam = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
        si = SpectralIndex(lam)
        base = {
            1: build_b_table(n, si, RootOfUnity(2 * n, 0), 15),
            -1: build_b_table(n, si, RootOfUnity(2 * n, n), 15),
        }
        for idx in range(1, 2 * n):
            xi = RootOfUnity(2 * n, idx)
            tab = build_b_table(n, si, xi, 15)
            sgn = xi.equation_sign()
            rot = xi if sgn == 1 else RootOfUnity(2 * n, xi.index + n)
            for m in range(16):
                want = rot.power(-m) * base[sgn].coeffs[m]
                worst = max(worst, abs(tab.coeffs[m] - want) / max(1.0, abs(want)))
    # rank-two closed form
    worst2 = 0.0
    for _ in range(30):
        lam = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        si = SpectralIndex([lam, -lam])
        for idx in range(4):
            xi = RootOfUnity(4, idx)
            tab = build_b_table(2, si, xi, 15)
            for m in range(16):
                want = (
                    rising(0.5 - 2 * lam, m) * rising(0.5 + 2 * lam, m)
                    / ((4j * xi.value) ** m * math.factorial(m))
                )
                worst2 = max(worst2, abs(tab.coeffs[m] - want) / max(1.0, abs(want)))
    return (worst < 1e-12 and worst2 < 1e-12, max(worst, worst2),
            f"rotation {worst:.2e}, closed form {worst2:.2e}")


@_entry("k-decay", "kdecay",
        "K-decay slope within 2% of -3 sin(pi/3) over x in [30,60]", 10)
def _k_decay():
    si = SpectralIndex([0.2, -0.05, -0.15])
    sv = SignVector("++-")
    xs = np.linspace(30.0, 60.0, 13)
    ys = [
        math.log(abs(j_varsigma_asymptotic(float(x), sv, si).value)) + math.log(x)
        for x in xs
    ]
    slope = float(np.polyfit(xs, ys, 1)[0])
    want = -3.0 * math.sin(math.pi / 3.0)
    rel = abs(slope - want) / abs(want)
    return rel < 0.02, rel, f"slope {slope:.6f} vs {want:.6f} (rel {rel:.2e})"


@_entry("functional-equation", "fe",
        "Hankel functional equation < 1e-6 at Re s = 1/2, n = 2 and 3", 11)
def _functional_equation():
    w = WeightFunction(eta=0)
    s_pts = [0.5, 0.5 + 1j, 0.5 + 2j]
    rep2 = functional_equation_check(
        KernelIndex(SpectralIndex([0.25j, -0.25j]), (0, 0)), w, s_pts, rel_tol=1e-6
    )
    rep3 = functional_equation_check(
        KernelIndex(SpectralIndex([0.1 + 0.2j, -0.05 - 0.3j, -0.05 + 0.1j]), (0, 1, 0)),
        w,
        s_pts,
        rel_tol=1e-6,
    )
    return (rep2.passed and rep3.passed,
            max(rep2.max_rel_error, rep3.max_rel_error),
            f"max rel n2 {rep2.max_rel_error:.2e}, n3 {rep3.max_rel_error:.2e}")


@_entry("kernel-parity", "parity",
        "even-rank kernel parity decay rate >= 0.9 * 4 pi on x in [3,6]", 12)
def _kernel_parity():
    ki = KernelIndex(SpectralIndex([0.3j, -0.3j]), (0, 0))
    xs = np.linspace(3.0, 6.0, 7)
    logs = [math.log(abs(bessel_kernel(-float(x) ** 2, ki).value)) for x in xs]
    rate = -float(np.polyfit(xs, logs, 1)[0])
    return (rate >= 0.9 * 4.0 * math.pi, rate,
            f"rate {rate:.3f} vs {0.9*4*math.pi:.3f}")


# ---------------------------------------------------------------------------
# checks that only `besselhr verify` runs
# ---------------------------------------------------------------------------

@_entry("bridge", "bridge",
        "superasymptotic uniform sign vectors == H-Bessel expansions < 1e-13, n = 2..4")
def _bridge():
    rng = np.random.default_rng(CLI_SEED)
    worst = 0.0
    for n in range(2, 5):
        lam = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        si = SpectralIndex(lam)
        x = 8.0 * si.magnitude_bound**2
        for sgn, s in ((1, "+"), (-1, "-")):
            a = j_varsigma_asymptotic(x, SignVector([sgn] * n), si)
            b = h_bessel(x, si, s)
            worst = max(worst, abs(a.value - b.value) / abs(b.value))
    return worst < 1e-13, worst, f"max rel dev {worst:.2e}"


@_entry("rotation-two-path", "rotation",
        "second kind by rotation == direct expansion < 1e-10, n = 2..4")
def _rotation_two_path():
    rng = np.random.default_rng(CLI_SEED)
    worst = 0.0
    for n in range(2, 5):
        lam = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        si = SpectralIndex(lam)
        x = 10.0 * si.magnitude_bound**2
        z = SurfacePoint.from_positive(x)
        for idx in range(2 * n):
            xi = RootOfUnity(2 * n, idx)
            if not in_validity_sector(z, xi, n, INVERSE_THETA):
                continue  # positive reals sit outside this root's sector
            try:
                r = rotate_second_kind(x, si, xi, INVERSE_THETA)
            except OutOfSectorError:
                continue
            d = second_kind(z, si, xi, INVERSE_THETA)
            worst = max(worst, abs(r.value - d.value) / abs(d.value))
    return worst < 1e-10, worst, f"max rel dev {worst:.2e}"


@_entry("gamma-factor-two-forms", "mellin-id",
        "G_delta ratio form == trig form < 1e-12, 40 points, delta = 0, 1")
def _gamma_factor_two_forms():
    rng = np.random.default_rng(CLI_SEED)
    worst = 0.0
    for _ in range(40):
        s = complex(rng.uniform(-2, 3), rng.uniform(-8, 8))
        for d in (0, 1):
            a = g_delta(s, d, "ratio")
            b = g_delta(s, d, "trig")
            worst = max(worst, abs(a - b) / max(abs(a), 1e-280))
    return worst < 1e-12, worst, f"max rel dev {worst:.2e}"


@_entry("mellin-inversion-roundtrip", "mellin-id",
        "Mellin inversion of the gaussian-log weight < 1e-7 at x = 0.5, -0.8, 2")
def _mellin_inversion_roundtrip():
    w = WeightFunction(eta=0)
    worst = max(
        abs(mellin_inversion(w, x) - w(x)) for x in (0.5, -0.8, 2.0)
    )
    return worst < 1e-7, worst, f"max abs dev {worst:.2e}"
