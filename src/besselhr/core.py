"""Domain types and gamma kernels shared by every evaluator.

Points of the universal cover of C \\ {0} are stored as
(log modulus, argument) with the argument a designated real that is never
reduced mod 2 pi, so that the power map z^a = exp(a log z) and rotations by
roots of unity are exact in this representation.  The conventions are
1 = e^0, -1 = e^{i pi}, +-i = e^{+-i pi/2}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _backend

TWO_PI = 2.0 * math.pi


class PoleError(ValueError):
    """Evaluation requested at a pole (non-positive integer of gamma)."""


class OverflowEvalError(ArithmeticError):
    """Partial sums exceed the representable range; rescale the argument."""


class OutOfSectorError(ValueError):
    """Argument lies outside the validity sector of an asymptotic expansion."""


class ValidityFloorError(ValueError):
    """Modulus below the asymptotic validity floor; use series or quadrature."""


class ToleranceNotMetError(RuntimeError):
    """An evaluator could not certify the requested tolerance."""

    def __init__(self, message, value=None, achieved=None):
        super().__init__(message)
        self.value = value
        self.achieved = achieved


def check_tolerance(tol, name: str = "tol") -> None:
    """ValueError naming the argument unless 0 < tol < inf."""
    if not 0 < tol < math.inf:
        raise ValueError(f"{name} must be a positive number")


def e2pi(x) -> complex:
    """exp(2 pi i x), the additive character written e(x) in analytic usage."""
    return cmath.exp(2j * math.pi * x)


def _as_complex_tuple(values: Iterable) -> tuple:
    return tuple(complex(v) for v in values)


@dataclass(frozen=True)
class SpectralIndex:
    """n complex spectral parameters, renormalized to sum zero."""

    lam: tuple

    def __init__(self, values: Sequence):
        vals = _as_complex_tuple(values)
        if not vals:
            raise ValueError("need at least one component")
        mean = sum(vals) / len(vals)
        vals = tuple(v - mean for v in vals)
        for v in vals:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("components must be finite")
        object.__setattr__(self, "lam", vals)

    @property
    def rank(self) -> int:
        return len(self.lam)

    @property
    def magnitude_bound(self) -> float:
        """max |lambda_l| + 1 (enters asymptotic validity floors)."""
        return max(abs(v) for v in self.lam) + 1.0


@dataclass(frozen=True)
class NuIndex:
    """The d = n-1 difference parameters nu_l = lambda_l - lambda_n."""

    nu: tuple

    def __init__(self, values: Sequence):
        object.__setattr__(self, "nu", _as_complex_tuple(values))


def lambda_of_nu(nu: NuIndex) -> SpectralIndex:
    """Re-parametrize nu to the sum-zero spectral index."""
    vals = list(nu.nu) + [0.0 + 0.0j]
    return SpectralIndex(vals)


def nu_of_lambda(si: SpectralIndex) -> NuIndex:
    last = si.lam[-1]
    return NuIndex([v - last for v in si.lam[:-1]])


def genericity_gap(si: SpectralIndex) -> float:
    """Min over pairs l != k of the distance from lambda_l - lambda_k to Z.

    Zero iff two components differ by an integer (non-generic index), in
    which case the first-kind solutions degenerate.
    """
    lam = si.lam
    n = len(lam)
    gap = math.inf  # rank one has no pairs and is always generic
    for l in range(n):
        for k in range(l + 1, n):
            d = lam[l] - lam[k]
            dist = math.hypot(d.real - round(d.real), d.imag)
            if dist < gap:
                gap = dist
    return gap


@dataclass(frozen=True)
class SignVector:
    """A vector of n signs; determines the Bessel function up to a constant."""

    signs: tuple

    def __init__(self, signs: Sequence):
        vals = []
        for s in signs:
            if isinstance(s, str):
                if s not in ("+", "-"):
                    raise ValueError("signs must be +1/-1 or '+'/'-'")
                vals.append(1 if s == "+" else -1)
            else:
                si = int(s)
                if si not in (1, -1):
                    raise ValueError("signs must be +1/-1 or '+'/'-'")
                vals.append(si)
        if not vals:
            raise ValueError("need at least one sign")
        object.__setattr__(self, "signs", tuple(vals))

    @classmethod
    def from_string(cls, text: str) -> "SignVector":
        return cls(list(text))

    @property
    def n(self) -> int:
        return len(self.signs)

    @property
    def n_plus(self) -> int:
        return sum(1 for s in self.signs if s > 0)

    @property
    def n_minus(self) -> int:
        return sum(1 for s in self.signs if s < 0)

    @property
    def product_sign(self) -> int:
        """(-1)^{n_minus}: which of the two equations this function solves."""
        return -1 if self.n_minus % 2 else 1

    @property
    def plus_positions(self) -> tuple:
        return tuple(i + 1 for i, s in enumerate(self.signs) if s > 0)

    @property
    def minus_positions(self) -> tuple:
        return tuple(i + 1 for i, s in enumerate(self.signs) if s < 0)

    def xi(self) -> "RootOfUnity":
        """Distinguished 2n-th root: argument n_minus pi / n, never reduced."""
        return RootOfUnity(order=2 * self.n, index=self.n_minus)

    def __str__(self):
        return "".join("+" if s > 0 else "-" for s in self.signs)


@dataclass(frozen=True)
class RootOfUnity:
    """Root of unity with a designated (unreduced) argument 2 pi k / order."""

    order: int
    index: int

    def __post_init__(self):
        if self.order <= 0:
            raise ValueError("order must be positive")

    @property
    def argument(self) -> float:
        return TWO_PI * self.index / self.order

    @property
    def value(self) -> complex:
        # quarter turns come out exact
        t = 2.0 * self.index / self.order  # in units of pi
        q = t % 2.0
        if q == 0.0:
            return 1.0 + 0.0j
        if q == 0.5:
            return 1j
        if q == 1.0:
            return -1.0 + 0.0j
        if q == 1.5:
            return -1j
        return complex(
            _backend.cospi(complex(t, 0.0)).real, _backend.sinpi(complex(t, 0.0)).real
        )

    def power(self, a) -> complex:
        """xi^a with the designated argument, a may be complex."""
        return cmath.exp(1j * complex(a) * self.argument)

    def equation_sign(self) -> int:
        """xi^n for order 2n: +1 or -1; decides which equation xi serves."""
        if self.order % 2 != 0:
            raise ValueError("equation sign defined for even order only")
        return -1 if self.index % 2 else 1


@dataclass(frozen=True)
class SurfacePoint:
    """Point of the universal cover, stored as (log modulus, argument)."""

    log_modulus: float
    argument: float

    @classmethod
    def from_positive(cls, x) -> "SurfacePoint":
        x = float(x)
        if x <= 0.0:
            raise ValueError("modulus must be positive")
        return cls(math.log(x), 0.0)

    @classmethod
    def from_polar(cls, modulus, argument) -> "SurfacePoint":
        modulus = float(modulus)
        if modulus <= 0.0:
            raise ValueError("modulus must be positive")
        return cls(math.log(modulus), float(argument))

    @property
    def modulus(self) -> float:
        return math.exp(self.log_modulus)

    def log(self) -> complex:
        return complex(self.log_modulus, self.argument)

    def to_complex(self) -> complex:
        return cmath.exp(self.log())

    def power(self, a) -> complex:
        """z^a = exp(a log z); exact in this representation."""
        return cmath.exp(complex(a) * self.log())

    def rotated(self, dphi: float) -> "SurfacePoint":
        return SurfacePoint(self.log_modulus, self.argument + dphi)

    def times_root(self, xi: RootOfUnity) -> "SurfacePoint":
        return self.rotated(xi.argument)


@dataclass(frozen=True)
class EvalResult:
    """Evaluation with an a-posteriori absolute error estimate."""

    value: complex
    error: float
    method: str  # series | asymptotic | mellin-barnes | exact (a kernel side that vanishes identically)
    cancellation: float = 1.0


def recip_gamma(s) -> complex:
    """Entire 1/Gamma(s) = e^(-a) / b from _backend._gamma_np's pair (a, b)
    at one point; exact zeros at s = 0, -1, -2, ..., which skip the pass."""
    s = complex(s)
    if _backend.is_nonpositive_int(s):
        return 0j
    a, b = _backend._gamma_np([s])
    return complex((np.exp(-a) / b)[0])


def log_gamma(s) -> complex:
    """log Gamma(s) = a + log b from _backend._gamma_np's pair (a, b): the
    principal branch for Re s >= 1/2, reflection elsewhere.

    The imaginary part on the left half plane may differ from the
    continuous branch by a multiple of 2 pi i; exp(log_gamma) is accurate.
    """
    s = complex(s)
    if _backend.is_nonpositive_int(s):
        raise PoleError(f"gamma pole at {s}")
    a, b = _backend._gamma_np([s])
    return complex(a[0]) + cmath.log(b[0])


def gamma(s) -> complex:
    """Gamma(s) = exp(log_gamma(s)); PoleError at s = 0, -1, -2, ..."""
    return cmath.exp(log_gamma(s))


def sinpi(s) -> complex:
    return complex(_backend.sinpi(complex(s)))
