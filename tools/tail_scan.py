#!/usr/bin/env python3
"""The double pass's reported errors against big-float references.

Usage:

    python3 tools/tail_scan.py [checkout] [--count C]

Two seeded scans of C draws each (300 by default), ranks 2-6 with
Re lambda in [-5, 5], Im lambda in [-1, 1] and x in [0.2, 3]:

- first_kind: default_rng(2026), l and the sign drawn; the reference is
  the 40-digit sum of the series (one reciprocal gamma per factor, the
  differences formed in mpmath), times x^(-n lambda_l)
- j_function's double pass (series._j_generic_double at tol 1e-10):
  default_rng(11), an index on which the double pass runs (no two
  components differ by an integer: _jet.cluster_order 1) and a random sign
  vector; the reference is series._j_generic_mp at 60 digits.  Half the
  draws (by the same generator) lie in the band near a non-generic index:
  one component moved to an integer offset of another plus 10^-k, k
  uniform in [4, 12], real or imaginary

For each it prints how many draws lie farther from the reference than
their reported error (tail_bound), and the largest ratio of distance to
error with its draw; for the double pass also the same of its band draws.
<checkout>/src is imported (default: the checkout holding this script).  A
run takes under ten seconds on a 2-core host.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath as mp
import numpy as np


def draw_index(rng):
    n = int(rng.integers(2, 7))
    return list(rng.uniform(-5, 5, n) + 1j * rng.uniform(-1, 1, n))


def first_kind_ref(x, sign, lam, l):
    """J_l(x; sign) of the index lam (a SpectralIndex's tuple) as a 40-digit
    sum, stopped after five terms below 10^-45 of the sum past the head."""
    n = len(lam)
    with mp.workdps(40):
        lam = [mp.mpc(v) for v in lam]
        d = [lk - lam[l - 1] for lk in lam]
        zf = sign * mp.mpc(1j) ** n * mp.mpf(x) ** n
        total, small, m = mp.mpc(0), 0, 0
        head = max(-v.real for v in d) + 2
        while small < 5:
            t = zf**m * mp.fprod(mp.rgamma(v + m + 1) for v in d)
            total += t
            small = small + 1 if m > head and abs(t) <= mp.mpf(10) ** -45 * abs(total) else 0
            m += 1
        return complex(total * mp.mpf(x) ** (-n * lam[l - 1]))


def scan_first_kind(count):
    from besselhr.core import SpectralIndex
    from besselhr.series import first_kind

    rng = np.random.default_rng(2026)
    out = []
    for _ in range(count):
        si = SpectralIndex(draw_index(rng))
        x = float(rng.uniform(0.2, 3))
        l = int(rng.integers(1, si.rank + 1))
        sign = int(rng.choice([1, -1]))
        got = first_kind(x, sign, si, l)
        ratio = abs(got.value - first_kind_ref(x, sign, si.lam, l)) / got.tail_bound
        out.append((ratio, f"first_kind({x!r}, {sign}, SpectralIndex({list(si.lam)}), {l})"))
    return out


def band_index(rng, lam):
    """lam with one component moved to an integer offset of another, plus
    10^-k (k uniform in [4, 12]) or i 10^-k."""
    l, k = rng.choice(len(lam), 2, replace=False)
    step = 10.0 ** -rng.uniform(4, 12) * (1j if rng.random() < 0.5 else 1)
    lam[l] = lam[k] + round((lam[l] - lam[k]).real) + step
    return lam


def scan_double_pass(count):
    from besselhr import _jet, series
    from besselhr.core import SignVector, SpectralIndex, SurfacePoint

    rng = np.random.default_rng(11)
    out, band = [], []
    while len(out) < count:
        lam = draw_index(rng)
        near = rng.random() < 0.5
        si = SpectralIndex(band_index(rng, lam) if near else lam)
        if _jet.cluster_order(si.lam) > 1:
            continue
        z = SurfacePoint.from_positive(float(rng.uniform(0.2, 3)))
        sv = SignVector(tuple(int(s) for s in rng.choice([1, -1], si.rank)))
        kind = ("signvec", sv)
        cs, mags, _ = series._coeffs_double(si.lam, kind)
        est = series._j_generic_double(z, sv.product_sign, si, 1e-10, cs, mags)[0]
        ref = complex(series._j_generic_mp(z, sv.product_sign, si, 60, kind)[0])
        label = f"j_function({z.modulus!r}, {sv}, SpectralIndex({list(si.lam)}))"
        out.append((abs(est.value - ref) / est.tail_bound, label))
        if near:
            band.append(out[-1])
    return out, band


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    p.add_argument("--count", type=int, default=300)
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    double, band = scan_double_pass(args.count)
    for name, ratios in (("first_kind", scan_first_kind(args.count)),
                         ("j_function double pass", double), ("of which band draws", band)):
        worst = max(ratios)
        over = sum(r > 1 for r, _ in ratios)
        print(f"{name}: {over} of {len(ratios)} draws over their reported error, "
              f"largest ratio {worst[0]:.3g} at {worst[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
