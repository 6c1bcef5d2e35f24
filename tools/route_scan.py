#!/usr/bin/env python3
"""The kernel's asymptotic band with its start lifted to 6, against the series.

Usage:

    python3 tools/route_scan.py [checkout] [--seed S] [--count C]

With asympt.sweep_start and kernel.sweep_start patched to return
SWEEP_MIN = 6 (the start without its (max|lambda|+1)^2 term), it runs
kernel._asymptotic_zone at tol 1e-9 at each scanned point z = 2 pi |x|^(1/n)
of both kernel signs and, where the rule keeps the expansion's value,
prints its gap to bessel_kernel(x, ki, "series", 1e-15) over its reported
error.  A ratio above 1 is a kept value whose error under-covers; the
rule as shipped keeps none below (max|lambda|+1)^2.  The scanned points are

- the rank-6 index INDEX, delta 011000, at z = 66.3527 and 121 (its
  (max|lambda|+1)^2), once with B tables at coeffs.B_DPS and once at 40
  digits, which tells the truncation estimate from the table;
- C seeded complex rank-6 indices scaled to max|lambda| = 10 with random
  delta, at z = 40, 66.3527 and 100; the five largest ratios are printed.

<checkout>/src is imported (default: the checkout holding this script).
The run takes about a minute on a 2-core host at C = 6.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

INDEX = (-0.2844803634690548, 10.0, -7.481065780103334, -4.926496259737213,
         -2.115421945459112, 4.80746434876871)
TOL = 1e-9


def ratios(ki, zs):
    """(gap / error, z, sign) at each point of zs whose expansion is kept."""
    from besselhr import kernel

    out = []
    for z in zs:
        x = (z / (2 * math.pi)) ** ki.rank
        for sign in (1, -1):
            _, (v, e, _, _), keep, _ = kernel._asymptotic_zone(np.array([z]), sign, ki, TOL)
            if keep[0]:
                ref = kernel.bessel_kernel(sign * x, ki, "series", 1e-15)
                out.append((abs(v[0] - ref.value) / e[0], z, sign))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    p.add_argument("--seed", type=int, default=16)
    p.add_argument("--count", type=int, default=6)
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    from besselhr import asympt, coeffs, kernel, series
    from besselhr.core import SpectralIndex
    from besselhr.kernel import KernelIndex

    asympt.sweep_start = kernel.sweep_start = lambda si: asympt.SWEEP_MIN
    ki = KernelIndex(SpectralIndex(INDEX), (0, 1, 1, 0, 0, 0))
    for dps in (coeffs.B_DPS, 40):
        coeffs.B_DPS = dps
        series._stored.clear()
        series._stored.held = 0
        for ratio, z, sign in ratios(ki, (66.3527, 121.0)):
            print(f"recorded index, B at {dps} digits: z = {z:g}, sign {sign:+d}: gap/error {ratio:.3f}")
    rng = np.random.default_rng(args.seed)
    found = []
    for _ in range(args.count):
        lam = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        lam = lam - lam.mean()
        lam = 10 * lam / np.abs(lam).max()
        deltas = tuple(int(d) for d in rng.integers(0, 2, 6))
        ki = KernelIndex(SpectralIndex(lam), deltas)
        found += [(r, z, s, deltas) for r, z, s in ratios(ki, (40.0, 66.3527, 100.0))]
    found.sort(reverse=True)
    print(f"{len(found)} kept points on {args.count} complex indices (seed {args.seed})")
    for ratio, z, sign, deltas in found[:5]:
        print(f"  z = {z:g}, sign {sign:+d}, delta {''.join(map(str, deltas))}: gap/error {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
