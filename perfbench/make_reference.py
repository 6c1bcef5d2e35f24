#!/usr/bin/env python3
"""Regenerate reference_transform.json: rank-two Hankel transform values by
mpmath quadrature over the classical Bessel kernel.

The hankel-fe workload checks a few values of the README's
`besselhr transform --n 2 --lambda 0.25i,-0.25i --delta 0,0
--weight gaussian-log:eta=0 --x-grid log:0.5:4:20` output against this file.
The quadrature takes minutes in pure-Python mpmath, so it is stored rather
than repeated in every run; nothing in it calls besselhr.

For x > 0 and the even weight v(y) = exp(-(ln|y|)^2),

    Upsilon(x) = int_R v(y) J(xy) dy
               = int du  e^{u - u^2} [J(x e^u) + J(-x e^u)],

with the rank-two kernel at lambda = (mu, -mu), delta = (0, 0), w > 0:

    J(w)  = i pi e^{i pi mu} H1_{2mu}(4 pi sqrt w) - i pi e^{-i pi mu} H2_{2mu}(4 pi sqrt w),
    J(-w) = 4 cos(pi mu) K_{2mu}(4 pi sqrt w).

Usage: python3 perfbench/make_reference.py   (about six minutes)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

MU = 0.25j
GRID = (0.5, 4.0, 20)  # log:0.5:4:20, as numpy.geomspace builds it
CHECKED = (0, 9, 19)  # indices into the grid
OUT = Path(__file__).resolve().parent / "reference_transform.json"


def grid_points():
    lo, hi, count = GRID
    # numpy.geomspace(lo, hi, count) in the same float operations
    import numpy as np

    return [float(v) for v in np.geomspace(lo, hi, count)]


def kernel_pair(w):
    arg = 4 * mp.pi * mp.sqrt(w)
    nu = 2 * MU
    plus = 1j * mp.pi * mp.expjpi(MU) * mp.hankel1(nu, arg) - 1j * mp.pi * mp.expjpi(
        -MU
    ) * mp.hankel2(nu, arg)
    minus = 4 * mp.cospi(MU) * mp.besselk(nu, arg)
    return plus + minus


def transform(x):
    x = mp.mpf(x)

    def f(u):
        return mp.exp(u - u * u) * kernel_pair(x * mp.exp(u))

    # panel edges: one per pi of kernel phase 4 pi sqrt(x e^u), at most 0.5 wide
    edges = [mp.mpf(-7)]
    while edges[-1] < 6.5:
        u = edges[-1]
        rate = 2 * mp.pi * mp.sqrt(x * mp.exp(u))  # d(phase)/du
        edges.append(min(mp.mpf(6.5), u + min(mp.mpf(0.5), mp.pi / rate)))
    val, err = mp.quad(f, edges, error=True)
    return complex(val), float(err)


def main() -> int:
    xs = grid_points()
    out = {"mu": [MU.real, MU.imag], "grid": list(GRID), "points": []}
    with mp.workdps(20):
        for i in CHECKED:
            val, err = transform(xs[i])
            out["points"].append(
                {"index": i, "x": xs[i], "re": val.real, "im": val.imag, "quad_err": err}
            )
            print(f"x={xs[i]!r}: {val!r} +- {err:.1e}", file=sys.stderr)
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
