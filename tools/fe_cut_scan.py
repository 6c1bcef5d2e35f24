#!/usr/bin/env python3
"""The functional-equation check's integrand past its upper x cut.

Usage:

    python3 tools/fe_cut_scan.py [checkout]

For each scanned case, a rank-n kernel index and a weight, it builds the
check's own grid (kernel._fe_grid, <checkout>/src imported; default: the
checkout holding this script) with the weight's transform_cut moved to a
far end U, takes Upsilon at the check's x nodes as the check does, and
prints the relative tail

    tail(u) = int_u^U |Upsilon(x)| x^{-1/2} dx / int^U |Upsilon(x)| x^{-1/2} dx

(both over the check's nodes, so from its lower cut) at the weight's own
cut and at 6.5, the cut of every weight before transform_cut, with the
kernel nodes of the check's own grid.  On Re s = 1/2,
|x^{s-1}| = x^{-1/2}, so the tail bounds the share of M Upsilon(s) that a
cut at u leaves out, at every s of the line.  U is 7.5, where the
integrand is at its rounding floor, and the cut plus 0.5 at rank 1, where
the integrand vanishes to double precision beyond; for these far grids
the scan lifts the panel budget to 10^5.  A case whose own grid overruns
the budget (rank 1 at width 1.5 and 2) prints the check's error.  The
weights are centred at mu = 0: Upsilon_mu(x) =
e^mu Upsilon_0(x e^mu), and the check's nodes move with mu, so the tail
does not depend on mu.  The sampled weights are gaussian-log bumps
sampled at spacing 0.005 in log|y|.  The scan takes about 40 s on a
2-core host, most of it the rank-2 width-2 case.
"""

from __future__ import annotations

import sys
from pathlib import Path
from unittest import mock

import numpy as np

# (rank, lambda, delta) of the scanned indices: rank 1 at the CLI's
# default index, the README's rank-2 index, criterion 11's rank-3 index,
# the rank-4 prototype index and two generic indices of ranks 5 and 6
INDICES = [
    (1, [0.0], (0,)),
    (2, [0.25j, -0.25j], (0, 0)),
    (3, [0.1 + 0.2j, -0.05 - 0.3j, -0.05 + 0.1j], (0, 1, 0)),
    (4, [0.375, 0.125, -0.125, -0.375], (0, 1, 0, 1)),
    (5, [0.3j, 0.1, -0.1, 0.2 - 0.1j, -0.2 - 0.2j], (0, 1, 0, 0, 1)),
    (6, [0.2, -0.2, 0.1j, -0.1j, 0.05, -0.05], (0, 0, 1, 0, 1, 0)),
]
WIDTHS = (0.5, 1.0, 1.5, 2.0)
SAMPLED = [(2, 1.0), (2, 2.0), (3, 1.0), (3, 2.0)]  # (rank, width) of the sampled bumps
OLD_CUT = 6.5
FAR = 7.5


def tails(kernel, ki, weight, far, cuts):
    """The relative tail at each u of cuts on the check's grid run to far."""
    with mock.patch.object(type(weight), "transform_cut", lambda self, rank: far), \
            mock.patch.object(kernel, "_MAX_PANELS", 100000):
        grid, ux, halfs, window = kernel._fe_grid(ki, weight)
    up = grid.values(np.exp(ux), weight, window)
    f = np.abs(up) * np.exp(ux / 2.0) * np.repeat(halfs, 15) * np.tile(kernel._GKW, len(halfs))
    u = ux + weight.mu
    return [f[u > c].sum() / f.sum() if c < far else None for c in cuts]


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    from besselhr import kernel
    from besselhr.core import SpectralIndex

    cases = []
    for n, lam, deltas in INDICES:
        ki = kernel.KernelIndex(SpectralIndex(lam), deltas)
        for width in WIDTHS:
            for eta in (0, 1):
                weight = kernel.WeightFunction(eta=eta, width=width)
                cases.append((ki, weight, f"gaussian-log w={width:g} eta={eta}"))
    u = np.arange(-16.0, 16.0 + 1e-9, 0.005)
    for n, width in SAMPLED:
        ki = kernel.KernelIndex(SpectralIndex(INDICES[n - 1][1]), INDICES[n - 1][2])
        sampled = kernel.SampledWeightFunction(u, kernel.WeightFunction(width=width).log_values(u))
        cases.append((ki, sampled, f"sampled w={width:g} eta=0"))

    print(f"{'n':>2} {'weight':<26} {'cut':>5} {'nodes':>7} {'tail@cut':>9} {'tail@6.5':>9}")
    for ki, weight, label in cases:
        n, cut = ki.rank, weight.transform_cut(ki.rank)
        try:
            nodes = len(kernel._fe_grid(ki, weight)[0].u)
        except ValueError as exc:  # the check's own grid overruns the panel budget
            print(f"{n:>2} {label:<26} {cut:>5.2f}  {exc}")
            continue
        at_cut, at_old = tails(kernel, ki, weight, cut + 0.5 if n == 1 else FAR, [cut, OLD_CUT])
        old = "-" if at_old is None else f"{at_old:.1e}"
        print(f"{n:>2} {label:<26} {cut:>5.2f} {nodes:>7} {at_cut:>9.1e} {old:>9}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
