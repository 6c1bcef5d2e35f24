#!/usr/bin/env python3
"""Digest of every benchmark output and of the README commands, one line each.

Usage:

    python3 tools/output_digest.py <checkout> > digest.txt

Runs, in one process and once each, every item of the three perfbench
workloads of <checkout> (its src/ and perfbench/ are imported; nothing
under perfbench/ is changed), kernel.kernel_sweep on the fixed node sets
of SWEEP_CASES, and the README's eval, coeffs, kernel, transform
--fe-report and oracle compare commands through cli.main.  Each output
becomes one line: the item, node or command, the route, the value and
error as float.hex (exact), and for the sign-vector and kernel items the
digits of every big-float round the item ran.  CLI outputs are printed
line by line as written (repr floats round-trip, so equal text is equal
bits).  Two checkouts give the same bits exactly when

    diff <(python3 tools/output_digest.py A) <(python3 tools/output_digest.py B)

is empty.  A run takes a few seconds on a 2-core host.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

import numpy as np

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# the README's commands, output flags left to this script
README_COMMANDS = {
    "eval-series": ["eval", "--method", "series", "--n", "3", "--signs", "++-",
                    "--lambda", "0.3,-0.1,-0.2", "--x", "2.0"],
    "eval-mb": ["eval", "--method", "mb", "--n", "1", "--signs", "+", "--lambda", "0",
                "--x-grid", "log:0.1:50:50", "--tol", "1e-10"],
    "coeffs": ["coeffs", "--n", "3", "--lambda", "0.3,-0.1,-0.2", "--xi", "1",
               "--terms", "10", "--format", "json"],
    "kernel": ["kernel", "--n", "2", "--lambda", "0.3i,-0.3i", "--delta", "0,0",
               "--x-grid", "log:0.1:100:200"],
    "transform": ["transform", "--n", "2", "--lambda", "0.25i,-0.25i", "--delta", "0,0",
                  "--weight", "gaussian-log:eta=0", "--x-grid", "log:0.5:4:20",
                  "--s-points", "0.5,0.5+1i,0.5+2i"],
    "oracle": ["oracle", "compare", "--methods", "series,mb,asympt", "--n", "3",
               "--signs", "++-", "--lambda", "0.3,-0.1,-0.2", "--x-grid", "log:1:30:10"],
}


# kernel_sweep node sets, nodes u = log|x|: the indices of the sweep tests
# (README rank 2, the rank-3 FE index, the rank-4 prototype, a non-generic
# index), an asymptotic node whose cancellation lies between CANCEL_SWITCH/2
# and CANCEL_SWITCH, and negative-side nodes far past the switch
SWEEP_CASES = {
    "rank2": ([0.25j, -0.25j], (0, 0),
              np.concatenate([np.linspace(-8.0, 5.0, 40), np.linspace(1.2, 1.285, 6)])),
    "rank3": ([0.1 + 0.2j, -0.05 - 0.3j, -0.05 + 0.1j], (0, 1, 0), np.linspace(-20.0, 9.0, 40)),
    "rank4": ([0.375, 0.125, -0.125, -0.375], (0, 1, 0, 1), np.linspace(-6.0, 8.0, 30)),
    "nongeneric": ([0.5, -0.5], (1, 0), np.linspace(-3.0, 4.0, 6)),
    "near-switch": ([1 + 2.5e-7, -1 - 2.5e-7], (1, 0), np.log([30.0])),
    "past-switch": ([1.0, -1.0], (1, 0), np.log([10.0, 30.0, 100.0])),
}
SWEEP_TOL = 1e-9


def _hex(v) -> str:
    if isinstance(v, complex):
        return f"{v.real.hex()},{v.imag.hex()}"
    return float(v).hex()


def _output(out) -> str:
    if isinstance(out, BaseException):
        return f"raises {type(out).__name__}: {out}"
    return " ".join(_hex(v) for v in out)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from besselhr import cli, kernel, series
    from besselhr.core import SpectralIndex

    digits = []
    mp_round = series._j_generic_mp

    def recorded(z, sign, si, dps, kind):
        digits.append(dps)
        return mp_round(z, sign, si, dps, kind)

    series._j_generic_mp = recorded

    def run(label, route, op):
        digits.clear()
        try:
            out = op()
        except Exception as exc:
            out = exc
        dps = f" dps={','.join(map(str, digits))}" if digits else ""
        print(f"{label} {route} {_output(out)}{dps}")

    for item in workloads.build_signvec_routes():
        for route, op in item.ops.items():
            run(item.key, route, op)
    for item in workloads.build_kernel_grid():
        route = []

        def by_kernel(f=item.facts, route=route):
            r = kernel.bessel_kernel(f["x"], f["ki"], "auto", workloads.KERNEL_TOL)
            route.append(r.method)
            return r.value, r.error

        run(item.key, "kernel", by_kernel)
        print(f"{item.key} route {route[0] if route else '-'}")

    for name, (lam, deltas, u) in SWEEP_CASES.items():
        ki = kernel.KernelIndex(SpectralIndex(lam), deltas)
        # the mask of swept nodes is left out: which nodes the array passes
        # serve may change while every value, error and route stays
        for sgn, (values, errors, routes, _) in zip("+-", kernel.kernel_sweep(u, ki, SWEEP_TOL)):
            for ui, v, e, r in zip(u, values, errors, routes):
                print(f"sweep/{name}/{sgn}/u={ui.hex()} {r} {_hex(complex(v))} {_hex(e)}")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        commands = {f"hankel-fe/{name}": argv for name, argv in workloads._HANKEL_COMMANDS.items()}
        commands.update({f"readme/{name}": argv for name, argv in README_COMMANDS.items()})
        for name, args in commands.items():
            out = tmp / "out"
            extra = ["--out", str(out)]
            fe = tmp / "fe.json"
            if "--s-points" in args:
                extra += ["--fe-report", str(fe)]
            for path in (out, fe):
                path.unlink(missing_ok=True)
            code = cli.main([*args, *extra])
            print(f"{name} exit {code}")
            for path in (out, fe):
                if path.exists():
                    for line in path.read_text().splitlines():
                        print(f"{name} {path.name} {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
