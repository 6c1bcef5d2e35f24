#!/usr/bin/env python3
"""Digest of every benchmark output and of the README commands, one line each.

Usage:

    python3 tools/output_digest.py <checkout> > digest.txt

Runs, in one process and once each, every item of the three perfbench
workloads of <checkout> (its src/ and perfbench/ are imported; nothing
under perfbench/ is changed) and the README's eval, coeffs, kernel,
transform --fe-report and oracle compare commands through cli.main.  Each
output becomes one line: the item or command, the route, the value and
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
