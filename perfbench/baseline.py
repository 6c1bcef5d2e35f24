#!/usr/bin/env python3
"""Re-measure the ROADMAP's baseline table of layer and command times.

Rows are timed warm, best of REPEAT calls (one call for rows that take
more than ten seconds), at rank 3 with lambda = (0.3, -0.1, -0.2) unless
the row says otherwise.  CLI rows run `python3 -m besselhr.cli` as a
subprocess with outputs in a temporary directory under perfbench/out/.
The benchmark (run.py) does not use this script; it records the reference
figures quoted in perfbench/README.md.

Usage: python3 perfbench/baseline.py   (about four minutes)
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from besselhr.asympt import j_varsigma_asymptotic  # noqa: E402
from besselhr.core import SignVector, SpectralIndex  # noqa: E402
from besselhr.kernel import KernelIndex, WeightFunction, bessel_kernel, hankel_transform  # noqa: E402
from besselhr.mellinbarnes import mb_eval_est  # noqa: E402
from besselhr.series import first_kind, j_function  # noqa: E402

SI3 = SpectralIndex([0.3, -0.1, -0.2])
REPEAT = 3


def best(fn):
    fn()  # warm caches
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        if times[-1] > 10.0:
            break
    return min(times)


def once(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def cli(args, workdir):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "besselhr.cli", *args], cwd=workdir, env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def main() -> int:
    rows = []

    def row(label, seconds):
        rows.append((label, seconds))
        print(f"{label}: {seconds * 1e3:.3g} ms", flush=True)

    row("first_kind, x=2", best(lambda: first_kind(2.0, 1, SI3, 1, 1e-12)))
    for x in (0.5, 1.0):
        row(f"j_function ++-, double path, x={x}",
            best(lambda x=x: j_function(x, SignVector("++-"), SI3, 1e-10)))
    for sv, x in (("++-", 2.0), ("+++", 5.0)):
        row(f"j_function {sv}, big floats, x={x}",
            best(lambda sv=sv, x=x: j_function(x, SignVector(sv), SI3, 1e-10)))
    row("j_varsigma_asymptotic ++-, x=40",
        best(lambda: j_varsigma_asymptotic(40.0, SignVector("++-"), SI3)))
    for x in (2.0, 20.0):
        row(f"mb_eval_est ++-, x={x}",
            best(lambda x=x: mb_eval_est(x, SignVector("++-"), SI3, 1e-10)))
    ki3 = KernelIndex(SI3, (0, 1, 0))
    row("bessel_kernel n=3, asymptotic zone, x=100",
        best(lambda: bessel_kernel(100.0, ki3)))
    for n in (2, 3, 4, 5, 6):
        lam = [0.3, -0.1, -0.2, 0.05, -0.05, 0.15][:n]
        ki = KernelIndex(SpectralIndex(lam), (0,) * n)
        row(f"bessel_kernel n={n}, series zone, x=3", best(lambda ki=ki: bessel_kernel(3.0, ki)))
    ki2 = KernelIndex(SpectralIndex([0.25j, -0.25j]), (0, 0))
    xs20 = [0.5 * 8.0 ** (k / 19) for k in range(20)]
    row("hankel_transform n=2, 20 points", once(lambda: hankel_transform(WeightFunction(), ki2, xs20)))
    ki3c = KernelIndex(SpectralIndex([0.1 + 0.2j, -0.05 - 0.3j, -0.05 + 0.1j]), (0, 1, 0))
    row("hankel_transform n=3 (criterion 11 index), 3 points",
        once(lambda: hankel_transform(WeightFunction(), ki3c, [0.5, 1.4, 4.0])))

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        row("CLI import (besselhr.cli --help)", cli(["--help"], tmp))
        row("CLI transform README example with FE report", cli(
            ["transform", "--n", "2", "--lambda", "0.25i,-0.25i", "--delta", "0,0",
             "--weight", "gaussian-log:eta=0", "--x-grid", "log:0.5:4:20", "--out", "ups.csv",
             "--fe-report", "fe.json", "--s-points", "0.5,0.5+1i,0.5+2i"], tmp))
        row("CLI kernel n=2, 200 points", cli(
            ["kernel", "--n", "2", "--lambda", "0.3i,-0.3i", "--delta", "0,0",
             "--x-grid", "log:0.1:100:200", "--out", "k2.csv"], tmp))
        row("CLI kernel n=3, 50 points", cli(
            ["kernel", "--n", "3", "--lambda", "0.3,-0.1,-0.2", "--delta", "0,1,0",
             "--x-grid", "log:0.1:100:50", "--out", "k3.csv"], tmp))

    print("\n| layer / command | time |\n|---|---|")
    for label, seconds in rows:
        shown = f"{seconds:.2f} s" if seconds >= 1.0 else f"{seconds * 1e3:.3g} ms"
        print(f"| {label} | {shown} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
