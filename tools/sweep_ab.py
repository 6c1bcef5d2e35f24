#!/usr/bin/env python3
"""A/B timing of kernel.kernel_sweep on the kernel tables of one hankel-fe round.

Usage:

    python3 tools/sweep_ab.py <checkout A> <checkout B> [--repeats N]

Imports the package of each checkout (its src/besselhr) under its own name
in one process, runs the hankel-fe commands of A's perfbench workload once
through A's cli.main (outputs in a temporary directory; nothing under
perfbench/ is changed) and records the (nodes, index, tolerance) of every
kernel_sweep call they make: the transform's table and the
functional-equation check's, per command.  Each table is then swept by A
and by B once, and the script exits 1 unless both return the same values,
errors, routes and served masks, bit for bit.  It then times the tables
N times (30 by default), A and B interleaved and in alternating order,
warm (every stored constant already built), and prints per table its rank,
its node count and the median times of A and B with their ratio, then the
sums of the medians.  This is the kernel layer's time under the benchmark's
hankel-fe metric; compare two checkouts on one host, in one run.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import pkgutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

def load(name: str, root: Path):
    """The package of the checkout root as name, with its modules loaded."""
    pkg = root / "src" / "besselhr"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in pkgutil.iter_modules([str(pkg)]):
        importlib.import_module(f"{name}.{sub.name}")
    return module


def capture(package, root: Path):
    """The kernel_sweep calls of one round of root's hankel-fe commands, run
    by package, which stands in as besselhr while perfbench is imported."""
    aliased = {k: v for k, v in sys.modules.items() if k.startswith(package.__name__)}
    for key, module in aliased.items():
        sys.modules["besselhr" + key[len(package.__name__):]] = module
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    kernel = package.kernel
    sweep = kernel.kernel_sweep
    calls = []

    def recorded(u, ki, tol):
        calls.append((u.copy(), ki.lam.lam, ki.deltas, tol))
        return sweep(u, ki, tol)

    kernel.kernel_sweep = recorded
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for item in workloads.build_hankel_fe(Path(workdir)):
                for op in item.ops.values():
                    op()
    finally:
        kernel.kernel_sweep = sweep
    return calls


def _same(a, b) -> bool:
    return all(
        x[0].tobytes() == y[0].tobytes() and x[1].tobytes() == y[1].tobytes()
        and x[2] == y[2] and x[3].tobytes() == y[3].tobytes()
        for x, y in zip(a, b)
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--repeats", type=int, default=30)
    args = p.parse_args(argv)
    packages = [load("sweep_a", args.a.resolve()), load("sweep_b", args.b.resolve())]
    tables = capture(packages[0], args.a.resolve())
    cases = []
    for u, lam, deltas, tol in tables:
        kis = [pk.kernel.KernelIndex(pk.core.SpectralIndex(list(lam)), deltas) for pk in packages]
        runs = [lambda pk=pk, ki=ki, u=u, tol=tol: pk.kernel.kernel_sweep(u, ki, tol)
                for pk, ki in zip(packages, kis)]
        if not _same(runs[0](), runs[1]()):
            print(f"rank {len(lam)}, {len(u)} nodes: A and B differ")
            return 1
        cases.append((len(lam), len(u), runs))
    times = [([], []) for _ in cases]
    for rep in range(args.repeats):
        for (_, _, runs), spent in zip(cases, times):
            for side in ((0, 1) if rep % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                runs[side]()
                spent[side].append(time.perf_counter() - t0)
    print(f"kernel_sweep, {len(cases)} tables of one hankel-fe round, the same bits; "
          f"medians of {args.repeats}")
    print(f"{'rank':>4} {'nodes':>6} {'A ms':>8} {'B ms':>8} {'B/A':>6}")
    total = [0.0, 0.0]
    for (rank, nodes, _), spent in zip(cases, times):
        med = [1e3 * statistics.median(s) for s in spent]
        total = [t + m for t, m in zip(total, med)]
        print(f"{rank:4d} {nodes:6d} {med[0]:8.1f} {med[1]:8.1f} {med[1] / med[0]:6.2f}")
    print(f"{'all':>11} {total[0]:8.1f} {total[1]:8.1f} {total[1] / total[0]:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
