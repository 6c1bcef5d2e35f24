#!/usr/bin/env python3
"""A/B timing of the kernel tables and transform passes of one hankel-fe round.

Usage:

    python3 tools/sweep_ab.py <checkout A> <checkout B> [--repeats N] [--moved]

Imports the package of each checkout (its src/besselhr) under its own name
in one process, runs the hankel-fe commands of A's perfbench workload once
through A's cli.main (outputs in a temporary directory; nothing under
perfbench/ is changed) and records the (nodes, index, tolerance) of every
kernel_sweep call they make, the transform's table and the
functional-equation check's per command, and every transform pass over
such a table: _KernelGrid.values on the check's nodes (with its weight
window) and _KernelGrid.transform on the command's x grid.  Each side
builds its own grids from the recorded table bounds.

Each table is swept by A and by B once, and each pass's nodes are
transformed once.  Without --moved the script exits 1 unless both return
the same values, errors, routes and served masks, bit for bit (values
has the bits of transform's values).  With --moved, for changes that move
values by rounding, it prints per table and pass the largest
|value_A - value_B| / (err_A + err_B) (a values pass takes its errors from
transform at the same nodes) and every route or served-mask change, and
exits 1 if a route changes or a ratio exceeds 1, the rule of
tools/output_digest.py.

It then times the tables and passes N times (30 by default), A and B
interleaved and in alternating order, warm (every stored constant and grid
already built), and prints per table its rank, its node count and the
median times of A and B with their ratio, then per pass its kind, rank,
panel count and x count, each section with the sums of its medians.  This
is the kernel layer's time under the benchmark's hankel-fe metric;
compare two checkouts on one host, in one run.
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

import numpy as np

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
    """The kernel_sweep calls and the transform passes of one round of
    root's hankel-fe commands, run by package, which stands in as besselhr
    while perfbench is imported."""
    aliased = {k: v for k, v in sys.modules.items() if k.startswith(package.__name__)}
    for key, module in aliased.items():
        sys.modules["besselhr" + key[len(package.__name__):]] = module
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    kernel = package.kernel
    grid_class = kernel._KernelGrid
    saved = (kernel.kernel_sweep, grid_class.__init__, grid_class.values, grid_class.transform)
    sweep, init, values, transform = saved
    calls, passes = [], []

    def recorded(u, ki, tol):
        calls.append((u.copy(), ki.lam.lam, ki.deltas, tol))
        return sweep(u, ki, tol)

    def recorded_init(self, ki, lo, hi, tol):
        self.recorded = (ki.lam.lam, ki.deltas, lo, hi, tol)
        init(self, ki, lo, hi, tol)

    def pass_of(kind, method):
        def run(self, xs, weight, window=None):
            passes.append((kind, self.recorded, np.array(xs, dtype=float), dict(vars(weight)),
                           window))
            return method(self, xs, weight, window)
        return run

    kernel.kernel_sweep = recorded
    grid_class.__init__ = recorded_init
    grid_class.values = pass_of("values", values)
    grid_class.transform = pass_of("transform", transform)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for item in workloads.build_hankel_fe(Path(workdir)):
                for op in item.ops.values():
                    op()
    finally:
        kernel.kernel_sweep = sweep
        grid_class.__init__, grid_class.values, grid_class.transform = saved[1:]
    return calls, passes


def _same(a, b) -> bool:
    return all(
        x[0].tobytes() == y[0].tobytes() and x[1].tobytes() == y[1].tobytes()
        and x[2] == y[2] and x[3].tobytes() == y[3].tobytes()
        for x, y in zip(a, b)
    )


def _ratio(va, ea, vb, eb) -> float:
    """The largest |va - vb| / (ea + eb), 0 where the values are equal."""
    diff = np.abs(np.asarray(va) - np.asarray(vb))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(diff == 0, 0.0, diff / (np.asarray(ea) + np.asarray(eb)))
    return float(ratio.max(initial=0.0))


def _moved_sweep(a, b):
    """The largest ratio of two kernel_sweep results and their changed
    routes and served masks, over both kernel signs."""
    ratio = max(_ratio(x[0], x[1], y[0], y[1]) for x, y in zip(a, b))
    changed = sum(int(np.sum(np.array(x[2]) != np.array(y[2]))) for x, y in zip(a, b))
    changed += sum(int(np.sum(x[3] != y[3])) for x, y in zip(a, b))
    return ratio, changed


def _timed(cases, repeats):
    """Median seconds of each case's two runs, interleaved in alternating order."""
    times = [([], []) for _ in cases]
    for rep in range(repeats):
        for runs, spent in zip(cases, times):
            for side in ((0, 1) if rep % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                runs[side]()
                spent[side].append(time.perf_counter() - t0)
    return [[1e3 * statistics.median(s) for s in spent] for spent in times]


def _report(title, labels, medians):
    print(title)
    total = [0.0, 0.0]
    for label, med in zip(labels, medians):
        total = [t + m for t, m in zip(total, med)]
        print(f"{label} {med[0]:8.1f} {med[1]:8.1f} {med[1] / med[0]:6.2f}")
    print(f"{'all':>{len(labels[0])}} {total[0]:8.1f} {total[1]:8.1f} {total[1] / total[0]:6.2f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--repeats", type=int, default=30)
    p.add_argument("--moved", action="store_true",
                   help="compare values within their errors instead of bit for bit")
    args = p.parse_args(argv)
    packages = [load("sweep_a", args.a.resolve()), load("sweep_b", args.b.resolve())]
    tables, passes = capture(packages[0], args.a.resolve())
    failed = False
    sweeps, sweep_labels = [], []
    for u, lam, deltas, tol in tables:
        kis = [pk.kernel.KernelIndex(pk.core.SpectralIndex(list(lam)), deltas) for pk in packages]
        runs = [lambda pk=pk, ki=ki, u=u, tol=tol: pk.kernel.kernel_sweep(u, ki, tol)
                for pk, ki in zip(packages, kis)]
        label = f"{len(lam):4d} {len(u):6d}"
        if args.moved:
            ratio, changed = _moved_sweep(runs[0](), runs[1]())
            print(f"sweep  rank {len(lam)}, {len(u)} nodes: largest ratio {ratio:.3g}, "
                  f"{changed} route or mask changes")
            failed |= ratio > 1.0 or changed > 0
        elif not _same(runs[0](), runs[1]()):
            print(f"rank {len(lam)}, {len(u)} nodes: A and B differ")
            return 1
        sweeps.append(runs)
        sweep_labels.append(label)
    grids = {}
    transforms, pass_labels = [], []
    for kind, (lam, deltas, lo, hi, tol), xs, fields, window in passes:
        sides = []
        for pk in packages:
            key = (pk.__name__, lam, deltas, lo, hi, tol)
            if key not in grids:
                ki = pk.kernel.KernelIndex(pk.core.SpectralIndex(list(lam)), deltas)
                grids[key] = pk.kernel._KernelGrid(ki, lo, hi, tol)
            sides.append((grids[key], pk.kernel.WeightFunction(**fields)))
        runs = [lambda g=g, w=w, kind=kind, xs=xs, window=window: getattr(g, kind)(xs, w, window)
                for g, w in sides]
        full = [g.transform(xs, w, window) for g, w in sides]
        if args.moved:
            ratio = _ratio(full[0][0], full[0][1], full[1][0], full[1][1])
            print(f"{kind:9s} rank {len(lam)}, {len(xs)} x: largest ratio {ratio:.3g}")
            failed |= ratio > 1.0
        elif any(x.tobytes() != y.tobytes() for x, y in zip(*full)):
            print(f"{kind} rank {len(lam)}, {len(xs)} x: A and B differ")
            return 1
        transforms.append(runs)
        pass_labels.append(f"{kind:9s} {len(lam):4d} {len(sides[0][0].u) // 15:6d} {len(xs):6d}")
    same = "values within their errors" if args.moved else "the same bits"
    print(f"{len(sweeps)} tables and {len(transforms)} transform passes of one hankel-fe round, "
          f"{same}; medians of {args.repeats}")
    _report(f"kernel_sweep\n{'rank':>4} {'nodes':>6} {'A ms':>8} {'B ms':>8} {'B/A':>6}",
            sweep_labels, _timed(sweeps, args.repeats))
    _report(f"transform passes\n{'pass':9s} {'rank':>4} {'panels':>6} {'x':>6} "
            f"{'A ms':>8} {'B ms':>8} {'B/A':>6}", pass_labels, _timed(transforms, args.repeats))
    if failed:
        print("a route changed or a ratio exceeds 1")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
