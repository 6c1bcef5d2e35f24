#!/usr/bin/env python3
"""Cold and warm rounds of the perfbench workloads, one process each.

Usage:

    python3 tools/cold_rounds.py <checkout> [--warm N] [--workload NAME]...

For each perfbench workload of <checkout> (its src/ and perfbench/ are
imported; nothing under them is changed), a fresh process builds the items
and evaluates every item once in build order, the cold round, which builds
every stored constant it needs, then N more times, the warm rounds (N = 3
by default).  It prints, per workload:

- the time of each round (time.perf_counter, no speed calibration) and how
  many of its operations raised (perfbench counts some as known faults)
- the calls of mpmath.rgamma in each round, counted by wrapping the module
  attribute the package calls (mpmath's own internal calls go through its
  context and are not counted)
- the calls and milliseconds of the big-float rounds (series._j_generic_mp)
  in each round, timed by wrapping the module attribute
- the calls, summed terms and milliseconds of the big-float rounds' integer
  loop in each round, at p = 1 (the series itself) and at p > 1 (jets of p
  coefficients at a non-generic index), timed by wrapping the _backend
  attribute the rounds call, sum_first_kind_fixed
- the loop's set-up in microseconds per call: the last round's loop calls
  made again with m_cap = 0 (the last argument), which sums the first head
  term only, best of 5 passes over them
- the builds and milliseconds of the double pass's heads in each round:
  the calls of series._double_head that miss the store, timed by wrapping
  the module attribute first_kind calls
- the calls and points (integrand values) of the Mellin-Barnes integrands
  _backend.mb_j_integrand and _backend.mb_kernel_integrand in each round,
  counted by wrapping the module attributes (perfbench's mb.panels and
  mb.tail_probes count by call size and read 0)
- the store's entries and held bytes (the charges of series._stored) by
  kind of constant, after the cold round, and after the last warm round
  where they differ

No benchmark metric times a cold round, and every CLI command is one; this
script measures it without changing the benchmark.  Times depend on the
host, so compare two checkouts on one host, in alternating runs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOADS = ("signvec-routes", "kernel-grid", "hankel-fe")


def _store_by_kind(store):
    """{kind: [entries, bytes held]} of the store, and its total held."""
    kinds = {}
    for key, (_, charge) in store.items():
        entry = kinds.setdefault(key[0], [0, 0])
        entry[0] += 1
        entry[1] += charge
    return kinds, store.held


def _print_store(when, kinds, held):
    entries = sum(e for e, _ in kinds.values())
    print(f"  store after the {when}: {entries} entries, {held / 2**20:.2f} MiB held")
    for kind, (count, charge) in sorted(kinds.items()):
        print(f"    {kind:8s} {count:5d} entries {charge / 2**20:8.3f} MiB")


def _timed(fn, loop, captured):
    """fn, adding each call's count, terms and seconds to loop under its p
    and its (fn, arguments) to captured: a head entry is a list of p
    (re, im) pairs."""

    def wrapped(head, *args):
        t0 = time.perf_counter()
        out = fn(head, *args)
        seconds = time.perf_counter() - t0
        captured.append((fn, (head, *args)))
        p = len(head[0])
        entry = loop.setdefault("p = 1" if p == 1 else "p > 1", [0, 0, 0.0])
        entry[0] += 1
        entry[1] += out[-1]
        entry[2] += seconds
        return out

    return wrapped


def _timed_rounds(fn, rounds):
    """fn, adding each call's count and seconds to rounds, [calls, seconds]."""

    def wrapped(*args):
        t0 = time.perf_counter()
        out = fn(*args)
        rounds[0] += 1
        rounds[1] += time.perf_counter() - t0
        return out

    return wrapped


def _counted_points(fn, tally):
    """fn, adding each call and the size of its first argument (the points
    s) to tally, [calls, points]."""

    def wrapped(s, *args):
        tally[0] += 1
        tally[1] += s.size
        return fn(s, *args)

    return wrapped


def _set_up_us(captured, passes=5):
    """Microseconds per loop call with m_cap = 0 (its last argument), the
    best of passes over the captured calls."""
    best = float("inf")
    for _ in range(passes):
        t0 = time.perf_counter()
        for fn, args in captured:
            fn(*args[:-1], 0)
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / max(len(captured), 1)


def _timed_head(fn, heads, kind):
    """fn, adding each call whose entry (a store key of kind kind) is not
    in the store yet to heads, [builds, seconds]."""
    from besselhr import series

    def wrapped(lam, l, diffs):
        if (kind, lam, l) in series._stored:
            return fn(lam, l, diffs)
        t0 = time.perf_counter()
        out = fn(lam, l, diffs)
        heads[0] += 1
        heads[1] += time.perf_counter() - t0
        return out

    return wrapped


def one_workload(root: Path, name: str, warm: int) -> None:
    """Cold and warm rounds of one workload in this process."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import mpmath
    import workloads
    from besselhr import _backend, series

    calls = [0]
    rgamma = mpmath.rgamma

    def counted(*args, **kwargs):
        calls[0] += 1
        return rgamma(*args, **kwargs)

    mpmath.rgamma = counted
    # {"p = 1" or "p > 1": [calls, terms, seconds]} of the integer loop
    loop = {}
    captured = []  # (loop, arguments) of the round's loop calls
    _backend.sum_first_kind_fixed = _timed(_backend.sum_first_kind_fixed, loop, captured)
    # {integrand name: [calls, points]} of the Mellin-Barnes integrands
    integrands = {attr: [0, 0] for attr in ("mb_j_integrand", "mb_kernel_integrand")}
    for attr, tally in integrands.items():
        setattr(_backend, attr, _counted_points(getattr(_backend, attr), tally))
    bigfloat = [0, 0.0]  # big-float rounds: calls, seconds
    series._j_generic_mp = _timed_rounds(series._j_generic_mp, bigfloat)
    heads = [0, 0.0]  # double heads built: count, seconds
    series._double_head = _timed_head(series._double_head, heads, "double")
    make_items, _ = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as workdir:
        items = make_items(Path(workdir))
        times, counts, failed, loops, builds, rounds, points = [], [], [], [], [], [], []
        for r in range(warm + 1):
            calls[0] = 0
            heads[:] = [0, 0.0]
            bigfloat[:] = [0, 0.0]
            loop.clear()
            captured.clear()
            for tally in integrands.values():
                tally[:] = [0, 0]
            failed.append(0)
            t0 = time.perf_counter()
            for item in items:
                for op in item.ops.values():
                    try:
                        op()
                    except Exception:  # counted; the route's work is in the time
                        failed[-1] += 1
            times.append(time.perf_counter() - t0)
            counts.append(calls[0])
            builds.append(tuple(heads))
            rounds.append(tuple(bigfloat))
            loops.append({key: list(v) for key, v in loop.items()})
            points.append({attr: tuple(v) for attr, v in integrands.items()})
            if r == 0:
                cold_store = _store_by_kind(series._stored)
    print(f"{name}: {len(items)} items, operations raising per round: {failed}")
    print(f"  round s: cold {times[0]:.3f}, warm " + " ".join(f"{t:.3f}" for t in times[1:]))
    print(f"  mpmath.rgamma calls: cold {counts[0]}, warm " + " ".join(map(str, counts[1:])))
    print("  big-float rounds: calls, ms per round (cold, warm ...): " + "; ".join(
        f"{c} {1e3 * s:.1f}" for c, s in rounds))
    for key in ("p = 1", "p > 1"):
        per_round = [r.get(key, [0, 0, 0.0]) for r in loops]
        print(f"  integer loop {key}: calls, terms, ms per round (cold, warm ...): " + "; ".join(
            f"{c} {t} {1e3 * s:.1f}" for c, t, s in per_round))
    if captured:
        print(f"  integer loop set-up (m_cap = 0), us per call over the last round's "
              f"{len(captured)} calls: {_set_up_us(captured):.1f}")
    print("  double heads built, ms per round (cold, warm ...): " + "; ".join(
        f"{c} {1e3 * s:.1f}" for c, s in builds))
    for attr in integrands:
        print(f"  _backend.{attr}: calls, points per round (cold, warm ...): " + "; ".join(
            f"{r[attr][0]} {r[attr][1]}" for r in points))
    _print_store("cold round", *cold_store)
    if _store_by_kind(series._stored) != cold_store:
        _print_store("last warm round", *_store_by_kind(series._stored))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", type=Path)
    p.add_argument("--warm", type=int, default=3, help="warm rounds after the cold one")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="a workload to run (repeatable; default all three)")
    p.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    root = args.checkout.resolve()
    names = args.workload or list(WORKLOADS)
    if args.in_process:
        one_workload(root, names[0], args.warm)
        return 0
    code = 0
    for name in names:
        # a process per workload, so each cold round starts from nothing
        run = subprocess.run(
            [sys.executable, __file__, str(root), "--warm", str(args.warm),
             "--workload", name, "--in-process"],
            capture_output=True, text=True,
        )
        sys.stdout.write(run.stdout)
        if run.returncode:
            sys.stderr.write(run.stderr)
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
