#!/usr/bin/env python3
"""A seeded, time-bounded sweep of random CLI commands.

Usage:

    python3 tools/cli_sweep.py [--seed S] [--seconds T] [--call-limit L] [checkout]

Draws eval, kernel and oracle compare commands from the seed (ranks 1-6,
real and complex indices up to |lambda| = 12, every route, tolerances
from 1e-6 to 1e-13, points from 1e-3 to 1e6) and runs each through
cli.main in this process (<checkout>/src imported; default: the checkout
holding this script) until T seconds have passed (default 120).  lambda,
the sign vector and the kernel's x grid are passed as --lambda=...,
--signs=... and --x-grid=..., since argparse reads a value that begins
with "-" as an option.  A call still
running after L seconds (default 25) is stopped by SIGALRM and counted.
It reports four kinds of result, with the commands that gave them:

- an exit outside {0, 1, 2, 3}: an exception out of cli.main, or a
  SystemExit code other than those
- an exit 2 whose message comes from Python internals (a builtin's
  words, such as "cannot convert float NaN to integer"), not from the
  program's own usage checks
- a non-finite row on exit 0: a value or error of eval and kernel that is
  not finite, or an oracle compare route whose value and error are not
  both finite or (nan, 0.0, inf), the columns of a route out of reach
- a call over the limit

The store of index constants is shared by the calls, as in one process
of the benchmark, so a call's time depends on the calls before it.
Exits 1 if any of the first three kinds occurred, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import random
import shlex
import signal
import sys
import time
import warnings
from pathlib import Path

# the words of Python's own exceptions that reach the CLI's "error: " line
# only through a fault of the program, never through a usage check
INTERNAL_WORDS = (
    "cannot convert",
    "math domain error",
    "division by zero",
    "out of range",
    "has no attribute",
    "unsupported operand",
    "not subscriptable",
    "not iterable",
    "values to unpack",
    "invalid literal",
    "could not convert",
    "must be real number",
    "object is not",
    "arg is a malformed string",
)
EXAMPLES = 5  # commands printed per kind


class _OverLimit(BaseException):  # not caught by an "except Exception" under test
    pass


def _on_alarm(signum, frame):
    raise _OverLimit()


def _number(v: complex) -> str:
    if v.imag == 0.0:
        return repr(v.real)
    return f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}i"


def _index(rng: random.Random, n: int) -> str:
    scale = math.exp(rng.uniform(math.log(0.05), math.log(12.0)))
    complex_index = rng.random() < 0.5
    lam = [
        complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale) / 2 if complex_index else 0.0)
        for _ in range(n)
    ]
    return ",".join(_number(v) for v in lam)


def _points(rng: random.Random, lo: float, hi: float, count: int, signed: bool = False) -> str:
    xs = []
    for _ in range(count):
        x = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        xs.append(-x if signed and rng.random() < 0.3 else x)
    return ",".join(repr(x) for x in xs)


def draw(rng: random.Random) -> list:
    """One command's argv."""
    n = rng.randint(1, 6)
    lam = f"--lambda={_index(rng, n)}"
    signs = "--signs=" + "".join(rng.choice("+-") for _ in range(n))
    tol = ["--tol", repr(rng.choice((1e-6, 1e-9, 1e-10, 1e-12, 1e-13)))]
    kind = rng.random()
    if kind < 0.4:
        method = rng.choice(("series", "mb", "asympt"))
        return ["eval", "--method", method, "--n", str(n), signs, lam,
                "--x-grid", _points(rng, 1e-2, 3e2, rng.randint(1, 3))] + tol
    if kind < 0.75:
        method = rng.choice(("auto", "series", "mb", "asympt"))
        delta = ",".join(rng.choice("01") for _ in range(n))
        return ["kernel", "--method", method, "--n", str(n), lam, "--delta", delta,
                "--x-grid=" + _points(rng, 1e-3, 1e6, rng.randint(1, 3), signed=True)] + tol
    methods = rng.sample(("series", "mb", "asympt"), rng.randint(2, 3))
    return ["oracle", "compare", "--methods", ",".join(methods), "--n", str(n), signs, lam,
            "--x-grid", _points(rng, 1e-2, 3e2, rng.randint(1, 2))] + tol


def _rows(out: str):
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",") if lines else []
    return header, [line.split(",") for line in lines[1:]]


def _bad_row(argv, out: str) -> bool:
    header, rows = _rows(out)
    for row in rows:
        cell = dict(zip(header, row))
        if argv[0] != "oracle":
            if not all(math.isfinite(float(cell[c])) for c in ("re", "im", "err")):
                return True
            continue
        for route in argv[argv.index("--methods") + 1].split(","):
            re, im, err = (float(cell[f"{route}_{c}"]) for c in ("re", "im", "err"))
            finite = math.isfinite(re) and math.isfinite(im) and math.isfinite(err)
            out_of_reach = math.isnan(re) and im == 0.0 and err == math.inf
            if not (finite or out_of_reach):
                return True
    return False


def run(main, argv, limit: float):
    """(kind or None, exit code, note, seconds) of one call; the code is
    "raised" for an exception out of cli.main and "stopped" at the limit."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
    except _OverLimit:
        return "over the limit", "stopped", "", time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - every escape is a finding
        return "exit outside 0-3", "raised", f"{type(exc).__name__}: {exc}", time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - t0
    message = (err.getvalue().strip().splitlines() or [""])[-1]
    if code not in (0, 1, 2, 3):
        return "exit outside 0-3", code, message, seconds
    if code == 2 and any(words in message for words in INTERNAL_WORDS):
        return "internal message on exit 2", code, message, seconds
    if code == 0 and _bad_row(argv, out.getvalue()):
        return "non-finite row on exit 0", code, "", seconds
    return None, code, message, seconds


def main_sweep(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=float, default=120.0)
    p.add_argument("--call-limit", dest="call_limit", type=float, default=25.0)
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    from besselhr.cli import main

    signal.signal(signal.SIGALRM, _on_alarm)
    rng = random.Random(args.seed)
    found, codes = {}, {}
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        argv = draw(rng)
        kind, code, note, seconds = run(main, argv, args.call_limit)
        codes[code] = codes.get(code, 0) + 1
        if kind:
            found.setdefault(kind, []).append((argv, code, note, seconds))
    print(f"seed {args.seed}: {sum(codes.values())} commands in "
          f"{time.perf_counter() - start:.0f} s; "
          + ", ".join(f"{'exit ' * isinstance(k, int)}{k}: {v}"
                      for k, v in sorted(codes.items(), key=str)))
    for kind in ("exit outside 0-3", "internal message on exit 2",
                 "non-finite row on exit 0", "over the limit"):
        hits = found.get(kind, [])
        print(f"{kind}: {len(hits)}")
        for argv, code, note, seconds in hits[:EXAMPLES]:
            print(f"  besselhr {shlex.join(argv)}")
            print(f"    exit {code} after {seconds:.1f} s{': ' + note if note else ''}")
    return 1 if any(k != "over the limit" for k in found) else 0


if __name__ == "__main__":
    sys.exit(main_sweep())
