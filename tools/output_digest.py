#!/usr/bin/env python3
"""Digest of every benchmark output and of the README commands, one line each.

Usage:

    python3 tools/output_digest.py <checkout> > digest.txt
    python3 tools/output_digest.py <checkout A> <checkout B>

Runs, in one process and once each, every item of the three perfbench
workloads of <checkout> (its src/ and perfbench/ are imported; nothing
under perfbench/ is changed), mellinbarnes.mb_kernel_est at the
kernel-grid items labelled generic (the untimed reference of each) and at
the vanishing-side nodes MBKERNEL_VANISHING, kernel.bessel_kernel in auto
mode on the vanishing side of the indices of KERNEL_VANISHING,
series.j_function at the sign vectors and points of SIGNVEC_CASES,
series.first_kind at FIRST_KIND_CASES and seeded draws,
kernel.kernel_sweep on the fixed node sets of SWEEP_CASES, one big-float round (series._j_generic_mp) at each of
BIGFLOAT_CASES, series.j_function at the indices near a non-generic one
of BAND_CASES and the transform of BAND_TRANSFORM there (its values, and
how many kernel nodes kernel_sweep's array passes served and left to
bessel_kernel), and the README's eval, coeffs, kernel, transform
--fe-report and oracle compare commands through cli.main.  Each output
becomes one line: the item, node or command, the route, the value and
error as float.hex (exact; a big-float round's line adds its term mass
and terms summed), and for the sign-vector and kernel items the
digits of every big-float round the item ran.  CLI outputs are printed
line by line as written (repr floats round-trip, so equal text is equal
bits).  Two checkouts give the same bits exactly when

    diff <(python3 tools/output_digest.py A) <(python3 tools/output_digest.py B)

is empty.  A run takes a few seconds on a 2-core host.

With two checkouts the script digests each in its own process and prints
every line whose bits differ, pairing the lines in order within each run
of changed lines that has as many lines on both sides: for a value
with an error (a kernel, sign-vector, first_kind or sweep line, or a CLI table row
with re, im and err columns) the route change and |value_A - value_B| /
(err_A + err_B), the largest over a row's value columns; for any other
line both texts.  After that summary it prints, per workload (the
benchmark's signvec-routes and kernel-grid items, then vanishing,
mbkernel, signvec, first_kind, sweep, bigfloat, band, hankel-fe and readme
by the first part of their labels) and per route (series, mb, asympt or
exact: the line's route, the kernel's method or a table's column prefix;
"-" for a line without one), how many lines differ and the largest ratio,
so a change local to one route shows where its moved lines are.  A table
row whose values moved on two routes counts once under each.  Then, per
workload whose lines record big-float rounds, how many lines changed the
digits of their rounds (the dps= field; a line without a partner counts
when it has rounds), so "no round changed its digits" reads 0.  Then the line
count (wc -l) of each src/besselhr module in
both checkouts and the total change.  It
exits 1 if a ratio exceeds 1 or a value became an exception, and 0
otherwise.
"""

from __future__ import annotations

import cmath
import difflib
import math
import os
import subprocess
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
# index, the asymptotic band with a node next to a zero, a large index's
# band), an asymptotic node whose cancellation lies between CANCEL_SWITCH/2
# and CANCEL_SWITCH, and negative-side nodes far past the switch
SWEEP_CASES = {
    "rank2": ([0.25j, -0.25j], (0, 0),
              np.concatenate([np.linspace(-8.0, 5.0, 40), np.linspace(1.2, 1.285, 6)])),
    "rank3": ([0.1 + 0.2j, -0.05 - 0.3j, -0.05 + 0.1j], (0, 1, 0), np.linspace(-20.0, 9.0, 40)),
    "rank4": ([0.375, 0.125, -0.125, -0.375], (0, 1, 0, 1), np.linspace(-6.0, 8.0, 30)),
    "nongeneric": ([0.5, -0.5], (1, 0), np.linspace(-3.0, 4.0, 6)),
    "band": ([0.3j, -0.3j], (0, 0), np.append(
        2.0 * np.log(np.linspace(5.5, 12.5, 15) / (2.0 * np.pi)), 0.1246522895686179)),
    "band-large": ([1.8, -0.6, -1.2], (0, 1, 0),
                   3.0 * np.log(np.geomspace(4.5, 40.0, 12) / (2.0 * np.pi))),
    "near-switch": ([1 + 2.5e-7, -1 - 2.5e-7], (1, 0), np.log([30.0])),
    "past-switch": ([1.0, -1.0], (1, 0), np.log([10.0, 30.0, 100.0])),
}
SWEEP_TOL = 1e-9

# mb_kernel_est where the kernel vanishes identically: lam = (0, 0),
# delta = 10 on the negative side, at these log|x|
MBKERNEL_VANISHING = ((0.0, 0.0), (1, 0), (-20.0, -5.0, 0.0, 2.0))

# bessel_kernel in auto mode where the kernel vanishes identically: the
# side x < 0 of these (lam, deltas), at these x
KERNEL_VANISHING = ((((0.5, -0.5), (0, 0)), ((1.0, -1.0), (1, 0)), ((0.0, 0.0), (1, 0))),
                    (-0.5, -3.0, -20.0))

# big-float rounds (series._j_generic_mp) at fixed digits, value, noise
# (10 rel mass, the error the rounds report) and term mass: a sign-vector
# function and a kernel at ranks 2-5, a point with |zf| = x^2 < 2^-40 and a
# non-generic index (jets of p = 2 coefficients); (lam, "signvec", signs or
# "kernel", deltas and parity, x)
BIGFLOAT_DPS = 40
BIGFLOAT_CASES = {
    "r2-signvec": ((0.25j, -0.25j), ("signvec", "+-"), 3.0),
    "r2-kernel": ((0.3, -0.3), ("kernel", (0, 1), 1), 2.0),
    "r3-signvec": ((0.3, -0.1, -0.2), ("signvec", "++-"), 2.0),
    "r3-kernel": ((0.1 + 0.2j, -0.05 - 0.3j, -0.05 + 0.1j), ("kernel", (0, 1, 0), -1), 1.5),
    "r4-signvec": ((0.375, 0.125, -0.125, -0.375), ("signvec", "+-+-"), 1.2),
    "r4-kernel": ((0.375, 0.125, -0.125, -0.375), ("kernel", (0, 1, 0, 1), 1), 1.2),
    "r5-signvec": ((0.31, -0.12, -0.23, 0.14, -0.1), ("signvec", "++-+-"), 1.0),
    "r5-kernel": ((0.31, -0.12, -0.23, 0.14, -0.1), ("kernel", (1, 0, 0, 1, 0), -1), 1.0),
    "small-zf": ((0.3 + 0.1j, -0.3 - 0.1j), ("signvec", "++"), 1e-7),
    "jet-p2": ((0.5, -0.5), ("signvec", "+-"), 2.0),
}

# sign-vector functions by the series route at non-generic indices the
# benchmark lacks: lam = (0, 0) with the sign vectors -- and -+ (it holds ++
# and +-), and the rank-3 indices whose three components differ by integers
SIGNVEC_CASES = {
    "nongeneric": ((0.0, 0.0), ("--", "-+"), (0.5, 1.201, 2.885, 6.931, 16.65, 40.0)),
    "triple": ((1.0, 0.0, -1.0), ("+++", "++-", "+--", "-+-"), (0.5, 2.0, 8.0)),
    "zero3": ((0.0, 0.0, 0.0), ("+++", "++-"), (0.5, 2.0, 8.0)),
}

# sign-vector functions by the series route at indices near a non-generic
# one, of gaps 1e-5, 1e-8 and 1e-11 (real and imaginary): (lam, sign
# vectors, x)
BAND_CASES = {
    "r2-gap1e-5": ((1.0 + 1e-5, 0.0), ("+-", "++"), (0.3, 1.0, 3.0)),
    "r3-gap1e-8": ((0.7, -0.3 + 1e-8, -0.4), ("++-", "+-+"), (0.3, 1.0, 3.0)),
    "r4-gap1e-11": ((0.65, 0.2, -0.4, -1.4 + 1e-11j), ("+-+-", "++--"), (0.3, 1.0, 3.0)),
}
# a transform at such an index: lam, deltas, the grid x and tol, with the
# unit-mass gaussian-log weight
BAND_TRANSFORM = ((0.5, -0.5 + 1e-6), (1, 0), (0.5, 1.0, 2.0), 1e-6)

# first_kind by the double pass, value and tail, at x = 1 and sign +1 where
# lam = (5, -5) once lay farther from a 40-digit sum than its tail and where
# the head's top of lam = (85.25, -85.25) underflows a double; then at
# FIRST_KIND_DRAWS seeded draws of ranks 2-6 and both signs, the first draws
# of tools/tail_scan.py's first_kind scan
FIRST_KIND_CASES = {"5,-5": ((5.0, -5.0), 1), "85.25,-85.25": ((85.25, -85.25), 1)}
FIRST_KIND_DRAWS = 4


def _hex(v) -> str:
    if isinstance(v, complex):
        return f"{v.real.hex()},{v.imag.hex()}"
    if isinstance(v, int):
        return f"terms={v}"
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
    from besselhr import cli, kernel, mellinbarnes, series
    from besselhr.core import SignVector, SpectralIndex, SurfacePoint

    digits = []
    mp_round = series._j_generic_mp

    def recorded(z, sign, si, dps, kind):
        digits.append(dps)
        return mp_round(z, sign, si, dps, kind)

    series._j_generic_mp = recorded

    def run(label, route, op):
        """One line: label, route (a callable is asked after op ran), output."""
        digits.clear()
        try:
            out = op()
        except Exception as exc:
            out = exc
        dps = f" dps={','.join(map(str, digits))}" if digits else ""
        route = route() if callable(route) else route
        print(f"{label} {route} {_output(out)}{dps}")

    for item in workloads.build_signvec_routes():
        for route, op in item.ops.items():
            run(item.key, route, op)
    kernel_items = workloads.build_kernel_grid()
    indices, xs = KERNEL_VANISHING
    kernel_cases = [(item.key, item.facts["ki"], item.facts["x"]) for item in kernel_items]
    kernel_cases += [(f"vanishing/{','.join(map(str, lam))}/{''.join(map(str, deltas))}/x={x:g}",
                      kernel.KernelIndex(SpectralIndex(lam), deltas), x)
                     for lam, deltas in indices for x in xs]
    for label, ki, x in kernel_cases:
        route = []

        def by_kernel(ki=ki, x=x, route=route):
            r = kernel.bessel_kernel(x, ki, "auto", workloads.KERNEL_TOL)
            route.append(r.method)
            return r.value, r.error

        run(label, lambda route=route: f"kernel/{route[0] if route else '-'}", by_kernel)

    lam, deltas, us = MBKERNEL_VANISHING
    vanishing = kernel.KernelIndex(SpectralIndex(lam), deltas)
    mb_cases = [(f"mbkernel/{item.key}", item.facts["ki"], item.facts["x"])
                for item in kernel_items if item.facts["label"] == "generic"]
    mb_cases += [(f"mbkernel/vanishing/u={u:g}", vanishing, -math.exp(u)) for u in us]
    for label, ki, x in mb_cases:
        run(label, "mb", lambda ki=ki, x=x: mellinbarnes.mb_kernel_est(
            x, ki.lam, ki.deltas, workloads.KERNEL_TOL))

    for name, (lam, signs, xs) in SIGNVEC_CASES.items():
        si = SpectralIndex(lam)
        for sv in map(SignVector.from_string, signs):
            for x in xs:
                def by_series(x=x, sv=sv, si=si):
                    r = series.j_function(x, sv, si, workloads.SERIES_TOL)
                    return r.value, r.tail_bound

                run(f"signvec/{name}/{sv}/x={x:.4g}", "series", by_series)

    cases = [(name, SpectralIndex(lam), 1.0, l, (1,)) for name, (lam, l) in FIRST_KIND_CASES.items()]
    rng = np.random.default_rng(2026)
    for i in range(FIRST_KIND_DRAWS):
        n = int(rng.integers(2, 7))
        si = SpectralIndex(list(rng.uniform(-5, 5, n) + 1j * rng.uniform(-1, 1, n)))
        x, l, _ = float(rng.uniform(0.2, 3)), int(rng.integers(1, n + 1)), rng.choice([1, -1])
        cases.append((f"draw{i}", si, x, l, (1, -1)))
    for name, si, x, l, signs in cases:
        for sign in signs:
            def by_double_pass(x=x, sign=sign, si=si, l=l):
                r = series.first_kind(x, sign, si, l)
                return r.value, r.tail_bound

            run(f"first_kind/{name}/x={x:.4g}/l={l}/{sign:+d}", "series", by_double_pass)

    for name, (lam, deltas, u) in SWEEP_CASES.items():
        ki = kernel.KernelIndex(SpectralIndex(lam), deltas)
        # the mask of swept nodes is left out: which nodes the array passes
        # serve may change while every value, error and route stays
        for sgn, (values, errors, routes, _) in zip("+-", kernel.kernel_sweep(u, ki, SWEEP_TOL)):
            for ui, v, e, r in zip(u, values, errors, routes):
                print(f"sweep/{name}/{sgn}/u={ui.hex()} {r} {_hex(complex(v))} {_hex(e)}")

    for name, (lam, kind, x) in BIGFLOAT_CASES.items():
        def by_round(lam=lam, kind=kind, x=x):
            z = SurfacePoint.from_positive(x)
            if kind[0] == "signvec":
                sv = SignVector.from_string(kind[1])
                kind, sign = ("signvec", sv), sv.product_sign
            else:
                sign = kind[2]
            value, mass, terms, rel, _ = series._j_generic_mp(
                z, sign, SpectralIndex(lam), BIGFLOAT_DPS, kind)
            return complex(value), float(10 * rel * mass), float(mass), terms

        run(f"bigfloat/{name}/x={x:.4g}", "series", by_round)

    for name, (lam, signs, xs) in BAND_CASES.items():
        si = SpectralIndex(lam)
        for sv in map(SignVector.from_string, signs):
            for x in xs:
                def by_series(x=x, sv=sv, si=si):
                    r = series.j_function(x, sv, si, workloads.SERIES_TOL)
                    return r.value, r.tail_bound

                run(f"band/{name}/{sv}/x={x:.4g}", "series", by_series)

    lam, deltas, xs, tol = BAND_TRANSFORM
    sweep, nodes = kernel.kernel_sweep, [0, 0]  # left to bessel_kernel, all

    def recorded_sweep(u, ki, tol):
        out = sweep(u, ki, tol)
        for *_, mask in out:
            nodes[0] += int((~mask).sum())
            nodes[1] += mask.size
        return out

    kernel.kernel_sweep = recorded_sweep
    result = kernel.hankel_transform(
        kernel.WeightFunction.unit_mass(), kernel.KernelIndex(SpectralIndex(lam), deltas), xs, tol)
    kernel.kernel_sweep = sweep
    for x, v, e in zip(result.x, result.values, result.errors):
        print(f"band/transform/x={x:.4g} transform {_hex(complex(v))} {_hex(e)}")
    print(f"band/transform/nodes - left to bessel_kernel {nodes[0]} of {nodes[1]}")

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


_ROUTES = {"series": "series", "mb": "mb", "mellin-barnes": "mb", "asympt": "asympt",
           "asymptotic": "asympt", "exact": "exact"}


def _route(name) -> str:
    """The route (series, mb, asympt or exact) a route label, a kernel route
    (kernel/<method>) or a column prefix (mb_) names; "-" for none."""
    return _ROUTES.get(name.rsplit("/", 1)[-1].rstrip("_"), "-")


def _pairs(line, header=None):
    """(route, [(route of the pair, value, err)]) of a digest line: one pair
    for a kernel, sign-vector or sweep line, one per column prefix p with
    p + re, p + im and p + err for a CLI table row under the column names
    header (the pair's route is p's, or the row's method where p is empty);
    None for a line without them."""
    _, route, rest = (line.split(" ", 2) + ["", ""])[:3]
    try:
        if header is None:
            value, err = rest.split(" ")[:2]
            re_, im = map(float.fromhex, value.split(","))
            return route, [(_route(route), complex(re_, im), float.fromhex(err))]
        cells = dict(zip(header, rest.split(",")))
        method = cells.get("method", "-")
        pairs = [
            (_route(p or method), complex(float(cells[p + "re"]), float(cells[p + "im"])),
             float(cells[p + "err"]))
            for p in (name[:-2] for name in header if name.endswith("re"))
            if {p + "im", p + "err"} <= cells.keys()
        ]
        return method, pairs
    except ValueError:
        return None


def _ratios(a, b) -> dict:
    """Per route, the largest |value_A - value_B| / (err_A + err_B) over the
    pairs that differ; inf where one value is nan or both errors are 0."""
    worst = {}
    for (route, va, ea), (_, vb, eb) in zip(a, b):
        if va != vb and not (cmath.isnan(va) and cmath.isnan(vb)):
            ratio = abs(va - vb) / (ea + eb) if ea + eb > 0 else math.inf
            worst[route] = max(worst.get(route, 0.0), math.inf if math.isnan(ratio) else ratio)
    return worst


def _table_headers(lines):
    """Per (command, table file), the column names of its table: the first
    line of the file that is not a comment."""
    headers = {}
    for line in lines:
        label, source, rest = (line.split(" ", 2) + ["", ""])[:3]
        if source == "out" and not rest.startswith("#"):
            headers.setdefault((label, source), rest.split(","))
    return headers


def _workload(line) -> str:
    """The workload a digest line belongs to: a benchmark item's (its label
    starts with n<rank>/; a kernel-grid item has a kernel/ route), or the
    first part of the label."""
    label, route = (line.split(" ", 2) + [""])[:2]
    head = label.split("/", 1)[0]
    if not head[1:].isdigit():
        return head
    return "kernel-grid" if route.startswith("kernel/") else "signvec-routes"


def _dps(line):
    """The dps= field of a digest line (the digits of its big-float rounds),
    or None for a line without rounds."""
    last = line.rsplit(" ", 1)[-1]
    return last if last.startswith("dps=") else None


def _line_counts(root) -> dict:
    """wc -l of each module of root's src/besselhr, by file name."""
    return {p.name: p.read_bytes().count(b"\n") for p in Path(root, "src", "besselhr").glob("*.py")}


def compare(root_a, root_b) -> int:
    """Print the lines of the digests of two checkouts that differ, paired
    in order within each run of changed lines of equal length (difflib),
    then the line counts of their modules; 1 if a ratio exceeds 1 or a
    value became an exception."""
    a_lines, b_lines = (
        subprocess.run([sys.executable, __file__, str(root)], capture_output=True, text=True,
                       check=True).stdout.splitlines()
        for root in (root_a, root_b)
    )
    headers = _table_headers(a_lines)
    failed, moved = False, 0
    by_workload = {}  # (workload, route) -> [lines that differ, largest ratio]
    # workload -> lines whose big-float round digits changed, for every
    # workload with rounds in either digest
    rounds = {_workload(line): 0 for line in a_lines + b_lines if _dps(line)}

    def count(line, ratios):
        """Tally a differing line under its workload and each route in
        ratios (route -> largest ratio of its moved values)."""
        for route, ratio in ratios.items():
            entry = by_workload.setdefault((_workload(line), route), [0, 0.0])
            entry[0] += 1
            entry[1] = max(entry[1], ratio)

    def line_route(line):
        return _route((line.split(" ", 2) + [""])[1])

    matcher = difflib.SequenceMatcher(None, a_lines, b_lines, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        moved += max(i2 - i1, j2 - j1)
        if i2 - i1 != j2 - j1:  # lines without a partner
            for line in a_lines[i1:i2] if i2 - i1 >= j2 - j1 else b_lines[j1:j2]:
                count(line, {line_route(line): 0.0})
            for line in a_lines[i1:i2] + b_lines[j1:j2]:
                if _dps(line):
                    rounds[_workload(line)] += 1
            for line in a_lines[i1:i2]:
                print(f"- {line}")
            for line in b_lines[j1:j2]:
                failed |= " raises " in line
                print(f"+ {line}")
            continue
        for a, b in zip(a_lines[i1:i2], b_lines[j1:j2]):
            if _dps(a) != _dps(b):
                rounds[_workload(a)] += 1
            label, source, rest = (a.split(" ", 2) + ["", ""])[:3]
            header = headers.get((label, source))
            if header is not None and (rest.startswith("#") or rest.split(",") == header):
                header = None  # a comment or the column names: no value
            parsed = _pairs(a, header), _pairs(b, header)
            if None in parsed or not parsed[0][1]:
                failed |= " raises " in b and " raises " not in a
                count(a, {line_route(a): 0.0})
                print(f"{a}\n  -> {b}")
                continue
            (route_a, pairs_a), (route_b, pairs_b) = parsed
            ratios = _ratios(pairs_a, pairs_b)
            ratio = max(ratios.values(), default=0.0)
            count(a, ratios or {_route(route_a): 0.0})
            failed |= not ratio <= 1.0
            print(f"{label} {route_a} -> {route_b} ratio {ratio:.3g}")
    print(f"{moved} of {len(a_lines)} lines differ")
    for (name, route), (lines, ratio) in by_workload.items():
        print(f"{name}/{route}: {lines} lines differ, largest ratio {ratio:.3g}")
    for name, lines in rounds.items():
        print(f"{name}: {lines} lines changed their big-float round digits")
    counts_a, counts_b = _line_counts(root_a), _line_counts(root_b)
    for name in sorted(counts_a.keys() | counts_b.keys()):
        print(f"wc -l {name} {counts_a.get(name, 0)} -> {counts_b.get(name, 0)}")
    total_a, total_b = sum(counts_a.values()), sum(counts_b.values())
    print(f"wc -l total {total_a} -> {total_b} ({total_b - total_a:+d})")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) == 3:
        sys.exit(compare(*sys.argv[1:]))
    sys.exit(main(sys.argv))
