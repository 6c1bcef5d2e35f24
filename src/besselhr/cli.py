"""Command-line front end.

Subcommands: eval (single/grid evaluation by series, asymptotics or
Mellin-Barnes), coeffs (coefficient-table dumps with exact integers as
decimal strings), kernel and transform (signed-kernel and Hankel-transform
tables), oracle compare (per-point cross-method discrepancies) and verify
(one suite of the invariant registry in `besselhr.invariants`, each entry
run with its pinned inputs and tolerance, timed on its own).

Every output artifact embeds a JSON run-configuration header (commented out
in CSV) with the package version, a hash of the canonical configuration and
the contour/truncation policy, so re-running the same header reproduces the
numeric output byte for byte; all reductions run in fixed order.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__, _backend, invariants
from .asympt import DEFAULT_THETA, M_CAP, j_varsigma_asymptotic, sweep_start, validity_floor
from .coeffs import build_a_table, build_b_table, build_uv_tables
from .core import (
    OutOfSectorError,
    OverflowEvalError,
    PoleError,
    RootOfUnity,
    SignVector,
    SpectralIndex,
    SurfacePoint,
    ToleranceNotMetError,
    ValidityFloorError,
    check_tolerance,
)
from .kernel import (
    KernelIndex,
    WeightFunction,
    bessel_kernel,
    functional_equation_check,
    hankel_transform,
)
from .mellinbarnes import default_contour, mb_eval_est
from .series import j_function

USAGE_EXIT = 2
NUMERIC_EXIT = 3


def parse_complex(text: str) -> complex:
    t = text.strip().replace("i", "j").replace(" ", "")
    if t.endswith("j") or "j" in t:
        return complex(t)
    return complex(float(t))


def parse_lambda(text: str):
    return [parse_complex(p) for p in text.split(",") if p.strip()]


_GRID_FORM = "grid must be log:lo:hi:n or lin:lo:hi:n (n an integer) or a comma list of numbers"
MAX_GRID_POINTS = 1_000_000  # a log: or lin: grid of more points is refused before it is built


def parse_grid(text: str):
    try:
        if ":" in text:
            kind, lo, hi, count = text.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        else:
            kind, points = None, [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValueError(_GRID_FORM) from None
    if kind is not None:
        if kind not in ("log", "lin"):
            raise ValueError(_GRID_FORM)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("grid endpoints must be finite")
        if kind == "log" and (lo <= 0 or hi <= 0):
            raise ValueError("log grid needs positive endpoints")
        if count > MAX_GRID_POINTS:
            raise ValueError(f"grid of {count} points exceeds the limit of {MAX_GRID_POINTS}")
        points = list((np.geomspace if kind == "log" else np.linspace)(lo, hi, max(count, 0)))
    elif not all(math.isfinite(x) for x in points):
        raise ValueError("grid points must be finite")
    if not points:
        raise ValueError("grid has no points")
    return points


def parse_weight(text: str) -> WeightFunction:
    # e.g. gaussian-log:eta=0,mu=0.0,width=1.0
    if ":" in text:
        kind, rest = text.split(":", 1)
    else:
        kind, rest = text, ""
    if kind != "gaussian-log":
        raise ValueError("only the gaussian-log weight is supported")
    kw = {}
    for part in rest.split(","):
        if not part.strip():
            continue
        k, _, v = part.partition("=")
        k = k.strip()
        if k not in ("eta", "mu", "width", "amplitude"):
            raise ValueError(f"unknown weight parameter {k}")
        try:
            kw[k] = int(v) if k == "eta" else float(v)
        except ValueError:
            raise ValueError(
                f"weight parameters must be key=value with an integer eta, got {part!r}"
            ) from None
    return WeightFunction(**kw)


def parse_delta(text: str) -> list:
    parts = [d.strip() for d in text.split(",")]
    if not all(d in ("0", "1") for d in parts):
        raise ValueError(f"--delta must be comma-separated 0/1 parities, got {text!r}")
    return [int(d) for d in parts]


def fmt_float(v: float) -> str:
    return repr(float(v))


def config_header(cfg: dict) -> dict:
    canon = json.dumps(cfg, sort_keys=True, default=str)
    return {
        "version": __version__,
        "backend": _backend.BACKEND,
        "config": cfg,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
    }


def emit_rows(header: dict, columns, rows, fmt: str, out_path):
    if fmt == "json":
        payload = {
            "meta": header,
            "columns": list(columns),
            "rows": [
                [fmt_float(c) if isinstance(c, float) else c for c in row]
                for row in rows
            ],
        }
        text = json.dumps(payload, indent=1, default=str) + "\n"
    else:
        lines = ["# " + json.dumps(header, sort_keys=True, default=str)]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(
                ",".join(
                    fmt_float(c) if isinstance(c, float) else str(c) for c in row
                )
            )
        text = "\n".join(lines) + "\n"
    _write(text, out_path)


def _write(text: str, out_path):
    """text to the file out_path (--out), or to stdout when it is not given."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _index_from_args(args) -> SpectralIndex:
    lam = parse_lambda(args.lam)
    if args.n is not None and len(lam) != args.n:
        raise ValueError(f"--lambda has {len(lam)} entries but --n {args.n}")
    return SpectralIndex(lam)


def _contour_meta(si, x):
    c = default_contour(si, x)
    return {
        "base_real": c.base_real,
        "bend_height": c.bend_height,
        "bend_angle": c.bend_angle,
        "t_max_initial": c.t_max,
    }


def _asympt_policy(si):
    """The asymptotic route's constants; kernel_start is where the kernel's
    route rule (kernel._asymptotic_zone) starts to try the expansion."""
    return {
        "m_cap": M_CAP,
        "theta": DEFAULT_THETA,
        "validity_floor": validity_floor(si),
        "kernel_start": sweep_start(si),
    }


# a route that does not reach a point: below its floor, outside its sector
_OUT_OF_REACH = (OutOfSectorError, ValidityFloorError)


def _eval_point(method, x, sv, si, tol, caught=_OUT_OF_REACH + (OverflowEvalError,)):
    """Returns (value, err, method_tag, status); the errors in caught become
    a nan value with status "error: ..." instead of propagating."""
    try:
        if method == "series":
            r = j_function(x, sv, si, tol)
            return r.value, r.tail_bound, "series", "ok"
        if method == "asympt":
            r = j_varsigma_asymptotic(x, sv, si)
            return r.value, r.error_estimate, "asymptotic", "ok"
        if method == "mb":
            v, e = mb_eval_est(x, sv, si, tol)
            status = "ok" if e <= tol else "tolerance-not-met"
            return v, e, "mellin-barnes", status
        raise ValueError(f"unknown method {method}")
    except caught as exc:
        return complex("nan"), math.inf, method, f"error: {exc}"


def cmd_eval(args) -> int:
    si = _index_from_args(args)
    sv = SignVector.from_string(args.signs)
    if sv.n != si.rank:
        raise ValueError("--signs length must match the rank")
    if not args.x_grid and args.x is None:
        raise ValueError("provide --x or --x-grid")
    if args.x is not None and not math.isfinite(args.x):
        raise ValueError("--x must be finite")
    if not math.isfinite(args.arg):
        raise ValueError("--arg must be finite")
    if args.method == "mb" and args.arg:
        raise ValueError("the Mellin-Barnes route takes positive real x: drop --arg")
    xs = parse_grid(args.x_grid) if args.x_grid else [args.x]
    if min(xs) <= 0:
        raise ValueError("modulus must be positive")
    cfg = {
        "command": "eval",
        "method": args.method,
        "n": si.rank,
        "signs": str(sv),
        "lambda": [str(v) for v in si.lam],
        "x_grid": [fmt_float(x) for x in xs],
        "arg": args.arg,
        "tol": args.tol,
        "mb_contour": _contour_meta(si, max(xs)),
    }
    rows = []
    failures = 0
    for x in xs:
        z = SurfacePoint.from_polar(x, args.arg) if args.arg else x
        v, e, tag, status = _eval_point(args.method, z, sv, si, args.tol)
        if status != "ok":
            failures += 1
        rows.append([float(x), float(v.real), float(v.imag), float(e), tag, status])
    emit_rows(
        config_header(cfg),
        ["x", "re", "im", "err", "method", "status"],
        rows,
        args.format,
        args.out,
    )
    return NUMERIC_EXIT if failures else 0


def cmd_coeffs(args) -> int:
    n = args.n
    if n < 1:
        raise ValueError("--n must be at least 1")
    si = _index_from_args(args) if args.lam else None
    cfg = {
        "command": "coeffs",
        "n": n,
        "lambda": [str(v) for v in si.lam] if si else None,
        "xi": args.xi,
        "terms": args.terms,
    }
    rows = []
    atab = build_a_table(min(n + 2, 20), min(n + 2, 20))
    for j in range(atab.j_max + 1):
        for m in range(atab.m_max + 1):
            rows.append(["A", j, m, str(atab.a(j, m)), ""])
    if si is not None:
        uv = build_uv_tables(n, si)
        for k in range(n + 1):
            for jj in range(k + 1):
                for table, num in (("U", uv.u_num), ("V", uv.v_num)):
                    c = num[k][jj]
                    rows.append([table, k, jj, fmt_float(c.real), fmt_float(c.imag)])
        xi = RootOfUnity(2 * n, args.xi)
        bt = build_b_table(n, si, xi, args.terms)
        for m, c in enumerate(bt.coeffs):
            rows.append(["B", m, args.xi, fmt_float(c.real), fmt_float(c.imag)])
    emit_rows(
        config_header(cfg),
        ["table", "i", "j", "value_or_re", "im"],
        rows,
        args.format,
        args.out,
    )
    return 0


def cmd_kernel(args) -> int:
    si = _index_from_args(args)
    deltas = parse_delta(args.delta)
    ki = KernelIndex(si, deltas)
    xs = parse_grid(args.x_grid)
    cfg = {
        "command": "kernel",
        "n": si.rank,
        "lambda": [str(v) for v in si.lam],
        "delta": deltas,
        "x_grid_spec": args.x_grid,
        "method": args.method,
        "tol": args.tol,
        "mb_contour": _contour_meta(si, max(abs(float(x)) for x in xs) ** (1.0 / si.rank) * 2 * math.pi),
        "asympt_policy": _asympt_policy(si),
    }
    rows = []
    failures = 0
    for x in xs:
        try:
            r = bessel_kernel(float(x), ki, args.method, args.tol)
            rows.append(
                [
                    float(x),
                    float(r.value.real),
                    float(r.value.imag),
                    float(r.error),
                    r.method,
                    float(r.cancellation),
                ]
            )
        except (ToleranceNotMetError, OverflowEvalError) as exc:
            failures += 1
            rows.append([float(x), math.nan, math.nan, math.inf, "failed", 0.0])
    emit_rows(
        config_header(cfg),
        ["x", "re", "im", "err", "method", "cancellation"],
        rows,
        args.format,
        args.out,
    )
    return NUMERIC_EXIT if failures else 0


def cmd_transform(args) -> int:
    si = _index_from_args(args)
    deltas = parse_delta(args.delta)
    ki = KernelIndex(si, deltas)
    weight = parse_weight(args.weight)
    xs = parse_grid(args.x_grid)
    cfg = {
        "command": "transform",
        "n": si.rank,
        "lambda": [str(v) for v in si.lam],
        "delta": deltas,
        "weight": args.weight,
        "x_grid_spec": args.x_grid,
        "tol": args.tol,
        "asympt_policy": _asympt_policy(si),
    }
    if args.fe_report:  # first: it refuses bad s points before any kernel work
        spts = [parse_complex(p) for p in args.s_points.split(",")]
        rep = functional_equation_check(ki, weight, spts, rel_tol=args.fe_tol)
    res = hankel_transform(weight, ki, xs, args.tol)
    rows = [
        [float(x), float(v.real), float(v.imag), float(e)]
        for x, v, e in zip(res.x, res.values, res.errors)
    ]
    emit_rows(
        config_header(cfg), ["x", "re", "im", "err"], rows, args.format, args.out
    )
    if args.fe_report:
        payload = {
            "meta": config_header(cfg),
            "functional_equation": {
                "passed": bool(rep.passed),
                "max_rel_error": rep.max_rel_error,
                "checks": [
                    {"delta": d, "s": str(s), "rel_error": r}
                    for d, s, r in rep.rel_errors
                ],
            },
        }
        with open(args.fe_report, "w") as fh:
            json.dump(payload, fh, indent=1, default=str)
        if not rep.passed:
            return 1
    return 0


def cmd_oracle(args) -> int:
    if args.oracle_cmd != "compare":
        raise ValueError("oracle supports: compare")
    si = _index_from_args(args)
    sv = SignVector.from_string(args.signs)
    xs = parse_grid(args.x_grid)
    methods = [m.strip() for m in args.methods.split(",")]
    cfg = {
        "command": "oracle compare",
        "n": si.rank,
        "signs": str(sv),
        "lambda": [str(v) for v in si.lam],
        "methods": methods,
        "x_grid_spec": args.x_grid,
        "tol": args.tol,
    }
    cols = ["x"]
    for m in methods:
        cols += [f"{m}_re", f"{m}_im", f"{m}_err"]
    for i in range(len(methods)):
        for j in range(i + 1, len(methods)):
            cols.append(f"diff_{methods[i]}_{methods[j]}")
    # A route that does not reach x leaves nan columns.  A point beyond the
    # series (OverflowEvalError) fails as in eval, after every point is
    # evaluated, but with no status column the table is not written; a
    # quadrature failure ends the command at once, as in eval.
    rows = []
    failure = None
    for x in xs:
        vals = {}
        row = [float(x)]
        for m in methods:
            try:
                v, e, _, _ = _eval_point(m, float(x), sv, si, args.tol, caught=_OUT_OF_REACH)
            except OverflowEvalError as exc:
                failure = failure or exc
                v, e = complex("nan"), math.inf
            vals[m] = (v, e)
            row += [float(v.real), float(v.imag), float(e)]
        for i in range(len(methods)):
            for j in range(i + 1, len(methods)):
                row.append(abs(vals[methods[i]][0] - vals[methods[j]][0]))
        rows.append(row)
    if failure is not None:
        raise failure
    emit_rows(config_header(cfg), cols, rows, args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    entries = invariants.suite(args.suite)
    if not entries:
        print(f"unknown suite {args.suite}; choose from {invariants.suites()}", file=sys.stderr)
        return USAGE_EXIT
    checks = []
    for inv in entries:
        t0 = time.perf_counter()
        ok, dev, _ = inv.check()
        checks.append(
            {
                "name": inv.name,
                "status": "pass" if ok else "fail",
                "max_deviation": dev,
                "runtime_s": round(time.perf_counter() - t0, 3),
            }
        )
    report = {
        "meta": config_header({"command": f"verify {args.suite}"}),
        "suite": args.suite,
        "checks": checks,
        "passed": all(c["status"] == "pass" for c in checks),
    }
    _write(json.dumps(report, indent=1, default=str) + "\n", args.out)
    return 0 if report["passed"] else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that keeps an option value of exactly "--": argparse
    drops it as the end-of-options marker, so --signs=-- (rank 2, both
    signs minus) would reach the program empty.  Subparsers take the class."""

    def _get_values(self, action, arg_strings):
        if arg_strings == ["--"] and action.option_strings and action.nargs is None:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="besselhr",
        description="fundamental Bessel functions of arbitrary rank",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--lambda", dest="lam", required=True,
                        help="comma-separated complex components, e.g. 0.3,-0.1,-0.2")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None)

    pe = sub.add_parser("eval", help="evaluate J(x; signs, lambda)")
    common(pe)
    pe.add_argument("--method", choices=("series", "asympt", "mb"), default="series")
    pe.add_argument("--signs", required=True)
    pe.add_argument("--x", type=float, default=None)
    pe.add_argument("--x-grid", dest="x_grid", default=None)
    pe.add_argument("--arg", type=float, default=0.0,
                    help="designated argument of the point on the cover")
    pe.add_argument("--tol", type=float, default=1e-10)
    pe.set_defaults(func=cmd_eval)

    pc = sub.add_parser("coeffs", help="emit coefficient tables")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--lambda", dest="lam", default=None)
    pc.add_argument("--xi", type=int, default=0,
                    help="integer k: xi = exp(i pi k / n)")
    pc.add_argument("--terms", type=int, default=10)
    pc.add_argument("--format", choices=("csv", "json"), default="csv")
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_coeffs)

    pk = sub.add_parser("kernel", help="signed kernel on a grid")
    common(pk)
    pk.add_argument("--delta", required=True)
    pk.add_argument("--x-grid", dest="x_grid", required=True)
    pk.add_argument("--method", choices=("auto", "series", "mb", "asympt"),
                    default="auto")
    pk.add_argument("--tol", type=float, default=1e-9)
    pk.set_defaults(func=cmd_kernel)

    pt = sub.add_parser("transform", help="Hankel transform on a grid")
    common(pt)
    pt.add_argument("--delta", required=True)
    pt.add_argument("--weight", default="gaussian-log:eta=0")
    pt.add_argument("--x-grid", dest="x_grid", required=True)
    pt.add_argument("--tol", type=float, default=1e-7)
    pt.add_argument("--fe-report", dest="fe_report", default=None,
                    help="write the functional-equation JSON report here")
    pt.add_argument("--s-points", dest="s_points", default="0.5,0.5+1i,0.5+2i")
    pt.add_argument("--fe-tol", dest="fe_tol", type=float, default=1e-6)
    pt.set_defaults(func=cmd_transform)

    po = sub.add_parser("oracle", help="cross-method comparison tables")
    po.add_argument("oracle_cmd", choices=("compare",))
    common(po)
    po.add_argument("--methods", default="series,mb")
    po.add_argument("--signs", required=True)
    po.add_argument("--x-grid", dest="x_grid", required=True)
    po.add_argument("--tol", type=float, default=1e-9)
    po.set_defaults(func=cmd_oracle)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("suite", help="|".join(invariants.suites()))
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_verify)

    return p


def _check_tolerances(args):
    for name in ("tol", "fe_tol"):
        if hasattr(args, name):
            check_tolerance(getattr(args, name), f"--{name.replace('_', '-')}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_tolerances(args)
        return args.func(args)
    except (ValueError, PoleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ToleranceNotMetError, OverflowEvalError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
