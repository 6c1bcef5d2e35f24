#!/usr/bin/env python3
"""Self-test of the benchmark's checks; takes a few seconds.

Every check family is handed an output moved just past its bound (1 % over)
and must count a failed operation and make the run incorrect; the same
output moved just inside the bound (1 % under) must pass.  A check that
cannot fail shows nothing.  The outputs are synthetic: built from the
benchmark's own references, so no evaluator runs.

Usage: python3 perfbench/selftest.py    (exit code 0 when every check bites)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

OVER, UNDER = 1.01, 0.99
_ERR = 1e-15  # a reported error small enough that the relative floor sets the budget


def _item(items, key):
    for i, it in enumerate(items):
        if it.key == key:
            return i, it
    raise KeyError(key)


def _count(items, check, made):
    """(failed, correct) as run.check_rounds counts them.

    `made` is the outputs of each round, or a pair of those and the outputs
    of the untimed re-run.
    """
    outs_by_round, repeats = made if isinstance(made, tuple) else (made, None)
    rounds = [{"outs": outs} for outs in outs_by_round]
    checker, _, failed, _ = run.check_rounds(items, rounds, check, repeats)
    return failed, checker.correct


def _closed_form_budget(want, err, scale=None):
    s = abs(want) if scale is None else scale
    return max(checks.CLOSED_REL * s, 2.0 * err)


def signvec_cases():
    items = wl.build_signvec_routes()
    check = wl.check_signvec
    x_low = wl._SV_X[0]
    for key in (f"n1/zero/+/x={x_low:.4g}", f"n2/complex/+-/x={x_low:.4g}",
                f"n3/prototype/++-/x={x_low:.4g}"):
        i, it = _item(items, key)
        family, want = wl._signvec_reference(it.facts)
        budget = _closed_form_budget(want, _ERR)

        def outs(f, i=i, want=want, budget=budget):
            # series moved, mb exact: only the closed-form check can fail
            return [{i: {"series": (want + f * budget, _ERR), "mb": (want, _ERR)}}]

        yield f"{family} closed form ({key})", items, check, outs

    i, it = _item(items, f"n3/real/+++/x={x_low:.4g}")
    a = 0.5 + 0.25j

    def pair_outs(f, i=i):
        b = a * (1.0 + f * checks.PAIR_REL)  # the budget is PAIR_REL * max(|a|, |b|)
        return [{i: {"series": (a, 0.0), "mb": (b, 0.0)}}]

    yield "pairwise series~mb", items, check, pair_outs

    def bound_outs(f, i=i):
        tail = f * wl.SERIES_TOL * abs(a)
        return [{i: {"series": (a, tail), "mb": (a, 0.0)}}]

    yield "series bound within tol", items, check, bound_outs

    def repeat_outs(f, i=i):
        later = a if f < 1 else a * (1.0 + 2.0 ** -52)  # one ulp off
        return ([{i: {"series": (a, 0.0), "mb": (a, 0.0)}}],
                {i: {"series": (later, 0.0), "mb": (a, 0.0)}})

    yield "repeat of the re-run items", items, check, repeat_outs

    def raised_outs(f, i=i):
        out = (a, 0.0) if f < 1 else RuntimeError("moved")
        return [{i: {"series": out, "mb": (a, 0.0)}}]

    yield "exception outside the known faults", items, check, raised_outs


def kernel_cases():
    items = wl.build_kernel_grid()
    check = wl.check_kernel
    for key in ("n1/rank1/d=1/x=-2", "n2/rank2/d=01/x=-0.3981",
                "n5/prototype/d=01001/x=1", "n3/generic/d=010/x=0.1"):
        i, it = _item(items, key)
        ref = wl._kernel_reference(it.facts)
        want = ref[0]
        if it.facts["label"] == "generic":
            budget = 2 * ref[1]  # |diff| / (err + mb err), with err = mb err

            def outs(f, i=i, want=want, budget=budget, e=ref[1]):
                return [{i: {"kernel": (want + f * budget, e)}}]
        else:
            budget = _closed_form_budget(want, _ERR, max(ref[1], abs(want)))

            def outs(f, i=i, want=want, budget=budget):
                return [{i: {"kernel": (want + f * budget, _ERR)}}]

        yield f"kernel {it.facts['label']} ({key})", items, check, outs

    i, _ = _item(items, "n2/vanishing/d=10/x=-3")

    def vanish_outs(f, i=i):
        return [{i: {"kernel": (f * 1e-14, 1e-14)}}]

    yield "kernel vanishing point", items, check, vanish_outs


def hankel_cases():
    items = wl.build_hankel_fe(HERE)
    check = wl.check_hankel
    ref = json.loads(wl._REFERENCE.read_text())["points"]
    grid = [float(x) for x in wl.np.geomspace(0.5, 4.0, 20)]

    def csv_text(moved):
        rows = ["# {}", "x,re,im,err"]
        for k, x in enumerate(grid):
            v, err = 0j, 1e-12
            for p in ref:
                if p["index"] == k:
                    want = complex(p["re"], p["im"])
                    budget = _closed_form_budget(want, err + p["quad_err"])
                    v = want + (moved if p is ref[-1] else 0.0) * budget
            rows.append(f"{x!r},{v.real!r},{v.imag!r},{err!r}")
        return "\n".join(rows) + "\n"

    def fe_text(max_rel, passed=True):
        return json.dumps({"functional_equation": {"passed": passed, "max_rel_error": max_rel}})

    i2, _ = _item(items, "n2-readme")
    i3, _ = _item(items, "n3-criterion11")

    def transform_outs(f):
        return [{i2: {"cli": (0, csv_text(f), fe_text(1e-9))}}]

    def fe_outs(f):
        return [{i3: {"cli": (0, "", fe_text(f * wl.FE_TOL))}}]

    def exit_outs(f):
        return [{i3: {"cli": (0 if f < 1 else 1, "", fe_text(1e-9))}}]

    yield "transform vs mpmath quadrature", items, check, transform_outs
    yield "functional-equation report", items, check, fe_outs
    yield "CLI exit code", items, check, exit_outs


def known_fault_cases():
    """A known fault counts as failed and leaves the run correct; another
    exception at the same operation makes it incorrect."""
    items = wl.build_signvec_routes()
    for (key, route), exc_type in wl.KNOWN_FAULTS.items():
        i, _ = _item(items, key)
        yield f"known fault {key}/{route}", items, (1, True), [{i: {route: exc_type("known")}}]
        yield f"other exception {key}/{route}", items, (1, False), [{i: {route: ValueError()}}]


def main() -> int:
    bad = 0
    for name, items, want, outs in known_fault_cases():
        got = _count(items, wl.check_signvec, outs)
        bad += got != want
        print(f"{'ok  ' if got == want else 'FAIL'} {name}: failed={got[0]}, correct={got[1]}")
    for cases in (signvec_cases(), kernel_cases(), hankel_cases()):
        for name, items, check, make in cases:
            inside = _count(items, check, make(UNDER))
            past = _count(items, check, make(OVER))
            ok = inside == (0, True) and past[0] >= 1 and not past[1]
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: inside -> failed={inside[0]}, "
                  f"correct={inside[1]}; past -> failed={past[0]}, correct={past[1]}")
    print(f"{bad} check(s) that do not bite" if bad else "every check bites")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
